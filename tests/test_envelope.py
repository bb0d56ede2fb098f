"""The upper sweep's envelope LPs against per-scenario references.

``BoundIteration._envelope_values`` solves a stage's K scenario envelope LPs
at one state. With scenario-wise envelopes (DR below stage 1, when the next
stage has more than one scenario) it re-solves one live model per scenario
``A`` and ``c``, held while the stage, archive and penalty stay the same;
otherwise it solves them as one block-diagonal LP. It writes the l1 rows and
slacks only for coordinates with a positive penalty, and DR's support rows
read one level sum per CVaR level. These tests check its values against the
literal per-scenario LPs of ``references.envelope_subproblem``, which keeps
every row, also under a zero penalty and a penalty that is zero on a coupled
coordinate, and count the cold and live solves; that the live models are
built once per scenario ``A`` and ``c`` and again whenever the archive or the
penalty changes; that block j of the block LP is scenario j's own LP, the one
a failed block solves and saves, with nothing off the diagonal, and that the
live model held for scenario j is built from scenario j's ``A`` and ``c``;
that a failure names the first failing scenario and saves its LP alone; that
a DR run starts no thread; and that every archived value stays above the cut
model at its state.
"""

import os
import tempfile
import threading

import numpy as np
import pytest

import msrisk.lp
import msrisk.sddp
from msrisk.lp import LpSolution, RecourseError, solve_arrays
from references import envelope_subproblem
from test_live_lp import (
    bound_columns,
    costed_lattice,
    engine,
    lattice,
    priced_lattice,
    read_saved,
)


def narrowing_lattice():
    """Three scenarios at stages 2 and 3, then one: one envelope per stage-3 DR LP."""
    return lattice(K=[3, 3, 1])


def envelope_calls(eng, t):
    """The states and arguments of each stage-t envelope call of an upper sweep."""
    states = [eng.lattice.x0] if t == 1 else list(eng.visited[t - 1].values())
    return states, eng._archive_arrays(t), eng._penalty(t)


def reference_values(eng, t, x_prev, archive, penalty):
    robust = (eng.ambs[t + 1], eng.weights[t + 1]) if hasattr(eng, "ambs") else None
    values = []
    for r in eng.lattice.stage(t):
        sol = envelope_subproblem(r, x_prev, *archive, penalty, robust=robust).solve()
        assert sol.is_optimal
        values.append(sol.objective)
    return np.array(values)


def scenario_wise(t, archive):
    """Whether the stage-t envelope call re-solves live models: below stage 1,
    with one envelope column per next-stage scenario, more than one."""
    X, V = archive
    return t > 1 and np.reshape(V, (len(X), -1)).shape[1] > 1


def check_envelope_values(eng, monkeypatch, penalty_at=None):
    """Each envelope call of an upper sweep against the reference values. A
    scenario-wise call makes K live solves and no ``solve_arrays`` call, any
    other one ``solve_arrays`` call and no live solve. ``penalty_at(t)``
    replaces the penalty."""
    cold, live = [], []
    live_solve = msrisk.lp.ResolvableLp.solve

    def counted(*args, **kwargs):
        cold.append(1)
        return solve_arrays(*args, **kwargs)

    def counted_live(lp, b_eq):
        live.append(1)
        return live_solve(lp, b_eq)

    monkeypatch.setattr(msrisk.sddp, "solve_arrays", counted)
    monkeypatch.setattr(msrisk.lp.ResolvableLp, "solve", counted_live)
    checked = 0
    for t in range(1, eng.T):
        states, archive, penalty = envelope_calls(eng, t)
        if penalty_at is not None:
            penalty = penalty_at(t)
        for x_prev in states:
            cold.clear()
            live.clear()
            got = eng._envelope_values(t, x_prev, archive, penalty)
            if scenario_wise(t, archive):
                assert (len(cold), len(live)) == (0, eng.lattice.size(t))
            else:  # one block-diagonal LP for all K scenarios
                assert (len(cold), len(live)) == (1, 0)
            ref = reference_values(eng, t, x_prev, archive, penalty)
            assert got.shape == ref.shape
            np.testing.assert_array_less(np.abs(got - ref), 1e-9 * np.maximum(1.0, np.abs(ref)))
            checked += 1
    assert checked > eng.T


@pytest.mark.parametrize("kind", ["marsrm", "dr"])
@pytest.mark.parametrize(
    "make_lattice", [lattice, priced_lattice, costed_lattice, narrowing_lattice]
)
def test_envelope_values_match_per_scenario_lps(kind, make_lattice, monkeypatch):
    eng = engine(kind, make_lattice())
    eng.run()
    check_envelope_values(eng, monkeypatch)


@pytest.mark.parametrize("kind", ["marsrm", "dr"])
def test_envelope_values_under_a_zero_penalty(kind, monkeypatch):
    # no coordinate is priced, so the envelope LPs have no l1 rows at all
    eng = engine(kind, lattice(), lipschitz=0.0)
    eng.run()
    assert not any(np.any(eng._penalty(t)) for t in range(1, eng.T))
    check_envelope_values(eng, monkeypatch)


@pytest.mark.parametrize("kind", ["marsrm", "dr"])
def test_envelope_values_with_an_unpriced_coupled_coordinate(kind, monkeypatch):
    # the reference keeps that coordinate's l1 row, whose free slack makes it void
    eng = engine(kind, lattice())
    eng.run()

    def penalty_at(t):
        penalty = eng._penalty(t).copy()
        coupled = np.flatnonzero(eng._coupled_columns(t))
        assert coupled.size > 1 and np.all(penalty[coupled] > 0.0)
        penalty[coupled[0]] = 0.0
        return penalty

    check_envelope_values(eng, monkeypatch, penalty_at)


@pytest.mark.parametrize("kind", ["marsrm", "dr"])
@pytest.mark.parametrize("make_lattice", [lattice, costed_lattice, narrowing_lattice])
def test_block_lp_holds_each_scenarios_own_lp(kind, make_lattice, monkeypatch):
    # the block LP is reported infeasible, so every scenario's own LP is solved
    # too; a scenario-wise call holds one live model per scenario A and c instead
    eng = engine(kind, make_lattice())
    eng.run()
    calls = []

    def block_fails(*arrays):
        calls.append(arrays)
        if len(calls) == 1:
            return LpSolution("infeasible", None, None, None, None)
        return solve_arrays(*arrays)

    for t in range(1, eng.T):
        states, archive, penalty = envelope_calls(eng, t)
        want = eng._envelope_values(t, states[-1], archive, penalty)
        if scenario_wise(t, archive):
            check_held_models(eng, t, states[-1], archive, penalty)
            continue
        calls.clear()
        monkeypatch.setattr(msrisk.sddp, "solve_arrays", block_fails)
        got = eng._envelope_values(t, states[-1], archive, penalty)
        monkeypatch.setattr(msrisk.sddp, "solve_arrays", solve_arrays)
        # the per-scenario values are the block LP's
        np.testing.assert_array_less(np.abs(got - want), 1e-9 * np.maximum(1.0, np.abs(want)))
        (c, A_eq, b_eq, A_ub, b_ub, bounds), *own = calls
        K = len(own)
        assert K == eng.lattice.size(t)
        for whole, part in ((c, 0), (b_eq, 2), (b_ub, 4), (bounds, 5)):
            if whole is None:
                assert all(arrays[part] is None for arrays in own)
            else:
                np.testing.assert_array_equal(whole, np.concatenate([o[part] for o in own]))
        for whole, part in ((A_eq, 1), (A_ub, 3)):
            if whole is None:
                assert kind == "marsrm" and all(arrays[part] is None for arrays in own)
                continue
            h, w = own[0][part].shape
            blocks = whole.toarray().reshape(K, h, K, w)
            for i, arrays in enumerate(own):
                for k in range(K):
                    if k == i:
                        np.testing.assert_array_equal(blocks[i, :, k], arrays[part].toarray())
                    else:
                        assert not np.any(blocks[i, :, k])


def check_held_models(eng, t, x_prev, archive, penalty):
    """The live model held for scenario j has scenario j's ``c`` on its first
    n columns and its ``A`` in the balance rows, nothing else in those rows,
    the envelope part that every scenario shares, and the reference's columns
    and rows less the engine's reductions; one model per distinct ``A``, ``c``."""
    (held,) = eng._envelopes.values()
    reals = eng.lattice.stage(t)
    assert len(held) == len({(r.A.tobytes(), r.c.tobytes()) for r in reals})
    shared = None
    for r in reals:
        lp = held[(r.A.tobytes(), r.c.tobytes())]
        c, A_eq, A_ub, b_ub, bounds = lp._args
        (m, n), A_eq = r.A.shape, A_eq.toarray()
        np.testing.assert_array_equal(c[:n], r.c)
        np.testing.assert_array_equal(A_eq[:m, :n], r.A)
        assert not np.any(A_eq[:m, n:])
        rest = (c[n:], A_eq[m:], A_ub.toarray(), b_ub, bounds)
        if shared is None:
            shared = rest
        for got, want in zip(rest, shared):
            np.testing.assert_array_equal(got, want)
        assert (c.size, A_eq.shape[0] + A_ub.shape[0]) == saved_shape(
            eng, "dr", r, x_prev, archive, penalty, t
        )
        if lp._highs is not None:  # HiGHS holds exactly these arrays
            np.testing.assert_array_equal(lp._highs.getLp().col_cost_, c)
            assert lp._highs.getLp().num_row_ == A_eq.shape[0] + A_ub.shape[0]


def infeasible_from_scenario(lat, t=2, count=1):
    """A stage-(t-1) state where ``count`` or more stage-t balance rows, not
    scenario 0's, are infeasible; the state and the first infeasible scenario.

    A short position in the second asset makes the budget row's right-hand
    side ``returns . x_prev`` negative in the scenarios where that asset
    gained most.
    """
    reals = lat.stage(t)
    for short in np.linspace(0.0, 3.0, 301):
        x_prev = np.array([1.0, -short])
        status = [
            solve_arrays(np.zeros(r.num_vars), A_eq=r.A, b_eq=r.b - r.E @ x_prev).status
            for r in reals
        ]
        if status[0] == "optimal" and status.count("infeasible") >= count:
            return x_prev, status.index("infeasible")
    raise AssertionError(f"no state found with scenario 0 feasible and {count} infeasible")


def saved_shape(eng, kind, realization, x_prev, archive, penalty, t=2):
    """Columns and rows of the engine's stage-t LP for one scenario, from the
    reference: without the l1 rows and slacks of unpriced coordinates, and
    with DR's K level-sum rows and columns."""
    robust = (eng.ambs[t + 1], eng.weights[t + 1]) if kind == "dr" else None
    ref = envelope_subproblem(realization, x_prev, *archive, penalty, robust=robust)
    E = 1 if kind == "marsrm" else eng.lattice.size(t + 1)
    unpriced = int(np.sum(np.broadcast_to(penalty, (realization.num_vars,)) == 0.0))
    sums = 0 if kind == "marsrm" else eng.lattice.size(t + 1)
    assert unpriced > 0
    return ref.num_variables - 2 * E * unpriced + sums, sum(ref.num_rows) - E * unpriced + sums


@pytest.mark.parametrize("kind", ["marsrm", "dr"])
def test_failed_envelope_names_the_first_failing_scenario(kind):
    # the failing scenario's LP is saved and reads back infeasible
    if msrisk.lp._HIGHS is None:
        pytest.skip("scipy ships no HiGHS bindings to write or read the model")
    lat = lattice()
    eng = engine(kind, lat)
    eng.run()
    x_prev, first = infeasible_from_scenario(lat)
    assert first > 0
    archive, penalty = eng._archive_arrays(2), eng._penalty(2)
    message = (
        rf"^stage 2, scenario {first}: upper envelope LP is infeasible"
        r" \(the LP is saved in \S+\.mps\)$"
    )
    with pytest.raises(RecourseError, match=message) as err:
        eng._envelope_values(2, x_prev, archive, penalty)
    h = read_saved(str(err.value))
    columns, rows = saved_shape(eng, kind, lat.stage(2)[first], x_prev, archive, penalty)
    assert h.getLp().num_col_ == columns
    assert h.getLp().num_row_ == rows
    h.run()
    assert h.getModelStatus().name == "kInfeasible"


@pytest.mark.parametrize("kind", ["marsrm", "dr"])
def test_failed_envelope_without_highs_writes_nothing(kind, monkeypatch, tmp_path):
    # without HiGHS from the start, as a live model held from a run with it
    # would be written
    monkeypatch.setattr(msrisk.lp, "_HIGHS", None)
    lat = lattice()
    eng = engine(kind, lat)
    eng.run()
    x_prev, first = infeasible_from_scenario(lat)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    message = rf"^stage 2, scenario {first}: upper envelope LP is infeasible$"
    with pytest.raises(RecourseError, match=message):
        eng._envelope_values(2, x_prev, eng._archive_arrays(2), eng._penalty(2))
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("kind", ["marsrm", "dr"])
def test_several_failed_envelopes_save_only_the_first(kind, monkeypatch, tmp_path):
    # two scenarios fail; the per-scenario walk stops at the first
    if msrisk.lp._HIGHS is None:
        pytest.skip("scipy ships no HiGHS bindings to write or read the model")
    lat = lattice()
    eng = engine(kind, lat)
    eng.run()
    x_prev, first = infeasible_from_scenario(lat, count=2)
    archive, penalty = eng._archive_arrays(2), eng._penalty(2)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    message = rf"^stage 2, scenario {first}: upper envelope LP is infeasible \(the LP is saved"
    with pytest.raises(RecourseError, match=message) as err:
        eng._envelope_values(2, x_prev, archive, penalty)
    assert len(list(tmp_path.glob("msrisk-lp-*.mps"))) == 1
    h = read_saved(str(err.value))
    columns, _ = saved_shape(eng, kind, lat.stage(2)[first], x_prev, archive, penalty)
    assert h.getLp().num_col_ == columns
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("make_lattice", [lattice, narrowing_lattice])
def test_dr_run_starts_no_thread(make_lattice, monkeypatch):
    # even where the process may use four CPUs, every LP is solved on the calling thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda th: (started.append(th), start(th)))
    report = engine("dr", make_lattice(), seed=5).run()
    assert report.iterations == 4 and np.all(np.isfinite(bound_columns(report)[2]))
    assert started == []


@pytest.mark.parametrize("kind", ["marsrm", "dr"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_archived_values_dominate_the_cut_model(kind, seed):
    # each archived value bounds the next stage's risk (MARSRM) or scenario
    # value (DR) from above, and every cut in the matching pool from below
    lat = lattice()
    eng = engine(kind, lat, seed=seed, max_iterations=3)
    eng.run()
    checked = 0
    for t, archive in eng.archives.items():
        pools = eng._stage_pools(t + 1)
        for x, value in archive.values():
            value = np.broadcast_to(value, (len(pools),))
            for v, pool in zip(value, pools):
                G, g = pool.G, pool.g
                model = float(np.max(g + G @ x))
                assert v >= model - 1e-9 * max(1.0, abs(model)), (t, x, v, model)
                checked += 1
    assert checked >= lat.horizon - 1


@pytest.mark.parametrize(
    "make_lattice", [lattice, priced_lattice, costed_lattice, narrowing_lattice]
)
def test_live_envelope_models_match_a_cold_reference(make_lattice, monkeypatch):
    # a full refresh from no held model, then, per stage, a shifted archive and
    # a doubled penalty at visited and perturbed states: every value against
    # the reference; each (stage, archive, penalty) builds one live model per
    # distinct scenario A and c, none where the call is not scenario-wise
    eng = engine("dr", make_lattice())
    eng.run()
    builds, tag = [], [None]

    class Counted(msrisk.sddp.ResolvableLp):
        def __init__(self, *args):
            super().__init__(*args)
            if tag[0] is not None:  # envelope builds only, not stage builds
                builds.append(tag[0])

    monkeypatch.setattr(msrisk.sddp, "ResolvableLp", Counted)
    envelope = eng._envelope_values

    def checked(t, x_prev, archive, penalty, variant="refresh"):
        tag[0] = (t, variant)
        try:
            got = envelope(t, x_prev, archive, penalty)
        finally:
            tag[0] = None
        ref = reference_values(eng, t, x_prev, archive, penalty)
        np.testing.assert_array_less(np.abs(got - ref), 1e-9 * np.maximum(1.0, np.abs(ref)))
        return got

    eng._envelope_values = checked
    eng._envelopes.clear()
    eng.upper_sweep(None)
    rng = np.random.default_rng(17)
    for t in range(2, eng.T):
        X, V = eng._archive_arrays(t)
        penalty = eng._penalty(t)
        visited = list(eng.visited[t - 1].values())[:3]
        states = visited + [x * (1.0 + 0.3 * rng.uniform(-1.0, 1.0, x.size)) for x in visited]
        for variant, archive, M in (("shifted", (X, V + 1.0), penalty),
                                    ("doubled", (X, V + 1.0), 2.0 * penalty)):
            for x in states:
                checked(t, x, archive, M, variant)
    for t in range(1, eng.T):
        reals = eng.lattice.stage(t)
        distinct = len({(r.A.tobytes(), r.c.tobytes()) for r in reals})
        want = distinct if scenario_wise(t, eng._archive_arrays(t)) else 0
        for variant in ("refresh", "shifted", "doubled"):
            assert builds.count((t, variant)) == want
