"""The upper sweep's envelope LPs against per-scenario references.

``BoundIteration._envelope_values`` solves a stage's K scenario envelope LPs
at each state of a group, one call per stage of a sweep. Below stage 1, a
call over several states (MARSRM's final refresh) or with scenario-wise
envelopes (DR, when the next stage has more than one scenario) re-solves one
live model per scenario ``A`` and ``c``, built within the call. A call over
one state with one envelope column, and the stage-1 call, solve the K LPs as
one block-diagonal LP, and only a state whose block LP is not optimal goes
through those live models; those calls stay on the block LP while the
benchmark's tracer counts only ``linprog``'s solves. It writes the l1 rows
and slacks only for coordinates with a positive penalty, and DR's support
rows read one level sum per CVaR level. These tests check
its values against the literal per-scenario LPs of
``references.envelope_subproblem``, which keeps every row, also under a zero
penalty and a penalty that is zero on a coupled coordinate, and count the
cold and live solves; that each call builds one live model per scenario
``A`` and ``c`` it needs, whatever an earlier call built; that block j of
the block LP is scenario j's own LP, the one its live model solves when the
block fails, with nothing off the diagonal, and that the live model solved
for scenario j has scenario j's ``A`` and ``c``; that a MARSRM refresh makes
no block LP; that without the HiGHS class a multi-state call and a short run
match the HiGHS-class route; that a failure names the
first failing scenario and saves its LP alone; that a DR run starts no
thread; and that every archived value stays above the cut model at its
state.
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
    """The states and arguments of the stage-t envelope call of an upper sweep."""
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


def check_against_reference(eng, t, states, archive, penalty, got):
    """Row i of ``got`` against the reference values at ``states[i]``."""
    assert got.shape == (len(states), eng.lattice.size(t))
    for x_prev, row in zip(states, got):
        ref = reference_values(eng, t, x_prev, archive, penalty)
        np.testing.assert_array_less(np.abs(row - ref), 1e-9 * np.maximum(1.0, np.abs(ref)))


def on_live_models(t, states, archive):
    """Whether the stage-t envelope call over ``states`` re-solves live
    models: below stage 1, unless it certifies one state and has one envelope
    column (MARSRM, or DR before a one-scenario stage)."""
    X, V = archive
    return t > 1 and (len(states) > 1 or np.reshape(V, (len(X), -1)).shape[1] > 1)


def distinct_models(eng, t):
    """The number of distinct scenario ``A`` and ``c`` at stage t."""
    return len({(r.A.tobytes(), r.c.tobytes()) for r in eng.lattice.stage(t)})


def record_live(monkeypatch):
    """The live models that ``msrisk.sddp`` builds, each with the arrays it
    was built from as ``built_from``, and every live solve as ``(model,
    b_eq)``, in call order; patch after ``run()``, as stage models count too."""
    built, solved = [], []
    solve = msrisk.lp.ResolvableLp.solve

    class Recorded(msrisk.lp.ResolvableLp):
        def __init__(self, *arrays):
            super().__init__(*arrays)
            self.built_from = arrays
            built.append(self)

    def recorded_solve(lp, b_eq):
        solved.append((lp, b_eq))
        return solve(lp, b_eq)

    monkeypatch.setattr(msrisk.sddp, "ResolvableLp", Recorded)
    monkeypatch.setattr(msrisk.lp.ResolvableLp, "solve", recorded_solve)
    return built, solved


def count_cold(monkeypatch, fail=()):
    """The ``solve_arrays`` calls of ``msrisk.sddp`` as a list of their
    arrays; the calls whose 0-based index is in ``fail`` come back infeasible."""
    calls = []

    def counted(*arrays):
        calls.append(arrays)
        if len(calls) - 1 in fail:
            return LpSolution("infeasible", None, None, None, None)
        return solve_arrays(*arrays)

    monkeypatch.setattr(msrisk.sddp, "solve_arrays", counted)
    return calls


def check_envelope_values(eng, monkeypatch, penalty_at=None):
    """Each stage's envelope call of an upper sweep against the reference
    values. A call on live models makes K live solves per state, no
    ``solve_arrays`` call, and one build per distinct scenario ``A`` and
    ``c``; any other call (one state) one ``solve_arrays`` call and no live
    model. ``penalty_at(t)`` replaces the penalty."""
    built, solved = record_live(monkeypatch)
    cold = count_cold(monkeypatch)
    checked = 0
    for t in range(1, eng.T):
        states, archive, penalty = envelope_calls(eng, t)
        if penalty_at is not None:
            penalty = penalty_at(t)
        del built[:], solved[:], cold[:]
        got = eng._envelope_values(t, states, archive, penalty)
        K = eng.lattice.size(t)
        if on_live_models(t, states, archive):
            assert (len(cold), len(solved)) == (0, K * len(states))
            assert len(built) == distinct_models(eng, t)
        else:  # one block-diagonal LP for all K scenarios
            assert (len(cold), len(solved), len(built)) == (len(states), 0, 0)
        check_against_reference(eng, t, states, archive, penalty, got)
        checked += len(states)
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
    # on the live model of its A and c; a call on live models solves those alone
    eng = engine(kind, make_lattice())
    eng.run()
    built, solved = record_live(monkeypatch)
    for t in range(1, eng.T):
        states, archive, penalty = envelope_calls(eng, t)
        del built[:], solved[:]
        want = eng._envelope_values(t, states[-1:], archive, penalty)
        if on_live_models(t, states[-1:], archive):
            check_held_models(eng, t, states[-1], archive, penalty, built, solved)
            continue
        assert not built and not solved
        cold = count_cold(monkeypatch, fail=(0,))
        got = eng._envelope_values(t, states[-1:], archive, penalty)
        monkeypatch.setattr(msrisk.sddp, "solve_arrays", solve_arrays)
        # the per-scenario values are the block LP's
        np.testing.assert_array_less(np.abs(got - want), 1e-9 * np.maximum(1.0, np.abs(want)))
        ((c, A_eq, b_eq, A_ub, b_ub, bounds),) = cold
        K = len(solved)
        assert K == eng.lattice.size(t) and len(built) == distinct_models(eng, t)
        # scenario j's own LP: its model's arrays at the rhs it was solved for
        own = [(*lp.built_from[:2], rhs, *lp.built_from[3:]) for lp, rhs in solved]
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


def check_held_models(eng, t, x_prev, archive, penalty, built, solved):
    """The live model solved for scenario j, at scenario j's balance rhs, has
    scenario j's ``c`` on its first n columns and its ``A`` in the balance
    rows, nothing else in those rows, the envelope part that every scenario
    shares, and the reference's columns and rows less the engine's
    reductions; the call built one model per distinct ``A``, ``c``."""
    reals = eng.lattice.stage(t)
    assert len(built) == distinct_models(eng, t) and len(solved) == len(reals)
    by_key, shared = {}, None
    for r, (lp, rhs) in zip(reals, solved):
        assert by_key.setdefault((r.A.tobytes(), r.c.tobytes()), lp) is lp
        c, A_eq, _, A_ub, b_ub, bounds = lp.built_from
        (m, n), A_eq = r.A.shape, A_eq.toarray()
        np.testing.assert_array_equal(rhs[:m], r.b - r.E @ x_prev)
        np.testing.assert_array_equal(c[:n], r.c)
        np.testing.assert_array_equal(A_eq[:m, :n], r.A)
        assert not np.any(A_eq[:m, n:])
        rest = (c[n:], A_eq[m:], rhs[m:], A_ub.toarray(), b_ub, bounds)
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
    assert {id(lp) for lp in by_key.values()} == {id(lp) for lp in built}


@pytest.mark.parametrize("make_lattice", [lattice, priced_lattice, costed_lattice])
def test_failed_block_lp_takes_its_values_from_the_live_models(make_lattice, monkeypatch):
    # single-state MARSRM calls, the ones left on the block LP, one per state
    # of a stage's group; the second call's block LP comes back non-optimal:
    # that state's K values come from the live models, one per scenario A and
    # c, and match the reference; the other calls build and solve none
    eng = engine("marsrm", make_lattice())
    eng.run()
    built, solved = record_live(monkeypatch)
    checked = 0
    for t in range(2, eng.T):
        states, archive, penalty = envelope_calls(eng, t)
        if len(states) < 3:
            continue
        cold = count_cold(monkeypatch, fail=(1,))
        K = eng.lattice.size(t)
        for i, x_prev in enumerate(states):
            del built[:], solved[:]
            got = eng._envelope_values(t, [x_prev], archive, penalty)
            live = (K, distinct_models(eng, t)) if i == 1 else (0, 0)
            assert (len(cold), len(solved), len(built)) == (i + 1, *live)
            for (_, rhs), r in zip(solved, eng.lattice.stage(t)):  # at the failed state
                np.testing.assert_array_equal(rhs[: r.b.size], r.b - r.E @ x_prev)
            check_against_reference(eng, t, [x_prev], archive, penalty, got)
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("make_lattice", [lattice, priced_lattice, costed_lattice])
def test_marsrm_refresh_solves_on_live_models(make_lattice, monkeypatch):
    # a final refresh: each MARSRM call over three or more states makes no
    # block LP, K live solves per state and one build per scenario A and c
    eng = engine("marsrm", make_lattice())
    eng.run()
    built, solved = record_live(monkeypatch)
    cold = count_cold(monkeypatch)
    envelope, sizes = eng._envelope_values, []

    def counted(t, states, archive, penalty):
        del built[:], solved[:], cold[:]
        got = envelope(t, states, archive, penalty)
        if len(states) >= 3:
            K = eng.lattice.size(t)
            assert (len(cold), len(solved)) == (0, K * len(states))
            assert len(built) == distinct_models(eng, t)
            check_against_reference(eng, t, states, archive, penalty, got)
            sizes.append(len(states))
        return got

    eng._envelope_values = counted
    eng.upper_sweep(None)
    assert sizes


@pytest.mark.parametrize("make_lattice", [lattice, costed_lattice])
def test_marsrm_envelope_without_highs_matches_the_highs_class(make_lattice, monkeypatch):
    # without the HiGHS class each live model re-solves through linprog: a
    # multi-state call and a short run's bound columns match the HiGHS route
    if msrisk.lp._HIGHS is None:
        pytest.skip("scipy ships no HiGHS class to compare the fallback with")
    lat = make_lattice()
    eng = engine("marsrm", lat)
    report = eng.run()
    t = max(range(2, eng.T), key=lambda t: len(eng.visited[t - 1]))
    states, archive, penalty = envelope_calls(eng, t)
    assert len(states) >= 3
    want = eng._envelope_values(t, states, archive, penalty)
    monkeypatch.setattr(msrisk.lp, "_HIGHS", None)
    cold = count_cold(monkeypatch)
    got = eng._envelope_values(t, states, archive, penalty)
    assert not cold  # no block LP: each scenario's own LP, through linprog
    np.testing.assert_array_less(np.abs(got - want), 1e-9 * np.maximum(1.0, np.abs(want)))
    check_against_reference(eng, t, states, archive, penalty, got)
    fallback = engine("marsrm", lat).run()
    assert fallback.cuts == report.cuts
    for column in ("lower", "upper", "gap"):
        got, want = np.array(getattr(fallback, column)), np.array(getattr(report, column))
        np.testing.assert_array_less(np.abs(got - want), 1e-9 * np.maximum(1.0, np.abs(want)))


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
    # after a feasible state of the group, the failing scenario's LP is saved
    # at the failing state and reads back infeasible
    if msrisk.lp._HIGHS is None:
        pytest.skip("scipy ships no HiGHS bindings to write or read the model")
    lat = lattice()
    eng = engine(kind, lat)
    eng.run()
    x_prev, first = infeasible_from_scenario(lat)
    assert first > 0
    states = [next(iter(eng.visited[1].values())), x_prev]
    archive, penalty = eng._archive_arrays(2), eng._penalty(2)
    message = (
        rf"^stage 2, scenario {first}: upper envelope LP is infeasible"
        r" \(the LP is saved in \S+\.mps\)$"
    )
    with pytest.raises(RecourseError, match=message) as err:
        eng._envelope_values(2, states, archive, penalty)
    h = read_saved(str(err.value))
    columns, rows = saved_shape(eng, kind, lat.stage(2)[first], x_prev, archive, penalty)
    assert h.getLp().num_col_ == columns
    assert h.getLp().num_row_ == rows
    h.run()
    assert h.getModelStatus().name == "kInfeasible"


@pytest.mark.parametrize("kind", ["marsrm", "dr"])
def test_failed_envelope_without_highs_writes_nothing(kind, monkeypatch, tmp_path):
    # without HiGHS no model can be written, so the message names no file
    monkeypatch.setattr(msrisk.lp, "_HIGHS", None)
    lat = lattice()
    eng = engine(kind, lat)
    eng.run()
    x_prev, first = infeasible_from_scenario(lat)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    message = rf"^stage 2, scenario {first}: upper envelope LP is infeasible$"
    with pytest.raises(RecourseError, match=message):
        eng._envelope_values(2, [x_prev], eng._archive_arrays(2), eng._penalty(2))
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
        eng._envelope_values(2, [x_prev], archive, penalty)
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
    # a full refresh, then, per stage, a shifted archive and a doubled penalty
    # at visited and perturbed states: every value against the reference; each
    # call on live models builds one per distinct scenario A and c, whatever
    # the calls before it built, and any other call builds none
    eng = engine("dr", make_lattice())
    eng.run()
    built, _ = record_live(monkeypatch)
    envelope, calls = eng._envelope_values, []

    def checked(t, states, archive, penalty, variant="refresh"):
        built.clear()
        got = envelope(t, states, archive, penalty)
        live = on_live_models(t, states, archive)
        assert len(built) == (distinct_models(eng, t) if live else 0)
        check_against_reference(eng, t, states, archive, penalty, got)
        calls.append((t, variant))
        return got

    eng._envelope_values = checked
    eng.upper_sweep(None)
    rng = np.random.default_rng(17)
    for t in range(2, eng.T):
        X, V = eng._archive_arrays(t)
        penalty = eng._penalty(t)
        visited = list(eng.visited[t - 1].values())[:3]
        states = visited + [x * (1.0 + 0.3 * rng.uniform(-1.0, 1.0, x.size)) for x in visited]
        for variant, archive, M in (("shifted", (X, V + 1.0), penalty),
                                    ("doubled", (X, V + 1.0), 2.0 * penalty)):
            checked(t, states, archive, M, variant)
    # one call per stage and variant
    assert sorted(calls) == sorted(
        [(t, "refresh") for t in range(1, eng.T)]
        + [(t, v) for t in range(2, eng.T) for v in ("shifted", "doubled")]
    )
