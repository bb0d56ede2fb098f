"""The upper sweep's envelope LPs against per-scenario references.

``BoundIteration._envelope_values`` solves a stage's K scenario envelope LPs
at one state as one block-diagonal LP when the envelope block adds no rows
(MARSRM) and as K LPs side by side on up to two usable CPUs when it does (DR,
whatever the next stage's scenario count). These tests check its values
against the literal per-scenario LPs of ``references.envelope_subproblem``,
that a failed block names the first failing scenario and saves its LP alone,
that DR's bound columns do not depend on the CPU count, and that every
archived value stays above the cut model at its state.
"""

import tempfile

import numpy as np
import pytest

import msrisk.lp
import msrisk.sddp
from msrisk.lp import RecourseError, solve_arrays
from references import envelope_subproblem
from test_lp import counted_threads
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


@pytest.mark.parametrize("kind", ["marsrm", "dr"])
@pytest.mark.parametrize(
    "make_lattice", [lattice, priced_lattice, costed_lattice, narrowing_lattice]
)
def test_envelope_values_match_per_scenario_lps(kind, make_lattice, monkeypatch):
    lat = make_lattice()
    eng = engine(kind, lat)
    eng.run()
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_arrays(*args, **kwargs)

    monkeypatch.setattr(msrisk.sddp, "solve_arrays", counted)
    checked = 0
    for t in range(1, lat.horizon):
        states, archive, penalty = envelope_calls(eng, t)
        for x_prev in states:
            calls.clear()
            got = eng._envelope_values(t, x_prev, archive, penalty)
            # one LP for all scenarios with one envelope each, else one per scenario
            assert len(calls) == (1 if kind == "marsrm" else lat.size(t))
            ref = reference_values(eng, t, x_prev, archive, penalty)
            assert got.shape == ref.shape
            np.testing.assert_array_less(np.abs(got - ref), 1e-9 * np.maximum(1.0, np.abs(ref)))
            checked += 1
    assert checked > lat.horizon


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
    robust = (eng.ambs[3], eng.weights[3]) if kind == "dr" else None
    ref = envelope_subproblem(lat.stage(2)[first], x_prev, *archive, penalty, robust=robust)
    assert h.getLp().num_col_ == ref.num_variables
    assert h.getLp().num_row_ == sum(ref.num_rows)
    h.run()
    assert h.getModelStatus().name == "kInfeasible"


@pytest.mark.parametrize("kind", ["marsrm", "dr"])
def test_failed_envelope_without_highs_writes_nothing(kind, monkeypatch, tmp_path):
    lat = lattice()
    eng = engine(kind, lat)
    eng.run()
    x_prev, first = infeasible_from_scenario(lat)
    monkeypatch.setattr(msrisk.lp, "_HIGHS", None)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    message = rf"^stage 2, scenario {first}: upper envelope LP is infeasible$"
    with pytest.raises(RecourseError, match=message):
        eng._envelope_values(2, x_prev, eng._archive_arrays(2), eng._penalty(2))
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("kind", ["marsrm", "dr"])
def test_several_failed_envelopes_save_only_the_first(kind, monkeypatch, tmp_path):
    # scenarios 1 and 2 fail side by side; a loop would have stopped at 1
    if msrisk.lp._HIGHS is None:
        pytest.skip("scipy ships no HiGHS bindings to write or read the model")
    lat = lattice()
    eng = engine(kind, lat)
    eng.run()
    x_prev, first = infeasible_from_scenario(lat, count=2)
    archive, penalty = eng._archive_arrays(2), eng._penalty(2)
    monkeypatch.setattr(msrisk.lp, "usable_cpus", lambda: 4)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    message = rf"^stage 2, scenario {first}: upper envelope LP is infeasible \(the LP is saved"
    with pytest.raises(RecourseError, match=message) as err:
        eng._envelope_values(2, x_prev, archive, penalty)
    assert len(list(tmp_path.glob("msrisk-lp-*.mps"))) == 1
    h = read_saved(str(err.value))
    robust = (eng.ambs[3], eng.weights[3]) if kind == "dr" else None
    ref = envelope_subproblem(lat.stage(2)[first], x_prev, *archive, penalty, robust=robust)
    assert h.getLp().num_col_ == ref.num_variables
    assert not any(tmp_path.iterdir())


def hex_columns(report):
    return [[float(v).hex() for v in col] for col in bound_columns(report)]


@pytest.mark.parametrize("make_lattice", [lattice, narrowing_lattice])
def test_dr_bound_columns_do_not_depend_on_the_cpu_count(make_lattice, monkeypatch):
    lat = make_lattice()
    started = counted_threads(monkeypatch)
    columns = {}
    for cpus in (1, 4):
        started.clear()
        monkeypatch.setattr(msrisk.lp, "usable_cpus", lambda: cpus)
        columns[cpus] = hex_columns(engine("dr", lat, seed=5).run())
        # one CPU: every LP on the calling thread; four: one helper per state
        assert bool(started) == (cpus > 1)
    assert columns[1] == columns[4]


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
                G, g = pool.matrices()
                model = float(np.max(g + G @ x))
                assert v >= model - 1e-9 * max(1.0, abs(model)), (t, x, v, model)
                checked += 1
    assert checked >= lat.horizon - 1
