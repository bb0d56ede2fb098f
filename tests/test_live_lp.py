"""The engines' live stage model against the rebuild-and-linprog route.

``BoundIteration._solve_stage`` keeps one ``ResolvableLp`` alive per engine
and re-solves it warm while only the balance rows' right-hand side changes.
These tests check every such solve against a cold ``solve_arrays`` solve of
the same LP, check that the fallback without HiGHS bindings reproduces the
rebuild route bit for bit, that engines share no model state, and that a
failed stage LP is saved where the error message says.
"""

import os
import re
import threading

import numpy as np
import pytest

import msrisk.lp
from msrisk.dr import DrSddp, MomentAmbiguitySet
from msrisk.lp import LpError, LpModel, RecourseError, solve_arrays
from msrisk.scenario import (
    RngStream,
    ScenarioLattice,
    StageRealization,
    build_lognormal_lattice,
    preset_preference,
)
from msrisk.sddp import Cut, MarsrmSddp, TrainOptions

HALF_CVAR = preset_preference("dirac", lam=0.0, alpha=0.5)


def lattice(seed=3, T=4, K=3):
    return build_lognormal_lattice(
        T, 2, 0.6, 0.3, 0.5, K, RngStream(seed), transaction_cost=0.01
    )


def priced_lattice():
    """``lattice()`` with the stage objective differing between scenarios."""
    lat = lattice()
    return ScenarioLattice(
        [lat.stage(1)]
        + [
            [StageRealization(r.c * (1.0 + 0.1 * j), r.b, r.A, r.E, r.prob)
             for j, r in enumerate(lat.stage(t))]
            for t in range(2, lat.horizon + 1)
        ]
    )


def costed_lattice():
    """``lattice()`` with the trade cost in the budget row of ``A`` differing per scenario."""
    lat = lattice()
    stages = [lat.stage(1)]
    for t in range(2, lat.horizon + 1):
        reals = []
        for j, r in enumerate(lat.stage(t)):
            A, assets = r.A.copy(), r.num_vars // 4
            A[0, assets : 2 * assets] = 0.01 * (1 + j)
            reals.append(StageRealization(r.c, r.b, A, r.E, r.prob))
        stages.append(reals)
    return ScenarioLattice(stages)


def ambiguity(seed=4, size=4):
    rng = np.random.default_rng(seed)
    support = np.column_stack([rng.uniform(0.05, 0.95, size), rng.uniform(0.05, 0.9, size)])
    return MomentAmbiguitySet.from_empirical(support, rng.dirichlet(np.ones(size) * 3.0))


def engine(kind, lat, rebuilt=False, **options):
    opts = TrainOptions(**{"max_iterations": 4, "tolerance": 0.0, "big": 100.0, **options})
    if kind == "marsrm":
        return (RebuiltMarsrm if rebuilt else MarsrmSddp)(lat, prefs=HALF_CVAR, options=opts)
    return (RebuiltDr if rebuilt else DrSddp)(lat, ambiguity(), options=opts)


def rebuilt_stage(eng, t, j, x_prev):
    """The stage LP rebuilt and solved cold through ``solve_arrays``."""
    r = eng.lattice.stage(t)[j]
    model = LpModel()
    x = model.add_variables(r.num_vars, obj=r.c, lb=0.0)
    model.add_equality(x, r.A, r.b - r.E @ x_prev)
    if t < eng.T:
        eng._risk_block(model, t, x)
    return solve_arrays(*model.arrays())


class RebuildEachSolve:
    """``_solve_stage`` as a fresh ``solve_arrays`` call per solve, with no live model."""

    def _solve_stage(self, t, j, x_prev, need_duals=False):
        sol = rebuilt_stage(self, t, j, x_prev)
        if not sol.is_optimal:
            raise LpError(f"stage {t}, scenario {j}: LP is {sol.status}")
        return float(sol.objective), sol.x[: self.lattice.num_vars(t)], sol.eq_duals


class RebuiltMarsrm(RebuildEachSolve, MarsrmSddp):
    pass


class RebuiltDr(RebuildEachSolve, DrSddp):
    pass


def bound_columns(report):
    return report.cuts, report.lower, report.upper, report.gap


@pytest.mark.parametrize("kind", ["marsrm", "dr"])
@pytest.mark.parametrize("make_lattice", [lattice, priced_lattice, costed_lattice])
def test_every_live_solve_matches_a_cold_rebuild(kind, make_lattice):
    lat = make_lattice()
    eng = engine(kind, lat)
    live_solve = eng._solve_stage
    rng = np.random.default_rng(5)
    seen = {"warm": 0}

    def checked(t, j, x_prev, need_duals=False):
        before = eng._live
        v, x, duals = live_solve(t, j, x_prev, need_duals=True)
        seen["warm"] += eng._live is before
        ref = rebuilt_stage(eng, t, j, x_prev)
        assert abs(v - ref.objective) <= 1e-9 * max(1.0, abs(ref.objective))
        # the live duals give a cut: tight at x_prev, below the value elsewhere
        E = lat.stage(t)[j].E
        grad = -(duals @ E)
        for _ in range(2):
            y = x_prev * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, x_prev.size))
            true = rebuilt_stage(eng, t, j, y).objective
            assert v + grad @ (y - x_prev) <= true + 1e-7 * max(1.0, abs(true))
        return v, x, duals if need_duals else None

    eng._solve_stage = checked
    eng.run()
    # scenarios that share A and c share one model, so many solves are warm
    assert (seen["warm"] > 0) == (make_lattice is lattice)


@pytest.mark.parametrize("kind", ["marsrm", "dr"])
def test_a_new_cut_rebuilds_the_live_model(kind):
    lat = lattice()
    eng = engine(kind, lat)
    eng.run()
    x = np.array([0.6, 0.4])
    before, _, _ = eng._solve_stage(2, 0, x)
    for pool in eng._stage_pools(3):  # a cut far above the others
        pool.add(Cut(10.0, np.zeros(lat.num_vars(2))))
    after, _, _ = eng._solve_stage(2, 0, x)
    assert after > before + 1.0
    assert after == pytest.approx(rebuilt_stage(eng, 2, 0, x).objective, rel=1e-9)


@pytest.mark.parametrize("kind", ["marsrm", "dr"])
def test_fallback_without_highs_reproduces_the_rebuild_route(kind, monkeypatch):
    monkeypatch.setattr(msrisk.lp, "_HIGHS", None)
    lat = lattice()
    fallback = engine(kind, lat, seed=7).run()
    rebuilt = engine(kind, lat, rebuilt=True, seed=7).run()
    assert bound_columns(fallback) == bound_columns(rebuilt)


def in_turns(engines):
    """Run the engines in threads that take turns, one stage solve each."""
    cond = threading.Condition()
    turn, done, reports, errors = [0], set(), {}, []

    def taking_turns(i, solve):
        def wrapped(*args, **kwargs):
            with cond:  # held through the solve: one solve at a time, in turn
                cond.wait_for(lambda: turn[0] == i or done)
                try:
                    return solve(*args, **kwargs)
                finally:
                    turn[0] = 1 - i
                    cond.notify_all()
        return wrapped

    def work(i, eng):
        try:
            reports[i] = eng.run()
        except Exception as exc:  # re-raised in the main thread
            errors.append(exc)
        finally:
            with cond:
                done.add(i)
                cond.notify_all()

    for i, eng in enumerate(engines):
        eng._solve_stage = taking_turns(i, eng._solve_stage)
    threads = [threading.Thread(target=work, args=pair, daemon=True) for pair in enumerate(engines)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=300)
        assert not th.is_alive(), "engines taking turns did not finish"
    if errors:
        raise errors[0]
    return [reports[i] for i in range(len(engines))]


@pytest.mark.parametrize("kinds", [("marsrm", "marsrm"), ("dr", "dr"), ("marsrm", "dr")])
def test_interleaved_engines_share_no_model_state(kinds):
    # the floor cuts differ, so engines of one kind whose solves alternate
    # hold different LPs under the same stage and cut counts
    lat = lattice()
    options = [dict(seed=1, big=100.0), dict(seed=2, big=50.0)]
    alone = [engine(kind, lat, **opts).run() for kind, opts in zip(kinds, options)]
    together = in_turns([engine(kind, lat, **opts) for kind, opts in zip(kinds, options)])
    assert [bound_columns(r) for r in together] == [bound_columns(r) for r in alone]


def test_infeasible_stage_is_saved_and_reads_back():
    if msrisk.lp._HIGHS is None:
        pytest.skip("scipy ships no HiGHS bindings to write or read the model")
    lat = lattice()
    eng = engine("marsrm", lat)
    eng.run()
    # a negative holding makes the budget row's right-hand side negative
    with pytest.raises(RecourseError, match=r"saved in .*\.mps") as err:
        eng._solve_stage(2, 0, -np.ones(lat.num_vars(1)))
    h = read_saved(str(err.value))
    lp = h.getLp()
    assert lp.num_col_ == lat.num_vars(2) + 1  # the stage columns and theta
    assert lp.num_row_ == eng.pools[3].count + 1 + lat.stage(2)[0].A.shape[0]
    h.run()
    assert h.getModelStatus().name == "kInfeasible"


def read_saved(message):
    """HiGHS holding the model saved in the file an error message names; the
    file is removed."""
    path = re.search(r"saved in (\S+\.mps)", message).group(1)
    try:
        h = msrisk.lp._HIGHS()
        h.setOptionValue("output_flag", False)
        assert h.readModel(path).name == "kOk"
        return h
    finally:
        os.remove(path)
