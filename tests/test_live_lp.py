"""The engines' live stage models against the rebuild-and-linprog route.

``BoundIteration._solve_stage`` keeps one ``ResolvableLp`` alive per stage,
re-solves it warm for each state and grows it in place by the cuts its pools
gain, rebuilding it only when the scenario's ``A`` or ``c`` change. These
tests check every such solve, and every grown model at random states, against
a cold ``solve_arrays`` solve of the same LP, count the builds, check that the
fallback without HiGHS bindings reproduces the rebuild route bit for bit,
that engines share no model state, and that a failed stage LP is saved where
the error message says.
"""

import os
import re
import threading

import numpy as np
import pytest

import msrisk.lp
import msrisk.sddp
from msrisk.dr import DrSddp, MomentAmbiguitySet
from msrisk.lp import LpError, RecourseError, solve_arrays
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
    pools = eng._stage_pools(t + 1) if t < eng.T else []
    model, _ = eng._stage_model(t, r, r.b - r.E @ x_prev, pools)
    return solve_arrays(*model.arrays())


def count_builds(monkeypatch):
    """The ``ResolvableLp`` models the engines build, in build order."""
    built = []

    class Counted(msrisk.sddp.ResolvableLp):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(msrisk.sddp, "ResolvableLp", Counted)
    return built


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
def test_every_live_solve_matches_a_cold_rebuild(kind, make_lattice, monkeypatch):
    built = count_builds(monkeypatch)
    lat = make_lattice()
    eng = engine(kind, lat)
    live_solve = eng._solve_stage
    rng = np.random.default_rng(5)

    def checked(t, j, x_prev, need_duals=False):
        v, x, duals = live_solve(t, j, x_prev, need_duals=True)
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
    if msrisk.lp._HIGHS is None:
        return
    # scenarios that share A and c share one model per stage, grown in place;
    # scenarios that do not rebuild it at each change
    if make_lattice is lattice:
        assert len(built) <= lat.horizon
    else:
        assert len(built) > lat.horizon


@pytest.mark.parametrize("kind", ["marsrm", "dr"])
def test_a_new_cut_grows_the_live_model(kind, monkeypatch):
    built = count_builds(monkeypatch)
    lat = lattice()
    eng = engine(kind, lat)
    eng.run()
    x = np.array([0.6, 0.4])
    before, _, _ = eng._solve_stage(2, 0, x)
    builds = len(built)
    for pool in eng._stage_pools(3):  # a cut far above the others
        pool.add(Cut(10.0, np.zeros(lat.num_vars(2))))
    after, _, _ = eng._solve_stage(2, 0, x)
    assert after > before + 1.0
    assert after == pytest.approx(rebuilt_stage(eng, 2, 0, x).objective, rel=1e-9)
    assert len(built) == builds or msrisk.lp._HIGHS is None


@pytest.mark.parametrize("kind", ["marsrm", "dr"])
def test_a_grown_model_matches_a_cold_rebuild_at_random_states(kind, monkeypatch):
    if msrisk.lp._HIGHS is None:
        pytest.skip("scipy ships no HiGHS bindings to grow a model in place")
    built = count_builds(monkeypatch)
    lat = lattice()
    eng = engine(kind, lat)
    live_solve = eng._solve_stage
    rng = np.random.default_rng(11)
    grown = []

    def checked(t, j, x_prev, need_duals=False):
        held, builds = eng._live.get(t), len(built)
        result = live_solve(t, j, x_prev, need_duals)
        if held is None or len(built) > builds or eng._live[t][1] == held[1]:
            return result
        grown.append(t)
        v0 = rebuilt_stage(eng, t, j, x_prev).objective
        for _ in range(3):
            y = x_prev * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, x_prev.size))
            v, _, duals = live_solve(t, j, y, need_duals=True)
            assert len(built) == builds  # re-solved warm, not rebuilt
            ref = rebuilt_stage(eng, t, j, y).objective
            assert abs(v - ref) <= 1e-9 * max(1.0, abs(ref))
            # the balance duals give a cut tight at y and below the value at x_prev
            grad = -(duals @ lat.stage(t)[j].E)
            assert v + grad @ (x_prev - y) <= v0 + 1e-7 * max(1.0, abs(v0))
        return result

    eng._solve_stage = checked
    eng.run()
    assert set(grown) == set(range(1, lat.horizon))
    assert len(built) <= lat.horizon


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
