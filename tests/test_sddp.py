from dataclasses import replace

import numpy as np
import pytest

import msrisk.sddp
from msrisk.dr import DrSddp, MomentAmbiguitySet
from msrisk.extensive import cost_to_go_oracle, extensive_form_marsrm, subtree_value
from msrisk.risk import (
    DiscreteDistribution,
    UnsupportedConfigurationError,
    cvar,
)
from msrisk.scenario import (
    RngStream,
    ScenarioLattice,
    build_lognormal_lattice,
    preset_preference,
)
from msrisk.sddp import Cut, CutPool, MarsrmSddp, TrainOptions, _dedupe, train
from references import stage_subproblem


def lattice(seed=0, T=2, assets=2, K=4, f=0.0):
    return build_lognormal_lattice(
        T, assets, 0.6, 0.3, 0.5, K, RngStream(seed), transaction_cost=f
    )


def simplex_states(rng, n, count):
    w = rng.dirichlet(np.ones(n), size=count)
    return list(w)


HALF_CVAR = preset_preference("dirac", lam=0.0, alpha=0.5)
NEUTRAL = preset_preference("risk_neutral")


class TestStageSubproblem:
    def test_terminal_structure(self):
        lat = lattice(T=2, K=3)
        r = lat.stage(2)[0]
        model = stage_subproblem(r, np.array([0.5, 0.5]), cuts=None)
        eq, ub = model.num_rows
        assert eq == r.A.shape[0] and ub == 0
        assert model.num_variables == r.num_vars  # no epigraph variable

    def test_single_floor_cut_sets_theta(self):
        lat = lattice(T=3, K=3)
        r = lat.stage(2)[0]
        floor = Cut(-50.0, np.zeros(r.num_vars))
        model = stage_subproblem(r, np.array([0.7, 0.3]), cuts=[floor])
        sol = model.solve()
        assert sol.is_optimal
        theta = sol.x[-1]  # the epigraph column is the last
        assert abs(theta - (-50.0)) < 1e-9

    def test_engine_matches_model_builder(self):
        lat = lattice(seed=1, T=3, K=3)
        engine = MarsrmSddp(lat, prefs=HALF_CVAR, options=TrainOptions(big=100.0))
        rng = np.random.default_rng(0)
        for x_prev in simplex_states(rng, 2, 3):
            for j in range(3):
                v, _, _ = engine._solve_stage(2, j, x_prev)
                model = stage_subproblem(
                    lat.stage(2)[j], x_prev, cuts=engine.pools[3].cuts
                )
                sol = model.solve()
                assert abs(v - sol.objective) < 1e-9

    def test_stage_value_convex_in_state(self):
        lat = lattice(seed=2, T=2, K=4)
        engine = MarsrmSddp(lat, prefs=HALF_CVAR)
        rng = np.random.default_rng(1)
        for _ in range(10):
            a, b = simplex_states(rng, 2, 2)
            mid = 0.5 * (a + b)
            va, _, _ = engine._solve_stage(2, 0, a)
            vb, _, _ = engine._solve_stage(2, 0, b)
            vm, _, _ = engine._solve_stage(2, 0, mid)
            assert va + vb >= 2 * vm - 1e-8


class TestForwardPass:
    def test_two_stage_deterministic(self):
        lat = lattice(seed=3, T=2, K=1)
        engine = MarsrmSddp(lat, prefs=NEUTRAL)
        lower, states = engine.forward_pass()
        # floor cut dominates at iteration one: lower ~ -1 - big
        assert lower <= -engine.options.big + 10
        assert len(states[1]) == 1
        # after one backward pass the single-scenario cut is exact and the
        # trajectory solves the deterministic two-stage program
        engine.backward_pass(states)
        lower2, states2 = engine.forward_pass()
        rets = -lat.stage(2)[0].E[0, :2]
        assert abs(lower2 - (-1.0 - np.max(rets))) < 1e-8

    def test_identical_seeds_identical_trajectories(self):
        results = []
        for _ in range(2):
            lat = lattice(seed=4, T=3, K=4)
            engine = MarsrmSddp(
                lat, prefs=HALF_CVAR, options=TrainOptions(seed=9, n_paths=3)
            )
            lower, states = engine.forward_pass()
            engine.backward_pass(states)
            lower2, states2 = engine.forward_pass()
            results.append((lower2, np.vstack(states2[2])))
        assert results[0][0] == results[1][0]
        np.testing.assert_array_equal(results[0][1], results[1][1])

    def test_full_enumeration_state_count(self):
        lat = lattice(seed=5, T=3, K=3)
        engine = MarsrmSddp(
            lat, prefs=NEUTRAL, options=TrainOptions(full_enumeration=True)
        )
        _, states = engine.forward_pass()
        assert len(states[2]) <= 3  # one state per stage-2 scenario, deduped

    def test_full_enumeration_state_cap(self, monkeypatch):
        lat = lattice(seed=5, T=3, K=3)
        engine = MarsrmSddp(
            lat, prefs=NEUTRAL, options=TrainOptions(full_enumeration=True)
        )
        monkeypatch.setattr(msrisk.sddp, "MAX_ENUMERATED_STATES", 1)
        with pytest.raises(ValueError, match="full enumeration visits"):
            engine.forward_pass()


class TestBackwardPass:
    def test_risk_neutral_cut_is_expected_benders_cut(self):
        lat = lattice(seed=6, T=2, K=4)
        engine = MarsrmSddp(lat, prefs=NEUTRAL)
        x1 = np.array([0.4, 0.6])
        engine.backward_pass({1: [x1]})
        cut = engine.pools[2].cuts[-1]
        grads = np.zeros((4, 2))
        vals = np.zeros(4)
        for j in range(4):
            v, _, duals = engine._solve_stage(2, j, x1, need_duals=True)
            vals[j] = v
            grads[j] = -(duals @ lat.stage(2)[j].E)
        G_want = grads.mean(axis=0)
        g_want = vals.mean() - G_want @ x1
        np.testing.assert_allclose(cut.gradient, G_want, atol=1e-10)
        assert abs(cut.intercept - g_want) < 1e-10

    def test_cut_tight_at_generating_point_two_stage(self):
        lat = lattice(seed=7, T=2, K=4)
        engine = MarsrmSddp(lat, prefs=HALF_CVAR)
        x1 = np.array([0.25, 0.75])
        engine.backward_pass({1: [x1]})
        cut = engine.pools[2].cuts[-1]
        # stage-2 subproblems are exact (terminal), so the cut is tight
        vals = np.array([engine._solve_stage(2, j, x1)[0] for j in range(4)])
        agg = cvar(DiscreteDistribution.from_values(vals), 0.5)
        assert abs(cut.intercept + cut.gradient @ x1 - agg) < 1e-8

    def test_cut_globally_valid_on_grid(self):
        lat = lattice(seed=8, T=2, K=4)
        engine = MarsrmSddp(lat, prefs=HALF_CVAR)
        rng = np.random.default_rng(2)
        for x1 in simplex_states(rng, 2, 3):
            engine.backward_pass({1: [x1]})
        for cut in engine.pools[2].cuts[1:]:
            X = np.array(simplex_states(rng, 2, 100))
            truth = cost_to_go_oracle(lat, 2, X, prefs=HALF_CVAR)
            assert np.all(cut.intercept + X @ cut.gradient <= truth + 1e-7)


def envelope_value(engine_kind, lat, states, values, penalty, t=1, x_prev=None):
    """Stage-t envelope value (scenario 0; at ``x0`` for t=1) of a fresh engine
    over the archive.

    MARSRM archives one value per state; DR one per stage-(t+1) scenario,
    here ``values`` shifted by a fixed amount per scenario.
    """
    if engine_kind == "marsrm":
        engine, V = MarsrmSddp(lat, prefs=HALF_CVAR), values
    else:
        amb = MomentAmbiguitySet.from_empirical([(0.2, 0.5), (0.8, 0.3)], [0.5, 0.5])
        engine = DrSddp(lat, amb)
        V = np.add.outer(values, np.linspace(0.0, 0.3, lat.size(t + 1)))
    x_prev = lat.x0 if x_prev is None else x_prev
    return engine._envelope_values(t, [x_prev], (np.asarray(states), V), penalty)[0, 0]


class TestUpperValue:
    def test_terminal_is_exact_stage_value(self):
        lat = lattice(seed=9, T=2, K=3)
        r = lat.stage(2)[1]
        x1 = np.array([0.6, 0.4])
        direct = stage_subproblem(r, x1, cuts=None)
        engine = MarsrmSddp(lat, prefs=HALF_CVAR)
        assert abs(engine._solve_stage(2, 1, x1)[0] - direct.solve().objective) < 1e-10

    def test_archived_optimizer_gives_zero_gap(self):
        lat = lattice(seed=10, T=2, K=4)
        pref = HALF_CVAR
        value = extensive_form_marsrm(lat, prefs=pref)
        opts = TrainOptions(max_iterations=60, tolerance=1e-9)
        report = train(lat, prefs=pref, options=opts)
        assert report.converged
        assert abs(report.final_upper - value) < 1e-6

    @pytest.mark.parametrize("engine_kind", ["marsrm", "dr"])
    def test_penalty_monotone(self, engine_kind):
        # the stage-2 wealth at x_prev = (2, 2) exceeds that of every archived
        # state, so no convex combination reaches x and the l1 slack is priced
        lat = lattice(seed=11, T=3, K=3)
        states = np.zeros((2, lat.num_vars(2)))
        states[[0, 1], [0, 1]] = 1.0
        values, x_prev = np.array([-1.0, -2.0]), np.array([2.0, 2.0])
        vals = [
            envelope_value(engine_kind, lat, states, values, M, t=2, x_prev=x_prev)
            for M in (0.5, 1.0, 5.0, 50.0)
        ]
        assert np.all(np.diff(vals) > 1e-6), vals

    @pytest.mark.parametrize("engine_kind", ["marsrm", "dr"])
    def test_penalty_independent_once_slack_inactive(self, engine_kind):
        # the budget simplex is covered by the two vertices, so the combo
        # needs no slack and the penalty constant cannot matter
        lat = lattice(seed=11, T=2, K=3)
        states, values = [[1.0, 0.0], [0.0, 1.0]], np.array([-1.0, -2.0])
        a = envelope_value(engine_kind, lat, states, values, 50.0)
        b = envelope_value(engine_kind, lat, states, values, 5000.0)
        assert abs(a - b) < 1e-9

    @pytest.mark.parametrize("engine_kind", ["marsrm", "dr"])
    def test_envelope_nonincreasing_in_archive_growth(self, engine_kind):
        lat = lattice(seed=17, T=2, K=3)
        rng = np.random.default_rng(4)
        pts = rng.dirichlet(np.ones(2), size=6)
        vals = -1.0 - rng.random(6)
        prev = np.inf
        for p_count in (2, 4, 6):
            v = envelope_value(engine_kind, lat, pts[:p_count], vals[:p_count], 10.0)
            assert v <= prev + 1e-10
            prev = v

    def test_upper_aggregate_properties(self):
        lat = lattice(seed=12, T=2, K=4)
        w_neutral = MarsrmSddp(lat, prefs=NEUTRAL).weights[2]
        w_cvar = MarsrmSddp(lat, prefs=HALF_CVAR).weights[2]
        vals = np.array([1.0, -2.0, 0.5, 3.0])
        assert abs(w_neutral.aggregate(vals) - vals.mean()) < 1e-12
        assert abs(w_cvar.aggregate(np.full(4, 2.5)) - 2.5) < 1e-12
        bumped = vals.copy()
        bumped[2] += 1.0
        assert w_cvar.aggregate(bumped) >= w_cvar.aggregate(vals) - 1e-12


class TestTrain:
    def test_two_stage_half_cvar_matches_oracle(self):
        lat = lattice(seed=13, T=2, K=4)
        value = extensive_form_marsrm(lat, prefs=HALF_CVAR)
        report = train(
            lat, prefs=HALF_CVAR, options=TrainOptions(max_iterations=60, tolerance=1e-7)
        )
        assert report.converged
        assert abs(report.final_lower - value) < 1e-5
        assert abs(report.final_upper - value) < 1e-5
        assert report.final_lower - 1e-9 <= value <= report.final_upper + 1e-9

    def test_risk_neutral_matches_oracle(self):
        lat = lattice(seed=14, T=3, K=3)
        value = extensive_form_marsrm(lat, prefs=NEUTRAL)
        report = train(
            lat,
            prefs=NEUTRAL,
            options=TrainOptions(
                max_iterations=100, tolerance=1e-7, full_enumeration=True
            ),
        )
        assert report.converged
        assert abs(report.final_lower - value) < 1e-5
        assert abs(report.final_upper - value) < 1e-5

    def test_report_invariants(self):
        lat = lattice(seed=15, T=3, K=3, f=0.002)
        report = train(
            lat,
            prefs=HALF_CVAR,
            options=TrainOptions(
                max_iterations=50, tolerance=-np.inf, n_paths=2, seed=3
            ),
        )
        lower = np.array(report.lower)
        upper = np.array(report.upper)
        assert np.all(np.diff(lower) >= -1e-9)
        assert np.all(np.diff(upper) <= 1e-9)
        assert np.all(lower <= upper + 1e-6)
        assert report.iterations == 50
        csv = report.to_csv()
        assert csv.splitlines()[0] == "cuts,lower,upper,gap,time_lower_s,time_upper_s"

    def test_nonconvergence_flagged_not_raised(self):
        lat = lattice(seed=16, T=3, K=4)
        report = train(
            lat, prefs=HALF_CVAR, options=TrainOptions(max_iterations=2, tolerance=0.0)
        )
        assert not report.converged
        assert report.iterations == 2


def test_cut_pool_floor_and_count():
    pool = CutPool(3, big=1e9)
    assert pool.count == 0
    assert pool.max_gradient_per_coordinate().tolist() == [0.0, 0.0, 0.0]
    G0, g0 = pool.G, pool.g
    pool.add(Cut(1.0, np.array([1.0, -4.0, 2.0])))
    assert pool.count == 1
    assert pool.max_gradient_per_coordinate().tolist() == [1.0, 4.0, 2.0]
    # arrays read before the add are left as they were
    assert G0.tolist() == [[0.0, 0.0, 0.0]] and g0.tolist() == [-1e9]
    G, g = pool.G, pool.g
    assert G.shape == (2, 3) and g[0] == -1e9
    assert G[-1].tolist() == [1.0, -4.0, 2.0] and g[-1] == 1.0
    pool.add(Cut(-2.0, np.array([0.5, 0.0, -3.0])))
    assert [c.intercept for c in pool.cuts] == [-1e9, 1.0, -2.0]
    assert [c.gradient.tolist() for c in pool.cuts] == [
        [0.0, 0.0, 0.0],
        [1.0, -4.0, 2.0],
        [0.5, 0.0, -3.0],
    ]
    # an all-negative gradient gives positive maxima, not the floor's zeros
    negative = CutPool(2, big=1.0)
    negative.add(Cut(0.0, np.array([-2.0, -0.5])))
    assert negative.max_gradient_per_coordinate().tolist() == [2.0, 0.5]
    with pytest.raises(ValueError):
        pool.add(Cut(np.inf, np.zeros(3)))


def test_signed_zero_states_share_one_key():
    # HiGHS often returns -0.0 for a zero coordinate; it is the same state
    a, b = np.array([0.0, 1.0]), np.array([-0.0, 1.0])
    assert len(_dedupe([a, b])) == 1
    engine = MarsrmSddp(lattice(T=2, K=2), prefs=NEUTRAL)
    engine._archive_store(1, a, 2.0)
    engine._archive_store(1, b, 1.0)
    assert len(engine.archives[1]) == 1
    _, values = engine._archive_arrays(1)
    assert values.tolist() == [1.0]
    # a later read shows a lowered value and a new state
    engine._archive_store(1, a, 0.5)
    engine._archive_store(1, np.array([1.0, 0.0]), 3.0)
    states, values = engine._archive_arrays(1)
    assert states.tolist() == [[0.0, 1.0], [1.0, 0.0]] and values.tolist() == [0.5, 3.0]


@pytest.mark.parametrize(
    "options, message",
    [
        (TrainOptions(max_iterations=0), "max_iterations"),
        (TrainOptions(n_paths=0), "n_paths"),
        (TrainOptions(lipschitz=[5.0]), "3 values"),
        (TrainOptions(lipschitz=[1.0, -1.0, 1.0]), "nonnegative"),
        (TrainOptions(lipschitz=float("nan")), "nonnegative"),
        (TrainOptions(n_paths=1.5), "n_paths must be an integer"),
        (TrainOptions(max_iterations=2.5), "max_iterations must be an integer"),
        (TrainOptions(big=float("nan")), "big must be finite and positive"),
        (TrainOptions(big=float("inf")), "big must be finite and positive"),
        (TrainOptions(big=0.0), "big must be finite and positive"),
        (TrainOptions(big=-1e9), "big must be finite and positive"),
    ],
)
def test_invalid_options_rejected_at_construction(options, message):
    with pytest.raises(ValueError, match=message):
        MarsrmSddp(lattice(T=4, K=2), prefs=NEUTRAL, options=options)


def test_per_stage_lipschitz_prices_its_own_stage():
    lat = lattice(seed=18, T=4, K=2)
    options = TrainOptions(lipschitz=[1.0, 2.0, 3.0])
    engine = MarsrmSddp(lat, prefs=NEUTRAL, options=options)
    for t in (1, 2, 3):
        np.testing.assert_array_equal(engine._penalty(t), t * engine._coupled_columns(t))


class TestUnsupported:
    @staticmethod
    def skewed_lattice():
        base = lattice(seed=19, T=2, K=4)
        skewed = [replace(r, prob=p) for r, p in zip(base.stage(2), (0.1, 0.2, 0.3, 0.4))]
        return ScenarioLattice([base.stage(1), skewed])

    def test_non_equiprobable_stage_rejected_everywhere(self):
        lat = self.skewed_lattice()
        x1 = np.array([0.5, 0.5])
        with pytest.raises(UnsupportedConfigurationError):
            MarsrmSddp(lat, prefs=HALF_CVAR)
        with pytest.raises(UnsupportedConfigurationError):
            train(lat, prefs=HALF_CVAR)
        with pytest.raises(UnsupportedConfigurationError):
            extensive_form_marsrm(lat, prefs=HALF_CVAR)
        with pytest.raises(UnsupportedConfigurationError):
            subtree_value(lat, 2, 0, x1, prefs=HALF_CVAR)
        with pytest.raises(UnsupportedConfigurationError):
            cost_to_go_oracle(lat, 2, x1, prefs=HALF_CVAR)
