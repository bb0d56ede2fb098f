"""Robust risk layer: moment sets, strong duality, multi-cut SDDP bounds."""

from dataclasses import replace
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msrisk.dr
from msrisk.benchmark import AssetInstanceConfig, build_asset_instance
from msrisk.dr import (
    DrSddp,
    MomentAmbiguitySet,
    dr_train,
    moment_dual_block,
    worst_case_arsrm,
    worst_case_arsrm_primal,
)
from msrisk.extensive import (
    _dr_risk,
    dr_cost_to_go_oracle,
    dr_subtree_value,
    extensive_form_dr,
    extensive_form_marsrm,
)
from msrisk.risk import (
    DiscreteDistribution,
    PreferenceDistribution,
    UnsupportedConfigurationError,
    arsrm_via_combination,
)
from msrisk.lp import solve_arrays
from msrisk.scenario import RngStream, ScenarioLattice, build_lognormal_lattice
from msrisk.sddp import Cut, MarsrmSddp, TrainOptions
from references import dr_stage_subproblem, dr_tree_risk


def lattice(seed=0, T=2, assets=2, K=4, f=0.0):
    return build_lognormal_lattice(
        T, assets, 0.6, 0.3, 0.5, K, RngStream(seed), transaction_cost=f
    )


def random_amb(rng, size, concentration=3.0):
    support = np.column_stack(
        [rng.uniform(0.05, 0.95, size), rng.uniform(0.05, 0.9, size)]
    )
    q = rng.dirichlet(np.ones(size) * concentration)
    return MomentAmbiguitySet.from_empirical(support, q), support, q


def polytope_vertices(M, m):
    """All basic feasible solutions of {q >= 0 : M q = m}."""
    S = M.shape[1]
    rank = np.linalg.matrix_rank(M, tol=1e-10)
    verts = []
    for basis in combinations(range(S), min(rank, S)):
        MB = M[:, basis]
        if np.linalg.matrix_rank(MB, tol=1e-10) < len(basis):
            continue
        qb, *_ = np.linalg.lstsq(MB, m, rcond=None)
        q = np.zeros(S)
        q[list(basis)] = qb
        if np.max(np.abs(M @ q - m)) < 1e-8 and np.min(q) >= -1e-9:
            verts.append(np.clip(q, 0.0, None))
    return verts


class TestMomentAmbiguitySet:
    def test_empirical_membership(self):
        rng = np.random.default_rng(0)
        amb, support, q = random_amb(rng, 4)
        M, m = amb.moment_system()
        assert np.max(np.abs(M @ q - m)) < 1e-8
        np.testing.assert_allclose(q @ support, amb.mu, atol=1e-12)

    def test_infeasible_moments_rejected(self):
        support = [(0.2, 0.2), (0.8, 0.8)]
        with pytest.raises(ValueError, match="^moment conditions admit no distribution"):
            MomentAmbiguitySet(
                support=np.asarray(support),
                mu=np.array([0.5, 0.5]),
                Sigma=np.eye(2) * 100.0,  # unattainable spread on this support
            )

    def test_pinned_q_detection(self):
        rng = np.random.default_rng(1)
        amb, _, q = random_amb(rng, 6)
        pinned = amb.pinned_q()
        assert pinned is not None
        np.testing.assert_allclose(pinned, q, atol=1e-8)
        # duplicated support point: the system cannot pin the split
        support = np.array([[0.2, 0.3], [0.2, 0.3], [0.7, 0.6]])
        amb2 = MomentAmbiguitySet.from_empirical(support, [0.25, 0.25, 0.5])
        assert amb2.pinned_q() is None


def counted_moment_lps():
    """Patches the feasibility LP of moment sets to count its calls."""
    return mock.patch.object(msrisk.dr, "solve_arrays", side_effect=solve_arrays)


def moment_rows(support, mu, Sigma):
    """Membership system of a two-dimensional moment set, written out."""
    d = support - mu
    M = np.vstack([np.ones(len(support)), support.T, d[:, 0] ** 2, d[:, 0] * d[:, 1],
                   d[:, 1] ** 2])
    return M, np.array([1.0, *mu, Sigma[0, 0], Sigma[0, 1], Sigma[1, 1]])


class TestNonemptiness:
    def test_criterion_5_set_up_solves_no_lp(self):
        # each sampled set's uniform weights are its least-norm member
        cfg = AssetInstanceConfig(
            horizon=10, assets=4, mu=0.6, sigma=0.3, corr=0.5, transaction_cost=0.003,
            scenarios_per_stage=10,
            preference={"kind": "voronoi", "centers": 10, "samples": 1000},
            ambiguity={"kind": "sampled", "size": [10 * t for t in range(2, 11)]},
            spectrum_breakpoints=10, seed=2024,
        )
        options = TrainOptions(max_iterations=1, tolerance=0.0, n_paths=1, seed=1, big=1e6)
        with counted_moment_lps() as lp:
            inst = build_asset_instance(cfg)
            MarsrmSddp(inst.lattice, prefs=inst.preferences, options=options)
            DrSddp(inst.lattice, inst.ambiguities, options=options)
        assert [amb.size for amb in inst.ambiguities] == [10 * t for t in range(2, 11)]
        assert lp.call_count == 0

    def test_member_with_a_negative_least_norm_solution_takes_one_lp(self):
        # four corners carry all the weight; the least-norm solution of the
        # moment system spreads some onto the inner points, below zero
        support = np.array([[0.1, 0.1], [0.9, 0.1], [0.1, 0.8], [0.9, 0.8],
                            [0.5, 0.45], [0.3, 0.6], [0.7, 0.2], [0.5, 0.1]])
        q = np.array([0.25, 0.25, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0])
        mu = q @ support
        Sigma = ((support - mu) * q[:, None]).T @ (support - mu)
        least_norm, *_ = np.linalg.lstsq(*moment_rows(support, mu, Sigma), rcond=None)
        assert least_norm.min() < -0.01
        with counted_moment_lps() as lp:
            amb = MomentAmbiguitySet(support=support, mu=mu, Sigma=Sigma)
        assert lp.call_count == 1
        M, m = amb.moment_system()
        assert np.max(np.abs(M @ q - m)) < 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.integers(1, 10),
    st.booleans(),
    st.integers(0, 2**31 - 1),
    st.floats(0.001, 0.1),
)
def test_least_norm_route_accepts_what_the_lp_accepts(size, uniform, seed, step):
    # an empirical set, then its Sigma pushed along a random symmetric
    # direction until the support cannot attain it, and bisected back to
    # where the LP's verdict flips; below six points the moment system is
    # overdetermined, and there the LP rejects residuals far below the 1e-8
    # that least squares would pass, so only the LP may judge those sets
    rng = np.random.default_rng(seed)
    support = rng.uniform(0.0, 1.0, (size, 2))
    q = np.full(size, 1.0 / size) if uniform else rng.dirichlet(np.ones(size))
    with counted_moment_lps() as lp:
        amb = MomentAmbiguitySet.from_empirical(support, q)
    if uniform and size >= 6:
        assert lp.call_count == 0, "uniform weights are their moments' least-norm member"
    direction = rng.normal(size=(2, 2))
    direction = direction @ direction.T + np.eye(2) * rng.uniform(0.01, 1.0)

    def accepted(scale):
        Sigma = amb.Sigma + scale * direction
        M, m = moment_rows(support, amb.mu, Sigma)
        feasible = solve_arrays(np.zeros(size), A_eq=M, b_eq=m).is_optimal
        try:
            MomentAmbiguitySet(support=support, mu=amb.mu, Sigma=Sigma)
        except ValueError as err:
            assert str(err) == "moment conditions admit no distribution on the given support"
            assert not feasible, f"rejected at scale {scale!r}, where the LP is feasible"
            return False
        assert feasible, f"accepted at scale {scale!r}, where the LP is infeasible"
        return True

    assert accepted(0.0)
    lo, hi = 0.0, step
    while accepted(hi):  # variances on the unit square stay below 1/4
        lo, hi = hi, 2.0 * hi
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if accepted(mid) else (lo, mid)


class TestWorstCase:
    def test_singleton_equals_dirac_arsrm(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            K = int(rng.integers(2, 7))
            values = rng.normal(size=K)
            lam, alpha = rng.uniform(0.05, 0.95), rng.uniform(0.0, 0.9)
            amb = MomentAmbiguitySet.from_empirical([(lam, alpha)], [1.0])
            w = amb.stage_weights(K)
            got = worst_case_arsrm(values, amb, w)
            pref = PreferenceDistribution.dirac(lam, alpha)
            want = arsrm_via_combination(DiscreteDistribution.from_values(values), pref)
            assert abs(got - want) < 1e-7

    def test_pinned_one_dimensional_slice(self):
        # support {0, 1} on the lam axis with mean 0.3 pins q = (0.7, 0.3)
        support = np.array([[0.0, 0.5], [1.0, 0.5]])
        q = np.array([0.7, 0.3])
        amb = MomentAmbiguitySet.from_empirical(support, q)
        values = np.array([1.0, -0.5, 2.0, 0.25])
        w = amb.stage_weights(4)
        got = worst_case_arsrm(values, amb, w)
        pref = PreferenceDistribution.from_points(support, q)
        want = arsrm_via_combination(DiscreteDistribution.from_values(values), pref)
        assert abs(got - want) < 1e-7

    def test_dominates_empirical_member(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            amb, support, q = random_amb(rng, int(rng.integers(2, 6)))
            K = int(rng.integers(2, 7))
            values = rng.normal(size=K)
            got = worst_case_arsrm(values, amb, amb.stage_weights(K))
            pref = PreferenceDistribution.from_points(support, q)
            member = arsrm_via_combination(
                DiscreteDistribution.from_values(values), pref
            )
            assert got >= member - 1e-7

    def test_strong_duality_and_vertex_enumeration(self):
        rng = np.random.default_rng(4)
        for case in range(100):
            size = int(rng.integers(1, 6))
            if case % 3 == 0 and size >= 2:
                # duplicated support points leave slack in the moment system
                base = np.column_stack(
                    [rng.uniform(0.05, 0.95, size), rng.uniform(0.05, 0.9, size)]
                )
                base[-1] = base[0]
                q = rng.dirichlet(np.ones(size))
                amb = MomentAmbiguitySet.from_empirical(base, q)
            else:
                amb, _, _ = random_amb(rng, size)
            K = int(rng.integers(2, 7))
            values = rng.normal(size=K)
            w = amb.stage_weights(K)
            dual = worst_case_arsrm(values, amb, w)
            primal = worst_case_arsrm_primal(values, amb, w)
            assert abs(dual - primal) < 1e-7
            # outer enumeration over the vertices of the member polytope
            M, m = amb.moment_system()
            verts = polytope_vertices(M, m)
            assert verts, "feasible set should have at least one vertex"
            v_sorted = np.sort(values)
            tails = np.cumsum(v_sorted[::-1])[::-1] / np.arange(K, 0, -1)
            scores = w.beta @ tails
            best = max(float(scores @ q) for q in verts)
            assert abs(dual - best) < 1e-7


def test_dual_coefficients_symmetric_parametrization():
    # one dual variable per distinct covariance entry; the off-diagonal one
    # absorbs the factor two of the Frobenius pairing with a symmetric matrix
    support = np.array([[0.2, 0.3], [0.6, 0.7], [0.9, 0.1]])
    q = np.array([0.5, 0.3, 0.2])
    amb = MomentAmbiguitySet.from_empirical(support, q)
    rows, obj = amb.dual_coefficients()
    assert rows.shape == (3, 6) and obj.shape == (6,)
    d = support - amb.mu
    for l in range(3):
        np.testing.assert_allclose(
            rows[l],
            [1.0, support[l, 0], support[l, 1], d[l, 0] ** 2, d[l, 0] * d[l, 1], d[l, 1] ** 2],
        )
    np.testing.assert_allclose(
        obj, [1.0, amb.mu[0], amb.mu[1], amb.Sigma[0, 0], amb.Sigma[0, 1], amb.Sigma[1, 1]]
    )


@pytest.mark.parametrize("K", [2, 3, 5])
def test_level_sum_rows_shared_by_engine_and_oracle(K):
    # a level's shortfalls share one support coefficient, so the rows over
    # [zeta, eta, s] are the reference's Delta-form support rows with every
    # K-th shortfall column
    rng = np.random.default_rng(40 + K)
    amb, _, _ = random_amb(rng, int(rng.integers(2, 6)))
    block = moment_dual_block(amb, amb.stage_weights(K))
    lat = lattice(seed=K, T=2, K=K)
    _, support = dr_tree_risk(lat, amb)[2]
    free = support.shape[1] - K * K
    want = np.hstack([support[:, :free], support[:, free::K]])
    assert block.sums.shape == want.shape and block.sums.tobytes() == want.tobytes()
    # the robust oracle reads the same block
    risk, _, _ = _dr_risk(lat, amb)
    costs, rows = risk[2]
    assert costs.shape == (free + K,) and costs.tobytes() == block.obj[: free + K].tobytes()
    assert rows.shape == block.sums.shape and rows.tobytes() == block.sums.tobytes()


class TestDrStage:
    def test_lower_model_convex_in_state(self):
        rng = np.random.default_rng(20)
        lat = lattice(seed=21, T=3, K=3)
        amb, _, _ = random_amb(rng, 3)
        engine = DrSddp(lat, amb, options=TrainOptions(big=100.0))
        for _ in range(10):
            a, b = rng.dirichlet(np.ones(2), size=2)
            mid = 0.5 * (a + b)
            va, _, _ = engine._solve_stage(2, 0, a)
            vb, _, _ = engine._solve_stage(2, 0, b)
            vm, _, _ = engine._solve_stage(2, 0, mid)
            assert va + vb >= 2 * vm - 1e-8

    def test_terminal_drops_robust_machinery(self):
        lat = lattice(T=2, K=3)
        amb = MomentAmbiguitySet.from_empirical([(0.5, 0.5)], [1.0])
        r = lat.stage(2)[0]
        model = dr_stage_subproblem(r, np.array([0.5, 0.5]), None, amb, None)
        assert model.num_variables == r.num_vars
        assert model.num_rows == (r.A.shape[0], 0)

    def test_exact_linear_cuts_reproduce_oracle(self):
        # stage-2 cost-to-go is linear in the allocation, so one exact cut per
        # scenario makes the stage-1 robust LP equal the full oracle value
        rng = np.random.default_rng(5)
        lat = lattice(seed=6, T=2, K=4)
        amb, _, _ = random_amb(rng, 3)
        rets = np.array([-r.E[0, :2] for r in lat.stage(2)])
        cuts = [[Cut(0.0, -rets[j])] for j in range(4)]
        w = amb.stage_weights(4)
        model = dr_stage_subproblem(lat.stage(1)[0], lat.x0, cuts, amb, w)
        sol = model.solve()
        assert sol.is_optimal
        want = extensive_form_dr(lat, amb)
        assert abs(sol.objective - want) < 1e-7

    def test_engine_epigraph_matches_literal_rows(self):
        rng = np.random.default_rng(6)
        lat = lattice(seed=7, T=3, K=3)
        amb, _, _ = random_amb(rng, 3)
        engine = DrSddp(lat, amb, options=TrainOptions(big=50.0))
        # seed pools with a few arbitrary (valid-shape) cuts
        gen = np.random.default_rng(7)
        for j in range(3):
            for _ in range(2):
                G = gen.normal(scale=0.5, size=lat.num_vars(2))
                engine.pools[3][j].add(Cut(float(gen.normal() - 3.0), G))
        for x_prev in np.random.default_rng(8).dirichlet(np.ones(2), size=3):
            v_fast, _, _ = engine._solve_stage(2, 1, x_prev)
            literal = dr_stage_subproblem(
                lat.stage(2)[1],
                x_prev,
                [p.cuts for p in engine.pools[3]],
                amb,
                engine.weights[3],
            )
            sol = literal.solve()
            assert abs(v_fast - sol.objective) < 1e-8

    def test_backward_cut_tight_and_valid(self):
        rng = np.random.default_rng(9)
        lat = lattice(seed=10, T=2, K=4)
        amb, _, _ = random_amb(rng, 3)
        engine = DrSddp(lat, amb)
        x1 = np.array([0.3, 0.7])
        engine.backward_pass({1: [x1]})
        cuts = [pool.cuts[-1] for pool in engine.pools[2]]
        for j, cut in enumerate(cuts):
            v, _, _ = engine._solve_stage(2, j, x1)
            assert abs(cut.intercept + cut.gradient @ x1 - v) < 1e-8
        X = rng.dirichlet(np.ones(2), size=50)
        for j, cut in enumerate(cuts):
            truth = dr_subtree_value(lat, 2, j, X, amb)
            assert np.all(cut.intercept + X @ cut.gradient <= truth + 1e-7)


class TestDrTrain:
    def test_pinned_moments_equal_marsrm(self):
        rng = np.random.default_rng(10)
        lat = lattice(seed=11, T=2, K=3)
        support = np.column_stack([rng.uniform(0.1, 0.9, 6), rng.uniform(0.1, 0.8, 6)])
        q = rng.dirichlet(np.ones(6) * 4)
        amb = MomentAmbiguitySet.from_empirical(support, q)
        assert amb.pinned_q() is not None
        report = dr_train(
            lat, amb, options=TrainOptions(max_iterations=80, tolerance=1e-8)
        )
        assert report.converged
        want = extensive_form_marsrm(
            lat, prefs=PreferenceDistribution.from_points(support, q)
        )
        assert abs(report.final_lower - want) < 1e-4
        assert abs(report.final_upper - want) < 1e-4

    def test_matches_dr_oracle_and_dominates_member(self):
        rng = np.random.default_rng(11)
        lat = lattice(seed=12, T=2, K=4)
        amb, support, q = random_amb(rng, 4)
        report = dr_train(
            lat, amb, options=TrainOptions(max_iterations=80, tolerance=1e-8)
        )
        want = extensive_form_dr(lat, amb)
        assert report.converged
        assert report.final_lower - 1e-7 <= want <= report.final_upper + 1e-7
        assert abs(report.final_lower - want) < 1e-4
        member = extensive_form_marsrm(
            lat, prefs=PreferenceDistribution.from_points(support, q)
        )
        assert report.final_upper >= member - 1e-6

    def test_three_stage_finite_convergence(self):
        rng = np.random.default_rng(12)
        lat = lattice(seed=13, T=3, K=3)
        amb, _, _ = random_amb(rng, 4)
        report = dr_train(
            lat,
            amb,
            options=TrainOptions(
                max_iterations=200, tolerance=1e-6, full_enumeration=True
            ),
        )
        assert report.converged
        assert report.final_gap <= 1e-6
        want = extensive_form_dr(lat, amb)
        assert report.final_lower - 1e-6 <= want <= report.final_upper + 1e-6

    def test_report_bracketing_along_iterations(self):
        rng = np.random.default_rng(13)
        lat = lattice(seed=14, T=3, K=3, f=0.001)
        amb, _, _ = random_amb(rng, 3)
        report = dr_train(
            lat, amb, options=TrainOptions(max_iterations=25, tolerance=-np.inf)
        )
        lower = np.array(report.lower)
        upper = np.array(report.upper)
        assert np.all(np.diff(lower) >= -1e-9)
        assert np.all(np.diff(upper) <= 1e-9)
        assert np.all(lower <= upper + 1e-6)


class TestUnsupported:
    @staticmethod
    def skewed_lattice():
        base = lattice(seed=15, T=3, K=2)
        skewed = [
            replace(r, prob=p) for r, p in zip(base.stage(3), (0.25, 0.75))
        ]
        return ScenarioLattice([base.stage(1), base.stage(2), skewed])

    def test_non_equiprobable_stage_rejected_everywhere(self):
        lat = self.skewed_lattice()
        amb = MomentAmbiguitySet.from_empirical([(0.5, 0.5)], [1.0])
        x1 = np.array([0.5, 0.5])
        with pytest.raises(UnsupportedConfigurationError):
            DrSddp(lat, amb)
        with pytest.raises(UnsupportedConfigurationError):
            extensive_form_dr(lat, amb)
        with pytest.raises(UnsupportedConfigurationError):
            dr_subtree_value(lat, 2, 0, x1, amb)
        with pytest.raises(UnsupportedConfigurationError):
            dr_cost_to_go_oracle(lat, 2, x1, amb)

    def test_invalid_options_rejected_by_the_robust_engine(self):
        amb = MomentAmbiguitySet.from_empirical([(0.5, 0.5)], [1.0])
        with pytest.raises(ValueError, match="lipschitz"):
            DrSddp(lattice(T=4, K=2), amb, options=TrainOptions(lipschitz=[5.0]))
