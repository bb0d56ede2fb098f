"""Risk calculus tests: frozen examples plus randomized property checks.

Expected values for the non-trivial cases were computed with the independent
oracles defined at the top of this file (tail integration of the quantile
function, direct spectrum integration) before being asserted against the
library routines.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msrisk.risk import (
    DiscreteDistribution,
    PreferenceDistribution,
    StepSpectrum,
    UnsupportedConfigurationError,
    arsrm,
    arsrm_via_combination,
    arsrm_weights,
    combination_spectrum,
    cvar,
    cvar_dual_weights,
    cvar_variational,
    project_spectrum,
    quantile,
    srm,
)


def tail_average_cvar(values, probs, alpha):
    """Oracle: (1/(1-alpha)) * integral of the quantile function over [alpha, 1]."""
    order = np.argsort(values)
    v = np.asarray(values, dtype=float)[order]
    p = np.asarray(probs, dtype=float)[order]
    hi = np.cumsum(p)
    lo = hi - p
    mass = np.clip(np.minimum(hi, 1.0) - np.maximum(lo, alpha), 0.0, None)
    return float(mass @ v / (1.0 - alpha))


def random_dist(rng, max_k=12):
    k = rng.integers(1, max_k + 1)
    values = rng.normal(scale=3.0, size=k)
    w = rng.random(k) + 1e-3
    return values, w / w.sum()


QUARTER = DiscreteDistribution.from_values([1.0, 2.0, 3.0, 4.0])


class TestQuantile:
    def test_left_continuity_at_breakpoint(self):
        assert quantile(QUARTER, 0.5) == 2.0

    def test_degenerate(self):
        d = DiscreteDistribution.from_values([5.0], [1.0])
        assert quantile(d, 0.3) == 5.0

    def test_scan_just_past_breakpoint(self):
        # cumulative scan: 0.51 lands in (0.50, 0.75] -> third outcome
        assert quantile(QUARTER, 0.51) == 3.0

    def test_domain(self):
        with pytest.raises(ValueError):
            quantile(QUARTER, 0.0)
        with pytest.raises(ValueError):
            quantile(QUARTER, 1.2)

    def test_matches_inverse_cdf_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v, p = random_dist(rng)
            d = DiscreteDistribution.from_values(v, p)
            for z in rng.uniform(1e-9, 1.0, size=8):
                cum = np.cumsum(d.probs)
                k = next(i for i in range(d.size) if z <= cum[i] + 1e-15)
                assert quantile(d, z) == d.outcomes[k]


class TestCvarDualWeights:
    def test_uniform_half(self):
        # solved by hand: pivot at the third atom, caps of 1/(1-0.5)=2 above
        w = cvar_dual_weights(QUARTER, 0.5)
        assert w.khat == 2
        np.testing.assert_allclose(w.lambda_hat, [0.0, 0.0, 2.0, 2.0], atol=1e-12)
        assert abs((QUARTER.probs * w.lambda_hat).sum() - 1.0) < 1e-12

    def test_alpha_zero_is_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v, p = random_dist(rng)
            d = DiscreteDistribution.from_values(v, p)
            w = cvar_dual_weights(d, 0.0)
            np.testing.assert_allclose(w.lambda_hat, np.ones(d.size), atol=1e-12)

    def test_pivot_on_last_atom(self):
        d = DiscreteDistribution.from_values([0.0, 1.0], [0.9, 0.1])
        w = cvar_dual_weights(d, 0.95)
        assert w.khat == 1
        np.testing.assert_allclose(w.lambda_hat, [0.0, 10.0], atol=1e-12)
        assert abs(cvar(d, 0.95) - tail_average_cvar([0.0, 1.0], [0.9, 0.1], 0.95)) < 1e-12

    def test_feasible_set_membership(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            v, p = random_dist(rng)
            alpha = rng.uniform(0.0, 0.999)
            d = DiscreteDistribution.from_values(v, p)
            w = cvar_dual_weights(d, alpha)
            lam = w.lambda_hat
            assert np.all(lam >= -1e-12)
            assert np.all(lam <= 1.0 / (1.0 - alpha) + 1e-9)
            assert abs((d.probs * lam).sum() - 1.0) < 1e-10
            assert np.all(lam[: w.khat] == 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            cvar_dual_weights(QUARTER, 1.0)


class TestCvar:
    def test_top_half_average(self):
        assert abs(cvar(QUARTER, 0.5) - 3.5) < 1e-12

    def test_alpha_zero_mean(self):
        rng = np.random.default_rng(2)
        v, p = random_dist(rng)
        d = DiscreteDistribution.from_values(v, p)
        assert abs(cvar(d, 0.0) - d.mean()) < 1e-12

    def test_symmetric_two_point(self):
        d = DiscreteDistribution.from_values([-1.0, 1.0], [0.5, 0.5])
        assert abs(cvar(d, 0.5) - 1.0) < 1e-12

    def test_three_way_agreement(self):
        # dual form vs eta-minimization vs tail-average integration
        rng = np.random.default_rng(7)
        for _ in range(1000):
            v, p = random_dist(rng)
            alpha = rng.uniform(0.0, 0.995)
            d = DiscreteDistribution.from_values(v, p)
            a = cvar(d, alpha)
            b = cvar_variational(d, alpha)
            c = tail_average_cvar(v, p, alpha)
            assert abs(a - b) < 1e-9
            assert abs(a - c) < 1e-9

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            v, p = random_dist(rng)
            d = DiscreteDistribution.from_values(v, p)
            alphas = np.sort(rng.uniform(0.0, 0.99, size=5))
            vals = [cvar(d, a) for a in alphas]
            assert np.all(np.diff(vals) >= -1e-10)


class TestStepSpectrum:
    def test_uniform_is_mean(self):
        rng = np.random.default_rng(4)
        v, p = random_dist(rng)
        d = DiscreteDistribution.from_values(v, p)
        assert abs(srm(d, StepSpectrum.uniform()) - d.mean()) < 1e-12

    def test_indicator_spectrum_is_cvar(self):
        spec = combination_spectrum(0.0, 0.5)
        assert abs(srm(QUARTER, spec) - cvar(QUARTER, 0.5)) < 1e-12

    def test_degenerate_outcome_normalization(self):
        d = DiscreteDistribution.from_values([7.25], [1.0])
        for spec in (StepSpectrum.uniform(), combination_spectrum(0.3, 0.6)):
            assert abs(srm(d, spec) - 7.25) < 1e-12

    def test_translation_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v, p = random_dist(rng)
            eps = rng.uniform(0.1, 2.0)
            spec = combination_spectrum(rng.uniform(0, 1), rng.uniform(0, 0.95))
            a = srm(DiscreteDistribution.from_values(v, p), spec)
            b = srm(DiscreteDistribution.from_values(v + eps, p), spec)
            assert abs(b - a - eps) < 1e-9

    @pytest.mark.parametrize(
        "breakpoints, levels, message",
        [
            ([0.0, 1.0], [0.5, 0.5], "need one more breakpoint than levels"),
            ([0.1, 1.0], [1.0 / 0.9], "breakpoints must start at 0 and end at 1"),
            ([0.0, 0.5, 0.5, 1.0], [1.0, 1.0, 1.0], "breakpoints must be strictly increasing"),
            ([0.0, 0.5, 1.0], [-0.5, 2.5], "spectrum levels must be nonnegative"),
            ([0.0, 0.5, 1.0], [1.5, 0.5], "spectrum levels must be nondecreasing"),
            ([0.0, 1.0], [0.9], "spectrum integrates to 0.9, expected 1"),
        ],
    )
    def test_each_invariant_has_its_message(self, breakpoints, levels, message):
        # the checks run in this order, so each case trips only its own
        with pytest.raises(ValueError) as err:
            StepSpectrum(np.array(breakpoints), np.array(levels))
        assert str(err.value) == message

    def test_invariant_violations_rejected(self):
        with pytest.raises(ValueError):
            StepSpectrum(np.array([0.0, 0.5, 1.0]), np.array([2.0, 0.5]))  # decreasing
        with pytest.raises(ValueError):
            StepSpectrum(np.array([0.0, 1.0]), np.array([0.9]))  # integral != 1


class TestProjectSpectrum:
    def test_risk_neutral_any_grid(self):
        for J in (1, 3, 10):
            spec = project_spectrum(1.0, 0.37, J)
            np.testing.assert_allclose(spec.levels, np.ones(J), atol=1e-12)

    def test_exact_on_grid_alpha(self):
        # alpha on a grid point: projection is the spectrum itself
        lam, alpha, J = 0.4, 0.6, 5
        proj = project_spectrum(lam, alpha, J)
        rng = np.random.default_rng(6)
        for _ in range(20):
            v, p = random_dist(rng)
            d = DiscreteDistribution.from_values(v, p)
            exact = lam * d.mean() + (1 - lam) * cvar(d, alpha)
            assert abs(srm(d, proj) - exact) < 1e-9

    def test_off_grid_error_within_spacing_bound(self):
        lam, alpha, J = 0.0, 0.55, 10
        proj = project_spectrum(lam, alpha, J)
        d = QUARTER
        err = abs(srm(d, proj) - cvar(d, alpha))
        # the spectra differ only on the cell containing alpha, by at most the cap
        bound = (1.0 / (1.0 - alpha)) * (1.0 / J) * float(np.max(np.abs(d.outcomes)))
        assert err <= bound + 1e-12

    def test_integral_one_and_monotone(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            lam = rng.uniform(0, 1)
            alpha = rng.uniform(0, 0.99)
            J = int(rng.integers(1, 12))
            spec = project_spectrum(lam, alpha, J)  # constructor validates
            assert spec.levels.size == J


class TestArsrmWeights:
    def test_risk_neutral_dirac(self):
        w = arsrm_weights(4, PreferenceDistribution.dirac(1.0, 0.3))
        np.testing.assert_allclose(w.combined, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
        assert abs(w.aggregate([1.0, 2.0, 3.0, 4.0]) - 2.5) < 1e-12

    def test_half_cvar_dirac(self):
        # hand integration of the indicator spectrum over quartile cells
        w = arsrm_weights(4, PreferenceDistribution.dirac(0.0, 0.5))
        np.testing.assert_allclose(w.psi[0], [0.0, 0.0, 0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(w.beta[0], [0.0, 0.0, 1.0, 0.0], atol=1e-12)
        assert abs(w.aggregate([1.0, 2.0, 3.0, 4.0]) - 3.5) < 1e-12

    def test_normalization_random_pref(self):
        rng = np.random.default_rng(10)
        pts = np.column_stack([rng.uniform(0, 1, 10), rng.uniform(0, 0.95, 10)])
        q = rng.random(10)
        pref = PreferenceDistribution.from_points(pts, q / q.sum())
        w = arsrm_weights(7, pref)
        assert abs((pref.probs @ w.beta).sum() - 1.0) < 1e-10

    def test_non_equiprobable_rejected(self):
        d = DiscreteDistribution.from_values([1.0, 2.0], [0.3, 0.7])
        with pytest.raises(UnsupportedConfigurationError):
            arsrm_via_combination(d, PreferenceDistribution.dirac(0.5, 0.5))

    def test_scenario_reweighting_reproduces_aggregate(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            K = int(rng.integers(2, 15))
            pts = np.column_stack([rng.uniform(0, 1, 3), rng.uniform(0, 0.9, 3)])
            pref = PreferenceDistribution.from_points(pts)
            w = arsrm_weights(K, pref)
            vals = rng.normal(size=K)
            omega = w.scenario_reweighting(vals)
            assert abs(omega @ vals / K - w.aggregate(vals)) < 1e-9
            assert abs(omega.sum() / K - 1.0) < 1e-10
            assert np.all(omega >= -1e-12)


class TestArsrm:
    def test_dirac_risk_neutral_is_mean(self):
        rng = np.random.default_rng(12)
        v, p = random_dist(rng)
        d = DiscreteDistribution.from_values(v, p)
        assert abs(arsrm(d, PreferenceDistribution.dirac(1.0, 0.7)) - d.mean()) < 1e-12

    def test_two_point_preference_linear(self):
        pref = PreferenceDistribution.from_points(
            [(1.0, 0.0), (0.0, 0.5)], [0.5, 0.5]
        )
        assert abs(arsrm(QUARTER, pref) - 3.0) < 1e-12

    def test_routes_agree_on_random_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            K = int(rng.integers(2, 20))
            d = DiscreteDistribution.from_values(rng.normal(size=K))
            pts = np.column_stack([rng.uniform(0, 1, 4), rng.uniform(0, 0.9, 4)])
            q = rng.random(4)
            pref = PreferenceDistribution.from_points(pts, q / q.sum())
            assert abs(arsrm(d, pref) - arsrm_via_combination(d, pref)) < 1e-9

    def test_routes_agree_for_all_small_k(self):
        rng = np.random.default_rng(14)
        pref = PreferenceDistribution.from_points(
            [(0.2, 0.1), (0.7, 0.8)], [0.4, 0.6]
        )
        for K in range(2, 51):
            d = DiscreteDistribution.from_values(rng.normal(size=K))
            assert abs(arsrm(d, pref) - arsrm_via_combination(d, pref)) < 1e-9

    def test_linear_in_preference_mixture(self):
        rng = np.random.default_rng(15)
        v, p = random_dist(rng)
        d = DiscreteDistribution.from_values(v, p)
        p1 = PreferenceDistribution.from_points([(0.1, 0.2), (0.9, 0.5)], [0.3, 0.7])
        p2 = PreferenceDistribution.from_points([(0.5, 0.8)], [1.0])
        for t in (0.0, 0.25, 0.9, 1.0):
            support = np.vstack([p1.support, p2.support])
            probs = np.concatenate([t * p1.probs, (1 - t) * p2.probs])
            mix = PreferenceDistribution.from_points(support, probs)
            want = t * arsrm(d, p1) + (1 - t) * arsrm(d, p2)
            assert abs(arsrm(d, mix) - want) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=10),
    st.integers(0, 2**31 - 1),
)
def test_permutation_invariance(values, seed):
    rng = np.random.default_rng(seed)
    w = rng.random(len(values)) + 1e-3
    probs = w / w.sum()
    perm = rng.permutation(len(values))
    a = DiscreteDistribution.from_values(values, probs)
    b = DiscreteDistribution.from_values(np.asarray(values)[perm], probs[perm])
    alpha = rng.uniform(0.0, 0.95)
    assert abs(cvar(a, alpha) - cvar(b, alpha)) < 1e-9
    spec = combination_spectrum(rng.uniform(0, 1), alpha)
    assert abs(srm(a, spec) - srm(b, spec)) < 1e-9
    z = rng.uniform(1e-9, 1.0)
    assert quantile(a, z) == quantile(b, z)


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution.from_values([1.0, 2.0], [0.7, 0.7])
    with pytest.raises(ValueError):
        DiscreteDistribution.from_values([1.0], [-1.0])
    with pytest.raises(ValueError):
        DiscreteDistribution.from_values([], [])
