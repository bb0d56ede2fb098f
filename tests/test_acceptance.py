"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single PASS line on success (pytest -s shows them); the
stochastic trend criterion is seeded and deterministic. Shared artifacts from
the small-instance oracle sweep are built once and reused by the cut audit.
"""

import time

import numpy as np
import pytest

from msrisk.benchmark import (
    AssetInstanceConfig,
    build_asset_instance,
    step_spectrum_error_bound,
    wealth_phi_integrals,
)
from msrisk.dr import (
    DrSddp,
    MomentAmbiguitySet,
    dr_train,
    worst_case_arsrm,
    worst_case_arsrm_primal,
)
from msrisk.extensive import (
    cost_to_go_oracle,
    dr_cost_to_go_oracle,
    extensive_form_dr,
    extensive_form_marsrm,
)
from msrisk.risk import (
    DiscreteDistribution,
    PreferenceDistribution,
    StepSpectrum,
    arsrm,
    arsrm_via_combination,
    arsrm_weights,
    cvar,
    cvar_variational,
)
from msrisk.scenario import RngStream, build_lognormal_lattice, build_preference_voronoi, preset_preference
from msrisk.sddp import MarsrmSddp, TrainOptions


def _passed(name, detail=""):
    print(f"PASS {name}" + (f" ({detail})" if detail else ""))


def small_preferences(index, seed):
    cycle = [
        preset_preference("risk_neutral"),
        preset_preference("mild_averse"),
        preset_preference("strong_averse"),
        preset_preference("dirac", lam=0.0, alpha=0.5),
        build_preference_voronoi(3, 60, rng=RngStream(seed)),
    ]
    return cycle[index % len(cycle)]


def small_instances():
    """Twenty seeded instances with T in {2,3}, K <= 4, assets <= 3."""
    rng = np.random.default_rng(2024)
    out = []
    for i in range(20):
        T = 2 if i % 2 == 0 else 3
        K = int(rng.integers(2, 5))
        assets = int(rng.integers(2, 4))
        f = float(rng.choice([0.0, 0.01]))
        lat = build_lognormal_lattice(
            T, assets, 0.6, 0.3, 0.5, K, RngStream(100 + i), transaction_cost=f
        )
        out.append((lat, small_preferences(i, seed=100 + i)))
    return out


@pytest.fixture(scope="module")
def marsrm_sweep():
    """Criterion-1 runs, kept for the criterion-8 cut audit."""
    runs = []
    elapsed = 0.0
    for lat, pref in small_instances():
        oracle = extensive_form_marsrm(lat, prefs=pref)
        t0 = time.perf_counter()
        engine = MarsrmSddp(
            lat,
            prefs=pref,
            options=TrainOptions(
                max_iterations=60, tolerance=1e-6, full_enumeration=True
            ),
        )
        report = engine.run()
        elapsed += time.perf_counter() - t0
        runs.append((lat, pref, engine, report, oracle))
    return runs, elapsed


def test_criterion_1_oracle_equivalence_marsrm(marsrm_sweep):
    runs, elapsed = marsrm_sweep
    assert len(runs) >= 20
    worst = 0.0
    for lat, pref, engine, report, oracle in runs:
        assert report.converged, "small instance failed to close the gap"
        assert report.final_lower - 1e-6 <= oracle <= report.final_upper + 1e-6
        err = max(abs(report.final_lower - oracle), abs(report.final_upper - oracle))
        assert err <= 1e-4
        worst = max(worst, err)
    assert elapsed < 60.0
    _passed(
        "criterion 1: MARSRM bounds match the extensive oracle on 20 instances",
        f"worst error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_oracle_equivalence_dr():
    rng = np.random.default_rng(77)
    worst = 0.0
    for i in range(6):
        T = 2 if i % 2 == 0 else 3
        K = int(rng.integers(2, 5))
        lat = build_lognormal_lattice(
            T, 2, 0.6, 0.3, 0.5, K, RngStream(300 + i), transaction_cost=0.0
        )
        size = int(rng.integers(2, 6))
        support = np.column_stack(
            [rng.uniform(0.05, 0.95, size), rng.uniform(0.05, 0.9, size)]
        )
        q = rng.dirichlet(np.ones(size) * 3)
        amb = MomentAmbiguitySet.from_empirical(support, q)
        oracle = extensive_form_dr(lat, amb)
        report = dr_train(
            lat,
            amb,
            options=TrainOptions(
                max_iterations=100, tolerance=1e-6, full_enumeration=True
            ),
        )
        assert report.converged
        assert report.final_lower - 1e-6 <= oracle <= report.final_upper + 1e-6
        err = max(abs(report.final_lower - oracle), abs(report.final_upper - oracle))
        assert err <= 1e-4
        worst = max(worst, err)
    # moments that pin the member weights uniquely: the robust value must
    # collapse to the pinned non-robust value
    for i in range(2):
        lat = build_lognormal_lattice(
            2, 2, 0.6, 0.3, 0.5, 3, RngStream(400 + i), transaction_cost=0.0
        )
        support = np.column_stack([rng.uniform(0.1, 0.9, 6), rng.uniform(0.1, 0.8, 6)])
        q = rng.dirichlet(np.ones(6) * 4)
        amb = MomentAmbiguitySet.from_empirical(support, q)
        assert amb.pinned_q() is not None
        report = dr_train(
            lat, amb, options=TrainOptions(max_iterations=100, tolerance=1e-6)
        )
        pinned = extensive_form_marsrm(
            lat, prefs=PreferenceDistribution.from_points(support, q)
        )
        err = max(abs(report.final_lower - pinned), abs(report.final_upper - pinned))
        assert err <= 1e-4
        worst = max(worst, err)
    _passed(
        "criterion 2: DR bounds match the robust oracle and pinned members",
        f"worst error {worst:.2e}",
    )


def test_criterion_3_moment_duality():
    rng = np.random.default_rng(31)
    t0 = time.perf_counter()
    worst = 0.0
    for case in range(100):
        size = int(rng.integers(1, 6))
        support = np.column_stack(
            [rng.uniform(0.05, 0.95, size), rng.uniform(0.05, 0.9, size)]
        )
        if case % 4 == 0 and size >= 2:
            support[-1] = support[0]  # leave slack in the moment system
        q = rng.dirichlet(np.ones(size))
        amb = MomentAmbiguitySet.from_empirical(support, q)
        K = int(rng.integers(2, 7))
        values = rng.normal(size=K)
        w = amb.stage_weights(K)
        dual = worst_case_arsrm(values, amb, w)
        primal = worst_case_arsrm_primal(values, amb, w)
        assert abs(dual - primal) <= 1e-7
        worst = max(worst, abs(dual - primal))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(
        "criterion 3: moment-dual LP equals the direct sup on 100 cases",
        f"worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_risk_calculus_suite():
    rng = np.random.default_rng(41)
    t0 = time.perf_counter()

    def tail_average(values, probs, alpha):
        order = np.argsort(values)
        v = np.asarray(values)[order]
        p = np.asarray(probs)[order]
        hi = np.cumsum(p)
        lo = hi - p
        mass = np.clip(np.minimum(hi, 1.0) - np.maximum(lo, alpha), 0.0, None)
        return float(mass @ v / (1.0 - alpha))

    for _ in range(1000):
        k = int(rng.integers(1, 11))
        v = rng.normal(scale=4.0, size=k)
        w = rng.random(k) + 1e-3
        p = w / w.sum()
        alpha = rng.uniform(0.0, 0.99)
        d = DiscreteDistribution.from_values(v, p)
        a = cvar(d, alpha)
        assert abs(a - cvar_variational(d, alpha)) <= 1e-9
        assert abs(a - tail_average(v, p, alpha)) <= 1e-9

    for _ in range(1000):
        K = int(rng.integers(2, 12))
        L = int(rng.integers(1, 5))
        pts = np.column_stack([rng.uniform(0, 1, L), rng.uniform(0, 0.95, L)])
        qw = rng.random(L) + 1e-3
        pref = PreferenceDistribution.from_points(pts, qw / qw.sum())
        d = DiscreteDistribution.from_values(rng.normal(size=K))
        assert abs(arsrm(d, pref) - arsrm_via_combination(d, pref)) <= 1e-9
        w = arsrm_weights(K, pref)
        assert abs((pref.probs @ w.beta).sum() - 1.0) <= 1e-10

    for _ in range(1000):
        k = int(rng.integers(1, 11))
        v = rng.normal(scale=4.0, size=k)
        w_ = rng.random(k) + 1e-3
        p = w_ / w_.sum()
        eps = rng.uniform(0.1, 3.0)
        spec_pref = PreferenceDistribution.dirac(
            rng.uniform(0, 1), rng.uniform(0, 0.95)
        )
        a = arsrm(DiscreteDistribution.from_values(v, p), spec_pref)
        b = arsrm(DiscreteDistribution.from_values(v + eps, p), spec_pref)
        assert abs(b - a - eps) <= 1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed("criterion 4: risk calculus identities on 1000 cases each", f"{elapsed:.1f}s")


def _trend_checks(report, big):
    lower = np.array(report.lower)
    upper = np.array(report.upper)
    gap = np.array(report.gap)
    assert np.all(np.diff(lower) >= -1e-9), "lower bounds must not decrease"
    assert np.all(np.diff(upper) <= 1e-9), "upper bounds must not increase"
    assert np.all(lower <= upper + 1e-6), "bounds must bracket throughout"
    finite = np.where(lower > -big / 2)[0]
    assert finite.size > 0, "lower bound never escaped the floor cut"
    initial_gap = gap[finite[0]]
    assert gap[-1] <= 0.15 * initial_gap, (
        f"final gap {gap[-1]:.4g} vs initial {initial_gap:.4g}"
    )
    return initial_gap, gap[-1]


@pytest.mark.slow
def test_criterion_5_bound_discipline_ten_stages():
    # one hundred single-path cut iterations with per-iteration envelope rows
    # and a full re-certification before the final row; floor-cut magnitude
    # set in problem units (values are O(1e3))
    t0 = time.perf_counter()
    cfg = AssetInstanceConfig(
        horizon=10,
        assets=4,
        mu=0.6,
        sigma=0.3,
        corr=0.5,
        transaction_cost=0.003,
        scenarios_per_stage=10,
        preference={"kind": "voronoi", "centers": 10, "samples": 1000},
        ambiguity={"kind": "sampled", "size": [10 * t for t in range(2, 11)]},
        spectrum_breakpoints=10,
        seed=2024,
    )
    inst = build_asset_instance(cfg)
    opts = TrainOptions(
        max_iterations=100, tolerance=0.0, n_paths=1, seed=cfg.seed, big=1e6
    )
    report = MarsrmSddp(inst.lattice, prefs=inst.preferences, options=opts).run()
    assert report.cuts[-1] >= 100
    g0, g1 = _trend_checks(report, opts.big)
    dr_report = DrSddp(inst.lattice, inst.ambiguities, options=opts).run()
    d0, d1 = _trend_checks(dr_report, opts.big)
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    _passed(
        "criterion 5: ten-stage bound discipline and gap decay",
        f"marsrm {g0:.4g}->{g1:.4g}, dr {d0:.4g}->{d1:.4g}, {elapsed:.0f}s",
    )


def test_criterion_6_finite_convergence():
    lat = build_lognormal_lattice(
        3, 2, 0.6, 0.3, 0.5, 3, RngStream(61), transaction_cost=0.003
    )
    opts = TrainOptions(max_iterations=200, tolerance=1e-6, full_enumeration=True)
    report = MarsrmSddp(
        lat, prefs=preset_preference("mild_averse"), options=opts
    ).run()
    assert report.converged and report.iterations <= 200
    assert report.final_gap <= 1e-6
    rng = np.random.default_rng(62)
    support = np.column_stack([rng.uniform(0.1, 0.9, 4), rng.uniform(0.1, 0.8, 4)])
    amb = MomentAmbiguitySet.from_empirical(support, rng.dirichlet(np.ones(4)))
    dr_report = dr_train(lat, amb, options=opts)
    assert dr_report.converged and dr_report.iterations <= 200
    assert dr_report.final_gap <= 1e-6
    _passed(
        "criterion 6: exact gap closure with full enumeration",
        f"marsrm {report.iterations} iters, dr {dr_report.iterations} iters",
    )


def test_criterion_7_projection_bound_soundness():
    cfg = AssetInstanceConfig(
        horizon=2,
        assets=2,
        transaction_cost=0.0,
        scenarios_per_stage=4,
        preference={"kind": "preset", "name": "risk_neutral"},
        seed=71,
    )
    inst = build_asset_instance(cfg)
    K = 4
    grid_k = np.linspace(0.0, 1.0, K + 1)
    exact = PreferenceDistribution(
        support=np.array([[0.0, 0.0]]),
        probs=np.array([1.0]),
        spectra=(StepSpectrum(grid_k, np.diff(grid_k**2) * K),),
    )
    v_exact = extensive_form_marsrm(inst.lattice, prefs=exact)
    phi = wealth_phi_integrals(inst.lattice)
    bounds = {}
    for J in (2, 5, 10):
        grid = np.linspace(0.0, 1.0, J + 1)
        projected = PreferenceDistribution(
            support=np.array([[0.0, 0.0]]),
            probs=np.array([1.0]),
            spectra=(StepSpectrum(grid, grid[:-1] + grid[1:]),),
        )
        v_proj = extensive_form_marsrm(inst.lattice, prefs=projected)
        bound = step_spectrum_error_bound(2.0, J, phi)[0]
        assert abs(v_exact - v_proj) <= bound + 1e-12
        bounds[J] = bound
    assert abs(bounds[2] - 5.0 * bounds[10]) <= 1e-12
    assert abs(bounds[5] - 2.0 * bounds[10]) <= 1e-12
    _passed(
        "criterion 7: projection error within the Lipschitz bound, 1/J scaling",
        f"bounds {bounds[2]:.3g}/{bounds[5]:.3g}/{bounds[10]:.3g}",
    )


def test_criterion_8_cut_validity_audit(marsrm_sweep):
    runs, _ = marsrm_sweep
    rng = np.random.default_rng(81)
    worst_margin = -np.inf
    audited = 0
    for lat, pref, engine, report, oracle in runs:
        for t in range(2, lat.horizon + 1):
            n_prev = lat.num_vars(t - 1)
            assets = lat.num_vars(1)
            grid = []
            for _ in range(100):
                x = np.zeros(n_prev)
                wealth = rng.uniform(0.5, 2.5) if t > 2 else 1.0
                x[:assets] = rng.dirichlet(np.ones(assets)) * wealth
                grid.append(x)
            truths = np.array(
                [cost_to_go_oracle(lat, t, x, prefs=pref) for x in grid]
            )
            X = np.vstack(grid)
            for cut in engine.pools[t].cuts[1:]:
                margins = (cut.intercept + X @ cut.gradient) - truths
                worst_margin = max(worst_margin, float(np.max(margins)))
                assert np.max(margins) <= 1e-7
                audited += 1
    assert audited > 0
    _passed(
        "criterion 8: every emitted cut stays below the oracle cost-to-go",
        f"{audited} cuts audited, worst margin {worst_margin:.2e}",
    )


def _audit_states(rng, archive, assets, count):
    """``count`` stage-t states: half convex combinations of the stage-t
    archive (its hull), half random holdings of the ``assets`` at a random
    wealth (off it)."""
    X, _ = archive
    states = [rng.dirichlet(np.ones(len(X))) @ X for _ in range(count // 2)]
    for _ in range(count - count // 2):
        x = np.zeros(X.shape[1])
        x[:assets] = rng.dirichlet(np.ones(assets)) * rng.uniform(0.5, 1.5)
        states.append(x)
    return states


def _envelope_margins(engine, risk, oracle, t, states, penalty):
    """The risk of the stage-(t+1) envelope values under ``penalty`` minus
    the oracle cost-to-go, at stage-t states."""
    archive = engine._archive_arrays(t + 1)
    return np.array([
        risk(t + 1, engine._envelope_values(t + 1, x, archive, penalty)) - oracle(t + 1, x)
        for x in states
    ])


def test_upper_envelope_audit(marsrm_sweep):
    # the envelope upper bound stays above the oracle cost-to-go at states on
    # and off the archive hull, for the criterion-1 MARSRM runs and short DR
    # runs; an undersized penalty (0.05) must be caught below it
    runs, _ = marsrm_sweep
    rng = np.random.default_rng(83)
    audits = []
    for lat, pref, engine, _, _ in runs:
        audits.append((engine, engine._risk_value,
                       lambda t, x, lat=lat, pref=pref: cost_to_go_oracle(lat, t, x, prefs=pref)))
    for lat, _ in [inst for inst in small_instances() if inst[0].horizon == 3][:3]:
        support = np.column_stack([rng.uniform(0.05, 0.95, 4), rng.uniform(0.05, 0.9, 4)])
        amb = MomentAmbiguitySet.from_empirical(support, rng.dirichlet(np.ones(4) * 3))
        engine = DrSddp(lat, amb, options=TrainOptions(max_iterations=4, full_enumeration=True))
        engine.run()

        def robust(t, vals, engine=engine):
            return worst_case_arsrm(vals, engine.ambs[t], engine.weights[t])

        audits.append((engine, robust,
                       lambda t, x, lat=lat, amb=amb: dr_cost_to_go_oracle(lat, t, x, amb)))
    worst, caught, audited = np.inf, {"marsrm": 0, "dr": 0}, 0
    for engine, risk_value, oracle in audits:
        kind = "dr" if isinstance(engine, DrSddp) else "marsrm"
        for t in range(1, engine.T - 1):
            states = _audit_states(rng, engine._archive_arrays(t), engine.lattice.num_vars(1), 20)
            audit = (engine, risk_value, oracle, t, states)
            margins = _envelope_margins(*audit, engine._penalty(t + 1))
            worst = min(worst, float(np.min(margins)))
            assert np.min(margins) >= -1e-7, (kind, t)
            undersized = _envelope_margins(*audit, 0.05 * engine._coupled_columns(t + 1))
            caught[kind] += int(np.sum(undersized < -1e-7))
            audited += len(states)
    assert audited >= 200
    assert caught["marsrm"] > 0 and caught["dr"] > 0
    _passed(
        "upper-envelope audit: envelope bounds stay above the oracle cost-to-go",
        f"{audited} states, worst margin {worst:.2e}, an undersized penalty caught "
        f"{caught['marsrm']} (MARSRM) and {caught['dr']} (DR) below it",
    )
