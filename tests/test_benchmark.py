import json

import numpy as np
import pytest

from msrisk.benchmark import (
    AssetInstanceConfig,
    build_asset_instance,
    compare_modes,
    run_mode,
    stage_max_returns,
    step_spectrum_error_bound,
    wealth_phi_integrals,
)
from msrisk.extensive import extensive_form_marsrm
from msrisk.risk import ArsrmWeights, PreferenceDistribution, StepSpectrum
from msrisk.sddp import TrainOptions, stage_subproblem


def tiny_config(**kw):
    base = dict(
        horizon=2,
        assets=2,
        mu=0.6,
        sigma=0.3,
        corr=0.5,
        transaction_cost=0.0,
        scenarios_per_stage=1,
        preference={"kind": "preset", "name": "risk_neutral"},
        seed=0,
    )
    base.update(kw)
    return AssetInstanceConfig(**base)


class TestInstance:
    def test_two_stage_single_scenario_hand_value(self):
        inst = build_asset_instance(tiny_config())
        rets = -inst.lattice.stage(2)[0].E[0, :2]
        value = extensive_form_marsrm(inst.lattice, prefs=inst.preferences)
        assert abs(value - (-1.0 - np.max(rets))) < 1e-8

    def test_budget_row_exact(self):
        cfg = tiny_config(transaction_cost=0.01, scenarios_per_stage=3, horizon=3)
        inst = build_asset_instance(cfg)
        x_prev = np.array([0.4, 0.6])
        r = inst.lattice.stage(2)[1]
        sol = stage_subproblem(r, x_prev, cuts=None).solve()
        x, z = sol.x[:2], sol.x[2:4]
        wealth = float(-r.E[0, :2] @ x_prev)
        assert abs(x.sum() + 0.01 * z.sum() - wealth) <= 1e-9

    def test_zero_cost_trades_do_not_matter(self):
        # with f = 0 the trade block cannot affect the optimal value
        cfg = tiny_config(scenarios_per_stage=4)
        inst = build_asset_instance(cfg)
        r = inst.lattice.stage(2)[0]
        x_prev = np.array([1.0, 0.0])
        base = stage_subproblem(r, x_prev, cuts=None).solve().objective
        rets = -r.E[0, :2]
        assert abs(base - (-(rets @ x_prev))) < 1e-9

    def test_wealth_sign_sanity(self):
        # all gross returns >= 1 and f = 0: the budget can always be carried
        # forward, so the optimum is at least as good as -1
        cfg = tiny_config(horizon=3, mu=0.2, sigma=0.0, scenarios_per_stage=2)
        inst = build_asset_instance(cfg)
        value = extensive_form_marsrm(inst.lattice, prefs=inst.preferences)
        assert value <= -1.0 + 1e-9

    def test_config_json_round_trip(self, tmp_path):
        cfg = tiny_config(
            horizon=3,
            scenarios_per_stage=[4, 2],
            preference={"kind": "voronoi", "centers": 3, "samples": 50, "beta": [2, 2]},
            ambiguity={"kind": "sampled", "size": 4},
            spectrum_breakpoints=10,
            seed=7,
        )
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        again = AssetInstanceConfig.from_json(path)
        assert again.to_dict() == cfg.to_dict()
        a = build_asset_instance(cfg)
        b = build_asset_instance(again)
        for t in (2, 3):
            for r1, r2 in zip(a.lattice.stage(t), b.lattice.stage(t)):
                np.testing.assert_array_equal(r1.E, r2.E)
            np.testing.assert_array_equal(
                a.preferences[t - 2].probs, b.preferences[t - 2].probs
            )

    def test_schema_keys_accepted(self, tmp_path):
        doc = {
            "horizon": 2,
            "assets": 2,
            "lognormal": {"mu": 0.6, "sigma": 0.3, "corr": 0.5},
            "transaction_cost": 0.003,
            "scenarios_per_stage": 3,
            "preference": {"kind": "preset", "name": "mild_averse"},
            "ambiguity": None,
            "spectrum_breakpoints": None,
            "seed": 11,
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        cfg = AssetInstanceConfig.from_json(path)
        assert cfg.mu == 0.6 and cfg.seed == 11
        inst = build_asset_instance(cfg)
        assert inst.lattice.horizon == 2

    def test_preset_scenario_counts(self):
        cfg = AssetInstanceConfig(horizon=5)
        assert np.all(np.asarray(cfg.scenarios_per_stage) == 20)
        with pytest.raises(ValueError):
            AssetInstanceConfig(horizon=4)  # no preset for this horizon


class TestErrorBound:
    def test_zero_modulus_gives_zero(self):
        bounds = step_spectrum_error_bound(0.0, 5, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(bounds, 0.0)

    def test_final_stage_has_empty_tail(self):
        bounds = step_spectrum_error_bound(2.0, 5, [1.0, 2.0, 3.0])
        assert bounds[-1] == 0.0
        assert bounds[0] >= bounds[1] >= bounds[2]

    def test_doubling_grid_halves_bound_exactly(self):
        phi = [1.3, 0.7, 2.1]
        b5 = step_spectrum_error_bound(1.7, 5, phi)
        b10 = step_spectrum_error_bound(1.7, 10, phi)
        np.testing.assert_allclose(b5, 2.0 * b10, rtol=1e-15)

    def test_average_mode_weights_support(self):
        phi = [1.0, 1.0]
        L = np.array([0.0, 4.0])
        q = np.array([0.75, 0.25])
        robust = step_spectrum_error_bound(L, 4, phi, mode="robust")
        avg = step_spectrum_error_bound(L, 4, phi, mode="average", q=q)
        assert abs(robust[0] - 4.0 / 4.0) < 1e-15
        assert abs(avg[0] - 1.0 / 4.0) < 1e-15
        assert np.all(avg <= robust + 1e-15)

    def test_soundness_on_two_stage_oracle(self):
        # Lipschitz spectrum sigma(z) = 2z (modulus 2): measured value error
        # between the exact spectrum and its J-cell projection stays under the
        # bound, for each J, and the bound scales exactly like 1/J.
        cfg = tiny_config(scenarios_per_stage=4, seed=3)
        inst = build_asset_instance(cfg)
        K = 4
        grid_k = np.linspace(0.0, 1.0, K + 1)
        exact_spec = StepSpectrum(grid_k, np.diff(grid_k**2) * K)
        pref_exact = PreferenceDistribution(
            support=np.array([[0.0, 0.0]]), probs=np.array([1.0]), spectra=(exact_spec,)
        )
        v_exact = extensive_form_marsrm(inst.lattice, prefs=pref_exact)
        phi = wealth_phi_integrals(inst.lattice)
        bounds = {}
        for J in (2, 5, 10):
            grid = np.linspace(0.0, 1.0, J + 1)
            proj = StepSpectrum(grid, grid[:-1] + grid[1:])  # cell averages of 2z
            pref_j = PreferenceDistribution(
                support=np.array([[0.0, 0.0]]), probs=np.array([1.0]), spectra=(proj,)
            )
            v_j = extensive_form_marsrm(inst.lattice, prefs=pref_j)
            bound = step_spectrum_error_bound(2.0, J, phi)[0]
            assert abs(v_exact - v_j) <= bound + 1e-12
            bounds[J] = bound
        assert abs(bounds[2] - 5 * bounds[10]) < 1e-12
        assert abs(bounds[5] - 2 * bounds[10]) < 1e-12

    def test_phi_integrals_monotone_tail(self):
        inst = build_asset_instance(tiny_config(horizon=3, scenarios_per_stage=3))
        phi = wealth_phi_integrals(inst.lattice)
        assert phi.size == 3
        assert phi[0] >= phi[1] >= phi[2] > 0
        assert np.all(stage_max_returns(inst.lattice) > 0)


class TestModes:
    def test_compare_determinism_and_ordering(self):
        cfg = tiny_config(
            horizon=2,
            scenarios_per_stage=4,
            preference={"kind": "voronoi", "centers": 3, "samples": 60},
            seed=5,
        )
        opts = TrainOptions(max_iterations=40, tolerance=1e-8)
        rows1 = compare_modes(cfg, ["risk-neutral", "mild", "strong", "marsrm"], opts)
        rows2 = compare_modes(cfg, ["risk-neutral", "mild", "strong", "marsrm"], opts)
        assert rows1 == rows2
        by_mode = {r["mode"]: r for r in rows1}
        assert all(r["converged"] for r in rows1)
        # risk neutral lower-bounds every risk-averse variant on the same tree
        for mode in ("mild", "strong", "marsrm"):
            assert by_mode["risk-neutral"]["lower"] <= by_mode[mode]["upper"] + 1e-6

    def test_run_mode_dr_requires_ambiguity(self):
        inst = build_asset_instance(tiny_config(scenarios_per_stage=2))
        with pytest.raises(ValueError):
            run_mode(inst, "dr")
