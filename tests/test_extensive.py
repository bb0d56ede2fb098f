"""Extensive-form oracle checks against hand-solvable and enumerable cases.

The two-asset two-stage instances admit an exact independent solution: the
objective is piecewise linear in the single allocation weight, with kinks
only where two scenario wealth lines cross, so minimizing over the crossing
points and endpoints is exact. On larger trees the oracles' sparse LPs are
checked against the dense tree LPs of ``references.tree_model``.
"""

import tempfile

import numpy as np
import pytest

import msrisk.extensive
import msrisk.lp
from msrisk.benchmark import AssetInstanceConfig, build_asset_instance
from msrisk.dr import MomentAmbiguitySet, worst_case_arsrm
from msrisk.extensive import (
    _add_node,
    _check_size,
    _dr_risk,
    _marsrm_risk,
    _node_layouts,
    cost_to_go_oracle,
    dr_cost_to_go_oracle,
    dr_subtree_value,
    extensive_form_dr,
    extensive_form_marsrm,
    subtree_value,
)
from msrisk.lp import LpError, LpModel, solve_arrays
from msrisk.risk import DiscreteDistribution, PreferenceDistribution, arsrm_weights, cvar
from msrisk.scenario import (
    RngStream,
    ScenarioLattice,
    build_lognormal_lattice,
    preset_preference,
)
from references import dr_tree_risk, marsrm_tree_risk, tree_model
from test_live_lp import read_saved


def two_stage_lattice(seed=0, assets=2, K=4, f=0.0):
    return build_lognormal_lattice(
        2, assets, 0.6, 0.3, 0.5, K, RngStream(seed), transaction_cost=f
    )


def stage_returns(lattice, t=2):
    return np.array([-r.E[0, : lattice.num_vars(1)] for r in lattice.stage(t)])


def exact_two_stage_value(returns, risk_fn):
    """Independent oracle for two assets: scan crossing points of wealth lines.

    ``risk_fn(values)`` maps the equiprobable stage-2 cost vector to the stage
    risk; the overall objective is ``-1 + risk_fn(-returns @ x)`` minimized
    over the simplex, piecewise linear in the first weight.
    """
    a, b = returns[:, 0], returns[:, 1]
    candidates = {0.0, 1.0}
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            denom = (a[i] - b[i]) - (a[j] - b[j])
            if abs(denom) > 1e-14:
                w = (b[j] - b[i]) / denom
                if 0.0 < w < 1.0:
                    candidates.add(float(w))
    best = np.inf
    for w in candidates:
        wealth = a * w + b * (1.0 - w)
        best = min(best, -1.0 + risk_fn(-wealth))
    return best


class TestMarsrmOracle:
    def test_deterministic_two_stage(self):
        lat = two_stage_lattice(K=1)
        r = stage_returns(lat)[0]
        value = extensive_form_marsrm(lat, prefs=preset_preference("risk_neutral"))
        assert abs(value - (-1.0 - np.max(r))) < 1e-8

    def test_half_cvar_two_stage_vs_crossing_scan(self):
        for seed in range(4):
            lat = two_stage_lattice(seed=seed, K=4)
            rets = stage_returns(lat)
            pref = preset_preference("dirac", lam=0.0, alpha=0.5)
            value = extensive_form_marsrm(lat, prefs=pref)
            want = exact_two_stage_value(
                rets,
                lambda v: cvar(DiscreteDistribution.from_values(v), 0.5),
            )
            assert abs(value - want) < 1e-8

    def test_mixture_pref_vs_crossing_scan(self):
        lat = two_stage_lattice(seed=7, K=5)
        rets = stage_returns(lat)
        pref = PreferenceDistribution.from_points(
            [(1.0, 0.0), (0.2, 0.6)], [0.4, 0.6]
        )

        def risk(v):
            d = DiscreteDistribution.from_values(v)
            inner = 0.2 * d.mean() + 0.8 * cvar(d, 0.6)
            return 0.4 * d.mean() + 0.6 * inner

        want = exact_two_stage_value(rets, risk)
        assert abs(extensive_form_marsrm(lat, prefs=pref) - want) < 1e-8

    def test_risk_aversion_monotonicity(self):
        lat = two_stage_lattice(seed=3, K=4)
        neutral = extensive_form_marsrm(lat, prefs=preset_preference("risk_neutral"))
        for alpha in (0.25, 0.5, 0.75):
            averse = extensive_form_marsrm(
                lat, prefs=preset_preference("dirac", lam=0.0, alpha=alpha)
            )
            assert neutral <= averse + 1e-9

    def test_three_stage_matches_nested_enumeration(self):
        # risk-neutral three-stage: extensive form equals the expected-value
        # recursion, solvable by backward induction on a fine simplex grid of
        # the wealth multiplier (wealth factorizes for f=0)
        lat = build_lognormal_lattice(3, 2, 0.5, 0.25, 0.5, 3, RngStream(1))
        value = extensive_form_marsrm(lat, prefs=preset_preference("risk_neutral"))
        # with f=0 and risk neutrality the optimal policy is all-in on the
        # best expected asset each stage, so wealth compounds multiplicatively:
        # V = -1 - max(mean ret2) * (1 + max(mean ret3))
        r2 = stage_returns(lat, 2)
        r3 = np.array([-r.E[0, :2] for r in lat.stage(3)])
        want = -1.0 - np.max(r2.mean(axis=0)) * (1.0 + np.max(r3.mean(axis=0)))
        assert abs(value - want) < 1e-7

    def test_node_order_invariance(self):
        lat = two_stage_lattice(seed=5, K=4)
        perm = [2, 0, 3, 1]
        stages = [lat.stage(1), [lat.stage(2)[j] for j in perm]]
        lat2 = ScenarioLattice(stages)
        pref = preset_preference("dirac", lam=0.3, alpha=0.5)
        a = extensive_form_marsrm(lat, prefs=pref)
        b = extensive_form_marsrm(lat2, prefs=pref)
        assert abs(a - b) < 1e-9

    def test_size_guard(self):
        lat = build_lognormal_lattice(6, 2, 0.6, 0.3, 0.5, 12, RngStream(0))
        with pytest.raises(LpError):
            extensive_form_marsrm(lat, prefs=preset_preference("risk_neutral"))

    def test_subtree_value_terminal(self):
        lat = two_stage_lattice(seed=2, K=3)
        x1 = np.array([0.25, 0.75])
        rets = stage_returns(lat)
        for j in range(3):
            v = subtree_value(lat, 2, j, x1, prefs=preset_preference("risk_neutral"))
            assert abs(v - (-(rets[j] @ x1))) < 1e-9

    def test_cost_to_go_oracle_aggregates(self):
        lat = two_stage_lattice(seed=2, K=4)
        pref = preset_preference("dirac", lam=0.0, alpha=0.5)
        x1 = np.array([0.5, 0.5])
        vals = -stage_returns(lat) @ x1
        want = cvar(DiscreteDistribution.from_values(vals), 0.5)
        got = cost_to_go_oracle(lat, 2, x1, prefs=pref)
        assert abs(got - want) < 1e-9


class TestDrOracle:
    def test_singleton_support_equals_dirac(self):
        lat = two_stage_lattice(seed=4, K=4)
        amb = MomentAmbiguitySet.from_empirical([(0.3, 0.5)], [1.0])
        pref = preset_preference("dirac", lam=0.3, alpha=0.5)
        a = extensive_form_dr(lat, amb)
        b = extensive_form_marsrm(lat, prefs=pref)
        assert abs(a - b) < 1e-7

    def test_pinned_weights_equal_marsrm(self):
        rng = np.random.default_rng(8)
        lat = two_stage_lattice(seed=8, K=3)
        support = np.column_stack([rng.uniform(0, 1, 6), rng.uniform(0, 0.9, 6)])
        q = rng.dirichlet(np.ones(6) * 5)
        amb = MomentAmbiguitySet.from_empirical(support, q)
        assert amb.pinned_q() is not None
        a = extensive_form_dr(lat, amb)
        b = extensive_form_marsrm(
            lat, prefs=PreferenceDistribution.from_points(support, q)
        )
        assert abs(a - b) < 1e-6

    def test_dr_dominates_member(self):
        rng = np.random.default_rng(9)
        lat = two_stage_lattice(seed=9, K=4)
        support = np.column_stack([rng.uniform(0, 1, 4), rng.uniform(0, 0.9, 4)])
        q = rng.dirichlet(np.ones(4))
        amb = MomentAmbiguitySet.from_empirical(support, q)
        dr_value = extensive_form_dr(lat, amb)
        member = extensive_form_marsrm(
            lat, prefs=PreferenceDistribution.from_points(support, q)
        )
        assert dr_value >= member - 1e-7

    def test_dr_subtree_and_aggregate(self):
        lat = two_stage_lattice(seed=10, K=3)
        amb = MomentAmbiguitySet.from_empirical([(0.5, 0.4)], [1.0])
        x1 = np.array([0.7, 0.3])
        rets = stage_returns(lat)
        for j in range(3):
            v = dr_subtree_value(lat, 2, j, x1, amb)
            assert abs(v - (-(rets[j] @ x1))) < 1e-9
        vals = -rets @ x1
        d = DiscreteDistribution.from_values(vals)
        want = 0.5 * d.mean() + 0.5 * cvar(d, 0.4)
        assert abs(dr_cost_to_go_oracle(lat, 2, x1, amb) - want) < 1e-7


def counted(monkeypatch, name):
    """Replace ``msrisk.extensive.<name>`` by a wrapper; the list of its calls."""
    calls, real = [], getattr(msrisk.extensive, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(msrisk.extensive, name, wrapper)
    return calls


def test_cost_to_go_oracles_resolve_the_stages_once(monkeypatch):
    # one resolution per oracle call, not one per scenario subtree; the value
    # is still exactly the aggregate of the subtree values
    lat = build_lognormal_lattice(3, 2, 0.6, 0.3, 0.5, 3, RngStream(12), transaction_cost=0.0)
    pref = preset_preference("dirac", lam=0.0, alpha=0.5)
    amb = MomentAmbiguitySet.from_empirical([(0.2, 0.5), (0.8, 0.3)], [0.5, 0.5])
    x1 = np.array([0.3, 0.7])
    marsrm = [subtree_value(lat, 2, j, x1, prefs=pref) for j in range(3)]
    dr = [dr_subtree_value(lat, 2, j, x1, amb) for j in range(3)]
    weights = counted(monkeypatch, "resolve_stage_weights")
    ambiguities = counted(monkeypatch, "resolve_ambiguities")
    assert cost_to_go_oracle(lat, 2, x1, prefs=pref) == arsrm_weights(3, pref).aggregate(marsrm)
    assert len(weights) == 1
    want = worst_case_arsrm(dr, amb, amb.stage_weights(3))
    assert dr_cost_to_go_oracle(lat, 2, x1, amb) == want
    assert len(ambiguities) == 1


# -- the sparse tree LPs against the dense reference ---------------------------

VORONOI = {"kind": "voronoi", "centers": 4, "samples": 200}
INSTANCES = {
    "t3-voronoi": dict(horizon=3, scenarios_per_stage=4, preference=VORONOI, seed=3),
    "t4-voronoi": dict(horizon=4, scenarios_per_stage=[4, 3, 2], preference=VORONOI, seed=8),
    # one CVaR level on the exact spectrum: MARSRM weighs two of four levels
    "t4-dirac": dict(
        horizon=4,
        scenarios_per_stage=4,
        preference={"kind": "dirac", "lambda": 0.2, "alpha": 0.5},
        spectrum_breakpoints=None,
        transaction_cost=0.0,
        seed=5,
    ),
}


def oracle_instance(name):
    """A small asset instance with sampled ambiguity sets."""
    config = dict(assets=3, ambiguity={"kind": "sampled", "size": 5}, spectrum_breakpoints=6)
    return build_asset_instance(AssetInstanceConfig(**{**config, **INSTANCES[name]}))


def stage_states(lat):
    """A feasible stage-1 decision and a stage-2 decision of scenario 0 after it."""
    states, x_prev = [], lat.x0
    for t in (1, 2):
        r = lat.stage(t)[0]
        x_prev = solve_arrays(np.zeros(r.num_vars), A_eq=r.A, b_eq=r.b - r.E @ x_prev).x
        states.append(x_prev)
    return states


def nonzeros(model):
    _, A_eq, _, A_ub, _, _ = model.arrays()
    return sum(A.nnz for A in (A_eq, A_ub) if A is not None)


def sparse_model(lat, risk, t, x_prev):
    model = LpModel()
    _add_node(model, lat, _node_layouts(lat, risk), t, 0, x_prev, root=True)
    return model


@pytest.mark.parametrize("name", INSTANCES)
def test_sparse_tree_lps_match_the_dense_reference(name):
    inst = oracle_instance(name)
    lat, prefs, ambs = inst.lattice, inst.preferences, inst.ambiguities
    x1, x2 = stage_states(lat)
    marsrm, dr = marsrm_tree_risk(lat, prefs=prefs), dr_tree_risk(lat, ambs)
    cases = [
        (extensive_form_marsrm(lat, prefs=prefs), marsrm, 1, 0, lat.x0),
        (extensive_form_dr(lat, ambs), dr, 1, 0, lat.x0),
    ]
    for t, x_prev in ((2, x1), (3, x2)):
        for j in range(lat.size(t)):
            cases.append((subtree_value(lat, t, j, x_prev, prefs=prefs), marsrm, t, j, x_prev))
            cases.append((dr_subtree_value(lat, t, j, x_prev, ambs), dr, t, j, x_prev))
    for value, risk, t, j, x_prev in cases:
        sol = tree_model(lat, risk, t, j, x_prev).solve()
        assert sol.is_optimal
        assert abs(value - sol.objective) <= 1e-9 * max(1.0, abs(sol.objective)), (t, j)
    # the whole trees, whose internal nodes below the root have z columns,
    # with fewer nonzeros
    for risk, dense in ((_marsrm_risk(lat, prefs)[0], marsrm), (_dr_risk(lat, ambs)[0], dr)):
        sparse = nonzeros(sparse_model(lat, risk, 1, lat.x0))
        assert sparse < nonzeros(tree_model(lat, dense, 1, 0, lat.x0))


def test_check_size_counts_the_built_columns():
    skipped = 0
    for name in INSTANCES:
        inst = oracle_instance(name)
        lat = inst.lattice
        x1, _ = stage_states(lat)
        marsrm = _marsrm_risk(lat, inst.preferences)[0]
        for risk in (marsrm, _dr_risk(lat, inst.ambiguities)[0]):
            layouts = _node_layouts(lat, risk)
            for t, x_prev in ((1, lat.x0), (2, x1)):
                built = sparse_model(lat, risk, t, x_prev).num_variables
                assert _check_size(lat, t, layouts) == built
        layouts = _node_layouts(lat, marsrm)
        skipped += sum(layouts[t - 1].levels.size < lat.size(t) for t in marsrm)
    # some MARSRM level carries no weight, so its columns are skipped and counted so
    assert skipped > 0


def test_infeasible_tree_lp_is_saved():
    if msrisk.lp._HIGHS is None:
        pytest.skip("scipy ships no HiGHS bindings to write or read the model")
    lat = build_lognormal_lattice(3, 2, 0.6, 0.3, 0.5, 3, RngStream(12), transaction_cost=0.0)
    amb = MomentAmbiguitySet.from_empirical([(0.2, 0.5), (0.8, 0.3)], [0.5, 0.5])
    # a negative holding makes the budget row's right-hand side negative
    message = r"^extensive form LP is infeasible \(the LP is saved in \S+\.mps\)$"
    with pytest.raises(LpError, match=message) as err:
        dr_subtree_value(lat, 2, 0, -np.ones(2), amb)
    h = read_saved(str(err.value))
    layouts = _node_layouts(lat, _dr_risk(lat, amb)[0])
    assert h.getLp().num_col_ == _check_size(lat, 2, layouts)
    h.run()
    assert h.getModelStatus().name == "kInfeasible"


def test_infeasible_tree_lp_without_highs_writes_nothing(monkeypatch, tmp_path):
    lat = two_stage_lattice(seed=2, K=3)
    monkeypatch.setattr(msrisk.lp, "_HIGHS", None)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(LpError, match=r"^extensive form LP is infeasible$"):
        subtree_value(lat, 2, 0, -np.ones(2), prefs=preset_preference("risk_neutral"))
    assert not any(tmp_path.iterdir())
