"""Exact extensive-form oracles for small multistage instances.

Builds one monolithic LP over the whole scenario tree with one recursive node
builder. Every internal node carries a risk block over the columns ``[zeta,
eta, Delta]``: each CVaR of the next stage's combination in its
eta-minimization form, with shortfall variables Delta, which is exact because
all the combination weights are nonnegative. MARSRM prices eta and Delta with
the combination weights and has no zeta; the distributionally robust variant
prices the moment-dual variables zeta and bounds the combination by one
support row per support point. Intended as a ground-truth reference at desk
scale; a size guard refuses trees that would exceed ``MAX_ORACLE_VARIABLES``
variables.
"""

from __future__ import annotations

import numpy as np

from .dr import resolve_ambiguities, worst_case_arsrm
from .lp import LpError, LpModel
from .sddp import resolve_stage_weights

MAX_ORACLE_VARIABLES = 200_000


def _check_size(lattice, root_stage, risk):
    width, n = 1, 0
    for t in range(root_stage, lattice.horizon + 1):
        if t > root_stage:
            width *= lattice.size(t)
        n += width * lattice.num_vars(t)
        if t < lattice.horizon:
            n += width * risk[t + 1][0].size
    if n > MAX_ORACLE_VARIABLES:
        raise LpError(
            f"extensive form would need {n} variables "
            f"(limit {MAX_ORACLE_VARIABLES}); use the SDDP solver instead"
        )


def _add_node(model, lattice, risk, t, j, parent, root=False):
    """Add node ``(t, j)`` and its subtree; return its priced columns and costs.

    ``risk[t + 1]`` is the ``(costs over [zeta, eta, Delta], support rows)``
    pair of the node's risk block. ``parent`` is either the parent node's
    decision columns (an integer array) or a fixed previous state folded into
    the rhs. The root's costs are its objective; every other node's costs
    enter its parent's rows ``costs - eta_k - Delta_{k,j} <= 0``.
    """
    r = lattice.stage(t)[j]
    n = r.num_vars
    leaf = t == lattice.horizon
    costs = r.c if leaf else np.concatenate([r.c, risk[t + 1][0]])
    obj = costs if root else np.zeros(costs.size)
    x = model.add_variables(n, obj=obj[:n], lb=0.0)
    if isinstance(parent, np.ndarray) and parent.dtype.kind == "i":
        for i in range(r.A.shape[0]):
            cols = np.concatenate([x, parent])
            coefs = np.concatenate([r.A[i], r.E[i]])
            keep = coefs != 0.0
            model.add_equality(cols[keep], coefs[keep], r.b[i])
    else:
        rhs = r.b - r.E @ np.asarray(parent, dtype=float)
        for i in range(r.A.shape[0]):
            keep = r.A[i] != 0.0
            model.add_equality(x[keep], r.A[i][keep], rhs[i])
    cols = x
    if not leaf:
        K = lattice.size(t + 1)
        # zeta and eta are free, Delta is nonnegative
        free = model.add_variables(costs.size - n - K * K, obj=obj[n : -K * K], lb=None)
        delta = model.add_variables(K * K, obj=obj[-K * K :], lb=0.0)
        cols = np.concatenate([x, free, delta])
        for row in risk[t + 1][1]:
            keep = row != 0.0
            model.add_inequality(cols[n:][keep], row[keep], 0.0)
        eta = free[-K:]
        for j2 in range(K):
            child, child_costs = _add_node(model, lattice, risk, t + 1, j2, x)
            for k in range(K):
                model.add_inequality(
                    np.concatenate([child, [eta[k], delta[k * K + j2]]]),
                    np.concatenate([child_costs, [-1.0, -1.0]]),
                    0.0,
                )
    keep = costs != 0.0
    return cols[keep], costs[keep]


def _solve_tree(lattice, risk, t, j, parent) -> float:
    _check_size(lattice, t, risk)
    model = LpModel()
    _add_node(model, lattice, risk, t, j, parent, root=True)
    sol = model.solve()
    if not sol.is_optimal:
        raise LpError(f"extensive form LP is {sol.status}")
    return float(sol.objective)


def _subtree_values(lattice, risk, t, x_prev) -> list:
    """Exact values of every stage-t scenario subtree at ``x_prev``."""
    x_prev = np.asarray(x_prev, dtype=float)
    return [_solve_tree(lattice, risk, t, j, x_prev) for j in range(lattice.size(t))]


def _marsrm_risk(lattice, prefs, weights) -> tuple[dict, dict]:
    """Per stage, the combination's CVaR terms (eta and Delta costs, no zeta),
    and the stage weights they come from."""
    ws = resolve_stage_weights(lattice, prefs=prefs, weights=weights)
    risk = {}
    for t, w in ws.items():
        caps = 1.0 / (1.0 - w.alpha_levels)
        costs = np.concatenate([w.combined, np.repeat(w.combined * caps / w.K, w.K)])
        risk[t] = (costs, np.empty((0, costs.size)))
    return risk, ws


def extensive_form_marsrm(lattice, prefs=None, weights=None) -> float:
    """Exact optimal value of the nested risk-averse multistage problem."""
    risk, _ = _marsrm_risk(lattice, prefs, weights)
    return _solve_tree(lattice, risk, 1, 0, lattice.x0)


def subtree_value(lattice, t, j, x_prev, prefs=None, weights=None) -> float:
    """Exact cost-to-go ``V_t(x_prev, xi_{t,j})`` of one scenario subtree."""
    risk, _ = _marsrm_risk(lattice, prefs, weights)
    return _solve_tree(lattice, risk, t, j, np.asarray(x_prev, dtype=float))


def cost_to_go_oracle(lattice, t, x_prev, prefs=None, weights=None) -> float:
    """Aggregated future risk at ``x_prev``: the combination over stage-t values.

    This is the function the single-cut pools minorize, evaluated exactly by
    solving each scenario subtree and aggregating.
    """
    risk, ws = _marsrm_risk(lattice, prefs, weights)
    return ws[t].aggregate(_subtree_values(lattice, risk, t, x_prev))


# -- distributionally robust variant ------------------------------------------


def _dr_risk(lattice, ambs) -> tuple[dict, dict, dict]:
    """Per stage, the moment-dual block (zeta costs and one row per support
    point), with the ambiguity sets and weights it comes from.

    Built here from the ambiguity set, apart from :func:`dr.moment_dual_block`,
    so the oracle stays an independent reference for the engine.
    """
    amb_map, betas = resolve_ambiguities(lattice, ambs)
    risk = {}
    for t, amb in amb_map.items():
        w, K = betas[t], lattice.size(t)
        rows, obj = amb.dual_coefficients()
        caps = 1.0 / (1.0 - w.alpha_levels)
        costs = np.concatenate([obj, np.zeros(K + K * K)])
        support = np.hstack([-rows, w.beta, np.repeat(w.beta * caps / K, K, axis=1)])
        risk[t] = (costs, support)
    return risk, amb_map, betas


def extensive_form_dr(lattice, ambs) -> float:
    """Exact optimal value of the distributionally robust multistage problem."""
    risk, _, _ = _dr_risk(lattice, ambs)
    return _solve_tree(lattice, risk, 1, 0, lattice.x0)


def dr_subtree_value(lattice, t, j, x_prev, ambs) -> float:
    """Exact robust cost-to-go of one scenario subtree at ``x_prev``."""
    risk, _, _ = _dr_risk(lattice, ambs)
    return _solve_tree(lattice, risk, t, j, np.asarray(x_prev, dtype=float))


def dr_cost_to_go_oracle(lattice, t, x_prev, ambs) -> float:
    """Worst-case aggregated future risk at ``x_prev`` (robust counterpart)."""
    risk, amb_map, betas = _dr_risk(lattice, ambs)
    vals = _subtree_values(lattice, risk, t, x_prev)
    return worst_case_arsrm(vals, None, amb_map[t], betas[t])
