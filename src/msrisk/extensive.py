"""Exact extensive-form oracles for small multistage instances.

Builds one monolithic LP over the whole scenario tree: every nested stage
risk functional is expanded into its CVaR combination, and every CVaR into
its eta-minimization form with auxiliary shortfall variables, which is exact
because all the combination weights are nonnegative. The distributionally
robust variant replaces the combination by the moment-dual block at every
internal node. Intended as a ground-truth reference at desk scale; a size
guard refuses trees that would exceed ``MAX_ORACLE_VARIABLES`` variables.
"""

from __future__ import annotations

import numpy as np

from .dr import resolve_ambiguities, worst_case_arsrm
from .lp import LpError, LpModel
from .scenario import ScenarioLattice
from .sddp import resolve_stage_weights

MAX_ORACLE_VARIABLES = 200_000


def _oracle_size(lattice: ScenarioLattice, root_stage: int, zeta_dim: int) -> int:
    width = 1
    total = 0
    for t in range(root_stage, lattice.horizon + 1):
        if t > root_stage:
            width *= lattice.size(t)
        total += width * lattice.num_vars(t)
        if t < lattice.horizon:
            k = lattice.size(t + 1)
            total += width * (k + k * k + zeta_dim)
    return total


def _check_size(lattice, root_stage, zeta_dim):
    n = _oracle_size(lattice, root_stage, zeta_dim)
    if n > MAX_ORACLE_VARIABLES:
        raise LpError(
            f"extensive form would need {n} variables "
            f"(limit {MAX_ORACLE_VARIABLES}); use the SDDP solver instead"
        )


def _add_stage_node(model, lattice, t, j, parent):
    """Add one tree node's variables and coupling rows; return (x, cost terms).

    ``parent`` is either an integer index array (the parent node's decision
    variables) or a fixed previous-state vector folded into the rhs.
    """
    r = lattice.stage(t)[j]
    x = model.add_variables(r.num_vars, lb=0.0)
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
    expr: dict[int, float] = {}
    for var, coef in zip(x, r.c):
        if coef != 0.0:
            expr[int(var)] = expr.get(int(var), 0.0) + float(coef)
    return x, expr


def _merge(expr, terms):
    for var, coef in terms.items():
        if coef != 0.0:
            expr[var] = expr.get(var, 0.0) + coef


def _build_marsrm_node(model, lattice, weights, t, j, parent):
    x, expr = _add_stage_node(model, lattice, t, j, parent)
    T = lattice.horizon
    if t == T:
        return expr
    w = weights[t + 1]
    K = lattice.size(t + 1)
    bk = w.combined
    caps = 1.0 / (1.0 - w.alpha_levels)
    eta = model.add_variables(K, lb=None)
    delta = model.add_variables(K * K, lb=0.0)
    for k in range(K):
        _merge(expr, {int(eta[k]): float(bk[k])})
        for j2 in range(K):
            _merge(expr, {int(delta[k * K + j2]): float(bk[k] * caps[k] / K)})
    for j2 in range(K):
        child = _build_marsrm_node(model, lattice, weights, t + 1, j2, x)
        for k in range(K):
            terms = dict(child)
            terms[int(eta[k])] = terms.get(int(eta[k]), 0.0) - 1.0
            terms[int(delta[k * K + j2])] = terms.get(int(delta[k * K + j2]), 0.0) - 1.0
            cols = np.fromiter(terms.keys(), dtype=int)
            model.add_inequality(cols, np.fromiter(terms.values(), dtype=float), 0.0)
    return expr


def _solve_expression(model, expr):
    for var, coef in expr.items():
        model._obj[var] = coef
    sol = model.solve()
    if not sol.is_optimal:
        raise LpError(f"extensive form LP is {sol.status}")
    return float(sol.objective)


def extensive_form_marsrm(lattice, prefs=None, weights=None) -> float:
    """Exact optimal value of the nested risk-averse multistage problem."""
    _check_size(lattice, 1, 0)
    ws = resolve_stage_weights(lattice, prefs=prefs, weights=weights)
    model = LpModel()
    expr = _build_marsrm_node(model, lattice, ws, 1, 0, lattice.x0)
    return _solve_expression(model, expr)


def subtree_value(lattice, t, j, x_prev, prefs=None, weights=None) -> float:
    """Exact cost-to-go ``V_t(x_prev, xi_{t,j})`` of one scenario subtree."""
    _check_size(lattice, t, 0)
    ws = resolve_stage_weights(lattice, prefs=prefs, weights=weights)
    model = LpModel()
    expr = _build_marsrm_node(model, lattice, ws, t, j, np.asarray(x_prev, dtype=float))
    return _solve_expression(model, expr)


def cost_to_go_oracle(lattice, t, x_prev, prefs=None, weights=None) -> float:
    """Aggregated future risk at ``x_prev``: the combination over stage-t values.

    This is the function the single-cut pools minorize, evaluated exactly by
    solving each scenario subtree and aggregating.
    """
    ws = resolve_stage_weights(lattice, prefs=prefs, weights=weights)
    vals = [
        subtree_value(lattice, t, j, x_prev, prefs=prefs, weights=weights)
        for j in range(lattice.size(t))
    ]
    return ws[t].aggregate(vals)


# -- distributionally robust variant ------------------------------------------


def _build_dr_node(model, lattice, ambs, betas, t, j, parent):
    x, expr = _add_stage_node(model, lattice, t, j, parent)
    T = lattice.horizon
    if t == T:
        return expr
    amb = ambs[t + 1]
    w = betas[t + 1]
    K = lattice.size(t + 1)
    caps = 1.0 / (1.0 - w.alpha_levels)
    dual_rows, dual_obj = amb.dual_coefficients()
    zeta = model.add_variables(dual_obj.size, lb=None)
    eta = model.add_variables(K, lb=None)
    delta = model.add_variables(K * K, lb=0.0)
    for i, var in enumerate(zeta):
        if dual_obj[i] != 0.0:
            _merge(expr, {int(var): float(dual_obj[i])})
    for l in range(amb.size):
        terms: dict[int, float] = {}
        for k in range(K):
            if w.beta[l, k] != 0.0:
                terms[int(eta[k])] = float(w.beta[l, k])
                for j2 in range(K):
                    terms[int(delta[k * K + j2])] = float(w.beta[l, k] * caps[k] / K)
        for i, var in enumerate(zeta):
            if dual_rows[l, i] != 0.0:
                terms[int(var)] = terms.get(int(var), 0.0) - float(dual_rows[l, i])
        cols = np.fromiter(terms.keys(), dtype=int)
        model.add_inequality(cols, np.fromiter(terms.values(), dtype=float), 0.0)
    for j2 in range(K):
        child = _build_dr_node(model, lattice, ambs, betas, t + 1, j2, x)
        for k in range(K):
            terms = dict(child)
            terms[int(eta[k])] = terms.get(int(eta[k]), 0.0) - 1.0
            terms[int(delta[k * K + j2])] = terms.get(int(delta[k * K + j2]), 0.0) - 1.0
            cols = np.fromiter(terms.keys(), dtype=int)
            model.add_inequality(cols, np.fromiter(terms.values(), dtype=float), 0.0)
    return expr


def extensive_form_dr(lattice, ambs) -> float:
    """Exact optimal value of the distributionally robust multistage problem."""
    amb_map, betas = resolve_ambiguities(lattice, ambs)
    zdim = next(iter(amb_map.values())).dual_coefficients()[1].size
    _check_size(lattice, 1, zdim)
    model = LpModel()
    expr = _build_dr_node(model, lattice, amb_map, betas, 1, 0, lattice.x0)
    return _solve_expression(model, expr)


def dr_subtree_value(lattice, t, j, x_prev, ambs) -> float:
    """Exact robust cost-to-go of one scenario subtree at ``x_prev``."""
    amb_map, betas = resolve_ambiguities(lattice, ambs)
    zdim = next(iter(amb_map.values())).dual_coefficients()[1].size
    _check_size(lattice, t, zdim)
    model = LpModel()
    expr = _build_dr_node(
        model, lattice, amb_map, betas, t, j, np.asarray(x_prev, dtype=float)
    )
    return _solve_expression(model, expr)


def dr_cost_to_go_oracle(lattice, t, x_prev, ambs) -> float:
    """Worst-case aggregated future risk at ``x_prev`` (robust counterpart)."""
    amb_map, betas = resolve_ambiguities(lattice, ambs)
    vals = np.array(
        [
            dr_subtree_value(lattice, t, j, x_prev, ambs)
            for j in range(lattice.size(t))
        ]
    )
    return worst_case_arsrm(vals, None, amb_map[t], betas[t])
