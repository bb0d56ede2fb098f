"""Exact extensive-form oracles for small multistage instances.

Builds one monolithic LP over the whole scenario tree with one recursive node
builder. Every internal node carries a risk block: each CVaR of the next
stage's combination in its eta-minimization form, with nonnegative shortfall
columns Delta_{k,j} per level k and child j, which is exact because all the
combination weights are nonnegative. The block's costs and support rows are
given over ``[zeta, eta, s]``: a level's shortfalls share one weight, so the
level sum ``s_k = sum_j Delta_{k,j}`` stands for them. MARSRM prices eta and
the shortfalls with the combination weights and has no zeta; the
distributionally robust variant prices the moment-dual variables zeta and
bounds the combination by one support row per support point, which reads K
free level-sum columns, tied to the Delta by K equality rows. A level that no
cost or support row weighs gets no columns and no rows. Each internal node
below the root holds its priced cost in one free column z, tied to it by one
equality row, so its parent's link rows read z alone. Intended as a
ground-truth reference at desk scale; a size guard refuses trees that would
exceed ``MAX_ORACLE_VARIABLES`` variables.
"""

from __future__ import annotations

import numpy as np

from .dr import resolve_ambiguities, worst_case_arsrm
from .lp import LpError, LpModel, ResolvableLp, saved_note
from .sddp import resolve_stage_weights

MAX_ORACLE_VARIABLES = 200_000


def _levels(block, K) -> np.ndarray:
    """The CVaR levels that some cost or support row of a risk block weighs."""
    costs, support = block
    weights = np.vstack([costs, support])[:, costs.size - 2 * K :]
    return np.flatnonzero(np.any(weights.reshape(-1, 2, K) != 0.0, axis=(0, 1)))


def _check_size(lattice, root_stage, risk) -> int:
    """The number of columns ``_add_node`` builds for a tree rooted at
    ``root_stage``; raises :class:`LpError` above ``MAX_ORACLE_VARIABLES``."""
    width, n = 1, 0
    for t in range(root_stage, lattice.horizon + 1):
        if t > root_stage:
            width *= lattice.size(t)
        n += width * lattice.num_vars(t)
        if t < lattice.horizon:
            K = lattice.size(t + 1)
            costs, support = risk[t + 1]
            L = _levels(risk[t + 1], K).size
            # zeta, eta, Delta, the level sums s, and z below the root
            n += width * (costs.size - 2 * K + L + L * K)
            n += width * ((L if len(support) else 0) + (t > root_stage))
    if n > MAX_ORACLE_VARIABLES:
        raise LpError(
            f"extensive form would need {n} variables "
            f"(limit {MAX_ORACLE_VARIABLES}); use the SDDP solver instead"
        )
    return n


def _add_node(model, lattice, risk, t, j, parent, root=False):
    """Add node ``(t, j)`` and its subtree; return the columns and weights of its cost.

    ``risk[t + 1]`` is the ``(costs, support rows)`` pair of the node's risk
    block, both over ``[zeta, eta, s]``. ``parent`` is either the parent
    node's decision columns (an integer array) or a fixed previous state
    folded into the rhs. The root's cost is its objective; any other node's
    cost enters its parent's rows ``cost - eta_k - Delta_{k,j} <= 0``, as
    its column z or, at a leaf, as its priced decision columns.
    """
    r = lattice.stage(t)[j]
    n = r.num_vars
    leaf = t == lattice.horizon
    if leaf:
        costs = r.c
    else:
        K = lattice.size(t + 1)
        block, support = risk[t + 1]
        levels = _levels(risk[t + 1], K)
        nz = block.size - 2 * K
        # the columns [zeta, eta, Delta] of the used levels, Delta level-major
        used = np.concatenate([np.arange(nz), nz + levels])
        costs = np.concatenate([r.c, block[used], np.repeat(block[nz + K + levels], K)])
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
        L = levels.size
        # zeta and eta are free, Delta is nonnegative
        free = model.add_variables(used.size, obj=obj[n : n + used.size], lb=None)
        delta = model.add_variables(L * K, obj=obj[n + used.size :], lb=0.0)
        cols = np.concatenate([x, free, delta])
        if len(support):
            s = model.add_variables(L, lb=None)
            for i in range(L):
                model.add_equality(
                    np.append(delta[i * K : (i + 1) * K], s[i]), np.append(np.ones(K), -1.0), 0.0
                )
            rows = support[:, np.concatenate([used, nz + K + levels])]
            for row in rows:
                keep = row != 0.0
                model.add_inequality(np.concatenate([free, s])[keep], row[keep], 0.0)
    keep = costs != 0.0
    cols, costs = cols[keep], costs[keep]
    if not (root or leaf):
        z = model.add_variable(lb=None)
        model.add_equality(np.append(cols, z), np.append(costs, -1.0), 0.0)
        cols, costs = np.array([z]), np.ones(1)
    if not leaf:
        eta = free[nz:]
        for j2 in range(K):
            child, child_costs = _add_node(model, lattice, risk, t + 1, j2, x)
            for i in range(L):
                model.add_inequality(
                    np.concatenate([child, [eta[i], delta[i * K + j2]]]),
                    np.concatenate([child_costs, [-1.0, -1.0]]),
                    0.0,
                )
    return cols, costs


def _solve_tree(lattice, risk, t, j, parent) -> float:
    _check_size(lattice, t, risk)
    model = LpModel()
    _add_node(model, lattice, risk, t, j, parent, root=True)
    sol = model.solve()
    if not sol.is_optimal:
        c, A_eq, b_eq, A_ub, b_ub, bounds = model.arrays()
        note = saved_note(ResolvableLp(c, A_eq, b_eq, A_ub=A_ub, b_ub=b_ub, bounds=bounds))
        raise LpError(f"extensive form LP is {sol.status}{note}")
    return float(sol.objective)


def _subtree_values(lattice, risk, t, x_prev) -> list:
    """Exact values of every stage-t scenario subtree at ``x_prev``."""
    x_prev = np.asarray(x_prev, dtype=float)
    return [_solve_tree(lattice, risk, t, j, x_prev) for j in range(lattice.size(t))]


def _marsrm_risk(lattice, prefs, weights) -> tuple[dict, dict]:
    """Per stage, the combination's CVaR terms (eta and level-sum costs, no
    zeta or support rows), and the stage weights they come from."""
    ws = resolve_stage_weights(lattice, prefs=prefs, weights=weights)
    risk = {}
    for t, w in ws.items():
        caps = 1.0 / (1.0 - w.alpha_levels)
        costs = np.concatenate([w.combined, w.combined * caps / w.K])
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
        costs = np.concatenate([obj, np.zeros(2 * K)])
        support = np.hstack([-rows, w.beta, w.beta * caps / K])
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
