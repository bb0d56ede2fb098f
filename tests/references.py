"""LPs written out row by row, as references for the engines and oracles.

The engines build their stage LPs with ``LpModel`` in row blocks, one block
per kind of row, kept as one live model, and their envelope LPs the same
way, as one block-diagonal LP per state; these builders write the same LPs
literally, one row per balance equation, cut, support point and envelope
row, as ``LpModel``s the tests solve and compare. Like the extensive-form
oracles, they share none of the engines' hook code. A
MARSRM reference with cuts has its epigraph column last.

The extensive-form references write the oracles' tree LPs densely: every
node's priced columns appear in each of its parent's link rows, and every
support row reads all of a node's shortfall columns.
"""

import numpy as np

from msrisk.dr import resolve_ambiguities
from msrisk.lp import LpModel
from msrisk.sddp import resolve_stage_weights


def _stage_model(realization, x_prev):
    """The stage columns ``x`` and balance rows ``A x = b - E x_prev``."""
    r = realization
    rhs = r.b - r.E @ np.asarray(x_prev, dtype=float)
    model = LpModel()
    x = model.add_variables(r.num_vars, obj=r.c, lb=0.0)
    for i in range(r.A.shape[0]):
        keep = r.A[i] != 0.0
        model.add_equality(x[keep], r.A[i][keep], rhs[i])
    return model, x


def stage_subproblem(realization, x_prev, cuts=None):
    """MARSRM stage LP at ``x_prev``.

    With ``cuts`` given the model carries the epigraph column theta of the
    future risk and one row ``g + G x <= theta`` per cut; without it (final
    stage) the model is the plain stage LP.
    """
    model, x = _stage_model(realization, x_prev)
    if cuts is not None:
        theta = model.add_variable(obj=1.0, lb=None)
        for cut in cuts:
            keep = cut.gradient != 0.0
            model.add_inequality(
                np.append(x[keep], theta), np.append(cut.gradient[keep], -1.0), -cut.intercept
            )
    return model


def _moment_dual(model, amb, weights):
    """The moment-dual columns ``zeta, eta, Delta`` and one row per support point."""
    K = weights.K
    rows, obj = amb.dual_coefficients()
    caps = 1.0 / (1.0 - weights.alpha_levels)
    zeta = model.add_variables(obj.size, obj=obj, lb=None)
    eta = model.add_variables(K, lb=None)
    delta = model.add_variables(K * K, lb=0.0)
    idx = np.concatenate([zeta, eta, delta])
    for l in range(amb.size):
        coef = np.concatenate(
            [-rows[l], weights.beta[l], np.repeat(weights.beta[l] * caps / K, K)]
        )
        keep = coef != 0.0
        model.add_inequality(idx[keep], coef[keep], 0.0)
    return eta, delta


def dr_stage_subproblem(realization, x_prev, scenario_cuts, amb, weights):
    """Robust stage LP at ``x_prev``.

    ``scenario_cuts`` is a list (one entry per next-stage scenario) of cut
    lists; ``None`` marks the final stage, which is the MARSRM one. Cut rows
    appear literally as ``g + G x - eta_k <= Delta_{k,j}`` for every stored
    cut and level.
    """
    if scenario_cuts is None:
        return stage_subproblem(realization, x_prev)
    K = len(scenario_cuts)
    if weights.K != K:
        raise ValueError("weights were built for a different scenario count")
    model, x = _stage_model(realization, x_prev)
    eta, delta = _moment_dual(model, amb, weights)
    for j, cuts in enumerate(scenario_cuts):
        for cut in cuts:
            keep = cut.gradient != 0.0
            for k in range(K):
                model.add_inequality(
                    np.concatenate([x[keep], [eta[k], delta[k * K + j]]]),
                    np.concatenate([cut.gradient[keep], [-1.0, -1.0]]),
                    -cut.intercept,
                )
    return model


def envelope_subproblem(realization, x_prev, states, values, penalty, robust=None):
    """Upper-envelope LP of one stage scenario at ``x_prev``.

    ``states`` (one per row) and ``values`` (one column per envelope e) are
    the archive of the stage's decisions. For each e, convex weights
    ``lam_e`` on the states and an l1 slack ``yp_e - ym_e`` reach ``x``, at
    the envelope cost ``values[:, e] . lam_e + penalty . (yp_e + ym_e)``.
    Without ``robust`` that cost of the one envelope is in the objective.
    With ``robust = (amb, weights)`` of the next stage, envelope e bounds
    ``u_e``, which stands in the level rows ``u_j - eta_k - Delta_{k,j} <=
    0`` of the moment-dual block where scenario j's value would.
    """
    model, x = _stage_model(realization, x_prev)
    X = np.asarray(states, dtype=float)
    P, n = X.shape
    V = np.reshape(np.asarray(values, dtype=float), (P, -1))
    M = np.broadcast_to(np.asarray(penalty, dtype=float), (n,))
    if robust is not None:
        amb, weights = robust
        K = weights.K
        eta, delta = _moment_dual(model, amb, weights)
        u = model.add_variables(K, lb=None)
        for j in range(K):
            for k in range(K):
                model.add_inequality([u[j], eta[k], delta[k * K + j]], [1.0, -1.0, -1.0], 0.0)
    for e in range(V.shape[1]):
        priced = robust is None
        lam = model.add_variables(P, obj=V[:, e] if priced else 0.0, lb=0.0)
        yp = model.add_variables(n, obj=M if priced else 0.0, lb=0.0)
        ym = model.add_variables(n, obj=M if priced else 0.0, lb=0.0)
        for i in range(n):
            keep = X[:, i] != 0.0
            model.add_equality(
                np.concatenate([[x[i]], lam[keep], [yp[i], ym[i]]]),
                np.concatenate([[-1.0], X[keep, i], [1.0, -1.0]]),
                0.0,
            )
        model.add_equality(lam, np.ones(P), 1.0)
        if not priced:
            model.add_inequality(
                np.concatenate([lam, yp, ym, [u[e]]]),
                np.concatenate([V[:, e], M, M, [-1.0]]),
                0.0,
            )
    return model


def marsrm_tree_risk(lattice, prefs):
    """Per stage, the MARSRM risk block: costs over ``[eta, Delta]``, no support rows."""
    risk = {}
    for t, w in resolve_stage_weights(lattice, prefs).items():
        caps = 1.0 / (1.0 - w.alpha_levels)
        costs = np.concatenate([w.combined, np.repeat(w.combined * caps / w.K, w.K)])
        risk[t] = (costs, np.empty((0, costs.size)))
    return risk


def dr_tree_risk(lattice, ambs):
    """Per stage, the robust risk block over ``[zeta, eta, Delta]``: the
    moment-dual costs and one support row per support point."""
    amb_map, betas = resolve_ambiguities(lattice, ambs)
    risk = {}
    for t, amb in amb_map.items():
        w, K = betas[t], lattice.size(t)
        rows, obj = amb.dual_coefficients()
        caps = 1.0 / (1.0 - w.alpha_levels)
        costs = np.concatenate([obj, np.zeros(K + K * K)])
        support = np.hstack([-rows, w.beta, np.repeat(w.beta * caps / K, K, axis=1)])
        risk[t] = (costs, support)
    return risk


def tree_model(lattice, risk, t, j, x_prev):
    """Extensive-form LP of the subtree of node ``(t, j)`` at ``x_prev``.

    ``risk`` comes from :func:`marsrm_tree_risk` or :func:`dr_tree_risk`; the
    root's costs are the objective, every other node's costs enter each of
    its parent's rows ``costs - eta_k - Delta_{k,j} <= 0``.
    """
    model = LpModel()
    _tree_node(model, lattice, risk, t, j, np.asarray(x_prev, dtype=float), root=True)
    return model


def _tree_node(model, lattice, risk, t, j, parent, root=False):
    """Add node ``(t, j)`` and its subtree; return its priced columns and costs."""
    r = lattice.stage(t)[j]
    n = r.num_vars
    leaf = t == lattice.horizon
    costs = r.c if leaf else np.concatenate([r.c, risk[t + 1][0]])
    obj = costs if root else np.zeros(costs.size)
    x = model.add_variables(n, obj=obj[:n], lb=0.0)
    if parent.dtype.kind == "i":
        for i in range(r.A.shape[0]):
            cols = np.concatenate([x, parent])
            coefs = np.concatenate([r.A[i], r.E[i]])
            keep = coefs != 0.0
            model.add_equality(cols[keep], coefs[keep], r.b[i])
    else:
        rhs = r.b - r.E @ parent
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
            child, child_costs = _tree_node(model, lattice, risk, t + 1, j2, x)
            for k in range(K):
                model.add_inequality(
                    np.concatenate([child, [eta[k], delta[k * K + j2]]]),
                    np.concatenate([child_costs, [-1.0, -1.0]]),
                    0.0,
                )
    keep = costs != 0.0
    return cols[keep], costs[keep]
