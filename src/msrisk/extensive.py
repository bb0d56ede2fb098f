"""Exact extensive-form oracles for small multistage instances.

Builds one monolithic LP over the whole scenario tree with one recursive node
builder. Every internal node carries a risk block: each CVaR of the next
stage's combination in its eta-minimization form, with nonnegative shortfall
columns Delta_{k,j} per level k and child j, which is exact because all the
combination weights are nonnegative. A level's shortfalls share one weight,
so the level sum ``s_k = sum_j Delta_{k,j}`` stands for them in the block's
costs and support rows, given over ``[zeta, eta, s]``. MARSRM prices eta and
the shortfalls with the combination weights; the distributionally robust
variant also prices the moment-dual variables zeta and bounds the combination
by one support row per support point. A level that no cost or support row
weighs gets no columns and no rows. Each internal node below the root holds
its priced cost in one free column z, so its parent's link rows read z alone.
The node layout (columns and row blocks) is built once per stage; each node
adds its rows to ``LpModel`` one block per kind, and the size guard counts
columns from the same layout, refusing trees above ``MAX_ORACLE_VARIABLES``
variables. Intended as a ground-truth reference at desk scale. The robust
oracle reads the engine's :func:`msrisk.dr.moment_dual_block`; the independent
reference for both is the dense tree LP of ``tests/references.py``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dr import moment_dual_block, resolve_ambiguities, worst_case_arsrm
from .lp import LpError, LpModel, ResolvableLp, saved_note
from .sddp import resolve_stage_weights

MAX_ORACLE_VARIABLES = 200_000


class _NodeLayout(NamedTuple):
    """The risk columns y of every node at one internal stage: zeta, eta,
    Delta (level-major) and, with support rows, the level sums s, of the
    used CVaR ``levels`` only. ``lb`` and ``costs`` give one entry per
    column; ``level_sums`` (the rows ``sum_j Delta_{k,j} - s_k = 0``) and
    ``support`` are row blocks over y, and ``links[j]`` holds the y part
    ``-eta_k - Delta_{k,j}`` of child j's link rows."""

    levels: np.ndarray
    lb: np.ndarray
    costs: np.ndarray
    level_sums: np.ndarray
    support: np.ndarray
    links: np.ndarray


def _node_layouts(lattice, risk) -> dict:
    """Per internal stage t, the node layout of risk block ``risk[t + 1]``,
    the ``(costs, support rows)`` pair over ``[zeta, eta, s]``."""
    layouts = {}
    for child, (costs, support) in risk.items():
        K = lattice.size(child)
        nz = costs.size - 2 * K
        weights = np.vstack([costs, support])[:, nz:].reshape(-1, 2, K)
        # a level that no cost or support row weighs gets no columns and no rows
        levels = np.flatnonzero(np.any(weights != 0.0, axis=(0, 1)))
        L = levels.size
        S = L if len(support) else 0  # the level sums s are read by support rows only
        eye, free, sums = np.eye(L), nz + L, nz + K + levels  # free: zeta and eta
        # each block over y is laid out as [zeta (nz), eta (L), Delta (L*K), s (S)]
        layouts[child - 1] = _NodeLayout(
            levels,
            lb=np.r_[np.full(free, -np.inf), np.zeros(L * K), np.full(S, -np.inf)],
            costs=np.r_[costs[:nz], costs[nz + levels], np.repeat(costs[sums], K), np.zeros(S)],
            level_sums=np.hstack([np.zeros((S, free)), np.kron(eye[:S], np.ones(K)), -np.eye(S)]),
            support=np.hstack([
                support[:, np.r_[:nz, nz + levels]],
                np.zeros((len(support), L * K)),
                support[:, sums[:S]],
            ]),
            links=np.array([
                np.hstack([np.zeros((L, nz)), -eye, -np.kron(eye, e), np.zeros((L, S))])
                for e in np.eye(K)
            ]),
        )
    return layouts


def _check_size(lattice, root_stage, layouts) -> int:
    """The number of columns ``_add_node`` builds for a tree rooted at
    ``root_stage``; raises :class:`LpError` above ``MAX_ORACLE_VARIABLES``."""
    width, n = 1, 0
    for t in range(root_stage, lattice.horizon + 1):
        if t > root_stage:
            width *= lattice.size(t)
        n += width * lattice.num_vars(t)
        if t < lattice.horizon:
            n += width * (layouts[t].costs.size + (t > root_stage))  # y, and z below the root
    if n > MAX_ORACLE_VARIABLES:
        raise LpError(
            f"extensive form would need {n} variables "
            f"(limit {MAX_ORACLE_VARIABLES}); use the SDDP solver instead"
        )
    return n


def _add_node(model, lattice, layouts, t, j, parent, root=False):
    """Add node ``(t, j)`` and its subtree; return the columns and weights of its cost.

    ``layouts`` holds each internal stage's :class:`_NodeLayout`. The root's
    ``parent`` is a fixed previous state, folded into the rhs; any other
    node's is its parent node's decision columns. The root's cost is its
    objective; any other node's cost enters its parent's rows ``cost - eta_k
    - Delta_{k,j} <= 0``, as its column z or, at a leaf, as its priced
    decision columns.
    """
    r = lattice.stage(t)[j]
    x = model.add_variables(r.num_vars, obj=r.c if root else 0.0, lb=0.0)
    if root:
        model.add_equality(x, r.A, r.b - r.E @ parent)
    else:
        model.add_equality(np.concatenate([x, parent]), np.hstack([r.A, r.E]), r.b)
    if t == lattice.horizon:
        return x, r.c
    lay = layouts[t]
    y = model.add_variables(lay.costs.size, obj=lay.costs if root else 0.0, lb=lay.lb)
    model.add_equality(y, lay.level_sums, np.zeros(len(lay.level_sums)))
    model.add_inequality(y, lay.support, np.zeros(len(lay.support)))
    cols, costs = np.concatenate([x, y]), np.concatenate([r.c, lay.costs])
    if not root:
        z = model.add_variable(lb=None)
        model.add_equality(np.append(cols, z), np.append(costs, -1.0), 0.0)
        cols, costs = np.array([z]), np.ones(1)
    for j2, link in enumerate(lay.links):
        child, child_costs = _add_node(model, lattice, layouts, t + 1, j2, x)
        model.add_inequality(
            np.concatenate([child, y]),
            np.hstack([np.tile(child_costs, (len(link), 1)), link]),
            np.zeros(len(link)),
        )
    return cols, costs


def _solve_tree(lattice, risk, t, j, x_prev) -> float:
    layouts = _node_layouts(lattice, risk)
    _check_size(lattice, t, layouts)
    model = LpModel()
    _add_node(model, lattice, layouts, t, j, np.asarray(x_prev, dtype=float), root=True)
    sol = model.solve()
    if not sol.is_optimal:
        note = saved_note(ResolvableLp(*model.arrays()))
        raise LpError(f"extensive form LP is {sol.status}{note}")
    return float(sol.objective)


def _subtree_values(lattice, risk, t, x_prev) -> list:
    """Exact values of every stage-t scenario subtree at ``x_prev``."""
    return [_solve_tree(lattice, risk, t, j, x_prev) for j in range(lattice.size(t))]


def _marsrm_risk(lattice, prefs) -> tuple[dict, dict]:
    """Per stage, the combination's CVaR terms (eta and level-sum costs, no
    zeta or support rows), and the stage weights they come from."""
    ws = resolve_stage_weights(lattice, prefs)
    risk = {}
    for t, w in ws.items():
        caps = 1.0 / (1.0 - w.alpha_levels)
        costs = np.concatenate([w.combined, w.combined * caps / w.K])
        risk[t] = (costs, np.empty((0, costs.size)))
    return risk, ws


def extensive_form_marsrm(lattice, prefs) -> float:
    """Exact optimal value of the nested risk-averse multistage problem."""
    risk, _ = _marsrm_risk(lattice, prefs)
    return _solve_tree(lattice, risk, 1, 0, lattice.x0)


def subtree_value(lattice, t, j, x_prev, prefs) -> float:
    """Exact cost-to-go ``V_t(x_prev, xi_{t,j})`` of one scenario subtree."""
    risk, _ = _marsrm_risk(lattice, prefs)
    return _solve_tree(lattice, risk, t, j, x_prev)


def cost_to_go_oracle(lattice, t, x_prev, prefs) -> float:
    """Aggregated future risk at ``x_prev``: the combination over stage-t values.

    This is the function the single-cut pools minorize, evaluated exactly by
    solving each scenario subtree and aggregating.
    """
    risk, ws = _marsrm_risk(lattice, prefs)
    return ws[t].aggregate(_subtree_values(lattice, risk, t, x_prev))


# -- distributionally robust variant ------------------------------------------


def _dr_risk(lattice, ambs) -> tuple[dict, dict, dict]:
    """Per stage, the engine's moment-dual block over ``[zeta, eta, s]`` (its
    costs and ``sums`` rows), with the ambiguity sets and weights it comes
    from; ``tests/references.py::dr_tree_risk`` is the independent reference."""
    amb_map, betas = resolve_ambiguities(lattice, ambs)
    risk = {}
    for t, amb in amb_map.items():
        block = moment_dual_block(amb, betas[t])
        risk[t] = (block.obj[: block.sums.shape[1]], block.sums)
    return risk, amb_map, betas


def extensive_form_dr(lattice, ambs) -> float:
    """Exact optimal value of the distributionally robust multistage problem."""
    risk, _, _ = _dr_risk(lattice, ambs)
    return _solve_tree(lattice, risk, 1, 0, lattice.x0)


def dr_subtree_value(lattice, t, j, x_prev, ambs) -> float:
    """Exact robust cost-to-go of one scenario subtree at ``x_prev``."""
    risk, _, _ = _dr_risk(lattice, ambs)
    return _solve_tree(lattice, risk, t, j, x_prev)


def dr_cost_to_go_oracle(lattice, t, x_prev, ambs) -> float:
    """Worst-case aggregated future risk at ``x_prev`` (robust counterpart)."""
    risk, amb_map, betas = _dr_risk(lattice, ambs)
    vals = _subtree_values(lattice, risk, t, x_prev)
    return worst_case_arsrm(vals, amb_map[t], betas[t])
