"""Stage LPs written out row by row, as references for the engines.

The engines lay their stage LPs out as blocks on one live model; these
builders write the same LPs literally, one row per balance equation, cut and
support point, as ``LpModel``s the tests solve and compare. Like the
extensive-form oracles, they share none of the engines' layout code. A
MARSRM reference with cuts has its epigraph column last.
"""

import numpy as np

from msrisk.lp import LpModel


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
