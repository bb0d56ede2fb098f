"""Distributionally robust stage preferences over moment ambiguity sets.

The stage risk is the worst case of the CVaR combination over all preference
weights matching a given mean and covariance on a finite support. Strong
duality turns the inner sup into a small set of dual variables and support
rows, the moment-dual block, which :func:`moment_dual_block` builds once per
stage. ``DrSddp`` plugs that block into the shared bound iteration of
:mod:`msrisk.sddp` as its stage risk block, whose columns and rows its hooks
add to the stage and envelope LPs' ``LpModel``, with one cut pool per scenario
(the dual block couples scenarios inside each LP, so cuts must stay
scenario-wise) and scenario-wise upper envelopes. Per-scenario solves within
a backward step are independent; appends happen in fixed scenario order, so
runs are schedule-independent and seed-reproducible. Below stage 1, where the
next stage has more than one scenario, each stage's envelope call of the upper
sweep builds one live envelope model per scenario ``A`` and ``c`` and
re-solves it warm at each of the stage's states, as only the balance rhs
changes (see ``BoundIteration._envelope_values``); the engine holds no
envelope model between calls. The support rows of every robust LP (stage,
envelope and ``worst_case_arsrm``) read the level sums, which keeps the stage
LPs that the engine holds live small.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .lp import LpError, LpModel, solve_arrays
from .risk import (
    ArsrmWeights,
    PreferenceDistribution,
    StepSpectrum,
    arsrm_weights,
    combination_spectrum,
)
from .scenario import ScenarioLattice
from .sddp import BoundIteration, Cut, CutPool, TrainReport, _require_equiprobable_stages


@dataclass(frozen=True)
class MomentAmbiguitySet:
    """All preference weights on a finite support with fixed mean and covariance.

    ``support`` holds the observed preference states ``s_l = (lam, alpha)``;
    membership requires ``q >= 0``, ``sum q = 1``, ``sum q s = mu`` and
    ``sum q (s - mu)(s - mu)' = Sigma``. Nonemptiness is certified with one
    feasibility LP at construction. Each support point carries its spectrum so
    the induced CVaR-combination weights are fixed by the set itself.
    """

    support: np.ndarray
    mu: np.ndarray
    Sigma: np.ndarray
    spectra: tuple[StepSpectrum, ...] = ()

    def __post_init__(self):
        pts = np.atleast_2d(np.array(self.support, dtype=float))
        mu = np.array(self.mu, dtype=float).ravel()
        Sig = np.atleast_2d(np.array(self.Sigma, dtype=float))
        if pts.shape[1] != mu.size or Sig.shape != (mu.size, mu.size):
            raise ValueError("support, mu and Sigma dimensions disagree")
        if not np.allclose(Sig, Sig.T, atol=1e-12):
            raise ValueError("Sigma must be symmetric")
        spectra = self.spectra
        if not spectra:
            if pts.shape[1] != 2:
                raise ValueError("default spectra need (lam, alpha) support points")
            spectra = tuple(combination_spectrum(lam, a) for lam, a in pts)
        if len(spectra) != pts.shape[0]:
            raise ValueError("need one spectrum per support point")
        for arr in (pts, mu, Sig):
            arr.setflags(write=False)
        object.__setattr__(self, "support", pts)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "Sigma", Sig)
        object.__setattr__(self, "spectra", spectra)
        M, m = self.moment_system()
        if not solve_arrays(np.zeros(self.size), A_eq=M, b_eq=m).is_optimal:
            raise ValueError(
                "moment conditions admit no distribution on the given support"
            )

    @classmethod
    def from_empirical(
        cls, support, probs, spectrum_builder=combination_spectrum
    ) -> "MomentAmbiguitySet":
        """Moments of the empirical distribution ``probs`` on ``support``."""
        pts = np.atleast_2d(np.asarray(support, dtype=float))
        q = np.asarray(probs, dtype=float).ravel()
        mu = q @ pts
        d = pts - mu
        Sigma = (d * q[:, None]).T @ d
        spectra = tuple(spectrum_builder(lam, a) for lam, a in pts)
        return cls(support=pts, mu=mu, Sigma=Sigma, spectra=spectra)

    @property
    def size(self) -> int:
        return int(self.support.shape[0])

    @property
    def dim(self) -> int:
        return int(self.mu.size)

    def moment_system(self) -> tuple[np.ndarray, np.ndarray]:
        """Equality system ``M q = m`` of the membership conditions.

        Rows: normalization, the mean coordinates, then the distinct entries
        of the centered second-moment matrix (upper triangle, row-major).
        """
        pts, mu = self.support, self.mu
        d = pts - mu
        rows = [np.ones(self.size)]
        rhs = [1.0]
        for i in range(self.dim):
            rows.append(pts[:, i])
            rhs.append(mu[i])
        for i in range(self.dim):
            for j in range(i, self.dim):
                rows.append(d[:, i] * d[:, j])
                rhs.append(self.Sigma[i, j])
        return np.vstack(rows), np.asarray(rhs)

    def dual_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-support-point dual rows and the dual objective vector.

        With a single row per distinct covariance entry, the off-diagonal dual
        variable absorbs the factor two of the Frobenius pairing with the
        symmetric matrix multiplier.
        """
        M, m = self.moment_system()
        return M.T.copy(), m

    def pinned_q(self) -> Optional[np.ndarray]:
        """The unique member, when the moment system pins one; else None."""
        M, m = self.moment_system()
        if np.linalg.matrix_rank(M, tol=1e-9) < self.size:
            return None
        q, *_ = np.linalg.lstsq(M, m, rcond=None)
        if np.max(np.abs(M @ q - m)) > 1e-8 or np.min(q) < -1e-9:
            return None
        return q

    def stage_weights(self, K: int) -> ArsrmWeights:
        """CVaR-combination weights of the support spectra on K equiprobable atoms.

        The member weights ``q`` are decision variables of the robust model;
        the returned container carries a uniform placeholder, and consumers
        read ``psi``/``beta``/``alpha_levels`` only.
        """
        pref = PreferenceDistribution(
            support=self.support,
            probs=np.full(self.size, 1.0 / self.size),
            spectra=self.spectra,
        )
        return arsrm_weights(K, pref)


def resolve_ambiguities(lattice: ScenarioLattice, ambs) -> tuple[dict, dict]:
    """Ambiguity sets and their CVaR-combination weights, per stage ``2..T``.

    ``ambs`` is one set for every stage or a sequence with one per stage. The
    robust combination is defined on the equiprobable grid only, so a stage
    that is not equiprobable raises ``UnsupportedConfigurationError``.
    """
    T = lattice.horizon
    if not isinstance(ambs, (list, tuple)):
        ambs = [ambs] * (T - 1)
    if len(ambs) != T - 1:
        raise ValueError(f"need one ambiguity set per stage 2..{T}")
    _require_equiprobable_stages(lattice, "robust combination")
    amb_map = {t: ambs[t - 2] for t in range(2, T + 1)}
    return amb_map, {t: amb.stage_weights(lattice.size(t)) for t, amb in amb_map.items()}


class MomentDualBlock(NamedTuple):
    """Moment-dual block over the columns ``[zeta, eta (K), Delta (K*K)]``.

    ``obj`` prices the columns and ``lb`` bounds them below (only ``Delta``
    is nonnegative); ``sums`` has one ``<= 0`` support row per support point
    over ``[zeta, eta, s]``, with ``s_k = sum_j Delta_{k,j}`` (a level's
    shortfalls share one coefficient; see ``support_rows``). ``level`` spans
    ``[eta, Delta, u]``, with ``u_j`` the value of scenario j: row ``k*K +
    j`` is ``u_j - eta_k - Delta_{k,j} <= 0``.
    """

    obj: np.ndarray
    lb: np.ndarray
    sums: np.ndarray
    level: np.ndarray


@lru_cache(maxsize=8)  # shared by every stage with K scenarios
def _level_rows(K: int) -> np.ndarray:
    rows = np.arange(K * K)
    level = np.zeros((K * K, K + K * K + K))
    level[rows, rows // K] = -1.0  # eta_k
    level[rows, K + rows] = -1.0  # Delta_{k,j}
    level[rows, K + K * K + rows % K] = 1.0  # u_j
    level.setflags(write=False)
    return level


def moment_dual_block(amb: MomentAmbiguitySet, weights: ArsrmWeights) -> MomentDualBlock:
    """Build the moment-dual block of ``amb`` under its CVaR-combination weights."""
    rows, obj = amb.dual_coefficients()
    K = weights.K
    caps = 1.0 / (1.0 - weights.alpha_levels)
    shortfall = weights.beta * caps / K  # one coefficient per level
    costs = np.concatenate([obj, np.zeros(K + K * K)])
    sums = np.hstack([-rows, weights.beta, shortfall])
    lb = np.r_[np.full(obj.size + K, -np.inf), np.zeros(K * K)]
    return MomentDualBlock(costs, lb, sums, _level_rows(K))


def support_rows(model, block: MomentDualBlock, y, K: int) -> None:
    """Add the level sums ``s`` (K free columns), the rows ``sums`` over ``[zeta,
    eta, s]`` and one row ``sum_j Delta_{k,j} - s_k <= 0`` per level, after the
    block's columns ``y``. Exact whatever the signs: slack in ``s_k`` can move
    into one ``Delta_{k,j}``, which only loosens its level row."""
    s, free = model.add_variables(K, lb=None), y.size - K * K  # zeta and eta
    model.add_inequality(np.concatenate([y[:free], s]), block.sums, np.zeros(len(block.sums)))
    level_sums = np.hstack([np.kron(np.eye(K), np.ones(K)), -np.eye(K)])
    model.add_inequality(np.concatenate([y[free:], s]), level_sums, np.zeros(K))


def worst_case_arsrm(values, amb: MomentAmbiguitySet, weights: ArsrmWeights) -> float:
    """Worst-case combination ``sup_q sum_{l,k} q_l beta_{l,k} CVaR_{alpha_k}``.

    Solved through the moment-dual LP; by strong duality (the set is nonempty
    and the CVaR terms are finite) this equals the direct sup, cf.
    :func:`worst_case_arsrm_primal`.
    """
    v = np.asarray(values, dtype=float).ravel()
    K = v.size
    if weights.K != K:
        raise ValueError("weights were built for a different scenario count")
    block = moment_dual_block(amb, weights)
    model = LpModel()
    y = model.add_variables(block.obj.size, obj=block.obj, lb=block.lb)
    support_rows(model, block, y, K)
    model.add_inequality(y[-K - K * K :], block.level[:, :-K], -np.tile(v, K))  # u = v
    sol = solve_arrays(*model.arrays())
    if not sol.is_optimal:
        raise LpError(f"moment-dual LP is {sol.status}")
    return float(sol.objective)


def worst_case_arsrm_primal(values, amb: MomentAmbiguitySet, weights: ArsrmWeights) -> float:
    """The direct sup over member weights (reference route for duality audits)."""
    v = np.sort(np.asarray(values, dtype=float).ravel())
    K = v.size
    tail_means = np.cumsum(v[::-1])[::-1] / np.arange(K, 0, -1)
    scores = weights.beta @ tail_means
    M, m = amb.moment_system()
    sol = solve_arrays(-scores, A_eq=M, b_eq=m)
    if not sol.is_optimal:
        raise LpError(f"moment-primal LP is {sol.status}")
    return -float(sol.objective)


class DrSddp(BoundIteration):
    """Multi-cut robust bound iteration over a scenario lattice.

    The risk block has the columns ``[zeta, eta, Delta, u, s]``: the
    moment-dual block, ``u_j``, the epigraph of next-stage scenario j's cuts
    (which equals writing each cut against every level row, with far fewer
    rows) in the lower LP and of scenario j's envelope in the envelope LP,
    and the level sums ``s`` that the support rows read.
    """

    def __init__(self, lattice: ScenarioLattice, ambs, options=None):
        super().__init__(lattice, options)
        self.ambs, self.weights = resolve_ambiguities(lattice, ambs)
        self._blocks = {
            t: moment_dual_block(amb, self.weights[t]) for t, amb in self.ambs.items()
        }
        big = self.options.big
        self.pools = {
            t: [CutPool(lattice.num_vars(t - 1), big) for _ in range(lattice.size(t))]
            for t in range(2, self.T + 1)
        }

    def _stage_pools(self, t):
        return self.pools[t]

    def _moment_columns(self, model, t):
        """The risk-block columns ``y = [zeta, eta, Delta]``, ``u`` and the
        level sums, with the support rows; returns ``y`` and ``u``."""
        block, K = self._blocks[t + 1], self.lattice.size(t + 1)
        y = model.add_variables(block.obj.size, obj=block.obj, lb=block.lb)
        u = model.add_variables(K, lb=None)
        support_rows(model, block, y, K)
        return y, u

    def _close_levels(self, model, t, y, u):
        """The level rows, whose ``u_j`` entries close each level against scenario j."""
        K, level = u.size, self._blocks[t + 1].level
        model.add_inequality(np.concatenate([y[-K - K * K :], u]), level, np.zeros(K * K))

    def _risk_block(self, model, t, x):
        """The support rows over the level sums, then the level rows; ``u_j``
        is the epigraph column of scenario j's pool."""
        y, u = self._moment_columns(model, t)
        self._close_levels(model, t, y, u)
        return u

    def _add_cuts(self, t, x_prev, vals, grads):
        """One cut per scenario, each into that scenario's pool."""
        for j, pool in enumerate(self.pools[t]):
            pool.add(Cut(vals[j] - grads[j] @ x_prev, grads[j]))

    def _risk_value(self, t, vals):
        return vals

    def _envelope_block(self, model, t, values):
        """Each envelope value bounds ``u_e`` in one ``<=`` row; the columns
        are ``[zeta, eta, Delta, u, s]``, then those ``values`` prices."""
        K, tail = values.shape
        y, u = self._moment_columns(model, t)
        w = model.add_variables(tail, lb=0.0)
        model.add_inequality(np.concatenate([w, u]), np.hstack([values, -np.eye(K)]), np.zeros(K))
        self._close_levels(model, t, y, u)
        return w


def dr_train(lattice, ambs, options=None) -> TrainReport:
    """Robust bound iteration; single forward path per iteration by default."""
    return DrSddp(lattice, ambs, options=options).run()
