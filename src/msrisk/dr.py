"""Distributionally robust stage preferences over moment ambiguity sets.

The stage risk is the worst case of the CVaR combination over all preference
weights matching a given mean and covariance on a finite support. Strong
duality turns the inner sup into a small set of dual variables and support
rows, the moment-dual block, which :func:`moment_dual_block` builds once per
stage. ``DrSddp`` plugs that block into the shared bound iteration of
:mod:`msrisk.sddp` as its stage risk block, with one cut pool per scenario
(the dual block couples scenarios inside each LP, so cuts must stay
scenario-wise) and scenario-wise upper envelopes. Per-scenario solves within
a backward step are independent; appends happen in fixed scenario order, so
runs are schedule-independent and seed-reproducible. The K envelope LPs at one
state share no row, so the upper sweep solves them as one block-diagonal LP
(see ``BoundIteration._envelope_values``), whose support rows read level sums
where the stage LPs read every shortfall column.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .lp import LpError, block_matrix, solve_arrays
from .risk import (
    EQUIPROBABLE_TOL,
    ArsrmWeights,
    PreferenceDistribution,
    StepSpectrum,
    UnsupportedConfigurationError,
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


def _check_equiprobable(probs, K):
    if probs is None:
        return
    p = np.asarray(probs, dtype=float)
    if p.size != K or np.max(np.abs(p - 1.0 / K)) > EQUIPROBABLE_TOL:
        raise UnsupportedConfigurationError(
            "the robust combination requires equiprobable scenarios"
        )


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

    ``obj`` prices the columns; ``support`` has one ``<= 0`` row per support
    point. ``level`` spans ``[eta, Delta]``: row ``k*K + j`` is
    ``-eta_k - Delta_{k,j}``, bounded by minus the value of scenario j.
    """

    obj: np.ndarray
    support: np.ndarray
    level: np.ndarray

    @property
    def bounds(self) -> list:
        n_delta = self.level.shape[0]
        return [(None, None)] * (self.obj.size - n_delta) + [(0, None)] * n_delta


@lru_cache(maxsize=8)  # shared by every stage with K scenarios
def _level_rows(K: int) -> np.ndarray:
    rows = np.arange(K * K)
    level = np.zeros((K * K, K + K * K))
    level[rows, rows // K] = -1.0  # eta_k
    level[rows, K + rows] = -1.0  # Delta_{k,j}
    level.setflags(write=False)
    return level


def moment_dual_block(amb: MomentAmbiguitySet, weights: ArsrmWeights) -> MomentDualBlock:
    """Build the moment-dual block of ``amb`` under its CVaR-combination weights."""
    rows, obj = amb.dual_coefficients()
    K = weights.K
    caps = 1.0 / (1.0 - weights.alpha_levels)
    costs = np.concatenate([obj, np.zeros(K + K * K)])
    support = np.hstack(
        [-rows, weights.beta, np.repeat(weights.beta * caps / K, K, axis=1)]
    )
    return MomentDualBlock(costs, support, _level_rows(K))


def worst_case_arsrm(values, probs, amb: MomentAmbiguitySet, weights: ArsrmWeights) -> float:
    """Worst-case combination ``sup_q sum_{l,k} q_l beta_{l,k} CVaR_{alpha_k}``.

    Solved through the moment-dual LP; by strong duality (the set is nonempty
    and the CVaR terms are finite) this equals the direct sup, cf.
    :func:`worst_case_arsrm_primal`.
    """
    v = np.asarray(values, dtype=float).ravel()
    K = v.size
    _check_equiprobable(probs, K)
    if weights.K != K:
        raise ValueError("weights were built for a different scenario count")
    block = moment_dual_block(amb, weights)
    zdim = block.obj.size - K - K * K
    A_ub = np.vstack([block.support, np.hstack([np.zeros((K * K, zdim)), block.level])])
    b_ub = np.concatenate([np.zeros(amb.size), -np.tile(v, K)])
    sol = solve_arrays(block.obj, A_ub=A_ub, b_ub=b_ub, bounds=block.bounds)
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

    The risk block has the columns ``[zeta, eta, Delta, u]``: the moment-dual
    block plus ``u_j``, the epigraph of next-stage scenario j's cuts (which
    equals writing each cut against every level row, with far fewer rows) in
    the lower LP, and of scenario j's envelope in the envelope LP.
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

    forward_pass = BoundIteration.forward_pass
    backward_pass = BoundIteration.backward_pass
    upper_sweep = BoundIteration.upper_sweep

    def _stage_pools(self, t):
        return self.pools[t]

    def _robust_rows(self, t, n, height, blocks):
        """``<=`` row blocks of a stage-t robust LP over ``[x, zeta, eta, Delta, u, ...]``.

        ``blocks`` fill the first ``height`` rows; the level rows follow,
        whose ``u_j`` entries close each level against scenario j.
        """
        block = self._blocks[t + 1]
        K = self.lattice.size(t + 1)
        d = block.obj.size
        u_cols = np.tile(np.eye(K), (K, 1))
        return [*blocks, (height, n + d - K - K * K, block.level), (height, n + d, u_cols)]

    def _robust_columns(self, t):
        """Costs and bounds of the risk-block columns ``[zeta, eta, Delta, u]``."""
        block = self._blocks[t + 1]
        K = self.lattice.size(t + 1)
        return np.concatenate([block.obj, np.zeros(K)]), block.bounds + [(None, None)] * K

    def _risk_block(self, t):
        block = self._blocks[t + 1]
        n, d = self.lattice.num_vars(t), block.obj.size
        pools = self.pools[t + 1]
        K = len(pools)
        mats = [p.matrices() for p in pools]
        b_cuts = np.concatenate([-g for _, g in mats])
        S = block.support.shape[0]
        rows, row = [(0, n, block.support)], S
        for j, (G, g) in enumerate(mats):
            rows += [(row, 0, G), (row, n + d + j, -np.ones((g.size, 1)))]
            row += g.size
        b_ub = np.concatenate([np.zeros(S), b_cuts, np.zeros(K * K)])
        costs, bounds = self._robust_columns(t)
        A_ub = block_matrix((row + K * K, n + d + K), self._robust_rows(t, n, row, rows))
        return costs, A_ub, b_ub, bounds

    def _add_cuts(self, t, x_prev, vals, grads):
        """One cut per scenario, each into that scenario's pool."""
        for j, pool in enumerate(self.pools[t]):
            pool.add(Cut(vals[j] - grads[j] @ x_prev, grads[j]))

    def _risk_value(self, t, vals):
        return vals

    def _envelope_block(self, t, n, values):
        """Each envelope value bounds ``u_e`` in one ``<=`` row, and the support
        rows read the level sums ``s_k``, with one row ``sum_j Delta_{k,j} -
        s_k <= 0`` per level, after the ``u`` columns.

        A level's ``Delta`` columns share one support coefficient, so every
        K-th column of the block's support rows gives the ``s`` coefficients.
        The sums are exact whatever the signs: any slack in ``s_k`` can move
        into one ``Delta_{k,j}``, which only loosens its level row.
        """
        block = self._blocks[t + 1]
        K, tail = values.shape
        S, d = block.support.shape
        delta, s = n + d - K * K, n + d + K
        rows = [
            (0, n, block.support[:, : d - K * K]),
            (0, s, block.support[:, d - K * K :: K]),
            (S, delta, np.kron(np.eye(K), np.ones(K))),
            (S, s, -np.eye(K)),
            (S + K, s + K, values),
            (S + K, s - K, -np.eye(K)),
        ]
        costs, bounds = self._robust_columns(t)
        costs = np.concatenate([costs, np.zeros(K + tail)])
        bounds = bounds + [(None, None)] * K + [(0, None)] * tail
        return costs, self._robust_rows(t, n, S + 2 * K, rows), S + 2 * K + K * K, bounds


def dr_train(lattice, ambs, options=None) -> TrainReport:
    """Robust bound iteration; single forward path per iteration by default."""
    return DrSddp(lattice, ambs, options=options).run()
