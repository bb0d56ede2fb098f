"""Exact risk calculus on finitely supported loss distributions.

Provides quantiles, CVaR in its tail-reweighting (dual) and eta-minimization
(variational) forms, step-like risk spectra with closed-form integration, and
the reduction of an averaged family of spectral risk measures to a convex
combination of CVaR levels on an equiprobable grid.

All quantities are computed exactly (piecewise integration, no quadrature);
values are loss-oriented, i.e. larger outcomes are worse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

PROB_SUM_TOL = 1e-12
SPECTRUM_NORM_TOL = 1e-10
EQUIPROBABLE_TOL = 1e-15


class UnsupportedConfigurationError(ValueError):
    """Raised when an operation is asked for outside its supported regime."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)  # always copy; callers keep their arrays
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DiscreteDistribution:
    """A finitely supported real distribution, canonicalized for risk calculus.

    Outcomes are stored sorted nondecreasing (stable sort, so ties keep their
    input order); ``order[i]`` is the input index of the i-th sorted atom.
    ``probs`` must be nonnegative and sum to one within ``PROB_SUM_TOL``.
    """

    outcomes: np.ndarray
    probs: np.ndarray
    order: np.ndarray

    @classmethod
    def from_values(cls, outcomes, probs=None) -> "DiscreteDistribution":
        """Build a canonical distribution; equiprobable when ``probs`` is None."""
        out = np.asarray(outcomes, dtype=float).ravel()
        if out.size == 0:
            raise ValueError("distribution needs at least one outcome")
        if probs is None:
            p = np.full(out.size, 1.0 / out.size)
        else:
            p = np.asarray(probs, dtype=float).ravel()
            if p.shape != out.shape:
                raise ValueError("outcomes and probs must have equal length")
            if np.any(p < -PROB_SUM_TOL):
                raise ValueError("probabilities must be nonnegative")
            p = np.maximum(p, 0.0)
        total = p.sum()
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        idx = np.argsort(out, kind="stable")
        order = idx.copy()
        order.setflags(write=False)
        return cls(outcomes=_readonly(out[idx]), probs=_readonly(p[idx]), order=order)

    @property
    def size(self) -> int:
        return int(self.outcomes.size)

    def cumulative(self) -> np.ndarray:
        """Cumulative probabilities ``pi`` with ``pi[0] = 0`` and ``pi[K] = 1``."""
        pi = np.concatenate(([0.0], np.cumsum(self.probs)))
        pi[-1] = 1.0
        return pi

    @property
    def is_equiprobable(self) -> bool:
        return bool(
            np.max(np.abs(self.probs - 1.0 / self.size)) <= EQUIPROBABLE_TOL
        )

    def mean(self) -> float:
        return float(self.probs @ self.outcomes)


def quantile(dist: DiscreteDistribution, z: float) -> float:
    """Left-continuous quantile of a discrete distribution.

    Returns the k-th sorted outcome for ``z`` in the half-open cumulative cell
    ``(pi_k, pi_{k+1}]``. ``z`` must lie in ``(0, 1]``.
    """
    if not 0.0 < z <= 1.0:
        raise ValueError(f"quantile level must be in (0, 1], got {z!r}")
    cum = dist.cumulative()[1:]
    k = int(np.searchsorted(cum, z, side="left"))
    return float(dist.outcomes[k])


@dataclass(frozen=True)
class CvarDualWeights:
    """Tail reweighting realizing ``CVaR_alpha(Z) = sum_k p_k lambda_hat_k Z_k``.

    Weights are aligned with the *sorted* outcomes; ``khat`` is the 0-based
    pivot index: atoms strictly below it get zero weight, atoms above it get
    the cap ``1 / (1 - alpha)``, and the pivot takes the normalizing remainder.
    """

    lambda_hat: np.ndarray
    khat: int
    alpha: float


def cvar_dual_weights(dist: DiscreteDistribution, alpha: float) -> CvarDualWeights:
    """Maximizer of ``sum_k p_k lambda_k Z_k`` over the CVaR dual feasible set.

    The pivot ``khat`` (1-based in the formulas) satisfies
    ``sum_{k <= khat-1} p_k <= alpha < sum_{k <= khat} p_k``;
    when ``1 - p_K <= alpha`` the last atom is the pivot.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha!r}")
    p = dist.probs
    cum = dist.cumulative()[1:]
    khat = int(np.searchsorted(cum, alpha, side="right"))  # 0-based pivot
    cap = 1.0 / (1.0 - alpha)
    lam = np.zeros(dist.size)
    lam[khat + 1 :] = cap
    tail = float(p[khat + 1 :].sum())
    lam[khat] = (1.0 - cap * tail) / p[khat]
    return CvarDualWeights(lambda_hat=_readonly(lam), khat=khat, alpha=alpha)


def cvar(dist: DiscreteDistribution, alpha: float) -> float:
    """CVaR at level ``alpha`` via the tail-reweighting form."""
    w = cvar_dual_weights(dist, alpha)
    return float((dist.probs * w.lambda_hat) @ dist.outcomes)


def cvar_variational(dist: DiscreteDistribution, alpha: float) -> float:
    """CVaR via ``min_eta eta + E[(Z - eta)_+] / (1 - alpha)``.

    The minimum is attained at a quantile, so scanning the outcome values is
    exact. Kept independent of the dual route; the two must agree to 1e-9.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha!r}")
    z = dist.outcomes
    excess = np.maximum(z[None, :] - z[:, None], 0.0) @ dist.probs
    return float(np.min(z + excess / (1.0 - alpha)))


@dataclass(frozen=True)
class StepSpectrum:
    """A piecewise-constant risk spectrum on ``[0, 1)``.

    ``breakpoints`` is strictly increasing from 0 to 1; ``levels[j]`` is the
    density on ``[breakpoints[j], breakpoints[j+1])``. Levels are nonnegative
    and nondecreasing (coherence) and integrate to one.
    """

    breakpoints: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        z = _readonly(self.breakpoints)
        lev = _readonly(self.levels)
        object.__setattr__(self, "breakpoints", z)
        object.__setattr__(self, "levels", lev)
        if z.size != lev.size + 1:
            raise ValueError("need one more breakpoint than levels")
        if abs(z[0]) > 0.0 or abs(z[-1] - 1.0) > 0.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if np.any(np.diff(z) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(lev < -1e-12):
            raise ValueError("spectrum levels must be nonnegative")
        if np.any(np.diff(lev) < -1e-12):
            raise ValueError("spectrum levels must be nondecreasing")
        total = float(lev @ np.diff(z))
        if abs(total - 1.0) > SPECTRUM_NORM_TOL:
            raise ValueError(f"spectrum integrates to {total!r}, expected 1")

    @classmethod
    def uniform(cls) -> "StepSpectrum":
        return cls(np.array([0.0, 1.0]), np.array([1.0]))

    def integrate(self, a: float, b: float) -> float:
        """Exact ``integral_a^b sigma(z) dz`` for ``0 <= a <= b <= 1``."""
        z = self.breakpoints
        widths = np.clip(np.minimum(b, z[1:]) - np.maximum(a, z[:-1]), 0.0, None)
        return float(self.levels @ widths)

    def cell_integrals(self, grid: np.ndarray) -> np.ndarray:
        """Integrals over the consecutive cells of an increasing grid."""
        z = self.breakpoints
        lo = np.maximum(grid[:-1, None], z[None, :-1])
        hi = np.minimum(grid[1:, None], z[None, 1:])
        return np.clip(hi - lo, 0.0, None) @ self.levels


def combination_spectrum(lam: float, alpha: float) -> StepSpectrum:
    """Spectrum of ``lam * E + (1 - lam) * CVaR_alpha`` as an exact step function."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must be in [0, 1], got {lam!r}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha!r}")
    if alpha == 0.0 or lam == 1.0:
        # The CVaR part covers all of [0, 1) (or vanishes); density is 1.
        return StepSpectrum.uniform()
    return StepSpectrum(
        np.array([0.0, alpha, 1.0]),
        np.array([lam, lam + (1.0 - lam) / (1.0 - alpha)]),
    )


def project_spectrum(lam: float, alpha: float, J: int) -> StepSpectrum:
    """Project the E/CVaR combination spectrum onto the uniform J-cell grid.

    Three pieces: level ``lam`` below the grid cell containing ``alpha``, the
    exact tail level ``lam + (1 - lam)/(1 - alpha)`` above it, and the cell
    average in between so that the total integral stays exactly one. When
    ``alpha`` sits on a grid point the projection reproduces the spectrum.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must be in [0, 1], got {lam!r}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha!r}")
    if J < 1:
        raise ValueError(f"J must be at least 1, got {J!r}")
    grid = np.linspace(0.0, 1.0, J + 1)
    i = min(int(np.floor(alpha * J)), J - 1)
    high = lam + (1.0 - lam) / (1.0 - alpha)
    zi, zi1 = grid[i], grid[i + 1]
    mid = (1.0 - lam * zi - high * (1.0 - zi1)) / (zi1 - zi)
    levels = np.empty(J)
    levels[:i] = lam
    levels[i] = mid
    levels[i + 1 :] = high
    return StepSpectrum(grid, levels)


def srm(dist: DiscreteDistribution, spectrum: StepSpectrum) -> float:
    """Spectral risk ``sum_k xi_k * integral_{pi_k}^{pi_{k+1}} sigma(z) dz``."""
    psi = spectrum.cell_integrals(dist.cumulative())
    return float(psi @ dist.outcomes)


@dataclass(frozen=True)
class PreferenceDistribution:
    """A finite distribution over risk-preference parameters ``s = (lam, alpha)``.

    Each support point carries a step spectrum built by ``spectrum_builder``
    (default: the exact E/CVaR combination spectrum).
    """

    support: np.ndarray
    probs: np.ndarray
    spectra: tuple[StepSpectrum, ...]

    @classmethod
    def from_points(
        cls,
        support,
        probs=None,
        spectrum_builder: Callable[[float, float], StepSpectrum] = combination_spectrum,
    ) -> "PreferenceDistribution":
        pts = np.atleast_2d(np.asarray(support, dtype=float))
        if pts.shape[1] != 2:
            raise ValueError("support points must be (lam, alpha) pairs")
        if probs is None:
            q = np.full(pts.shape[0], 1.0 / pts.shape[0])
        else:
            q = np.asarray(probs, dtype=float).ravel()
            if q.shape[0] != pts.shape[0]:
                raise ValueError("support and probs must have equal length")
            if np.any(q < 0.0):
                raise ValueError("preference probabilities must be nonnegative")
            if abs(q.sum() - 1.0) > PROB_SUM_TOL:
                raise ValueError("preference probabilities must sum to 1")
        spectra = tuple(spectrum_builder(lam, a) for lam, a in pts)
        return cls(support=_readonly(pts), probs=_readonly(q), spectra=spectra)

    @classmethod
    def dirac(cls, lam: float, alpha: float, **kwargs) -> "PreferenceDistribution":
        return cls.from_points([(lam, alpha)], [1.0], **kwargs)

    @property
    def size(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True)
class ArsrmWeights:
    """CVaR-combination weights of an averaged spectral risk on K equiprobable atoms.

    ``psi[l, k]`` is the integral of spectrum ``l`` over the k-th cumulative
    cell ``[(k-1)/K, k/K)``; ``beta[l, k] = (psi[l,k] - psi[l,k-1]) (K-k+1)``
    and ``alpha_levels[k] = (k-1)/K``, so that the measure equals
    ``sum_{l,k} q_l beta[l,k] CVaR_{alpha_k}``. ``combined = q @ beta`` sums to 1.
    """

    K: int
    psi: np.ndarray
    beta: np.ndarray
    alpha_levels: np.ndarray
    q: np.ndarray
    combined: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("psi", "beta", "alpha_levels", "q"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        if self.psi.shape != (self.q.size, self.K):
            raise ValueError("psi must have shape (len(q), K)")
        if np.any(self.psi[:, 0] < -1e-12) or np.any(np.diff(self.psi, axis=1) < -1e-12):
            raise ValueError("psi must be nonnegative nondecreasing in k")
        totals = self.psi.sum(axis=1)
        if np.any(np.abs(totals - 1.0) > SPECTRUM_NORM_TOL):
            raise ValueError("each psi row must sum to 1")
        if np.any(self.beta < -1e-10):
            raise ValueError("beta weights must be nonnegative")
        combined = self.q @ self.beta
        if abs(combined.sum() - 1.0) > SPECTRUM_NORM_TOL:
            raise ValueError("q-weighted beta must sum to 1")
        object.__setattr__(self, "combined", _readonly(combined))

    def aggregate(self, values, probs=None) -> float:
        """``sum_k combined_k CVaR_{alpha_k}`` of K equiprobable values.

        At the grid levels ``alpha_k = (k-1)/K`` each CVaR is exactly the mean
        of the worst ``K-k+1`` outcomes, so the whole combination reduces to
        weighted suffix means of the sorted values.
        """
        v = np.sort(np.asarray(values, dtype=float).ravel())
        K = self.K
        if v.size != K:
            raise ValueError(f"expected {K} values, got {v.size}")
        if probs is not None:
            p = np.asarray(probs, dtype=float)
            if np.max(np.abs(p - 1.0 / K)) > EQUIPROBABLE_TOL:
                raise UnsupportedConfigurationError(
                    "CVaR-combination aggregation requires equiprobable scenarios"
                )
        tail_means = np.cumsum(v[::-1])[::-1] / np.arange(K, 0, -1)
        return float(self.combined @ tail_means)

    def scenario_reweighting(self, values) -> np.ndarray:
        """Per-scenario weights ``w`` with ``aggregate(values) = sum_j w_j v_j / K``.

        Realizes each CVaR level at its dual maximizer for the given values:
        on the equiprobable grid the level-k maximizer puts ``K/(K-k+1)`` on
        the worst ``K-k+1`` sorted atoms, so the combination telescopes into a
        cumulative sum. Returned in the input order of ``values``.
        """
        v = np.asarray(values, dtype=float).ravel()
        K = self.K
        if v.size != K:
            raise ValueError(f"expected {K} values, got {v.size}")
        idx = np.argsort(v, kind="stable")
        w_sorted = np.cumsum(self.combined * (K / np.arange(K, 0, -1)))
        w = np.empty(K)
        w[idx] = w_sorted
        return w


def arsrm_weights(K: int, pref: PreferenceDistribution) -> ArsrmWeights:
    """CVaR-combination weights for K equiprobable scenarios under ``pref``.

    Depends only on ``K`` and the preference distribution, not on outcome
    values, so it is computed once per (stage, K). Requires the equiprobable
    grid; for general probabilities use :func:`arsrm` directly.
    """
    if K < 1:
        raise ValueError(f"K must be at least 1, got {K!r}")
    grid = np.linspace(0.0, 1.0, K + 1)
    psi = np.stack([spec.cell_integrals(grid) for spec in pref.spectra])
    increments = np.diff(np.concatenate([np.zeros((psi.shape[0], 1)), psi], axis=1))
    beta = increments * (K - np.arange(1, K + 1) + 1)
    alpha_levels = np.arange(K, dtype=float) / K
    return ArsrmWeights(K=K, psi=psi, beta=beta, alpha_levels=alpha_levels, q=pref.probs)


def arsrm(dist: DiscreteDistribution, pref: PreferenceDistribution) -> float:
    """Average spectral risk ``sum_l q_l srm(dist, sigma_l)`` (any probabilities)."""
    return float(
        sum(q * srm(dist, spec) for q, spec in zip(pref.probs, pref.spectra))
    )


def arsrm_via_combination(dist: DiscreteDistribution, pref: PreferenceDistribution) -> float:
    """Average spectral risk through the CVaR-combination route.

    Only defined on equiprobable distributions; must agree with :func:`arsrm`
    to 1e-9 there.
    """
    if not dist.is_equiprobable:
        raise UnsupportedConfigurationError(
            "the CVaR-combination route requires equiprobable outcomes"
        )
    return arsrm_weights(dist.size, pref).aggregate(dist.outcomes)
