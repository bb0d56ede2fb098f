"""Scenario lattices and preference distributions for multistage programs.

A lattice holds, for each stage, a list of stagewise-independent realizations
``(c, b, A, E)`` of the stage LP blocks, where the stage feasible set is
``{x >= 0 : A x = b - E x_prev}``. Stage 1 is deterministic. Construction is
seed-deterministic: every consumer of randomness draws from its own named
stream, so e.g. changing the number of forward samples never perturbs the
lattice itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .risk import PreferenceDistribution, combination_spectrum, project_spectrum

_PURPOSE_CODES = {"lattice": 1, "forward": 2, "preference": 3, "ambiguity": 4}


@dataclass(frozen=True)
class RngStream:
    """Named, per-stage random streams derived from one 64-bit seed."""

    seed: int

    def generator(self, purpose: str, stage: int = 0) -> np.random.Generator:
        try:
            code = _PURPOSE_CODES[purpose]
        except KeyError:
            raise ValueError(f"unknown stream purpose {purpose!r}") from None
        return np.random.default_rng(
            np.random.SeedSequence([self.seed & (2**64 - 1), code, stage])
        )


@dataclass(frozen=True)
class StageRealization:
    """One realization of the stage blocks; rows are equality constraints."""

    c: np.ndarray
    b: np.ndarray
    A: np.ndarray
    E: np.ndarray
    prob: float

    def __post_init__(self):
        c = np.array(self.c, dtype=float)
        b = np.array(self.b, dtype=float)
        A = np.atleast_2d(np.array(self.A, dtype=float))
        E = np.atleast_2d(np.array(self.E, dtype=float))
        m, n = A.shape
        if c.shape != (n,) or b.shape != (m,) or E.shape[0] != m:
            raise ValueError("inconsistent stage block dimensions")
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError("realization probability must lie in [0, 1]")
        for name, val in (("c", c), ("b", b), ("A", A), ("E", E)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    @property
    def num_vars(self) -> int:
        return self.A.shape[1]

    @property
    def prev_dim(self) -> int:
        return self.E.shape[1]


class ScenarioLattice:
    """Stagewise-independent scenario lattice over stages ``1..T``.

    ``stage(t)`` returns the list of realizations of stage ``t`` (1-based);
    stage 1 always has exactly one deterministic realization. There are no
    parent links between stages: independence is structural.
    """

    def __init__(self, stages: Sequence[Sequence[StageRealization]]):
        if not stages or len(stages[0]) != 1:
            raise ValueError("stage 1 must hold exactly one realization")
        self._stages = [list(s) for s in stages]
        prev_n = self._stages[0][0].prev_dim
        for t, reals in enumerate(self._stages, start=1):
            if not reals:
                raise ValueError(f"stage {t} has no realizations")
            total = sum(r.prob for r in reals)
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"stage {t} probabilities sum to {total!r}")
            n = reals[0].num_vars
            m = reals[0].A.shape[0]
            for r in reals:
                if r.num_vars != n or r.A.shape[0] != m or r.prev_dim != prev_n:
                    raise ValueError(f"stage {t} has inconsistent block shapes")
            prev_n = n

    @property
    def horizon(self) -> int:
        return len(self._stages)

    def stage(self, t: int) -> list[StageRealization]:
        return self._stages[t - 1]

    def size(self, t: int) -> int:
        return len(self._stages[t - 1])

    def num_vars(self, t: int) -> int:
        return self._stages[t - 1][0].num_vars

    def probs(self, t: int) -> np.ndarray:
        return np.array([r.prob for r in self._stages[t - 1]])

    def is_equiprobable(self, t: int) -> bool:
        k = self.size(t)
        return bool(np.max(np.abs(self.probs(t) - 1.0 / k)) <= 1e-15)

    @property
    def x0(self) -> np.ndarray:
        return np.zeros(self._stages[0][0].prev_dim)


def _covariance_factor(sigma: np.ndarray, corr: np.ndarray) -> np.ndarray:
    if not np.allclose(corr, corr.T, atol=1e-12):
        raise ValueError("correlation matrix must be symmetric")
    if np.max(np.abs(np.diag(corr) - 1.0)) > 1e-12:
        raise ValueError("correlation matrix must have unit diagonal")
    cov = np.outer(sigma, sigma) * corr
    w, v = np.linalg.eigh(cov)
    if np.min(w) < -1e-10 * max(np.max(np.abs(w)), 1.0):
        raise ValueError("correlation matrix is not positive semidefinite")
    return v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


def _asset_stage_blocks(returns: np.ndarray, f: float, prev_dim: int):
    """Rebalancing-stage blocks with proportional transaction cost ``f``.

    Variables are ``(x, z, w_up, w_dn)`` with ``x`` the allocations and ``z``
    the traded amounts; ``w_up/w_dn`` are slacks turning the two-sided trade
    bounds ``|x - x_prev| <= z`` into equalities. The budget row reads
    ``e'x + f e'z = returns . x_prev``, carried through the coupling matrix.
    """
    R = returns.size
    n = 4 * R
    c = np.zeros(n)
    c[:R] = -1.0
    A = np.zeros((1 + 2 * R, n))
    E = np.zeros((1 + 2 * R, prev_dim))
    b = np.zeros(1 + 2 * R)
    eye = np.eye(R)
    # budget row
    A[0, :R] = 1.0
    A[0, R : 2 * R] = f
    E[0, :R] = -returns
    # x - z + w_up = x_prev
    A[1 : 1 + R, :R] = eye
    A[1 : 1 + R, R : 2 * R] = -eye
    A[1 : 1 + R, 2 * R : 3 * R] = eye
    E[1 : 1 + R, :R] = -eye
    # -x - z + w_dn = -x_prev
    A[1 + R :, :R] = -eye
    A[1 + R :, R : 2 * R] = -eye
    A[1 + R :, 3 * R :] = eye
    E[1 + R :, :R] = eye
    return c, b, A, E


def build_lognormal_lattice(
    T: int,
    assets: int,
    mu,
    sigma,
    corr,
    K,
    rng: RngStream,
    transaction_cost=0.0,
) -> ScenarioLattice:
    """Asset-rebalancing lattice with lognormal gross returns.

    Per stage ``t >= 2``, draws ``K_t`` equiprobable gross-return vectors
    ``exp(phi)`` with ``phi ~ N(mu, diag(sigma) corr diag(sigma))`` from the
    stage's own lattice stream. Stage 1 is the unit-budget allocation stage
    (no trades, no transaction cost).
    """
    if T < 2:
        raise ValueError("need at least two stages")
    mu = np.broadcast_to(np.asarray(mu, dtype=float), (assets,))
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (assets,))
    corr = np.asarray(corr, dtype=float)
    if corr.ndim == 0:
        corr = np.full((assets, assets), float(corr))
        np.fill_diagonal(corr, 1.0)
    Ks = list(np.broadcast_to(np.asarray(K, dtype=int), (T - 1,)))
    fs = list(np.broadcast_to(np.asarray(transaction_cost, dtype=float), (T - 1,)))
    if any(k < 1 for k in Ks):
        raise ValueError("scenario counts must be at least 1")
    if any(not 0.0 <= f < 1.0 for f in fs):
        raise ValueError("transaction cost rates must lie in [0, 1)")
    factor = _covariance_factor(sigma, corr)

    stage1 = StageRealization(
        c=-np.ones(assets),
        b=np.array([1.0]),
        A=np.ones((1, assets)),
        E=np.zeros((1, 0)),
        prob=1.0,
    )
    stages: list[list[StageRealization]] = [[stage1]]
    prev_dim = assets
    for t in range(2, T + 1):
        k = int(Ks[t - 2])
        gen = rng.generator("lattice", stage=t)
        shocks = gen.standard_normal((k, assets))
        returns = np.exp(mu + shocks @ factor.T)
        reals = []
        for j in range(k):
            c, b, A, E = _asset_stage_blocks(returns[j], fs[t - 2], prev_dim)
            reals.append(StageRealization(c=c, b=b, A=A, E=E, prob=1.0 / k))
        stages.append(reals)
        prev_dim = 4 * assets
    return ScenarioLattice(stages)


def build_preference_voronoi(
    centers: int,
    sample_size: int,
    beta_params=(2.0, 2.0),
    rng: Optional[RngStream] = None,
    stage: int = 0,
    spectrum_builder=combination_spectrum,
) -> PreferenceDistribution:
    """Empirical preference distribution from a Voronoi tessellation.

    Draws ``centers`` support points and ``sample_size`` i.i.d. samples of
    ``s = (lam, alpha)`` coordinate-wise from ``Be(a, b)``; each support point
    receives the fraction of samples whose nearest center it is (ties go to
    the lowest index). Cells may end up empty (zero probability).
    """
    if centers < 1:
        raise ValueError("need at least one center")
    if sample_size < centers:
        raise ValueError("sample size must be at least the number of centers")
    rng = rng if rng is not None else RngStream(0)
    a, b = beta_params
    gen_c = rng.generator("preference", stage=0)
    pts = gen_c.beta(a, b, size=(centers, 2))
    gen_s = rng.generator("preference", stage=stage + 1)
    samples = gen_s.beta(a, b, size=(sample_size, 2))
    return PreferenceDistribution.from_points(
        pts, voronoi_weights(pts, samples), spectrum_builder=spectrum_builder
    )


def voronoi_weights(centers, samples) -> np.ndarray:
    """Fraction of samples whose nearest center (Euclidean) each center is.

    Equidistant samples go to the lowest center index; the fractions sum to
    one exactly (counting measure).
    """
    pts = np.atleast_2d(np.asarray(centers, dtype=float))
    smp = np.atleast_2d(np.asarray(samples, dtype=float))
    d2 = ((smp[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argmin(d2, axis=1)
    counts = np.bincount(nearest, minlength=pts.shape[0])
    return counts / smp.shape[0]


_PRESETS = {
    "risk_neutral": (1.0, 0.0),
    "mild_averse": (0.5, 0.8),
    "strong_averse": (0.8, 0.8),
}


def preset_preference(
    kind: str,
    lam: Optional[float] = None,
    alpha: Optional[float] = None,
    spectrum_builder=combination_spectrum,
) -> PreferenceDistribution:
    """Named single-point preference distributions.

    ``risk_neutral`` is (lam=1, alpha=0); ``mild_averse`` is (0.5, 0.8) and
    ``strong_averse`` is (0.8, 0.8). Note the naming follows the convention
    that a larger lam puts more weight on the plain expectation, so the
    "strong" label refers to the setting, not to a larger CVaR share.
    ``dirac`` takes explicit ``lam`` and ``alpha``.
    """
    if kind == "dirac":
        if lam is None or alpha is None:
            raise ValueError("dirac preference needs lam and alpha")
        return PreferenceDistribution.dirac(lam, alpha, spectrum_builder=spectrum_builder)
    try:
        lam_a = _PRESETS[kind]
    except KeyError:
        raise ValueError(f"unknown preference preset {kind!r}") from None
    return PreferenceDistribution.dirac(*lam_a, spectrum_builder=spectrum_builder)


def projected_builder(J: int):
    """Spectrum builder that projects onto the uniform ``J``-cell grid."""
    return lambda lam, alpha: project_spectrum(lam, alpha, J)
