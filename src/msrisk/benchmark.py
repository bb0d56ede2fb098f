"""Multistage asset-rebalancing benchmark instances and diagnostics.

Ties together the building blocks: lognormal return lattices with
proportional transaction costs, preference distributions (named presets,
Voronoi-sampled, or explicit), per-stage moment ambiguity sets, the
spectrum-projection error bound, and side-by-side mode comparison on one
shared lattice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence, Union

import numpy as np

from .dr import MomentAmbiguitySet, dr_train
from .risk import PreferenceDistribution, combination_spectrum
from .scenario import (
    RngStream,
    ScenarioLattice,
    build_lognormal_lattice,
    build_preference_voronoi,
    preset_preference,
    projected_builder,
)
from .sddp import TrainOptions, TrainReport, train

# Shipped horizon -> scenarios-per-stage interpretation; always overridable
# in config since the pairing is a modeling choice, not a constraint.
PRESET_SCENARIO_COUNTS = {2: 100, 3: 50, 5: 20, 10: 10}

MODE_PRESETS = {
    "risk-neutral": "risk_neutral",
    "mild": "mild_averse",
    "strong": "strong_averse",
}


def _check_numbers(key, value, kinds, scalar=False, least=None, per=None) -> None:
    """Raise ``ValueError`` unless config ``value`` is a number of the numpy
    ``kinds`` or, unless ``scalar``, nested lists of them, each at least
    ``least`` if given, and spreads over ``per = (count, what)`` if given;
    ``None`` passes for the keys that default to it."""
    if value is None and key in ("scenarios_per_stage", "spectrum_breakpoints"):
        return
    try:
        ok = np.asarray(value).dtype.kind in kinds and not (scalar and np.ndim(value))
    except ValueError:  # ragged lists
        ok = False
    if not ok:
        what = ("an integer" if kinds == "iu" else "a number") + ("" if scalar else " or a list")
        raise ValueError(f"config key {key!r} must be {what}, not {value!r}")
    if least is not None and np.any(np.asarray(value) < least):
        raise ValueError(f"config key {key!r} must be at least {least}, not {value!r}")
    if per is not None:
        try:
            np.broadcast_to(value, (per[0],))
        except ValueError:
            raise ValueError(
                f"config key {key!r} must be one value or a list of {per[0]}, "
                f"one per {per[1]}, not {value!r}"
            ) from None


class _Section(dict):
    """A config object such as ``preference``; a missing key raises a
    ``ValueError`` that names it, where ``get`` gives the default."""

    def __init__(self, name, spec):
        if not isinstance(spec, dict):
            raise ValueError(f"config key {name!r} must be an object, not {spec!r}")
        super().__init__(spec)
        self.name = name

    def __missing__(self, key):
        raise ValueError(f"config key '{self.name}.{key}' is missing")

    def kind(self, default, keys):
        """The section's ``kind`` (``default`` when unset); a ``ValueError``
        names a kind not in ``keys`` or a key that ``keys[kind]`` does not list."""
        kind = self.get("kind", default)
        if not isinstance(kind, str) or kind not in keys:
            raise ValueError(f"unknown {self.name} kind {kind!r}")
        unknown = sorted(set(self) - {"kind", *keys[kind]})
        if unknown:
            names = ", ".join(repr(f"{self.name}.{key}") for key in unknown)
            raise ValueError(f"unknown config keys: {names}")
        return kind



@dataclass
class AssetInstanceConfig:
    """Everything needed to rebuild a benchmark instance bit-identically."""

    horizon: int
    assets: int = 4
    mu: Union[float, Sequence[float]] = 0.6
    sigma: Union[float, Sequence[float]] = 0.3
    corr: Union[float, Sequence[Sequence[float]]] = 0.5
    transaction_cost: Union[float, Sequence[float]] = 0.003
    scenarios_per_stage: Union[None, int, Sequence[int]] = None
    preference: dict = field(default_factory=lambda: {"kind": "preset", "name": "risk_neutral"})
    ambiguity: Optional[dict] = None
    spectrum_breakpoints: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        for key, least in (("horizon", 2), ("assets", 1), ("seed", None),
                           ("spectrum_breakpoints", None)):
            _check_numbers(key, getattr(self, key), "iu", scalar=True, least=least)
        stages, assets = (self.horizon - 1, "stage 2..T"), (self.assets, "asset")
        for key, per in (("scenarios_per_stage", stages), ("mu", assets), ("sigma", assets),
                         ("corr", None), ("transaction_cost", stages)):
            counts = key == "scenarios_per_stage"
            _check_numbers(key, getattr(self, key), "iu" if counts else "iuf",
                           least=1 if counts else None, per=per)
        if self.scenarios_per_stage is None:
            if self.horizon not in PRESET_SCENARIO_COUNTS:
                raise ValueError(
                    "no preset scenario count for this horizon; "
                    "set scenarios_per_stage explicitly"
                )
            self.scenarios_per_stage = PRESET_SCENARIO_COUNTS[self.horizon]
        fs = np.asarray(self.transaction_cost, dtype=float)
        if np.any(fs < 0.0) or np.any(fs >= 1.0):
            raise ValueError("transaction cost rates must lie in [0, 1)")

    @classmethod
    def from_dict(cls, data: dict) -> "AssetInstanceConfig":
        if not isinstance(data, dict):
            raise ValueError(f"a config must be a JSON object, not {type(data).__name__}")
        data = dict(data)
        lognormal = _Section("lognormal", data.pop("lognormal", {}))
        unknown = sorted(set(data) - {f.name for f in fields(cls)}) + sorted(
            f"lognormal.{key}" for key in set(lognormal) - {"mu", "sigma", "corr"}
        )
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(map(repr, unknown))}")
        if "horizon" not in data:
            raise ValueError("config key 'horizon' is missing")
        return cls(**{**lognormal, **data})  # a top-level mu, sigma or corr wins

    @classmethod
    def from_json(cls, path) -> "AssetInstanceConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        def plain(v):
            if isinstance(v, np.ndarray):
                return v.tolist()
            return v

        return {
            "horizon": self.horizon,
            "assets": self.assets,
            "lognormal": {
                "mu": plain(self.mu),
                "sigma": plain(self.sigma),
                "corr": plain(self.corr),
            },
            "transaction_cost": plain(self.transaction_cost),
            "scenarios_per_stage": plain(self.scenarios_per_stage),
            "preference": self.preference,
            "ambiguity": self.ambiguity,
            "spectrum_breakpoints": self.spectrum_breakpoints,
            "seed": self.seed,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)


@dataclass
class AssetInstance:
    config: AssetInstanceConfig
    lattice: ScenarioLattice
    preferences: list[PreferenceDistribution]  # one per stage 2..T
    ambiguities: Optional[list[MomentAmbiguitySet]]  # one per stage 2..T, if any


def config_spectrum_builder(cfg: AssetInstanceConfig):
    """Spectrum builder a config implies: exact two-piece, or J-projected."""
    if cfg.spectrum_breakpoints is None:
        return combination_spectrum
    return projected_builder(int(cfg.spectrum_breakpoints))


def _build_preferences(cfg: AssetInstanceConfig, rng: RngStream):
    spec = _Section("preference", cfg.preference or {"kind": "preset", "name": "risk_neutral"})
    kind = spec.kind(None, {  # the keys each kind reads
        "preset": ("name",), "dirac": ("lambda", "alpha"), "explicit": ("support", "probs"),
        "voronoi": ("centers", "samples", "beta"),
    })
    builder = config_spectrum_builder(cfg)
    stages = range(2, cfg.horizon + 1)
    if kind == "preset":
        pref = preset_preference(spec["name"], spectrum_builder=builder)
        return [pref for _ in stages]
    if kind == "dirac":
        pref = preset_preference(
            "dirac", lam=spec["lambda"], alpha=spec["alpha"], spectrum_builder=builder
        )
        return [pref for _ in stages]
    if kind == "explicit":
        pref = PreferenceDistribution.from_points(
            spec["support"], spec.get("probs"), spectrum_builder=builder
        )
        return [pref for _ in stages]
    for key in ("centers", "samples"):  # voronoi; only a value set in the config can be wrong
        _check_numbers(f"preference.{key}", spec.get(key, 1), "iu", scalar=True)
    return [
        build_preference_voronoi(
            spec.get("centers", 10),
            spec.get("samples", 1000),
            tuple(spec.get("beta", (2.0, 2.0))),
            rng,
            stage=t,
            spectrum_builder=builder,
        )
        for t in stages
    ]


def _build_ambiguities(cfg: AssetInstanceConfig, rng: RngStream):
    if cfg.ambiguity is None:
        return None
    spec = _Section("ambiguity", cfg.ambiguity)
    kind = spec.kind("sampled", {  # the keys each kind reads
        "explicit": ("support", "mu", "sigma_matrix"), "empirical": ("support", "probs"),
        "sampled": ("size",),
    })
    builder = config_spectrum_builder(cfg)
    stages = range(2, cfg.horizon + 1)
    if kind == "explicit":
        amb = MomentAmbiguitySet(
            support=np.asarray(spec["support"], dtype=float),
            mu=np.asarray(spec["mu"], dtype=float),
            Sigma=np.asarray(spec["sigma_matrix"], dtype=float),
            spectra=tuple(
                builder(lam, a) for lam, a in np.asarray(spec["support"], dtype=float)
            ),
        )
        return [amb for _ in stages]
    if kind == "empirical":
        amb = MomentAmbiguitySet.from_empirical(
            spec["support"], spec["probs"], spectrum_builder=builder
        )
        return [amb for _ in stages]
    _check_numbers("ambiguity.size", spec.get("size", 10), "iu", least=1,
                   per=(cfg.horizon - 1, "stage 2..T"))
    sizes = np.broadcast_to(spec.get("size", 10), (cfg.horizon - 1,))
    out = []  # sampled
    for t, size in zip(stages, sizes):
        size = int(size)
        gen = rng.generator("ambiguity", stage=t)
        pts = gen.uniform(size=(size, 2))
        out.append(
            MomentAmbiguitySet.from_empirical(
                pts, np.full(size, 1.0 / size), spectrum_builder=builder
            )
        )
    return out


def build_asset_instance(cfg: AssetInstanceConfig) -> AssetInstance:
    """Lattice plus per-stage preference/ambiguity structures from one config.

    The stage LP blocks encode allocations ``x`` and trades ``z`` with the
    wealth-balance equality (the coupling matrix carries the negated returns)
    and the two-sided trade bounds as slack equalities; stage 1 is the unit
    budget ``e'x = 1`` without trades.
    """
    rng = RngStream(cfg.seed)
    lattice = build_lognormal_lattice(
        cfg.horizon,
        cfg.assets,
        cfg.mu,
        cfg.sigma,
        cfg.corr,
        cfg.scenarios_per_stage,
        rng,
        transaction_cost=cfg.transaction_cost,
    )
    prefs = _build_preferences(cfg, rng)
    ambs = _build_ambiguities(cfg, rng)
    return AssetInstance(config=cfg, lattice=lattice, preferences=prefs, ambiguities=ambs)


def stage_max_returns(lattice: ScenarioLattice) -> np.ndarray:
    """Largest gross return per stage ``2..T``, read off the budget rows."""
    out = []
    for t in range(2, lattice.horizon + 1):
        out.append(max(float(np.max(-r.E[0])) for r in lattice.stage(t)))
    return np.asarray(out)


def wealth_phi_integrals(lattice: ScenarioLattice) -> np.ndarray:
    """Per-stage integrable envelopes of the cost-to-go quantile functions.

    Uses box bounds on wealth: starting from a unit budget, stage-t wealth is
    at most the running product of the largest gross returns, and each stage
    cost lies in ``[-wealth, 0]``, so ``|V_t| <= sum of future wealth caps``.
    This is a crude constant envelope (its integral over the unit interval is
    the constant itself); callers with sharper instance knowledge can supply
    their own integrals.
    """
    T = lattice.horizon
    caps = np.concatenate([[1.0], np.cumprod(stage_max_returns(lattice))])
    return np.array([float(np.sum(caps[t - 1 : T])) for t in range(1, T + 1)])


def step_spectrum_error_bound(
    lipschitz,
    J: int,
    phi_integrals,
    mode: str = "robust",
    q=None,
) -> np.ndarray:
    """Per-stage bound on the optimal-value error of the J-cell projection.

    For Lipschitz spectra, projecting onto the uniform grid with spacing
    ``1/J`` perturbs each stage value by at most ``L * (1/J) * int Phi``; the
    stage-t bound is the tail sum over later stages. ``mode='robust'`` takes
    the worst support point per stage (sup over member weights), while
    ``mode='average'`` weights the support moduli by ``q``.

    ``lipschitz`` is a scalar, a per-support vector shared by all stages, or
    one vector per stage ``1..T`` (a sequence of vectors, or the rows of a
    2-D array); ``q`` is one weight vector, shared or per stage in the same
    way. ``phi_integrals`` has one entry per stage. Returns bounds for stages
    ``1..T``; the final stage has an empty tail.
    """
    if J < 1:
        raise ValueError("J must be at least 1")
    phi = np.asarray(phi_integrals, dtype=float)
    T = phi.size
    beta_j = 1.0 / J

    def at_stage(value, t):  # a sequence of vectors or a 2-D array has one row per stage
        vectors = isinstance(value, (list, tuple)) and value and not np.isscalar(value[0])
        return value[t - 1] if vectors or np.ndim(value) == 2 else value

    per_stage = np.zeros(T)
    for t in range(1, T + 1):
        Lv = np.atleast_1d(np.asarray(at_stage(lipschitz, t), dtype=float))
        if mode == "robust":
            agg = float(np.max(Lv))
        elif mode == "average":
            if q is None:
                raise ValueError("average mode needs the preference weights q")
            qv, Lb = np.broadcast_arrays(np.asarray(at_stage(q, t), dtype=float), Lv)
            agg = float(qv @ Lb)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        per_stage[t - 1] = agg * beta_j * phi[t - 1]
    return np.array([float(np.sum(per_stage[t:])) for t in range(1, T + 1)])


def compare_modes(
    cfg: AssetInstanceConfig,
    modes: Sequence[str],
    options: Optional[TrainOptions] = None,
) -> list[dict]:
    """Converged bounds per mode on one shared lattice and seed."""
    inst = build_asset_instance(cfg)
    rows = []
    for mode in modes:
        report = run_mode(inst, mode, options)
        rows.append(
            {
                "mode": mode,
                "iterations": report.iterations,
                "lower": report.final_lower,
                "upper": report.final_upper,
                "gap": report.final_gap,
                "converged": report.converged,
            }
        )
    return rows


def mode_preferences(inst: AssetInstance, mode: str):
    """Preferences of a non-robust mode: the instance's own for ``marsrm``,
    else the mode's preset under the config's spectrum builder."""
    if mode == "marsrm":
        return inst.preferences
    if mode in MODE_PRESETS:
        builder = config_spectrum_builder(inst.config)
        return preset_preference(MODE_PRESETS[mode], spectrum_builder=builder)
    raise ValueError(f"unknown mode {mode!r}")


def run_mode(
    inst: AssetInstance, mode: str, options: Optional[TrainOptions] = None
) -> TrainReport:
    """Train one model variant on a built instance."""
    if mode == "dr":
        if inst.ambiguities is None:
            raise ValueError("config has no ambiguity block; cannot run the dr mode")
        return dr_train(inst.lattice, inst.ambiguities, options=options)
    return train(inst.lattice, prefs=mode_preferences(inst, mode), options=options)
