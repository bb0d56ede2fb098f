"""Command-line front end: solve, oracle cross-checks, comparisons, bounds.

Writes per-iteration bound tables as CSV (header
``cuts,lower,upper,gap,time_lower_s,time_upper_s``) plus a resolved config
snapshot that reproduces the run bit-identically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .benchmark import (
    AssetInstanceConfig,
    build_asset_instance,
    compare_modes,
    mode_preferences,
    run_mode,
    stage_max_returns,
    step_spectrum_error_bound,
    wealth_phi_integrals,
)
from .extensive import extensive_form_dr, extensive_form_marsrm
from .lp import LpError, RecourseError
from .sddp import TrainOptions, TrainReport

MODES = ("marsrm", "dr", "risk-neutral", "mild", "strong")


@dataclasses.dataclass
class RunArtifacts:
    csv_path: Path
    config_path: Path
    report: TrainReport


def _add_common(p):
    p.add_argument("--config", required=True, help="instance JSON path")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")


def _add_train(p):
    p.add_argument("--iters", type=int, default=100, help="iteration budget")
    p.add_argument("--paths", type=int, default=1, help="forward sample paths")
    p.add_argument("--tol", type=float, default=1e-4, help="absolute gap tolerance")
    p.add_argument("--out", default="runs", help="artifact directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msrisk",
        description="Multistage risk-averse stochastic LP solver with "
        "deterministic SDDP bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="train one model variant")
    p.add_argument("--mode", choices=MODES, default="marsrm")
    _add_common(p)
    _add_train(p)

    p = sub.add_parser("oracle", help="exact extensive-form value of a tiny instance")
    p.add_argument("--mode", choices=MODES, default="marsrm")
    _add_common(p)

    p = sub.add_parser("compare", help="converged bounds per mode, shared lattice")
    p.add_argument("--modes", default="marsrm,risk-neutral,mild,strong")
    _add_common(p)
    _add_train(p)

    p = sub.add_parser("bound", help="spectrum-projection error bound per stage")
    _add_common(p)
    p.add_argument("--lipschitz", type=float, default=1.0, help="spectrum modulus bound")
    p.add_argument(
        "--bound-mode", choices=("robust", "average"), default="robust",
        help="worst support point vs preference-weighted moduli",
    )
    return parser


def _load_config(args) -> AssetInstanceConfig:
    cfg = AssetInstanceConfig.from_json(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _options(args, cfg) -> TrainOptions:
    return TrainOptions(
        max_iterations=args.iters,
        n_paths=args.paths,
        tolerance=args.tol,
        seed=cfg.seed,
    )


def _write_artifacts(out_dir, name, cfg, report) -> RunArtifacts:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{name}_bounds.csv"
    report.to_csv(csv_path)
    config_path = out / f"{name}_config.json"
    cfg.to_json(config_path)
    return RunArtifacts(csv_path=csv_path, config_path=config_path, report=report)


def _cmd_solve(args) -> int:
    cfg = _load_config(args)
    inst = build_asset_instance(cfg)
    report = run_mode(inst, args.mode, _options(args, cfg))
    artifacts = _write_artifacts(args.out, args.mode, cfg, report)
    status = "converged" if report.converged else "iteration budget reached"
    print(
        f"{args.mode}: lower={report.final_lower:.6f} upper={report.final_upper:.6f} "
        f"gap={report.final_gap:.3g} after {report.iterations} iterations ({status})"
    )
    print(f"bounds: {artifacts.csv_path}")
    print(f"config: {artifacts.config_path}")
    return 0


def _cmd_oracle(args) -> int:
    cfg = _load_config(args)
    inst = build_asset_instance(cfg)
    if args.mode == "dr":
        if inst.ambiguities is None:
            raise ValueError("config has no ambiguity block; cannot run the dr oracle")
        value = extensive_form_dr(inst.lattice, inst.ambiguities)
    else:
        value = extensive_form_marsrm(inst.lattice, prefs=mode_preferences(inst, args.mode))
    print(f"{args.mode} extensive-form value: {value!r}")
    return 0


def _cmd_compare(args) -> int:
    cfg = _load_config(args)
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    for m in modes:
        if m not in MODES:
            raise ValueError(f"unknown mode {m!r}")
    rows = compare_modes(cfg, modes, _options(args, cfg))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table_path = out / "comparison.csv"
    with open(table_path, "w") as fh:
        fh.write("mode,iterations,lower,upper,gap,converged\n")
        for r in rows:
            fh.write(
                f"{r['mode']},{r['iterations']},{r['lower']!r},{r['upper']!r},"
                f"{r['gap']!r},{int(r['converged'])}\n"
            )
    cfg.to_json(out / "comparison_config.json")
    width = max(len(r["mode"]) for r in rows)
    print(f"{'mode'.ljust(width)}  lower          upper          gap")
    for r in rows:
        print(
            f"{r['mode'].ljust(width)}  {r['lower']:<13.6f}  {r['upper']:<13.6f}  "
            f"{r['gap']:.3g}"
        )
    print(f"table: {table_path}")
    return 0


def _cmd_bound(args) -> int:
    cfg = _load_config(args)
    if cfg.spectrum_breakpoints is None:
        raise ValueError("config has no spectrum_breakpoints; the bound needs J")
    inst = build_asset_instance(cfg)
    phi = wealth_phi_integrals(inst.lattice)
    # a stage-1 placeholder; its own bound only uses later stages
    q = [np.ones(1)] + [p.probs for p in inst.preferences]
    bounds = step_spectrum_error_bound(
        args.lipschitz, int(cfg.spectrum_breakpoints), phi, mode=args.bound_mode, q=q
    )
    print(f"J={cfg.spectrum_breakpoints} max returns per stage: "
          f"{np.round(stage_max_returns(inst.lattice), 4).tolist()}")
    for t, b in enumerate(bounds, start=1):
        print(f"stage {t}: projection error bound {b!r}")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "compare": _cmd_compare,
    "bound": _cmd_bound,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LpError, RecourseError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
