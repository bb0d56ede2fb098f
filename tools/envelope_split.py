"""Time and count one engine half of criterion 5, split into its passes.

Builds the criterion-5 instance (10 stages, K=10 scenarios, 4 assets,
instance seed 2024), runs one engine for 100 iterations with the acceptance
test's options, and reports the wall time of the half, of the per-iteration
upper sweeps and of the final refresh (the last sweep, over every visited
state). Per pass it also counts the envelope work, which does not depend on
the machine: block-diagonal LPs solved through ``solve_arrays`` and the live
envelope models built and re-solved inside ``_envelope_values``.

Run from the repository root:

    PYTHONPATH=src python3 tools/envelope_split.py
    PYTHONPATH=src python3 tools/envelope_split.py --engine dr --iterations 20
    PYTHONPATH=src python3 tools/envelope_split.py --summary >> "$GITHUB_STEP_SUMMARY"

The default output is one JSON object; ``--summary`` prints one Markdown line.
The counting wraps module attributes only, so it costs little and runs on any
commit that has ``BoundIteration._envelope_values``.
"""

from __future__ import annotations

import argparse
import json
import time

import msrisk.lp
import msrisk.sddp
from msrisk.benchmark import AssetInstanceConfig, build_asset_instance
from msrisk.dr import DrSddp
from msrisk.sddp import MarsrmSddp, TrainOptions

CONFIG = dict(
    horizon=10,
    assets=4,
    mu=0.6,
    sigma=0.3,
    corr=0.5,
    transaction_cost=0.003,
    scenarios_per_stage=10,
    preference={"kind": "voronoi", "centers": 10, "samples": 1000},
    ambiguity={"kind": "sampled", "size": [10 * t for t in range(2, 11)]},
    spectrum_breakpoints=10,
    seed=2024,
)
COUNTS = ("block_lps", "live_builds", "live_solves")


def counted_engine(engine, iterations):
    """The engine on the criterion-5 instance, and a dict of per-pass
    counts and times that its ``upper_sweep`` calls fill in."""
    inst = build_asset_instance(AssetInstanceConfig(**CONFIG))
    options = TrainOptions(
        max_iterations=iterations, tolerance=0.0, n_paths=1, seed=CONFIG["seed"], big=1e6
    )
    if engine == "marsrm":
        eng = MarsrmSddp(inst.lattice, prefs=inst.preferences, options=options)
    else:
        eng = DrSddp(inst.lattice, inst.ambiguities, options=options)
    passes = {p: dict.fromkeys(("s", *COUNTS), 0) for p in ("sweeps", "refresh")}
    now = {"pass": None, "envelope": False}

    def bump(name):
        if now["envelope"]:
            passes[now["pass"]][name] += 1

    block, live_init, live_solve = (
        msrisk.sddp.solve_arrays, msrisk.lp.ResolvableLp.__init__, msrisk.lp.ResolvableLp.solve
    )

    def counted_block(*arrays):
        bump("block_lps")
        return block(*arrays)

    def counted_init(lp, *args, **kwargs):
        bump("live_builds")
        live_init(lp, *args, **kwargs)

    def counted_solve(lp, b_eq):
        bump("live_solves")
        return live_solve(lp, b_eq)

    msrisk.sddp.solve_arrays = counted_block
    msrisk.lp.ResolvableLp.__init__ = counted_init
    msrisk.lp.ResolvableLp.solve = counted_solve
    envelope, sweep = eng._envelope_values, eng.upper_sweep

    def in_envelope(*args):
        now["envelope"] = True
        try:
            return envelope(*args)
        finally:
            now["envelope"] = False

    def timed_sweep(states=None):
        now["pass"] = "refresh" if states is None else "sweeps"
        t0 = time.perf_counter()
        try:
            return sweep(states)
        finally:
            passes[now["pass"]]["s"] += time.perf_counter() - t0

    eng._envelope_values, eng.upper_sweep = in_envelope, timed_sweep
    return eng, passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--engine", choices=("marsrm", "dr"), default="marsrm")
    parser.add_argument("--iterations", type=int, default=100)
    parser.add_argument("--summary", action="store_true", help="print one Markdown line")
    args = parser.parse_args(argv)
    eng, passes = counted_engine(args.engine, args.iterations)
    t0 = time.perf_counter()
    report = eng.run()
    half = time.perf_counter() - t0
    if args.summary:
        sweeps, refresh = passes["sweeps"], passes["refresh"]
        print(
            f"Criterion-5 {args.engine} half ({args.iterations} iterations): {half:.1f} s;"
            f" upper sweeps {sweeps['s']:.1f} s, final refresh {refresh['s']:.1f} s;"
            f" block envelope LPs {sweeps['block_lps']} + {refresh['block_lps']},"
            f" live envelope solves {sweeps['live_solves']} + {refresh['live_solves']}"
        )
        return
    print(json.dumps({
        "engine": args.engine,
        "iterations": args.iterations,
        "half_s": half,
        "passes": passes,
        "final": {c: getattr(report, c)[-1] for c in ("cuts", "lower", "upper", "gap")},
    }, indent=1))


if __name__ == "__main__":
    main()
