"""Time and count one engine half of criterion 5, split into its passes.

Builds the criterion-5 instance (10 stages, K=10 scenarios, 4 assets,
instance seed 2024), runs one engine for 100 iterations with the acceptance
test's options, and reports the wall time of the half and of its four
passes: forward, backward, the per-iteration upper sweeps and the final
refresh (the last sweep, over every visited state). Within each pass it
splits the held-model LP time (``ResolvableLp`` builds, appended rows and
solves) into HiGHS ``run`` and the rest of the LP layer (assembly, appends
and the wrapper around HiGHS). Per pass it also counts the envelope work,
which does not depend on the machine: block-diagonal LPs solved through
``solve_arrays`` and the live envelope models built and re-solved inside
``_envelope_values``. It also reports the set-up, the instance build plus
the engine's construction: its wall time and the feasibility LPs that the
moment sets solve in it.

Run from the repository root:

    PYTHONPATH=src python3 tools/envelope_split.py
    PYTHONPATH=src python3 tools/envelope_split.py --engine dr --iterations 20
    PYTHONPATH=src python3 tools/envelope_split.py --summary >> "$GITHUB_STEP_SUMMARY"

The default output is one JSON object; ``--summary`` prints one Markdown line.
The counting wraps module and class attributes only, so it costs little and
runs on any commit that has ``BoundIteration._envelope_values``; without
scipy's HiGHS class the ``run`` split reads 0.
"""

from __future__ import annotations

import argparse
import json
import time

import msrisk.dr
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
PASSES = ("forward", "backward", "sweeps", "refresh")


def counted_engine(engine, iterations):
    """The engine on the criterion-5 instance, a dict of per-pass counts and
    times that its passes fill in, and the set-up's seconds and moment-set
    LPs."""
    setup = {"s": 0.0, "lps": 0}
    moment_lp = msrisk.dr.solve_arrays

    def counted_moment_lp(*args, **kwargs):
        setup["lps"] += 1
        return moment_lp(*args, **kwargs)

    msrisk.dr.solve_arrays = counted_moment_lp
    t0 = time.perf_counter()
    inst = build_asset_instance(AssetInstanceConfig(**CONFIG))
    options = TrainOptions(
        max_iterations=iterations, tolerance=0.0, n_paths=1, seed=CONFIG["seed"], big=1e6
    )
    if engine == "marsrm":
        eng = MarsrmSddp(inst.lattice, prefs=inst.preferences, options=options)
    else:
        eng = DrSddp(inst.lattice, inst.ambiguities, options=options)
    setup["s"] = time.perf_counter() - t0
    msrisk.dr.solve_arrays = moment_lp
    passes = {p: dict.fromkeys(("s", "held_lp_s", "held_run_s", *COUNTS), 0) for p in PASSES}
    now = {"pass": None, "envelope": False, "held": False}

    def bump(name):
        if now["envelope"]:
            passes[now["pass"]][name] += 1

    def timed(fn, key, count=None, flag=None):
        """``fn``, adding its wall time to the current pass's ``key``."""
        def wrapper(*args, **kwargs):
            if count is not None:
                bump(count)
            if now["pass"] is None or (flag is not None and not now[flag]):
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            outer, now["held"] = now["held"], True
            try:
                return fn(*args, **kwargs)
            finally:
                now["held"] = outer
                passes[now["pass"]][key] += time.perf_counter() - t0
        return wrapper

    block = msrisk.sddp.solve_arrays

    def counted_block(*arrays):
        bump("block_lps")
        return block(*arrays)

    msrisk.sddp.solve_arrays = counted_block
    held = msrisk.lp.ResolvableLp
    held.__init__ = timed(held.__init__, "held_lp_s", "live_builds")
    held.add_inequalities = timed(held.add_inequalities, "held_lp_s")
    held.solve = timed(held.solve, "held_lp_s", "live_solves")
    if msrisk.lp._HIGHS is not None:  # HiGHS run inside the held-model calls only
        msrisk.lp._HIGHS.run = timed(msrisk.lp._HIGHS.run, "held_run_s", flag="held")
    envelope = eng._envelope_values

    def in_envelope(*args):
        now["envelope"] = True
        try:
            return envelope(*args)
        finally:
            now["envelope"] = False

    def in_pass(fn, name_of):
        def wrapper(*args):
            now["pass"] = name_of(*args)
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                passes[now["pass"]]["s"] += time.perf_counter() - t0
                now["pass"] = None
        return wrapper

    eng._envelope_values = in_envelope
    eng.forward_pass = in_pass(eng.forward_pass, lambda: "forward")
    eng.backward_pass = in_pass(eng.backward_pass, lambda states: "backward")
    eng.upper_sweep = in_pass(
        eng.upper_sweep, lambda states=None: "refresh" if states is None else "sweeps"
    )
    return eng, passes, setup


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--engine", choices=("marsrm", "dr"), default="marsrm")
    parser.add_argument("--iterations", type=int, default=100)
    parser.add_argument("--summary", action="store_true", help="print one Markdown line")
    args = parser.parse_args(argv)
    eng, passes, setup = counted_engine(args.engine, args.iterations)
    t0 = time.perf_counter()
    report = eng.run()
    half = time.perf_counter() - t0
    if args.summary:
        sweeps, refresh = passes["sweeps"], passes["refresh"]
        split = ", ".join(
            f"{p} {v['s']:.1f} s (held LPs: HiGHS run {v['held_run_s']:.2f} s,"
            f" rest {v['held_lp_s'] - v['held_run_s']:.2f} s)"
            for p, v in passes.items()
        )
        print(
            f"Criterion-5 {args.engine} half ({args.iterations} iterations): {half:.1f} s;"
            f" {split};"
            f" block envelope LPs {sweeps['block_lps']} + {refresh['block_lps']},"
            f" live envelope solves {sweeps['live_solves']} + {refresh['live_solves']};"
            f" set-up {setup['s'] * 1e3:.0f} ms, moment-set LPs {setup['lps']}"
        )
        return
    print(json.dumps({
        "engine": args.engine,
        "iterations": args.iterations,
        "half_s": half,
        "setup": setup,
        "passes": passes,
        "final": {c: getattr(report, c)[-1] for c in ("cuts", "lower", "upper", "gap")},
    }, indent=1))


if __name__ == "__main__":
    main()
