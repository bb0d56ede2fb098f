"""Bracket benchmark for msrisk.

Run from the repository root:

    python3 perfbench/run.py --workload marsrm-t10 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One workload runs in this process; ``all`` runs each workload in a fresh
process of its own, one after the other, so that peak memory is per
workload. BLAS and OpenMP pools are pinned to one thread. msrisk is imported
from ``src/`` next to this directory and nowhere else; without it the
benchmark exits with status 2 and prints no result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones (``setup_s``, ``solve_s``, ``peak_rss_mb``);
with ``--trace 1`` they are the per-layer ones. ``solve_s`` is scaled by a
calibration loop to the reference machine's speed (see ``workloads``). The
lines before it print every metric by name and unit, plus the wall time of the
solves, ``gap_rel`` and ``failed_frac`` (which is ``failed/attempted``), the
environment and any failure reasons.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WORKLOAD_NAMES = ("marsrm-t10", "dr-t10", "oracle-t4")
END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}


def import_msrisk(root: Path):
    """Import msrisk from ``root/src``; ImportError if it is not there."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import msrisk

    if src.resolve() not in Path(msrisk.__file__).resolve().parents:
        raise ImportError(f"msrisk was found at {msrisk.__file__}, not under {src}")
    return msrisk


def commit_sha(root: Path):
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """sha256 over the msrisk sources, which identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "msrisk").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit_sha(root),
        "src_sha256": source_digest(root),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def metric(value, unit) -> dict:
    if value is None:
        return {"value": None, "unit": unit, "missing": True}
    return {"value": value, "unit": unit}


def collect_metrics(summary, trace) -> dict:
    """The result's metrics: per-layer when traced, else end-to-end."""
    import tracing

    if trace:
        return {
            name: metric(summary["layers"][name], unit)
            for name, unit in tracing.PER_LAYER_UNITS.items()
        }
    values = {**summary, "peak_rss_mb": peak_rss_mb()}
    return {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def run_one(args) -> int:
    try:
        import_msrisk(ROOT)
    except ImportError as exc:
        print(f"perfbench: cannot import msrisk from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    summary = workloads.run_workload(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    metrics = collect_metrics(summary, args.trace)
    attempted, failed = summary["attempted"], summary["failed"]
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"{summary['repeats']} repeats in {summary['window_s']:.1f} s"
    )
    for name, m in metrics.items():
        shown = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:28s} {shown:>12s} {m['unit']}")
    print(f"  {'solve_wall_s':28s} {summary['solve_wall_s']:>12.6g} s  (median wall time)")
    print(f"  {'calibration_s':28s} {summary['calibration_s']:>12.6g} s  (median calibration loop)")
    gap = summary["gap_rel"]
    print(f"  {'gap_rel':28s} {'none' if gap is None else f'{gap:.6g}':>12s} ratio")
    print(f"  {'failed_frac':28s} {failed / attempted:>12.6g} ratio  ({failed}/{attempted})")
    print(f"  results_sha256 {summary['results_sha256']}")
    for why in summary["failures"]:
        print(f"  failure: {why}")
    print("env " + json.dumps(environment(ROOT), sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; a combined table and result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = m
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads its BLAS
    sys.exit(main())
