"""Workloads of the bracket benchmark and the loop that measures them.

Every workload builds one fixed asset instance (its set-up), then repeats one
operation until the time window closes. ``--seed`` is the seed of the
engines' sampled forward paths, so it chooses which states the bound
iteration visits while the instance and the iteration budget stay fixed.
All repeats in a run use the same seed, so their bound columns must agree
bit for bit; a mismatch counts as a failed operation.

A shared host runs the same work up to 30% slower or faster in phases
of tens of seconds, which a 40-second run cannot average out. So each repeat
is paired with a calibration loop run just before and just after it: a fixed
set of small LPs solved by scipy's HiGHS, which uses no msrisk code. Each
repeat's solve time is divided by the mean of its two calibration times, and
``solve_s`` is the median ratio times ``CALIBRATION_S``, the calibration
loop's time on the reference machine. It reads in seconds on that machine,
moves exactly as much as msrisk's own run time moves, and no longer with the
host's phase. The wall times themselves are printed next to it.

* ``marsrm-t10``: the ten-stage criterion-5 instance under the MARSRM engine.
  Thousands of small LP re-solves; the envelope sweeps are most of the time.
* ``dr-t10``: the same instance under the DR engine, for one iteration.
  Larger dense LPs carrying the moment-dual block; the envelope sweep and
  the final refresh are most of the time.
* ``oracle-t4``: a four-stage instance whose MARSRM and DR extensive forms are
  each solved as one large LP, then a short run of each engine; each oracle
  value must lie inside its engine's bracket. Instance seed 1 is used because
  its two oracle LPs solve in about 7 s together on a 2-core x86 machine,
  where seeds 3, 7 and 11 take 20 to 33 s.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

import msrisk.benchmark
import msrisk.extensive
from msrisk.dr import DrSddp
from msrisk.lp import LpError, RecourseError
from msrisk.sddp import MarsrmSddp, TrainOptions

import tracing

SETUP_REPEATS = 5  # before the first repeat
SETUP_PER_REPEAT = 3  # before every repeat, so set-ups span the window
MIN_OPS = 3  # a quartile over repeats; traced runs need two traced and one not

# tolerances of the acceptance gate's trend and oracle checks
MONOTONE_TOL = 1e-9
BRACKET_TOL = 1e-6


def instance_config(horizon, seed):
    """The criterion-5 instance family: 4 assets, K=10, Voronoi preferences, J=10."""
    return dict(
        horizon=horizon,
        assets=4,
        mu=0.6,
        sigma=0.3,
        corr=0.5,
        transaction_cost=0.003,
        scenarios_per_stage=10,
        preference={"kind": "voronoi", "centers": 10, "samples": 1000},
        ambiguity={"kind": "sampled", "size": [10 * t for t in range(2, horizon + 1)]},
        spectrum_breakpoints=10,
        seed=seed,
    )


@dataclass(frozen=True)
class Workload:
    """An instance and its solve budget; engines are ``sddp`` (MARSRM) or ``dr``."""

    name: str
    config: dict
    engines: tuple  # (engine, iterations) pairs, run in order
    oracles: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("marsrm-t10", instance_config(10, 2024), (("sddp", 5),)),
        Workload("dr-t10", instance_config(10, 2024), (("dr", 1),)),
        Workload(
            "oracle-t4",
            instance_config(4, 1),
            (("sddp", 5), ("dr", 3)),
            oracles=True,
        ),
    )
}


def train_options(iterations, seed):
    """The criterion-5 options: one sampled path, a sweep every iteration,
    a final refresh, and the floor cut in problem units."""
    return TrainOptions(
        max_iterations=iterations, tolerance=0.0, n_paths=1, seed=seed, big=1e6
    )


def make_engine(eng, inst, options):
    if eng == "sddp":
        return MarsrmSddp(inst.lattice, prefs=inst.preferences, options=options)
    return DrSddp(inst.lattice, inst.ambiguities, options=options)


def oracle_value(eng, inst):
    # looked up on the module at call time, so a tracer's wrapper is used
    if eng == "sddp":
        return msrisk.extensive.extensive_form_marsrm(inst.lattice, prefs=inst.preferences)
    return msrisk.extensive.extensive_form_dr(inst.lattice, inst.ambiguities)


def bracket_failures(report) -> list:
    """Reasons the bound trajectory is not a valid bracket (empty if valid)."""
    lower = np.asarray(report.lower, dtype=float)
    upper = np.asarray(report.upper, dtype=float)
    if lower.size == 0 or not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        return ["bounds missing or not finite"]
    out = []
    if np.any(np.diff(lower) < -MONOTONE_TOL):
        out.append("lower bound decreased")
    if np.any(np.diff(upper) > MONOTONE_TOL):
        out.append("upper bound increased")
    if np.any(lower > upper + BRACKET_TOL):
        out.append("bracket crossed")
    return out


def oracle_outside(report, value) -> bool:
    """Whether an oracle value lies outside the final bracket of ``report``."""
    return not report.final_lower - BRACKET_TOL <= value <= report.final_upper + BRACKET_TOL


def bound_columns(report) -> tuple:
    """The ``cuts,lower,upper,gap`` columns, which a seed must reproduce exactly."""
    return (tuple(report.cuts), tuple(report.lower), tuple(report.upper), tuple(report.gap))


@dataclass
class Operation:
    """One repeat: the engine runs and oracle calls of a workload."""

    solve_s: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)  # (item, reason)
    outputs: dict = field(default_factory=dict)  # item -> exact result
    gap_rel: list = field(default_factory=list)
    layers: dict = None  # per-layer values when traced
    calibration_s: float = None  # calibration loop time around this repeat


def run_operation(workload, inst, seed, tracer=None) -> Operation:
    """Run the engines (and oracles) once; time only the solve calls."""
    op = Operation()
    reports = {}
    for eng, iterations in workload.engines:
        op.attempted += 1
        engine = make_engine(eng, inst, train_options(iterations, seed))
        t0 = time.perf_counter()
        try:
            with tracer or nullcontext():
                report = engine.run()
        except (LpError, RecourseError) as exc:
            op.failures.append((eng, f"{type(exc).__name__}: {exc}"))
            continue
        finally:
            op.solve_s += time.perf_counter() - t0
        if tracer is not None:
            tracer.record_engine(eng, engine)
        reports[eng] = report
        op.outputs[eng] = bound_columns(report)
        op.gap_rel.append(report.final_gap / abs(report.final_lower))
        op.failures.extend((eng, why) for why in bracket_failures(report))
    if workload.oracles:
        for eng, _ in workload.engines:
            item = f"oracle-{eng}"
            op.attempted += 1
            t0 = time.perf_counter()
            try:
                with tracer or nullcontext():
                    value = oracle_value(eng, inst)
            except (LpError, RecourseError) as exc:
                op.failures.append((item, f"{type(exc).__name__}: {exc}"))
                continue
            finally:
                op.solve_s += time.perf_counter() - t0
            op.outputs[item] = value
            if eng in reports and oracle_outside(reports[eng], value):
                report = reports[eng]
                op.failures.append(
                    (item, f"{value!r} outside [{report.final_lower!r}, {report.final_upper!r}]")
                )
    if tracer is not None:
        op.layers = tracer.metrics()
    return op


def calibration_problem():
    """A fixed dense LP of the engines' size: 120 rows, 300 bounded columns."""
    rng = np.random.default_rng(20240901)
    A = rng.random((120, 300))
    return rng.random(300) - 0.3, A, A.sum(axis=1)


CALIBRATION_LP = calibration_problem()
CALIBRATION_SOLVES = 20
# the calibration loop's time on a 2-core x86-64 VM (Python 3.11, scipy 1.17)
CALIBRATION_S = 0.4


def calibration_loop_s() -> float:
    """Seconds to solve the calibration LP ``CALIBRATION_SOLVES`` times."""
    c, A, b = CALIBRATION_LP
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_SOLVES):
        res = linprog(c, A_ub=A, b_ub=b, bounds=(0, 1), method="highs")
        if res.status != 0:
            raise RuntimeError(f"calibration LP failed: {res.message}")
    return time.perf_counter() - t0


def set_up(workload, config, tracer=None):
    """Build the instance and construct the workload's engines once.

    Returns the instance, the seconds taken, and the per-layer values when
    traced.
    """
    t0 = time.perf_counter()
    with tracer or nullcontext():
        inst = msrisk.benchmark.build_asset_instance(config)
        for eng, iterations in workload.engines:
            make_engine(eng, inst, train_options(iterations, 0))
    seconds = time.perf_counter() - t0
    return inst, seconds, tracer.metrics() if tracer else None


def run_workload(workload, seed, seconds, trace, highs=tracing.highs_class) -> dict:
    """Set up, repeat the operation for ``seconds``, check and summarise.

    Set-up runs ``SETUP_REPEATS`` times first and ``SETUP_PER_REPEAT`` times
    before every repeat, so its samples span the same window as the solves
    rather than one phase of the host's speed. With ``trace`` the repeats
    alternate traced and untraced, starting traced; ``highs`` finds the
    private HiGHS class to wrap (None: absent).
    """
    highs_cls = highs() if trace else None
    new_tracer = (lambda: tracing.Tracer(highs_cls)) if trace else (lambda: None)
    config = msrisk.benchmark.AssetInstanceConfig(**workload.config)
    setup_s, setup_layers = [], []

    def timed_set_up():
        inst, seconds, layers = set_up(workload, config, new_tracer())
        setup_s.append(seconds)
        setup_layers.append(layers)
        return inst

    for _ in range(SETUP_REPEATS):
        timed_set_up()
    repeats = []
    calibrations = [calibration_loop_s()]
    start = time.perf_counter()
    while True:
        # free the previous repeat's garbage outside the timed regions, so no
        # repeat pays for another's collection and peak memory stays per repeat
        gc.collect()
        for _ in range(SETUP_PER_REPEAT):
            inst = timed_set_up()
        use_tracer = trace and len(repeats) % 2 == 0
        t0 = time.perf_counter()
        op = run_operation(workload, inst, seed, new_tracer() if use_tracer else None)
        calibrations.append(calibration_loop_s())
        op.calibration_s = (calibrations[-2] + calibrations[-1]) / 2
        repeats.append(op)
        last = time.perf_counter() - t0
        if len(repeats) >= MIN_OPS and time.perf_counter() - start + last > seconds:
            break
    window = time.perf_counter() - start
    traced = [op for op in repeats if op.layers is not None]
    untraced = [op for op in repeats if op.layers is None]

    failures = [(i, item, why) for i, op in enumerate(repeats) for item, why in op.failures]
    # identical inputs: every exact output and count must repeat bit for bit
    reference = {}
    for i, op in enumerate(repeats):
        for item, value in op.outputs.items():
            if reference.setdefault(item, value) != value:
                failures.append((i, item, "result differs from the first repeat"))
        if op.layers is not None:
            for name in tracing.EXACT_COUNTS:
                if op.layers[name] != traced[0].layers[name]:
                    failures.extend(
                        (i, item, f"{name} differs from the first traced repeat")
                        for item in op.outputs
                    )
    gaps = [g for op in repeats for g in op.gap_rel]
    summary = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "repeats": len(repeats),
        "window_s": window,
        "setup_s": statistics.median(setup_s),
        "solve_s": CALIBRATION_S
        * statistics.median(op.solve_s / op.calibration_s for op in untraced),
        "solve_wall_s": statistics.median(op.solve_s for op in untraced),
        "calibration_s": statistics.median(calibrations),
        "gap_rel": statistics.median(gaps) if gaps else None,
        "results_sha256": results_digest(reference),
        "attempted": sum(op.attempted for op in repeats),
        "failed": len({(i, item) for i, item, _ in failures}),
        "failures": [f"repeat {i} {item}: {why}" for i, item, why in failures[:20]],
    }
    if trace:
        summary["layers"] = layer_metrics(setup_layers, traced, untraced)
    return summary


def results_digest(outputs) -> str:
    """sha256 of the exact results; repr() of a float round-trips, so equal
    digests across processes mean bit-identical bound columns and oracles."""
    return hashlib.sha256(repr(sorted(outputs.items())).encode()).hexdigest()


def layer_metrics(setup_layers, traced, untraced) -> dict:
    """Median per-layer values over the traced set-ups or traced repeats."""
    out = {}
    for name in tracing.PER_LAYER_UNITS:
        if name == "trace.overhead_s":
            out[name] = statistics.median(op.solve_s for op in traced) - statistics.median(
                op.solve_s for op in untraced
            )
            continue
        source = setup_layers if name in tracing.SETUP_METRICS else [op.layers for op in traced]
        values = [layers[name] for layers in source]
        if None in values:
            out[name] = None
        elif tracing.PER_LAYER_UNITS[name] == "s":
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]  # counts and ratios repeat exactly
    return out
