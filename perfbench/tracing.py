"""Layer tracing for the bracket benchmark, measured from outside msrisk.

A :class:`Tracer` wraps public entry points of ``msrisk`` (module attributes
and class methods) for the duration of one ``with tracer:`` block and restores
them on exit, so untraced work runs the original code. Each wrapper records
the inclusive time of its span; time the tracer spends on its own bookkeeping
(array sizes, archive snapshots) is subtracted from every enclosing span.
LP solves are attributed to the innermost engine pass that issued them.

The private HiGHS entry points that scipy's ``linprog`` drives
(``scipy.optimize._highspy._core._Highs.run``/``passModel``) are wrapped only
when present; otherwise the ``lp.highs_*`` and ``lp.wrapper_s`` metrics are
reported as missing.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

import numpy as np

import msrisk.benchmark
import msrisk.dr
import msrisk.extensive
import msrisk.lp
import msrisk.risk
import msrisk.sddp

ENGINES = {"sddp": msrisk.sddp.MarsrmSddp, "dr": msrisk.dr.DrSddp}
PASSES = ("forward", "backward", "sweep", "refresh")

# metric name -> unit, in report order
PER_LAYER_UNITS = {
    "lp.solves": "count",
    "lp.linprog_s": "s",
    "lp.wrapper_s": "s",
    "lp.highs_pass_s": "s",
    "lp.highs_run_s": "s",
    "lp.simplex_iters": "count",
    "lp.solve_arrays_s": "s",
    "lp.retries": "count",
    "lp.rows_mean": "rows",
    "lp.cols_mean": "cols",
    "lp.nnz_mean": "nnz",
    "lp.lpmodel_arrays_s": "s",
    **{
        f"{eng}.{name}": unit
        for eng in ENGINES
        for name, unit in (
            *((f"{p}_s", "s") for p in PASSES),
            *((f"{p}_lps", "count") for p in PASSES),
            ("self_s", "s"),
            ("cuts", "count"),
            ("archive_points", "count"),
            ("refresh_improved_ratio", "ratio"),
        )
    },
    "extensive.marsrm_s": "s",
    "extensive.dr_s": "s",
    "extensive.build_s": "s",
    "scenario.lattice_s": "s",
    "scenario.preferences_s": "s",
    "benchmark.instance_s": "s",
    "dr.ambiguity_s": "s",
    "risk.weights_s": "s",
    "risk.reweight_s": "s",
    "trace.overhead_s": "s",
}

# counts that must repeat exactly across traced runs of one seed
EXACT_COUNTS = (
    "lp.solves",
    "lp.simplex_iters",
    "lp.retries",
    *(f"{eng}.{p}_lps" for eng in ENGINES for p in PASSES),
    "sddp.cuts",
    "sddp.archive_points",
    "dr.cuts",
    "dr.archive_points",
)

# measured during set-up; everything else comes from the traced solves
SETUP_METRICS = (
    "scenario.lattice_s",
    "scenario.preferences_s",
    "benchmark.instance_s",
    "dr.ambiguity_s",
    "risk.weights_s",
)

HIGHS_METRICS = ("lp.highs_pass_s", "lp.highs_run_s", "lp.wrapper_s")

_INHERITED = object()


def highs_class():
    """The private HiGHS class scipy's ``linprog`` drives, or None if absent."""
    try:
        from scipy.optimize._highspy._core import _Highs
    except ImportError:
        return None
    if all(callable(getattr(_Highs, name, None)) for name in ("run", "passModel")):
        return _Highs
    return None


def _nnz(A) -> int:
    if A is None:
        return 0
    if hasattr(A, "nnz"):
        return int(A.nnz)
    return int(np.count_nonzero(A))


def _rows(A) -> int:
    return 0 if A is None else int(np.shape(A)[0])


def _archive_snapshot(engine) -> dict:
    return {
        (t, key): np.array(entry[1], dtype=float)
        for t, archive in engine.archives.items()
        for key, entry in archive.items()
    }


class Tracer:
    """Span and count totals for one traced region (a set-up or a solve)."""

    def __init__(self, highs=None):
        self.highs = highs
        self.time = defaultdict(float)
        self.count = defaultdict(int)
        self.own = 0.0  # seconds spent on tracer bookkeeping
        self.current_pass = None
        self.refresh_lowered = defaultdict(int)
        self.refresh_states = defaultdict(int)
        self._saved = []

    # -- wrapping ------------------------------------------------------------
    def _span(self, name, fn, after=None):
        """Wrap ``fn`` so its calls add to span ``name``.

        ``after(args, kwargs, result, seconds)`` runs after the call and
        counts as tracer bookkeeping, not as part of any span.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            own0 = tracer.own
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0 - (tracer.own - own0)
            tracer.time[name] += dt
            tracer.count[name] += 1
            if after is not None:
                b0 = time.perf_counter()
                after(args, kwargs, result, dt)
                tracer.own += time.perf_counter() - b0
            return result

        return wrapper

    def _patch(self, owner, attr, replacement):
        # vars() keeps descriptors (classmethods, pybind11 instance methods)
        # exactly as defined, so restoring them is lossless
        self._saved.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr, name, after=None):
        self._patch(owner, attr, self._span(name, getattr(owner, attr), after))

    def __enter__(self):
        traced_solve_arrays = self._sized(msrisk.lp.solve_arrays)
        for module in (msrisk.lp, msrisk.sddp, msrisk.dr):
            self._patch(module, "solve_arrays", traced_solve_arrays)
        self._wrap(msrisk.lp, "linprog", "lp.linprog", after=self._linprog_done)
        if self.highs is not None:
            self._wrap(self.highs, "run", "lp.highs_run")
            self._wrap(self.highs, "passModel", "lp.highs_pass")
        self._wrap(msrisk.lp.LpModel, "solve", "lp.lpmodel_solve")
        self._wrap(msrisk.lp.LpModel, "arrays", "lp.lpmodel_arrays")
        self._wrap(msrisk.benchmark, "build_lognormal_lattice", "scenario.lattice")
        self._wrap(msrisk.benchmark, "build_preference_voronoi", "scenario.preferences")
        self._wrap(msrisk.benchmark, "build_asset_instance", "benchmark.instance")
        from_empirical = msrisk.dr.MomentAmbiguitySet.from_empirical.__func__
        self._patch(
            msrisk.dr.MomentAmbiguitySet,
            "from_empirical",
            classmethod(self._span("dr.ambiguity", from_empirical)),
        )
        for module in (msrisk.sddp, msrisk.dr):
            self._wrap(module, "arsrm_weights", "risk.weights")
        self._wrap(msrisk.risk.ArsrmWeights, "scenario_reweighting", "risk.reweight")
        self._wrap(msrisk.extensive, "extensive_form_marsrm", "extensive.marsrm")
        self._wrap(msrisk.extensive, "extensive_form_dr", "extensive.dr")
        for eng, cls in ENGINES.items():
            for method, pass_name in (("forward_pass", "forward"), ("backward_pass", "backward")):
                self._patch(cls, method, self._pass(eng, pass_name, getattr(cls, method)))
            self._patch(cls, "upper_sweep", self._sweep(eng, cls.upper_sweep))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        return False

    def _sized(self, fn):
        signature = inspect.signature(fn)

        def after(args, kwargs, result, dt):
            bound = signature.bind(*args, **kwargs).arguments
            c, A_eq, A_ub = bound["c"], bound.get("A_eq"), bound.get("A_ub")
            self.count["lp.rows"] += _rows(A_eq) + _rows(A_ub)
            self.count["lp.cols"] += int(np.size(c))
            self.count["lp.nnz"] += _nnz(A_eq) + _nnz(A_ub)
            if self.current_pass is not None:
                self.count[f"{self.current_pass}_lps"] += 1
                self.time[f"{self.current_pass}_lp"] += dt

        return self._span("lp.solve_arrays", fn, after)

    def _linprog_done(self, args, kwargs, result, dt):
        self.count["lp.simplex_iters"] += int(getattr(result, "nit", 0) or 0)

    def _pass(self, eng, pass_name, fn):
        span = self._span(f"{eng}.{pass_name}", fn)

        def wrapper(*args, **kwargs):
            outer, self.current_pass = self.current_pass, f"{eng}.{pass_name}"
            try:
                return span(*args, **kwargs)
            finally:
                self.current_pass = outer

        return wrapper

    def _sweep(self, eng, fn):
        sweep = self._pass(eng, "sweep", fn)
        refresh = self._pass(eng, "refresh", fn)

        def wrapper(engine, states=None):
            if states is not None:
                return sweep(engine, states)
            b0 = time.perf_counter()
            before = _archive_snapshot(engine)
            recertified = sum(len(v) for v in engine.visited.values())
            self.own += time.perf_counter() - b0
            result = refresh(engine, None)
            b0 = time.perf_counter()
            after = _archive_snapshot(engine)
            self.refresh_lowered[eng] += sum(
                bool(np.any(after[key] < value)) for key, value in before.items()
            )
            self.refresh_states[eng] += recertified
            self.own += time.perf_counter() - b0
            return result

        return wrapper

    # -- results -------------------------------------------------------------
    def record_engine(self, eng, engine):
        """Read cut and archive sizes off a finished engine run."""
        pools = engine.pools.values()
        if eng == "dr":
            pools = [p for stage in pools for p in stage]
        self.count[f"{eng}.cuts"] += sum(p.count for p in pools)
        self.count[f"{eng}.archive_points"] += sum(len(a) for a in engine.archives.values())

    def metrics(self) -> dict:
        """Per-layer values of this region (``None`` where unmeasurable)."""
        t, n = self.time, self.count
        solves = n["lp.solve_arrays"]
        out = {
            "lp.solves": n["lp.linprog"],
            "lp.linprog_s": t["lp.linprog"],
            "lp.simplex_iters": n["lp.simplex_iters"],
            "lp.solve_arrays_s": t["lp.solve_arrays"],
            "lp.retries": n["lp.linprog"] - solves,
            "lp.rows_mean": n["lp.rows"] / solves if solves else 0.0,
            "lp.cols_mean": n["lp.cols"] / solves if solves else 0.0,
            "lp.nnz_mean": n["lp.nnz"] / solves if solves else 0.0,
            "lp.lpmodel_arrays_s": t["lp.lpmodel_arrays"],
            "extensive.marsrm_s": t["extensive.marsrm"],
            "extensive.dr_s": t["extensive.dr"],
            "extensive.build_s": t["extensive.marsrm"]
            + t["extensive.dr"]
            - t["lp.lpmodel_solve"],
            "scenario.lattice_s": t["scenario.lattice"],
            "scenario.preferences_s": t["scenario.preferences"],
            "benchmark.instance_s": t["benchmark.instance"],
            "dr.ambiguity_s": t["dr.ambiguity"],
            "risk.weights_s": t["risk.weights"],
            "risk.reweight_s": t["risk.reweight"],
        }
        if self.highs is None:
            out.update(dict.fromkeys(HIGHS_METRICS))
        else:
            out["lp.highs_pass_s"] = t["lp.highs_pass"]
            out["lp.highs_run_s"] = t["lp.highs_run"]
            out["lp.wrapper_s"] = t["lp.linprog"] - t["lp.highs_pass"] - t["lp.highs_run"]
        for eng in ENGINES:
            pass_total = lp_total = 0.0
            for p in PASSES:
                key = f"{eng}.{p}"
                out[f"{key}_s"] = t[key]
                out[f"{key}_lps"] = n[f"{key}_lps"]
                pass_total += t[key]
                lp_total += t[f"{key}_lp"]
            out[f"{eng}.self_s"] = pass_total - lp_total
            out[f"{eng}.cuts"] = n[f"{eng}.cuts"]
            out[f"{eng}.archive_points"] = n[f"{eng}.archive_points"]
            states = self.refresh_states[eng]
            out[f"{eng}.refresh_improved_ratio"] = (
                self.refresh_lowered[eng] / states if states else 0.0
            )
        return out
