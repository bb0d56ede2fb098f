"""Tests of the bracket benchmark itself, on tiny versions of its workloads.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_msrisk(run.ROOT)

import msrisk.extensive  # noqa: E402
import msrisk.lp  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from msrisk.sddp import MarsrmSddp, TrainReport  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    """The workload on a three-stage, three-scenario instance, two iterations."""
    w = workloads.WORKLOADS[name]
    config = dict(workloads.instance_config(3, w.config["seed"]), scenarios_per_stage=3)
    engines = tuple((eng, 2) for eng, _ in w.engines)
    return dataclasses.replace(w, config=config, engines=engines)


def tiny_run(name, trace=False, **kwargs):
    return workloads.run_workload(tiny(name), seed=3, seconds=0.0, trace=trace, **kwargs)


def test_workload_names_match_the_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_run_emits_every_metric_with_its_unit(name, trace):
    summary = tiny_run(name, trace=bool(trace))
    assert summary["failed"] == 0, summary["failures"]
    assert summary["attempted"] >= workloads.MIN_OPS
    metrics = run.collect_metrics(summary, trace)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: m["unit"] for k, m in metrics.items()
    }
    for m in metrics.values():
        assert isinstance(m["value"], (int, float))


def test_solve_s_is_wall_time_scaled_by_the_calibration_loop(monkeypatch):
    # a calibration loop twice as slow as the reference machine's halves solve_s
    monkeypatch.setattr(workloads, "calibration_loop_s", lambda: 2 * workloads.CALIBRATION_S)
    summary = tiny_run("marsrm-t10")
    assert summary["calibration_s"] == 2 * workloads.CALIBRATION_S
    assert summary["solve_s"] == pytest.approx(summary["solve_wall_s"] / 2)


def test_shifted_oracle_is_counted_as_failed(monkeypatch):
    exact = msrisk.extensive.extensive_form_marsrm
    monkeypatch.setattr(
        msrisk.extensive,
        "extensive_form_marsrm",
        lambda *a, **k: exact(*a, **k) - 1e3,
    )
    summary = tiny_run("oracle-t4")
    # one of the four operations per repeat (the MARSRM oracle) fails
    assert summary["failed"] * 4 == summary["attempted"]
    assert all("oracle-sddp" in why and "outside" in why for why in summary["failures"])


def test_crossed_bracket_is_counted_as_failed(monkeypatch):
    honest = MarsrmSddp.run

    def crossed(self):
        report = honest(self)
        report.upper = [v - 1.0 for v in report.lower]
        return report

    monkeypatch.setattr(MarsrmSddp, "run", crossed)
    summary = tiny_run("marsrm-t10")
    assert summary["failed"] == summary["attempted"] > 0
    assert any("bracket crossed" in why for why in summary["failures"])


def test_bracket_checks():
    report = TrainReport()
    report.add_row(1, -5.0, 3.0, 8.0, 0.0, 0.0)
    report.add_row(2, -6.0, 4.0, 10.0, 0.0, 0.0)
    assert workloads.bracket_failures(report) == [
        "lower bound decreased",
        "upper bound increased",
    ]
    assert not workloads.oracle_outside(report, 4.0)
    assert workloads.oracle_outside(report, 4.5)
    assert workloads.oracle_outside(report, -6.5)


def test_results_that_differ_between_repeats_are_failures(monkeypatch):
    honest = MarsrmSddp.run
    calls = []

    def drifting(self):
        report = honest(self)
        calls.append(1)
        report.upper[-1] -= 1e-9 * len(calls)
        return report

    monkeypatch.setattr(MarsrmSddp, "run", drifting)
    summary = tiny_run("marsrm-t10")
    assert summary["failed"] == summary["attempted"] - 1
    assert all("differs" in why for why in summary["failures"])


def test_exact_counts_repeat_across_runs():
    first = tiny_run("dr-t10", trace=True)["layers"]
    second = tiny_run("dr-t10", trace=True)["layers"]
    assert first["lp.solves"] > 0 and first["dr.cuts"] > 0
    for name in tracing.EXACT_COUNTS:
        assert first[name] == second[name], name


def test_missing_highs_hooks_are_reported_missing():
    summary = tiny_run("marsrm-t10", trace=True, highs=lambda: None)
    assert summary["failed"] == 0
    metrics = run.collect_metrics(summary, 1)
    for name in tracing.HIGHS_METRICS:
        assert metrics[name] == {"value": None, "unit": "s", "missing": True}
    assert metrics["lp.simplex_iters"]["value"] > 0


def test_tracer_restores_the_original_code():
    before = {
        "solve_arrays": msrisk.lp.solve_arrays,
        "linprog": msrisk.lp.linprog,
        "from_empirical": vars(msrisk.dr.MomentAmbiguitySet)["from_empirical"],
        "upper_sweep": vars(MarsrmSddp)["upper_sweep"],
    }
    highs = tracing.highs_class()
    highs_run = vars(highs)["run"] if highs else None
    with tracing.Tracer(highs):
        assert msrisk.lp.solve_arrays is not before["solve_arrays"]
    assert msrisk.lp.solve_arrays is before["solve_arrays"]
    assert msrisk.lp.linprog is before["linprog"]
    assert vars(msrisk.dr.MomentAmbiguitySet)["from_empirical"] is before["from_empirical"]
    assert vars(MarsrmSddp)["upper_sweep"] is before["upper_sweep"]
    if highs:
        assert vars(highs)["run"] is highs_run


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "marsrm-t10",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
