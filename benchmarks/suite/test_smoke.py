"""Smoke test for the repository benchmark.

Not part of the tier-1 suite (which collects ``tests/`` only); run it
explicitly::

    python -m pytest -q benchmarks/suite/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN = HERE / "run.py"
QUICK_BUDGET_S = 60.0


def bench(*args, out):
    return subprocess.run([sys.executable, str(RUN), *args, "--out", str(out)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Two quick suite runs with the same seed."""
    runs = []
    for index in range(2):
        out = tmp_path_factory.mktemp("quick%d" % index)
        start = time.monotonic()
        proc = bench("--quick", "--seed", "0", out=out)
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, proc.stdout + proc.stderr
        with open(out / "suite" / "manifest.json", encoding="utf-8") as handle:
            manifest = json.load(handle)
        runs.append({"result": last_json(proc), "manifest": manifest,
                     "elapsed": elapsed})
    return runs


def test_quick_suite_runs_every_workload_within_budget(quick_runs, spec):
    for run in quick_runs:
        assert run["elapsed"] < QUICK_BUDGET_S
        assert run["result"]["correct"] is True
        assert run["result"]["failed"] == 0
        assert set(run["manifest"]["workloads"]) == {
            workload["name"] for workload in spec["workloads"]}


def test_every_end_to_end_metric_is_reported_with_its_unit(quick_runs, spec):
    metrics = quick_runs[0]["result"]["metrics"]
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            reported = metrics["%s.%s" % (workload["name"], metric["name"])]
            assert reported["unit"] == metric["unit"]
            assert reported["value"] > 0


def test_virtual_results_repeat_exactly(quick_runs):
    first, second = (run["manifest"]["workloads"] for run in quick_runs)
    for name, record in first.items():
        other = second[name]
        assert (record["metrics"]["virtual_tuples_per_vs"]["values"]
                == other["metrics"]["virtual_tuples_per_vs"]["values"])
        for run_a, run_b in zip(record["runs"], other["runs"]):
            assert run_a["result"]["details"] == run_b["result"]["details"]
            assert run_a["result"]["counters"] == run_b["result"]["counters"]


def test_traced_pass_reports_every_per_layer_metric(spec, tmp_path):
    proc = bench("--workload", "fwd-local", "--seed", "0", "--seconds", "1",
                 "--trace", "1", out=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert result["correct"] is True
    expected = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    reported = {name: metric["unit"]
                for name, metric in result["metrics"].items()}
    assert reported == expected


def test_bogus_wrapper_target_trips_the_coverage_check():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import layers
        import run
        from scenarios import BY_NAME

        renamed = layers.Target("sdn.switch", "repro.sdn.switch",
                                "SoftwareSwitch.inject_renamed", ())
        with pytest.raises(layers.CoverageError, match="inject_renamed"):
            layers.Tracer(layers.TARGETS + [renamed]).install()

        # An entry point that exists but that the workload bypasses.
        bypassed = "repro.core.update:change_grouping"
        tracer = layers.Tracer([
            replace(target, fires_on=("fwd-local",))
            if target.label == bypassed else target
            for target in layers.TARGETS])
        tracer.install()
        try:
            single = run.Run(BY_NAME["fwd-local"], 0, 0.2, tracer)
            for _ in range(run.CHUNKS):
                single.chunk()
            result = single.finish()
        finally:
            tracer.uninstall()
        assert not result["correct"]
        assert any(bypassed in problem for problem in result["problems"])
    finally:
        del sys.path[:2]


def test_refuses_to_run_without_the_source_tree(spec, tmp_path):
    bare = tmp_path / "bare"
    for directory in spec["paths"]:
        shutil.copytree(ROOT / directory, bare / directory,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    command = [sys.executable if part == "python3" else part
               for part in spec["command"]]
    proc = subprocess.run(command + ["--workload", "fwd-local", "--seed", "0",
                                     "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
