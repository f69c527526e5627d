"""The benchmark's per-layer entry points exist and keep firing.

``benchmarks/suite/layers.py`` wraps public entry points by name
(``layers.TARGETS``). Its traced pass stops with ``CoverageError`` when
one no longer exists, and fails a run when one stops firing on a
workload it lists. This runs the same contract on three of the
benchmark's workloads, so a refactor that deletes or bypasses a wrapped
name fails the test suite, not only the traced benchmark. The suite's
files are only read: nothing is written next to them.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent.parent / "benchmarks" / "suite"
#: Virtual seconds past the benchmark's warm-up; enough for every
#: entry point listed for these workloads to fire.
SPAN = 0.05


def _load(name: str):
    """Import ``benchmarks/suite/<name>.py`` without writing bytecode."""
    module_name = "bench_suite_" + name
    spec = importlib.util.spec_from_file_location(module_name,
                                                  SUITE / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="module")
def layers():
    return _load("layers")


@pytest.fixture(scope="module")
def scenarios():
    return _load("scenarios")


def test_every_wrapped_entry_point_resolves(layers):
    tracer = layers.Tracer()
    tracer.install()  # raises CoverageError naming a missing target
    tracer.uninstall()


@pytest.mark.parametrize("workload", ["fwd-local", "fwd-acked-remote",
                                      "bcast-remote-k4"])
def test_wrapped_entry_points_fire_on_their_workloads(layers, scenarios,
                                                      workload):
    tracer = layers.Tracer()
    tracer.install()
    try:
        scenario = scenarios.BY_NAME[workload].scenario(0)
        scenario.run_to_first_tuple()
        end = scenario.engine.now + scenarios.WARMUP + SPAN
        scenario.begin(end)
        scenario.engine.run(until=end)
    finally:
        tracer.uninstall()
    assert tracer.coverage_failures(workload) == []
