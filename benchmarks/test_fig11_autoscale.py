"""Fig. 11: auto-scaling under sustained overload.

Paper's shape: with the split stage driven past its capacity,
(a) Storm suffers periodic throughput collapses — each overloaded split
    eventually dies with OutOfMemoryError, restarts with an empty queue
    and the cycle repeats;
(b) Typhoon's auto-scaler detects the rising queue level, launches a
    third split worker, and throughput is much more stable afterwards;
(c) the new split worker visibly shares the load after the scale-up.
"""

import pytest

from repro.bench import fig11_autoscale

from conftest import run_once, show
from figure_golden import check_golden

_cache = {}


def _run(system):
    if system not in _cache:
        _cache[system] = fig11_autoscale(system)
    return _cache[system]


def test_fig11a_storm_oom_cycles(benchmark):
    result = run_once(benchmark, _run, "storm")
    show(result)
    check_golden("fig11-storm", result)
    # Repeated OOM deaths -> repeated supervisor restarts.
    assert result.scalars["worker_restarts"] >= 2
    # The count stage cannot sustain the input rate (splits cap it).
    assert result.scalars["aggregate_late"] < 5800


def test_fig11bc_typhoon_scales_up(benchmark):
    result = run_once(benchmark, _run, "typhoon")
    show(result)
    check_golden("fig11-typhoon", result)
    assert result.scalars["scale_ups"] >= 1
    assert result.scalars["final_split_parallelism"] == 3
    # After scaling, the pipeline keeps up with the input rate.
    assert result.scalars["aggregate_late"] == pytest.approx(6000, rel=0.1)
    # No OOM crash-restart cycles once scaled.
    assert result.scalars["worker_restarts"] <= 1


def test_fig11_typhoon_more_stable_than_storm(benchmark):
    storm = _run("storm")
    typhoon = run_once(benchmark, _run, "typhoon")
    assert (typhoon.scalars["aggregate_late"]
            > storm.scalars["aggregate_late"])
    assert (typhoon.scalars["worker_restarts"]
            < storm.scalars["worker_restarts"])
