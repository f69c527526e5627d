"""Fig. 10: fault detection and recovery, Storm vs Typhoon.

Paper's shape: after one split worker turns permanently faulty at
t=20 s, Storm's count-stage aggregate throughput drops to ~half and
stays there (local restarts keep failing; the 30 s heartbeat-timeout
reschedule lands on another host where the logic is still faulty).
Typhoon's fault detector sees the port-removal event and redirects
tuples to the healthy split immediately, so aggregate throughput is
maintained (with some fluctuation: the survivor carries double load).
"""

import pytest

from repro.bench import fig10_fault

from conftest import run_once, show
from figure_golden import check_golden

_cache = {}


def _run(system):
    if system not in _cache:
        _cache[system] = fig10_fault(system)
    return _cache[system]


def test_fig10_storm_throughput_halves(benchmark):
    result = run_once(benchmark, _run, "storm")
    show(result)
    check_golden("fig10-storm", result)
    ratio = result.scalars["post_over_pre"]
    assert 0.35 < ratio < 0.65  # drops to about half


def test_fig10_typhoon_throughput_maintained(benchmark):
    result = run_once(benchmark, _run, "typhoon")
    show(result)
    check_golden("fig10-typhoon", result)
    ratio = result.scalars["post_over_pre"]
    assert ratio > 0.9  # maintained


def test_fig10_typhoon_vs_storm_gap(benchmark):
    storm = _run("storm")
    typhoon = run_once(benchmark, _run, "typhoon")
    assert (typhoon.scalars["aggregate_post_fault"]
            > 1.5 * storm.scalars["aggregate_post_fault"])
    # Pre-fault the systems are equivalent.
    assert typhoon.scalars["aggregate_pre_fault"] == pytest.approx(
        storm.scalars["aggregate_pre_fault"], rel=0.15)
