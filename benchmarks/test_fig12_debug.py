"""Fig. 12: live debugging overhead.

Paper's shape: while tuples are replicated to a debug worker, Storm's
topology throughput drops significantly (application-level copies mean
extra serializations at the source), whereas Typhoon's is unaffected
(the switch copies packets). Both recover after logging stops; Typhoon
needs no recovery because it never dipped.
"""

import pytest

from repro.bench import fig12_debug

from conftest import run_once, show
from figure_golden import check_golden

_cache = {}


def _run(system):
    if system not in _cache:
        _cache[system] = fig12_debug(system)
    return _cache[system]


def test_fig12_storm_throughput_drops(benchmark):
    result = run_once(benchmark, _run, "storm")
    show(result)
    check_golden("fig12-storm", result)
    ratio = result.scalars["during_over_before"]
    assert ratio < 0.85  # visible degradation while debugging
    # And it recovers once logging stops.
    recovery = result.scalars["after"] / result.scalars["before"]
    assert recovery > 0.9


def test_fig12_typhoon_unaffected(benchmark):
    result = run_once(benchmark, _run, "typhoon")
    show(result)
    check_golden("fig12-typhoon", result)
    ratio = result.scalars["during_over_before"]
    assert ratio > 0.93  # network-level mirroring is free for workers


def test_fig12_gap_between_systems(benchmark):
    storm = _run("storm")
    typhoon = run_once(benchmark, _run, "typhoon")
    assert (typhoon.scalars["during_over_before"]
            > storm.scalars["during_over_before"] + 0.10)
