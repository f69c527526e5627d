"""The benchmark's seed-determined gates, on its quick spans.

Each workload runs as ``benchmarks/suite/run.py --seed 0 --quick`` runs
it: set-up, the warm-up, then the quick span in the same slices, and the
gates read the deltas of ``run.counters()`` over that span. The ratios
depend only on the seed, not on the machine, so they are checked here;
the wall-clock floors stay with the benchmark run in CI. The suite's
files are only read: nothing is written next to them.
"""

from __future__ import annotations

import sys

import pytest

from tests.test_bench_coverage import _load

SEED = 0


@pytest.fixture(scope="module")
def suite():
    scenarios = _load("scenarios")
    with pytest.MonkeyPatch.context() as patch:
        # run.py imports its sibling ``layers`` by its plain name.
        patch.setitem(sys.modules, "layers", _load("layers"))
        run = _load("run")
    return scenarios, run


def quick_span_counters(suite, name):
    """Counter deltas over ``name``'s quick span at :data:`SEED`."""
    scenarios, run = suite
    workload = scenarios.BY_NAME[name]
    seconds = run.parse_args(["--quick"]).seconds
    span = run.workload_parameters(workload, seconds)["span_vs"]
    scenario = workload.scenario(SEED)
    scenario.run_to_first_tuple()
    engine = scenario.engine
    start = engine.now + scenarios.WARMUP
    scenario.begin(start + span)
    engine.run(until=start)
    scenario.mark_span(True)
    before = run.counters(scenario)
    for chunk in range(1, run.CHUNKS + 1):
        engine.run(until=start + span * chunk / run.CHUNKS)
    scenario.mark_span(False)
    after = run.counters(scenario)
    return {key: after[key] - before[key] for key in after}


def test_control_churn_idle_flushers_stay_parked(suite):
    """Idle batch flushers park until a tuple is queued: at most 2
    engine events per sink tuple (about 0.43 at seed 0)."""
    counters = quick_span_counters(suite, "control-churn")
    assert counters["tuples"] > 0
    assert counters["events"] / counters["tuples"] <= 2


def test_fwd_acked_remote_rides_trains(suite):
    """Acked windows go out as trains: at least 0.45 of the sent tuples
    leave on fused flushes (0.75 at seed 0)."""
    counters = quick_span_counters(suite, "fwd-acked-remote")
    assert counters["tuples_sent"] > 0
    assert counters["fused_tuples"] / counters["tuples_sent"] >= 0.45
