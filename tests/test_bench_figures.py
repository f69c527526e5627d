"""Smoke tests for the experiment implementations (fast paths only —
the full experiments run under benchmarks/)."""

import pytest

from repro.bench.figures import (
    _cluster,
    _exact_rate,
    _forwarding_run,
    table5_debugger,
)
from repro.sim import Engine
from repro.streaming import StormCluster, TopologyConfig
from repro.core import TyphoonCluster
from repro.workloads import forwarding_topology


def test_cluster_factory_dispatch():
    engine = Engine()
    assert isinstance(_cluster("storm", engine, 1), StormCluster)
    assert isinstance(_cluster("typhoon", Engine(), 1), TyphoonCluster)
    with pytest.raises(ValueError):
        _cluster("flink", Engine(), 1)


def test_exact_rate_measures_delta():
    engine = Engine()
    cluster = StormCluster(engine, num_hosts=1)
    cluster.submit(forwarding_topology(
        "fwd", TopologyConfig(max_spout_rate=1000)))
    rate = _exact_rate(engine, cluster, "fwd", "sink", 4.0, 6.0)
    assert rate == pytest.approx(1000, rel=0.1)


def test_forwarding_run_returns_expected_keys():
    run = _forwarding_run("storm", local=True, batch=100, acking=False)
    assert run["throughput"] > 0
    assert run["out_of_order"] == 0
    assert "latency_p50" not in run  # no acker -> no latency data


def test_table5_is_fast_and_complete():
    result = table5_debugger()
    rendered = result.render()
    assert "Typhoon" in rendered and "Storm" in rendered
    assert result.scalars["typhoon_dynamic"] == 1.0


def _fig8_counters(engine, cluster):
    transports = [executor.transport for component in ("source", "sink")
                  for executor in cluster.executors_for("fwd", component)]
    stats = engine.stats()
    return {
        "tuples_sent": sum(t.tuples_sent for t in transports),
        "fused_tuples": sum(t.fused_tuples for t in transports),
        "events": stats["events_executed"],
        "heap_ops": stats["heap_pushes"] + stats["heap_pops"],
        "entry_allocs": stats["entry_allocs"],
    }


def test_fig8_steady_state_gates():
    """Fig. 8(a) forwarding over its first steady window, [2.4, 2.8] vs:
    tuples ride the fused train path, and the calendar queue keeps heap
    work and entry allocations per event low. Every ratio is
    seed-determined."""
    engine = Engine()
    cluster = _cluster("typhoon", engine, hosts=1, seed=0)
    cluster.submit(forwarding_topology("fwd", TopologyConfig(batch_size=100)))
    engine.run(until=2.4)
    before = _fig8_counters(engine, cluster)
    engine.run(until=2.8)
    after = _fig8_counters(engine, cluster)
    delta = {key: after[key] - before[key] for key in after}
    assert delta["fused_tuples"] / delta["tuples_sent"] >= 0.95
    assert delta["heap_ops"] / delta["events"] <= 1.5
    assert delta["entry_allocs"] / delta["events"] <= 0.5
