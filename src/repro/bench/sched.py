"""Congested-scenario scheduling benchmark (``repro bench``).

Two word-count-like pipelines with a skewed fields grouping share a
small cluster whose inter-host links are two orders of magnitude slower
than the default 10 GbE — the congested regime §5 motivates. The same
workload runs twice:

* **naive** — the historic block-placement scheduler, no meters;
* **resource-aware** — R-Storm-style placement from declared demand
  vectors plus the online SDN bandwidth allocator.

Both runs are fully deterministic for a fixed seed. The report
(``BENCH_sched.json``) compares end-to-end throughput, p99 tuple
latency (spouts stamp virtual send time into the payload; sinks measure
on arrival), drop counts, remote adjacent-worker crossings, and the
allocator's time-to-rebalance telemetry. The sched-smoke CI gate holds
the resource-aware/naive throughput ratio at >= 1.0 and the p99 ratio
at <= 1.0: the new scheduler must never lose to the old one here.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..net.hosts import Cluster, HostCapacity
from ..sim.costs import DEFAULT_COSTS
from ..sim.engine import Engine
from ..streaming.topology import (
    Bolt,
    LogicalTopology,
    ResourceDemand,
    Spout,
    TopologyBuilder,
    TopologyConfig,
)
from ..core.runtime import TyphoonCluster

#: Inter-host link + NIC bandwidth (bytes/sec). ~100 KB/s: a few
#: thousand small tuples per second saturate one link, so placement
#: decides whether the pipelines congest.
LINK_BANDWIDTH = 100_000.0

#: Per-spout emission rate (tuples/sec). Two pipelines at this rate
#: overcommit a single shared link (~125 KB/s of crossing traffic under
#: block placement) but fit comfortably when spread over two links.
SPOUT_RATE = 2_500.0

#: Virtual seconds of steady-state traffic measured per run.
DURATION = 20.0

#: Fraction of tuples carrying the hot key (skewed fields grouping).
HOT_FRACTION = 0.8

#: Per-worker demand vector: four workers exactly fill no host, so
#: every pipeline must split across hosts and the placement of the
#: split decides how much traffic crosses which link.
DEMAND = ResourceDemand(cpu=30.0, memory=512.0, bandwidth=60_000.0)

#: CI gates on the resource-aware/naive comparison.
MIN_THROUGHPUT_RATIO = 1.0
MAX_P99_RATIO = 1.0


class _StampSpout(Spout):
    """Emits (key, virtual-send-time) pairs with a skewed key mix."""

    def __init__(self, rng, now):
        self.rng = rng
        self.now = now
        self.seq = 0

    def next_tuple(self, collector) -> None:
        if self.rng.random() < HOT_FRACTION:
            key = "hot"
        else:
            key = "k%d" % self.rng.randrange(8)
        collector.emit((key, self.now()), message_id=self.seq)
        self.seq += 1


class _CountBolt(Bolt):
    """Skew magnet: counts per key, forwards (key, stamp) downstream."""

    def __init__(self):
        self.counts: Dict[str, int] = {}

    def execute(self, stream_tuple, collector) -> None:
        key, stamp = stream_tuple.values
        self.counts[key] = self.counts.get(key, 0) + 1
        collector.emit((key, stamp), anchor=stream_tuple)


class _LatencySink(Bolt):
    """Terminal stage: records end-to-end virtual latencies."""

    def __init__(self, latencies: List[float], now):
        self.latencies = latencies
        self.now = now

    def execute(self, stream_tuple, collector) -> None:
        _key, stamp = stream_tuple.values
        self.latencies.append(self.now() - stamp)


def _pipeline(topology_id: str, engine: Engine, seed: int,
              latencies: List[float]) -> LogicalTopology:
    import random

    rng = random.Random(seed)
    builder = TopologyBuilder(topology_id, TopologyConfig(
        batch_size=20, max_spout_rate=SPOUT_RATE))
    builder.set_spout("gen", lambda: _StampSpout(rng, lambda: engine.now),
                      1, demand=DEMAND)
    builder.set_bolt("count", _CountBolt, 2,
                     demand=DEMAND).fields_grouping("gen", [0])
    builder.set_bolt("sink",
                     lambda: _LatencySink(latencies, lambda: engine.now),
                     1, demand=DEMAND).shuffle_grouping("count")
    return builder.build()


def _build_cluster(num_hosts: int = 3) -> Cluster:
    capacity = HostCapacity(cpu=100.0, memory=4096.0,
                            bandwidth=LINK_BANDWIDTH)
    cluster = Cluster.of_size(num_hosts, capacity=capacity)
    names = [host.name for host in cluster]
    for index, src in enumerate(names):
        for dst in names[index + 1:]:
            cluster.set_link_bandwidth(src, dst, LINK_BANDWIDTH)
    return cluster


def _remote_crossings(physical) -> int:
    """Adjacent worker pairs scheduled onto different hosts."""
    crossings = 0
    by_component: Dict[str, List[str]] = {}
    for assignment in physical.assignments.values():
        by_component.setdefault(assignment.component,
                                []).append(assignment.hostname)
    for edge in physical.edges:
        for src_host in by_component.get(edge.src, ()):
            for dst_host in by_component.get(edge.dst, ()):
                if src_host != dst_host:
                    crossings += 1
    return crossings


def _percentile(values: List[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _run_scenario(resource_aware: bool, seed: int,
                  duration: float = DURATION) -> Dict[str, Any]:
    engine = Engine()
    costs = DEFAULT_COSTS.scaled(
        lan_bandwidth_bytes_per_sec=LINK_BANDWIDTH)
    typhoon = TyphoonCluster(engine, costs=costs, seed=seed,
                             resource_aware=resource_aware,
                             cluster=_build_cluster())
    # Congested regime: tunnels serialize at link bandwidth, so a link
    # offered more than LINK_BANDWIDTH builds a real queue.
    seen = set()
    for fabric in typhoon.fabric.hosts.values():
        for tunnel in fabric.tunnels.values():
            if id(tunnel) in seen:
                continue
            seen.add(id(tunnel))
            for host in (tunnel.host_a, tunnel.host_b):
                tunnel.channel_from(host).serialize = True
    latencies: Dict[str, List[float]] = {"alpha": [], "beta": []}
    physicals = {}
    for index, topology_id in enumerate(("alpha", "beta")):
        logical = _pipeline(topology_id, engine, seed * 1000 + index,
                            latencies[topology_id])
        physicals[topology_id] = typhoon.submit(logical)
    engine.run(until=duration)

    switch_drops = 0
    meter_drops = 0
    for fabric in typhoon.fabric.hosts.values():
        switch_drops += fabric.switch.packets_dropped
        meter_drops += fabric.switch.meter_drops
    delivered = sum(len(values) for values in latencies.values())
    all_latencies = [value for values in latencies.values()
                     for value in values]
    result: Dict[str, Any] = {
        "scheduler": "resource-aware" if resource_aware else "naive",
        "delivered": delivered,
        "throughput_tuples_per_sec": delivered / duration,
        "p50_latency": _percentile(all_latencies, 0.50),
        "p99_latency": _percentile(all_latencies, 0.99),
        "switch_drops": switch_drops,
        "meter_drops": meter_drops,
        "remote_crossings": sum(
            _remote_crossings(physical) for physical in physicals.values()),
        "placements": {
            topology_id: {
                str(wid): [a.component, a.hostname]
                for wid, a in sorted(physical.assignments.items())
            }
            for topology_id, physical in sorted(physicals.items())
        },
        "per_topology": {
            topology_id: {
                "delivered": len(values),
                "p99_latency": _percentile(values, 0.99),
            }
            for topology_id, values in sorted(latencies.items())
        },
    }
    allocator = typhoon.bandwidth_allocator
    if allocator is not None:
        snapshot = allocator.snapshot()
        result["rebalance"] = {
            "rounds": snapshot["rounds"],
            "reallocations": snapshot["reallocations"],
            "meters_installed": snapshot["meters_installed"],
            "time_to_rebalance": snapshot["last_change_time"],
            "settled_rounds": snapshot["settled_rounds"],
            "flows": snapshot["flows"],
        }
    return result


def run_sched_bench(seed: int = 0,
                    duration: float = DURATION) -> Dict[str, Any]:
    """Run both scenarios; returns the BENCH_sched dict."""
    naive = _run_scenario(False, seed, duration)
    aware = _run_scenario(True, seed, duration)
    naive_p99 = naive["p99_latency"]
    return {
        "benchmark": "sched",
        "seed": seed,
        "duration": duration,
        "link_bandwidth_bytes_per_sec": LINK_BANDWIDTH,
        "spout_rate_tuples_per_sec": SPOUT_RATE,
        "naive": naive,
        "resource_aware": aware,
        "comparison": {
            "throughput_ratio": (
                aware["throughput_tuples_per_sec"]
                / max(naive["throughput_tuples_per_sec"], 1e-9)),
            "p99_ratio": (aware["p99_latency"] / naive_p99
                          if naive_p99 > 0 else 0.0),
            "crossings_delta": (aware["remote_crossings"]
                                - naive["remote_crossings"]),
        },
    }


def render_report(result: Dict[str, Any]) -> str:
    lines = ["=== congested scheduling benchmark (seed %d) ==="
             % result["seed"]]
    lines.append("%-16s %12s %12s %12s %10s" % (
        "scheduler", "tuples/s", "p99 (s)", "crossings", "drops"))
    for key in ("naive", "resource_aware"):
        run = result[key]
        lines.append("%-16s %12.0f %12.4f %12d %10d" % (
            run["scheduler"], run["throughput_tuples_per_sec"],
            run["p99_latency"], run["remote_crossings"],
            run["switch_drops"]))
    comparison = result["comparison"]
    lines.append("throughput ratio (aware/naive): %.3f"
                 % comparison["throughput_ratio"])
    lines.append("p99 ratio (aware/naive): %.3f" % comparison["p99_ratio"])
    rebalance = result["resource_aware"].get("rebalance")
    if rebalance:
        lines.append("bandwidth allocator: %d meters, %d reallocations, "
                     "rebalanced by t=%.2fs, settled for %d rounds"
                     % (rebalance["meters_installed"],
                        rebalance["reallocations"],
                        rebalance["time_to_rebalance"],
                        rebalance["settled_rounds"]))
    return "\n".join(lines)


def check_gates(result: Dict[str, Any]) -> List[str]:
    """The sched-smoke CI gates; returns a list of violation messages."""
    failures = []
    comparison = result["comparison"]
    if comparison["throughput_ratio"] < MIN_THROUGHPUT_RATIO:
        failures.append(
            "resource-aware/naive throughput ratio %.3f < %.2f"
            % (comparison["throughput_ratio"], MIN_THROUGHPUT_RATIO))
    if comparison["p99_ratio"] > MAX_P99_RATIO:
        failures.append(
            "resource-aware/naive p99 latency ratio %.3f > %.2f"
            % (comparison["p99_ratio"], MAX_P99_RATIO))
    return failures
