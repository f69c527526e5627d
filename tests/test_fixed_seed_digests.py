"""Fixed-seed snapshots of the CLI reports and of each transport send shape.

Each entry of ``golden/fixed_seed_digests.json`` is the canonical JSON
of one seeded run: the full text a ``repro`` command prints, or the
ledger totals, transport counters, worker stats and virtual clock of a
short in-process cluster run, plus a SHA-256 per worker over the exact
arrival time and receive cost of every delivery (so a change in the
last bit of one cost shows). A refactor that claims to keep behaviour
must leave every entry unchanged; a mismatch names the first diverging
field.

After an intended behaviour change, review the diff and rewrite the
golden file::

    PYTHONPATH=src python tests/test_fixed_seed_digests.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import pytest

from repro.cli import main as cli_main
from repro.core import TyphoonCluster
from repro.core.apps import SdnLoadBalancer, StatsMonitor
from repro.sim import Engine
from repro.streaming import Bolt, Spout, TopologyBuilder, TopologyConfig
from repro.workloads import (
    broadcast_topology,
    forwarding_topology,
    word_count_topology,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "fixed_seed_digests.json"

#: ``repro`` invocations whose whole output is locked.
COMMANDS: Dict[str, List[str]] = {
    "trace": ["trace", "--seed", "0"],
    "audit": ["audit", "--rate", "500", "--duration", "10", "--hosts", "2",
              "--fault-time", "4"],
    "wordcount": ["wordcount", "--rate", "2000", "--duration", "8",
                  "--hosts", "2"],
    "chaos": ["chaos", "--seed", "0", "--system", "both"],
    "chaos-acked": ["chaos", "--seed", "0", "--acked"],
    "chaos-exactly-once": ["chaos", "--seed", "0", "--exactly-once"],
    "chaos-ha": ["chaos", "--seed", "0", "--ha"],
    "trace-seed1": ["trace", "--seed", "1"],
    "chaos-seed1": ["chaos", "--seed", "1", "--system", "both"],
    "chaos-acked-seed1": ["chaos", "--seed", "1", "--acked"],
    "chaos-exactly-once-seed1": ["chaos", "--seed", "1", "--exactly-once"],
    "chaos-ha-seed1": ["chaos", "--seed", "1", "--ha"],
    "chaos-seed2": ["chaos", "--seed", "2", "--system", "both"],
    "chaos-acked-storm": ["chaos", "--seed", "0", "--system", "storm",
                          "--acked"],
    "chaos-acked-storm-seed1": ["chaos", "--seed", "1", "--system", "storm",
                                "--acked"],
}

TRANSPORT_COUNTERS = ("tuples_sent", "serializations", "frames_sent",
                      "frames_received", "fused_flushes", "fused_tuples")
LEDGER_TERMS = ("sent", "injected", "replicated", "delivered",
                "controller_delivered")


def command_snapshot(argv: List[str]) -> Dict[str, Any]:
    out = io.StringIO()
    code = cli_main(argv, out=out)
    return {"exit": code, "output": out.getvalue().splitlines()}


def deploy(cluster: TyphoonCluster, topology) -> Dict[str, Any]:
    """Submit ``topology``, run until its workers exist, then hash
    every delivery each transport hands its executor: its virtual
    arrival time, receive cost and size, exactly. The wrapped
    callback's answer is passed through unchanged."""
    engine = cluster.engine
    cluster.submit(topology)
    record = cluster.manager.topologies[topology.topology_id]
    while len(cluster.transports) < len(record.physical.assignments):
        engine.run(until=engine.now + 0.01)
    logs = {}
    for worker_id, transport in cluster.transports.items():
        log = logs[str(worker_id)] = hashlib.sha256()

        def deliver(delivery, inner=transport.deliver, log=log):
            log.update(b"%s %s %d\n" % (engine.now.hex().encode(),
                                         delivery.cost.hex().encode(),
                                         len(delivery.tuples)))
            return inner(delivery)

        transport.deliver = deliver
    return logs


def cluster_snapshot(cluster: TyphoonCluster,
                     deliveries: Dict[str, Any]) -> Dict[str, Any]:
    ledger = cluster.ledger
    totals: Dict[str, Any] = {
        term: {str(scope): count
               for scope, count in getattr(ledger, term).items()}
        for term in LEDGER_TERMS}
    totals["drops"] = {"%s/%s/%s" % key: count
                       for key, count in ledger.drops.items()}
    totals["unattributable_frames"] = ledger.unattributable_frames
    workers = {}
    for worker_id, executor in cluster.executors.items():
        entry = {"component": executor.component_name,
                 "stats": dataclasses.asdict(executor.stats)}
        latency = executor.latency_dist.samples()
        if executor.is_spout and latency:
            entry["latency"] = {"count": len(latency),
                                "sum": math.fsum(latency)}
        workers[str(worker_id)] = entry
    engine = cluster.engine
    return {
        "now": engine.now,
        "events": engine.stats()["events_executed"],
        "ledger": totals,
        "transports": {
            str(worker_id): {name: getattr(transport, name)
                             for name in TRANSPORT_COUNTERS}
            for worker_id, transport in cluster.transports.items()},
        "workers": workers,
        "deliveries": {worker_id: log.hexdigest()
                       for worker_id, log in deliveries.items()},
    }


# -- in-process shapes: one per send path the transport keeps -----------------


def _forwarding(hosts: int, acking: bool = False,
                rate: Optional[float] = None, until: float = 2.15,
                ackers: int = 1, batch_size: int = 100):
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=hosts, seed=0)
    config = TopologyConfig(batch_size=batch_size, acking=acking,
                            num_ackers=ackers if acking else 0,
                            max_spout_rate=rate)
    deliveries = deploy(cluster, forwarding_topology("fwd", config))
    engine.run(until=until)
    return cluster_snapshot(cluster, deliveries)


def run_fwd_local():
    """Spout trains through ``send_interleaved`` and fused flushes; the
    local sink adopts each train window."""
    return _forwarding(hosts=1)


def run_fwd_remote():
    """Trains across the tunnel: the receiver decodes the bytes."""
    return _forwarding(hosts=2, until=2.1)


def run_fwd_local_batch250():
    """Batch 250: every flush is larger than one 8,950-byte frame, so
    the switch receives multi-frame flushes through ``inject_train``."""
    return _forwarding(hosts=1, batch_size=250)


def run_fwd_remote_batch250():
    """Multi-frame flushes across the tunnel."""
    return _forwarding(hosts=2, until=2.1, batch_size=250)


def run_fwd_acked_remote():
    """Acked windows: each window's ACK_INIT, anchored data, ACK_ACK and
    COMPLETE sends go out through ``send_log`` as trains; acker XOR
    folds, tunnel."""
    return _forwarding(hosts=2, acking=True, rate=20000.0, until=2.8)


def run_fwd_acked_two_ackers():
    """Two ackers: a window's ACK_INITs and ACK_ACKs alternate between
    two acker buffers by root id."""
    return _forwarding(hosts=2, acking=True, rate=20000.0, until=2.8,
                       ackers=2)


def run_fwd_acked_batch7():
    """Batch size 7: flush points fall inside every processing window."""
    return _forwarding(hosts=2, acking=True, rate=20000.0, until=2.8,
                       batch_size=7)


def run_bcast_k4():
    """One broadcast train per batch window, replicated by the switch;
    local copies after the first delivery are clones."""
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=2, seed=0)
    deliveries = deploy(cluster, broadcast_topology(
        "bc", 4, TopologyConfig(batch_size=100)))
    engine.run(until=2.1)
    return cluster_snapshot(cluster, deliveries)


class _Numbers(Spout):
    def __init__(self):
        self.seq = 0

    def next_tuple(self, collector):
        collector.emit(("n", self.seq), message_id=self.seq)
        self.seq += 1


class _Relay(Bolt):
    """Re-emits each input on its own stream (anchored under acking)."""

    def execute(self, stream_tuple, collector):
        collector.emit(stream_tuple.values, anchor=stream_tuple)


class _Sink(Bolt):
    def execute(self, stream_tuple, collector):
        pass


def _relay_chain(acking: bool, broadcast: bool):
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=2, seed=0)
    config = TopologyConfig(batch_size=50, max_spout_rate=4000.0,
                            acking=acking, num_ackers=1 if acking else 0)
    builder = TopologyBuilder("relay", config)
    builder.set_spout("source", _Numbers, 1)
    builder.set_bolt("relay", _Relay, 1).shuffle_grouping("source")
    sinks = builder.set_bolt("sink", _Sink, 3 if broadcast else 1)
    if broadcast:
        sinks.all_grouping("relay")
    else:
        sinks.shuffle_grouping("relay")
    deliveries = deploy(cluster, builder.build())
    engine.run(until=3.0)
    return cluster_snapshot(cluster, deliveries)


def run_relay_unicast():
    """Bolt re-emission on a single-hop edge: ``send_many``."""
    return _relay_chain(acking=False, broadcast=False)


def run_relay_acked_unicast():
    """Anchored bolt re-emission on a single-hop edge: the relay sends
    data and ACK_ACK per input, the acker COMPLETEs per root."""
    return _relay_chain(acking=True, broadcast=False)


def run_relay_acked_broadcast():
    """Anchored bolt broadcasts: the batched broadcast send encodes the
    anchored batch as one train, which the switch replicates."""
    return _relay_chain(acking=True, broadcast=True)


def run_lb_select():
    """An ``SdnLoadBalancer`` select-group edge: ``send_offloaded`` to
    the edge's virtual address; the switch picks the sink."""
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=1, seed=0)
    balancer = cluster.register_app(SdnLoadBalancer(cluster))
    builder = TopologyBuilder("lb", TopologyConfig(batch_size=20,
                                                   max_spout_rate=2000.0))
    builder.set_spout("source", _Numbers, 1)
    builder.set_bolt("sink", _Sink, 2).sdn_select_grouping("source")
    deliveries = deploy(cluster, builder.build())
    engine.run(until=3.0)
    record = cluster.manager.topologies["lb"]
    first, second = record.physical.worker_ids_for("sink")
    balancer.enable("lb", "source", "sink", weights={first: 3, second: 1})
    engine.run(until=5.0)
    return cluster_snapshot(cluster, deliveries)


def run_stats_monitor():
    """Stats polls answered with METRIC_RESP through
    ``send_to_controller``."""
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=2, seed=0)
    config = TopologyConfig(batch_size=50, max_spout_rate=1000.0)
    deliveries = deploy(cluster, word_count_topology(
        "wc", config, splits=2, counts=2, words_per_sentence=2))
    cluster.register_app(StatsMonitor(cluster, "wc", poll_interval=1.0))
    engine.run(until=4.0)
    return cluster_snapshot(cluster, deliveries)


SHAPES: Dict[str, Callable[[], Dict[str, Any]]] = {
    "fwd-local": run_fwd_local,
    "fwd-remote": run_fwd_remote,
    "fwd-local-batch250": run_fwd_local_batch250,
    "fwd-remote-batch250": run_fwd_remote_batch250,
    "fwd-acked-remote": run_fwd_acked_remote,
    "fwd-acked-two-ackers": run_fwd_acked_two_ackers,
    "fwd-acked-batch7": run_fwd_acked_batch7,
    "bcast-k4": run_bcast_k4,
    "relay-unicast": run_relay_unicast,
    "relay-acked-unicast": run_relay_acked_unicast,
    "relay-acked-broadcast": run_relay_acked_broadcast,
    "lb-select": run_lb_select,
    "stats-monitor": run_stats_monitor,
}


def snapshot(name: str) -> Dict[str, Any]:
    if name in COMMANDS:
        return command_snapshot(COMMANDS[name])
    return SHAPES[name]()


def canonical(value: Any) -> Any:
    """``value`` as it reads back from the golden file."""
    return json.loads(json.dumps(value, sort_keys=True))


def first_divergence(expected: Any, actual: Any,
                     path: str = "") -> Optional[str]:
    """Path and values of the first field where the two differ."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            where = "%s.%s" % (path, key) if path else key
            if key not in expected:
                return "%s: unexpected, got %r" % (where, actual[key])
            if key not in actual:
                return "%s: missing, expected %r" % (where, expected[key])
            found = first_divergence(expected[key], actual[key], where)
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        for index, (left, right) in enumerate(zip(expected, actual)):
            found = first_divergence(left, right, "%s[%d]" % (path, index))
            if found:
                return found
        if len(expected) != len(actual):
            return "%s: length %d, expected %d" % (path, len(actual),
                                                   len(expected))
        return None
    if expected != actual or type(expected) is not type(actual):
        return "%s: expected %r, got %r" % (path, expected, actual)
    return None


def load_golden() -> Dict[str, Any]:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.mark.parametrize("name", list(COMMANDS) + list(SHAPES))
def test_fixed_seed_output_matches_golden(golden, name):
    assert name in golden, "%s has no golden entry" % name
    found = first_divergence(golden[name], canonical(snapshot(name)), name)
    assert found is None, found


def test_golden_names_every_run(golden):
    assert set(golden) == set(COMMANDS) | set(SHAPES)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_golden_commands_pass(golden, name):
    """A rewrite cannot lock in a failing run: every locked command
    exits 0 and reports no failed invariant or gate."""
    assert golden[name]["exit"] == 0
    assert not [line for line in golden[name]["output"]
                if "[FAIL]" in line or ": FAIL" in line]


def main() -> int:
    old = load_golden() if GOLDEN.exists() else {}
    fresh = {name: canonical(snapshot(name))
             for name in list(COMMANDS) + list(SHAPES)}
    for name, value in fresh.items():
        found = first_divergence(old.get(name), value, name) \
            if name in old else "%s: new entry" % name
        print("%-24s %s" % (name, found or "unchanged"))
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(fresh, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % GOLDEN)
    return 0


if __name__ == "__main__":
    sys.exit(main())
