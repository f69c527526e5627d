"""Ablations for Typhoon's design choices (beyond the paper's figures).

1. **I/O batch size** — the configurable batching of §3.3.1 trades JNI /
   per-packet overhead amortization against latency. Tiny batches must
   visibly hurt throughput (each batch pays a JNI crossing and packet
   costs for few tuples); large batches converge.
2. **Locality-aware scheduler (§5)** — replacing Storm's round-robin
   scheduler with Typhoon's block scheduler must reduce the bytes pushed
   through inter-host TCP tunnels on a deep pipeline.
"""

import pytest

from repro.core import TyphoonCluster
from repro.bench.harness import ExperimentResult
from repro.sim import Engine
from repro.streaming import (
    Bolt,
    RoundRobinScheduler,
    Spout,
    TopologyBuilder,
    TopologyConfig,
)

from conftest import run_once, show
from figure_golden import check_golden


class _MaxSpout(Spout):
    def __init__(self):
        self.seq = 0

    def next_tuple(self, collector):
        collector.emit(("payload-string-for-ablation", self.seq))
        self.seq += 1


class _Forward(Bolt):
    def execute(self, stream_tuple, collector):
        collector.emit(stream_tuple.values, anchor=stream_tuple)


class _Sink(Bolt):
    def execute(self, stream_tuple, collector):
        pass


def _batch_ablation():
    result = ExperimentResult("Ablation: Typhoon I/O batch size")
    rows = []
    for batch in (1, 5, 25, 100, 500):
        engine = Engine()
        cluster = TyphoonCluster(engine, num_hosts=1, seed=0)
        builder = TopologyBuilder("ab", TopologyConfig(batch_size=batch))
        builder.set_spout("source", _MaxSpout, 1)
        builder.set_bolt("sink", _Sink, 1).shuffle_grouping("source")
        cluster.submit(builder.build())
        engine.run(until=2.5)
        sink = cluster.executors_for("ab", "sink")[0]
        before = sink.stats.processed
        engine.run(until=2.9)
        rate = (sink.stats.processed - before) / 0.4
        rows.append([batch, "%.0f" % rate])
        result.scalars["batch_%d" % batch] = rate
    result.add_table("throughput vs batch size",
                     ["batch", "tuples/sec"], rows)
    return result


def test_ablation_batch_size_amortization(benchmark):
    result = run_once(benchmark, _batch_ablation)
    show(result)
    check_golden("ablation-batch-size", result)
    # Unbatched I/O pays a JNI crossing + packet per tuple: much slower.
    assert result.scalars["batch_1"] < 0.5 * result.scalars["batch_100"]
    # Amortization saturates: 100 vs 500 within 10%.
    assert result.scalars["batch_500"] == pytest.approx(
        result.scalars["batch_100"], rel=0.10)
    # Monotone improvement up to the plateau.
    assert (result.scalars["batch_1"] < result.scalars["batch_5"]
            < result.scalars["batch_25"] < result.scalars["batch_100"])


def _pipeline(stages=6, parallelism=2):
    builder = TopologyBuilder("pipe", TopologyConfig(max_spout_rate=5000))
    builder.set_spout("stage0", _MaxSpout, parallelism)
    for index in range(1, stages):
        builder.set_bolt("stage%d" % index,
                         _Forward if index < stages - 1 else _Sink,
                         parallelism).shuffle_grouping("stage%d" % (index - 1))
    return builder.build()


def _tunnel_bytes(scheduler):
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=2, seed=0,
                             scheduler=scheduler)
    cluster.submit(_pipeline())
    engine.run(until=12.0)
    total = 0
    seen = set()
    for fabric in cluster.fabric.hosts.values():
        for tunnel in fabric.tunnels.values():
            if id(tunnel) in seen:
                continue
            seen.add(id(tunnel))
            total += tunnel.total_bytes
    return total


def _scheduler_ablation():
    result = ExperimentResult("Ablation: locality scheduler vs round robin")
    round_robin = _tunnel_bytes(RoundRobinScheduler())
    locality = _tunnel_bytes(None)  # default TyphoonScheduler
    result.scalars["round_robin_tunnel_bytes"] = round_robin
    result.scalars["locality_tunnel_bytes"] = locality
    result.add_table(
        "inter-host tunnel traffic on a 6-stage pipeline",
        ["scheduler", "tunnel bytes"],
        [["round-robin (Storm default)", round_robin],
         ["Typhoon locality-aware", locality]])
    return result


def test_ablation_locality_scheduler(benchmark):
    result = run_once(benchmark, _scheduler_ablation)
    show(result)
    check_golden("ablation-locality", result)
    # Round-robin scatters every stage across both hosts, so each of the
    # 5 edges is ~50% remote (2.5 edge-volumes). Block placement keeps 3
    # consecutive stages per host: one fully-remote boundary (1.0).
    # Expected ratio ~0.4; assert comfortably below round-robin.
    assert (result.scalars["locality_tunnel_bytes"]
            < 0.6 * result.scalars["round_robin_tunnel_bytes"])
