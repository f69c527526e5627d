"""Recovery-focused chaos scenarios: the acked reliability stack must
converge to zero permanently-lost roots under random faults, and
no-survivor dead ends must be observable instead of silent."""

import pytest

from repro.core import TyphoonCluster
from repro.core.apps.fault_detector import FaultDetector
from repro.core.chaos import (
    I_REPLAY,
    PASS,
    SKIP,
    InvariantChecker,
    chaos_snapshot,
    run_chaos,
)
from repro.sim import Engine
from repro.sim.faults import kill_worker_at
from repro.streaming import TopologyConfig
from repro.workloads.chaosflow import DEDUP_SERVICE, DedupRegistry, chaos_topology

#: Checkpoint cadence the acked scenarios run with. A fixture owns the
#: config construction (and the cluster teardown) so no test mutates a
#: shared TopologyConfig and leaks a different interval into the next.
CHECKPOINT_INTERVAL = 0.5


@pytest.fixture
def acked_config():
    return TopologyConfig(
        batch_size=50, max_spout_rate=500.0,
        acking=True, num_ackers=1, tuple_timeout=2.0, max_pending=48,
        replay_enabled=True, checkpoint_interval=CHECKPOINT_INTERVAL,
        reliable_control=True)


@pytest.fixture
def typhoon_cluster():
    """Factory for a TyphoonCluster that tears its topologies down
    afterwards, so checkpoint stores, replay buffers and replica groups
    never outlive the test that created them."""
    created = []

    def build(num_hosts=2, seed=0, detector=False, registry=None):
        engine = Engine()
        cluster = TyphoonCluster(engine, num_hosts=num_hosts, seed=seed)
        app = cluster.register_app(FaultDetector(cluster)) if detector \
            else None
        if registry is not None:
            cluster.services[DEDUP_SERVICE] = registry
        created.append(cluster)
        return engine, cluster, app

    yield build
    for cluster in created:
        for topology_id in list(cluster.manager.topologies):
            cluster.kill_topology(topology_id)


@pytest.mark.parametrize("system", ["typhoon", "storm"])
def test_acked_chaos_converges_to_zero_lost_roots(system):
    result = run_chaos(system, seed=0, mode="acked")
    assert result.mode == "acked"
    assert result.ok, result.render()
    replay = result.invariants.result(I_REPLAY)
    assert replay.status == PASS
    assert "exhausted=0" in replay.detail and "in-flight=0" in replay.detail
    # At-least-once, not at-least-zero: the faults really did force
    # replays, and the idempotent sink still applied each root once.
    assert "replays=" in replay.detail and "replays=0" not in replay.detail
    duplicates = result.invariants.result("no-duplicate-delivery")
    assert duplicates.status == PASS and "duplicates=0" in duplicates.detail
    assert "acked=True" in result.render().splitlines()[0]


def test_acked_chaos_is_deterministic():
    first = run_chaos("typhoon", seed=0, mode="acked")
    second = run_chaos("typhoon", seed=0, mode="acked")
    assert first.render() == second.render()
    assert first.to_dict() == second.to_dict()


def test_replay_invariant_skips_without_buffers(typhoon_cluster):
    """Best-effort runs (and pre-replay clusters) report SKIP, keeping
    same-seed reports comparable across regimes."""
    engine, cluster, _ = typhoon_cluster(num_hosts=1, seed=0)
    cluster.submit(chaos_topology("chaos", TopologyConfig(batch_size=50,
                                                          max_spout_rate=200)))
    engine.run(until=3.0)
    checker = InvariantChecker(cluster, settle=1.0)
    assert checker._check_replay().status == SKIP


def test_dead_end_is_counted_and_surfaced(typhoon_cluster):
    """Killing the only worker of a component leaves the fault detector
    nothing to redirect to; the condition must be observable in both the
    detector and the chaos snapshot instead of silently returning."""
    engine, cluster, detector = typhoon_cluster(
        num_hosts=1, seed=2, detector=True, registry=DedupRegistry())
    config = TopologyConfig(batch_size=50, max_spout_rate=500.0)
    physical = cluster.submit(chaos_topology("chaos", config,
                                             relays=1, sinks=1))
    [relay_id] = physical.worker_ids_for("relay")
    kill_worker_at(cluster, relay_id, when=3.0, reason="no-survivor test")
    engine.run(until=8.0)
    assert detector.dead_ends == 1
    [event] = detector.dead_end_events
    assert event["worker_id"] == relay_id
    assert event["component"] == "relay"
    assert event["topology"] == "chaos"
    assert event["time"] == pytest.approx(3.0, abs=0.1)
    snapshot = chaos_snapshot(cluster)
    assert snapshot["fault_detector"]["dead_ends"] == 1
    assert snapshot["fault_detector"]["dead_end_events"] == [event]


def test_acked_snapshot_exposes_reliability_state(typhoon_cluster,
                                                  acked_config):
    """GET /chaos payload: an acked cluster surfaces replay totals,
    checkpoint counters, acker ledger health and control-channel stats."""
    engine, cluster, _ = typhoon_cluster(
        num_hosts=2, seed=4, detector=True,
        registry=DedupRegistry(at_least_once=True))
    cluster.submit(chaos_topology("chaos", acked_config))
    engine.run(until=6.0)
    snapshot = chaos_snapshot(cluster)
    assert snapshot["replay"]["registered"] > 0
    assert snapshot["checkpoints"]["saves"] > 0
    assert snapshot["duplicates"]["at_least_once"] is True
    assert any(stats["completed"] > 0
               for stats in snapshot["ackers"].values())
    assert snapshot["control_channel"]["sent"] > 0
    assert snapshot["control_channel"]["reliable_topologies"] == 1
