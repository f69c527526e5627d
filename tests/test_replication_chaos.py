"""Chaos tests for exactly-once active replication.

Each regime drives one targeted failure against the replicated workload
and holds the quiesced cluster to the ``replication-conservation``
invariant (plus the zero-lost / zero-duplicate registry checks):

* a replica killed mid-update (supervisor relaunch + log catch-up);
* the leader killed, then its promoted successor killed mid-failover;
* the broadcast link between group hosts flapped (gap repair from the
  sequencer log);
* a controller outage overlapping a replica kill (GroupMod/port events
  queue and flush FIFO on recovery).
"""

import pytest

from repro.core.apps.fault_detector import FaultDetector
from repro.core.chaos import (
    FAIL,
    I_REPLICATION,
    PASS,
    SKIP,
    InvariantChecker,
    run_chaos,
)
from repro.core.runtime import TyphoonCluster
from repro.sim.engine import Engine
from repro.sim.faults import FaultPlan, _crash
from repro.streaming.topology import TopologyConfig
from repro.workloads.chaosflow import DEDUP_SERVICE, DedupRegistry
from repro.workloads.replicated import replicated_topology


def _deploy(seed=0, rate=500.0):
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=3, seed=seed)
    cluster.register_app(FaultDetector(cluster))
    registry = DedupRegistry(at_least_once=False)
    cluster.services[DEDUP_SERVICE] = registry
    config = TopologyConfig(batch_size=50, max_spout_rate=rate,
                            reliable_control=True)
    cluster.submit(replicated_topology("chaos-rep", config))
    group = cluster.replication.group_of("chaos-rep", "rstate")
    assert group is not None
    return engine, cluster, registry, group


def _kill(cluster, group, role):
    def action():
        if role == "leader":
            victim = group.leader
        else:
            alive = sorted(w for w in group.alive if w != group.leader)
            victim = alive[-1] if alive else None
        if victim is not None:
            _crash(cluster, victim, "chaos test: %s kill" % role)
    return action


def _finish(engine, cluster, registry, group, until=12.0):
    engine.run(until=until)
    report = InvariantChecker(cluster, settle=2.0).run()
    result = report.result(I_REPLICATION)
    assert result.status == PASS, result.detail
    assert report.ok, report.render()
    assert group.commits > 0
    assert registry.duplicates == 0
    assert not registry.missing_keys()
    return report


def test_replica_kill_mid_update():
    engine, cluster, registry, group = _deploy(seed=11)
    plan = FaultPlan(cluster)
    plan.custom(4.0, "kill follower", _kill(cluster, group, "follower"))
    engine.run(until=2.0)
    plan.arm()
    _finish(engine, cluster, registry, group)
    # The relaunched replica rejoined and caught back up.
    assert len(group.alive) == len(group.worker_ids)
    assert group.repairs >= 0 and group.next_in > 0


def test_leader_kill_during_failover():
    engine, cluster, registry, group = _deploy(seed=12)
    first_leader = group.leader
    plan = FaultPlan(cluster)
    plan.custom(4.0, "kill leader", _kill(cluster, group, "leader"))
    plan.custom(4.3, "kill promoted leader", _kill(cluster, group, "leader"))
    engine.run(until=2.0)
    plan.arm()
    _finish(engine, cluster, registry, group)
    # Two failovers actually happened (plus rejoin promotions, if the
    # group ever drained to empty) and the final leader is alive.
    assert group.promotions >= 2
    assert group.epoch >= 2
    assert group.leader in group.alive
    assert first_leader is not None


def test_broadcast_link_flap():
    engine, cluster, registry, group = _deploy(seed=13)
    hosts = sorted(set(group.hosts.values()))
    assert len(hosts) >= 2
    plan = FaultPlan(cluster)
    plan.link_flap(hosts[0], hosts[1], 4.0, 0.8)
    engine.run(until=2.0)
    plan.arm()
    _finish(engine, cluster, registry, group)
    # Frames were genuinely lost on the partitioned link and repaired
    # from the sequencer log (or re-emitted to the sink).
    assert group.repairs + group.reemits > 0


def test_controller_outage_during_replica_kill():
    engine, cluster, registry, group = _deploy(seed=14)
    plan = FaultPlan(cluster)
    plan.controller_outage(4.0, 1.2)
    plan.custom(4.3, "kill follower during outage",
                _kill(cluster, group, "follower"))
    engine.run(until=2.0)
    plan.arm()
    _finish(engine, cluster, registry, group)
    assert cluster.sdn.up
    assert len(group.alive) == len(group.worker_ids)


def test_invariant_skips_without_replication():
    """The sixth invariant must not fire on unreplicated topologies —
    and the plain chaos harness still reports it as a SKIP line."""
    result = run_chaos("typhoon", seed=3, duration=6.0, faults=2,
                       rate=400.0)
    rep = result.invariants.result(I_REPLICATION)
    assert rep.status == SKIP
    assert rep.status != FAIL
    assert "replication-conservation" in result.render()


def test_exactly_once_runner_end_to_end():
    result = run_chaos(seed=2, duration=12.0, faults=4, rate=600.0,
                       mode="exactly-once")
    assert result.ok, result.render()
    assert result.mode == "exactly-once"
    rep = result.invariants.result(I_REPLICATION)
    assert rep.status == PASS
    assert "lost=0" in rep.detail
    # Same seed, same report, byte for byte.
    again = run_chaos(seed=2, duration=12.0, faults=4, rate=600.0,
                      mode="exactly-once")
    assert again.render() == result.render()
