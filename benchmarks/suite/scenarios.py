"""The benchmark's four workloads.

Each workload builds a fresh :class:`repro.TyphoonCluster` from a seed
and drives it in virtual time. Every input the cluster sees (payload
strings, churn schedules) is generated here from the seed; the cluster
itself only receives those inputs and ``seed=``. Load is generated
inside the simulation, so a slow host cannot slow the offered load.

A scenario goes through three phases, driven by ``run.py``:

1. set-up: the constructor plus :meth:`Scenario.run_to_first_tuple`;
2. :meth:`Scenario.begin` arms the load schedule, then an untimed
   warm-up of :data:`WARMUP` virtual seconds;
3. the timed span, bracketed by :meth:`Scenario.mark_span`, after which
   :meth:`Scenario.finish` drains the cluster and returns the checks.

Upper-case class attributes are the workload's parameters; the run
manifest records them.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from typing import Dict, List

from repro import DEFAULT_COSTS, Engine, FaultDetector, TopologyConfig, TyphoonCluster
from repro.core import rules
from repro.core.audit import verify_conservation
from repro.sim.faults import set_controller_replica_down
from repro.workloads import broadcast_topology, forwarding_topology, word_count_topology

#: Virtual seconds between polls for the first sink-processed tuple.
FIRST_TUPLE_STEP = 0.001
#: Untimed warm-up after set-up: caches fill and trains form.
WARMUP = 0.2


def seeded_payload(seed: int, length: int) -> str:
    """A payload string of fixed ``length`` drawn from ``seed``. Every
    seed costs the codec the same bytes, so virtual throughput stays
    comparable with the paper figures."""
    rng = random.Random("payload:%d" % seed)
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


def percentile(samples: List[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = -(-len(ordered) * p // 100)
    return ordered[max(1, int(rank)) - 1]


@dataclass
class Checks:
    """Outcome of one run's untimed correctness gate."""

    attempted: int = 0
    failed: int = 0
    #: Why the run is incorrect; empty when every check passed.
    problems: List[str] = field(default_factory=list)
    #: Workload-specific virtual metrics and diagnostics.
    details: Dict[str, float] = field(default_factory=dict)

    def require(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


class Scenario:
    """One seeded cluster plus the load it carries."""

    #: Components whose processed tuples count as sink output.
    SINK_COMPONENTS = ("sink",)

    def __init__(self, seed: int):
        self.seed = seed
        self.engine = Engine()
        self.cluster = self.build()

    @classmethod
    def parameters(cls) -> Dict[str, object]:
        return {name: getattr(cls, name) for name in dir(cls)
                if name.isupper()}

    def build(self) -> TyphoonCluster:
        raise NotImplementedError

    def sink_processed(self) -> int:
        """Tuples processed by sink components since the cluster started,
        killed and retired executors included."""
        return sum(executor.stats.processed
                   for executor in self.cluster.executors.values()
                   if executor.component_name in self.SINK_COMPONENTS)

    def run_to_first_tuple(self) -> None:
        engine = self.engine
        while self.sink_processed() == 0:
            engine.run(until=engine.now + FIRST_TUPLE_STEP)

    def begin(self, end: float) -> None:
        """Arm the load schedule; it stops issuing work at ``end``."""

    def mark_span(self, start: bool) -> None:
        """Called at the start and at the end of the timed span."""

    def finish(self) -> Checks:
        """Drain the cluster and run the correctness gate: conservation
        (no tuple lost without an attributed drop) and no failed roots."""
        checks = Checks()
        report = verify_conservation(self.cluster, strict=False)
        checks.require(report.unattributed == 0,
                       "%d tuples lost without an attributed drop"
                       % report.unattributed)
        checks.failed += abs(report.unattributed)
        checks.details["attributed_drops"] = report.drops
        spouts = [executor for executor in self.cluster.executors.values()
                  if executor.is_spout]
        roots_failed = sum(executor.stats.failed for executor in spouts)
        checks.require(roots_failed == 0,
                       "%d spout roots failed" % roots_failed)
        checks.failed += roots_failed
        checks.attempted += sum(executor.stats.emitted for executor in spouts)
        return checks


class ForwardLocal(Scenario):
    """Fig. 8(a) LOCAL, typhoon100: one source, one sequence-checking
    sink, closed loop (``max_pending``) at the maximum rate."""

    HOSTS = 1
    BATCH_SIZE = 100
    MAX_PENDING = 2000
    PAYLOAD_LENGTH = 28

    def topology(self):
        return forwarding_topology(
            "fwd", TopologyConfig(batch_size=self.BATCH_SIZE),
            payload=seeded_payload(self.seed, self.PAYLOAD_LENGTH))

    def build(self) -> TyphoonCluster:
        cluster = TyphoonCluster(self.engine, num_hosts=self.HOSTS,
                                 costs=self.costs(), seed=self.seed)
        topology = self.topology()
        topology.node("source").max_pending = self.MAX_PENDING
        cluster.submit(topology)
        return cluster

    def costs(self):
        return DEFAULT_COSTS

    def finish(self) -> Checks:
        checks = super().finish()
        out_of_order = sum(executor.component.out_of_order for executor
                           in self.cluster.executors_for("fwd", "sink"))
        checks.require(out_of_order == 0,
                       "%d tuples arrived out of order" % out_of_order)
        checks.failed += out_of_order
        return checks


class ForwardAckedRemote(ForwardLocal):
    """Fig. 8(b)/(d) REMOTE with one acker: open loop at the Fig. 8(c)/(d)
    latency experiment's rate, batches released when full."""

    HOSTS = 2
    RATE = 200_000.0
    MAX_PENDING = None
    BATCH_FLUSH_INTERVAL = 0.05

    def topology(self):
        config = TopologyConfig(batch_size=self.BATCH_SIZE, acking=True,
                                num_ackers=1, max_spout_rate=self.RATE)
        return forwarding_topology(
            "fwd", config,
            payload=seeded_payload(self.seed, self.PAYLOAD_LENGTH))

    def costs(self):
        return DEFAULT_COSTS.scaled(
            batch_flush_interval=self.BATCH_FLUSH_INTERVAL)

    def _latency(self):
        return self.cluster.executors_for("fwd", "source")[0].latency_dist

    def mark_span(self, start: bool) -> None:
        # Ack latencies are recorded in arrival order; keep the span's.
        if start:
            self._span_samples = [len(self._latency()), None]
        else:
            self._span_samples[1] = len(self._latency())

    def finish(self) -> Checks:
        first, last = self._span_samples
        samples = self._latency().samples()[first:last]
        checks = super().finish()
        checks.require(bool(samples), "no ack latency samples in the span")
        if samples:
            ms = [value * 1e3 for value in samples]
            checks.details.update({
                "virtual_latency_ms_p50": percentile(ms, 50),
                "virtual_latency_ms_p99": percentile(ms, 99),
                "virtual_latency_samples": len(ms),
            })
        return checks


class BroadcastRemote(Scenario):
    """Fig. 9 REMOTE: one source broadcasting to four sinks spread over
    two hosts, at the maximum rate."""

    HOSTS = 2
    SINKS = 4
    BATCH_SIZE = 100
    PAYLOAD_LENGTH = 27

    def build(self) -> TyphoonCluster:
        cluster = TyphoonCluster(self.engine, num_hosts=self.HOSTS,
                                 seed=self.seed)
        cluster.submit(broadcast_topology(
            "bc", self.SINKS, TopologyConfig(batch_size=self.BATCH_SIZE),
            payload=seeded_payload(self.seed, self.PAYLOAD_LENGTH)))
        return cluster

    def finish(self) -> Checks:
        checks = super().finish()
        counts = [executor.stats.processed for executor
                  in self.cluster.executors_for("bc", "sink")]
        checks.require(len(counts) == self.SINKS and len(set(counts)) == 1,
                       "broadcast sinks disagree: %s" % counts)
        checks.failed += max(counts) - min(counts) if counts else 1
        return checks


class ControlChurn(Scenario):
    """Word count under a 3-replica control plane with seeded churn:
    split-parallelism toggles, short-lived topologies and leader kills."""

    SINK_COMPONENTS = ("count", "sink")
    HOSTS = 3
    HA_REPLICAS = 3
    SPLITS = 2
    COUNTS = 4
    WORDS_PER_SENTENCE = 3
    #: Open-loop rates, tuples per virtual second.
    SENTENCE_RATE = 50.0
    CHURN_RATE = 50.0
    #: Gap between an update's completion and the next toggle (virtual
    #: seconds, uniform).
    TOGGLE_GAP = (0.4, 0.6)
    #: Churn topologies are submitted every SUBMIT_PERIOD, from a seeded
    #: phase.
    SUBMIT_PERIOD = 1.0
    #: A churn topology is killed this long after its workers launch.
    CHURN_LIFETIME = 1.5
    LEADER_KILL_PERIOD = 8.0
    LEADER_DOWNTIME = 2.5
    #: No churn topology is submitted from QUIET_BEFORE before a leader
    #: kill to QUIET_AFTER after it. Such a submit is lost: either the
    #: dying leader took it on after its last state sync to the standbys
    #: (every 0.5 vs), or the leader was already dead and not yet
    #: detected (session timeout 0.6 vs, then reconciliation). The window
    #: is a whole number of submit periods, so every kill skips the same
    #: number of submits whatever the seeded phases: the seed then moves
    #: the virtual throughput by a few tenths of a percent at most.
    QUIET_BEFORE = 1.0
    QUIET_AFTER = 2.0
    #: No scale-up (True) or scale-down (False) starts from this long
    #: before a leader kill to TOGGLE_QUIET_AFTER after it: the update
    #: takes 2.15 vs or 0.15 vs, plus one 0.5 vs state sync and a margin.
    #: When the leader is killed before it has synced a finished update,
    #: about 2% of the words are dropped (the share varies with the
    #: seed), most likely because the successor starts from the state
    #: before the update.
    TOGGLE_QUIET_BEFORE = {True: 2.8, False: 0.8}
    TOGGLE_QUIET_AFTER = 1.5

    def build(self) -> TyphoonCluster:
        cluster = TyphoonCluster(self.engine, num_hosts=self.HOSTS,
                                 seed=self.seed,
                                 ha_replicas=self.HA_REPLICAS)
        cluster.register_app_factory(lambda: FaultDetector(cluster))
        cluster.submit(word_count_topology(
            "wc", TopologyConfig(max_spout_rate=self.SENTENCE_RATE),
            splits=self.SPLITS, counts=self.COUNTS,
            words_per_sentence=self.WORDS_PER_SENTENCE))
        self.rng = random.Random("churn:%d" % self.seed)
        self.updates: List[Dict[str, object]] = []
        self.submits: List[str] = []
        self.kill_times: List[float] = []
        self._end = 0.0
        return cluster

    def begin(self, end: float) -> None:
        self._end = end
        rng = self.rng
        engine = self.engine
        when = engine.now + rng.uniform(2.0, self.LEADER_KILL_PERIOD)
        while when < end:
            self.kill_times.append(when)
            engine.schedule(when - engine.now, self._kill_leader)
            when += self.LEADER_KILL_PERIOD
        engine.schedule(rng.uniform(*self.TOGGLE_GAP), self._toggle, True)
        when = engine.now + rng.uniform(0.0, self.SUBMIT_PERIOD)
        while when < end:
            engine.schedule(when - engine.now, self._submit)
            when += self.SUBMIT_PERIOD

    def _toggle(self, up: bool) -> None:
        """Scale the split bolt up or back down; the next toggle is
        chained on this update's completion. A toggle that would run into
        a leader kill waits until TOGGLE_QUIET_AFTER past it."""
        now = self.engine.now
        if now >= self._end:
            return
        before, after = self.TOGGLE_QUIET_BEFORE[up], self.TOGGLE_QUIET_AFTER
        for kill in self.kill_times:
            if kill - before <= now < kill + after:
                self.engine.schedule(kill + after - now, self._toggle, up)
                return
        record = {"requested": now, "up": up}
        self.updates.append(record)
        process = self.cluster.set_parallelism(
            "wc", "split", self.SPLITS + 1 if up else self.SPLITS)

        def done(event) -> None:
            record["done"] = self.engine.now
            record["failed"] = bool(event.failed)
            self.engine.schedule(self.rng.uniform(*self.TOGGLE_GAP),
                                 self._toggle, not up)

        process.add_callback(done)

    def _submit(self) -> None:
        now = self.engine.now
        if now >= self._end:
            return
        quiet = any(kill - self.QUIET_BEFORE <= now < kill + self.QUIET_AFTER
                    for kill in self.kill_times)
        if not quiet:
            topology_id = "churn%04d" % (len(self.submits) + 1)
            config = TopologyConfig(max_spout_rate=self.CHURN_RATE)
            self.cluster.submit(forwarding_topology(topology_id, config))
            self.submits.append(topology_id)
            lifetime = DEFAULT_COSTS.worker_launch_latency \
                + self.CHURN_LIFETIME
            self.engine.schedule(lifetime, self.cluster.kill_topology,
                                 topology_id)

    def _kill_leader(self) -> None:
        victim = self.cluster.ha.leader_name
        set_controller_replica_down(self.cluster, victim, True)
        self.engine.schedule(self.LEADER_DOWNTIME,
                             set_controller_replica_down, self.cluster,
                             victim, False)

    def finish(self) -> Checks:
        # Let the update in flight at the end of the span complete.
        engine = self.engine
        deadline = engine.now + 60.0
        while any("done" not in record for record in self.updates) \
                and engine.now < deadline:
            engine.run(until=engine.now + 0.5)
        checks = super().finish()
        failed_updates = sum(1 for record in self.updates
                             if record.get("failed", True))
        checks.require(failed_updates == 0,
                       "%d of %d updates failed or never finished"
                       % (failed_updates, len(self.updates)))
        delivered = {executor.topology_id
                     for executor in self.cluster.executors.values()
                     if executor.component_name == "sink"
                     and executor.stats.processed > 0}
        failed_submits = sum(1 for topology_id in self.submits
                             if topology_id not in delivered)
        checks.require(failed_submits == 0,
                       "%d of %d churn topologies never delivered a tuple"
                       % (failed_submits, len(self.submits)))
        checks.failed += failed_updates + failed_submits
        checks.attempted += len(self.updates) + len(self.submits)

        ha = self.cluster.ha
        blackout = ha.blackout_summary()
        checks.require(blackout["unreconciled"] == 0,
                       "%d failovers never reconciled"
                       % blackout["unreconciled"])
        divergence = ha.rule_divergence()
        stale = self._stale_rules()
        leaked = [entry for switch, entry in stale
                  if entry.match.in_port not in switch.ports
                  and (entry.match, tuple(entry.actions))
                  == rules.worker_to_controller(entry.match.in_port)]
        checks.require(
            divergence["missing"] == 0 and divergence["mismatched"] == 0
            and divergence["stale"] == len(stale) == len(leaked),
            "rule divergence %s: %d stale rules, %d of them taps of "
            "removed ports" % (divergence, len(stale), len(leaked)))

        for direction, up in (("up", True), ("down", False)):
            ms = [(record["done"] - record["requested"]) * 1e3
                  for record in self.updates
                  if record["up"] == up and "done" in record]
            if ms:
                checks.details.update({
                    "reconfig_%s_ms_p50" % direction: percentile(ms, 50),
                    "reconfig_%s_ms_p80" % direction: percentile(ms, 80),
                    "reconfig_%s_samples" % direction: len(ms),
                })
        checks.details.update({
            "failover_blackout_ms_max": blackout["max_blackout_ms"],
            "failovers": blackout["failovers"],
            "churn_submits": len(self.submits),
            "leaked_tap_rules": len(leaked),
        })
        return checks

    def _stale_rules(self):
        """Generation-stamped switch rules the leader does not want, as
        ``(switch, entry)`` pairs: the entries behind the ``stale`` count
        of ``rule_divergence()``.

        The core controller app installs a worker-to-controller tap for
        every worker port and never deletes it when the port goes away,
        so each retired or killed worker leaves one behind until the
        next failover sweep removes it. The gate accepts exactly those."""
        leader = self.cluster.ha.leader
        want = {}
        for app in leader.sdn.apps:
            want.update(app.desired_flows() or {})
        stale = []
        for dpid in sorted(leader.sdn.switches):
            switch = leader.sdn.switches[dpid]
            if not switch.up:
                continue
            for entry in switch.flows:
                if entry.cookie >= 1 and (dpid, entry.match) not in want:
                    stale.append((switch, entry))
        return stale


@dataclass(frozen=True)
class Workload:
    name: str
    #: Why the benchmark has this workload (one line).
    why: str
    #: Virtual seconds in the timed span when ``--seconds`` is 10; the
    #: span scales linearly with ``--seconds``.
    span: float
    scenario: type


WORKLOADS = [
    Workload("fwd-local",
             "Fig. 8(a) max-rate forwarding on one host: the fused "
             "tuple-train path, with no tunnel, acker or control-plane work",
             5.0, ForwardLocal),
    Workload("fwd-acked-remote",
             "Fig. 8(b)/(d) acked forwarding across two hosts, open loop: "
             "the per-tuple path with acker XOR folds, tunnel and reassembly",
             1.25, ForwardAckedRemote),
    Workload("bcast-remote-k4",
             "Fig. 9 broadcast to four sinks on two hosts: one "
             "serialization, switch replication, then a decode per sink",
             0.8, BroadcastRemote),
    Workload("control-churn",
             "Word count under a 3-replica control plane with scale "
             "toggles, short-lived topologies and leader kills",
             400.0, ControlChurn),
]

BY_NAME = {workload.name: workload for workload in WORKLOADS}
