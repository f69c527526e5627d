"""Chaos harness: seeded fault scenarios + post-mortem invariant checks.

Typhoon's headline claims are *lossless* operation under reconfiguration
(§3.5, Fig. 6, Table 4) and SDN-driven fault recovery (§4, Fig. 10).
This module turns those claims into machine-checked invariants over
randomized fault scenarios:

1. **delivery conservation** — PR 1's ledger identity balances after the
   cluster quiesces (no tuple vanished without an attributed drop);
2. **flow consistency** — every rule the controller's coordinator state
   implies (Table 3) is actually present in the switches' flow tables
   with the right actions (switch crashes lose tables; the re-sync must
   have fully repaired them);
3. **no duplicate delivery** — the stateful sink's dedup registry saw
   every ``(source, seq)`` at most once across all reconfigurations;
4. **fault-detector convergence** — no worker is still redirected-around
   and no live worker routes to a dead one once faults stop;
5. **replay conservation** (acked runs only) — every message a spout
   ever tracked is accounted for: completed, still pending, or
   retry-budget-exhausted — and after the recovery window *zero* are
   exhausted, i.e. no root was permanently lost;
6. **replication conservation** (replicated runs only) — every replica
   group's ledger balances: all alive replicas applied the full
   sequenced input, replicas never diverged, every produced output was
   admitted downstream exactly once, and every admitted output
   committed exactly once with zero conflicting retries.

One runner, :func:`run_chaos`, drives four modes, each one row of
:data:`REGIMES`: ``best-effort`` (the default: a seeded random
:class:`~repro.sim.faults.ChaosSchedule`; loss is attributed, not
repaired), ``acked`` (the same faults with the full reliability stack,
held to zero permanently-lost roots), ``exactly-once`` (the
actively-replicated workload under targeted regimes, held to zero lost
and zero duplicate commits) and ``ha`` (a replicated control plane under
three fixed regimes, held to four more invariants: single-master
convergence, zero rule divergence, complete fencing, bounded blackout).
The same seed renders the same :class:`ChaosRunResult` byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..sim.audit import ConservationReport
from ..sim.engine import Engine
from ..sdn.flow import Match
from ..sim.faults import (
    STORM_KINDS,
    TYPHOON_KINDS,
    ChaosSchedule,
    FaultPlan,
    _crash,
    set_controller_replica_down,
    set_store_partition,
)
from ..streaming.acker import ACKER_COMPONENT, AckerBolt
from ..streaming.checkpoint import CHECKPOINT_SERVICE, CheckpointStore
from ..streaming.replay import REPLAY_SERVICE, ReplayService
from ..streaming.storm import StormCluster
from ..streaming.topology import TopologyConfig
from ..workloads.chaosflow import DEDUP_SERVICE, DedupRegistry, chaos_topology
from ..workloads.replicated import replicated_topology
from .apps.fault_detector import FaultDetector
from .audit import conservation_report, quiesce
from .runtime import TyphoonCluster

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"

I_CONSERVATION = "delivery-conservation"
I_FLOW_CONSISTENCY = "flow-consistency"
I_NO_DUPLICATES = "no-duplicate-delivery"
I_DETECTOR = "fault-detector-convergence"
I_REPLAY = "replay-conservation"
I_REPLICATION = "replication-conservation"
I_HA_CONVERGENCE = "ha-convergence"
I_HA_DIVERGENCE = "ha-rule-divergence"
I_HA_FENCING = "ha-fencing"
I_HA_BLACKOUT = "ha-blackout"


@dataclass
class InvariantResult:
    """Outcome of one invariant check."""

    name: str
    status: str
    detail: str

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def render(self) -> str:
        return "[%s] %-26s %s" % (self.status, self.name, self.detail)


@dataclass
class InvariantReport:
    """All six chaos invariants plus the conservation snapshot."""

    results: List[InvariantResult]
    conservation: ConservationReport

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def result(self, name: str) -> InvariantResult:
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError("no invariant %r" % name)

    def render(self) -> str:
        lines = ["invariant report", "----------------"]
        lines.extend(result.render() for result in self.results)
        lines.append("verdict: %s" % ("OK" if self.ok else "VIOLATED"))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "invariants": [
                {"name": r.name, "status": r.status, "detail": r.detail}
                for r in self.results
            ],
            "conservation": self.conservation.to_dict(),
        }


class InvariantChecker:
    """Quiesces a cluster and checks the six chaos invariants.

    Works against both runtimes; the SDN-specific checks (flow
    consistency, detector convergence) report SKIP on the Storm
    baseline, deterministically, so same-seed reports stay comparable.
    """

    def __init__(self, cluster, settle: float = 2.0):
        self.cluster = cluster
        self.settle = settle

    def run(self) -> InvariantReport:
        quiesce(self.cluster, settle=self.settle)
        conservation = conservation_report(self.cluster)
        results = [
            self._check_conservation(conservation),
            self._check_flow_consistency(),
            self._check_duplicates(),
            self._check_detector(),
            self._check_replay(),
            self._check_replication(),
        ]
        # Replicated-control-plane invariants ride along only when the
        # cluster actually deployed HA: the default single-controller
        # report stays byte-identical.
        if getattr(self.cluster, "ha", None) is not None:
            results.extend(self._check_ha(self.cluster.ha))
        return InvariantReport(results=results, conservation=conservation)

    # -- (a) delivery conservation -----------------------------------------

    def _check_conservation(self,
                            report: ConservationReport) -> InvariantResult:
        detail = ("sent=%d injected=%d delivered=%d drops=%d "
                  "unattributed=%d" % (report.sent, report.injected,
                                       report.delivered, report.drops,
                                       report.unattributed))
        return InvariantResult(I_CONSERVATION,
                               PASS if report.ok else FAIL, detail)

    # -- (b) flow-table vs. coordinator-state consistency ------------------

    def _check_flow_consistency(self) -> InvariantResult:
        app = getattr(self.cluster, "app", None)
        sdn = getattr(self.cluster, "sdn", None)
        if app is None or sdn is None:
            return InvariantResult(I_FLOW_CONSISTENCY, SKIP,
                                   "no SDN control plane")
        checked = missing = mismatched = 0
        for topology_id in sorted(app.managed):
            desired = app.desired_rules(topology_id)
            for (dpid, match), (priority, actions) in desired.items():
                checked += 1
                switch = sdn.switches.get(dpid)
                if switch is None or not switch.up:
                    missing += 1
                    continue
                entry = next((e for e in switch.flows
                              if e.match == match
                              and e.priority == priority), None)
                if entry is None:
                    missing += 1
                elif tuple(entry.actions) != tuple(actions):
                    mismatched += 1
            for (dpid, group_id), (group_type,
                                   buckets) in (app.desired_groups(
                                       topology_id).items()):
                checked += 1
                switch = sdn.switches.get(dpid)
                if switch is None or not switch.up:
                    missing += 1
                    continue
                if group_id not in switch.groups:
                    missing += 1
                    continue
                entry = switch.groups.get(group_id)
                if (entry.group_type != group_type
                        or tuple(entry.buckets) != tuple(buckets)):
                    mismatched += 1
        # Subset check by design: switches legitimately hold rules the
        # diff bookkeeping does not cover (worker->controller taps).
        detail = ("rules=%d missing=%d mismatched=%d"
                  % (checked, missing, mismatched))
        ok = missing == 0 and mismatched == 0
        return InvariantResult(I_FLOW_CONSISTENCY, PASS if ok else FAIL,
                               detail)

    # -- (c) no duplicate delivery to stateful workers ---------------------

    def _check_duplicates(self) -> InvariantResult:
        services = getattr(self.cluster, "services", {})
        registry = services.get(DEDUP_SERVICE)
        if not isinstance(registry, DedupRegistry):
            return InvariantResult(I_NO_DUPLICATES, SKIP,
                                   "no dedup registry deployed")
        detail = ("tracked=%d duplicates=%d"
                  % (registry.tracked, registry.duplicates))
        if registry.duplicates:
            keys = registry.duplicate_keys()[:5]
            detail += " first=%s" % (",".join("%s#%d" % k for k in keys))
        return InvariantResult(
            I_NO_DUPLICATES,
            PASS if registry.duplicates == 0 else FAIL, detail)

    # -- (d) fault-detector convergence ------------------------------------

    def _check_detector(self) -> InvariantResult:
        sdn = getattr(self.cluster, "sdn", None)
        if sdn is None:
            return InvariantResult(I_DETECTOR, SKIP, "no SDN control plane")
        detector = next((app for app in sdn.apps
                         if isinstance(app, FaultDetector)), None)
        if detector is None:
            return InvariantResult(I_DETECTOR, SKIP,
                                   "no fault detector deployed")
        stale = 0
        for worker_id in sorted(self.cluster.executors):
            executor = self.cluster.executor(worker_id)
            if executor is None:
                continue
            for key in sorted(executor.routers):
                router = executor.routers[key]
                stale += sum(1 for hop in router.next_hops
                             if self.cluster.executor(hop) is None)
        detail = ("redirected=%d stale-next-hops=%d detections=%d "
                  "restores=%d dead-ends=%d"
                  % (len(detector.redirected), stale, detector.detections,
                     detector.restores, detector.dead_ends))
        ok = not detector.redirected and stale == 0
        return InvariantResult(I_DETECTOR, PASS if ok else FAIL, detail)

    # -- (e) replay conservation / zero permanent loss ---------------------

    def _check_replay(self) -> InvariantResult:
        """Acked runs only: the spout replay buffers' conservation
        identity holds and the retry budget never ran dry — i.e. every
        message the sources ever emitted either completed or is still
        (benignly) in flight; none is permanently lost."""
        services = getattr(self.cluster, "services", {})
        service = services.get(REPLAY_SERVICE)
        if not isinstance(service, ReplayService) or not service.buffers:
            return InvariantResult(I_REPLAY, SKIP, "no replay buffers")
        totals = service.totals()
        detail = ("emitted=%d completed=%d in-flight=%d exhausted=%d "
                  "replays=%d recovered=%d"
                  % (totals["registered"], totals["completed"],
                     totals["pending"], totals["exhausted"],
                     totals["replays"], totals["recovered"]))
        ok = service.conserved() and totals["exhausted"] == 0
        return InvariantResult(I_REPLAY, PASS if ok else FAIL, detail)

    # -- (f) replication conservation / exactly-once -----------------------

    def _check_replication(self) -> InvariantResult:
        """Replicated runs only: every replica group's ledger balances
        once the cluster quiesces — all alive replicas applied the full
        sequenced input (convergence), no replica ever logged an output
        different from the first writer's (determinism), every produced
        output was admitted downstream exactly once, and — when the
        consumer is transactional — committed exactly once with zero
        conflicting retries. With a strict dedup registry deployed the
        check also demands zero lost spout sequences end to end."""
        service = getattr(self.cluster, "replication", None)
        if service is None or not service.active():
            return InvariantResult(I_REPLICATION, SKIP,
                                   "no replication groups")
        lag = leaderless = unadmitted = uncommitted = 0
        for key in sorted(service.groups):
            group = service.groups[key]
            if not group.alive or group.leader is None:
                leaderless += 1
            for worker_id in sorted(group.alive):
                lag += max(0, group.next_in -
                           group.applied.get(worker_id, 0))
            unadmitted += max(0, group.outputs_logged - group.admitted)
            if group.commits:
                uncommitted += max(0, group.admitted - group.commits)
        totals = service.totals()
        lost = -1
        services = getattr(self.cluster, "services", {})
        registry = services.get(DEDUP_SERVICE)
        if isinstance(registry, DedupRegistry) and not registry.at_least_once:
            lost = len(registry.missing_keys())
        detail = ("groups=%d inputs=%d lag=%d divergence=%d admitted=%d "
                  "collapsed=%d commits=%d retries=%d conflicts=%d lost=%s"
                  % (totals["groups"], totals["inputs"], lag,
                     totals["divergence"], totals["admitted"],
                     totals["duplicates_collapsed"], totals["commits"],
                     totals["commit_retries"], totals["commit_conflicts"],
                     "n/a" if lost < 0 else str(lost)))
        ok = (lag == 0 and leaderless == 0 and unadmitted == 0
              and uncommitted == 0 and totals["divergence"] == 0
              and totals["commit_conflicts"] == 0 and lost <= 0)
        return InvariantResult(I_REPLICATION, PASS if ok else FAIL, detail)


    # -- (g..j) replicated-control-plane invariants ------------------------

    def _check_ha(self, ha) -> List[InvariantResult]:
        expectations = getattr(self.cluster, "ha_expectations", {})
        return [
            self._check_ha_convergence(ha),
            self._check_ha_divergence(ha),
            self._check_ha_fencing(ha, expectations),
            self._check_ha_blackout(ha, expectations),
        ]

    def _check_ha_convergence(self, ha) -> InvariantResult:
        """Exactly one live master, agreed by store and switches, with
        every blackout buffer drained."""
        problems: List[str] = []
        leader = ha.leader
        if leader is None:
            problems.append("no-leader")
        else:
            if not leader.up:
                problems.append("leader-down")
            if leader.role != "master":
                problems.append("leader-role=%s" % leader.role)
            stored = ha.coordinator.get_data("/ha/generation", 0)
            if stored != ha.generation:
                problems.append("generation-skew store=%s plane=%d"
                                % (stored, ha.generation))
            masters = sum(1 for replica in ha.replicas
                          if replica.role == "master")
            if masters != 1:
                problems.append("masters=%d" % masters)
            pending = 0
            for dpid in sorted(leader.sdn.switches):
                switch = leader.sdn.switches[dpid]
                if not switch.up:
                    continue
                stats = switch.stats()
                if stats["master"] != leader.name:
                    problems.append("%s-master=%s" % (dpid, stats["master"]))
                if stats["master_generation"] != ha.generation:
                    problems.append("%s-gen=%d" % (dpid,
                                                   stats["master_generation"]))
                pending += stats["pending_controller"]
            if pending:
                problems.append("pending-buffers=%d" % pending)
        detail = ("leader=%s generation=%d replicas=%d"
                  % (ha.leader_name, ha.generation, len(ha.replicas)))
        if problems:
            detail += " problems=" + ",".join(problems)
        return InvariantResult(I_HA_CONVERGENCE,
                               PASS if not problems else FAIL, detail)

    def _check_ha_divergence(self, ha) -> InvariantResult:
        """Zero generation-stamped rule divergence between the promoted
        leader's desired state and the live flow tables — the anti-
        entropy sweep fully repaired every failover."""
        divergence = ha.rule_divergence()
        detail = ("rule_divergence=%d (stale=%d missing=%d mismatched=%d)"
                  % (divergence["total"], divergence["stale"],
                     divergence["missing"], divergence["mismatched"]))
        return InvariantResult(I_HA_DIVERGENCE,
                               PASS if divergence["total"] == 0 else FAIL,
                               detail)

    def _check_ha_fencing(self, ha, expectations) -> InvariantResult:
        """Every stale-master mutation was rejected: the switches fenced
        at least as many messages as the harness provably sent from
        deposed masters, and no probe FlowMod landed in a table."""
        fencing = ha.fencing_summary()
        probes = expectations.get("probes", 0)
        problems: List[str] = []
        if probes and fencing["switch_rejections"] < probes:
            problems.append("rejections<probes")
        probe_match = expectations.get("probe_match")
        if probe_match is not None:
            reference = ha.leader if ha.leader is not None \
                else ha.replicas[0]
            for dpid in sorted(reference.sdn.switches):
                switch = reference.sdn.switches[dpid]
                if any(entry.match == probe_match
                       for entry in switch.flows):
                    problems.append("probe-rule-applied@%s" % dpid)
        detail = ("switch_rejections=%d replica_fenced=%d probes=%d"
                  % (fencing["switch_rejections"],
                     fencing["replica_fenced"], probes))
        if problems:
            detail += " problems=" + ",".join(problems)
        return InvariantResult(I_HA_FENCING,
                               PASS if not problems else FAIL, detail)

    def _check_ha_blackout(self, ha, expectations) -> InvariantResult:
        """Every failover reconciled, and the control-plane blackout
        (failure detection to reconciliation) stayed under budget."""
        summary = ha.blackout_summary()
        minimum = expectations.get("min_failovers", 1)
        ok = (summary["unreconciled"] == 0
              and summary["failovers"] >= minimum
              and summary["max_blackout_ms"] <= summary["budget_ms"])
        detail = ("failovers=%d unreconciled=%d max_blackout_ms=%.3f "
                  "budget_ms=%.3f"
                  % (summary["failovers"], summary["unreconciled"],
                     summary["max_blackout_ms"], summary["budget_ms"]))
        return InvariantResult(I_HA_BLACKOUT, PASS if ok else FAIL, detail)


# -- the chaos runner ----------------------------------------------------------


@dataclass
class RegimeSpec:
    """One planned targeted-regime instance (deterministic, renderable)."""

    kind: str
    when: float
    detail: str
    #: Width of the kind column in the rendered schedule.
    width: int = 18

    def describe(self) -> str:
        return "%-*s t=%6.2f %s" % (self.width, self.kind, self.when,
                                    self.detail)


@dataclass
class RegimeSchedule:
    """Seeded targeted-regime schedule, shaped like
    :class:`~repro.sim.faults.ChaosSchedule` (``specs`` + ``describe``)."""

    title: str
    seed: int
    specs: List[RegimeSpec]

    def describe(self) -> str:
        lines = ["%s fault schedule seed=%d regimes=%d"
                 % (self.title, self.seed, len(self.specs))]
        lines.extend("  " + spec.describe() for spec in self.specs)
        return "\n".join(lines)


@dataclass
class ChaosRunResult:
    """Everything one seeded chaos run produced, rendered reproducibly."""

    system: str
    seed: int
    mode: str
    schedule: Union[ChaosSchedule, RegimeSchedule]
    plan: FaultPlan
    invariants: InvariantReport
    #: Replicated-control-plane summary (``ha`` mode only).
    ha: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return self.invariants.ok

    def render(self) -> str:
        header = ("chaos run system=%s seed=%d acked=%s"
                  % (self.system, self.seed, self.mode == "acked"))
        if self.mode in ("exactly-once", "ha"):
            header += " %s=True" % self.mode
        sections = [
            header,
            self.schedule.describe(),
            self.plan.render(),
            self.invariants.render(),
            self.invariants.conservation.render(),
        ]
        if self.ha is not None:
            sections.append(self._render_ha())
        return "\n".join(sections)

    def _render_ha(self) -> str:
        ha = self.ha
        blackout = ha["blackout"]
        divergence = ha["rule_divergence"]
        fencing = ha["fencing"]
        lines = [
            "ha summary",
            "----------",
            "leader=%s generation=%d replicas=%d"
            % (ha["leader"], ha["generation"], len(ha["replicas"])),
            "failovers=%d unreconciled=%d max_blackout_ms=%.3f "
            "budget_ms=%.3f"
            % (blackout["failovers"], blackout["unreconciled"],
               blackout["max_blackout_ms"], blackout["budget_ms"]),
            "rule_divergence=%d (stale=%d missing=%d mismatched=%d)"
            % (divergence["total"], divergence["stale"],
               divergence["missing"], divergence["mismatched"]),
            "fencing switch_rejections=%d replica_fenced=%d probes=%d"
            % (fencing["switch_rejections"], fencing["replica_fenced"],
               ha.get("probes", 0)),
        ]
        for record in ha["failovers_detail"]:
            lines.append(
                "  g=%d %s<-%s detected=%.3f promoted=%.3f "
                "blackout_ms=%s stale_deleted=%d repaired=%d"
                % (record["generation"], record["leader"],
                   record["previous"], record["detected_at"],
                   record["promoted_at"],
                   "%.3f" % record["blackout_ms"]
                   if record["blackout_ms"] is not None
                   else ("superseded" if record.get("superseded")
                         else "-"),
                   record["stale_deleted"], record["repaired"]))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        payload = self.invariants.to_dict()
        payload.update({
            "system": self.system,
            "seed": self.seed,
            "mode": self.mode,
            "specs": [spec.describe() for spec in self.schedule.specs],
            "faults_fired": list(self.plan.fired),
            "faults_clamped": list(self.plan.clamped),
            "faults_unresolved": list(self.plan.unresolved),
        })
        if self.ha is not None:
            payload["ha"] = self.ha
        return payload


#: Every mode warms up this long before its faults arm; the workloads run
#: with these parallelisms.
WARMUP = 4.0
RELAYS = 2
SINKS = 2
REPLICAS = 3


def _random_faults(cluster, physical, seed: int,
                   window: Tuple[float, float],
                   count: int) -> Tuple[ChaosSchedule, FaultPlan]:
    """A seeded random mix of every fault kind the runtime supports."""
    kinds = TYPHOON_KINDS if isinstance(cluster, TyphoonCluster) \
        else STORM_KINDS
    schedule = ChaosSchedule(seed, kinds=kinds,
                             workers=sorted(physical.assignments),
                             hosts=sorted(cluster.manager.agents),
                             window=window, count=count)
    return schedule, schedule.apply(cluster)


#: Fault regimes the exactly-once mode cycles through. Faults target
#: only the replica group, the links between its hosts, and the control
#: plane — never spouts or relays: loss upstream of the sequencer is
#: outside the exactly-once boundary (that is the replay stack's job).
EXACTLY_ONCE_REGIMES = ("replica-kill", "leader-kill", "broadcast-flap",
                        "controller-outage")


def _exactly_once_faults(cluster, physical, seed: int,
                         window: Tuple[float, float],
                         count: int) -> Tuple[RegimeSchedule, FaultPlan]:
    """The targeted fault plan against the workload's replica group.

    Kill victims are resolved *at fire time* (``FaultPlan.custom``):
    "the leader" means whoever leads when the injection fires, so a
    leader-kill regime lands on the promoted successor mid-failover
    rather than on a stale snapshot of the membership."""
    group = cluster.replication.group_of("exactly-once", "rstate")
    if group is None:
        raise RuntimeError("replicated workload deployed no replica group")
    rng = random.Random(seed)
    plan = FaultPlan(cluster)
    specs: List[RegimeSpec] = []
    start, end = window
    step = (end - start) / max(1, count)
    group_hosts = sorted(set(group.hosts.values()))

    def kill(role: str):
        def action() -> None:
            if role == "leader":
                victim = group.leader
            else:
                candidates = sorted(worker_id for worker_id in group.alive
                                    if worker_id != group.leader)
                victim = candidates[-1] if candidates else None
            if victim is not None:
                _crash(cluster, victim,
                       "exactly-once chaos: %s kill" % role)
        return action

    for index in range(count):
        kind = EXACTLY_ONCE_REGIMES[index % len(EXACTLY_ONCE_REGIMES)]
        when = start + step * (index + rng.uniform(0.1, 0.6))
        if kind == "broadcast-flap" and len(group_hosts) < 2:
            kind = "replica-kill"
        if kind == "replica-kill":
            plan.custom(when, "kill replica follower (dynamic)",
                        kill("follower"))
            specs.append(RegimeSpec(
                kind, when, "highest-id alive follower at fire time"))
        elif kind == "leader-kill":
            plan.custom(when, "kill group leader (dynamic)", kill("leader"))
            plan.custom(when + 0.4,
                        "kill promoted leader mid-failover (dynamic)",
                        kill("leader"))
            specs.append(RegimeSpec(
                kind, when, "leader, then its successor 0.40s later"))
        elif kind == "broadcast-flap":
            host_a, host_b = rng.sample(group_hosts, 2)
            duration = 0.6
            plan.link_flap(host_a, host_b, when, duration)
            specs.append(RegimeSpec(
                kind, when, "%s<->%s down for %.2fs"
                % (host_a, host_b, duration)))
        else:  # controller-outage (+ a replica kill inside the window)
            duration = 1.2
            plan.controller_outage(when, duration)
            plan.custom(when + 0.3,
                        "kill replica follower during controller outage",
                        kill("follower"))
            specs.append(RegimeSpec(
                kind, when, "%.2fs outage, follower killed at +0.30s"
                % duration))
    return RegimeSchedule("exactly-once", seed, specs), plan.arm()


#: Fault regimes the ha mode drives, in order (``count`` does not apply):
#:
#: * ``leader-kill-mid-update`` — crash the elected leader exactly when a
#:   Fig. 6 scale-up announces its ``rules`` phase (flow rules half
#:   installed, routing not yet swapped);
#: * ``successor-kill`` — crash the leader, then crash the freshly
#:   promoted successor again before its anti-entropy sweep can finish;
#: * ``store-partition`` — cut the leader off from the coordination
#:   store so it keeps running as a *stale master*, and prove the
#:   switches fence its mutations (a probe FlowMod must be rejected).
HA_REGIMES = ("leader-kill-mid-update", "successor-kill", "store-partition")


def _ha_faults(cluster, physical, seed: int, window: Tuple[float, float],
               count: int) -> Tuple[RegimeSchedule, FaultPlan]:
    """The three targeted HA regimes against a running cluster; what the
    fencing and blackout checks expect lands in
    ``cluster.ha_expectations``.

    Every kill resolves its victim at fire time ("the leader" means
    whoever leads *then*), and every downed replica restarts well before
    the next regime so each failover is observed in isolation."""
    engine = cluster.engine
    rng = random.Random(seed)
    plan = FaultPlan(cluster)
    specs: List[RegimeSpec] = []
    start, end = window
    step = (end - start) / len(HA_REGIMES)
    probe_dpid = sorted(cluster.sdn.switches)[0]
    probe_match = Match(in_port=199)
    expectations: Dict[str, object] = {
        "probes": 0,
        "probe_match": probe_match,
        "min_failovers": 4,
    }
    cluster.ha_expectations = expectations

    def kill_current_leader(repair_after: float):
        def action() -> None:
            ha = cluster.ha
            victim = ha.leader_name or ha.replicas[0].name
            set_controller_replica_down(cluster, victim, True)
            engine.schedule(repair_after, set_controller_replica_down,
                            cluster, victim, False)
        return action

    # Regime 1: leader killed the instant a scale-up announces that its
    # flow rules are in — the worst mid-update moment, half the new
    # data plane programmed by a controller that just died.
    t_update = round(start + step * rng.uniform(0.1, 0.3), 3)
    engine.schedule(max(0.0, t_update - engine.now),
                    cluster.set_parallelism, "chaos", "relay", RELAYS + 1)
    plan.at_phase("chaos", "scale_up", "rules",
                  kill_current_leader(repair_after=2.5),
                  description="kill leader at scale-up rules phase")
    specs.append(RegimeSpec(HA_REGIMES[0], t_update,
                            "scale relay->%d, kill fire-time leader at the "
                            "rules phase, restart +2.50s" % (RELAYS + 1),
                            width=22))

    # Regime 2: double failure — the promoted successor dies too, after
    # it claimed the switches but (typically) before its reconciliation
    # sweep finished; the third replica must converge the plane.
    t_double = round(start + step * (1 + rng.uniform(0.1, 0.3)), 3)
    plan.custom(t_double, "kill leader (dynamic)",
                kill_current_leader(repair_after=3.0))
    plan.custom(t_double + 0.9, "kill promoted successor (dynamic)",
                kill_current_leader(repair_after=3.0))
    specs.append(RegimeSpec(HA_REGIMES[1], t_double,
                            "leader, then its successor 0.90s later, "
                            "restarts +3.00s", width=22))

    # Regime 3: the leader loses the store but keeps running — a stale
    # master. After the survivors elect a new leader, the stale one
    # provably tries a FlowMod; the switches must fence it.
    t_split = round(start + step * (2 + rng.uniform(0.1, 0.3)), 3)
    split_holder: Dict[str, str] = {}

    def partition() -> None:
        ha = cluster.ha
        victim = ha.leader_name or ha.replicas[0].name
        split_holder["victim"] = victim
        set_store_partition(cluster, victim, True)

    def heal() -> None:
        victim = split_holder.get("victim")
        if victim is not None:
            set_store_partition(cluster, victim, False)

    def probe() -> None:
        victim = split_holder.get("victim")
        if victim is None:
            return
        expectations["probes"] = expectations.get("probes", 0) + 1
        # The deposed master mutates the data plane; the switch must
        # reject this (and tell it so via a stale RoleReply).
        cluster.ha.replica(victim).sdn.install_flow(
            probe_dpid, probe_match, (), priority=1)

    plan.custom(t_split, "partition leader from store", partition,
                duration=2.0, restore=heal)
    plan.custom(t_split + 1.2, "stale-master probe FlowMod", probe)
    specs.append(RegimeSpec(HA_REGIMES[2], t_split,
                            "leader loses the store for 2.00s; stale-master "
                            "FlowMod probe at +1.20s", width=22))
    return RegimeSchedule("controller-ha", seed, specs), plan.arm()


def _chaos_workload(config: TopologyConfig):
    return chaos_topology("chaos", config, relays=RELAYS, sinks=SINKS)


def _replicated_workload(config: TopologyConfig):
    return replicated_topology("exactly-once", config, relays=RELAYS,
                               replicas=REPLICAS)


@dataclass(frozen=True)
class Regime:
    """Everything that differs between the chaos modes."""

    systems: Tuple[str, ...]
    workload: Callable[[TopologyConfig], object]
    #: ``TopologyConfig`` fields on top of the batch size and spout rate.
    config: Dict[str, object]
    #: Whether the dedup registry forgives at-least-once replays.
    at_least_once: bool
    #: Controller replicas (0 deploys the single controller).
    ha_replicas: int
    #: ``(cluster, physical, seed, window, count)`` -> schedule and the
    #: armed plan.
    faults: Callable
    #: The faults fire in ``[WARMUP, max(WARMUP + span, duration - tail)]``.
    span: float
    tail: float
    #: Virtual seconds the run continues past ``duration`` before the
    #: quiesce; each covers the slowest repair its faults can start.
    recovery: float


REGIMES: Dict[str, Regime] = {
    # Loss is attributed but not repaired; recovery covers a supervisor
    # restart (~3 s).
    "best-effort": Regime(
        systems=("typhoon", "storm"), workload=_chaos_workload, config={},
        at_least_once=False, ha_replicas=0, faults=_random_faults,
        span=1.0, tail=2.0, recovery=5.0),
    # The full reliability stack under the same faults, held to zero
    # permanently-lost roots: every replayed tuple needs time to drain
    # through backoff plus a possible supervisor restart.
    "acked": Regime(
        systems=("typhoon", "storm"), workload=_chaos_workload,
        config=dict(acking=True, num_ackers=1, tuple_timeout=2.0,
                    max_pending=48, replay_enabled=True,
                    replay_max_retries=12, replay_backoff_base=0.25,
                    replay_backoff_factor=2.0, replay_backoff_max=1.0,
                    checkpoint_interval=0.5, reliable_control=True),
        at_least_once=True, ha_replicas=0, faults=_random_faults,
        span=1.0, tail=2.0, recovery=8.0),
    # The replicated workload, held to zero lost and zero duplicate
    # commits; recovery covers supervisor restart (~3 s) + rejoin + log
    # repair + the re-emit age gate.
    "exactly-once": Regime(
        systems=("typhoon",), workload=_replicated_workload,
        config={"reliable_control": True}, at_least_once=False,
        ha_replicas=0, faults=_exactly_once_faults,
        span=1.0, tail=3.0, recovery=6.0),
    # A replicated control plane; recovery covers the last regime's
    # heal plus a full failback (session timeout + promotion +
    # reconciliation sweep).
    "ha": Regime(
        systems=("typhoon",), workload=_chaos_workload, config={},
        at_least_once=False, ha_replicas=REPLICAS, faults=_ha_faults,
        span=3.0, tail=3.0, recovery=6.0),
}


def regime_for(system: str, mode: str) -> Regime:
    """The :data:`REGIMES` row of ``mode``; ``ValueError`` if it does not
    run on ``system``."""
    regime = REGIMES[mode]
    if system not in regime.systems:
        raise ValueError("%s chaos needs the %s runtime"
                         % (mode, " or ".join(regime.systems)))
    return regime


def run_chaos(system: str = "typhoon", seed: int = 0, hosts: int = 3,
              duration: float = 16.0, faults: int = 6, rate: float = 1500.0,
              mode: str = "best-effort") -> ChaosRunResult:
    """One seeded chaos scenario end to end.

    Deploy the mode's workload with a fault detector and a dedup
    registry, warm up, arm the mode's fault plan inside its window, run
    to ``duration`` plus the mode's recovery time, then quiesce and
    check the six invariants (plus the four HA invariants in ``ha``
    mode).
    """
    regime = regime_for(system, mode)
    engine = Engine()
    if system == "typhoon":
        cluster = TyphoonCluster(engine, num_hosts=hosts, seed=seed,
                                 ha_replicas=regime.ha_replicas)
        cluster.register_app_factory(lambda: FaultDetector(cluster))
    else:
        cluster = StormCluster(engine, num_hosts=hosts, seed=seed)
    cluster.services[DEDUP_SERVICE] = DedupRegistry(
        at_least_once=regime.at_least_once)
    config = TopologyConfig(batch_size=50, max_spout_rate=rate,
                            **regime.config)
    physical = cluster.submit(regime.workload(config))
    engine.run(until=WARMUP)

    window = (WARMUP, max(WARMUP + regime.span, duration - regime.tail))
    schedule, plan = regime.faults(cluster, physical, seed, window, faults)
    cluster.chaos_plan = plan

    engine.run(until=duration + regime.recovery)
    invariants = InvariantChecker(cluster).run()
    ha = getattr(cluster, "ha", None)
    if ha is not None:
        ha = dict(ha.snapshot())
        ha["failovers_detail"] = ha.pop("failovers")
        ha["probes"] = cluster.ha_expectations["probes"]
    return ChaosRunResult(system=system, seed=seed, mode=mode,
                          schedule=schedule, plan=plan,
                          invariants=invariants, ha=ha)


def chaos_snapshot(cluster) -> Dict[str, object]:
    """Live (non-quiescing) chaos state for the ``GET /chaos`` route.

    In-flight tuples make the conservation residual non-zero on a
    running cluster; this is a dashboard view, not the oracle —
    :class:`InvariantChecker` is the strict check.
    """
    snapshot: Dict[str, object] = {
        "conservation": conservation_report(cluster).to_dict(),
    }
    services = getattr(cluster, "services", {})
    registry = services.get(DEDUP_SERVICE)
    if isinstance(registry, DedupRegistry):
        snapshot["duplicates"] = {
            "tracked": registry.tracked,
            "duplicates": registry.duplicates,
            "redelivered": registry.redelivered,
            "at_least_once": registry.at_least_once,
        }
    replay = services.get(REPLAY_SERVICE)
    if isinstance(replay, ReplayService) and replay.buffers:
        snapshot["replay"] = replay.totals()
    replication = getattr(cluster, "replication", None)
    if replication is not None and replication.active():
        snapshot["replication"] = {
            "totals": replication.totals(),
            "groups": replication.snapshot(),
        }
    checkpoints = services.get(CHECKPOINT_SERVICE)
    if isinstance(checkpoints, CheckpointStore) and checkpoints.saves:
        snapshot["checkpoints"] = checkpoints.stats()
    ackers: Dict[str, object] = {}
    manager = getattr(cluster, "manager", None)
    if manager is not None and hasattr(cluster, "executors_for"):
        for topology_id in sorted(manager.topologies):
            for executor in cluster.executors_for(topology_id,
                                                  ACKER_COMPONENT):
                if isinstance(executor.component, AckerBolt):
                    ackers["%s/%d" % (topology_id, executor.worker_id)] = (
                        executor.component.stats())
    if ackers:
        snapshot["ackers"] = ackers
    sdn = getattr(cluster, "sdn", None)
    if sdn is not None:
        snapshot["controller"] = {
            "up": sdn.up,
            "outages": sdn.outages,
            "control_dropped": sdn.control_dropped,
        }
        snapshot["switches"] = {
            dpid: {"up": switch.up, "crashes": switch.crashes,
                   "rules": len(switch.flows)}
            for dpid, switch in sorted(sdn.switches.items())
        }
        detector = next((app for app in sdn.apps
                         if isinstance(app, FaultDetector)), None)
        if detector is not None:
            snapshot["fault_detector"] = {
                "detections": detector.detections,
                "restores": detector.restores,
                "redirected": sorted(detector.redirected),
                "dead_ends": detector.dead_ends,
                "dead_end_events": list(detector.dead_end_events),
            }
        app = getattr(cluster, "app", None)
        if app is not None and hasattr(app, "control_channel_stats"):
            channel = app.control_channel_stats()
            if channel.get("reliable_topologies"):
                snapshot["control_channel"] = channel
    ha = getattr(cluster, "ha", None)
    if ha is not None:
        snapshot["ha"] = ha.snapshot()
    plan = getattr(cluster, "chaos_plan", None)
    if isinstance(plan, FaultPlan):
        snapshot["faults"] = {
            "fired": list(plan.fired),
            "clamped": list(plan.clamped),
            "unresolved": list(plan.unresolved),
        }
    return snapshot
