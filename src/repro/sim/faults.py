"""Failure injection for experiments and tests (the chaos subsystem).

The evaluation's failure scenarios (Fig. 10's NullPointerException,
Fig. 11's OutOfMemoryError) are baked into workload components; this
module provides *external* injectors that operate on a running cluster,
so any topology can be subjected to failures without modifying its code.

Worker/host faults (any runtime):

* :func:`kill_worker_at` — crash a specific worker at a virtual time;
* :func:`crash_loop` — keep re-crashing a worker as it restarts (the
  persistent-fault mode of Fig. 10);
* :func:`host_failure_at` — take down every worker on a host at once.

SDN data/control-plane faults (Typhoon runtime only — they drive the
knobs on :class:`~repro.net.tcp.TcpTunnel`,
:class:`~repro.sdn.switch.SoftwareSwitch` and
:class:`~repro.sdn.controller.SdnController`):

* :func:`set_link_down` / :func:`set_link_loss` / :func:`set_link_delay`
  — partition, corrupt or slow the host-level tunnel between two hosts;
* :func:`set_switch_down` — crash/restore a software switch (flow tables
  lost, controller re-syncs on reconnect);
* :func:`set_controller_down` — controller outage (events and sends
  queue, flush FIFO on recovery);
* :func:`set_control_fault` — delay or drop PacketIn/PacketOut traffic.

Composition:

* :class:`FaultPlan` — compose a schedule of injections and account for
  what actually fired, what was clamped to "now", and what resolved;
* :class:`ChaosSpec` / :class:`ChaosSchedule` — a seeded random scenario
  generator (driven by :mod:`repro.sim.rng`): the same seed always
  yields the same specs, targets, durations and per-spec RNG streams,
  which is what makes chaos runs replayable bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .engine import Engine, Interrupt, Process
from .rng import as_factory


class InjectedWorkerFault(RuntimeError):
    """The error used for externally injected worker crashes."""


def _crash(cluster, worker_id: int, reason: str) -> bool:
    executor = cluster.executor(worker_id)
    if executor is None or not executor.alive:
        return False
    executor._crash(InjectedWorkerFault(reason))
    return True


def kill_worker_at(cluster, worker_id: int, when: float,
                   reason: str = "injected fault") -> None:
    """Crash one worker at virtual time ``when`` (one-shot).

    A ``when`` in the past fires immediately: by the time a caller
    composes a schedule against a running cluster the intended instant
    may already have passed, and "as soon as possible" preserves the
    scenario better than refusing it (use :class:`FaultPlan` when the
    clamping itself must be visible in the accounting).
    """
    delay = max(0.0, when - cluster.engine.now)
    cluster.engine.schedule(delay, _crash, cluster, worker_id, reason)


def crash_loop(cluster, worker_id: int, start: float,
               recheck_interval: float = 0.2,
               until: Optional[float] = None) -> Process:
    """Persistently crash a worker: every restart dies again (the
    Fig. 10 failure mode, injected externally).

    With ``until`` set, the recheck process is interrupted at exactly
    that time instead of lingering up to ``recheck_interval`` past it
    waiting for its next wakeup.
    """
    engine: Engine = cluster.engine

    def loop():
        if start > engine.now:
            yield start - engine.now
        while until is None or engine.now < until:
            _crash(cluster, worker_id, "persistent injected fault")
            try:
                yield recheck_interval
            except Interrupt:
                return

    process = engine.process(loop(), name="crash-loop:%d" % worker_id)
    if until is not None:
        def expire() -> None:
            if process.alive:
                process.interrupt("crash loop expired")

        engine.schedule(max(0.0, until - engine.now), expire)
    return process


def host_failure_at(cluster, hostname: str, when: float) -> None:
    """Crash every worker running on a host at time ``when`` (clamped to
    "now" when already past, like :func:`kill_worker_at`).

    Models a machine loss as seen by the framework: every worker dies at
    once (in Typhoon, every port on that host's switch disappears and
    the fault detector reroutes around all of them)."""

    def fail_host() -> None:
        agent = cluster.manager.agents.get(hostname)
        if agent is None:
            return
        for worker_id in list(agent.workers):
            _crash(cluster, worker_id, "host %s failed" % hostname)

    cluster.engine.schedule(max(0.0, when - cluster.engine.now), fail_host)


# -- SDN data/control-plane state changers ------------------------------------


def _tunnel(cluster, host_a: str, host_b: str):
    fabric = getattr(cluster, "fabric", None)
    if fabric is None:
        raise ValueError("cluster has no host fabric; link faults need "
                         "the Typhoon runtime")
    tunnel = fabric.host(host_a).tunnels.get(host_b)
    if tunnel is None:
        raise ValueError("no tunnel between %r and %r" % (host_a, host_b))
    return tunnel


def set_link_down(cluster, host_a: str, host_b: str, down: bool) -> None:
    """Partition (or heal) the tunnel between two hosts. TCP semantics:
    writes queue during the partition and drain in order on heal."""
    _tunnel(cluster, host_a, host_b).set_down(down)


def set_link_loss(cluster, host_a: str, host_b: str, rate: float,
                  rng=None) -> None:
    """Make the tunnel drop whole writes with probability ``rate``
    (drops are charged to the ledger as ``link-loss``)."""
    _tunnel(cluster, host_a, host_b).set_loss(rate, rng)


def set_link_delay(cluster, host_a: str, host_b: str, extra: float) -> None:
    """Add ``extra`` seconds of one-way latency to the tunnel (0 heals)."""
    _tunnel(cluster, host_a, host_b).set_chaos_delay(extra)


def set_switch_down(cluster, hostname: str, down: bool) -> None:
    """Crash (or restart) the software switch on one host."""
    fabric = getattr(cluster, "fabric", None)
    if fabric is None:
        raise ValueError("cluster has no host fabric; switch faults need "
                         "the Typhoon runtime")
    switch = fabric.host(hostname).switch
    if down:
        switch.crash()
    else:
        switch.restore()


def set_controller_down(cluster, down: bool) -> None:
    """Start (or end) an SDN controller outage."""
    sdn = getattr(cluster, "sdn", None)
    if sdn is None:
        raise ValueError("cluster has no SDN controller")
    if down:
        sdn.fail()
    else:
        sdn.recover()


def set_control_fault(cluster, extra_delay: float = 0.0,
                      drop_rate: float = 0.0, rng=None) -> None:
    """Degrade (or with defaults, heal) the PacketIn/PacketOut channel."""
    sdn = getattr(cluster, "sdn", None)
    if sdn is None:
        raise ValueError("cluster has no SDN controller")
    sdn.set_control_fault(extra_delay=extra_delay, drop_rate=drop_rate,
                          rng=rng)


def _ha_plane(cluster):
    ha = getattr(cluster, "ha", None)
    if ha is None:
        raise ValueError("cluster has no replicated control plane; HA "
                         "faults need ha_replicas >= 2")
    return ha


def set_controller_replica_down(cluster, name: str, down: bool) -> None:
    """Crash (or restart) one named controller replica. The election
    detects the death after the session timeout and promotes a standby."""
    replica = _ha_plane(cluster).replica(name)
    if down:
        replica.fail()
    else:
        replica.recover()


def set_store_partition(cluster, name: str, partitioned: bool) -> None:
    """Partition one controller replica from the coordination store (or
    heal it). The replica keeps running — if it was the leader it becomes
    a *stale master* the switches must fence — but its heartbeats stop,
    so its session expires and the survivors elect a new leader."""
    _ha_plane(cluster).replica(name).store_reachable = not partitioned


# -- composition ---------------------------------------------------------------


@dataclass
class _Injection:
    when: float
    description: str
    action: Callable[[], None]
    #: seconds after ``action`` until ``restore`` runs (0 = instant fault)
    duration: float = 0.0
    restore: Optional[Callable[[], None]] = None
    #: "time" injections arm on the engine clock; "phase" injections arm
    #: on a named Fig. 6 update phase (see FaultPlan.at_phase).
    trigger: str = "time"
    phase_key: Optional[Tuple[str, str, str]] = None
    fired: bool = False
    #: the requested time was already past at arm(); fired immediately
    clamped: bool = False
    #: instant faults resolve when fired; durable ones when restored
    resolved: bool = False


class FaultPlan:
    """A declarative schedule of fault injections against one cluster.

    Each entry tracks whether it ``fired``, whether its requested time
    was ``clamped`` to "now" at arm time, and whether it ``resolved``
    (instant faults resolve on firing; durable faults — outages, lossy
    links, crash loops — once their restore action ran).
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self.injections: List[_Injection] = []
        self._armed = False

    # -- worker/host faults ------------------------------------------------

    def kill_worker(self, worker_id: int, when: float) -> "FaultPlan":
        injection = _Injection(when, "kill worker %d" % worker_id,
                               lambda: _crash(self.cluster, worker_id,
                                              "planned kill"))
        self.injections.append(injection)
        return self

    def crash_loop(self, worker_id: int, when: float, until: float,
                   recheck_interval: float = 0.2) -> "FaultPlan":
        """Keep a worker down from ``when`` to ``until``; the recheck
        process is cancelled (and the entry resolved) at ``until`` even
        if the worker never restarted in between."""
        holder: dict = {}

        def action() -> None:
            holder["process"] = crash_loop(
                self.cluster, worker_id, start=self.cluster.engine.now,
                recheck_interval=recheck_interval, until=until)

        def restore() -> None:
            process = holder.get("process")
            if process is not None and process.alive:
                process.interrupt("crash loop expired")

        self.injections.append(_Injection(
            when, "crash-loop worker %d" % worker_id, action,
            duration=max(0.0, until - when), restore=restore))
        return self

    def fail_host(self, hostname: str, when: float) -> "FaultPlan":
        def action() -> None:
            agent = self.cluster.manager.agents.get(hostname)
            if agent is None:
                return
            for worker_id in list(agent.workers):
                _crash(self.cluster, worker_id, "host failure")

        self.injections.append(
            _Injection(when, "fail host %s" % hostname, action))
        return self

    # -- link faults -------------------------------------------------------

    def link_flap(self, host_a: str, host_b: str, when: float,
                  duration: float) -> "FaultPlan":
        self.injections.append(_Injection(
            when, "partition link %s<->%s" % (host_a, host_b),
            lambda: set_link_down(self.cluster, host_a, host_b, True),
            duration=duration,
            restore=lambda: set_link_down(self.cluster, host_a, host_b,
                                          False)))
        return self

    def link_loss(self, host_a: str, host_b: str, when: float,
                  duration: float, rate: float, rng) -> "FaultPlan":
        self.injections.append(_Injection(
            when, "lossy link %s<->%s rate=%.4f" % (host_a, host_b, rate),
            lambda: set_link_loss(self.cluster, host_a, host_b, rate, rng),
            duration=duration,
            restore=lambda: set_link_loss(self.cluster, host_a, host_b,
                                          0.0)))
        return self

    def link_delay(self, host_a: str, host_b: str, when: float,
                   duration: float, extra: float) -> "FaultPlan":
        self.injections.append(_Injection(
            when, "slow link %s<->%s extra=%.4f" % (host_a, host_b, extra),
            lambda: set_link_delay(self.cluster, host_a, host_b, extra),
            duration=duration,
            restore=lambda: set_link_delay(self.cluster, host_a, host_b,
                                           0.0)))
        return self

    # -- switch / controller faults ----------------------------------------

    def switch_outage(self, hostname: str, when: float,
                      duration: float) -> "FaultPlan":
        self.injections.append(_Injection(
            when, "crash switch %s" % hostname,
            lambda: set_switch_down(self.cluster, hostname, True),
            duration=duration,
            restore=lambda: set_switch_down(self.cluster, hostname, False)))
        return self

    def controller_outage(self, when: float, duration: float) -> "FaultPlan":
        self.injections.append(_Injection(
            when, "controller outage",
            lambda: set_controller_down(self.cluster, True),
            duration=duration,
            restore=lambda: set_controller_down(self.cluster, False)))
        return self

    def control_delay(self, when: float, duration: float,
                      extra: float) -> "FaultPlan":
        self.injections.append(_Injection(
            when, "control-channel delay extra=%.4f" % extra,
            lambda: set_control_fault(self.cluster, extra_delay=extra),
            duration=duration,
            restore=lambda: set_control_fault(self.cluster)))
        return self

    def control_drop(self, when: float, duration: float, rate: float,
                     rng) -> "FaultPlan":
        self.injections.append(_Injection(
            when, "control-channel drop rate=%.4f" % rate,
            lambda: set_control_fault(self.cluster, drop_rate=rate, rng=rng),
            duration=duration,
            restore=lambda: set_control_fault(self.cluster)))
        return self

    # -- dynamic faults ----------------------------------------------------

    def custom(self, when: float, description: str,
               action: Callable[[], None], duration: float = 0.0,
               restore: Optional[Callable[[], None]] = None) -> "FaultPlan":
        """Schedule an arbitrary action with FaultPlan accounting.

        For faults whose target is only knowable at fire time — e.g.
        "kill whoever currently leads the replica group": the victim is
        resolved inside ``action`` when the injection fires, not when
        the schedule is built."""
        self.injections.append(_Injection(when, description, action,
                                          duration=duration,
                                          restore=restore))
        return self

    # -- mid-update faults -------------------------------------------------

    def at_phase(self, topology_id: str, op: str, phase: str,
                 action: Callable[[], None],
                 description: str = "") -> "FaultPlan":
        """Fire ``action`` the first time the named Fig. 6 update phase
        is announced for ``(topology_id, op)`` — e.g. crash a switch
        right after a stateful scale-up pushed its SIGNALs."""
        self.injections.append(_Injection(
            when=-1.0,
            description=description or ("%s at %s/%s" % (op, phase,
                                                         topology_id)),
            action=action, trigger="phase",
            phase_key=(topology_id, op, phase)))
        return self

    # -- arming / accounting -----------------------------------------------

    def arm(self) -> "FaultPlan":
        """Schedule every injection. Past times fire immediately and are
        recorded as clamped rather than aborting the plan: the scenario
        still runs, and the accounting shows what was stretched."""
        if self._armed:
            raise RuntimeError("fault plan is already armed")
        self._armed = True
        engine = self.cluster.engine
        now = engine.now
        phase_injections = [i for i in self.injections
                            if i.trigger == "phase"]
        if phase_injections:
            listeners = getattr(self.cluster, "update_phase_listeners", None)
            if listeners is None:
                raise ValueError("cluster does not announce update phases")

            def on_phase(topology_id: str, op: str, phase: str) -> None:
                for injection in phase_injections:
                    if injection.fired:
                        continue
                    if injection.phase_key == (topology_id, op, phase):
                        self._fire(injection)

            listeners.append(on_phase)
        for injection in self.injections:
            if injection.trigger != "time":
                continue
            delay = injection.when - now
            if delay < 0:
                injection.clamped = True
                delay = 0.0
            engine.schedule(delay, self._fire, injection)
        return self

    def _fire(self, injection: _Injection) -> None:
        injection.fired = True
        injection.action()
        if injection.restore is None:
            injection.resolved = True
        else:
            self.cluster.engine.schedule(injection.duration,
                                         self._restore, injection)

    def _restore(self, injection: _Injection) -> None:
        injection.restore()
        injection.resolved = True

    @property
    def fired(self) -> List[str]:
        return [i.description for i in self.injections if i.fired]

    @property
    def clamped(self) -> List[str]:
        return [i.description for i in self.injections if i.clamped]

    @property
    def unresolved(self) -> List[str]:
        return [i.description for i in self.injections if not i.resolved]

    def render(self) -> str:
        """Deterministic accounting table (part of the chaos report)."""
        lines = ["fault plan (%d injections)" % len(self.injections)]
        for injection in self.injections:
            flags = []
            if injection.clamped:
                flags.append("clamped")
            if not injection.fired:
                flags.append("pending")
            elif not injection.resolved:
                flags.append("active")
            lines.append("  [%s] t=%.3f dur=%.3f %s" % (
                ",".join(flags) if flags else "ok",
                injection.when, injection.duration,
                injection.description))
        return "\n".join(lines)


# -- seeded chaos scenarios ----------------------------------------------------

KIND_KILL_WORKER = "kill-worker"
KIND_CRASH_LOOP = "crash-loop"
KIND_HOST_FAILURE = "host-failure"
KIND_LINK_FLAP = "link-flap"
KIND_LINK_LOSS = "link-loss"
KIND_LINK_DELAY = "link-delay"
KIND_SWITCH_OUTAGE = "switch-outage"
KIND_CONTROLLER_OUTAGE = "controller-outage"
KIND_CONTROL_DELAY = "control-delay"
KIND_CONTROL_DROP = "control-drop"

#: Fault menu for the Typhoon runtime (full SDN data/control plane).
TYPHOON_KINDS: Tuple[str, ...] = (
    KIND_KILL_WORKER, KIND_CRASH_LOOP, KIND_HOST_FAILURE,
    KIND_LINK_FLAP, KIND_LINK_LOSS, KIND_LINK_DELAY,
    KIND_SWITCH_OUTAGE, KIND_CONTROLLER_OUTAGE,
    KIND_CONTROL_DELAY, KIND_CONTROL_DROP,
)

#: Fault menu for the Storm baseline (no SDN fabric to break).
STORM_KINDS: Tuple[str, ...] = (
    KIND_KILL_WORKER, KIND_CRASH_LOOP, KIND_HOST_FAILURE,
)

_WORKER_KINDS = (KIND_KILL_WORKER, KIND_CRASH_LOOP)
_HOST_KINDS = (KIND_HOST_FAILURE, KIND_SWITCH_OUTAGE)
_LINK_KINDS = (KIND_LINK_FLAP, KIND_LINK_LOSS, KIND_LINK_DELAY)


@dataclass(frozen=True)
class ChaosSpec:
    """One randomized-but-reproducible fault: what, when, how long."""

    kind: str
    when: float
    duration: float = 0.0
    target: Tuple[str, ...] = ()
    value: float = 0.0

    def describe(self) -> str:
        target = ",".join(self.target) if self.target else "-"
        return ("t=%08.3f %-17s target=%-17s dur=%.3f val=%.4f"
                % (self.when, self.kind, target, self.duration, self.value))


class ChaosSchedule:
    """Seeded random composition of fault scenarios.

    The generator draws every choice (kind, target, instant, duration,
    rate) from one named RNG stream, so a ``(seed, menus, window,
    count)`` tuple always produces the identical spec list; the RNGs
    handed to lossy-link / control-drop injectors are derived per spec
    index from the same seed, so even the probabilistic faults replay
    identically.
    """

    def __init__(self, seed: int, kinds: Sequence[str], workers: Sequence[int],
                 hosts: Sequence[str], window: Tuple[float, float],
                 count: int = 6):
        start, end = window
        if end <= start:
            raise ValueError("chaos window must have positive length")
        factory = as_factory(seed)
        self.seed = factory.root_seed
        self.window = (start, end)
        self._seeds = factory.child("chaos-schedule")
        workers = sorted(workers)
        hosts = sorted(hosts)
        kinds = [k for k in kinds
                 if not (k in _WORKER_KINDS and not workers)
                 and not (k in _HOST_KINDS and not hosts)
                 and not (k in _LINK_KINDS and len(hosts) < 2)]
        if not kinds:
            raise ValueError("no applicable fault kinds for the given "
                             "workers/hosts")
        rng = self._seeds.rng("specs")
        specs: List[ChaosSpec] = []
        for _ in range(count):
            kind = kinds[rng.randrange(len(kinds))]
            when = round(start + rng.random() * (end - start), 3)
            duration = round(0.3 + rng.random() * 1.2, 3)
            duration = min(duration, round(end - when, 3))
            target: Tuple[str, ...] = ()
            value = 0.0
            if kind in _WORKER_KINDS:
                target = (str(workers[rng.randrange(len(workers))]),)
            elif kind in _HOST_KINDS:
                target = (hosts[rng.randrange(len(hosts))],)
            elif kind in _LINK_KINDS:
                first = rng.randrange(len(hosts))
                second = rng.randrange(len(hosts) - 1)
                if second >= first:
                    second += 1
                target = tuple(sorted((hosts[first], hosts[second])))
            if kind == KIND_LINK_LOSS:
                value = round(0.05 + rng.random() * 0.25, 4)
            elif kind == KIND_LINK_DELAY:
                value = round(0.002 + rng.random() * 0.008, 4)
            elif kind == KIND_CONTROL_DELAY:
                value = round(0.001 + rng.random() * 0.004, 4)
            elif kind == KIND_CONTROL_DROP:
                value = round(0.1 + rng.random() * 0.3, 4)
            specs.append(ChaosSpec(kind, when, duration, target, value))
        specs.sort(key=lambda s: (s.when, s.kind, s.target))
        self.specs: List[ChaosSpec] = specs

    def apply(self, cluster) -> FaultPlan:
        """Instantiate the specs as an armed :class:`FaultPlan`."""
        plan = FaultPlan(cluster)
        for index, spec in enumerate(self.specs):
            until = spec.when + spec.duration
            if spec.kind == KIND_KILL_WORKER:
                plan.kill_worker(int(spec.target[0]), spec.when)
            elif spec.kind == KIND_CRASH_LOOP:
                plan.crash_loop(int(spec.target[0]), spec.when, until)
            elif spec.kind == KIND_HOST_FAILURE:
                plan.fail_host(spec.target[0], spec.when)
            elif spec.kind == KIND_LINK_FLAP:
                plan.link_flap(spec.target[0], spec.target[1], spec.when,
                               spec.duration)
            elif spec.kind == KIND_LINK_LOSS:
                plan.link_loss(spec.target[0], spec.target[1], spec.when,
                               spec.duration, spec.value,
                               self._seeds.rng("loss-%d" % index))
            elif spec.kind == KIND_LINK_DELAY:
                plan.link_delay(spec.target[0], spec.target[1], spec.when,
                                spec.duration, spec.value)
            elif spec.kind == KIND_SWITCH_OUTAGE:
                plan.switch_outage(spec.target[0], spec.when, spec.duration)
            elif spec.kind == KIND_CONTROLLER_OUTAGE:
                plan.controller_outage(spec.when, spec.duration)
            elif spec.kind == KIND_CONTROL_DELAY:
                plan.control_delay(spec.when, spec.duration, spec.value)
            elif spec.kind == KIND_CONTROL_DROP:
                plan.control_drop(spec.when, spec.duration, spec.value,
                                  self._seeds.rng("drop-%d" % index))
            else:
                raise ValueError("unknown chaos kind %r" % spec.kind)
        return plan.arm()

    def describe(self) -> str:
        lines = ["chaos schedule seed=%d window=[%.3f, %.3f] specs=%d"
                 % (self.seed, self.window[0], self.window[1],
                    len(self.specs))]
        lines.extend("  " + spec.describe() for spec in self.specs)
        return "\n".join(lines)
