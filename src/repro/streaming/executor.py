"""The worker executor: framework layer + application computation layer.

One :class:`WorkerExecutor` drives one deployed worker (Fig. 4). It

* pulls :class:`~repro.streaming.transport.Delivery` batches off the
  worker's input store, paying the receive-side virtual-time cost,
* classifies tuples (data / signal / ack / control — the *tuple
  classifier* of Fig. 4) and runs the user component on data tuples,
* routes emissions with the per-edge :class:`~repro.streaming.grouping.Router`
  state and hands them to the transport, paying the send-side cost,
* implements guaranteed processing (Storm's XOR ack scheme) when the
  topology enables acking,
* reports worker statistics (queue level, processed/emitted counts) —
  the application-layer metrics the auto-scaler consumes.

Control tuples (Table 2) are dispatched to a pluggable handler installed
by the Typhoon runtime; the Storm baseline leaves it unset, which is
precisely the flexibility gap the paper highlights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.costs import CostModel
from ..sim.engine import Engine, Event, Interrupt, Process
from ..sim.metrics import MetricsRegistry, RateMeter
from ..sim.queues import Store
from ..sim.trace import H_CONTROL, H_QUEUE, Tracer
from .checkpoint import CHECKPOINT_SERVICE, CheckpointStore
from .grouping import Router
from .physical import WorkerAssignment
from .replay import R_EXHAUSTED, REPLAY_SERVICE, ReplayBuffer
from .replication import (
    REORDER_LIMIT,
    REPAIR_BUDGET,
    REPLICATION_SERVICE,
    REPLICATION_TICK,
)
from .topology import (
    BOLT,
    GLOBAL,
    SHUFFLE,
    SPOUT,
    ComponentContext,
    EmitterApi,
    LogicalNode,
    TopologyConfig,
)
from .transport import Delivery, Transport, delivery_bytes
from .tuples import (
    ACK_STREAM,
    CONTROL_STREAM,
    DEFAULT_STREAM,
    SIGNAL_STREAM,
    Anchor,
    StreamTuple,
)

ACK_INIT = "init"
ACK_ACK = "ack"
ACK_COMPLETE = "complete"
ACK_FAIL = "fail"

#: Outgoing routers grouped by stream id: ``stream -> [(key, router)]``
#: with the edge key ``(dst_component, stream)``.
_EdgeIndex = Dict[int, List[Tuple[Tuple[str, int], Router]]]


class WorkerCrashed(RuntimeError):
    """Raised internally when the user component throws."""


class OutOfMemoryError(WorkerCrashed):
    """Worker exceeded its memory budget (OutOfMemoryError in the paper)."""


@dataclass
class WorkerStats:
    """Application-layer statistics (METRIC_RESP payload, Table 2)."""

    emitted: int = 0
    processed: int = 0
    acked: int = 0
    failed: int = 0
    crashes: int = 0
    control_tuples: int = 0
    signals: int = 0

    def snapshot(self, queue_depth: int, queue_bytes: int) -> Dict[str, int]:
        return {
            "emitted": self.emitted,
            "processed": self.processed,
            "acked": self.acked,
            "failed": self.failed,
            "queue_depth": queue_depth,
            "queue_bytes": queue_bytes,
        }


class _PendingRoot:
    """An acked root awaiting completion (one per spout emission)."""

    __slots__ = ("message_id", "emit_time")

    def __init__(self, message_id: Any, emit_time: float):
        self.message_id = message_id
        self.emit_time = emit_time


class _Collector(EmitterApi):
    """Buffers emissions from one component call; the executor then
    routes, anchors and dispatches them with proper cost accounting.

    A ``__slots__`` class: every attribute below is touched inside
    :meth:`emit`, which runs once per tuple produced anywhere in the
    system, and slot loads are measurably cheaper than dict lookups
    at that rate."""

    __slots__ = ("_executor", "_component_name", "_worker_id", "_acking",
                 "buffered", "current_input", "child_xor", "extra_cost",
                 "fast_pending", "fast_stream", "lane_sent", "lane_hop")

    def __init__(self, executor: "WorkerExecutor"):
        self._executor = executor
        # Stable executor identity, cached flat: emit() runs once per
        # tuple produced anywhere in the system, and these never change
        # after the executor's __init__ (which creates this collector
        # last).
        self._component_name = executor.component_name
        self._worker_id = executor.worker_id
        self._acking = executor.acking
        self.buffered: List[Tuple[StreamTuple, Any]] = []
        self.current_input: Optional[StreamTuple] = None
        self.child_xor: int = 0
        self.extra_cost: float = 0.0
        #: Fast-sink mode, installed only by the spout batch loop while
        #: its deferred single-hop dispatch is active: emissions on
        #: exactly ``fast_stream`` (non-acking, non-direct, while no
        #: slower emission is already buffered this call) are appended
        #: straight to this list — the loop dispatches them in one
        #: batched send. ``None`` means normal buffering.
        self.fast_pending: Optional[List[StreamTuple]] = None
        self.fast_stream: int = DEFAULT_STREAM
        #: Acked lane, installed only while the spout batch loop hands
        #: the rest of a window to ``next_tuple_batch``: emit_many with
        #: message ids on ``fast_stream`` (while nothing is buffered)
        #: logs each root's ACK_INIT and anchored tuple, the tuple for
        #: ``lane_hop``, and appends the tuple's log position here.
        self.lane_sent: Optional[List[int]] = None
        self.lane_hop: int = 0

    def charge(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self.extra_cost += seconds

    def emit(self, values: Sequence[Any], stream: int = DEFAULT_STREAM,
             anchor: Optional[StreamTuple] = None,
             message_id: Any = None) -> None:
        # Built field-by-field via __new__: emit() runs once per tuple
        # produced anywhere in the system, and skipping the __init__
        # call frame is measurable at the 1M tuples/sec scale.
        out = StreamTuple.__new__(StreamTuple)
        # Components overwhelmingly emit tuples already; the type check
        # is cheaper than the (identity) tuple() call.
        out.values = values if type(values) is tuple else tuple(values)
        out.stream = stream
        out.source_component = self._component_name
        out.source_worker = self._worker_id
        out.anchor = None
        out.trace_id = None
        out.seq = None
        if self._acking:
            executor = self._executor
            if executor.is_spout and message_id is not None:
                out.anchor = executor._register_root(message_id)
                if executor.replay is not None:
                    executor.replay.register_root(
                        out.anchor.root_id, message_id, out.values, stream)
            else:
                src = anchor if anchor is not None else self.current_input
                if src is not None and src.anchor is not None:
                    edge_id = executor._new_edge_id()
                    out.anchor = Anchor(src.anchor.root_id, edge_id)
                    self.child_xor ^= edge_id
        else:
            fast = self.fast_pending
            if fast is not None and stream == self.fast_stream \
                    and not self.buffered:
                # The ``not buffered`` guard keeps the order invariant
                # the spout loop relies on: within one component call,
                # every fast-sink tuple precedes every buffered one.
                fast.append(out)
                return
        self.buffered.append((out, None))

    def emit_many(self, values_seq: Sequence[Sequence[Any]],
                  stream: int = DEFAULT_STREAM,
                  message_ids: Optional[Sequence[Any]] = None) -> None:
        # Batched lanes for the spout window handoff: one pass with
        # every per-call check hoisted, building the same tuples (and,
        # acked, registering the same roots) in the same order emit()
        # would. Anything else falls back to the exact per-item loop of
        # the base contract.
        if (message_ids is not None and self.lane_sent is not None
                and stream == self.fast_stream and not self.buffered
                and len(message_ids) == len(values_seq)):
            self._emit_roots(values_seq, message_ids, stream)
            return
        fast = self.fast_pending
        if (fast is not None and stream == self.fast_stream
                and not self.buffered and not self._acking):
            # Unacked: emit() ignores message ids here too.
            new = StreamTuple.__new__
            cls = StreamTuple
            name = self._component_name
            worker = self._worker_id
            append = fast.append
            _type = type
            _tuple = tuple
            for values in values_seq:
                out = new(cls)
                out.values = values if _type(values) is _tuple \
                    else _tuple(values)
                out.stream = stream
                out.source_component = name
                out.source_worker = worker
                out.anchor = None
                out.trace_id = None
                out.seq = None
                append(out)
            return
        EmitterApi.emit_many(self, values_seq, stream, message_ids)

    def _emit_roots(self, values_seq: Sequence[Sequence[Any]],
                    message_ids: Sequence[Any], stream: int) -> None:
        """The acked lane of :meth:`emit_many`: for each item, what
        :meth:`emit` with its message id does and the spout loop's
        per-call lane then logs, in one loop. ``_register_root``'s
        steps are inlined in its order — the root id, then the edge id
        from the executor's rng, the pending root, the ACK_INIT logged
        for ``ackers[root % n]`` — then the anchored tuple, its replay
        registration (when replay is on) and its log entry for the
        lane's hop. A ``None`` id emits an unanchored tuple, as
        :meth:`emit` does. A test pins this loop to ``_register_root``
        and the per-call lane: same draws, same pending roots, same
        log."""
        executor = self._executor
        draw = executor.rng.getrandbits
        pending = executor.pending_roots
        now = executor.engine.now
        ackers = executor.ackers
        nackers = len(ackers)
        replay = executor.replay
        log = executor._log_tuples
        dsts = executor._log_dsts
        log_append = log.append
        dst_append = dsts.append
        sent = self.lane_sent.append
        hop = self.lane_hop
        name = self._component_name
        worker = self._worker_id
        new = StreamTuple.__new__
        cls = StreamTuple
        _type = type
        _tuple = tuple
        for values, message_id in zip(values_seq, message_ids):
            out = new(cls)
            out.values = values if _type(values) is _tuple \
                else _tuple(values)
            out.stream = stream
            out.source_component = name
            out.source_worker = worker
            out.anchor = None
            out.trace_id = None
            out.seq = None
            if message_id is not None:
                root = draw(64)
                edge = draw(64)
                pending[root] = _PendingRoot(message_id, now)
                init = new(cls)
                init.values = (ACK_INIT, root, edge, worker)
                init.stream = ACK_STREAM
                init.source_component = name
                init.source_worker = worker
                init.anchor = None
                init.trace_id = None
                init.seq = None
                log_append(init)
                dst_append(ackers[root % nackers])
                out.anchor = Anchor(root, edge)
                if replay is not None:
                    replay.register_root(root, message_id, out.values,
                                         stream)
            sent(len(log))
            log_append(out)
            dst_append(hop)

    def emit_direct(self, worker_id: int, values: Sequence[Any],
                    stream: int = DEFAULT_STREAM) -> None:
        """Send straight to one worker id, bypassing edge routing (used by
        the acker to notify the originating spout). Built field by field,
        as :meth:`emit` does: it carries every COMPLETE and FAIL."""
        out = StreamTuple.__new__(StreamTuple)
        out.values = values if type(values) is tuple else tuple(values)
        out.stream = stream
        out.source_component = self._component_name
        out.source_worker = self._worker_id
        out.anchor = None
        out.trace_id = None
        out.seq = None
        self.buffered.append((out, worker_id))

    def ack(self, stream_tuple: StreamTuple) -> None:
        # Handled automatically after execute(); kept for API parity.
        pass

    def fail(self, stream_tuple: StreamTuple) -> None:
        # Explicit FAIL: the acker drops the ledger and notifies the
        # originating spout immediately instead of waiting for the root
        # to time out (the old scheme XORed a poison value into the
        # ledger so the root could only fail by timeout).
        if stream_tuple.anchor is not None:
            self._executor._post_ack_message(
                ACK_FAIL, stream_tuple.anchor.root_id, 0
            )

    def take(self) -> List[Tuple[StreamTuple, Any]]:
        out, self.buffered = self.buffered, []
        return out


class _RouterMap(dict):
    """The executor's ``routers`` dict with change tracking.

    :meth:`WorkerExecutor._dispatch_emissions` keeps a per-stream index
    over this dict; any key add/remove/replace bumps ``version`` so the
    index is rebuilt lazily on the next dispatch. In-place
    :meth:`Router.update` calls need no bump — the index holds router
    *objects*, and dispatch reads their grouping per tuple.
    """

    __slots__ = ("version",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.version = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.version += 1

    def __delitem__(self, key):
        super().__delitem__(key)
        self.version += 1

    def pop(self, *args):
        self.version += 1
        return super().pop(*args)

    def popitem(self):
        self.version += 1
        return super().popitem()

    def clear(self):
        self.version += 1
        super().clear()

    def update(self, *args, **kwargs):
        super().update(*args, **kwargs)
        self.version += 1

    def setdefault(self, key, default=None):
        self.version += 1
        return super().setdefault(key, default)


class WorkerExecutor:
    """Runs one worker's processing loops on the simulation engine."""

    def __init__(
        self,
        engine: Engine,
        costs: CostModel,
        assignment: WorkerAssignment,
        node: LogicalNode,
        config: TopologyConfig,
        transport: Transport,
        routers: Dict[Tuple[str, int], Router],
        metrics: MetricsRegistry,
        rng,
        topology_id: str,
        ackers: Sequence[int] = (),
        services: Optional[Dict[str, Any]] = None,
        control_handler: Optional[Callable[["WorkerExecutor", StreamTuple], float]] = None,
        on_crash: Optional[Callable[["WorkerExecutor", BaseException], None]] = None,
        emit_batch: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.engine = engine
        self.costs = costs
        self.assignment = assignment
        self.node = node
        self.config = config
        self.transport = transport
        self.routers = _RouterMap(routers)
        self._stream_index: _EdgeIndex = {}
        self._stream_index_version = -1
        self.metrics = metrics
        self.rng = rng
        self.topology_id = topology_id
        self.ackers = list(ackers)
        self.services = services or {}
        self.control_handler = control_handler
        self.on_crash = on_crash
        self.tracer = tracer

        self.worker_id = assignment.worker_id
        self.component_name = assignment.component
        self.is_spout = node.kind == SPOUT
        self.acking = config.acking and bool(self.ackers)
        self.alive = False
        self.active = True            # ACTIVATE / DEACTIVATE (Table 2)
        self.input_rate_limit: Optional[float] = config.max_spout_rate
        self._emit_batch = emit_batch or max(1, config.batch_size)
        # In-flight root cap: node-level setting wins over the topology
        # default (backpressure for the replay path).
        self.max_pending: Optional[int] = (
            node.max_pending if node.max_pending is not None
            else config.max_pending
        )

        self.input_store = Store(engine, sizer=delivery_bytes)
        self.stats = WorkerStats()
        self.collector = _Collector(self)
        self.component = node.factory()
        #: Optional batch component hooks (see :class:`~..topology.Spout`
        #: / :class:`~..topology.Bolt`), resolved once — the component
        #: object never changes over the executor's lifetime.
        self._execute_batch = getattr(self.component, "execute_batch", None)
        self._next_tuple_batch = getattr(self.component, "next_tuple_batch",
                                         None)
        self.pending_roots: Dict[int, _PendingRoot] = {}
        #: Framework-level replay buffer (attached in ``start`` when the
        #: topology enables it); None keeps the legacy fail-and-forget path.
        self.replay: Optional[ReplayBuffer] = None
        #: Checkpoint store (attached in ``start`` for stateful nodes
        #: when the topology enables ``checkpoint_interval``).
        self._checkpoints: Optional[CheckpointStore] = None
        self._deferred_acks: List[Tuple[int, int]] = []
        #: The window log (DESIGN.md §5i): acked sends of the current
        #: spout window or bolt delivery, held back in send order and
        #: handed to ``transport.send_log`` in one call. ``_logging``
        #: is armed only while the loop that replays the log runs
        #: component code, so an ACK_INIT or FAIL posted then joins it.
        self._log_tuples: List[StreamTuple] = []
        self._log_dsts: List[int] = []
        self._logging = False
        #: Sequence numbers of reliable control tuples already applied
        #: (idempotent re-application under controller retries).
        self.applied_control_seqs: set = set()
        #: Active replication (attached in ``start``): the group this
        #: worker is a replica of, and the group whose outputs it must
        #: dedup. Both None on the default path — the two ``is not
        #: None`` tests in _process_delivery are the entire overhead.
        self._rep_group = None
        self._rep_dedup = None
        self._rep_next = 0            # next input seq to apply
        self._rep_out_seq = 0         # outputs produced so far
        self._rep_pending: Dict[int, StreamTuple] = {}  # reorder buffer

        base = "%s.%s.%d" % (topology_id, self.component_name, self.worker_id)
        self.processed_meter: RateMeter = metrics.meter(base + ".processed")
        self.emitted_meter: RateMeter = metrics.meter(base + ".emitted")
        self.latency_dist = metrics.distribution(
            "%s.%s.latency" % (topology_id, self.component_name)
        )

        # Services (e.g. Redis/Kafka clients) that bill virtual-time costs
        # for calls made synchronously inside component code.
        self._billed_services = [
            service for service in self.services.values()
            if hasattr(service, "drain_cost")
        ]
        self._main: Optional[Process] = None
        self._aux: List[Process] = []
        self._pending_get: Optional[Event] = None
        self._draining = False
        self._rate_anchor = 0.0
        self._emitted_since_anchor = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self.alive:
            raise RuntimeError("worker %d already started" % self.worker_id)
        self.alive = True
        # Rate-limit budget accrues from start, not from t=0.
        self._rate_anchor = self.engine.now
        self._emitted_since_anchor = 0
        context = ComponentContext(
            topology_id=self.topology_id,
            component=self.component_name,
            worker_id=self.worker_id,
            task_index=self.assignment.task_index,
            parallelism=self.node.parallelism,
            rng=self.rng,
            services=self.services,
        )
        self.component.open(context)
        if self.acking and self.is_spout and self.config.replay_enabled:
            service = self.services.get(REPLAY_SERVICE)
            if service is not None:
                self.replay = service.attach(self.worker_id, self.config)
                # Messages in flight through a dead predecessor of this
                # worker id are immediately due for replay.
                self.replay.reschedule_open(self.engine.now)
        if self.config.checkpoint_interval is not None and self.node.stateful:
            store = self.services.get(CHECKPOINT_SERVICE)
            if store is not None:
                self._checkpoints = store
                state = store.load(self.worker_id)
                if state is not None:
                    self.component.restore(state)
        if not self.is_spout:
            service = self.services.get(REPLICATION_SERVICE)
            if service is not None:
                group = service.group_of(self.topology_id,
                                         self.component_name)
                if group is not None:
                    # join() restores from the group's state snapshot
                    # (superseding any checkpoint restore above) and
                    # returns where to resume in the sequenced input.
                    self._rep_group = group
                    self._rep_next, self._rep_out_seq = group.join(
                        self.worker_id, self.component)
                self._rep_dedup = service.dedup_of(self.topology_id,
                                                   self.component_name)
        loop = self._spout_loop() if self.is_spout else self._bolt_loop()
        self._main = self.engine.process(
            loop, name="worker:%d:%s" % (self.worker_id, self.component_name)
        )
        self._aux.append(self.engine.process(
            self._flusher(), name="flusher:%d" % self.worker_id
        ))
        if self.config.enable_oom:
            self._aux.append(self.engine.process(
                self._oom_monitor(), name="oom:%d" % self.worker_id
            ))
        if self.acking and self.is_spout:
            self._aux.append(self.engine.process(
                self._pending_sweeper(), name="pending:%d" % self.worker_id
            ))
        if self._checkpoints is not None:
            self._aux.append(self.engine.process(
                self._checkpoint_loop(), name="checkpoint:%d" % self.worker_id
            ))
        if self._rep_group is not None:
            self._aux.append(self.engine.process(
                self._replication_loop(),
                name="replication:%d" % self.worker_id
            ))

    def kill(self, drain: bool = False) -> None:
        """Stop the worker. With ``drain`` (stable update, §3.5), remaining
        queued tuples are processed and partial batches flushed first."""
        if not self.alive:
            return
        if drain:
            self._draining = True
            if self._main is not None:
                self._main.interrupt("drain")
        else:
            self._shutdown()

    def _shutdown(self) -> None:
        if not self.alive:
            return
        self.alive = False
        try:
            self.component.close()
        except Exception:
            pass
        for process in self._aux:
            process.interrupt("shutdown")
        if self._main is not None:
            self._main.interrupt("shutdown")
        self.transport.close()
        self.input_store.cancel_waiters()

    def _crash(self, error: BaseException) -> None:
        if not self.alive:
            return
        self.stats.crashes += 1
        self.alive = False
        for process in self._aux:
            process.interrupt("crash")
        if self._main is not None:
            self._main.interrupt("crash")
        self.transport.close()
        self.input_store.cancel_waiters()
        if self.on_crash is not None:
            self.on_crash(self, error)

    # -- delivery intake ------------------------------------------------------

    def deliver(self, delivery: Delivery) -> bool:
        """Entry point for the receive side of the transport."""
        if not self.alive and self._main is not None:
            return False
        return bool(self.input_store.put(delivery))

    @property
    def queue_depth(self) -> int:
        return self.input_store.depth

    @property
    def queue_bytes(self) -> int:
        return self.input_store.bytes_queued

    def stats_snapshot(self) -> Dict[str, int]:
        return self.stats.snapshot(self.queue_depth, self.queue_bytes)

    # -- main loops --------------------------------------------------------------

    def _bolt_loop(self):
        take_nowait = self.input_store.take_nowait
        while self.alive:
            # Backlogged intake drains synchronously: a get() on a
            # non-empty store fires its gate on the spot and the kernel
            # resumes this generator inside the same callback, so taking
            # the item directly is observably identical — it just skips
            # one gate Event per queued delivery. The yielding get()
            # remains the only wait point (and interrupt window).
            delivery = take_nowait()
            if delivery is None:
                try:
                    delivery = yield self.input_store.get()
                except Interrupt:
                    if self._draining:
                        yield from self._drain_remaining()
                    return
                except Exception:
                    return
            cost = yield from self._process_delivery(delivery)
            if cost > 0:
                try:
                    yield cost
                except Interrupt:
                    if self._draining:
                        yield from self._drain_remaining()
                    return
        return

    def _drain_remaining(self):
        """Process whatever is queued, flush, then shut down (§3.5)."""
        while True:
            ok, delivery = self.input_store.get_nowait()
            if not ok:
                break
            cost = yield from self._process_delivery(delivery)
            if cost > 0:
                yield cost
        # A draining stateful worker snapshots before retiring, so a
        # planned relocation's replacement restores up-to-date state
        # (and any deferred acks are released, completing their trees).
        flush_cost = 0.0
        if self._checkpoints is not None:
            flush_cost += self._take_checkpoint()
        flush_cost += self.transport.flush()
        if flush_cost > 0:
            yield flush_cost
        self._shutdown()

    def _process_delivery(self, delivery: Delivery):
        """Handle one delivery; returns the cost to charge (generator so
        component crashes can abort the worker mid-batch)."""
        if self._rep_group is not None:
            return self._replica_delivery(delivery)
        if self._rep_dedup is not None:
            return self._dedup_delivery(delivery)
        cost = delivery.cost
        if self.is_spout:
            return self._spout_delivery(delivery.tuples, cost)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            # Traced runs take the one-call-per-tuple path so hop
            # checkpoints interleave exactly as before.
            for stream_tuple in delivery.tuples:
                if stream_tuple.stream == CONTROL_STREAM:
                    cost += self._handle_control(stream_tuple)
                    continue
                if stream_tuple.stream == SIGNAL_STREAM:
                    cost += self._run_component(stream_tuple, signal=True)
                    continue
                # Data, or the acker's ack-stream input: a crash ends
                # the delivery.
                cost += self._run_component(stream_tuple, signal=False)
                if not self.alive:
                    break
            return cost
        execute_batch = self._execute_batch
        if (execute_batch is not None and delivery.stream is not None
                and not 1 <= delivery.stream <= 3 and not self.acking
                and not self._billed_services and delivery.tuples):
            # Whole-train handoff (batch component API): the transport
            # vouched that every tuple rides one data stream, so the
            # component consumes the delivery in a single call. The
            # cost replay is exact: the per-tuple loop charges
            # ``tcost = app_compute + extra`` with ``extra == 0.0`` for
            # a compliant (non-charging) component, and ``x + 0.0`` is
            # bitwise ``x`` for the finite cost constants — so adding
            # ``app_compute`` once per tuple reproduces the identical
            # float-accumulation sequence.
            tuples = delivery.tuples
            collector = self.collector
            try:
                execute_batch(tuples, collector)
            except Exception as error:
                # Batch-granularity crash semantics (documented on the
                # hook): the whole delivery is forfeited with the
                # crashing call.
                self._crash(WorkerCrashed(
                    "worker %d (%s) crashed: %r"
                    % (self.worker_id, self.component_name, error)
                ))
                return cost
            app_compute = self.costs.app_compute_per_tuple
            n = 0
            for _ in tuples:
                cost += app_compute
                n += 1
            extra = collector.extra_cost
            if extra:
                # Deviation from the hook contract (charge() inside a
                # batch): billed once at batch end, deterministically.
                cost += extra
                collector.extra_cost = 0.0
            if collector.buffered:
                cost += self._dispatch_emissions()
            self.stats.processed += n
            self.processed_meter.mark(n)
            return cost
        # Fused data-tuple loop: identical work and float-accumulation
        # order as _run_component per tuple, with per-call setup hoisted
        # out and same-timestamp meter marks coalesced (one delivery is
        # processed at a single virtual instant, so n marks of 1 and one
        # mark of n land in the same rate bucket). Marks are flushed
        # before any control/signal/ack handling, which may read stats.
        #
        # Under acking, a bolt's ACK_ACKs and lone direct emissions (the
        # acker's COMPLETE or FAIL) go into the window log; each tuple's
        # ``tcost + send totals`` is folded into ``cost`` once the log
        # is sent (DESIGN.md §5i). Any other send first sends the log.
        collector = self.collector
        # A component without execute() takes the _run_component path,
        # which crashes the worker.
        execute = getattr(self.component, "execute", None)
        billed = self._billed_services
        app_compute = self.costs.app_compute_per_tuple
        stats = self.stats
        logging = self.acking
        if logging:
            log = self._log_tuples
            log_dsts = self._log_dsts
            ackers = self.ackers
            nackers = len(ackers)
            # (tcost, log length after the tuple, its logged sends)
            folds: List[Tuple[float, int, int]] = []
            self._logging = True
        processed = 0
        emitted = 0
        for stream_tuple in delivery.tuples:
            stream = stream_tuple.stream
            # SIGNAL(1)/ACK(2)/CONTROL(3) are a contiguous reserved
            # band, so the data-path common case (stream 0) pays one
            # failed comparison instead of three. A bolt's ack input is
            # the acker's data: it runs the component like any tuple.
            if 1 <= stream <= 3 and stream != ACK_STREAM:
                if processed or emitted:
                    self._mark(processed, emitted)
                    processed = emitted = 0
                if logging:
                    if log:
                        cost = self._send_window_log(cost, folds)
                    self._logging = False
                if stream == CONTROL_STREAM:
                    cost += self._handle_control(stream_tuple)
                else:
                    cost += self._run_component(stream_tuple, signal=True)
                if logging:
                    self._logging = True
                continue
            if execute is None:
                if processed:
                    self._mark(processed, 0)
                    processed = 0
                cost += self._run_component(stream_tuple, signal=False)
                if not self.alive:
                    break
                continue
            collector.current_input = stream_tuple
            if logging:
                # child_xor only feeds the ack value below; skip the
                # per-tuple reset when no one reads it.
                collector.child_xor = 0
            try:
                execute(stream_tuple, collector)
            except Exception as error:
                collector.current_input = None
                if processed or emitted:
                    # The crash callback may snapshot stats; flush the
                    # coalesced marks first so it sees them applied.
                    self._mark(processed, emitted)
                    processed = emitted = 0
                if logging and log:
                    # Sends that preceded the crash are queued first
                    # (and dropped when it closes the transport).
                    cost = self._send_window_log(cost, folds)
                self._crash(WorkerCrashed(
                    "worker %d (%s) crashed: %r"
                    % (self.worker_id, self.component_name, error)
                ))
                if not self.alive:
                    break
                continue
            collector.current_input = None
            tcost = app_compute + collector.extra_cost
            collector.extra_cost = 0.0
            if billed:
                for service in billed:
                    tcost += service.drain_cost()
            processed += 1
            if not logging:
                if collector.buffered:
                    tcost += self._dispatch_emissions()
                cost += tcost
                if not self.alive:
                    break
                continue
            sends = 0
            buffered = collector.buffered
            if buffered:
                if len(buffered) == 1 and buffered[0][1] is not None:
                    # A lone direct emission: _dispatch_emissions would
                    # add its send total alone (0.0 + s is s).
                    direct, dst = buffered.pop()
                    log.append(direct)
                    log_dsts.append(dst)
                    emitted += 1
                    sends = 1
                else:
                    if log:
                        cost = self._send_window_log(cost, folds)
                    tcost += self._dispatch_emissions()
            if (anchor := stream_tuple.anchor) is not None:
                ack_value = anchor.edge_id ^ collector.child_xor
                root_id = anchor.root_id
                if self._checkpoints is not None:
                    self._deferred_acks.append((root_id, ack_value))
                else:
                    log.append(self._ack_tuple(ACK_ACK, root_id, ack_value))
                    log_dsts.append(ackers[root_id % nackers])
                    sends += 1
                stats.acked += 1
            if sends or folds:
                folds.append((tcost, len(log), sends))
            else:
                cost += tcost
            if not self.alive:
                break
        if processed or emitted:
            self._mark(processed, emitted)
        if logging:
            if log:
                cost = self._send_window_log(cost, folds)
            self._logging = False
        return cost
        yield  # pragma: no cover - makes this a generator for uniform use

    def _mark(self, processed: int, emitted: int) -> None:
        """Apply coalesced processed/emitted counts and meter marks."""
        if processed:
            self.stats.processed += processed
            self.processed_meter.mark(processed)
        if emitted:
            self.stats.emitted += emitted
            self.emitted_meter.mark(emitted)

    def _send_window_log(self, cost: float,
                         folds: List[Tuple[float, int, int]]) -> float:
        """Send a bolt delivery's window log and fold each processed
        tuple's ``tcost + send totals`` into ``cost`` in tuple order,
        as the per-tuple loop adds them. Sends logged without a fold
        (an explicit FAIL) keep their order and drop their cost."""
        log = self._log_tuples
        totals = self.transport.send_log(log, self._log_dsts)
        for tcost, end, sends in folds:
            if sends == 2:
                tcost += totals[end - 2]
                tcost += totals[end - 1]
            elif sends:
                tcost += totals[end - 1]
            cost += tcost
        folds.clear()
        log.clear()
        self._log_dsts.clear()
        return cost

    def _run_component(self, stream_tuple: StreamTuple, signal: bool) -> float:
        tracer = self.tracer
        traced = (tracer is not None and tracer.enabled
                  and stream_tuple.trace_id is not None)
        if traced:
            # The tuple just left this worker's input queue; the segment
            # since the last (wire/deserialize) checkpoint is queue wait.
            tracer.event(stream_tuple.trace_id, H_QUEUE,
                         branch=self.worker_id)
        self.collector.current_input = stream_tuple
        self.collector.child_xor = 0
        try:
            if signal:
                self.stats.signals += 1
                self.component.on_signal(stream_tuple, self.collector)
            else:
                self.component.execute(stream_tuple, self.collector)
        except Exception as error:
            self._crash(WorkerCrashed(
                "worker %d (%s) crashed: %r"
                % (self.worker_id, self.component_name, error)
            ))
            return 0.0
        finally:
            self.collector.current_input = None
        cost = self.costs.app_compute_per_tuple + self.collector.extra_cost
        self.collector.extra_cost = 0.0
        for service in self._billed_services:
            cost += service.drain_cost()
        if traced:
            tracer.finish_delivery(stream_tuple.trace_id,
                                   branch=self.worker_id, cost=cost,
                                   component=self.component_name)
        if not signal:
            self.stats.processed += 1
            self.processed_meter.mark()
        cost += self._dispatch_emissions()
        if (not signal and self.acking and stream_tuple.anchor is not None):
            ack_value = stream_tuple.anchor.edge_id ^ self.collector.child_xor
            if self._checkpoints is not None:
                # Exactly-once composition: hold the ack until the state
                # that absorbed this tuple is durably snapshotted. A crash
                # before the snapshot leaves the tree incomplete, so the
                # spout replays it against the restored (pre-tuple) state.
                self._deferred_acks.append(
                    (stream_tuple.anchor.root_id, ack_value))
            else:
                cost += self._send_ack_message(
                    ACK_ACK, stream_tuple.anchor.root_id, ack_value
                )
            self.stats.acked += 1
        return cost

    def _spout_loop(self):
        while self.alive:
            # 1. Drain any waiting input (completions / control tuples).
            drained_cost = 0.0
            while True:
                ok, delivery = self.input_store.get_nowait()
                if not ok:
                    break
                drained_cost += yield from self._process_delivery(delivery)
            if drained_cost > 0:
                yield drained_cost
            if not self.alive:
                return

            # 2. Blocked states: deactivated, or ack window full.
            blocked = (
                not self.active
                or (self.acking and self.max_pending is not None
                    and len(self.pending_roots) >= self.max_pending)
            )
            if blocked:
                # Wake on the next delivery (completion / control tuple)
                # or after a short beat — the pending-root sweeper may
                # have freed the ack window with nothing arriving.
                gate = self._next_input()
                timer = self.engine.timeout(0.5)
                try:
                    yield self.engine.any_of([gate, timer])
                except Interrupt:
                    return
                except Exception:
                    return
                timer.cancel()
                if gate.triggered:
                    self._pending_get = None
                    if gate.failed:
                        return
                    cost = yield from self._process_delivery(gate.value)
                    if cost > 0:
                        yield cost
                continue

            # 3. Rate limiting (INPUT_RATE control, Table 2).
            if self.input_rate_limit is not None:
                next_allowed = (self._rate_anchor
                                + self._emitted_since_anchor / self.input_rate_limit)
                delay = next_allowed - self.engine.now
                if delay > 1e-12:
                    try:
                        yield delay
                    except Interrupt:
                        return
                    continue

            # 4. Emit a batch.
            emitted, cost = self._emit_spout_batch()
            self._emitted_since_anchor += emitted
            if emitted == 0:
                # Source idle; poll again shortly.
                try:
                    yield max(cost, 0.0005)
                except Interrupt:
                    return
                continue
            try:
                yield cost
            except Interrupt:
                return
        return

    def _next_input(self) -> Event:
        if self._pending_get is None:
            self._pending_get = self.input_store.get()
        return self._pending_get

    def _emit_spout_batch(self) -> Tuple[int, float]:
        cost = 0.0
        emitted = 0
        limit = self._emit_batch
        if self.acking and self.max_pending is not None:
            limit = min(limit,
                        self.max_pending - len(self.pending_roots))
        # Due replays take priority over fresh input: they are older,
        # and draining them first bounds the failure tail.
        if self.replay is not None and limit > 0:
            for entry in self.replay.take_due(self.engine.now, limit):
                self.collector.emit(entry.values, stream=entry.stream,
                                    message_id=entry.message_id)
                cost += self.costs.app_compute_per_tuple
                cost += self._dispatch_emissions()
                emitted += 1
            limit -= emitted
        if limit <= 0:
            return emitted, cost
        # Fused per-tuple loop: identical work and float-accumulation
        # order as next_tuple + _dispatch_emissions per tuple, with the
        # per-call setup (stream index, tracer probe, attribute walks)
        # hoisted out of the loop. The whole batch runs at one virtual
        # instant, so coalescing the per-tuple meter marks into one
        # mark(n) lands in the same rate bucket — state is identical.
        collector = self.collector
        buffered = collector.buffered
        next_tuple = self.component.next_tuple
        billed = self._billed_services
        app_compute = self.costs.app_compute_per_tuple
        index = self._edges_by_stream()
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        stats = self.stats
        marked = 0
        # Deferred dispatch: the common spout shape is one emission per
        # next_tuple() call on one single-hop edge. Those tuples are
        # collected in `pending` and dispatched through a single
        # send_interleaved call, which replays the per-tuple cost
        # sequence (app_compute then send total, tuple by tuple)
        # bit-exactly and creates the same frame-injection events in
        # the same order — all at one virtual instant. Any deviation
        # (multi-emission, direct send, charge(), other stream) flushes
        # the pending run first, so ordering never changes. Disabled
        # under tracing (per-tuple trace hooks) and billed services
        # (their drains interleave with dispatch costs).
        #
        # Under acking the same single-hop shape takes the acked lane
        # instead: each call's ACK_INIT (posted inside emit) and its
        # anchored tuple join the window log, which is sent in one
        # send_log call at the window's end or before any deviation is
        # handled; each tuple then folds ``cost += app_compute; cost +=
        # send total`` as the per-tuple path adds them, and the
        # ACK_INITs' totals are discarded, as _register_root discards
        # them (DESIGN.md §5i). The call that arms the lane posted its
        # ACK_INIT before the lane existed, so that one was sent at once.
        # A batch-capable spout then gets the rest of the window in one
        # next_tuple_batch call, whose emit_many logs the same ACK_INITs
        # and tuples (see _Collector._emit_roots).
        defer_ok = not tracing and not billed
        acked = self.acking
        fast_router = None
        fast_sink = False
        fast_bcast = False
        plen = 0
        pending: List[StreamTuple] = []
        lane = None          # the acked lane's router, once armed
        lane_stream = DEFAULT_STREAM
        lane_hop = 0
        lane_sent: List[int] = []   # log positions of the lane's tuples
        log = self._log_tuples
        log_dsts = self._log_dsts
        batch_next = self._next_tuple_batch if defer_ok else None
        handoff = False
        calls = 0
        while calls < limit:
            if batch_next is not None and (fast_sink or lane is not None):
                # Armed lane plus a batch-capable spout: hand the rest
                # of the window to next_tuple_batch, after the loop.
                handoff = True
                break
            calls += 1
            try:
                next_tuple(collector)
            except Exception as error:
                if fast_sink and len(pending) != plen:
                    # Emissions from the crashing call itself stay
                    # buffered (exactly as the per-tuple path leaves
                    # them), ahead of any slower emissions of the call.
                    buffered[:0] = [(st, None) for st in pending[plen:]]
                    del pending[plen:]
                if pending:
                    cost = self._send_run(pending, fast_router, fast_bcast,
                                          cost)
                    marked += len(pending)
                    pending = []
                if log:
                    # Posted before the crash, so queued before it
                    # closes the transport.
                    cost = self._send_lane_log(cost, lane, lane_sent)
                    marked += len(lane_sent)
                    lane_sent.clear()
                if marked:
                    # The crash callback may snapshot stats; flush the
                    # coalesced marks and counters first so it sees
                    # them applied.
                    stats.emitted += marked
                    self.emitted_meter.mark(marked)
                    marked = 0
                self._crash(WorkerCrashed(
                    "spout %d crashed: %r" % (self.worker_id, error)
                ))
                break
            extra = collector.extra_cost
            if fast_sink:
                np = len(pending)
                if np - plen == 1 and extra == 0.0 and not buffered:
                    # The dominant shape: exactly one deferred emission.
                    plen = np
                    emitted += 1
                    continue
                if np != plen:
                    # Rare: the call emitted several fast-stream tuples
                    # (and possibly slower ones after them). Move them
                    # ahead of the buffered emissions, preserving call
                    # order; they are routed per tuple below.
                    buffered[:0] = [(st, None) for st in pending[plen:]]
                    del pending[plen:]
                n = len(buffered)
            else:
                n = len(buffered)
                if defer_ok and n == 1 and not extra:
                    stream_tuple, direct_dst = buffered[0]
                    if direct_dst is None and acked:
                        stream = stream_tuple.stream
                        if lane is None:
                            lane = self._single_hop_router(index.get(stream))
                            if lane is not None:
                                lane_stream = stream
                                lane_hop = lane.next_hops[0]
                                # Later calls post their ACK_INITs here.
                                self._logging = True
                            else:
                                defer_ok = False
                        if lane is not None and stream == lane_stream:
                            lane_sent.append(len(log))
                            log.append(stream_tuple)
                            log_dsts.append(lane_hop)
                            del buffered[:]
                            emitted += 1
                            continue
                    elif direct_dst is None:
                        stream = stream_tuple.stream
                        edges = index.get(stream)
                        fast_router = self._single_hop_router(edges)
                        if fast_router is None:
                            # Second chance: a pure broadcast edge takes
                            # the same deferred path, dispatched through
                            # one batched broadcast send (the whole
                            # train is encoded once and the switch
                            # replicates each frame).
                            fast_router = self._single_broadcast_router(
                                edges)
                            fast_bcast = fast_router is not None
                        if fast_router is not None:
                            pending.append(stream_tuple)
                            del buffered[:]
                            emitted += 1
                            plen = 1
                            # From here on emit() appends eligible
                            # tuples straight into `pending`.
                            collector.fast_pending = pending
                            collector.fast_stream = stream
                            fast_sink = True
                            continue
                        defer_ok = False
            # Fallback: dispatch any deferred run or window log first,
            # then handle this iteration exactly as the per-tuple path
            # would.
            if pending:
                cost = self._send_run(pending, fast_router, fast_bcast, cost)
                marked += len(pending)
                if fast_sink:
                    # emit() aliases this list; clear in place.
                    pending.clear()
                    plen = 0
                else:
                    pending = []
            if log:
                cost = self._send_lane_log(cost, lane, lane_sent)
                marked += len(lane_sent)
                lane_sent.clear()
            if extra:
                cost += extra
                collector.extra_cost = 0.0
            if billed:
                for service in billed:
                    cost += service.drain_cost()
            if n == 0:
                break
            cost += app_compute * n
            dcost, routed = self._route_each(buffered, 0.0, index)
            marked += routed
            del buffered[:]
            cost += dcost
            emitted += n
        if handoff:
            # Whole-window handoff (batch component API): one call asks
            # the spout for every remaining emission of this window.
            # Each emission replays as one next_tuple call that emitted
            # exactly one deferred tuple — the trailing dispatch below
            # charges app_compute + send per tuple (via pre_cost, or
            # the lane log's folds when acked) — and stopping short
            # replays as a call that emitted nothing, which charges
            # nothing. For a hook honouring its contract (single-stream
            # emissions, with message ids when acked, no charge()),
            # results are bit-identical to the scalar loop.
            if lane is not None:
                collector.lane_sent = lane_sent
                collector.lane_hop = lane_hop
                collector.fast_stream = lane_stream
            logged = len(lane_sent)
            try:
                batch_next(collector, limit - calls)
                error = None
            except Exception as caught:
                error = caught
            collector.lane_sent = None
            emitted += len(pending) - plen + len(lane_sent) - logged
            if error is not None:
                # Batch-granularity crash semantics (documented on the
                # hook): every emission already made is dispatched
                # ahead of the crash, like completed per-tuple calls.
                if pending:
                    cost = self._send_run(pending, fast_router, fast_bcast,
                                          cost)
                    marked += len(pending)
                    pending = []
                if log:
                    cost = self._send_lane_log(cost, lane, lane_sent)
                    marked += len(lane_sent)
                    lane_sent.clear()
                if marked:
                    stats.emitted += marked
                    self.emitted_meter.mark(marked)
                    marked = 0
                self._crash(WorkerCrashed(
                    "spout %d crashed: %r" % (self.worker_id, error)
                ))
            elif buffered or collector.extra_cost:
                # Contract deviation (slow-stream or id-less emissions,
                # or a charge): dispatch the train or window log first,
                # preserving emission order, then route the stragglers
                # through the generic machinery — deterministic, though
                # not a per-call replay (no call boundaries survive a
                # batch).
                if pending:
                    cost = self._send_run(pending, fast_router,
                                          fast_bcast, cost)
                    marked += len(pending)
                    pending.clear()
                    plen = 0
                if log:
                    cost = self._send_lane_log(cost, lane, lane_sent)
                    marked += len(lane_sent)
                    lane_sent.clear()
                extra = collector.extra_cost
                if extra:
                    cost += extra
                    collector.extra_cost = 0.0
                n = len(buffered)
                cost += app_compute * n
                emitted += n
                cost += self._dispatch_emissions()
        collector.fast_pending = None
        if pending:
            cost = self._send_run(pending, fast_router, fast_bcast, cost)
            marked += len(pending)
        if log:
            cost = self._send_lane_log(cost, lane, lane_sent)
            marked += len(lane_sent)
        self._logging = False
        if marked:
            stats.emitted += marked
            self.emitted_meter.mark(marked)
        return emitted, cost

    # -- emission dispatch ------------------------------------------------------------

    def _edges_by_stream(self) -> _EdgeIndex:
        """The routers grouped by stream id, rebuilt only after the
        ``routers`` dict changed. Dict insertion order is kept within
        each stream, so per-tuple send order is unchanged."""
        routers = self.routers
        if self._stream_index_version != routers.version:
            index: _EdgeIndex = {}
            for key, router in routers.items():
                index.setdefault(key[1], []).append((key, router))
            self._stream_index = index
            self._stream_index_version = routers.version
        return self._stream_index

    def _send_run(self, run: List[StreamTuple], router: Router,
                  broadcast: bool, cost: float) -> float:
        """Dispatch a deferred spout run on its one edge through a
        single batched send, which replays the per-tuple sequence
        ``cost += app_compute; cost += send(t)`` bit-exactly on the
        running ``cost``. Broadcast never consults ``route()``, so only
        a point-to-point router advances."""
        app_compute = self.costs.app_compute_per_tuple
        if broadcast:
            return self.transport.send_broadcast_interleaved(
                run, router.next_hops, app_compute, cost, uniform=True)
        router.advance(len(run))
        return self.transport.send_interleaved(
            run, router.next_hops[0], app_compute, cost, uniform=True)

    def _send_lane_log(self, cost: float, router: Router,
                       sent: List[int]) -> float:
        """Send an acked spout window's log (see _emit_spout_batch) and
        fold ``cost += app_compute; cost += send total`` for each lane
        tuple at log positions ``sent``; the ACK_INITs' totals are
        dropped. The lane's one router advances as the per-tuple
        ``route()`` calls would have. ``send_log`` is told the lane's
        hop: its tuples share one envelope, so their train may be
        patched."""
        log = self._log_tuples
        totals = self.transport.send_log(log, self._log_dsts,
                                         router.next_hops[0])
        app_compute = self.costs.app_compute_per_tuple
        for i in sent:
            cost += app_compute
            cost += totals[i]
        if sent:
            router.advance(len(sent))
        log.clear()
        self._log_dsts.clear()
        return cost

    def _route_each(self, batch: List[Tuple[StreamTuple, Any]], cost: float,
                    index: _EdgeIndex) -> Tuple[float, int]:
        """Route and send ``(tuple, direct_dst)`` emissions one at a
        time, adding each send's cost to the running ``cost`` (summing
        from zero and adding afterwards would change the float
        association). Returns the cost and the number of emissions."""
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        transport = self.transport
        marked = 0
        last_stream = None
        last_edges = None
        for stream_tuple, direct_dst in batch:
            if tracing:
                tracer.maybe_trace(stream_tuple,
                                   component=self.component_name,
                                   worker=self.worker_id,
                                   stream=stream_tuple.stream)
            if direct_dst is not None:
                cost += transport.send(stream_tuple, [direct_dst])
                marked += 1
                continue
            stream = stream_tuple.stream
            if stream != last_stream:
                last_edges = index.get(stream)
                last_stream = stream
            edges = last_edges
            if not edges:
                # Terminal sink: emission has nowhere to go; drop silently
                # (consistent with Storm semantics for unsubscribed streams).
                continue
            for key, router in edges:
                if router.is_broadcast:
                    group = router.replication_group
                    out = stream_tuple
                    if group is not None:
                        # The sequencer: one stamp, one serialization;
                        # the switch replicates the frame to every
                        # replica (GroupMod fan-out). It stamps, logs
                        # and sends a copy, because other edges may
                        # have queued the original for the fast lane.
                        out = stream_tuple.with_values(stream_tuple.values)
                        out.seq = group.stamp_input(out)
                    cost += transport.send_broadcast(out, router.next_hops)
                elif router.is_sdn_offloaded:
                    cost += transport.send_offloaded(
                        stream_tuple, key, router.next_hops
                    )
                else:
                    dsts = router.route(stream_tuple)
                    cost += transport.send(stream_tuple, dsts)
            # One emission per tuple, however many edges consume it.
            marked += 1
        return cost, marked

    @staticmethod
    def _single_hop_router(edges) -> Optional[Router]:
        """The stream's one router, if an emission batch can take the
        batched point-to-point send path: exactly one edge, routing
        decided worker-side (not broadcast / not SDN-offloaded), and a
        single next hop so every tuple lands on the same destination."""
        if edges is None or len(edges) != 1:
            return None
        router = edges[0][1]
        if router.is_broadcast or router.is_sdn_offloaded:
            return None
        kind = router.grouping.kind
        if kind != SHUFFLE and kind != GLOBAL:
            return None
        if len(router.next_hops) != 1:
            return None
        return router

    @staticmethod
    def _single_broadcast_router(edges) -> Optional[Router]:
        """The stream's one router, if an emission batch can take the
        batched broadcast send path: exactly one edge, GROUP_ALL
        semantics, and no replica sequencer (sequenced edges stamp each
        tuple before serializing, so they stay on the per-tuple path)."""
        if edges is None or len(edges) != 1:
            return None
        router = edges[0][1]
        if not router.is_broadcast or router.replication_group is not None:
            return None
        if not router.next_hops:
            return None
        return router

    def _dispatch_emissions(self) -> float:
        if not self.collector.buffered:
            return 0.0
        index = self._edges_by_stream()
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        transport = self.transport
        batch = self.collector.take()
        if not tracing:
            # Whole-batch fast path (see _emit_spout_batch): one
            # send_many call when every tuple rides one single-hop edge
            # (or one batched broadcast when it rides a pure GROUP_ALL
            # edge — the train is encoded once, the switch replicates).
            stream = batch[0][0].stream
            edges = index.get(stream)
            fast_router = self._single_hop_router(edges)
            fast_bcast = False
            if fast_router is None:
                fast_router = self._single_broadcast_router(edges)
                fast_bcast = fast_router is not None
            if fast_router is not None:
                for stream_tuple, direct_dst in batch:
                    if (direct_dst is not None
                            or stream_tuple.stream != stream):
                        fast_router = None
                        break
            if fast_router is not None:
                n = len(batch)
                if fast_bcast:
                    # Per-tuple broadcast never consults route(), so
                    # there is no router state to advance. pre_cost 0.0
                    # replays the slow path's bare `cost +=` additions.
                    cost = transport.send_broadcast_interleaved(
                        [item[0] for item in batch],
                        fast_router.next_hops, 0.0, 0.0)
                else:
                    fast_router.advance(n)
                    cost = transport.send_many(
                        [item[0] for item in batch],
                        fast_router.next_hops[0])
                self.stats.emitted += n
                self.emitted_meter.mark(n)
                return cost
        cost, marked = self._route_each(batch, 0.0, index)
        if marked:
            # The whole dispatch runs at one virtual instant: coalesced
            # counter/meter updates are indistinguishable from per-tuple
            # ones, and they land before control returns to any code
            # that could observe stats.
            self.stats.emitted += marked
            self.emitted_meter.mark(marked)
        return cost

    # -- active replication (exactly-once) ------------------------------------------------

    def _replica_delivery(self, delivery: Delivery) -> float:
        """Replica intake: reserved-band tuples take the normal handlers;
        sequenced data tuples are applied in strict input order — held
        when early, dropped when already applied, repaired from the
        group's input log when gaps persist (see _replication_tick)."""
        cost = delivery.cost
        group = self._rep_group
        for stream_tuple in delivery.tuples:
            stream = stream_tuple.stream
            if 1 <= stream <= 3:
                if stream == CONTROL_STREAM:
                    cost += self._handle_control(stream_tuple)
                else:
                    cost += self._run_component(stream_tuple,
                                                signal=stream == SIGNAL_STREAM)
                continue
            seq = stream_tuple.seq
            if seq is None:
                # Unsequenced data should not reach a replica (the
                # expand_replicas rewrite makes every input edge pass
                # the sequencer); process rather than lose it.
                cost += self._run_component(stream_tuple, signal=False)
            else:
                cost += self._accept_replicated(stream_tuple, seq[1])
            if not self.alive:
                break
        return cost

    def _accept_replicated(self, stream_tuple: StreamTuple,
                           seq: int) -> float:
        group = self._rep_group
        if seq < self._rep_next:
            # Already applied (wire arrival racing the log-repair loop,
            # or a switch-level duplicate). Input-side dedup.
            group.duplicate_inputs += 1
            return 0.0
        if seq > self._rep_next:
            pending = self._rep_pending
            if len(pending) >= REORDER_LIMIT:
                group.reorder_overflow += 1  # log repair recovers it
            else:
                pending[seq] = stream_tuple
            return 0.0
        cost = self._apply_replicated(stream_tuple)
        pending = self._rep_pending
        while self.alive and self._rep_next in pending:
            cost += self._apply_replicated(pending.pop(self._rep_next))
        return cost

    def _apply_replicated(self, stream_tuple: StreamTuple) -> float:
        """Apply one in-order input to the replicated component. Outputs
        get deterministic output sequence numbers and are logged in the
        group; only the leader dispatches them downstream."""
        group = self._rep_group
        collector = self.collector
        collector.current_input = stream_tuple
        try:
            self.component.execute(stream_tuple, collector)
        except Exception as error:
            collector.current_input = None
            self._crash(WorkerCrashed(
                "worker %d (%s) crashed: %r"
                % (self.worker_id, self.component_name, error)
            ))
            return 0.0
        collector.current_input = None
        cost = self.costs.app_compute_per_tuple + collector.extra_cost
        collector.extra_cost = 0.0
        for service in self._billed_services:
            cost += service.drain_cost()
        self.stats.processed += 1
        self.processed_meter.mark()
        self._rep_next += 1
        batch = collector.take()
        out_base = self._rep_out_seq
        for offset, (out, _direct) in enumerate(batch):
            out.seq = (group.epoch, out_base + offset)
            group.log_output(out_base + offset, out.values, out.stream)
        self._rep_out_seq = out_base + len(batch)
        if batch:
            if group.leader == self.worker_id:
                collector.buffered = batch
                cost += self._dispatch_emissions()
                now = self.engine.now
                for offset in range(len(batch)):
                    group.mark_sent(out_base + offset, now)
            else:
                group.suppressed += len(batch)
        group.note_applied(self.worker_id, self._rep_next,
                           self._rep_out_seq)
        return cost

    def _dedup_delivery(self, delivery: Delivery) -> float:
        """Consumer intake below a replica group: each output sequence
        is admitted exactly once group-wide, collapsing replica
        duplicates, leader re-emissions and failover overlap.

        Admission is recorded *after* the component call: a delivery is
        processed atomically within one virtual-time event, so a crash
        cannot strand an admitted-but-unapplied tuple, and unadmitted
        sequences stay covered by the leader's re-emit loop."""
        cost = delivery.cost
        group = self._rep_dedup
        for stream_tuple in delivery.tuples:
            stream = stream_tuple.stream
            if 1 <= stream <= 3:
                if stream == CONTROL_STREAM:
                    cost += self._handle_control(stream_tuple)
                else:
                    cost += self._run_component(stream_tuple,
                                                signal=stream == SIGNAL_STREAM)
                continue
            seq = stream_tuple.seq
            if seq is not None:
                if (seq[1] <= group.admitted_floor
                        or seq[1] in group.admitted_extra):
                    group.duplicates_collapsed += 1
                    continue
                cost += self._run_component(stream_tuple, signal=False)
                if self.alive:
                    group.admit(seq[1])
            else:
                cost += self._run_component(stream_tuple, signal=False)
            if not self.alive:
                break
        return cost

    def _replication_loop(self):
        """Replica background work each tick: repair input-log gaps,
        and — on the leader — snapshot state, re-emit unadmitted
        outputs, trim the group logs."""
        while True:
            try:
                yield REPLICATION_TICK
            except Interrupt:
                return
            cost = self._replication_tick()
            if cost > 0:
                try:
                    yield cost
                except Interrupt:
                    return

    def _replication_tick(self) -> float:
        group = self._rep_group
        cost = 0.0
        # Gap repair from the durable input log: broadcasts lost to
        # link faults or switch outages cannot stall the replica.
        budget = REPAIR_BUDGET
        while budget > 0 and self.alive:
            stream_tuple = group.fetch_input(self._rep_next)
            if stream_tuple is None:
                break
            group.repairs += 1
            cost += self._apply_replicated(stream_tuple)
            budget -= 1
        if not self.alive:
            return cost
        pending = self._rep_pending
        for seq in [s for s in pending if s < self._rep_next]:
            del pending[seq]
        if group.leader == self.worker_id:
            try:
                state = self.component.snapshot()
            except Exception:
                state = None
            group.save_state(self.worker_id, self._rep_next,
                             self._rep_out_seq, state)
            cost += self._replication_reemit()
            group.trim()
        return cost

    def _replication_reemit(self) -> float:
        """(Re-)send logged outputs downstream has not admitted yet:
        everything after a promotion (the dead leader may have produced
        them without a successful send), and anything unadmitted for a
        full re-emit age otherwise. Downstream dedup collapses the
        overlap."""
        group = self._rep_group
        due = group.reemit_due(self.engine.now)
        if not due:
            return 0.0
        collector = self.collector
        epoch = group.epoch
        for seq, values, stream in due:
            out = StreamTuple.__new__(StreamTuple)
            out.values = values
            out.stream = stream
            out.source_component = self.component_name
            out.source_worker = self.worker_id
            out.anchor = None
            out.trace_id = None
            out.seq = (epoch, seq)
            collector.buffered.append((out, None))
        return self._dispatch_emissions()

    # -- acking (guaranteed processing) ---------------------------------------------------

    def _new_edge_id(self) -> int:
        return self.rng.getrandbits(64)

    def _register_root(self, message_id: Any) -> Anchor:
        root_id = self.rng.getrandbits(64)
        edge_id = self._new_edge_id()
        self.pending_roots[root_id] = _PendingRoot(message_id, self.engine.now)
        self._post_ack_message(ACK_INIT, root_id, edge_id)
        return Anchor(root_id, edge_id)

    def _ack_tuple(self, kind: str, root_id: int, value: int) -> StreamTuple:
        """One acker message, built field by field (once per root and
        per acked tuple)."""
        message = StreamTuple.__new__(StreamTuple)
        message.values = (kind, root_id, value, self.worker_id)
        message.stream = ACK_STREAM
        message.source_component = self.component_name
        message.source_worker = self.worker_id
        message.anchor = None
        message.trace_id = None
        message.seq = None
        return message

    def _send_ack_message(self, kind: str, root_id: int, value: int) -> float:
        if not self.ackers:
            return 0.0
        acker = self.ackers[root_id % len(self.ackers)]
        return self.transport.send(self._ack_tuple(kind, root_id, value),
                                   [acker])

    def _post_ack_message(self, kind: str, root_id: int, value: int) -> None:
        """Send an acker message whose cost no one pays (ACK_INIT and an
        explicit FAIL): into the window log while it is armed, else at
        once."""
        if self._logging:
            ackers = self.ackers
            self._log_tuples.append(self._ack_tuple(kind, root_id, value))
            self._log_dsts.append(ackers[root_id % len(ackers)])
        else:
            self._send_ack_message(kind, root_id, value)

    def _spout_delivery(self, tuples: List[StreamTuple],
                        cost: float) -> float:
        """A spout's intake, traced or not, and its one completion loop.

        A COMPLETE records the root's latency and acks the component; a
        FAIL fails the root (replay or the component's ``fail``). With
        the replay buffer on, it arbitrates which completion settles a
        message. Unknown roots settle nothing. Each costs
        ``ack_per_tuple``, added to ``cost`` in tuple order. Control
        and signal tuples take their handlers. Any other tuple runs the
        component, which has no ``execute``, so the worker crashes."""
        pop_pending = self.pending_roots.pop
        replay = self.replay
        record = self.latency_dist.record
        component = self.component
        now = self.engine.now
        ack_cost = self.costs.ack_per_tuple
        for stream_tuple in tuples:
            stream = stream_tuple.stream
            if stream != ACK_STREAM:
                if stream == CONTROL_STREAM:
                    cost += self._handle_control(stream_tuple)
                elif stream == SIGNAL_STREAM:
                    cost += self._run_component(stream_tuple, signal=True)
                else:
                    cost += self._run_component(stream_tuple, signal=False)
                    if not self.alive:
                        break
                continue
            values = stream_tuple.values
            kind = values[0]
            if kind == ACK_COMPLETE:
                pending = pop_pending(values[1], None)
                if replay is not None:
                    # Only the first completion of a message (possibly
                    # via a root a *previous* incarnation emitted) acks
                    # the component; later completions of superseded
                    # roots are dropped silently.
                    message_id, first = replay.on_complete(values[1])
                    if first:
                        if pending is not None:
                            record(now - pending.emit_time)
                        try:
                            component.ack(message_id)
                        except Exception:
                            pass
                elif pending is not None:
                    record(now - pending.emit_time)
                    try:
                        component.ack(pending.message_id)
                    except Exception:
                        pass
            elif kind == ACK_FAIL:
                root_id = values[1]
                pending = pop_pending(root_id, None)
                if pending is not None or (replay is not None
                                           and replay.has_root(root_id)):
                    self._fail_root(root_id, pending)
            else:
                cost += self._run_component(stream_tuple, signal=False)
                continue
            cost += ack_cost
        return cost

    def _fail_root(self, root_id: int, pending: Optional[_PendingRoot]) -> None:
        """One root failed (timeout or explicit FAIL): replay the message
        if the framework replay layer is on, otherwise fall back to the
        component's own ``fail`` hook."""
        self.stats.failed += 1
        if self.replay is not None:
            outcome, message_id, _due = self.replay.on_failed(
                root_id, self.engine.now)
            if outcome == R_EXHAUSTED:
                try:
                    self.component.fail(message_id)
                except Exception:
                    pass
            return
        if pending is not None:
            try:
                self.component.fail(pending.message_id)
            except Exception:
                pass

    def _pending_sweeper(self):
        while True:
            try:
                yield max(self.config.tuple_timeout / 4, 0.5)
            except Interrupt:
                return
            deadline = self.engine.now - self.config.tuple_timeout
            expired = [root for root, p in self.pending_roots.items()
                       if p.emit_time <= deadline]
            for root in expired:
                pending = self.pending_roots.pop(root)
                self._fail_root(root, pending)

    # -- auxiliary processes ---------------------------------------------------------------

    def _flusher(self):
        """Flush partial batches every ``batch_flush_interval``. With
        nothing buffered a tick would flush nothing, so the flusher
        parks instead until the transport's next send (DESIGN.md §5f)."""
        engine = self.engine
        transport = self.transport
        interval = self.costs.batch_flush_interval
        while True:
            try:
                if transport.pending_tuples():
                    yield interval
                else:
                    due = engine.event()
                    transport.on_queue = partial(
                        self._rejoin_grid, due, engine.now + interval)
                    yield due
            except Interrupt:
                return
            cost = transport.flush()
            if cost > 0:
                try:
                    yield cost
                except Interrupt:
                    return

    def _rejoin_grid(self, due: Event, tick: float) -> None:
        """Wake a parked flusher at the first tick at or after now. Each
        tick is one ``tick + interval`` float addition after the last,
        the instants an unparked flusher reaches, so parking moves no
        flush. A tuple queued at a tick's instant leaves at that tick."""
        engine = self.engine
        interval = self.costs.batch_flush_interval
        while tick < engine.now:
            tick += interval
        engine.schedule_at(tick, due.succeed)

    def _oom_monitor(self):
        while True:
            try:
                yield self.costs.oom_check_interval
            except Interrupt:
                return
            if self.queue_bytes > self.costs.worker_memory_limit_bytes:
                self._crash(OutOfMemoryError(
                    "worker %d exceeded %d bytes"
                    % (self.worker_id, self.costs.worker_memory_limit_bytes)
                ))
                return

    # -- checkpointing (stateful fault recovery) -----------------------------------------

    def _checkpoint_loop(self):
        interval = self.config.checkpoint_interval
        while True:
            try:
                yield interval
            except Interrupt:
                return
            cost = self._take_checkpoint()
            if cost > 0:
                try:
                    yield cost
                except Interrupt:
                    return

    def _take_checkpoint(self) -> float:
        """Persist the component's state, then release the acks deferred
        since the previous snapshot (they are now covered by it)."""
        try:
            state = self.component.snapshot()
        except Exception:
            state = None
        if state is not None:
            self._checkpoints.save(self.worker_id, state, self.engine.now)
        return self._flush_deferred_acks()

    def _flush_deferred_acks(self) -> float:
        if not self._deferred_acks:
            return 0.0
        acks, self._deferred_acks = self._deferred_acks, []
        cost = 0.0
        for root_id, ack_value in acks:
            cost += self._send_ack_message(ACK_ACK, root_id, ack_value)
        return cost

    # -- control tuples (Typhoon hook) ---------------------------------------------------------

    def _handle_control(self, stream_tuple: StreamTuple) -> float:
        self.stats.control_tuples += 1
        if self.control_handler is None:
            return 0.0
        cost = self.control_handler(self, stream_tuple)
        tracer = self.tracer
        if (tracer is not None and tracer.enabled
                and stream_tuple.trace_id is not None):
            tracer.event(stream_tuple.trace_id, H_QUEUE,
                         branch=self.worker_id)
            tracer.finish_delivery(stream_tuple.trace_id,
                                   branch=self.worker_id, cost=cost,
                                   hop=H_CONTROL,
                                   component=self.component_name)
        return cost
