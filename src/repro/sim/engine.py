"""Discrete-event simulation kernel.

Everything in this reproduction — hosts, switches, workers, controllers —
runs on a single deterministic virtual clock owned by an :class:`Engine`.
Concurrency is expressed with generator-based processes (in the style of
SimPy): a process is a generator that yields *waitables* and is resumed by
the engine when the waitable completes.

A process may yield:

* a ``float``/``int`` — sleep for that many virtual seconds,
* an :class:`Event` — wait until the event is triggered; the ``yield``
  expression evaluates to the event's value,
* a :class:`Process` — wait for another process to finish (processes are
  events that trigger on completion).

The engine is strictly deterministic: events scheduled for the same virtual
time fire in scheduling order (FIFO), so repeated runs with the same seeds
produce identical traces.

Scheduler design (DESIGN.md §5f)
--------------------------------

The ready queue is a *calendar queue* rather than a single binary heap:

* pending entries live in per-slot buckets keyed by ``floor(when / width)``;
  a small heap of slot ids finds the earliest non-empty bucket, and an
  *overflow heap* holds entries beyond the current calendar window (they
  migrate into buckets when the window advances past them);
* entries scheduled for the same timestamp are extracted as one batch and
  executed back-to-back without touching any heap in between;
* entries are ``__slots__`` records recycled through a free list, so the
  steady state allocates no closures and (almost) no records;
* cancelled timers are *lazily deleted*: their entries are flagged dead and
  skipped/swept when their bucket is scanned, and a compaction pass rebuilds
  the structures when dead entries outnumber live ones.

Ordering is governed purely by ``(when, seq)`` — the bucket geometry (slot
width, window span) affects only constant factors, never execution order,
which is what keeps the rebuild bit-exact with the old global heap.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

_SPAN = 4096          # calendar window, in slots
_COMPACT_MIN = 64     # never compact below this many dead entries
_FREE_LIST_MAX = 8192  # recycled-entry pool bound
_MIN_WIDTH = 1e-9
_MAX_WIDTH = 0.25


class SimulationError(Exception):
    """Base class for simulation kernel errors."""


class StopEngine(Exception):
    """Raised inside a callback to halt the event loop immediately."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The ``cause`` attribute carries the object passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class _Entry:
    """One scheduled callback: a recyclable ``(when, seq, fn, args)`` record.

    ``dead`` marks lazily-deleted entries (cancelled timers, consumed
    records); dead entries are skipped during bucket scans and swept by
    compaction instead of being removed eagerly from the middle of a heap.
    """

    __slots__ = ("when", "seq", "fn", "args", "dead")

    def __init__(self, when: float, seq: int, fn: Callable[..., None],
                 args: tuple):
        self.when = when
        self.seq = seq
        self.fn = fn
        self.args = args
        self.dead = False

    def __lt__(self, other: "_Entry") -> bool:
        # Overflow-heap ordering; seq breaks timestamp ties FIFO.
        if self.when != other.when:
            return self.when < other.when
        return self.seq < other.seq


def _entry_seq(entry: _Entry) -> int:
    return entry.seq


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts *pending*; it is completed exactly once with either
    :meth:`succeed` or :meth:`fail`. Callbacks registered before completion
    run (in registration order) when the event fires; callbacks registered
    after completion run immediately.
    """

    __slots__ = ("engine", "value", "failed", "_callbacks")

    _PENDING = object()

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.value: Any = Event._PENDING
        self.failed = False
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []

    @property
    def triggered(self) -> bool:
        return self.value is not Event._PENDING

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._callbacks is None:
            # Already fired: deliver on the spot to preserve ordering
            # guarantees for late subscribers.
            callback(self)
        else:
            self._callbacks.append(callback)

    def succeed(self, value: Any = None) -> "Event":
        if self.value is not Event._PENDING:
            raise SimulationError("event already triggered")
        self.value = value
        self._fire()
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self.value is not Event._PENDING:
            raise SimulationError("event already triggered")
        self.value = exception
        self.failed = True
        self._fire()
        return self

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        for callback in callbacks or ():
            callback(self)

    def _defuse(self) -> None:
        """A waiter abandoned this event (interrupt); default is a no-op.

        Subclasses that hold kernel resources on behalf of exactly one
        waiter (timers, store getter gates) override this so the abandoned
        wait cannot fire later with an unclaimed payload.
        """


class Timer(Event):
    """An event that fires after a fixed virtual-time delay.

    Timers may be cancelled before they fire; a cancelled timer never
    triggers and resumes nobody. Cancellation flags the queued entry dead
    (lazy deletion) instead of digging it out of the calendar.
    """

    __slots__ = ("deadline", "cancelled", "_entry")

    def __init__(self, engine: "Engine", delay: float):
        super().__init__(engine)
        if delay < 0:
            raise ValueError("timer delay must be >= 0, got %r" % delay)
        self.deadline = engine.now + delay
        self.cancelled = False
        self._entry: Optional[_Entry] = engine._push_entry(
            self.deadline, self._expire, ())

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        self._disarm()

    def _disarm(self) -> None:
        entry = self._entry
        if entry is not None:
            self._entry = None
            if not entry.dead:
                entry.dead = True
                self.engine._note_dead()

    def succeed(self, value: Any = None) -> "Event":
        self._disarm()  # fired early: the queued expiry is dead weight
        return super().succeed(value)

    def fail(self, exception: BaseException) -> "Event":
        self._disarm()
        return super().fail(exception)

    def _defuse(self) -> None:
        self.cancel()

    def _expire(self) -> None:
        self._entry = None
        if not self.cancelled and self.value is Event._PENDING:
            self.succeed(None)


class Process(Event):
    """A running generator coroutine; completes when the generator returns.

    The process's :class:`Event` value is the generator's return value
    (``StopIteration.value``). A crashed process stores the exception and is
    marked failed; waiting on a failed process re-raises the exception unless
    the waiter handles it.
    """

    __slots__ = ("_generator", "name", "_waiting_on", "_alive",
                 "_had_waiters", "_sleep_entry")

    def __init__(self, engine: "Engine", generator: Generator, name: str = ""):
        super().__init__(engine)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        self._sleep_entry: Optional[_Entry] = None
        self._alive = True
        # Tracks whether anyone observed a failure; see _step.
        self._had_waiters = False
        # Start on the next engine tick so the creator finishes its own step
        # first; this keeps creation order from mattering.
        engine._push_entry(engine.now, self._step, (None, None))

    @property
    def alive(self) -> bool:
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a no-op, which makes teardown
        code simpler (kill paths often race with natural completion).
        """
        if not self._alive:
            return
        self.engine._push_entry(self.engine.now, self._deliver_interrupt,
                                (cause,))

    def _deliver_interrupt(self, cause: Any) -> None:
        if not self._alive:
            return
        # Defuse the abandoned waitable: cancel a sleep so it cannot
        # needlessly advance the clock, and flag a queued getter gate so a
        # store cannot hand an item to a waiter that is no longer there
        # (the item would be dropped on the floor — a conservation bug).
        waiting = self._waiting_on
        if waiting is not None:
            waiting._defuse()
        self._waiting_on = None
        entry = self._sleep_entry
        if entry is not None:
            # Defuse a fast-path sleep exactly as Timer.cancel would:
            # flag the queued entry dead so it cannot wake us later.
            self._sleep_entry = None
            if not entry.dead:
                entry.dead = True
                self.engine._note_dead()
        self._step(None, Interrupt(cause))

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        if not self._alive:
            return
        try:
            if exc is not None:
                target = self._generator.throw(exc)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self._alive = False
            self.succeed(stop.value)
            return
        except Interrupt:
            # Process chose not to catch its own interrupt: treat as a
            # clean cancellation rather than a crash.
            self._alive = False
            self.succeed(None)
            return
        except StopEngine:
            raise
        except BaseException as error:  # crash: propagate to waiters
            self._alive = False
            self.fail(error)
            if self._callbacks is None and not self._had_waiters:
                raise
            return
        self._wait_on(target)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        self._had_waiters = True
        super().add_callback(callback)

    def _wait_on(self, target: Any) -> None:
        if isinstance(target, (int, float)):
            # Sleep fast path: a bare numeric yield is by far the hottest
            # wait, so schedule the wake-up entry directly instead of
            # building a Timer + callback chain per sleep. The queued
            # (when, seq) pair, the executed-entry count and the
            # cancellation accounting are identical to the Timer path,
            # so execution order is bit-for-bit unchanged.
            delay = float(target)
            if delay < 0:
                raise ValueError("timer delay must be >= 0, got %r" % delay)
            engine = self.engine
            self._sleep_entry = engine._push_entry(
                engine.now + delay, self._wake_from_sleep, ())
            return
        if not isinstance(target, Event):
            raise SimulationError(
                "process %s yielded %r; expected a delay, Event or Process"
                % (self.name, target)
            )
        self._waiting_on = target
        target.add_callback(self._resume)

    def _wake_from_sleep(self) -> None:
        if self._sleep_entry is None or not self._alive:
            return  # defused by an interrupt delivered this same instant
        self._sleep_entry = None
        self._step(None, None)

    def _resume(self, event: Event) -> None:
        if not self._alive or self._waiting_on is not event:
            return  # stale wake-up after an interrupt redirected us
        self._waiting_on = None
        if event.failed:
            self._step(None, event.value)
        else:
            self._step(event.value, None)


class Engine:
    """The event loop: a calendar queue of recyclable entry records."""

    def __init__(self):
        self.now: float = 0.0
        self._seq = 0
        self._running = False
        # Calendar state.
        self._width = 1e-4
        self._inv_width = 1.0 / self._width
        self._slots: Dict[int, List[_Entry]] = {}
        self._slot_heap: List[int] = []
        self._overflow: List[_Entry] = []
        self._horizon_time = _SPAN * self._width
        # Entry bookkeeping.
        self._free: List[_Entry] = []
        self._pending = 0          # queued entries, dead included
        self._dead = 0             # queued entries flagged dead
        # Width-retune observation window (advances with the calendar).
        self._events_at_retune = 0
        self._time_at_retune = 0.0
        # Instrumentation (surfaced by :meth:`stats`).
        self.stat_events = 0          # callbacks executed
        self.stat_heap_pushes = 0     # slot-heap + overflow-heap pushes
        self.stat_heap_pops = 0       # slot-heap + overflow-heap pops
        self.stat_entry_allocs = 0    # fresh _Entry constructions
        self.stat_entry_reuses = 0    # entries served from the free list
        self.stat_cancel_hwm = 0      # high-water mark of dead entries
        self.stat_compactions = 0

    # -- scheduling ------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Live (non-cancelled) entries currently queued."""
        return self._pending - self._dead

    def stats(self) -> Dict[str, float]:
        """Counters for the bench harness; cheap to call at any time."""
        events = self.stat_events or 1
        return {
            "events_executed": self.stat_events,
            "heap_pushes": self.stat_heap_pushes,
            "heap_pops": self.stat_heap_pops,
            "heap_ops_per_event": (self.stat_heap_pushes
                                   + self.stat_heap_pops) / events,
            "entry_allocs": self.stat_entry_allocs,
            "entry_reuses": self.stat_entry_reuses,
            "allocs_per_event": self.stat_entry_allocs / events,
            "cancelled_high_water": self.stat_cancel_hwm,
            "compactions": self.stat_compactions,
            "pending": self.pending_count,
        }

    def _push_entry(self, when: float, fn: Callable[..., None],
                    args: tuple) -> _Entry:
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            entry = free.pop()
            entry.when = when
            entry.seq = seq
            entry.fn = fn
            entry.args = args
            entry.dead = False
            self.stat_entry_reuses += 1
        else:
            entry = _Entry(when, seq, fn, args)
            self.stat_entry_allocs += 1
        self._pending += 1
        self._insert(entry)
        return entry

    def _insert(self, entry: _Entry) -> None:
        when = entry.when
        if when >= self._horizon_time:
            heapq.heappush(self._overflow, entry)
            self.stat_heap_pushes += 1
            return
        slot = int(when * self._inv_width)
        bucket = self._slots.get(slot)
        if bucket is None:
            self._slots[slot] = [entry]
            heapq.heappush(self._slot_heap, slot)
            self.stat_heap_pushes += 1
        else:
            bucket.append(entry)

    def _push(self, when: float, callback: Callable[[], None]) -> None:
        # Compatibility shim for the original heap API.
        self._push_entry(when, callback, ())

    def _recycle(self, entry: _Entry) -> None:
        self._pending -= 1
        free = self._free
        if len(free) < _FREE_LIST_MAX:
            entry.fn = None
            entry.args = ()
            free.append(entry)

    # -- lazy deletion ---------------------------------------------------

    def _note_dead(self) -> None:
        dead = self._dead + 1
        self._dead = dead
        if dead > self.stat_cancel_hwm:
            self.stat_cancel_hwm = dead
        if dead >= _COMPACT_MIN and dead * 2 >= self._pending:
            self._compact()

    def _note_swept(self) -> None:
        if self._dead > 0:
            self._dead -= 1

    def _compact(self) -> None:
        """Rebuild the calendar without dead entries (bounds soak memory)."""
        self.stat_compactions += 1
        slots = self._slots
        new_heap: List[int] = []
        for slot in list(slots):
            bucket = slots[slot]
            live = [e for e in bucket if not e.dead]
            if len(live) != len(bucket):
                for e in bucket:
                    if e.dead:
                        self._recycle(e)
            if live:
                slots[slot] = live
                new_heap.append(slot)
            else:
                del slots[slot]
        heapq.heapify(new_heap)
        self._slot_heap = new_heap
        overflow = self._overflow
        live_over = [e for e in overflow if not e.dead]
        if len(live_over) != len(overflow):
            for e in overflow:
                if e.dead:
                    self._recycle(e)
            heapq.heapify(live_over)
            self._overflow = live_over
        self.stat_heap_pushes += len(new_heap) + len(live_over)
        self._dead = 0

    # -- public scheduling API -------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` virtual seconds."""
        if delay < 0:
            raise ValueError("delay must be >= 0, got %r" % delay)
        self._push_entry(self.now + delay, callback, args)

    def schedule_at(self, when: float, callback: Callable[..., None],
                    *args: Any) -> None:
        """Run ``callback(*args)`` at virtual time ``when`` exactly.

        The absolute twin of :meth:`schedule`: ``now + (when - now)`` can
        miss ``when`` by an ulp, which matters to a caller replaying a
        float grid. Same-instant entries stay FIFO by scheduling order."""
        if when < self.now:
            raise ValueError("time %r is before now (%r)" % (when, self.now))
        self._push_entry(when, callback, args)

    def timeout(self, delay: float) -> Timer:
        """Return an event that fires after ``delay`` virtual seconds."""
        return Timer(self, delay)

    def event(self) -> Event:
        return Event(self)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a generator as a concurrent process."""
        return Process(self, generator, name=name)

    # -- composite waits -------------------------------------------------

    def all_of(self, events: Iterable[Event]) -> Event:
        """Event that fires when every input event has fired.

        The first *failed* input fails the gate with that exception (the
        remaining inputs are ignored); previously a failure was silently
        delivered as a plain result value.
        """
        events = list(events)
        gate = self.event()
        remaining = [len(events)]
        if not events:
            gate.succeed([])
            return gate
        results: List[Any] = [None] * len(events)

        def make(index: int) -> Callable[[Event], None]:
            def on_done(ev: Event) -> None:
                if gate.triggered:
                    return
                if ev.failed:
                    gate.fail(ev.value)
                    return
                results[index] = ev.value
                remaining[0] -= 1
                if remaining[0] == 0:
                    gate.succeed(results)

            return on_done

        for i, ev in enumerate(events):
            ev.add_callback(make(i))
        return gate

    def any_of(self, events: Iterable[Event]) -> Event:
        """Event that fires when the first input event fires.

        A winner that *failed* fails the gate with its exception instead of
        being handed to the waiter as a plain value.
        """
        gate = self.event()

        def on_done(ev: Event) -> None:
            if gate.triggered:
                return
            if ev.failed:
                gate.fail(ev.value)
            else:
                gate.succeed(ev)

        for ev in events:
            ev.add_callback(on_done)
        return gate

    # -- running ---------------------------------------------------------

    def _retune_width(self) -> None:
        """Re-fit the slot width to recent traffic at a window boundary.

        Only ever called when the calendar is empty, so no bucket needs
        remapping; purely a constant-factor knob (ordering is untouched).
        """
        executed = self.stat_events - self._events_at_retune
        span = self.now - self._time_at_retune
        if executed >= 64 and span > 0.0:
            width = (span / executed) * 8.0
            if width < _MIN_WIDTH:
                width = _MIN_WIDTH
            elif width > _MAX_WIDTH:
                width = _MAX_WIDTH
            if width > self._width * 4.0 or width * 4.0 < self._width:
                self._width = width
                self._inv_width = 1.0 / width
        self._events_at_retune = self.stat_events
        self._time_at_retune = self.now

    def _advance_window(self) -> None:
        """Move the (empty) calendar window up to the overflow heap's head."""
        self._retune_width()
        overflow = self._overflow
        head = overflow[0].when
        inv = self._inv_width
        base = int(head * inv)
        self._horizon_time = (base + _SPAN) * self._width
        horizon = self._horizon_time
        slots = self._slots
        slot_heap = self._slot_heap
        while overflow and overflow[0].when < horizon:
            entry = heapq.heappop(overflow)
            self.stat_heap_pops += 1
            if entry.dead:
                self._note_swept()
                self._recycle(entry)
                continue
            slot = int(entry.when * inv)
            bucket = slots.get(slot)
            if bucket is None:
                slots[slot] = [entry]
                heapq.heappush(slot_heap, slot)
                self.stat_heap_pushes += 1
            else:
                bucket.append(entry)

    def _execute_batch(self, batch: List[_Entry]) -> bool:
        """Run one same-timestamp batch; returns False on StopEngine."""
        index = 0
        count = len(batch)
        try:
            while index < count:
                entry = batch[index]
                index += 1
                if entry.dead:
                    # Cancelled by an earlier callback in this very batch.
                    self._note_swept()
                    self._recycle(entry)
                    continue
                fn = entry.fn
                args = entry.args
                self._recycle(entry)
                self.stat_events += 1
                if args:
                    fn(*args)
                else:
                    fn()
        except StopEngine:
            for entry in batch[index:]:
                self._insert(entry)
            return False
        except BaseException:
            for entry in batch[index:]:
                self._insert(entry)
            raise
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run the event loop.

        With ``until``, stops once the clock would pass that time (the clock
        is left exactly at ``until``). Without it, runs until no events
        remain. Returns the final clock value.
        """
        if self._running:
            raise SimulationError("engine is already running")
        self._running = True
        slots = self._slots
        slot_heap = self._slot_heap
        try:
            while True:
                # Find the earliest populated bucket, discarding slot ids
                # whose buckets were consumed (lazy slot-heap deletion).
                while slot_heap and slot_heap[0] not in slots:
                    heapq.heappop(slot_heap)
                    self.stat_heap_pops += 1
                if not slot_heap:
                    overflow = self._overflow
                    if not overflow:
                        break
                    head = overflow[0].when
                    if head != head or head - head != 0.0:  # nan/inf guard
                        if until is not None:
                            break
                        batch = []
                        while overflow and overflow[0].when == head:
                            batch.append(heapq.heappop(overflow))
                            self.stat_heap_pops += 1
                        self.now = head
                        if not self._execute_batch(batch):
                            break
                        continue
                    self._advance_window()
                    slot_heap = self._slot_heap  # compaction may rebuild it
                    continue
                slot = slot_heap[0]
                bucket = slots[slot]
                # Pass 1: earliest live timestamp in the head bucket (the
                # head bucket always contains the global minimum).
                batch_when = None
                for entry in bucket:
                    if not entry.dead:
                        when = entry.when
                        if batch_when is None or when < batch_when:
                            batch_when = when
                if batch_when is None:
                    # Bucket is all dead weight: sweep it without advancing
                    # the clock (matches the old cancelled-timer drop).
                    for entry in bucket:
                        self._note_swept()
                        self._recycle(entry)
                    del slots[slot]
                    continue
                if until is not None and batch_when > until:
                    break
                # Pass 2: split the batch out, sweeping dead entries.
                batch = []
                rest = []
                for entry in bucket:
                    if entry.dead:
                        self._note_swept()
                        self._recycle(entry)
                    elif entry.when == batch_when:
                        batch.append(entry)
                    else:
                        rest.append(entry)
                if rest:
                    slots[slot] = rest
                else:
                    del slots[slot]
                # Requeued remainders can leave buckets out of seq order;
                # a near-sorted sort is cheap and restores FIFO exactly.
                batch.sort(key=_entry_seq)
                self.now = batch_when
                if not self._execute_batch(batch):
                    break
                slot_heap = self._slot_heap  # compaction may rebuild it
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
        return self.now

    def stop(self) -> None:
        """Halt :meth:`run` from inside a callback/process."""
        raise StopEngine()
