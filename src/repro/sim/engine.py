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

The ready queue is one binary heap (:mod:`heapq`) of ``[when, seq, fn,
args]`` entries. ``seq`` counts every entry ever scheduled, so the heap
orders events by ``(when, seq)``: by deadline, then FIFO among equal
deadlines.

A cancelled timer or an interrupted sleep is *lazily deleted*: its
entry's ``fn`` is set to ``None``, and the run loop drops the entry when
it reaches the top of the heap. When dead entries reach
``_COMPACT_MIN`` and half the heap, the heap is filtered and
re-heapified, so cancel churn cannot grow it without bound.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

_COMPACT_MIN = 64     # never compact below this many dead entries
_INF = float("inf")


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
    (lazy deletion) instead of digging it out of the heap.
    """

    __slots__ = ("deadline", "cancelled", "_entry")

    def __init__(self, engine: "Engine", delay: float):
        super().__init__(engine)
        if not delay >= 0:
            raise ValueError("timer delay must be >= 0, got %r" % delay)
        self.deadline = engine.now + delay
        self.cancelled = False
        self._entry: Optional[list] = engine._push_entry(
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
            self.engine._cancel(entry)

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
        self._sleep_entry: Optional[list] = None
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
            self.engine._cancel(entry)
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
            if not delay >= 0:
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
    """The event loop: one heap of ``[when, seq, fn, args]`` entries."""

    def __init__(self):
        self.now: float = 0.0
        self._heap: List[list] = []
        self._seq = 0              # entries created so far
        self._dead = 0             # queued entries whose fn is None
        self._running = False
        # Instrumentation (surfaced by :meth:`stats`).
        self.stat_events = 0       # callbacks executed
        self.stat_dead_pops = 0    # dead entries dropped at the heap top
        self.stat_cancel_hwm = 0   # high-water mark of dead entries
        self.stat_compactions = 0

    # -- scheduling ------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Live (non-cancelled) entries currently queued."""
        return len(self._heap) - self._dead

    def stats(self) -> Dict[str, int]:
        """Counters for the bench harness; cheap to call at any time.

        Every entry is created by one heap push, and leaves by one pop
        (it runs, or it is dropped dead) unless a compaction filters it
        out."""
        return {
            "events_executed": self.stat_events,
            "heap_pushes": self._seq,
            "heap_pops": self.stat_events + self.stat_dead_pops,
            "entry_allocs": self._seq,
            "cancelled_high_water": self.stat_cancel_hwm,
            "compactions": self.stat_compactions,
        }

    def _push_entry(self, when: float, fn: Callable[..., None],
                    args: tuple) -> list:
        seq = self._seq
        self._seq = seq + 1
        entry = [when, seq, fn, args]
        heapq.heappush(self._heap, entry)
        return entry

    # -- lazy deletion ---------------------------------------------------

    def _cancel(self, entry: list) -> None:
        """Flag a queued entry dead; the run loop drops it at the top."""
        if entry[2] is None:
            return
        entry[2] = None
        dead = self._dead + 1
        self._dead = dead
        if dead > self.stat_cancel_hwm:
            self.stat_cancel_hwm = dead
        if dead >= _COMPACT_MIN and dead * 2 >= len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Filter dead entries out of the heap (bounds soak memory).

        In place, so a running loop's reference to the heap stays valid."""
        self.stat_compactions += 1
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2] is not None]
        heapq.heapify(heap)
        self._dead = 0

    # -- public scheduling API -------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` virtual seconds."""
        if not delay >= 0:
            raise ValueError("delay must be >= 0, got %r" % delay)
        self._push_entry(self.now + delay, callback, args)

    def schedule_at(self, when: float, callback: Callable[..., None],
                    *args: Any) -> None:
        """Run ``callback(*args)`` at virtual time ``when`` exactly.

        The absolute twin of :meth:`schedule`: ``now + (when - now)`` can
        miss ``when`` by an ulp, which matters to a caller replaying a
        float grid. Same-instant entries stay FIFO by scheduling order."""
        if not when >= self.now:
            raise ValueError("time must be >= now (%r), got %r"
                             % (self.now, when))
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

    def run(self, until: Optional[float] = None) -> float:
        """Run the event loop.

        With ``until``, stops once the clock would pass that time (the clock
        is left exactly at ``until``). Without it, runs until no events
        remain. Returns the final clock value.
        """
        if self._running:
            raise SimulationError("engine is already running")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        limit = _INF if until is None else until
        try:
            while heap:
                entry = heap[0]
                fn = entry[2]
                if fn is None:
                    pop(heap)
                    self._dead -= 1
                    self.stat_dead_pops += 1
                    continue
                when = entry[0]
                if when > limit:
                    break
                pop(heap)
                self.now = when
                self.stat_events += 1
                args = entry[3]
                if args:
                    fn(*args)
                else:
                    fn()
        except StopEngine:
            pass
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def stop(self) -> None:
        """Halt :meth:`run` from inside a callback/process."""
        raise StopEngine()
