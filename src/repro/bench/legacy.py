"""Pre-optimization reference implementations of the hot paths.

These are faithful copies of the code that shipped before the hot-path
performance overhauls: the linearly-scanned flow table, the
concatenation-per-value tuple encoder, the slice-copy decoder, and the
single-global-heap event kernel. The module now holds test references
only, each compared against its optimized counterpart:

* the codec, for ``tests/test_serialize_golden.py`` (byte-for-byte);
* the engine, for ``tests/test_sim_determinism.py`` (identical
  execution order);
* the flow table, for ``tests/test_sdn_flow.py`` (same winning
  entry on every frame).

Nothing in the runtime imports this module. Do not "optimize" it.
"""

from __future__ import annotations

import heapq
import itertools
import struct
from typing import Any, Callable, Generator, List, Optional, Tuple

from ..net.ethernet import EthernetFrame
from ..sdn.flow import FlowEntry
from ..sim.engine import Interrupt, SimulationError, StopEngine
from ..streaming.serialize import SerializationError
from ..streaming.tuples import Anchor, StreamTuple

# -- legacy event kernel -----------------------------------------------------
#
# The pre-rebuild scheduler: one global binary heap of (when, seq, callback)
# tuples, a fresh lambda per scheduled callback, cancelled timers dropped
# only when they surface at the heap top. The determinism-lock tests in
# tests/test_sim_determinism.py replay randomized workloads on this kernel
# and on the calendar-queue kernel and assert identical execution orders.


class LegacyEvent:
    _PENDING = object()

    def __init__(self, engine: "LegacyEngine"):
        self.engine = engine
        self.value: Any = LegacyEvent._PENDING
        self.failed = False
        self._callbacks: Optional[List[Callable[["LegacyEvent"], None]]] = []

    @property
    def triggered(self) -> bool:
        return self.value is not LegacyEvent._PENDING

    def add_callback(self, callback: Callable[["LegacyEvent"], None]) -> None:
        if self._callbacks is None:
            callback(self)
        else:
            self._callbacks.append(callback)

    def succeed(self, value: Any = None) -> "LegacyEvent":
        if self.triggered:
            raise SimulationError("event already triggered")
        self.value = value
        self._fire()
        return self

    def fail(self, exception: BaseException) -> "LegacyEvent":
        if self.triggered:
            raise SimulationError("event already triggered")
        self.value = exception
        self.failed = True
        self._fire()
        return self

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        for callback in callbacks or ():
            callback(self)


class LegacyTimer(LegacyEvent):
    def __init__(self, engine: "LegacyEngine", delay: float):
        super().__init__(engine)
        if delay < 0:
            raise ValueError("timer delay must be >= 0, got %r" % delay)
        self.deadline = engine.now + delay
        self.cancelled = False
        engine._push(self.deadline, self._expire)

    def cancel(self) -> None:
        self.cancelled = True

    def _expire(self) -> None:
        if not self.cancelled and not self.triggered:
            self.succeed(None)


class LegacyProcess(LegacyEvent):
    _had_waiters = False

    def __init__(self, engine: "LegacyEngine", generator: Generator,
                 name: str = ""):
        super().__init__(engine)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[LegacyEvent] = None
        self._alive = True
        engine._push(engine.now, lambda: self._step(None, None))

    @property
    def alive(self) -> bool:
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        if not self._alive:
            return
        self.engine._push(self.engine.now,
                          lambda: self._deliver_interrupt(cause))

    def _deliver_interrupt(self, cause: Any) -> None:
        if not self._alive:
            return
        if isinstance(self._waiting_on, LegacyTimer):
            self._waiting_on.cancel()
        self._waiting_on = None
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
            self._alive = False
            self.succeed(None)
            return
        except StopEngine:
            raise
        except BaseException as error:
            self._alive = False
            self.fail(error)
            if self._callbacks is None and not self._had_waiters:
                raise
            return
        self._wait_on(target)

    def add_callback(self, callback: Callable[["LegacyEvent"], None]) -> None:
        self._had_waiters = True
        super().add_callback(callback)

    def _wait_on(self, target: Any) -> None:
        if isinstance(target, (int, float)):
            target = LegacyTimer(self.engine, float(target))
        if not isinstance(target, LegacyEvent):
            raise SimulationError(
                "process %s yielded %r; expected a delay, Event or Process"
                % (self.name, target)
            )
        self._waiting_on = target
        target.add_callback(self._resume)

    def _resume(self, event: LegacyEvent) -> None:
        if not self._alive or self._waiting_on is not event:
            return
        self._waiting_on = None
        if event.failed:
            self._step(None, event.value)
        else:
            self._step(event.value, None)


class LegacyEngine:
    """The pre-rebuild event loop: one heap push/pop + lambda per event."""

    def __init__(self):
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._running = False

    def _push(self, when: float, callback: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (when, next(self._seq), callback))

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> None:
        if delay < 0:
            raise ValueError("delay must be >= 0, got %r" % delay)
        self._push(self.now + delay, lambda: callback(*args))

    def timeout(self, delay: float) -> LegacyTimer:
        return LegacyTimer(self, delay)

    def event(self) -> LegacyEvent:
        return LegacyEvent(self)

    def process(self, generator: Generator, name: str = "") -> LegacyProcess:
        return LegacyProcess(self, generator, name=name)

    def run(self, until: Optional[float] = None) -> float:
        if self._running:
            raise SimulationError("engine is already running")
        self._running = True
        try:
            while self._heap:
                when, _seq, callback = self._heap[0]
                owner = getattr(callback, "__self__", None)
                if isinstance(owner, LegacyTimer) and (owner.cancelled
                                                       or owner.triggered):
                    heapq.heappop(self._heap)
                    continue
                if until is not None and when > until:
                    break
                heapq.heappop(self._heap)
                self.now = when
                try:
                    callback()
                except StopEngine:
                    break
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
        return self.now

    def stop(self) -> None:
        raise StopEngine()


# -- legacy flow-table lookup ------------------------------------------------


class LegacyFlowTable:
    """The original priority table: one flat list, sorted on every
    insert, linearly scanned on every lookup."""

    def __init__(self):
        self._entries: List[FlowEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, entry: FlowEntry, now: float = 0.0) -> FlowEntry:
        entry.installed_at = now
        entry.last_used = now
        for i, existing in enumerate(self._entries):
            if existing.match == entry.match and existing.priority == entry.priority:
                self._entries[i] = entry
                return entry
        self._entries.append(entry)
        self._entries.sort(key=lambda e: (-e.priority, e.entry_id))
        return entry

    def lookup(self, frame: EthernetFrame, in_port: int) -> Optional[FlowEntry]:
        for entry in self._entries:
            if entry.match.matches(frame, in_port):
                return entry
        return None


# -- legacy codec ------------------------------------------------------------

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_DICT = 0x08
_T_BIGINT = 0x09

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1

_U32 = struct.Struct("!I")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")

_ENVELOPE = struct.Struct("!HiBH")
_ANCHOR = struct.Struct("!QQ")
_TRACE = struct.Struct("!Q")
_FLAG_ANCHORED = 0x01
_FLAG_TRACED = 0x02


def _encode_value(value: Any, out: List[bytes]) -> None:
    if value is None:
        out.append(bytes([_T_NONE]))
    elif value is True:
        out.append(bytes([_T_TRUE]))
    elif value is False:
        out.append(bytes([_T_FALSE]))
    elif isinstance(value, int):
        if _I64_MIN <= value <= _I64_MAX:
            out.append(bytes([_T_INT]) + _I64.pack(value))
        else:
            magnitude = abs(value)
            body = magnitude.to_bytes((magnitude.bit_length() + 8) // 8,
                                      "big", signed=False)
            sign = 1 if value < 0 else 0
            out.append(bytes([_T_BIGINT, sign])
                       + _U32.pack(len(body)) + body)
    elif isinstance(value, float):
        out.append(bytes([_T_FLOAT]) + _F64.pack(value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(bytes([_T_STR]) + _U32.pack(len(data)) + data)
    elif isinstance(value, (bytes, bytearray)):
        out.append(bytes([_T_BYTES]) + _U32.pack(len(value)) + bytes(value))
    elif isinstance(value, (list, tuple)):
        out.append(bytes([_T_LIST]) + _U32.pack(len(value)))
        for item in value:
            _encode_value(item, out)
    elif isinstance(value, dict):
        out.append(bytes([_T_DICT]) + _U32.pack(len(value)))
        for key, item in value.items():
            _encode_value(key, out)
            _encode_value(item, out)
    else:
        raise SerializationError("cannot serialize %r of type %s"
                                 % (value, type(value).__name__))


def _decode_value(data: bytes, offset: int) -> Tuple[Any, int]:
    if offset >= len(data):
        raise SerializationError("truncated value")
    tag = data[offset]
    offset += 1
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_INT:
        (value,) = _I64.unpack_from(data, offset)
        return value, offset + 8
    if tag == _T_BIGINT:
        sign = data[offset]
        offset += 1
        (length,) = _U32.unpack_from(data, offset)
        offset += 4
        magnitude = int.from_bytes(data[offset:offset + length], "big")
        return (-magnitude if sign else magnitude), offset + length
    if tag == _T_FLOAT:
        (value,) = _F64.unpack_from(data, offset)
        return value, offset + 8
    if tag == _T_STR:
        (length,) = _U32.unpack_from(data, offset)
        offset += 4
        return data[offset:offset + length].decode("utf-8"), offset + length
    if tag == _T_BYTES:
        (length,) = _U32.unpack_from(data, offset)
        offset += 4
        return bytes(data[offset:offset + length]), offset + length
    if tag == _T_LIST:
        (length,) = _U32.unpack_from(data, offset)
        offset += 4
        items = []
        for _ in range(length):
            item, offset = _decode_value(data, offset)
            items.append(item)
        return items, offset
    if tag == _T_DICT:
        (length,) = _U32.unpack_from(data, offset)
        offset += 4
        mapping = {}
        for _ in range(length):
            key, offset = _decode_value(data, offset)
            value, offset = _decode_value(data, offset)
            mapping[key] = value
        return mapping, offset
    raise SerializationError("unknown type tag 0x%02x" % tag)


def legacy_encode_values(values: Tuple[Any, ...]) -> bytes:
    out: List[bytes] = []
    for value in values:
        _encode_value(value, out)
    return b"".join(out)


def legacy_encode_tuple(stream_tuple: StreamTuple) -> bytes:
    flags = _FLAG_ANCHORED if stream_tuple.anchor is not None else 0
    if stream_tuple.trace_id is not None:
        flags |= _FLAG_TRACED
    head = _ENVELOPE.pack(stream_tuple.stream, stream_tuple.source_worker,
                          flags, len(stream_tuple.values))
    body: List[bytes] = [head]
    if stream_tuple.anchor is not None:
        body.append(_ANCHOR.pack(stream_tuple.anchor.root_id,
                                 stream_tuple.anchor.edge_id))
    if stream_tuple.trace_id is not None:
        body.append(_TRACE.pack(stream_tuple.trace_id))
    body.append(legacy_encode_values(stream_tuple.values))
    return b"".join(body)


def legacy_decode_tuple(data: bytes, source_component: str = "") -> StreamTuple:
    if len(data) < _ENVELOPE.size:
        raise SerializationError("truncated tuple envelope")
    stream, source_worker, flags, nvalues = _ENVELOPE.unpack_from(data, 0)
    offset = _ENVELOPE.size
    anchor = None
    if flags & _FLAG_ANCHORED:
        root_id, edge_id = _ANCHOR.unpack_from(data, offset)
        anchor = Anchor(root_id, edge_id)
        offset += _ANCHOR.size
    trace_id = None
    if flags & _FLAG_TRACED:
        (trace_id,) = _TRACE.unpack_from(data, offset)
        offset += _TRACE.size
    values = []
    for _ in range(nvalues):
        value, offset = _decode_value(data, offset)
        values.append(value)
    if offset != len(data):
        raise SerializationError("%d trailing bytes after tuple"
                                 % (len(data) - offset))
    return StreamTuple(values=tuple(values), stream=stream,
                       source_component=source_component,
                       source_worker=source_worker, anchor=anchor,
                       trace_id=trace_id)
