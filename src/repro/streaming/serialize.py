"""Tuple serialization: a compact, self-describing binary codec.

Serialization is *the* cost the paper's broadcast optimization removes
(it cites 60–90 % of transfer time), so this reproduction serializes for
real: tuple values are encoded to actual bytes with a type-tagged format
(None, bool, int, float, str, bytes, list, dict) and decoded back. The
virtual-time cost of each encode/decode is derived from the resulting
byte count via the :class:`~repro.sim.costs.CostModel`.

The wire format is deliberately simple (length-prefixed, big-endian) — a
stand-in for Kryo/Java serialization in Storm — but the implementation
is the repo's hottest real (wall-clock) path, so it is tuned for CPython
(see DESIGN.md §5d for the measurements behind each choice):

* **encode** appends into one growing ``bytearray``: tag + fixed-width
  field pairs are reserved from preallocated zero-pad singletons and
  written in a single ``Struct.pack_into`` call (``!Bq``-style combined
  structs) — no per-value ``bytes([tag]) + packed`` temporaries, no
  final ``join`` pass, and :func:`encode_tuple` never calls
  ``Struct.pack`` (locked by an allocation-regression test; the train
  encoder appends ``pack`` results, one per fixed-width field or per
  ack record);
* **decode** walks one flat buffer with the dispatch chain ordered by
  observed tag frequency and the struct readers bound as default
  arguments; each str/bytes payload is materialized from exactly one
  slice of the input, with no intermediate temporaries. Truncation is
  detected by the buffer reads themselves rather than a per-value bounds
  check. (An all-``memoryview`` decoder was prototyped and benchmarked
  *slower*: CPython's memoryview slice objects cost more than the small
  copies they avoid — see §5d.)
* **both directions batch**: values are encoded/decoded in runs
  (``_encode_many``/``_decode_many``), so scalars cost zero Python
  function calls — the codec recurses only for nested containers.
* **column-uniform spout trains are patched, not walked**
  (:func:`encode_train_uniform`): when every record has one width and
  each column is a constant or a signed-64/float lane, the first
  record is encoded once, repeated per tuple, and each lane is written
  with eight strided slice assignments from a byteswapped ``array``;
  an acked spout's anchored train also patches its root and edge ids
  as two unsigned-64 lanes.
  Trains shorter than :data:`_PATCH_MIN` (the measured crossover;
  :data:`_ANCHORED_PATCH_MIN` for anchored trains) and every other
  shape take :func:`encode_train`'s walk; there is no second
  per-value loop.

The byte layout is unchanged — encode/decode are byte-for-byte
compatible with the pre-optimization codec, including the optional
anchor/trace trailing fields (locked by the golden-bytes tests).
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Any, Optional, Tuple

from ..sim.costs import CostModel
from .tuples import ACK_STREAM, Anchor, StreamTuple

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_DICT = 0x08
_T_BIGINT = 0x09  # ints outside the signed-64 range (e.g. 64-bit ack ids)

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1
_U64_END = 2 ** 64

_U32 = struct.Struct("!I")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")

#: Combined tag+field structs: one ``pack_into`` writes the tag byte and
#: the big-endian field together (network byte order has no padding, so
#: ``!Bq`` lays out identically to a tag byte followed by ``!q``).
_TAG_I64 = struct.Struct("!Bq")    # tag + i64
_TAG_F64 = struct.Struct("!Bd")    # tag + f64
_TAG_U32 = struct.Struct("!BI")    # tag + u32 (str/bytes/list/dict headers)
_BIGINT_HEAD = struct.Struct("!BBI")  # tag + sign + u32 length
#: A whole bigint record for ``2**63 <= v < 2**64`` (every 64-bit ack
#: id above the signed range): tag, sign 0, length 9, then the 9-byte
#: big-endian magnitude, whose leading byte is always zero (the ``x``
#: pad). The same bytes the generic bigint branch writes, in one pack.
_U64_BIGINT = struct.Struct("!BBIxQ")

# Tuple envelope:
#   stream(2) src_worker(4-signed) flags(1) nvalues(2) [anchor 16] [trace 8]
_ENVELOPE = struct.Struct("!HiBH")
_ANCHOR = struct.Struct("!QQ")
_TRACE = struct.Struct("!Q")
_FLAG_ANCHORED = 0x01
#: Set when the tuple was sampled by the tracer; an 8-byte trace id
#: follows the (optional) anchor. Unsampled tuples carry neither the
#: flag nor the bytes, so wire traffic is unchanged when tracing is off.
_FLAG_TRACED = 0x02
#: Set when the tuple carries a replication sequencing stamp: a 4-byte
#: epoch plus an 8-byte sequence number follow the (optional) anchor and
#: trace fields. Placed last so :func:`peek_trace_id` offsets are
#: unchanged; non-replicated tuples carry neither the flag nor the
#: bytes, so wire traffic is byte-identical when replication is off.
_FLAG_SEQUENCED = 0x04
_SEQ = struct.Struct("!IQ")

#: Preallocated zero padding, extended into the output buffer to
#: reserve room for a tag byte plus a fixed-width field, which is then
#: filled in place with ``pack_into`` — one shared singleton per field
#: shape instead of a fresh ``bytes`` temporary per value.
_PAD_TAG_U32 = bytes(_TAG_U32.size)
_PAD_TAG_I64 = bytes(_TAG_I64.size)
_PAD_BIGINT_HEAD = bytes(_BIGINT_HEAD.size)
_PAD_U64_BIGINT = bytes(_U64_BIGINT.size)
_PAD_ENVELOPE = bytes(_ENVELOPE.size)
_PAD_ANCHOR = bytes(_ANCHOR.size)
_PAD_TRACE = bytes(_TRACE.size)
_PAD_SEQ = bytes(_SEQ.size)

#: Per-record length prefix used by :func:`encode_train`. Mirrors the
#: packets layer's MULTI record framing (``u32 len | record``, see
#: :mod:`repro.core.packets`); defined locally because importing from
#: :mod:`repro.core` here would be circular (core's io_layer imports
#: this module).
_RECORD_LEN = struct.Struct("!I")
_PAD_RECORD_LEN = bytes(_RECORD_LEN.size)


class SerializationError(ValueError):
    """Raised when a value cannot be encoded or bytes cannot be decoded."""


#: Memoized envelope headers keyed by (stream, source_worker, flags,
#: nvalues). Real streams reuse a handful of envelope shapes, so the 9
#: header bytes are a dict hit instead of a pack_into; byte output is
#: unchanged. Bounded: cleared wholesale if an app somehow produces
#: thousands of distinct shapes.
_ENVELOPE_CACHE: dict = {}
_ENVELOPE_CACHE_MAX = 1024

#: Memoized str value records (tag + u32 length + utf-8 bytes). Workloads
#: re-send the same strings constantly (fixed payloads, word vocabularies),
#: and str objects cache their own hash, so the lookup is near-free.
#: Long strings are not cached to bound memory.
_STR_RECORD_CACHE: dict = {}
_STR_RECORD_CACHE_MAX = 4096
_STR_CACHE_LEN_LIMIT = 256


def _encode_many(values, out: bytearray,
                 _pack_i64=_TAG_I64.pack_into,
                 _pack_f64=_TAG_F64.pack_into,
                 _pack_u32=_TAG_U32.pack_into,
                 _pack_big=_BIGINT_HEAD.pack_into,
                 _pack_u64=_U64_BIGINT.pack_into,
                 _len=len, _type=type, _isinstance=isinstance) -> None:
    """Encode a run of values; scalars cost zero Python function calls
    (the encoder recurses only for containers). Exact-type dispatch is
    ordered by observed frequency, with an ``isinstance`` fallback for
    subclasses so the accepted type set matches the original encoder."""
    for value in values:
        if value is None:
            out.append(_T_NONE)
            continue
        if value is True:
            out.append(_T_TRUE)
            continue
        if value is False:
            out.append(_T_FALSE)
            continue
        kind = _type(value)
        if kind is not int and kind is not str and kind is not float \
                and kind is not list and kind is not tuple \
                and kind is not dict and kind is not bytes \
                and kind is not bytearray:
            # Subclasses (IntEnum, namedtuple, …): widen to the base
            # type the original isinstance chain would have picked.
            if _isinstance(value, int):
                kind = int
            elif _isinstance(value, float):
                kind = float
            elif _isinstance(value, str):
                kind = str
            elif _isinstance(value, (bytes, bytearray)):
                kind = bytes
            elif _isinstance(value, (list, tuple)):
                kind = list
            elif _isinstance(value, dict):
                kind = dict
            else:
                raise SerializationError(
                    "cannot serialize %r of type %s"
                    % (value, type(value).__name__))
        if kind is int:
            if _I64_MIN <= value <= _I64_MAX:
                pos = _len(out)
                out += _PAD_TAG_I64
                _pack_i64(out, pos, _T_INT, value)
            elif _I64_MAX < value < _U64_END:
                pos = _len(out)
                out += _PAD_U64_BIGINT
                _pack_u64(out, pos, _T_BIGINT, 0, 9, value)
            else:
                magnitude = abs(value)
                body = magnitude.to_bytes((magnitude.bit_length() + 8) // 8,
                                          "big", signed=False)
                pos = _len(out)
                out += _PAD_BIGINT_HEAD
                _pack_big(out, pos, _T_BIGINT, 1 if value < 0 else 0,
                          _len(body))
                out += body
        elif kind is str:
            record = _STR_RECORD_CACHE.get(value)
            if record is not None:
                out += record
            elif _len(value) <= _STR_CACHE_LEN_LIMIT:
                data = value.encode("utf-8")
                record = bytearray()
                record += _PAD_TAG_U32
                _pack_u32(record, 0, _T_STR, _len(data))
                record += data
                record = bytes(record)
                if _len(_STR_RECORD_CACHE) >= _STR_RECORD_CACHE_MAX:
                    _STR_RECORD_CACHE.clear()
                _STR_RECORD_CACHE[value] = record
                out += record
            else:
                data = value.encode("utf-8")
                pos = _len(out)
                out += _PAD_TAG_U32
                _pack_u32(out, pos, _T_STR, _len(data))
                out += data
        elif kind is float:
            pos = _len(out)
            out += _PAD_TAG_I64
            _pack_f64(out, pos, _T_FLOAT, value)
        elif kind is list or kind is tuple:
            pos = _len(out)
            out += _PAD_TAG_U32
            _pack_u32(out, pos, _T_LIST, _len(value))
            _encode_many(value, out)
        elif kind is dict:
            pos = _len(out)
            out += _PAD_TAG_U32
            _pack_u32(out, pos, _T_DICT, _len(value))
            for key, item in value.items():
                _encode_many((key, item), out)
        else:  # bytes / bytearray
            pos = _len(out)
            out += _PAD_TAG_U32
            _pack_u32(out, pos, _T_BYTES, _len(value))
            out += value


def _encode_value(value: Any, out: bytearray) -> None:
    _encode_many((value,), out)


def _decode_many(data: bytes, offset: int, count: int, out,
                 _unpack_u32=_U32.unpack_from,
                 _unpack_i64=_I64.unpack_from,
                 _unpack_f64=_F64.unpack_from,
                 _from_bytes=int.from_bytes) -> int:
    """Decode ``count`` values from a flat ``bytes`` buffer, appending
    them to ``out``; returns the new offset.

    Scalars cost zero Python function calls (recursion only for
    containers) and the dispatch chain is ordered by observed tag
    frequency (str and int dominate real streams). There is no
    per-value bounds check: a truncated buffer surfaces as
    ``IndexError``/``struct.error`` from the reads themselves, which
    :func:`decode_tuple` converts."""
    append = out.append
    for _ in range(count):
        tag = data[offset]
        offset += 1
        if tag == _T_STR:
            (length,) = _unpack_u32(data, offset)
            offset += 4
            end = offset + length
            append(data[offset:end].decode("utf-8"))
            offset = end
            continue
        if tag == _T_INT:
            (value,) = _unpack_i64(data, offset)
            append(value)
            offset += 8
            continue
        if tag == _T_NONE:
            append(None)
            continue
        if tag == _T_TRUE:
            append(True)
            continue
        if tag == _T_FALSE:
            append(False)
            continue
        if tag == _T_FLOAT:
            (value,) = _unpack_f64(data, offset)
            append(value)
            offset += 8
            continue
        if tag == _T_LIST:
            (length,) = _unpack_u32(data, offset)
            offset += 4
            items = []
            offset = _decode_many(data, offset, length, items)
            append(items)
            continue
        if tag == _T_DICT:
            (length,) = _unpack_u32(data, offset)
            offset += 4
            flat = []
            offset = _decode_many(data, offset, length + length, flat)
            pairs = iter(flat)
            append(dict(zip(pairs, pairs)))
            continue
        if tag == _T_BYTES:
            (length,) = _unpack_u32(data, offset)
            offset += 4
            end = offset + length
            append(data[offset:end])
            offset = end
            continue
        if tag == _T_BIGINT:
            sign = data[offset]
            offset += 1
            (length,) = _unpack_u32(data, offset)
            offset += 4
            end = offset + length
            magnitude = _from_bytes(data[offset:end], "big")
            append(-magnitude if sign else magnitude)
            offset = end
            continue
        raise SerializationError("unknown type tag 0x%02x" % tag)
    return offset


def _decode_value(data: bytes, offset: int) -> Tuple[Any, int]:
    out: list = []
    offset = _decode_many(data, offset, 1, out)
    return out[0], offset


def encode_values(values: Tuple[Any, ...]) -> bytes:
    out = bytearray()
    _encode_many(values, out)
    return bytes(out)


def encode_tuple(stream_tuple: StreamTuple) -> bytes:
    """Serialize a full tuple (envelope + values) to bytes."""
    anchor = stream_tuple.anchor
    trace_id = stream_tuple.trace_id
    seq = stream_tuple.seq
    values = stream_tuple.values
    flags = _FLAG_ANCHORED if anchor is not None else 0
    if trace_id is not None:
        flags |= _FLAG_TRACED
    if seq is not None:
        flags |= _FLAG_SEQUENCED
    key = (stream_tuple.stream, stream_tuple.source_worker, flags,
           len(values))
    head = _ENVELOPE_CACHE.get(key)
    if head is None:
        head = bytearray(_PAD_ENVELOPE)
        _ENVELOPE.pack_into(head, 0, key[0], key[1], flags, key[3])
        head = bytes(head)
        if len(_ENVELOPE_CACHE) >= _ENVELOPE_CACHE_MAX:
            _ENVELOPE_CACHE.clear()
        _ENVELOPE_CACHE[key] = head
    out = bytearray(head)
    if anchor is not None:
        pos = len(out)
        out += _PAD_ANCHOR
        _ANCHOR.pack_into(out, pos, anchor.root_id, anchor.edge_id)
    if trace_id is not None:
        pos = len(out)
        out += _PAD_TRACE
        _TRACE.pack_into(out, pos, trace_id)
    if seq is not None:
        pos = len(out)
        out += _PAD_SEQ
        _SEQ.pack_into(out, pos, seq[0], seq[1])
    _encode_many(values, out)
    return bytes(out)


#: Exact value types the transport's same-process fast lane may share
#: by reference instead of re-decoding: immutable scalars only
#: (``bytearray`` is scalar-encodable but mutable, so it is excluded).
SCALAR_TYPES = frozenset((str, int, float, bytes, bool, type(None)))


def encode_tuple_scalar(
    stream_tuple: StreamTuple,
    _pack_i64=_TAG_I64.pack_into,
    _pack_f64=_TAG_F64.pack_into,
    _pack_u32=_TAG_U32.pack_into,
    _pack_big=_BIGINT_HEAD.pack_into,
    _pack_u64=_U64_BIGINT.pack_into,
    _len=len, _type=type,
    _memo=[None, None, None, b""],
) -> Tuple[bytes, bool]:
    """Serialize and classify in one pass: ``(encoded, all_scalar)``.

    ``encoded`` is byte-for-byte identical to :func:`encode_tuple`
    (locked by the golden-bytes tests); ``all_scalar`` reports whether
    every value's exact type is in :data:`SCALAR_TYPES` — the
    transport's fast-lane eligibility test. The hot send paths need
    both answers for every tuple, and fusing them saves a second pass
    over the values plus two call frames (``encode_tuple`` →
    ``_encode_many``) per tuple. The body is ``_encode_many``
    specialized to scalar values in the same pad-and-``pack_into``
    style; anchored/traced tuples and container (or subclass) values
    fall back to the generic encoder.
    """
    values = stream_tuple.values
    if stream_tuple.anchor is not None or stream_tuple.trace_id is not None \
            or stream_tuple.seq is not None:
        encoded = encode_tuple(stream_tuple)
        for value in values:
            if _type(value) not in SCALAR_TYPES:
                return encoded, False
        return encoded, True
    stream = stream_tuple.stream
    src = stream_tuple.source_worker
    nvalues = _len(values)
    # Single-entry memo in front of the envelope dict: consecutive
    # tuples almost always share one envelope shape, so the common case
    # is two int compares instead of a key-tuple build + dict hash.
    # (Content-addressed, so the dict's overflow clear cannot stale it.)
    if stream == _memo[0] and src == _memo[1] and nvalues == _memo[2]:
        head = _memo[3]
    else:
        key = (stream, src, 0, nvalues)
        head = _ENVELOPE_CACHE.get(key)
        if head is None:
            head = bytearray(_PAD_ENVELOPE)
            _ENVELOPE.pack_into(head, 0, stream, src, 0, nvalues)
            head = bytes(head)
            if _len(_ENVELOPE_CACHE) >= _ENVELOPE_CACHE_MAX:
                _ENVELOPE_CACHE.clear()
            _ENVELOPE_CACHE[key] = head
        _memo[0] = stream
        _memo[1] = src
        _memo[2] = nvalues
        _memo[3] = head
    out = bytearray(head)
    for value in values:
        kind = _type(value)
        if kind is str:
            record = _STR_RECORD_CACHE.get(value)
            if record is not None:
                out += record
            elif _len(value) <= _STR_CACHE_LEN_LIMIT:
                data = value.encode("utf-8")
                record = bytearray()
                record += _PAD_TAG_U32
                _pack_u32(record, 0, _T_STR, _len(data))
                record += data
                record = bytes(record)
                if _len(_STR_RECORD_CACHE) >= _STR_RECORD_CACHE_MAX:
                    _STR_RECORD_CACHE.clear()
                _STR_RECORD_CACHE[value] = record
                out += record
            else:
                data = value.encode("utf-8")
                pos = _len(out)
                out += _PAD_TAG_U32
                _pack_u32(out, pos, _T_STR, _len(data))
                out += data
        elif kind is int:
            if _I64_MIN <= value <= _I64_MAX:
                pos = _len(out)
                out += _PAD_TAG_I64
                _pack_i64(out, pos, _T_INT, value)
            elif _I64_MAX < value < _U64_END:
                pos = _len(out)
                out += _PAD_U64_BIGINT
                _pack_u64(out, pos, _T_BIGINT, 0, 9, value)
            else:
                magnitude = abs(value)
                body = magnitude.to_bytes((magnitude.bit_length() + 8) // 8,
                                          "big", signed=False)
                pos = _len(out)
                out += _PAD_BIGINT_HEAD
                _pack_big(out, pos, _T_BIGINT, 1 if value < 0 else 0,
                          _len(body))
                out += body
        elif kind is float:
            pos = _len(out)
            out += _PAD_TAG_I64
            _pack_f64(out, pos, _T_FLOAT, value)
        elif value is None:
            out.append(_T_NONE)
        elif kind is bool:
            out.append(_T_TRUE if value else _T_FALSE)
        elif kind is bytes:
            pos = _len(out)
            out += _PAD_TAG_U32
            _pack_u32(out, pos, _T_BYTES, _len(value))
            out += value
        else:
            # Container or subclass value: not fast-lane eligible; let
            # the generic encoder redo the tuple (rare path).
            return encode_tuple(stream_tuple), False
    return bytes(out), True


#: Memoized ``length-prefix pad + envelope head`` byte strings for
#: :func:`encode_train`, so the per-record preamble is one bytearray
#: extend instead of two. Separate from :data:`_ENVELOPE_CACHE` (which
#: stores bare heads for the per-tuple encoders).
_TRAIN_HEAD_CACHE: dict = {}

#: Fixed-layout ack records (``(kind, root_id, value, worker)`` on the
#: ack stream, see :func:`encode_train`). An integer field is written
#: as a prefix plus eight bytes: ``_T_INT`` then ``!q`` for the signed
#: 64-bit range, or the 7-byte bigint prefix (tag, sign 0, length 9,
#: zero pad) then ``!Q`` for ``2**63 <= v < 2**64`` — the bytes
#: ``_encode_many`` writes for each. Indexed by ``v > _I64_MAX``.
_ACK_INT_PREFIX = (bytes([_T_INT]), _U64_BIGINT.pack(_T_BIGINT, 0, 9, 0)[:7])
#: ``Struct.pack`` of the integers after the root's prefix: root, the
#: value's prefix and value, the worker's tag and worker. Indexed by
#: root width, then value width.
_ACK_INTS = tuple(
    tuple(struct.Struct("!%s%sBq" % (root, value)).pack
          for value in ("1sq", "7sQ"))
    for root in ("q", "Q"))
#: ``(stream, source, kind)`` -> the four record shapes of that kind,
#: indexed by root width, then value width: ``(head, pack, value
#: prefix, rlen, estimate)``, where the head is the record's ``u32``
#: length, envelope, kind record and root prefix.
_ACK_HEAD_CACHE: dict = {}


def _ack_shapes(stream: int, src: int, kind: str):
    """Build and cache the fixed-layout ack record shapes of one kind."""
    front = _ENVELOPE.pack(stream, src, 0, 4) + encode_values((kind,))
    estimate = 80 + len(kind) + 24
    shapes = []
    for root_wide in (False, True):
        body = front + _ACK_INT_PREFIX[root_wide]
        row = []
        for value_wide in (False, True):
            value_prefix = _ACK_INT_PREFIX[value_wide]
            rlen = len(body) + 8 + len(value_prefix) + 8 + _TAG_I64.size
            row.append((_RECORD_LEN.pack(rlen) + body,
                        _ACK_INTS[root_wide][value_wide], value_prefix,
                        rlen, estimate))
        shapes.append(tuple(row))
    shapes = tuple(shapes)
    if len(_ACK_HEAD_CACHE) >= _ENVELOPE_CACHE_MAX:
        _ACK_HEAD_CACHE.clear()
    _ACK_HEAD_CACHE[(stream, src, kind)] = shapes
    return shapes


def encode_train(
    stream_tuples,
    _pack_i64=_TAG_I64.pack,
    _pack_f64=_TAG_F64.pack_into,
    _pack_u32=_TAG_U32.pack_into,
    _pack_big=_BIGINT_HEAD.pack_into,
    _pack_u64=_U64_BIGINT.pack,
    _pack_rec=_RECORD_LEN.pack_into,
    _pack_anchor=_ANCHOR.pack,
    _ack_heads=_ACK_HEAD_CACHE, _ack_stream=ACK_STREAM,
    _len=len, _type=type, _int=int, _str=str,
):
    """Serialize a whole train of plain or anchored tuples into one
    contiguous, length-prefixed buffer in a single pass.

    Returns ``(data, bounds, rlens, ests, objs, stream)``:

    * ``data`` — one ``bytes`` buffer holding every record behind a
      big-endian ``u32`` length prefix, exactly the packets layer's
      MULTI record framing (Fig. 5), so a flush whose batch is one
      train can lift the payload body straight out of ``data`` with a
      single slice. Record ``i``'s prefix starts at ``bounds[i]`` and
      its serialized bytes are ``data[bounds[i] + 4 : bounds[i + 1]]``
      — byte-for-byte what :func:`encode_tuple_scalar` would produce.
    * ``rlens[i]`` — record ``i``'s serialized length (sans prefix),
      precomputed so cost accounting downstream never re-derives it.
    * ``ests`` — cumulative receive-side byte estimates: the store
      sizer's charge for records ``i..j`` is ``ests[j] - ests[i]``
      (80 per tuple + ``len(value)`` for str/bytes values, 8 for other
      scalars — the same integer walk :func:`delivery_bytes` does,
      folded into the type dispatch already happening here; integer
      addition is associative, so slice sums are exact).
    * ``objs`` — ``None`` when every record is fast-lane eligible
      (each value's exact type is in :data:`SCALAR_TYPES`); callers
      then use the input sequence itself, skipping one list build per
      train. Otherwise a list holding the tuple at eligible records
      and ``None`` where a container value forced a generic re-encode.
      ``all_fast`` is simply ``objs is None``.
    * ``stream`` — the one stream id every tuple rides, or ``None``
      when the train mixes streams. Tracked inside the envelope-change
      branch (a stream switch always changes the envelope), so the
      common single-stream train pays nothing per tuple. Receivers use
      it to hand a whole uniform train to a component's batch hook.

    An anchored tuple's record carries the anchored flag and the
    16-byte anchor after its envelope, exactly as :func:`encode_tuple`
    writes it, so acked traffic trains too. Returns ``None`` outright
    when any tuple in the train carries a trace or sequencing stamp
    (checked inline, so the clean common case pays no separate scan
    pass). Those stamps only appear when tracing or replication is
    armed; stamped batches fall back to the caller's per-tuple loop.

    Ack records — an unanchored ack-stream tuple of four values: a
    ``str`` kind, a root id and a value that are ``int`` in
    ``[-2**63, 2**64)`` and a signed 64-bit ``int`` worker — skip the
    per-value walk: one cached head (see :func:`_ack_shapes`) plus one
    ``Struct.pack`` of the integers write the same bytes. Any other
    ack-stream tuple takes the walk.
    """
    buf = bytearray()
    bounds: list = [0]   # record prefix offsets; n+1 entries
    rlens: list = []
    ests: list = [0]     # cumulative delivery-byte estimates; n+1 entries
    objs = None          # materialized lazily on the first slow record
    keep = None
    mark = bounds.append
    keep_len = rlens.append
    keep_est = ests.append
    est = 0
    prev_stream = prev_src = prev_n = prev_flags = None
    train_stream = None
    mixed = False
    head = b""
    ack_kind = ack_shapes = None
    for stream_tuple in stream_tuples:
        if stream_tuple.trace_id is not None \
                or stream_tuple.seq is not None:
            return None
        anchor = stream_tuple.anchor
        flags = 0 if anchor is None else _FLAG_ANCHORED
        values = stream_tuple.values
        stream = stream_tuple.stream
        src = stream_tuple.source_worker
        nvalues = _len(values)
        if stream != prev_stream or src != prev_src or nvalues != prev_n \
                or flags != prev_flags:
            key = (stream, src, nvalues, flags)
            head = _TRAIN_HEAD_CACHE.get(key)
            if head is None:
                head = bytearray(_PAD_ENVELOPE)
                _ENVELOPE.pack_into(head, 0, stream, src, flags, nvalues)
                head = _PAD_RECORD_LEN + bytes(head)
                if _len(_TRAIN_HEAD_CACHE) >= _ENVELOPE_CACHE_MAX:
                    _TRAIN_HEAD_CACHE.clear()
                _TRAIN_HEAD_CACHE[key] = head
            if train_stream is None:
                train_stream = stream
            elif stream != train_stream:
                mixed = True
            prev_stream = stream
            prev_src = src
            prev_n = nvalues
            prev_flags = flags
            ack_kind = None   # the ack shapes are per envelope
        if stream == _ack_stream and nvalues == 4 and anchor is None:
            kind, root, value, worker = values
            if _type(kind) is _str and _type(root) is _int \
                    and _type(value) is _int and _type(worker) is _int \
                    and _I64_MIN <= root < _U64_END \
                    and _I64_MIN <= value < _U64_END \
                    and _I64_MIN <= worker <= _I64_MAX:
                if kind is not ack_kind:
                    ack_shapes = _ack_heads.get((stream, src, kind))
                    if ack_shapes is None:
                        ack_shapes = _ack_shapes(stream, src, kind)
                    ack_kind = kind
                ack_head, pack, value_prefix, rlen, grow = \
                    ack_shapes[root > _I64_MAX][value > _I64_MAX]
                buf += ack_head
                buf += pack(root, value_prefix, value, _T_INT, worker)
                mark(_len(buf))
                keep_len(rlen)
                est += grow
                keep_est(est)
                if objs is not None:
                    keep(stream_tuple)
                continue
        start = _len(buf)
        buf += head
        if anchor is not None:
            buf += _pack_anchor(anchor.root_id, anchor.edge_id)
        est += 80
        obj = stream_tuple
        for value in values:
            kind = _type(value)
            if kind is str:
                est += _len(value)
                record = _STR_RECORD_CACHE.get(value)
                if record is not None:
                    buf += record
                elif _len(value) <= _STR_CACHE_LEN_LIMIT:
                    data = value.encode("utf-8")
                    record = bytearray()
                    record += _PAD_TAG_U32
                    _pack_u32(record, 0, _T_STR, _len(data))
                    record += data
                    record = bytes(record)
                    if _len(_STR_RECORD_CACHE) >= _STR_RECORD_CACHE_MAX:
                        _STR_RECORD_CACHE.clear()
                    _STR_RECORD_CACHE[value] = record
                    buf += record
                else:
                    data = value.encode("utf-8")
                    pos = _len(buf)
                    buf += _PAD_TAG_U32
                    _pack_u32(buf, pos, _T_STR, _len(data))
                    buf += data
            elif kind is int:
                est += 8
                if _I64_MIN <= value <= _I64_MAX:
                    buf += _pack_i64(_T_INT, value)
                elif _I64_MAX < value < _U64_END:
                    buf += _pack_u64(_T_BIGINT, 0, 9, value)
                else:
                    magnitude = abs(value)
                    body = magnitude.to_bytes(
                        (magnitude.bit_length() + 8) // 8, "big",
                        signed=False)
                    pos = _len(buf)
                    buf += _PAD_BIGINT_HEAD
                    _pack_big(buf, pos, _T_BIGINT, 1 if value < 0 else 0,
                              _len(body))
                    buf += body
            elif kind is float:
                est += 8
                pos = _len(buf)
                buf += _PAD_TAG_I64
                _pack_f64(buf, pos, _T_FLOAT, value)
            elif value is None:
                est += 8
                buf.append(_T_NONE)
            elif kind is bool:
                est += 8
                buf.append(_T_TRUE if value else _T_FALSE)
            elif kind is bytes:
                est += _len(value)
                pos = _len(buf)
                buf += _PAD_TAG_U32
                _pack_u32(buf, pos, _T_BYTES, _len(value))
                buf += value
            else:
                # Container or subclass value mid-record: rewind to just
                # past the length prefix and let the generic encoder redo
                # the one tuple, anchor included (rare path; not
                # fast-lane eligible). The
                # estimate for this record is moot — a train with any
                # non-fast record never rides the annotation fast lane.
                del buf[start + 4:]
                buf += encode_tuple(stream_tuple)
                if objs is None:
                    # len(rlens) == index of the current record, so the
                    # slice holds exactly the fast records before it.
                    objs = list(stream_tuples[:_len(rlens)])
                    keep = objs.append
                obj = None
                break
        end = _len(buf)
        rlen = end - start - 4
        _pack_rec(buf, start, rlen)
        mark(end)
        keep_len(rlen)
        keep_est(est)
        if objs is not None:
            keep(obj)
    return bytes(buf), bounds, rlens, ests, objs, \
        None if mixed else train_stream


#: Fewest records :func:`encode_train_uniform` patches. Its setup
#: (transposing the rows, checking each column, building the lanes)
#: costs a fixed few microseconds, so below this length the value walk
#: of :func:`encode_train` is faster; measured on the forwarding
#: benchmark's ``(str, int)`` shape, the two cross between 6 and 8
#: records (DESIGN.md §5d).
_PATCH_MIN = 8
#: Fewest records an *anchored* train is patched from. Its two id lanes
#: add sixteen strided slice assignments to the setup, so on the same
#: shape the patch path only overtakes the walk at 16 records.
_ANCHORED_PATCH_MIN = 16
#: Exact types a constant column may hold. Never ``float``: equal
#: floats can differ in bits (``0.0 == -0.0``) and NaN equals nothing.
_CONSTANT_KINDS = frozenset((str, bytes, int, bool, type(None)))
#: A varying column's 8-byte lane in the replicated first record.
_PAD_LANE = bytes(8)
#: Offset of an anchored record's root-id lane (the edge id's follows):
#: just past the length prefix and the envelope.
_ANCHOR_LANE = _RECORD_LEN.size + _ENVELOPE.size
_LITTLE_ENDIAN = sys.byteorder == "little"


def encode_train_uniform(
    stream_tuples,
    stream,
    src,
    _array=array, _len=len, _type=type, _set=set, _map=map, _sum=sum,
):
    """:func:`encode_train` for a *uniform* batch: every tuple shares the
    one ``(stream, src)`` envelope passed in, none carries a trace or
    sequencing stamp, and none carries an anchor unless the first tuple
    does. The caller owns that contract; the spout lanes guarantee it by
    construction (one collector emits the whole run on one stream;
    tracing and sequenced edges each disarm the lanes before a stamp
    can be applied; the fast-sink lane never runs under acking, and the
    acked lane's segments reach this encoder only when their first
    tuple is anchored). The bytes and the returned ``(data, bounds,
    rlens, ests, objs, stream)`` are exactly what :func:`encode_train`
    produces for the same tuples.

    When the first tuple is anchored, the train is patched only if it
    has at least :data:`_ANCHORED_PATCH_MIN` records and every tuple
    carries an :class:`Anchor` whose ids fit an unsigned 64-bit lane:
    the records then carry the anchored flag, and the root and edge ids
    are two more 8-byte lanes after the envelope. Any other anchored
    train (an unanchored tuple among anchored ones, say) is walked.

    A *column-uniform* train is never walked value by value. It has at
    least :data:`_PATCH_MIN` records of one width, and each column
    holds one exact type and is either constant (one of
    :data:`_CONSTANT_KINDS`, equal in every record) or varying numeric
    (signed-64 ``int`` or ``float``). Its records then all have
    one length: the first record is encoded once, with a tag plus an
    8-byte lane for each varying column, repeated as ``u32 rlen +
    record`` once per tuple, and each lane is patched with the column's
    big-endian values, byte ``k`` of every record in one strided slice
    assignment from an ``array`` (byteswapped on little-endian hosts).
    ``bounds``, ``rlens`` and ``ests`` are then arithmetic. Every other
    batch goes to :func:`encode_train`.
    """
    n = _len(stream_tuples)
    if n < _PATCH_MIN or (n < _ANCHORED_PATCH_MIN
                          and stream_tuples[0].anchor is not None):
        return encode_train(stream_tuples)
    rows = [stream_tuple.values for stream_tuple in stream_tuples]
    width = _len(rows[0])
    # zip stops at the shortest row; the summed widths catch longer ones.
    columns = list(zip(*rows))
    if _len(columns) != width or _sum(_map(_len, rows)) != n * width:
        return encode_train(stream_tuples)
    if stream_tuples[0].anchor is None:
        frame = bytearray(_PAD_RECORD_LEN
                          + _ENVELOPE.pack(stream, src, 0, width))
        lanes = []
    else:
        try:
            roots = _array("Q", [stream_tuple.anchor.root_id
                                 for stream_tuple in stream_tuples])
            edges = _array("Q", [stream_tuple.anchor.edge_id
                                 for stream_tuple in stream_tuples])
        except (AttributeError, OverflowError, TypeError):
            # An unanchored tuple, or an id outside [0, 2**64).
            return encode_train(stream_tuples)
        frame = bytearray(_PAD_RECORD_LEN
                          + _ENVELOPE.pack(stream, src, _FLAG_ANCHORED, width)
                          + _PAD_ANCHOR)
        lanes = [(_ANCHOR_LANE, roots), (_ANCHOR_LANE + 8, edges)]
    est = 80
    for column in columns:
        value = column[0]
        kind = _type(value)
        if _len(_set(_map(_type, column))) != 1:
            return encode_train(stream_tuples)
        if kind in _CONSTANT_KINDS and column.count(value) == n:
            est += _len(value) if kind is str or kind is bytes else 8
            _encode_many((value,), frame)
            continue
        if kind is int:
            try:
                lane = _array("q", column)
            except OverflowError:   # outside the signed-64 range
                return encode_train(stream_tuples)
            frame.append(_T_INT)
        elif kind is float:
            lane = _array("d", column)
            frame.append(_T_FLOAT)
        else:
            return encode_train(stream_tuples)
        lanes.append((_len(frame), lane))
        frame += _PAD_LANE
        est += 8
    stride = _len(frame)
    rlen = stride - _RECORD_LEN.size
    _RECORD_LEN.pack_into(frame, 0, rlen)
    buf = frame * n
    for offset, lane in lanes:
        if _LITTLE_ENDIAN:
            lane.byteswap()
        lane = bytearray(lane)
        for k in range(8):
            buf[offset + k::stride] = lane[k::8]
    return bytes(buf), list(range(0, n * stride + 1, stride)), [rlen] * n, \
        list(range(0, n * est + 1, est)), None, stream


def decode_tuple(data, source_component: str = "") -> StreamTuple:
    """Inverse of :func:`encode_tuple`; accepts any bytes-like buffer.

    Non-``bytes`` inputs (memoryview, bytearray) are flattened once up
    front so the hot loop runs native ``bytes`` slicing throughout."""
    if len(data) < _ENVELOPE.size:
        raise SerializationError("truncated tuple envelope")
    if type(data) is not bytes:
        data = bytes(data)
    stream, source_worker, flags, nvalues = _ENVELOPE.unpack_from(data, 0)
    offset = _ENVELOPE.size
    values = []
    try:
        anchor = None
        if flags & _FLAG_ANCHORED:
            root_id, edge_id = _ANCHOR.unpack_from(data, offset)
            anchor = Anchor(root_id, edge_id)
            offset += _ANCHOR.size
        trace_id = None
        if flags & _FLAG_TRACED:
            (trace_id,) = _TRACE.unpack_from(data, offset)
            offset += _TRACE.size
        seq = None
        if flags & _FLAG_SEQUENCED:
            seq = _SEQ.unpack_from(data, offset)
            offset += _SEQ.size
        offset = _decode_many(data, offset, nvalues, values)
    except (IndexError, struct.error):
        raise SerializationError("truncated value") from None
    if offset != len(data):
        raise SerializationError("%d trailing bytes after tuple"
                                 % (len(data) - offset))
    return StreamTuple(values=tuple(values), stream=stream,
                       source_component=source_component,
                       source_worker=source_worker, anchor=anchor,
                       trace_id=trace_id, seq=seq)


def peek_trace_id(data, offset: int = 0,
                  length: Optional[int] = None) -> Optional[int]:
    """Trace id carried by serialized tuple bytes, without full decoding:
    ``data`` itself, or the ``length``-byte record at ``offset`` inside
    it (a record of a frame payload, read in place).

    Tolerates truncation (fragment head chunks carry at least the fixed
    header: envelope 9 + anchor 16 + trace 8 = 33 bytes in the worst
    case, well under any MTU, but be defensive anyway)."""
    if length is None:
        length = len(data) - offset
    if length < _ENVELOPE.size:
        return None
    flags = data[offset + 6]   # the envelope's flags byte
    if not flags & _FLAG_TRACED:
        return None
    start = offset + _ENVELOPE.size
    if flags & _FLAG_ANCHORED:
        start += _ANCHOR.size
    if offset + length < start + _TRACE.size:
        return None
    (trace_id,) = _TRACE.unpack_from(data, start)
    return trace_id


# -- cost helpers ----------------------------------------------------------------


def serialize_cost(costs: CostModel, nbytes: int) -> float:
    return costs.serialize_per_tuple + nbytes * costs.serialize_per_byte


def deserialize_cost(costs: CostModel, nbytes: int) -> float:
    return costs.deserialize_per_tuple + nbytes * costs.deserialize_per_byte
