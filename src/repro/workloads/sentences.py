"""Word-count workload components (the Fig. 2 / §6.2 topology).

Sentence sources with uniform or Zipf-skewed vocabularies, a splitter, a
stateful counter with the Listing 2 cache-flush pattern, and fault
variants used by the Fig. 10/11 experiments (a split worker that starts
throwing — the paper's NullPointerException — at a chosen time).
"""

from __future__ import annotations

import bisect
from typing import Callable, List, Optional

from ..streaming.topology import Bolt, ComponentContext, EmitterApi, Spout
from ..streaming.tuples import StreamTuple


class InjectedFault(RuntimeError):
    """Stand-in for the NullPointerException injected in §6.2."""


class Vocabulary:
    """A word list with uniform or Zipf(s) sampling."""

    def __init__(self, size: int = 1000, skew: float = 0.0):
        if size < 1:
            raise ValueError("vocabulary must have at least one word")
        if skew < 0:
            raise ValueError("skew must be >= 0")
        self.words = ["word%04d" % i for i in range(size)]
        self.skew = skew
        if skew > 0:
            weights = [1.0 / (rank ** skew) for rank in range(1, size + 1)]
            total = sum(weights)
            cumulative = []
            running = 0.0
            for weight in weights:
                running += weight / total
                cumulative.append(running)
            self._cumulative: Optional[List[float]] = cumulative
        else:
            self._cumulative = None

    def sample(self, rng) -> str:
        if self._cumulative is None:
            return self.words[rng.randrange(len(self.words))]
        index = bisect.bisect_left(self._cumulative, rng.random())
        return self.words[min(index, len(self.words) - 1)]

    def sentence(self, rng, length: int) -> str:
        return " ".join(self.sample(rng) for _ in range(length))


class SentenceSpout(Spout):
    """Emits sentences at the executor's configured rate (or max speed)."""

    def __init__(self, vocabulary: Optional[Vocabulary] = None,
                 words_per_sentence: int = 5, with_ids: bool = False):
        self.vocabulary = vocabulary or Vocabulary()
        self.words_per_sentence = words_per_sentence
        self.with_ids = with_ids
        self.seq = 0
        self._rng = None

    def open(self, ctx: ComponentContext) -> None:
        self._rng = ctx.rng

    def next_tuple(self, collector: EmitterApi) -> None:
        sentence = self.vocabulary.sentence(self._rng, self.words_per_sentence)
        if self.with_ids:
            collector.emit((sentence, self.seq), message_id=self.seq)
        else:
            collector.emit((sentence,), message_id=self.seq)
        self.seq += 1


class SplitBolt(Bolt):
    """Splits sentences into (word, 1) pairs.

    ``work_cost`` models the per-sentence computation (virtual seconds);
    the overload experiments raise it to make splitters the bottleneck.
    """

    def __init__(self, work_cost: float = 0.0):
        self.work_cost = work_cost

    def execute(self, stream_tuple: StreamTuple,
                collector: EmitterApi) -> None:
        if self.work_cost:
            collector.charge(self.work_cost)
        for word in stream_tuple[0].split():
            collector.emit((word, 1), anchor=stream_tuple)


class FaultySplitBolt(SplitBolt):
    """A splitter that starts crashing at ``fault_time`` when its task
    index matches — the Fig. 10 fault injection. The fault is in the
    *logic* (factory), so restarts and reschedules stay faulty."""

    def __init__(self, fault_time: float, faulty_task_index: int = 0,
                 work_cost: float = 0.0):
        super().__init__(work_cost)
        self.fault_time = fault_time
        self.faulty_task_index = faulty_task_index
        self._armed = False
        self._now: Callable[[], float] = lambda: 0.0

    def open(self, ctx: ComponentContext) -> None:
        self._armed = ctx.task_index == self.faulty_task_index
        self._now = ctx.services.get("now", lambda: 0.0)

    def execute(self, stream_tuple: StreamTuple,
                collector: EmitterApi) -> None:
        if self._armed and self._now() >= self.fault_time:
            raise InjectedFault("split worker %d faulted"
                                % self.faulty_task_index)
        super().execute(stream_tuple, collector)


class CountBolt(Bolt):
    """Stateful word counter (Listing 2): in-memory cache, key-based
    routing upstream, flush-and-emit on signal tuples."""

    def __init__(self, emit_counts_on_signal: bool = True):
        self.counts = {}
        self.emit_counts_on_signal = emit_counts_on_signal
        self.flushes = 0

    def execute(self, stream_tuple: StreamTuple,
                collector: EmitterApi) -> None:
        word = stream_tuple[0]
        self.counts[word] = self.counts.get(word, 0) + stream_tuple[1]

    def on_signal(self, signal: StreamTuple, collector: EmitterApi) -> None:
        self.flushes += 1
        if self.emit_counts_on_signal:
            for word in sorted(self.counts):
                collector.emit((word, self.counts[word]))
        self.counts.clear()


class NullSinkBolt(Bolt):
    """Accepts and counts tuples; the generic sink for microbenchmarks."""

    def __init__(self):
        self.count = 0
        self.last_values = None

    def execute(self, stream_tuple: StreamTuple,
                collector: EmitterApi) -> None:
        self.count += 1
        self.last_values = stream_tuple.values

    def execute_batch(self, stream_tuples, collector: EmitterApi) -> None:
        """Batch hook (see :attr:`Bolt.execute_batch`): equivalent to
        ``execute`` once per tuple."""
        self.count += len(stream_tuples)
        if stream_tuples:
            self.last_values = stream_tuples[-1].values


class SequenceSpout(Spout):
    """Max-speed source of (payload, sequence) tuples — the §6.1
    forwarding microbenchmark's string-tuple source."""

    def __init__(self, payload: str = "typhoon-forwarding-benchmark",
                 limit: Optional[int] = None):
        self.payload = payload
        self.limit = limit
        self.seq = 0

    def next_tuple(self, collector: EmitterApi) -> None:
        if self.limit is not None and self.seq >= self.limit:
            return
        collector.emit((self.payload, self.seq), message_id=self.seq)
        self.seq += 1

    def next_tuple_batch(self, collector: EmitterApi, want: int) -> None:
        """Batch hook (see :attr:`Spout.next_tuple_batch`): up to
        ``want`` emissions in one call — same tuples, message ids,
        order and limit handling as ``next_tuple``."""
        seq = self.seq
        stop = seq + want
        limit = self.limit
        if limit is not None and limit < stop:
            stop = limit
        if seq < stop:
            payload = self.payload
            ids = range(seq, stop)
            collector.emit_many([(payload, s) for s in ids], message_ids=ids)
            self.seq = stop


class SequenceCheckBolt(Bolt):
    """Verifies per-source monotonic sequence numbers (§6.1 sink)."""

    def __init__(self):
        self.count = 0
        self.out_of_order = 0
        self._last = {}

    def execute(self, stream_tuple: StreamTuple,
                collector: EmitterApi) -> None:
        self.count += 1
        src = stream_tuple.source_worker
        seq = stream_tuple.values[1]
        last = self._last.get(src)
        if last is not None and seq <= last:
            self.out_of_order += 1
        self._last[src] = seq

    def execute_batch(self, stream_tuples, collector: EmitterApi) -> None:
        """Batch hook (see :attr:`Bolt.execute_batch`): the per-tuple
        monotonicity checks of ``execute``, with counters and lookups
        hoisted to locals."""
        out_of_order = self.out_of_order
        last_map = self._last
        get = last_map.get
        for stream_tuple in stream_tuples:
            src = stream_tuple.source_worker
            seq = stream_tuple.values[1]
            last = get(src)
            if last is not None and seq <= last:
                out_of_order += 1
            last_map[src] = seq
        self.count += len(stream_tuples)
        self.out_of_order = out_of_order
