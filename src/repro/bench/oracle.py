"""Closed-form predictions of figure numbers from the cost model.

The figure golden (``tests/golden/figures.json``) shows that a figure
number did not move, not that it is right. This module predicts figure
numbers from :class:`~repro.sim.costs.CostModel` and the workload's
parameters alone, so that a change to the simulation has a reference
that is not the code under change (ROADMAP item 1).

It covers the spout-bound Typhoon figures: Fig. 8(a) forwarding and
Fig. 9 broadcast. There the source worker is the bottleneck. Per tuple
it pays the component's compute, one serialization and one northbound
enqueue. Per batch it pays one JNI crossing, a packetization and a ring
operation per frame, and a per-byte packetization charge on the batch's
records, each behind its length prefix. The switch replicates a
broadcast frame after the source has paid for it, so Fig. 9's per-sink
rate has the same form as Fig. 8(a)'s rate.
"""

from __future__ import annotations

import math

from ..net.ethernet import DEFAULT_MTU
from ..sim.costs import CostModel

#: Bytes of the length prefix in front of each record in a frame
#: (``core/packets.py``'s MULTI payload layout).
RECORD_PREFIX = 4


def typhoon_spout_rate(costs: CostModel, rlen: int, batch: int) -> float:
    """Tuples per virtual second of a spout-bound Typhoon source that
    sends ``rlen``-byte records in batches of ``batch``."""
    per_tuple = (costs.app_compute_per_tuple + costs.serialize_per_tuple
                 + rlen * costs.serialize_per_byte
                 + costs.typhoon_enqueue_per_tuple)
    nbytes = batch * (rlen + RECORD_PREFIX)
    packets = math.ceil(nbytes / DEFAULT_MTU)
    per_batch = (costs.jni_call_overhead
                 + packets * (costs.packetize_per_packet
                              + costs.ring_op_per_packet)
                 + nbytes * costs.packetize_per_byte)
    return 1.0 / (per_tuple + per_batch / batch)
