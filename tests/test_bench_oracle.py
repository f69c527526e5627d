"""The figure oracle (``repro.bench.oracle``) against the figure golden.

Each Typhoon scalar of Fig. 8(a) and Fig. 9 is predicted from the cost
model, the record length of the workload's tuple and the batch size. The
simulated numbers count whole frames delivered in a 0.4 vs window, so
where the window cuts the frame stream leaves a small residual; 0.05%
holds it.
"""

import json
import os

import pytest

from repro.bench.figures import FIG8_BATCH_SIZES
from repro.bench.oracle import typhoon_spout_rate
from repro.sim import DEFAULT_COSTS
from repro.streaming.serialize import encode_tuple
from repro.streaming.tuples import StreamTuple
from repro.workloads import broadcast_topology, forwarding_topology

_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                            "figures.json")
TOLERANCE = 0.0005

#: Fig. 9 runs every fan-out at this batch size.
FIG9_BATCH = 100


class _Capture:
    """Collector stand-in that keeps the values emitted to it."""

    values = None

    def emit(self, values, **_options):
        self.values = values


def _record_length(topology):
    """Encoded length of the tuple the topology's source emits first."""
    spout = topology.nodes["source"].factory()
    collector = _Capture()
    spout.next_tuple(collector)
    return len(encode_tuple(StreamTuple(collector.values)))


def _cases():
    forwarding = _record_length(forwarding_topology())
    broadcast = _record_length(broadcast_topology())
    for batch in FIG8_BATCH_SIZES:
        for placement in ("local", "remote"):
            yield "fig8a", "typhoon%d_%s" % (batch, placement), \
                forwarding, batch
    for placement in ("local", "remote"):
        for sinks in range(2, 7):
            yield "fig9", "typhoon_%s_%d" % (placement, sinks), \
                broadcast, FIG9_BATCH


_CASES = list(_cases())


@pytest.mark.parametrize("figure,key,rlen,batch", _CASES,
                         ids=["%s-%s" % case[:2] for case in _CASES])
def test_oracle_matches_the_figure_golden(figure, key, rlen, batch):
    with open(_GOLDEN_PATH, "r", encoding="utf-8") as handle:
        golden = json.load(handle)[figure][key]
    predicted = typhoon_spout_rate(DEFAULT_COSTS, rlen, batch)
    assert predicted == pytest.approx(golden, rel=TOLERANCE)
