"""Fig. 9: one-to-many (broadcast) throughput vs fan-out.

Paper's shape: Storm's per-sink throughput degrades roughly as 1/k with
k sink workers (one serialization per destination), while Typhoon stays
flat thanks to network-level replication — the gap widens with k.
"""

import pytest

from repro.bench import fig9_broadcast

from conftest import run_once, show
from figure_golden import FIG9_SINKS as SINKS, check_golden


def test_fig9_one_to_many(benchmark):
    result = run_once(benchmark, fig9_broadcast, SINKS)
    show(result)
    check_golden("fig9", result)
    scalars = result.scalars
    for placement in ("local", "remote"):
        storm = [scalars["storm_%s_%d" % (placement, k)] for k in SINKS]
        typhoon = [scalars["typhoon_%s_%d" % (placement, k)] for k in SINKS]

        # Storm degrades monotonically and substantially (>=2x from k=2
        # to k=6; the ideal serialization-bound slope is 3x).
        assert all(earlier > later for earlier, later
                   in zip(storm, storm[1:]))
        assert storm[0] / storm[-1] > 2.0

        # Typhoon stays flat (within 15% across the sweep).
        assert max(typhoon) / min(typhoon) < 1.15

        # Typhoon wins everywhere, and the gap widens with fan-out.
        gaps = [t / s for t, s in zip(typhoon, storm)]
        assert all(gap > 1.3 for gap in gaps)
        assert gaps[-1] > gaps[0] * 2
