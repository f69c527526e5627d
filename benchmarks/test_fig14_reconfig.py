"""Fig. 13/14: the Yahoo analytics pipeline and runtime logic update.

Paper's shape: at the reconfiguration point the filter logic is swapped
from view-only to view+click *without shutdown or hot-swap of the
topology*; the windowed count at the store stage roughly doubles (two of
the three uniformly distributed event types now pass) while the parse
stage's rate is unchanged.
"""

import pytest

from repro.bench import fig14_reconfig

from conftest import run_once, show
from figure_golden import check_golden


def test_fig14_runtime_logic_update(benchmark):
    result = run_once(benchmark, fig14_reconfig)
    show(result)
    check_golden("fig14", result)
    scalars = result.scalars
    assert scalars["reconfig_ok"] == 1.0
    # Parse input is unaffected by the downstream filter change.
    assert scalars["parse_post"] == pytest.approx(scalars["parse_pre"],
                                                  rel=0.1)
    # Store-stage input roughly doubles (1/3 -> 2/3 of events admitted).
    assert scalars["store_post_over_pre"] == pytest.approx(2.0, rel=0.2)
