"""Table 5: live-debugger capability comparison, Storm vs Typhoon.

Regenerates the paper's qualitative matrix from the capability flags the
two debugging implementations declare, and cross-checks the two
behavioural claims against the live systems: Typhoon provisions debug
workers dynamically (the Fig. 12 bench exercises it at runtime) and does
not serialize tuples more than once while mirroring.
"""

import pytest

from repro.bench import table5_debugger

from conftest import run_once, show
from figure_golden import check_golden


def test_table5_capability_matrix(benchmark):
    result = run_once(benchmark, table5_debugger)
    show(result)
    check_golden("table5", result)
    assert result.scalars["typhoon_dynamic"] == 1.0
    assert result.scalars["storm_multi_serialization"] == 1.0
    # The matrix carries all four compared properties.
    rendered = result.render()
    for label in ("granularity", "Resource requirement",
                  "Dynamic provisioning", "Multiple serialization"):
        assert label.lower() in rendered.lower()


def test_table5_behaviour_backed_by_runtime(benchmark):
    """The matrix rows are claims about the systems; verify the two
    load-bearing ones against actual runs."""
    from repro.core import TyphoonCluster
    from repro.core.apps import LiveDebugger
    from repro.sim import Engine
    from repro.streaming import TopologyConfig
    from tests.conftest import simple_chain

    def scenario():
        engine = Engine()
        cluster = TyphoonCluster(engine, num_hosts=1)
        debugger = cluster.register_app(LiveDebugger(cluster))
        cluster.submit(simple_chain("t", config=TopologyConfig(
            max_spout_rate=2000)))
        engine.run(until=6.0)
        # Dynamic provisioning: no debug worker existed at submit time.
        assert cluster.executors_for("t", "__debug__") == []
        debugger.tap("t", "source")
        engine.run(until=12.0)
        assert debugger.debug_executor("t", "source") is not None
        return cluster

    cluster = run_once(benchmark, scenario)
    # No multiple serialization while mirroring.
    source = cluster.executors_for("t", "source")[0]
    transport = cluster.transports[source.worker_id]
    assert transport.serializations == source.stats.emitted
