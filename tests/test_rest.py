"""Tests for the REST API (§5's user-facing framework services)."""

import pytest

from repro.core import TyphoonCluster
from repro.core.apps import FaultDetector, LiveDebugger
from repro.core.rest import RestApi
from repro.sim import Engine
from repro.streaming import TopologyConfig
from repro.workloads import SplitBolt, word_count_topology
from repro.workloads.chaosflow import DEDUP_SERVICE, DedupRegistry
from repro.workloads.replicated import replicated_topology


def start():
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=2, seed=0)
    debugger = cluster.register_app(LiveDebugger(cluster))
    api = RestApi(cluster)
    api.attach_debugger(debugger)
    config = TopologyConfig(batch_size=50, max_spout_rate=1000)
    cluster.submit(word_count_topology("wc", config, splits=2, counts=2,
                                       words_per_sentence=2))
    engine.run(until=6.0)
    return engine, cluster, api


def test_list_and_get_topology():
    engine, cluster, api = start()
    status, payload = api.handle("GET", "/topologies")
    assert status == 200
    assert payload["topologies"] == ["wc"]
    status, payload = api.handle("GET", "/topologies/wc")
    assert status == 200
    assert payload["components"]["split"]["parallelism"] == 2
    assert payload["components"]["count"]["stateful"]
    alive = [w for w in payload["workers"] if w["alive"]]
    assert len(alive) == len(payload["workers"])


def test_unknown_routes_and_topologies():
    engine, cluster, api = start()
    assert api.handle("GET", "/nope")[0] == 404
    assert api.handle("GET", "/topologies/ghost")[0] == 404
    assert api.handle("PUT", "/topologies")[0] == 404


def test_parallelism_via_rest():
    engine, cluster, api = start()
    status, payload = api.handle(
        "POST", "/topologies/wc/components/split/parallelism",
        {"value": 3})
    assert status == 202
    engine.run(until=20.0)
    assert len(cluster.executors_for("wc", "split")) == 3


def test_parallelism_validation_errors():
    engine, cluster, api = start()
    status, payload = api.handle(
        "POST", "/topologies/wc/components/split/parallelism", {"value": 0})
    assert status == 409
    status, _ = api.handle(
        "POST", "/topologies/wc/components/ghost/parallelism", {"value": 2})
    assert status == 409
    status, _ = api.handle(
        "POST", "/topologies/wc/components/split/parallelism", {})
    assert status == 404 or status == 400


def test_logic_replacement_via_registered_factory():
    engine, cluster, api = start()

    class LoudSplit(SplitBolt):
        pass

    status, _ = api.handle("POST", "/topologies/wc/components/split/logic",
                           {"factory": "loud"})
    assert status == 400  # not registered yet
    api.register_factory("loud", LoudSplit)
    status, payload = api.handle(
        "POST", "/topologies/wc/components/split/logic", {"factory": "loud"})
    assert status == 202
    engine.run(until=25.0)
    splits = cluster.executors_for("wc", "split")
    assert all(isinstance(s.component, LoudSplit) for s in splits)


def test_activate_deactivate_and_rate():
    engine, cluster, api = start()
    assert api.handle("POST", "/topologies/wc/deactivate")[0] == 202
    engine.run(until=8.0)
    source = cluster.executors_for("wc", "source")[0]
    assert not source.active
    assert api.handle("POST", "/topologies/wc/activate")[0] == 202
    assert api.handle("POST", "/topologies/wc/input-rate",
                      {"rate": 500})[0] == 202
    engine.run(until=10.0)
    assert source.active
    assert source.input_rate_limit == 500
    status, _ = api.handle("POST", "/topologies/wc/input-rate", {})
    assert status == 400


def test_grouping_change_via_rest():
    engine, cluster, api = start()
    status, payload = api.handle(
        "POST", "/topologies/wc/components/split/grouping",
        {"src": "source", "kind": "shuffle"})
    assert status == 202
    engine.run(until=12.0)
    source = cluster.executors_for("wc", "source")[0]
    assert source.routers[("split", 0)].grouping.kind == "shuffle"


def test_debug_tap_lifecycle_via_rest():
    engine, cluster, api = start()
    status, _ = api.handle("POST",
                           "/topologies/wc/components/source/debug")
    assert status == 202
    engine.run(until=15.0)
    status, payload = api.handle("GET",
                                 "/topologies/wc/components/source/debug")
    assert status == 200
    assert payload["seen"] > 0
    status, _ = api.handle("DELETE",
                           "/topologies/wc/components/source/debug")
    assert status == 200
    engine.run(until=17.0)
    status, _ = api.handle("GET",
                           "/topologies/wc/components/source/debug")
    assert status == 404


def test_batch_size_via_rest():
    engine, cluster, api = start()
    assert api.handle("POST", "/topologies/wc/batch-size",
                      {"size": 25})[0] == 202
    engine.run(until=8.0)
    source = cluster.executors_for("wc", "source")[0]
    assert cluster.transports[source.worker_id].batch_size == 25
    assert api.handle("POST", "/topologies/wc/batch-size",
                      {"size": 0})[0] == 400


def test_cluster_summary():
    engine, cluster, api = start()
    status, payload = api.handle("GET", "/cluster")
    assert status == 200
    assert payload["topologies"] == ["wc"]
    assert len(payload["switches"]) == 2
    assert "typhoon-core" in payload["controller"]["apps"]
    assert api.requests_served >= 1


# -- network slices + bandwidth allocation routes -------------------------


def start_sliced():
    from repro.sdn import SoftwareSwitch
    from repro.sdn.hypervisor import NetworkHypervisor
    from repro.sim import DEFAULT_COSTS

    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=1, seed=0)
    api = RestApi(cluster)
    hypervisor = NetworkHypervisor(engine, DEFAULT_COSTS)
    switch = SoftwareSwitch(engine, DEFAULT_COSTS, dpid="sw0")
    hypervisor.connect_switch(switch)
    hypervisor.create_slice("tenant-a", {1}, bandwidth_quota=100_000.0)
    hypervisor.create_slice("tenant-b", {2})
    api.attach_hypervisor(hypervisor)
    return engine, api, switch


def test_list_slices():
    _engine, api, _switch = start_sliced()
    status, payload = api.handle("GET", "/slices")
    assert status == 200
    assert sorted(payload["slices"]) == ["tenant-a", "tenant-b"]
    tenant_a = payload["slices"]["tenant-a"]
    assert tenant_a["app_ids"] == [1]
    assert tenant_a["bandwidth_quota"] == 100_000.0
    assert tenant_a["committed_bandwidth"] == 0.0
    assert payload["slices"]["tenant-b"]["bandwidth_quota"] is None


def test_slice_flow_installation_and_violation():
    engine, api, switch = start_sliced()
    ok = {"dpid": "sw0",
          "match": {"in_port": 1, "dl_src": [1, 10], "dl_dst": [1, 11]},
          "actions": [{"type": "output", "port": 2}]}
    status, payload = api.handle("POST", "/slices/tenant-a/flows", ok)
    assert status == 202
    engine.run(until=0.01)
    assert len(switch.flows) == 1

    foreign = {"dpid": "sw0",
               "match": {"dl_src": [2, 10], "dl_dst": [1, 11]},
               "actions": [{"type": "output", "port": 2}]}
    status, payload = api.handle("POST", "/slices/tenant-a/flows", foreign)
    assert status == 403
    assert "foreign" in payload["error"]
    engine.run(until=0.02)
    assert len(switch.flows) == 1  # nothing new reached the switch

    rewrite = {"dpid": "sw0",
               "match": {"dl_src": [1, 10], "dl_dst": [1, 11]},
               "actions": [{"type": "set_dl_dst", "address": [2, 9]}]}
    assert api.handle("POST", "/slices/tenant-a/flows", rewrite)[0] == 403


def test_slice_flow_validation_errors():
    _engine, api, _switch = start_sliced()
    assert api.handle("POST", "/slices/nope/flows",
                      {"dpid": "sw0"})[0] == 404
    bad_action = {"dpid": "sw0",
                  "match": {"dl_src": [1, 10], "dl_dst": [1, 11]},
                  "actions": [{"type": "teleport"}]}
    status, payload = api.handle("POST", "/slices/tenant-a/flows",
                                 bad_action)
    assert status == 400
    assert "teleport" in payload["error"]


def test_slice_meter_quota_through_rest():
    _engine, api, _switch = start_sliced()
    status, payload = api.handle("POST", "/slices/tenant-a/meters", {
        "dpid": "sw0", "meter_id": 1, "rate_bytes_per_sec": 80_000.0})
    assert status == 202
    assert payload["committed_bandwidth"] == 80_000.0
    status, payload = api.handle("POST", "/slices/tenant-a/meters", {
        "dpid": "sw0", "meter_id": 2, "rate_bytes_per_sec": 30_000.0})
    assert status == 403
    assert "quota" in payload["error"]
    # The rejected commitment is not recorded.
    _status, payload = api.handle("GET", "/slices")
    assert payload["slices"]["tenant-a"]["committed_bandwidth"] == 80_000.0


def test_slice_routes_without_hypervisor():
    engine = Engine()
    api = RestApi(TyphoonCluster(engine, num_hosts=1, seed=0))
    assert api.handle("GET", "/slices")[0] == 400


def test_bandwidth_route():
    engine = Engine()
    api = RestApi(TyphoonCluster(engine, num_hosts=1, seed=0))
    assert api.handle("GET", "/bandwidth")[0] == 404
    engine = Engine()
    api = RestApi(TyphoonCluster(engine, num_hosts=1, seed=0,
                                 resource_aware=True))
    status, payload = api.handle("GET", "/bandwidth")
    assert status == 200
    assert payload["flows"] == [] and payload["meters_installed"] == 0


def test_replication_route():
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=3, seed=0)
    api = RestApi(cluster)
    status, payload = api.handle("GET", "/replication")
    assert status == 404
    assert payload["error"] == "no replication groups"
    # The replicated workload as the replication property tests build it.
    cluster.register_app(FaultDetector(cluster))
    cluster.services[DEDUP_SERVICE] = DedupRegistry(at_least_once=False)
    cluster.submit(replicated_topology("prop", TopologyConfig(
        batch_size=50, max_spout_rate=400.0, reliable_control=True)))
    engine.run(until=4.0)
    status, payload = api.handle("GET", "/replication")
    assert status == 200
    assert payload["totals"] == cluster.replication.totals()
    assert payload["totals"]["commits"] > 0
    group = payload["groups"]["prop/rstate"]
    assert len(group["alive"]) == 3
    assert group["leader"] in group["alive"]
