"""Tests for the delivery-accounting (loss-audit) layer.

Unit tests for the :class:`DeliveryLedger` itself, plus end-to-end
conservation checks: a healthy run, the Fig. 10 fault scenario, Storm's
lossy baseline, and Fig. 6-style dynamic reconfiguration — all must
balance the identity ``sent + injected + replicated == delivered +
controller_delivered + drops + buffered + pending_reassembly``.
"""

import io

import pytest

from repro.cli import main
from repro.core import TyphoonCluster, audit, tracing
from repro.core.audit import (
    conservation_report,
    typhoon_frame_tuples,
    verify_conservation,
)
from repro.core.io_layer import _TrainAnnotation, train_window
from repro.core.packets import unpack_payload
from repro.core.rest import RestApi
from repro.core.tracing import frame_trace_ids
from repro.net import EthernetFrame, TYPHOON_ETHERTYPE, WorkerAddress
from repro.sdn.switch import SoftwareSwitch
from repro.sim import Engine
from repro.sim.audit import (
    ConservationError,
    ConservationReport,
    DeliveryLedger,
    LAYER_REASSEMBLY,
    LAYER_TRANSPORT,
    R_CLOSED_PORT,
    R_REASSEMBLY_GAP,
    UNKNOWN_SCOPE,
)
from repro.streaming import Grouping, StormCluster, TopologyConfig
from repro.streaming.serialize import peek_trace_id
from repro.streaming.storm import storm_batch_tuples
from repro.streaming.topology import Bolt
from repro.workloads import (
    broadcast_topology,
    forwarding_topology,
    word_count_topology,
)


# -- ledger unit tests -----------------------------------------------------


def test_ledger_counts_and_drop_rows():
    ledger = DeliveryLedger()
    ledger.name_scope(1, "wc")
    ledger.record_sent(1, 10)
    ledger.record_delivered(1, 7)
    ledger.record_drop(1, LAYER_TRANSPORT, R_CLOSED_PORT, 2)
    ledger.record_drop(1, LAYER_REASSEMBLY, R_REASSEMBLY_GAP)
    assert ledger.total_sent() == 10
    assert ledger.total_delivered() == 7
    assert ledger.total_drops() == 3
    assert ledger.total_drops(scope=2) == 0
    assert ledger.drop_rows() == [
        ("wc", LAYER_REASSEMBLY, R_REASSEMBLY_GAP, 1),
        ("wc", LAYER_TRANSPORT, R_CLOSED_PORT, 2),
    ]
    assert ledger.drops_by_reason() == {
        (LAYER_TRANSPORT, R_CLOSED_PORT): 2,
        (LAYER_REASSEMBLY, R_REASSEMBLY_GAP): 1,
    }
    assert ledger.scopes() == [1]
    assert ledger.scope_name(UNKNOWN_SCOPE) == "(unknown)"
    assert ledger.scope_name(9) == "app-9"


def test_ledger_zero_count_drop_not_recorded():
    ledger = DeliveryLedger()
    ledger.record_drop(1, LAYER_TRANSPORT, R_CLOSED_PORT, 0)
    assert ledger.drops == {}


def test_frame_reporting_without_inspector_is_unattributable():
    ledger = DeliveryLedger()
    ledger.record_frame_drop(LAYER_TRANSPORT, R_CLOSED_PORT, object())
    assert ledger.total_drops() == 0
    assert ledger.unattributable_frames == 1


def test_failing_inspector_counts_unattributable_not_raises():
    def broken(_frame):
        raise RuntimeError("boom")

    ledger = DeliveryLedger(inspector=broken)
    ledger.record_frame_drop(LAYER_TRANSPORT, R_CLOSED_PORT, b"junk")
    assert ledger.unattributable_frames == 1


def test_typhoon_inspector_attributes_frames():
    from repro.core.packets import pack_tuples
    from repro.net.addresses import CONTROLLER_ADDRESS

    payloads, _ = pack_tuples([b"aa", b"bb"], mtu=1500)
    frame = EthernetFrame(dst=WorkerAddress(3, 7), src=WorkerAddress(3, 1),
                          ethertype=TYPHOON_ETHERTYPE, payload=payloads[0])
    assert typhoon_frame_tuples(frame) == (3, 2)
    # Control frames from the controller belong to the *destination* app.
    control = EthernetFrame(dst=WorkerAddress(5, 2), src=CONTROLLER_ADDRESS,
                            ethertype=TYPHOON_ETHERTYPE, payload=payloads[0])
    assert typhoon_frame_tuples(control) == (5, 2)
    assert typhoon_frame_tuples("not a frame") is None


def test_typhoon_inspector_fragment_head_rule():
    from repro.core.packets import pack_tuples, unpack_payload

    payloads, _ = pack_tuples([b"z" * 4000], mtu=1500)
    assert len(payloads) > 1
    frames = [EthernetFrame(dst=WorkerAddress(1, 2), src=WorkerAddress(1, 1),
                            ethertype=TYPHOON_ETHERTYPE, payload=p)
              for p in payloads]
    counts = [typhoon_frame_tuples(f)[1] for f in frames]
    # The head fragment carries the tuple; trailing fragments are free.
    assert counts[0] == 1
    assert all(c == 0 for c in counts[1:])


def test_storm_inspector():
    from repro.streaming.storm import _WireBatch

    batch = _WireBatch([(None, 8), (None, 8), (None, 8)], 64, scope=9)
    assert storm_batch_tuples(batch) == (9, 3)
    assert storm_batch_tuples("junk") is None


def test_conservation_report_identity_and_render():
    report = ConservationReport(sent=10, injected=2, replicated=3,
                                delivered=11, controller_delivered=1,
                                drops=2, buffered=1, pending_reassembly=0,
                                drop_rows=[("wc", "transport",
                                            "closed-port", 2)])
    assert report.inputs == 15
    assert report.accounted == 15
    assert report.unattributed == 0
    assert report.ok
    text = report.render()
    assert "closed-port" in text
    assert "OK" in text
    assert report.to_dict()["ok"] is True

    leaky = ConservationReport(sent=10, delivered=8)
    assert leaky.unattributed == 2
    assert not leaky.ok
    assert "LEAK" in leaky.render()
    error = ConservationError(leaky)
    assert leaky.render() in str(error)


# -- end-to-end conservation ----------------------------------------------


def _run_wordcount(cluster_class, engine, duration, fault_time=None,
                   hosts=2, rate=800.0):
    cluster = cluster_class(engine, num_hosts=hosts, seed=0)
    config = TopologyConfig(batch_size=50, max_spout_rate=rate)
    cluster.submit(word_count_topology("wc", config, splits=2, counts=2,
                                       words_per_sentence=2,
                                       fault_time=fault_time))
    engine.run(until=duration)
    return cluster


def test_typhoon_healthy_run_conserves_tuples(engine):
    cluster = _run_wordcount(TyphoonCluster, engine, duration=8.0)
    report = verify_conservation(cluster)  # strict: raises on a leak
    assert report.ok
    assert report.sent > 0
    assert report.delivered >= report.sent  # broadcast control replication


def test_typhoon_fault_run_conserves_tuples(engine):
    cluster = _run_wordcount(TyphoonCluster, engine, duration=12.0,
                             fault_time=5.0)
    report = verify_conservation(cluster)
    assert report.ok
    assert report.unattributed == 0


def test_storm_fault_drops_are_attributed(engine):
    cluster = _run_wordcount(StormCluster, engine, duration=12.0,
                             fault_time=5.0)
    report = verify_conservation(cluster)
    assert report.ok
    # The baseline loses tuples to dead-worker routing, but every loss
    # is itemized — at least everything the registry itself counted
    # (the ledger additionally sees channel/close-time drops).
    assert cluster.registry.lost_tuples > 0
    assert report.drops >= cluster.registry.lost_tuples


class _TapBolt(Bolt):
    def execute(self, stream_tuple, collector):
        pass


def test_dynamic_attach_detach_conserves_tuples(engine):
    """Fig. 6 reconfigurations (add/remove a stateful component and
    rescale) must not leak tuples: every in-flight tuple at each rewiring
    is delivered or shows up as an attributed drop."""
    cluster = _run_wordcount(TyphoonCluster, engine, duration=8.0)
    cluster.attach_component("wc", "tap", _TapBolt, subscribe_to="split",
                             grouping=Grouping("fields", (0,)),
                             parallelism=2, stateful=True)
    engine.run(until=14.0)
    cluster.set_parallelism("wc", "count", 3)
    engine.run(until=20.0)
    request = cluster.detach_component("wc", "tap")
    engine.run(until=26.0)
    assert request.triggered and not request.failed
    report = verify_conservation(cluster)
    assert report.ok


# -- surfacing: REST + CLI -------------------------------------------------


def test_rest_audit_route(engine):
    cluster = _run_wordcount(TyphoonCluster, engine, duration=6.0)
    api = RestApi(cluster)
    status, payload = api.handle("GET", "/audit")
    assert status == 200
    assert payload["sent"] > 0
    assert set(payload) >= {"sent", "delivered", "drops", "unattributed",
                            "ok", "drop_rows"}
    # Quiesced via the library, the same view must balance.
    report = verify_conservation(cluster)
    status, payload = api.handle("GET", "/audit")
    assert payload["unattributed"] == 0
    assert payload["ok"] is True
    assert payload == report.to_dict()


def test_cli_audit_typhoon():
    out = io.StringIO()
    code = main(["audit", "--rate", "400", "--duration", "6",
                 "--hosts", "2", "--splits", "1", "--counts", "1"], out=out)
    text = out.getvalue()
    assert code == 0
    assert "system: typhoon" in text
    assert "delivery conservation audit" in text
    assert "unattributed loss=0 -> OK" in text


def test_cli_audit_storm_with_fault():
    out = io.StringIO()
    code = main(["audit", "--system", "storm", "--rate", "400",
                 "--duration", "10", "--hosts", "2", "--fault-time", "4"],
                out=out)
    text = out.getvalue()
    assert code == 0  # lossy but fully attributed
    assert "system: storm" in text
    assert "unresolved-worker" in text
    assert "unattributed loss=0 -> OK" in text


def test_stats_monitor_report_includes_drop_section(engine):
    from repro.core.apps import StatsMonitor

    cluster = _run_wordcount(TyphoonCluster, engine, duration=6.0)
    monitor = cluster.register_app(StatsMonitor(cluster, "wc"))
    engine.run(until=12.0)
    text = monitor.report()
    assert "tuple drops (delivery ledger)" in text


def test_mid_get_worker_kill_conserves_tuples(engine):
    """Regression for the interrupted-getter leak: killing a worker
    interrupts its executor processes mid-``Store.get``; the stale get
    gates used to stay armed and swallow the next enqueued tuples, which
    surfaced here as unattributed loss. With gate defusal every tuple is
    delivered or shows up as an attributed drop."""
    from repro.sim.faults import kill_worker_at

    cluster = TyphoonCluster(engine, num_hosts=2, seed=0)
    config = TopologyConfig(batch_size=50, max_spout_rate=800.0)
    physical = cluster.submit(
        word_count_topology("wc", config, splits=2, counts=2,
                            words_per_sentence=2))
    [victim_id, _other] = physical.worker_ids_for("count")
    kill_worker_at(cluster, victim_id, when=3.0,
                   reason="mid-get kill regression")
    engine.run(until=10.0)
    report = verify_conservation(cluster)  # strict: raises on a leak
    assert report.ok
    assert report.unattributed == 0
    assert report.sent > 0


# -- frame inspectors read the train window --------------------------------


def _annotated_frames(monkeypatch, topology, sample_every=0, limit=300):
    """Run ``topology`` on two hosts and return up to ``limit`` of the
    annotated frames the switches saw (sent and tunnel-received)."""
    seen = []
    original = SoftwareSwitch.inject

    def recording_inject(switch, port_no, frame):
        if getattr(frame, "tuples", None) is not None and len(seen) < limit:
            seen.append(frame)
        return original(switch, port_no, frame)

    monkeypatch.setattr(SoftwareSwitch, "inject", recording_inject)
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=2, seed=0)
    if sample_every:
        cluster.tracer.configure(sample_every)
    cluster.submit(topology)
    engine.run(until=2.6)
    monkeypatch.undo()
    return seen


def _walked(frame):
    """Both inspectors' answers from the validating payload walk."""
    records = unpack_payload(frame.payload)
    ids = tuple(trace_id for trace_id in map(peek_trace_id, records)
                if trace_id is not None)
    return len(records), ids


def test_inspectors_read_the_train_window_without_reparsing(monkeypatch):
    """The ledger and tracer inspectors answer from an annotated
    frame's window, with the payload walk's answers, and never call
    unpack_payload; a window that disagrees with its payload takes the
    walk."""
    broadcast = _annotated_frames(monkeypatch, broadcast_topology(
        "bcast", sinks=4, config=TopologyConfig(batch_size=50,
                                                max_spout_rate=2000.0)),
        sample_every=3)
    acked = _annotated_frames(monkeypatch, forwarding_topology(
        "fwd", TopologyConfig(batch_size=50, acking=True, num_ackers=1,
                              max_spout_rate=2000.0)))
    frames = broadcast + acked
    assert broadcast and acked
    walked = [_walked(frame) for frame in frames]
    assert any(ids for _count, ids in walked)  # sampled tuples rode
    walks = []

    def counting_walk(payload):
        walks.append(payload)
        return unpack_payload(payload)

    monkeypatch.setattr(audit, "unpack_payload", counting_walk)
    monkeypatch.setattr(tracing, "unpack_payload", counting_walk)
    for frame, (count, ids) in zip(frames, walked):
        assert typhoon_frame_tuples(frame)[1] == count
        assert frame_trace_ids(frame) == ids
    assert walks == []
    frame = next(frame for frame, (count, _ids) in zip(frames, walked)
                 if count > 1)
    view = frame.tuples
    for start, end, rlens in ((view.start, view.end - 1, view.rlens),
                              (view.start, view.end,
                               [rlen + 1 for rlen in view.rlens])):
        bad = EthernetFrame(dst=frame.dst, src=frame.src,
                            ethertype=frame.ethertype,
                            payload=frame.payload,
                            tuples=_TrainAnnotation(view.objs, rlens, None,
                                                    start, end, None, False))
        assert train_window(bad) is None
        assert typhoon_frame_tuples(bad) == typhoon_frame_tuples(frame)
        assert frame_trace_ids(bad) == frame_trace_ids(frame)
    assert len(walks) == 4
