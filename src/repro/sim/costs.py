"""Calibrated cost model for virtual-time accounting.

Every CPU/network action in the simulation charges virtual time from one
shared :class:`CostModel`. The default constants are calibrated so the
baseline microbenchmarks land near the paper's magnitudes (Fig. 8: ~1 M
tuples/s for a two-worker chain; ack enabled ≈ half that) while preserving
the structural facts the evaluation depends on:

* serialization dominates tuple transfer cost (the paper cites 60–90 % of
  transfer time), and the Storm baseline pays it **once per destination**;
* Typhoon pays serialization once per tuple plus small per-packet and
  per-batch (JNI / ring) overheads, and switch-level replication is cheap;
* remote transfers add tunnel latency but similar per-tuple CPU, so LOCAL
  and REMOTE throughput are comparable (Fig. 8a) while latency differs.

All times are in (virtual) seconds, sizes in bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

US = 1e-6  # one microsecond
MS = 1e-3  # one millisecond


@dataclass
class CostModel:
    """Virtual-time costs charged by the simulation.

    The groups below mirror the layers of the system: application compute,
    (de)serialization, the Storm TCP transport, the Typhoon I/O layer and
    SDN switch, and control-plane timing constants.
    """

    # -- application layer -------------------------------------------------
    app_compute_per_tuple: float = 0.10 * US

    # -- serialization (framework layer, both systems) ----------------------
    serialize_per_tuple: float = 0.40 * US
    serialize_per_byte: float = 0.0020 * US
    deserialize_per_tuple: float = 0.30 * US
    deserialize_per_byte: float = 0.0015 * US

    # -- Storm baseline transport (application-level TCP) --------------------
    tcp_send_per_message: float = 4.0 * US     # syscall + netty enqueue
    tcp_send_per_byte: float = 0.0008 * US
    tcp_recv_per_message: float = 3.0 * US
    tcp_recv_per_byte: float = 0.0008 * US
    storm_enqueue_per_tuple: float = 0.30 * US  # per-destination buffer append
    # Fixed per-message latency of Storm's threaded transfer pipeline
    # (executor send thread -> worker transfer queue -> Netty). Typhoon's
    # shared-memory rings avoid these hops (§5); pipelined, so it costs
    # latency but not throughput.
    storm_pipeline_delay: float = 0.8 * MS

    # -- Typhoon I/O layer ---------------------------------------------------
    typhoon_enqueue_per_tuple: float = 0.30 * US  # northbound queueing
    jni_call_overhead: float = 2.5 * US        # per batch crossing JNI
    packetize_per_packet: float = 0.45 * US
    packetize_per_byte: float = 0.0008 * US
    depacketize_per_packet: float = 0.40 * US
    depacketize_per_byte: float = 0.0008 * US
    ring_op_per_packet: float = 0.15 * US      # shared-memory ring enqueue/dequeue

    # -- SDN software switch -------------------------------------------------
    switch_lookup_per_packet: float = 0.30 * US
    switch_copy_per_output: float = 0.12 * US  # per replicated output port
    switch_copy_per_byte: float = 0.0002 * US

    # -- network paths ---------------------------------------------------------
    loopback_latency: float = 3.0 * US          # same-host delivery
    lan_latency: float = 50.0 * US              # inter-host one-way latency
    lan_bandwidth_bytes_per_sec: float = 10e9 / 8  # 10 GbE

    # -- batching / flushing ---------------------------------------------------
    batch_flush_interval: float = 1.0 * MS     # flush partial batches

    # -- coordination & control plane -----------------------------------------
    coordinator_op_latency: float = 1.0 * MS   # ZooKeeper read/write round trip
    openflow_rtt: float = 0.5 * MS             # controller <-> switch message
    flow_install_latency: float = 0.3 * MS     # rule insertion in switch
    worker_launch_latency: float = 2.0         # fetch binaries + JVM start
    worker_kill_latency: float = 0.05
    flow_idle_timeout: float = 10.0

    # -- failure detection ------------------------------------------------------
    heartbeat_interval: float = 3.0
    heartbeat_timeout: float = 30.0            # Storm default task timeout
    supervisor_restart_delay: float = 1.0      # local restart after crash
    port_event_latency: float = 10.0 * MS      # switch -> controller PortStatus

    # -- memory model (auto-scaler / OOM experiments) -----------------------------
    worker_memory_limit_bytes: int = 48 * 1024 * 1024
    oom_check_interval: float = 1.0

    # -- acking -------------------------------------------------------------------
    ack_per_tuple: float = 0.35 * US           # XOR ledger update in acker
    ack_message_bytes: int = 40

    def __post_init__(self) -> None:
        # Idle flushers re-arm one interval after their last tick; a
        # non-positive interval would re-arm at the same instant forever.
        if not self.batch_flush_interval > 0:
            raise ValueError("batch_flush_interval must be > 0, got %r"
                             % self.batch_flush_interval)

    def scaled(self, **overrides: float) -> "CostModel":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)


DEFAULT_COSTS = CostModel()


def transmission_delay(costs: CostModel, nbytes: int, remote: bool) -> float:
    """One-way network delay for ``nbytes`` between two workers' hosts."""
    if not remote:
        return costs.loopback_latency
    return costs.lan_latency + nbytes / costs.lan_bandwidth_bytes_per_sec
