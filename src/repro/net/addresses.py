"""Worker addressing.

Typhoon fills the Ethernet source/destination address fields with worker
IDs *combined with an application ID as an address prefix* (§3.3.1). We
reproduce that exactly: an address is 6 bytes — a 16-bit application ID
followed by a 32-bit worker ID. The all-ones address is broadcast, used
for one-to-many transfer and controller-injected control tuples (Table 3).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

#: Custom EtherType for Typhoon transport packets (§3.4 suggests 0xffff).
TYPHOON_ETHERTYPE = 0xFFFF

#: EtherType used by the live debugger for mirrored frames.
MIRROR_ETHERTYPE = 0xFFFE

_ADDR_STRUCT = struct.Struct("!HI")

#: Reserved application id for broadcast / control addressing.
_BROADCAST_APP = 0xFFFF
_BROADCAST_WORKER = 0xFFFFFFFF

#: Reserved worker id for the SDN controller endpoint.
_CONTROLLER_WORKER = 0xFFFFFFFE


@dataclass(frozen=True, order=True)
class WorkerAddress:
    """A 48-bit address: (application id, worker id)."""

    app_id: int
    worker_id: int

    def __post_init__(self) -> None:
        if not 0 <= self.app_id <= 0xFFFF:
            raise ValueError("app_id out of range: %r" % (self.app_id,))
        if not 0 <= self.worker_id <= 0xFFFFFFFF:
            raise ValueError("worker_id out of range: %r" % (self.worker_id,))
        # Addresses key every hot-path dict (transport batch buffers,
        # switch ports); precompute the hash once instead of re-hashing
        # the field tuple on each lookup.
        object.__setattr__(self, "_hash", hash((self.app_id, self.worker_id)))

    def pack(self) -> bytes:
        return _ADDR_STRUCT.pack(self.app_id, self.worker_id)

    @classmethod
    def unpack(cls, data: bytes) -> "WorkerAddress":
        if len(data) != 6:
            raise ValueError("worker address must be 6 bytes, got %d" % len(data))
        app_id, worker_id = _ADDR_STRUCT.unpack(data)
        return cls(app_id, worker_id)

    @property
    def is_broadcast(self) -> bool:
        return self.app_id == _BROADCAST_APP and self.worker_id == _BROADCAST_WORKER

    @property
    def is_controller(self) -> bool:
        return self.app_id == _BROADCAST_APP and self.worker_id == _CONTROLLER_WORKER

    def __str__(self) -> str:
        if self.is_broadcast:
            return "ff:ff/broadcast"
        if self.is_controller:
            return "ff:ff/controller"
        return "%04x/%08x" % (self.app_id, self.worker_id)


def _cached_hash(self: WorkerAddress) -> int:
    return self._hash


# Assigned after the class body so it unambiguously replaces the
# dataclass-generated __hash__ (same value: hash of the field tuple).
WorkerAddress.__hash__ = _cached_hash  # type: ignore[assignment]


#: The broadcast destination address.
BROADCAST = WorkerAddress(_BROADCAST_APP, _BROADCAST_WORKER)

#: Address representing the SDN controller endpoint (PacketIn destination).
CONTROLLER_ADDRESS = WorkerAddress(_BROADCAST_APP, _CONTROLLER_WORKER)
