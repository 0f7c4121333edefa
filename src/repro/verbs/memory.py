"""Registered memory: address spaces and memory regions.

Real RDMA requires pinning pages and registering them with the adapter
before they can be the source or target of RDMA operations (§2.2).  The
simulation gives each node a flat virtual address space from which memory
regions are allocated; remote Reads and Writes resolve absolute addresses
back to the owning region.

A region stores two kinds of content:

* **words** — 64-bit control values at arbitrary offsets (credits, the
  FreeArr/ValidArr circular-queue slots of the RDMA Read endpoint), and
* **objects** — opaque payload references standing in for bulk tuple data,
  so the simulation never copies megabytes of real bytes around.

Registered-byte accounting feeds the memory-consumption experiment
(Fig 9b).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.telemetry.probes import DETACHED
from repro.verbs.constants import VerbsError

__all__ = ["MemoryRegion", "AddressSpace"]


class MemoryRegion:
    """A registered, pinned region of one node's memory."""

    def __init__(self, node_id: int, addr: int, length: int, lkey: int):
        if length <= 0:
            raise VerbsError(f"memory region length must be positive: {length}")
        self.node_id = node_id
        self.addr = addr
        self.length = length
        self.lkey = lkey
        #: rkey would differ from lkey on real hardware; one key suffices.
        self.rkey = lkey
        self._words: Dict[int, int] = {}
        self._objects: Dict[int, Any] = {}
        self.deregistered = False
        #: callbacks invoked as ``fn(addr, value)`` after a word write.
        #: Used by pollers of one-sided message queues (FreeArr/ValidArr,
        #: credit words) to avoid busy-spinning in simulated time; a real
        #: implementation polls the cache line instead.
        self.on_write: list = []
        #: the fabric's probe bus (assigned by AddressSpace.register).
        self.probes = DETACHED
        #: owning tenant (service-layer accounting); None outside the
        #: multi-tenant service.
        self.tenant: Optional[str] = None

    def _check(self, addr: int, nbytes: int = 1) -> None:
        if self.deregistered:
            hook = self.probes.mr_error
            if hook is not None:
                hook(self, "deregistered", addr)
            raise VerbsError(f"access to deregistered MR lkey={self.lkey}")
        if not (self.addr <= addr and addr + nbytes <= self.addr + self.length):
            hook = self.probes.mr_error
            if hook is not None:
                hook(self, "out-of-bounds", addr)
            raise VerbsError(
                f"address {addr:#x}+{nbytes} outside MR "
                f"[{self.addr:#x}, {self.addr + self.length:#x})"
            )

    def contains(self, addr: int) -> bool:
        return self.addr <= addr < self.addr + self.length

    # -- 64-bit control words ---------------------------------------------

    def read_u64(self, addr: int) -> int:
        self._check(addr, 8)
        return self._words.get(addr, 0)

    def write_u64(self, addr: int, value: int) -> None:
        self._check(addr, 8)
        self._words[addr] = int(value)
        for callback in self.on_write:
            callback(addr, value)

    # -- bulk payload objects ----------------------------------------------

    def set_object(self, addr: int, obj: Any, nbytes: int = 1) -> None:
        """Store ``obj`` as the ``nbytes`` starting at ``addr``."""
        self._check(addr, nbytes)
        self._objects[addr] = obj

    def get_object(self, addr: int, nbytes: int = 1) -> Any:
        """The object stored at ``addr``, read as ``nbytes`` bytes."""
        self._check(addr, nbytes)
        return self._objects.get(addr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MR node={self.node_id} [{self.addr:#x},"
            f"+{self.length}) lkey={self.lkey}>"
        )


class AddressSpace:
    """One node's virtual address space and MR registry."""

    #: regions start away from zero so a zero address is always invalid.
    _BASE = 0x10000

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._next_addr = self._BASE
        self._next_key = 1
        self._regions: Dict[int, MemoryRegion] = {}
        self.registered_bytes = 0
        self.peak_registered_bytes = 0
        #: the fabric's probe bus (assigned by the owning VerbsContext),
        #: handed to every region registered here.
        self.probes = DETACHED

    def register(self, length: int) -> MemoryRegion:
        """Allocate and register a fresh region of ``length`` bytes."""
        mr = MemoryRegion(self.node_id, self._next_addr, length, self._next_key)
        mr.probes = self.probes
        # Leave a guard gap so off-by-one addressing bugs fault loudly.
        self._next_addr += length + 4096
        self._next_key += 1
        self._regions[mr.lkey] = mr
        self.registered_bytes += length
        self.peak_registered_bytes = max(
            self.peak_registered_bytes, self.registered_bytes
        )
        return mr

    def deregister(self, mr: MemoryRegion) -> None:
        if mr.lkey not in self._regions:
            hook = self.probes.mr_error
            if hook is not None:
                hook(mr, "double-deregister", mr.addr)
            raise VerbsError(f"MR lkey={mr.lkey} is not registered on this node")
        del self._regions[mr.lkey]
        mr.deregistered = True
        self.registered_bytes -= mr.length

    def resolve(self, addr: int) -> MemoryRegion:
        """Find the registered region containing ``addr``.

        Remote access to unregistered memory is a remote-access error on
        real hardware; here it raises :class:`VerbsError`.
        """
        for mr in self._regions.values():
            if mr.contains(addr):
                return mr
        raise VerbsError(
            f"address {addr:#x} not in any registered region of node "
            f"{self.node_id}"
        )
