"""Distributed-directory memory model with per-hop message accounting.

Each block has a static *directory home* (``block % N``) that knows
where the block lives, and a static *owner* slice (``(block // N) % N``)
that actually holds the data.  An access from cluster ``c`` to block
``b`` takes one of three paths:

* ``c == home == owner`` — served locally (the snooping local flow);
* ``c == home != owner`` — the directory lookup is local and free; the
  access is forwarded straight to the owner (one ``fwd_*`` hop);
* ``c != home`` — a ``req_*`` hop to the directory home, which either
  serves the request itself (``home == owner``) or forwards it to the
  owner (a second, ``fwd_*`` hop).

The owner is the serialization point: loads observe there and responses
travel back as an explicit ``resp`` hop (request -> home -> owner ->
requester), so the per-kind traffic breakdown in
``SimStats.bus_transfer_kinds`` exposes exactly how many messages each
hop of the directory protocol cost.  Aliasing accesses from one cluster
always take the same path and every hop is a per-source FIFO, so the
issue-order delivery guarantee the MDC/DDGT solutions rely on holds
hop by hop.

The flat fast path runs the same three paths from
:meth:`DirectoryModel.placement`'s homes and owners: a request that
reaches a home not owning its block continues as the forward hop.

Like DLS there is a single resident copy per block, so Attraction
Buffers are rejected.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.arch.config import MachineConfig
from repro.sim.bus import BusMessage
from repro.sim.coherence import CoherenceChecker
from repro.sim.memory import (
    LoadCallback,
    MemorySystem,
    SubblockKey,
    TraceCallback,
    Version,
    _HomeWaiter,
    _PendingLoad,
)
from repro.sim.models import MemoryModel, register_model
from repro.sim.stats import AccessType, SimStats


def directory_home(block: int, num_clusters: int) -> int:
    """The cluster holding ``block``'s directory entry."""
    return block % num_clusters


def directory_owner(block: int, num_clusters: int) -> int:
    """The slice holding ``block``'s data (decoupled from the home so
    both the forwarded and the home-owned paths occur)."""
    return (block // num_clusters) % num_clusters


class DirectoryMemorySystem(MemorySystem):
    """Request -> home -> owner -> requester, each hop a bus message."""

    def _route(self, addr: int) -> Tuple[int, SubblockKey]:
        block = addr // self.machine.cache.block_bytes
        owner = directory_owner(block, self.machine.num_clusters)
        return owner, (block, owner)

    # ------------------------------------------------------------------
    # Access API: three-way path split
    # ------------------------------------------------------------------
    def load(
        self,
        cluster: int,
        addr: int,
        width: int,
        iid: int,
        iteration: int,
        on_complete: LoadCallback,
        cycle: int,
    ) -> None:
        self._check_alignment(addr, width)
        block = addr // self.machine.cache.block_bytes
        n = self.machine.num_clusters
        home = directory_home(block, n)
        owner = directory_owner(block, n)
        key = (block, owner)
        pending = _PendingLoad(iid, iteration, addr, on_complete)
        if cluster == home:
            if owner == cluster:
                self._local_load(cluster, key, pending, cycle)
                return
            self._forward_issue_load(cluster, owner, key, pending, cycle)
            return
        self._remote_load(cluster, home, key, pending, cycle)

    def store(
        self,
        cluster: int,
        addr: int,
        width: int,
        iid: int,
        iteration: int,
        version: Version,
        replica: bool,
        cycle: int,
    ) -> None:
        self._check_alignment(addr, width)
        block = addr // self.machine.cache.block_bytes
        n = self.machine.num_clusters
        home = directory_home(block, n)
        owner = directory_owner(block, n)
        key = (block, owner)
        if replica and cluster != home:
            # Exactly one replicated instance executes: the one at the
            # directory home (section 3.3 semantics under this routing).
            self.stats.nullified_stores += 1
            return
        if cluster == home:
            if owner == cluster:
                self._local_store(cluster, key, addr, version, cycle)
                return
            self._forward_issue_store(cluster, owner, key, addr, version,
                                      cycle)
            return
        self._remote_store(cluster, home, key, addr, version, cycle)

    # ------------------------------------------------------------------
    # Direct forwards (requester is the directory home; lookup is free)
    # ------------------------------------------------------------------
    def _forward_issue_load(
        self, cluster: int, owner: int, key: SubblockKey,
        pending: _PendingLoad, cycle: int,
    ) -> None:
        self._outstanding += 1
        if self._trace is not None:
            self._trace(("forward_issue", cluster, key[0], "load",
                         pending.iid))

        def at_owner(arrival: int) -> None:
            self._owner_load_request(cluster, owner, key, pending, arrival)

        self.fabric.send(
            BusMessage(src=cluster, dst=owner, on_deliver=at_owner,
                       enqueued_at=cycle, kind="fwd_load")
        )

    def _forward_issue_store(
        self, cluster: int, owner: int, key: SubblockKey, addr: int,
        version: Version, cycle: int,
    ) -> None:
        self._outstanding += 1
        if self._trace is not None:
            self._trace(("forward_issue", cluster, key[0], "store", version))

        def at_owner(arrival: int) -> None:
            self._owner_store_request(owner, key, addr, version, src=cluster)
            self._outstanding -= 1

        self.fabric.send(
            BusMessage(src=cluster, dst=owner, on_deliver=at_owner,
                       enqueued_at=cycle, kind="fwd_store")
        )

    # ------------------------------------------------------------------
    # Home side: serve in place or forward to the owner
    # ------------------------------------------------------------------
    def _home_load_request(
        self, requester: int, home: int, key: SubblockKey,
        pending: _PendingLoad, arrival: int,
    ) -> None:
        owner = key[1]
        if owner == home:
            super()._home_load_request(requester, home, key, pending, arrival)
            return
        if self._trace is not None:
            self._trace(("forward", home, owner, requester, key[0], "load",
                         pending.iid))

        def at_owner(arrival2: int) -> None:
            self._owner_load_request(requester, owner, key, pending, arrival2)

        self.fabric.send(
            BusMessage(src=home, dst=owner, on_deliver=at_owner,
                       enqueued_at=arrival, kind="fwd_load")
        )

    def _home_store_request(
        self, home: int, key: SubblockKey, addr: int, version: Version,
        src: Optional[int] = None,
    ) -> None:
        owner = key[1]
        if owner == home:
            super()._home_store_request(home, key, addr, version, src=src)
            return
        if self._trace is not None:
            self._trace(("forward", home, owner, src, key[0], "store",
                         version))
        # The caller decrements its in-flight count right after this
        # call; keep the access outstanding across the forwarded hop.
        self._outstanding += 1

        def at_owner(arrival: int) -> None:
            self._owner_store_request(owner, key, addr, version, src=src)
            self._outstanding -= 1

        self.fabric.send(
            BusMessage(src=home, dst=owner, on_deliver=at_owner,
                       kind="fwd_store")
        )

    # ------------------------------------------------------------------
    # Owner side: the serialization point (mirrors the home flows of the
    # base protocol, with its own trace vocabulary)
    # ------------------------------------------------------------------
    def _owner_load_request(
        self, requester: int, owner: int, key: SubblockKey,
        pending: _PendingLoad, arrival: int,
    ) -> None:
        block = key[0]
        module = self.modules[owner]
        if module.probe(block):
            self.stats.record_access(AccessType.REMOTE_HIT)
            if self._trace is not None:
                self._trace(("owner_request", owner, requester, block,
                             "load", pending.iid, "hit"))
            self._send_response(
                owner, requester, key, pending,
                send_at=arrival + self.machine.cache.hit_latency,
                now=arrival,
            )
            return
        waiter = self._home_mshr[owner].get(block)
        if waiter is not None:
            self.stats.record_access(AccessType.COMBINED)
            if self._trace is not None:
                self._trace(("owner_request", owner, requester, block,
                             "load", pending.iid, "combine"))
            waiter.defer_response(requester, pending)
            self._outstanding += 1
            return
        self.stats.record_access(AccessType.REMOTE_MISS)
        if self._trace is not None:
            self._trace(("owner_request", owner, requester, block, "load",
                         pending.iid, "miss"))
        waiter = _HomeWaiter()
        waiter.defer_response(requester, pending)
        self._home_mshr[owner][block] = waiter
        self._outstanding += 1
        self._fetch(owner, block)

    def _owner_store_request(
        self, owner: int, key: SubblockKey, addr: int, version: Version,
        src: Optional[int] = None,
    ) -> None:
        block = key[0]
        module = self.modules[owner]
        if module.probe(block):
            self.stats.record_access(AccessType.REMOTE_HIT)
            if self._trace is not None:
                self._trace(("owner_request", owner, src, block, "store",
                             version, "hit"))
            module.mark_dirty(block)
            self._apply_store(key, addr, version)
            return
        waiter = self._home_mshr[owner].get(block)
        if waiter is not None:
            self.stats.record_access(AccessType.COMBINED)
            if self._trace is not None:
                self._trace(("owner_request", owner, src, block, "store",
                             version, "combine"))
            waiter.defer_store(addr, version)
            self._outstanding += 1
            return
        self.stats.record_access(AccessType.REMOTE_MISS)
        if self._trace is not None:
            self._trace(("owner_request", owner, src, block, "store",
                         version, "miss"))
        waiter = _HomeWaiter()
        waiter.defer_store(addr, version)
        self._home_mshr[owner][block] = waiter
        self._outstanding += 1
        self._fetch(owner, block)


class DirectoryModel(MemoryModel):
    name = "directory"
    description = (
        "distributed directory: per-block home forwards to the owner "
        "slice; per-hop req/fwd/resp traffic accounting"
    )
    supports_attraction = False

    def build(
        self,
        machine: MachineConfig,
        stats: SimStats,
        checker: Optional[CoherenceChecker] = None,
        trace: Optional[TraceCallback] = None,
    ) -> MemorySystem:
        self.validate_machine(machine)
        return DirectoryMemorySystem(machine, stats, checker, trace)

    def placement(
        self, machine: MachineConfig, addrs: Sequence[int]
    ) -> Tuple[List[int], List[int]]:
        # directory_home() and directory_owner() over a whole table,
        # inlined.
        block_bytes = machine.cache.block_bytes
        n = machine.num_clusters
        blocks = [addr // block_bytes for addr in addrs]
        return ([block % n for block in blocks],
                [block // n % n for block in blocks])


MODEL = register_model(DirectoryModel())
