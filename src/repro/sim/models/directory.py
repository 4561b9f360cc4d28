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

Both engines run these three paths from
:meth:`DirectoryModel.placement`'s homes and owners alone: a request
that reaches a home not owning its block continues as the forward hop.

Like DLS there is a single resident copy per block, so Attraction
Buffers are rejected.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.arch.config import MachineConfig
from repro.sim.models import MemoryModel, register_model


def directory_home(block: int, num_clusters: int) -> int:
    """The cluster holding ``block``'s directory entry."""
    return block % num_clusters


def directory_owner(block: int, num_clusters: int) -> int:
    """The slice holding ``block``'s data (decoupled from the home so
    both the forwarded and the home-owned paths occur)."""
    return (block // num_clusters) % num_clusters


class DirectoryModel(MemoryModel):
    name = "directory"
    description = (
        "distributed directory: per-block home forwards to the owner "
        "slice; per-hop req/fwd/resp traffic accounting"
    )
    supports_attraction = False

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
