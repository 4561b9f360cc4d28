"""DLS: directoryless shared last-level cache.

Every cache block lives in exactly one *home slice*, chosen by a
multiplicative hash of the block number — there are no per-cluster
copies, so there is nothing to invalidate and no broadcast.  A load or
store is local exactly when its cluster is the block's home slice;
otherwise it travels there as an ordinary request and is served at the
slice's serialization point.  The protocol skeleton (request/response,
home-side MSHR combining) is the snooping one — only the placement map
differs — so :meth:`DLSModel.placement`, the hash with every home its
own owner, is all this model defines.

Because a block has exactly one resident copy, Attraction Buffers (which
cache *extra* copies) are meaningless here and are rejected.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.arch.config import MachineConfig
from repro.sim.models import MemoryModel, register_model

#: Knuth's multiplicative constant; spreads consecutive blocks across
#: slices without the modulo-striding artifacts of ``block % N``.
_HASH_MULTIPLIER = 2654435761


def dls_home(block: int, num_clusters: int) -> int:
    """The hashed home slice of ``block``: :meth:`DLSModel.placement`
    for one block."""
    return ((block * _HASH_MULTIPLIER) >> 8) % num_clusters


class DLSModel(MemoryModel):
    name = "dls"
    description = (
        "directoryless shared LLC: blocks hash to a single home slice; "
        "no copies, no invalidation broadcast"
    )
    supports_attraction = False

    def placement(
        self, machine: MachineConfig, addrs: Sequence[int]
    ) -> Tuple[List[int], List[int]]:
        # dls_home() over a whole table, inlined.
        block_bytes = machine.cache.block_bytes
        n = machine.num_clusters
        homes = [((addr // block_bytes * _HASH_MULTIPLIER) >> 8) % n
                 for addr in addrs]
        return homes, homes


MODEL = register_model(DLSModel())
