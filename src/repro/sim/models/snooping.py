"""The paper's protocol as the default registered memory model.

Word-interleaved homes (:meth:`MachineConfig.home_cluster
<repro.arch.config.MachineConfig.home_cluster>`), remote requests over
the snooping bus fabric, home-side MSHR combining, optional Attraction
Buffers.  The home holds the data, so :meth:`SnoopingModel.placement`
returns the same list as homes and owners and no access takes a forward
hop — which keeps the registry byte-identical to the goldens.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.arch.config import MachineConfig
from repro.sim.models import MemoryModel, register_model


class SnoopingModel(MemoryModel):
    name = "snooping"
    description = (
        "paper baseline: word-interleaved homes, snooping bus, "
        "remote-request buffers (+ optional Attraction Buffers)"
    )
    supports_attraction = True

    def placement(
        self, machine: MachineConfig, addrs: Sequence[int]
    ) -> Tuple[List[int], List[int]]:
        # home_cluster() over a whole table; the home holds the data.
        unit = machine.interleave_bytes
        n = machine.num_clusters
        homes = [(addr // unit) % n for addr in addrs]
        return homes, homes

    def conformance_address(self, machine: MachineConfig, sb: int) -> int:
        # Distinct blocks whose interleaved homes are ``sb % clusters``,
        # so the protocol model, routed by their placement, checks local
        # and remote subblocks alike.
        return (sb * machine.cache.block_bytes
                + (sb % machine.num_clusters) * machine.interleave_bytes)


MODEL = register_model(SnoopingModel())
