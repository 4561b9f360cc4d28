"""The paper's protocol as the default registered memory model.

Word-interleaved homes (:mod:`repro.sim.interleave`), remote requests
over the snooping bus fabric, home-side MSHR combining, optional
Attraction Buffers.  ``build()`` returns the plain
:class:`~repro.sim.memory.MemorySystem` — the registry wrapper adds no
behaviour, which is what keeps the refactor byte-identical to the
goldens.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.arch.config import MachineConfig
from repro.sim.coherence import CoherenceChecker
from repro.sim.memory import MemorySystem, TraceCallback
from repro.sim.models import MemoryModel, register_model
from repro.sim.stats import SimStats


class SnoopingModel(MemoryModel):
    name = "snooping"
    description = (
        "paper baseline: word-interleaved homes, snooping bus, "
        "remote-request buffers (+ optional Attraction Buffers)"
    )
    supports_attraction = True

    def build(
        self,
        machine: MachineConfig,
        stats: SimStats,
        checker: Optional[CoherenceChecker] = None,
        trace: Optional[TraceCallback] = None,
    ) -> MemorySystem:
        return MemorySystem(machine, stats, checker, trace)

    def placement(
        self, machine: MachineConfig, addrs: Sequence[int]
    ) -> Tuple[List[int], List[int]]:
        # home_cluster() over a whole table; the home holds the data.
        unit = machine.interleave_bytes
        n = machine.num_clusters
        homes = [(addr // unit) % n for addr in addrs]
        return homes, homes

    def conformance_address(self, machine: MachineConfig, sb: int) -> int:
        # Distinct blocks whose interleaved home is ``sb % clusters`` —
        # the check model's home map for this protocol.
        return (sb * machine.cache.block_bytes
                + (sb % machine.num_clusters) * machine.interleave_bytes)


MODEL = register_model(SnoopingModel())
