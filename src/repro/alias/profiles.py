"""Preferred-cluster profiling.

The PrefClus heuristic schedules each memory instruction in the cluster it
accesses most, "computed through profiling" (section 2.2, footnote 1) — on
the *profile* data set, which differs from the execution data set
(Table 1).  This module measures, for each memory instruction, the
histogram of home clusters its addresses map to over a trace.

A *trace* is any object exposing::

    num_iterations : int
    address(iid: int, iteration: int) -> int

(the workload trace generators satisfy this protocol).  Whole streams
are read through :func:`repro.workloads.traces.address_table`, the
memoized per-op table of an ``AddressTrace``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Protocol, Tuple

from repro.arch.config import MachineConfig
from repro.errors import WorkloadError
from repro.ir.ddg import Ddg


class TraceLike(Protocol):
    """Protocol for address traces (see module docstring)."""

    num_iterations: int

    def address(self, iid: int, iteration: int) -> int: ...


@dataclass(frozen=True)
class ClusterProfile:
    """Home-cluster access histogram of one memory instruction."""

    counts: Tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def preferred(self) -> int:
        """The most-visited cluster (lowest index wins ties)."""
        best = max(self.counts)
        return self.counts.index(best)

    def fraction(self, cluster: int) -> float:
        """Share of accesses that hit ``cluster`` (0.0 on an empty profile)."""
        return self.counts[cluster] / self.total if self.total else 0.0

    @staticmethod
    def combine(profiles: Iterable["ClusterProfile"]) -> "ClusterProfile":
        """Element-wise sum — the 'average preferred cluster of the whole
        chain' of section 3.2 is the argmax of this combination."""
        summed: Optional[list] = None
        for profile in profiles:
            if summed is None:
                summed = list(profile.counts)
            else:
                if len(profile.counts) != len(summed):
                    raise WorkloadError("profiles span different cluster counts")
                for i, c in enumerate(profile.counts):
                    summed[i] += c
        if summed is None:
            raise WorkloadError("cannot combine zero profiles")
        return ClusterProfile(tuple(summed))


def profile_preferred_clusters(
    ddg: Ddg,
    trace: TraceLike,
    machine: MachineConfig,
    max_iterations: Optional[int] = None,
) -> Dict[int, ClusterProfile]:
    """Measure per-memory-instruction home-cluster histograms over a trace.

    Instructions created by transformations (replicated stores, copies)
    inherit no profile here; profiling runs on the pre-transformation graph
    exactly like the paper profiles the original program.
    """
    # Local: repro.workloads imports repro.alias.
    from repro.workloads.traces import address_table

    iterations = trace.num_iterations
    if max_iterations is not None:
        iterations = min(iterations, max_iterations)
    # machine.home_cluster(addr), inlined: word interleaving.
    unit = machine.interleave_bytes
    n = machine.num_clusters
    profiles: Dict[int, ClusterProfile] = {}
    for instr in ddg.memory_instructions():
        counts = [0] * n
        for addr in address_table(trace, instr.iid, iterations):
            counts[addr // unit % n] += 1
        profiles[instr.iid] = ClusterProfile(tuple(counts))
    return profiles
