"""Structured run results.

:class:`RunRecord` (one benchmark × variant × machine) and
:class:`LoopRecord` (one loop thereof) expose the aggregate properties
the figure/table drivers consume, *and* round-trip through plain dicts
so they can live in an on-disk :class:`~repro.api.store.DiskStore` and
cross ``multiprocessing`` pickling boundaries as pure JSON.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.sim.stats import AccessType, SimStats


@dataclass
class LoopRecord:
    """Result of compiling + simulating one loop under one variant."""

    benchmark: str
    loop: str
    variant: str
    ii: int
    unroll: int
    kernel_iterations: int
    compute_cycles: int
    stall_cycles: int
    stats: SimStats
    violations: int
    static_copies: int
    replicated_instances: int
    fake_consumers: int
    #: When the kernel-iteration floor inflated a tiny scaled run, the
    #: floor that was applied (e.g. 32); 0 when the natural iteration
    #: count was simulated as-is.
    iteration_floor: int = 0

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.stall_cycles

    @property
    def dynamic_copies(self) -> int:
        """Communication operations executed (Table 4's metric)."""
        return self.static_copies * self.kernel_iterations

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "loop": self.loop,
            "variant": self.variant,
            "ii": self.ii,
            "unroll": self.unroll,
            "kernel_iterations": self.kernel_iterations,
            "compute_cycles": self.compute_cycles,
            "stall_cycles": self.stall_cycles,
            "stats": self.stats.to_dict(),
            "violations": self.violations,
            "static_copies": self.static_copies,
            "replicated_instances": self.replicated_instances,
            "fake_consumers": self.fake_consumers,
            "iteration_floor": self.iteration_floor,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LoopRecord":
        return cls(
            benchmark=data["benchmark"],
            loop=data["loop"],
            variant=data["variant"],
            ii=int(data["ii"]),
            unroll=int(data["unroll"]),
            kernel_iterations=int(data["kernel_iterations"]),
            compute_cycles=int(data["compute_cycles"]),
            stall_cycles=int(data["stall_cycles"]),
            stats=SimStats.from_dict(data["stats"]),
            violations=int(data["violations"]),
            static_copies=int(data["static_copies"]),
            replicated_instances=int(data["replicated_instances"]),
            fake_consumers=int(data["fake_consumers"]),
            iteration_floor=int(data.get("iteration_floor", 0)),
        )


@dataclass
class RunRecord:
    """All loops of one benchmark under one variant/machine/scale."""

    benchmark: str
    variant: str
    machine: str = "baseline"
    attraction: bool = False
    scale: float = 0.5
    spec_key: str = ""
    model: str = "snooping"
    loops: List[LoopRecord] = field(default_factory=list)
    #: Runtime provenance: ``"simulated"`` for freshly computed records,
    #: ``"store"`` for a record a result store's ``get`` returned (the
    #: store sets it; see :meth:`repro.api.store.ResultStore.get`).
    #: Deliberately excluded from equality and serialization — the same
    #: result must hash/compare identically however it was obtained.
    source: str = field(default="simulated", compare=False)

    # ------------------------------------------------------------------
    # Aggregates (the surface the drivers consume)
    # ------------------------------------------------------------------
    @property
    def compute_cycles(self) -> int:
        return sum(run.compute_cycles for run in self.loops)

    @property
    def stall_cycles(self) -> int:
        return sum(run.stall_cycles for run in self.loops)

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.stall_cycles

    @property
    def dynamic_copies(self) -> int:
        return sum(run.dynamic_copies for run in self.loops)

    @property
    def violations(self) -> int:
        return sum(run.violations for run in self.loops)

    def merged_stats(self) -> SimStats:
        """Every loop's counters summed (:meth:`SimStats.summed`)."""
        return SimStats.summed(run.stats for run in self.loops)

    def access_fractions(self) -> Dict[AccessType, float]:
        return self.merged_stats().access_fractions()

    @property
    def local_hit_ratio(self) -> float:
        return self.merged_stats().local_hit_ratio

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "benchmark": self.benchmark,
            "variant": self.variant,
            "machine": self.machine,
            "attraction": self.attraction,
            "scale": self.scale,
            "spec_key": self.spec_key,
            "loops": [loop.to_dict() for loop in self.loops],
        }
        # Only non-default models are serialized, so pre-model record
        # dicts (and their goldens) stay byte-identical.
        if self.model != "snooping":
            data["model"] = self.model
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunRecord":
        return cls(
            benchmark=data["benchmark"],
            variant=data["variant"],
            machine=data.get("machine", "baseline"),
            attraction=bool(data.get("attraction", False)),
            scale=float(data.get("scale", 0.5)),
            spec_key=data.get("spec_key", ""),
            model=data.get("model", "snooping"),
            loops=[LoopRecord.from_dict(d) for d in data.get("loops", [])],
        )


# ----------------------------------------------------------------------
# Bulk export helpers
# ----------------------------------------------------------------------
CSV_COLUMNS = (
    "benchmark", "loop", "variant", "machine", "attraction", "scale",
    "ii", "unroll", "kernel_iterations", "compute_cycles", "stall_cycles",
    "total_cycles", "violations", "static_copies", "dynamic_copies",
    "replicated_instances", "fake_consumers", "local_hit_ratio",
)


def records_to_csv(records: Iterable[RunRecord]) -> str:
    """One CSV row per loop, with the owning record's context columns."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        for loop in record.loops:
            writer.writerow([
                record.benchmark, loop.loop, record.variant, record.machine,
                int(record.attraction), record.scale,
                loop.ii, loop.unroll, loop.kernel_iterations,
                loop.compute_cycles, loop.stall_cycles, loop.total_cycles,
                loop.violations, loop.static_copies, loop.dynamic_copies,
                loop.replicated_instances, loop.fake_consumers,
                f"{loop.stats.local_hit_ratio:.6f}",
            ])
    return out.getvalue()


def records_to_json(records: Iterable[RunRecord],
                    indent: Optional[int] = 2) -> str:
    return json.dumps([r.to_dict() for r in records], sort_keys=True,
                      indent=indent)
