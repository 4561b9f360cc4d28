"""Staged-pipeline front-end sharing — cold vs shared 6-variant sweep.

The paper's differential sweep runs every workload under the full
coherence × heuristic cross (free/MDC/DDGT × PrefClus/MinComs).  The
variant-independent front end — locality unrolling, MF/MA/MO
disambiguation, preferred-cluster profiling — is identical across the
six variants, so per-variant recompilation does 6× redundant front-end
work.  This bench runs the cross both ways and asserts the
content-addressed :class:`~repro.api.artifacts.ArtifactStore` removes at
least half of it (stage executions are counted exactly; wall time is
reported alongside), and that the shared sweep keeps one artifact entry
per loop: one put per (benchmark, loop), one lookup per (spec, loop).
Wired into the CI smoke step.
"""

from __future__ import annotations

from conftest import run_once

from repro.api import (
    ALL_VARIANTS,
    MemoryArtifactStore,
    MemoryStore,
    Plan,
    Runner,
)
from repro.api.artifacts import artifact_stats, reset_artifact_stats
from repro.sched.stages import (
    FRONTEND_STAGES,
    reset_stage_counters,
    stage_counters,
)
from repro.workloads import get_benchmark

SUBSET = ("gsmdec", "g721dec", "rasta")
SCALE = 0.1


def variant_cross_plan() -> Plan:
    return Plan.grid(
        benchmarks=list(SUBSET), variants=ALL_VARIANTS, scale=SCALE
    )


class _NullArtifacts:
    """Pre-refactor behaviour: every variant recompiles the front end."""

    def get(self, key):
        return None

    def put(self, key, payload):
        pass


def _sweep(artifacts) -> dict:
    reset_stage_counters()
    reset_artifact_stats()
    Runner(store=MemoryStore(), artifacts=artifacts).run(
        variant_cross_plan()
    )
    counters = stage_counters()
    stats = artifact_stats()
    return {
        "frontend_execs": counters.frontend_executions(),
        "frontend_seconds": counters.frontend_seconds(),
        "per_stage": dict(counters.executed),
        "artifact_puts": stats.puts,
        "artifact_lookups": stats.lookups,
    }


def test_shared_frontend_beats_per_variant_recompilation(benchmark):
    cold = _sweep(_NullArtifacts())
    shared = run_once(benchmark, _sweep, MemoryArtifactStore())

    plan = variant_cross_plan()
    reduction = cold["frontend_execs"] / max(shared["frontend_execs"], 1)
    print(f"\nvariant cross: {len(plan)} specs "
          f"({len(SUBSET)} benchmarks x {len(ALL_VARIANTS)} variants, "
          f"scale {SCALE})")
    print(f"front-end stage executions: cold {cold['frontend_execs']} | "
          f"shared {shared['frontend_execs']} | {reduction:.1f}x reduction")
    print(f"front-end seconds: cold {cold['frontend_seconds']:.3f}s | "
          f"shared {shared['frontend_seconds']:.3f}s")
    loops = sum(len(get_benchmark(name).loops) for name in SUBSET)
    print(f"shared artifacts: {shared['artifact_puts']} puts for {loops} "
          f"loops | {shared['artifact_lookups']} lookups for "
          f"{loops * len(ALL_VARIANTS)} (spec, loop) compiles")

    # Every spec recompiles the front end cold: one execution of each
    # front-end stage per (benchmark, loop, variant).
    assert cold["frontend_execs"] > shared["frontend_execs"]
    # The acceptance bar: >=2x less front-end work on a 6-variant sweep.
    # (The exact factor is 6x: each loop's front end runs once instead of
    # once per variant.)
    assert reduction >= 2, (
        f"expected >=2x front-end work reduction, got {reduction:.2f}x"
    )
    # Sharing must cover all three front-end stages, not just one.
    per_variant = len(ALL_VARIANTS)
    for stage in FRONTEND_STAGES:
        assert cold["per_stage"][stage] == \
            shared["per_stage"][stage] * per_variant, stage
    # The whole front end of a loop is one artifact entry.
    assert shared["artifact_puts"] == loops
    assert shared["artifact_lookups"] == loops * per_variant
