"""Staged-pipeline front-end sharing — cold vs shared 6-variant sweep.

The paper's differential sweep runs every workload under the full
coherence × heuristic cross (free/MDC/DDGT × PrefClus/MinComs).  The
variant-independent front end — locality unrolling, MF/MA/MO
disambiguation, preferred-cluster profiling — is identical across the
six variants, so recompiling it per compile does redundant front-end
work.  This bench runs the cross both ways and asserts the
content-addressed :class:`~repro.api.artifacts.ArtifactStore` removes at
least half of it (stage executions are counted exactly; wall time is
reported alongside), and that the shared sweep keeps one artifact entry
per loop: one put per (benchmark, loop), one lookup per compile, and
one graph decode per entry, however many compiles replay it.

Both sweeps share back ends the same way: the runner compiles and
simulates a chain-free loop (no memory-dependent chain, so MDC and DDGT
compile what free compiles) once per heuristic and a chain loop once
per variant.  On this subset four of the six loops are chain-free, so
the schedule stage and ``simulate`` each run 4 × 2 + 2 × 6 = 20 times
for the 18 specs' 36 (spec, loop) pairs.  Wired into the CI smoke step.
"""

from __future__ import annotations

from unittest import mock

from conftest import run_once

from repro.api import (
    ALL_VARIANTS,
    MemoryArtifactStore,
    MemoryStore,
    Plan,
    Runner,
)
from repro.api import core
from repro.api.artifacts import (
    ArtifactStore,
    artifact_stats,
    reset_artifact_stats,
)
from repro.ir import Ddg
from repro.sched import Heuristic
from repro.sched.stages import (
    FRONTEND_STAGES,
    reset_stage_counters,
    stage_counters,
)
from repro.sim.executor import simulate
from repro.workloads import get_benchmark

SUBSET = ("gsmdec", "g721dec", "rasta")
SCALE = 0.1
#: The subset's loops without a memory-dependent chain.
CHAIN_FREE = ("gsmdec.aux", "g721dec.lut", "g721dec.stream", "rasta.aux")


def variant_cross_plan() -> Plan:
    return Plan.grid(
        benchmarks=list(SUBSET), variants=ALL_VARIANTS, scale=SCALE
    )


class _NullArtifacts(ArtifactStore):
    """Pre-refactor behaviour: every variant recompiles the front end."""

    def _get(self, key):
        return None

    def _put(self, key, text):
        pass


def _sweep(artifacts) -> dict:
    reset_stage_counters()
    reset_artifact_stats()
    decodes = []
    simulated = []
    from_dict = Ddg.from_dict.__func__

    def counted(cls, data):
        decodes.append(data["name"])
        return from_dict(cls, data)

    def simulating(compiled, *args, **kwargs):
        simulated.append(compiled.source.name)
        return simulate(compiled, *args, **kwargs)

    with mock.patch.object(Ddg, "from_dict", classmethod(counted)), \
            mock.patch.object(core, "simulate", simulating):
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
        "graph_decodes": len(decodes),
        "simulations": len(simulated),
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
    variants = len(ALL_VARIANTS)
    compiles = (len(CHAIN_FREE) * len(Heuristic)
                + (loops - len(CHAIN_FREE)) * variants)
    print(f"shared artifacts: {shared['artifact_puts']} puts for {loops} "
          f"loops | {shared['artifact_lookups']} lookups for "
          f"{compiles} compiles of {loops * variants} (spec, loop) pairs | "
          f"{shared['graph_decodes']} graph decodes")

    # Back ends: a chain-free loop compiles and simulates once per
    # heuristic, a chain loop once per variant, in both sweeps.
    for sweep in (cold, shared):
        assert sweep["per_stage"]["schedule"] == compiles == 20
        assert sweep["simulations"] == compiles
    assert cold["frontend_execs"] > shared["frontend_execs"]
    # The acceptance bar: >=2x less front-end work on a 6-variant sweep.
    # (The exact factor is compiles / loops: cold, each compile runs
    # the front end; shared, each loop's front end runs once.)
    assert reduction >= 2, (
        f"expected >=2x front-end work reduction, got {reduction:.2f}x"
    )
    # Sharing must cover all three front-end stages, not just one.
    for stage in FRONTEND_STAGES:
        assert cold["per_stage"][stage] == compiles, stage
        assert shared["per_stage"][stage] == loops, stage
    # The whole front end of a loop is one artifact entry.
    assert shared["artifact_puts"] == loops
    assert shared["artifact_lookups"] == compiles
    # The store decodes each entry's graph once; every replaying compile
    # copies it.  The never-hitting store decodes nothing.
    assert shared["graph_decodes"] == loops
    assert cold["graph_decodes"] == 0
