"""The clustered modulo scheduler and the paper's two coherence solutions.

Public entry point: :func:`repro.sched.stages.compile_loop`, which runs
the staged pipeline (unrolling, disambiguation, profiling, MDC or DDGT,
cluster assignment, copy insertion, latency assignment, iterative modulo
scheduling, MinComs post-pass, and the schedule lint of
:mod:`repro.sched.lint` as its last stage) and returns a
:class:`~repro.sched.stages.CompilationResult`.  The
variant-independent front end is content-addressed and shareable
through an artifact store (see ``docs/architecture.md``).
"""

from repro.sched.schedule import Schedule, ScheduledOp, edge_latency
from repro.sched.stages import (
    FRONTEND_STAGES,
    CoherenceMode,
    CompilationResult,
    Heuristic,
    compile_loop,
    reset_stage_counters,
    stage_counters,
)
from repro.sched.mii import minimum_ii, rec_mii, res_mii
from repro.sched.mdc import MdcResult, apply_mdc, memory_dependent_chains
from repro.sched.ddgt import DdgtResult, apply_ddgt
from repro.sched.cluster import ClusterAssignment, assign_clusters

__all__ = [
    "Schedule",
    "ScheduledOp",
    "edge_latency",
    "minimum_ii",
    "rec_mii",
    "res_mii",
    "MdcResult",
    "apply_mdc",
    "memory_dependent_chains",
    "DdgtResult",
    "apply_ddgt",
    "ClusterAssignment",
    "assign_clusters",
    "CompilationResult",
    "CoherenceMode",
    "FRONTEND_STAGES",
    "Heuristic",
    "compile_loop",
    "reset_stage_counters",
    "stage_counters",
]
