"""The staged compilation pipeline and its front door, :func:`compile_loop`.

Compilation runs the paper's phases as explicit, named *stages*:

    unroll -> disambiguate -> profile -> coherence -> assign -> copies
           -> schedule -> postpass -> check

The first three — the **front end** — depend only on the source graph,
the machine, and the profile trace; they are *identical* across the
paper's 6-way coherence × heuristic variant cross.  Their combined
output is one artifact per loop: :func:`frontend_artifact_key` digests
every input that reaches them, and the payload (the disambiguated
graph, the unroll factor and the profiles) lives in a pluggable
artifact store, so sibling variants — and later processes, via the
on-disk store — replay the front end instead of recomputing it.

The **back end** (coherence, assign, copies, schedule, postpass) is
variant-specific and mutates its working graph, so it always executes;
its stages are named for instrumentation, but not persisted.  The last
stage, ``check``, lints the finished compile (:mod:`repro.sched.lint`)
and raises :class:`~repro.errors.CheckError` listing every finding, so
no compile returns a schedule that breaks a placement, dependence,
capacity, copy or coherence-placement rule.

Artifact stores are duck-typed (``get(key, decode) -> value | None`` /
``put(key, dict)``): the stores live one layer up in
:mod:`repro.api.artifacts`, the runner passes its group's
:class:`~repro.api.core.LoopMemo`, and this module stays independent of
the API layer.  The front end passes ``get`` its decoder and may
receive the same decoded graph and profiles for every compile of a key
(a memo holds them), so it hands each compile a copy — the back end
mutates the graphs it receives.  Its one lookup per compile is what the
``artifacts.lookups`` and ``artifacts.puts`` counters count.

Every stage execution is observable: counts and wall time land in the
process metrics registry (``stages.executed`` / ``stages.seconds``,
including the ``check`` passes) and, when a tracer is
installed, each stage and artifact interaction becomes a span nested
under ``compile:<loop>`` — see :mod:`repro.obs` and
``docs/observability.md``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.alias.disambiguation import add_memory_dependences
from repro.alias.profiles import (
    ClusterProfile,
    TraceLike,
    profile_preferred_clusters,
)
from repro.arch.config import MachineConfig
from repro.errors import CheckError, SchedulingError
from repro.hashing import digest
from repro.ir.ddg import Ddg
from repro.obs import metrics, trace
from repro.ir.unroll import locality_unroll_factor, unroll
from repro.ir.verify import verify_ddg
from repro.sched.cluster import (
    ClusterAssignment,
    HeuristicKind,
    assign_clusters,
)
from repro.sched.coherence import CoherenceMode
from repro.sched.copies import insert_copies
from repro.sched.ddgt import DdgtResult, apply_ddgt
from repro.sched.latency import schedule_with_latency_policy
from repro.sched.lint import lint_compilation
from repro.sched.mdc import MdcResult, apply_mdc
from repro.sched.postpass import best_cluster_permutation
from repro.sched.schedule import Schedule, ScheduledOp


#: Public alias: the paper's two cluster-assignment heuristics.
Heuristic = HeuristicKind


#: The variant-independent stages shared by the whole variant cross, in
#: execution order; one artifact per loop holds their combined output.
FRONTEND_STAGES: Tuple[str, ...] = ("unroll", "disambiguate", "profile")


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
@dataclass
class StageCounters:
    """Snapshot of stage execution counts and wall-clock time.

    ``executed`` counts actual computations; an artifact hit does not
    execute the stage, which is exactly the signal the pipeline
    benchmarks assert on (a grouped 6-variant sweep must execute each
    front-end stage once, not six times).

    Since the `repro.obs` migration this is a *view* built by
    :func:`stage_counters` from the process metrics registry
    (``stages.executed`` / ``stages.seconds``, labeled by stage) —
    fetch it after the work you want to measure.
    """

    executed: Dict[str, int] = field(default_factory=dict)
    seconds: Dict[str, float] = field(default_factory=dict)

    def executions(self, stages: Tuple[str, ...]) -> int:
        return sum(self.executed.get(name, 0) for name in stages)

    def elapsed(self, stages: Tuple[str, ...]) -> float:
        return sum(self.seconds.get(name, 0.0) for name in stages)

    def frontend_executions(self) -> int:
        return self.executions(FRONTEND_STAGES)

    def frontend_seconds(self) -> float:
        return self.elapsed(FRONTEND_STAGES)


def stage_counters() -> StageCounters:
    """Current stage counters, read out of the metrics registry."""
    counters = StageCounters()
    reg = metrics.registry()
    for labels, value in reg.counter_items("stages.executed"):
        stage = labels.get("stage", "")
        counters.executed[stage] = counters.executed.get(stage, 0) + int(value)
    for labels, value in reg.counter_items("stages.seconds"):
        stage = labels.get("stage", "")
        counters.seconds[stage] = counters.seconds.get(stage, 0.0) + value
    return counters


def reset_stage_counters() -> None:
    """Zero the stage metrics (tests and benchmarks)."""
    metrics.registry().reset("stages.")


class _timed:
    """Context manager crediting a stage execution to the registry and
    recording the execution as a trace span (cat ``stage``)."""

    def __init__(self, stage: str) -> None:
        self.stage = stage
        self._span = trace.span(stage, cat="stage")

    def __enter__(self):
        self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._start
        metrics.inc("stages.executed", stage=self.stage)
        metrics.inc("stages.seconds", elapsed, stage=self.stage)
        self._span.__exit__(*exc)
        return False


# ----------------------------------------------------------------------
# The front-end artifact key
# ----------------------------------------------------------------------
def frontend_artifact_key(
    source: Ddg,
    machine: MachineConfig,
    unroll_factor: Optional[int],
    add_mem_deps: bool,
    trace_key: Optional[str],
    profile_iterations: Optional[int],
) -> str:
    """Key of one loop's front-end artifact: every input that reaches
    unrolling, disambiguation and profiling.

    The digest covers the source's exact :meth:`Ddg.to_dict` snapshot —
    not the canonicalizing :meth:`Ddg.fingerprint` — because downstream
    passes are sensitive to node/edge *iteration order*, which the
    fingerprint deliberately ignores: two graphs with equal fingerprints
    but different insertion orders may compile to different (equally
    valid) schedules, and must therefore never share an artifact key.
    The machine enters through its fingerprint (the locality heuristic
    and profiling read cluster count and interleave).  ``trace_key``
    names the profile trace's content (see
    :class:`repro.workloads.traces.TraceSpec`); ``None`` means nothing
    is profiled.
    """
    # Encoded directly: the snapshot is plain JSON already, and walking
    # it through repro.hashing.jsonable costs several times as much for
    # the same canonical text.
    snapshot = json.dumps(source.to_dict(), sort_keys=True,
                          separators=(",", ":"))
    return "frontend-" + digest([
        snapshot,
        machine.fingerprint(),
        "auto" if unroll_factor is None else int(unroll_factor),
        bool(add_mem_deps),
        trace_key,
        profile_iterations,
    ])


# ----------------------------------------------------------------------
# Stage implementations (pure compute, no caching)
# ----------------------------------------------------------------------
def run_unroll(ddg: Ddg, machine: MachineConfig,
               unroll_factor: Optional[int]) -> Tuple[Ddg, int]:
    """Clone the source and unroll it for locality (``None`` = the
    paper's heuristic picks the factor, 1 disables)."""
    work = ddg.clone()
    factor = (
        locality_unroll_factor(work, machine)
        if unroll_factor is None
        else unroll_factor
    )
    if factor > 1:
        work = unroll(work, factor)
    return work, factor


def run_disambiguate(work: Ddg, add_mem_deps: bool) -> Ddg:
    """Conservative MF/MA/MO disambiguation, in place on ``work``."""
    if add_mem_deps:
        add_memory_dependences(work)
    return work


def run_profile(
    work: Ddg,
    machine: MachineConfig,
    trace_factory: Callable[[Ddg], TraceLike],
    profile_iterations: Optional[int],
) -> Dict[int, ClusterProfile]:
    """Preferred-cluster profiling over the profile trace."""
    trace = trace_factory(work)
    return profile_preferred_clusters(
        work, trace, machine, max_iterations=profile_iterations
    )


def run_coherence(
    work: Ddg,
    machine: MachineConfig,
    coherence: CoherenceMode,
    profiles: Dict[int, ClusterProfile],
) -> Tuple[Ddg, Optional[MdcResult], Optional[DdgtResult]]:
    """Apply the coherence solution: nothing, MDC chains, or the DDGT
    graph transformations (which replace the working graph)."""
    mdc_result: Optional[MdcResult] = None
    ddgt_result: Optional[DdgtResult] = None
    if coherence is CoherenceMode.MDC:
        mdc_result = apply_mdc(work, profiles)
    elif coherence is CoherenceMode.DDGT:
        ddgt_result = apply_ddgt(work, machine)
        work = ddgt_result.ddg
    return work, mdc_result, ddgt_result


def run_assign(
    work: Ddg,
    machine: MachineConfig,
    heuristic: HeuristicKind,
    profiles: Dict[int, ClusterProfile],
    mdc_result: Optional[MdcResult],
) -> ClusterAssignment:
    return assign_clusters(work, machine, heuristic, profiles, mdc_result)


def run_copies(work: Ddg, machine: MachineConfig,
               assignment: ClusterAssignment) -> List[int]:
    return insert_copies(work, machine, assignment)


def run_schedule(work: Ddg, machine: MachineConfig,
                 assignment: ClusterAssignment) -> Schedule:
    return schedule_with_latency_policy(work, machine, assignment)


def run_postpass(
    work: Ddg,
    machine: MachineConfig,
    assignment: ClusterAssignment,
    schedule: Schedule,
    profiles: Dict[int, ClusterProfile],
) -> Tuple[ClusterAssignment, Schedule]:
    """The MinComs virtual->physical mapping on the finished schedule
    (clusters are homogeneous, so permuting them preserves validity)."""
    mapping = best_cluster_permutation(work, machine, assignment, profiles)
    if all(mapping[c] == c for c in mapping):
        return assignment, schedule
    new_assignment = assignment.permuted(mapping)
    new_ops = {
        iid: ScheduledOp(op.iid, mapping[op.cluster], op.time)
        for iid, op in schedule.ops.items()
    }
    for instr in list(work):
        if instr.required_cluster is not None:
            work.pin_cluster(instr.iid, mapping[instr.required_cluster])
    new_schedule = Schedule(
        ii=schedule.ii,
        ops=new_ops,
        ddg=work,
        machine=machine,
        assumed_latency=schedule.assumed_latency,
    )
    return new_assignment, new_schedule


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass
class CompilationResult:
    """Everything produced by one run of the pipeline."""

    schedule: Schedule
    ddg: Ddg  # the final, scheduled graph (replicas/copies/fakes included)
    source: Ddg  # post-unroll, pre-transformation graph (for CMR/CAR etc.)
    assignment: ClusterAssignment
    coherence: CoherenceMode
    heuristic: HeuristicKind
    machine: MachineConfig
    profiles: Dict[int, ClusterProfile] = field(default_factory=dict)
    mdc: Optional[MdcResult] = None
    ddgt: Optional[DdgtResult] = None
    copies: List[int] = field(default_factory=list)
    unroll_factor: int = 1

    @property
    def num_copies(self) -> int:
        """Explicit communication operations in the kernel (Table 4)."""
        return len(self.copies)

    @property
    def ii(self) -> int:
        return self.schedule.ii


def _run_frontend(
    ddg: Ddg,
    machine: MachineConfig,
    trace_factory: Optional[Callable[[Ddg], TraceLike]],
    unroll_factor: Optional[int],
    add_mem_deps: bool,
    profile_iterations: Optional[int],
) -> Tuple[Ddg, int, Optional[Dict[int, ClusterProfile]]]:
    """Compute the front end; profiling runs only with a trace factory."""
    with _timed("unroll"):
        work, factor = run_unroll(ddg, machine, unroll_factor)
    with _timed("disambiguate"):
        work = run_disambiguate(work, add_mem_deps)
    with _timed("check"):
        verify_ddg(work, machine)
    profiles = None
    if trace_factory is not None:
        with _timed("profile"):
            profiles = run_profile(
                work, machine, trace_factory, profile_iterations
            )
    return work, factor, profiles


def _decode_frontend(
    payload: dict,
) -> Tuple[Ddg, int, Optional[Dict[int, ClusterProfile]]]:
    """A front-end artifact's payload as the objects the back end takes;
    a group's memo keeps the result, shared by every compile of the
    key."""
    profiles = payload["profiles"]
    if profiles is not None:
        profiles = {
            int(iid): ClusterProfile(tuple(counts))
            for iid, counts in profiles
        }
    return Ddg.from_dict(payload["ddg"]), payload["factor"], profiles


def _frontend(
    ddg: Ddg,
    machine: MachineConfig,
    *,
    trace_factory: Optional[Callable[[Ddg], TraceLike]],
    profiles: Optional[Dict[int, ClusterProfile]],
    unroll_factor: Optional[int],
    add_mem_deps: bool,
    profile_iterations: Optional[int],
    artifacts,
) -> Tuple[Ddg, int, Optional[Dict[int, ClusterProfile]]]:
    """Run (or replay) the variant-independent front end.

    With a store the whole front end is one artifact, looked up once
    per compile: a hit replays it, a miss computes it, puts it once and
    hands the back end what it computed.  A hit copies the decoded
    graph and profiles, which the store may share between compiles of
    the key.  Explicit ``profiles`` and a trace factory without a
    ``key`` have no content key, so they bypass the store.
    Verification runs only when the front end computes — a replayed
    artifact was verified by whoever produced it.
    """
    if profiles is not None:
        work, factor, _ = _run_frontend(ddg, machine, None, unroll_factor,
                                        add_mem_deps, profile_iterations)
        return work, factor, profiles
    trace_key = getattr(trace_factory, "key", None)
    if artifacts is None or (trace_factory is not None and trace_key is None):
        return _run_frontend(ddg, machine, trace_factory, unroll_factor,
                             add_mem_deps, profile_iterations)

    with trace.span("artifact.key", cat="artifact"):
        key = frontend_artifact_key(ddg, machine, unroll_factor,
                                    add_mem_deps, trace_key,
                                    profile_iterations)
    with trace.span("artifact.get", cat="artifact", key=key):
        decoded = artifacts.get(key, _decode_frontend)
    metrics.inc("artifacts.lookups",
                outcome="miss" if decoded is None else "hit")
    if decoded is None:
        work, factor, profiles = _run_frontend(
            ddg, machine, trace_factory, unroll_factor, add_mem_deps,
            profile_iterations,
        )
        with trace.span("artifact.record", cat="artifact"):
            artifacts.put(key, {
                "ddg": work.to_dict(),
                "factor": factor,
                "profiles": None if profiles is None else [
                    [iid, list(p.counts)] for iid, p in profiles.items()
                ],
            })
        metrics.inc("artifacts.puts")
        return work, factor, profiles
    with trace.span("artifact.replay", cat="artifact"):
        work, factor, profiles = decoded
        return (work.clone(), factor,
                None if profiles is None else dict(profiles))


def compile_loop(
    ddg: Ddg,
    machine: MachineConfig,
    *,
    coherence: CoherenceMode = CoherenceMode.NONE,
    heuristic: HeuristicKind = HeuristicKind.MINCOMS,
    trace_factory: Optional[Callable[[Ddg], TraceLike]] = None,
    profiles: Optional[Dict[int, ClusterProfile]] = None,
    unroll_factor: Optional[int] = None,
    add_mem_deps: bool = True,
    profile_iterations: Optional[int] = 256,
    artifacts=None,
) -> CompilationResult:
    """Compile one loop for the clustered machine.

    The result has passed the schedule lint (:mod:`repro.sched.lint`);
    a compile with any finding raises :class:`~repro.errors.CheckError`
    listing them all.

    Parameters
    ----------
    trace_factory:
        Builds an address trace over a (possibly unrolled) graph; used for
        preferred-cluster profiling.  The workload catalog passes the
        *profile* data set here (Table 1 distinguishes profile and
        execution inputs).  Either this or ``profiles`` must be provided
        for PrefClus.  Only a factory carrying a content ``key`` (see
        :class:`repro.workloads.traces.TraceSpec`) lets the front end
        use ``artifacts``.
    unroll_factor:
        ``None`` = automatic (the locality heuristic); 1 disables.
    add_mem_deps:
        Run conservative disambiguation.  Disable when the input graph
        already carries hand-written memory edges (e.g. the paper's
        Figure 3 example).
    artifacts:
        Optional artifact store (``get(key, decode) -> value | None`` /
        ``put(key, dict)``; see :class:`repro.api.artifacts.ArtifactStore`
        and :class:`repro.api.core.LoopMemo`).  The whole front end —
        unrolled and disambiguated graph, unroll factor, profiles — is
        one entry keyed by :func:`frontend_artifact_key`: one lookup per
        compile, one put on a miss, so the 6-way variant cross of one
        loop computes it once.  A bare store decodes a hit afresh; a
        group's memo decodes it once and holds it.  Either way each
        compile gets its own copy of the graph and the profiles dict.
        Explicit ``profiles=`` and a trace factory without a ``key``
        bypass the store (the front end then runs uncached); the back
        end is never stored.  ``None`` (the default) compiles from
        scratch.
    """
    work, factor, profiles = _frontend(
        ddg, machine,
        trace_factory=trace_factory,
        profiles=profiles,
        unroll_factor=unroll_factor,
        add_mem_deps=add_mem_deps,
        profile_iterations=profile_iterations,
        artifacts=artifacts,
    )
    if profiles is None:
        if heuristic is HeuristicKind.PREFCLUS:
            raise SchedulingError(
                "PrefClus needs profiles: pass trace_factory= or profiles="
            )
        profiles = {}

    with trace.span("clone", cat="glue"):
        source = work.clone()

    with _timed("coherence"):
        work, mdc_result, ddgt_result = run_coherence(
            work, machine, coherence, profiles
        )
    with _timed("check"):
        verify_ddg(work, machine)

    with _timed("assign"):
        assignment = run_assign(work, machine, heuristic, profiles,
                                mdc_result)
    with _timed("copies"):
        copies = run_copies(work, machine, assignment)
    with _timed("schedule"):
        schedule = run_schedule(work, machine, assignment)

    if heuristic is HeuristicKind.MINCOMS:
        with _timed("postpass"):
            assignment, schedule = run_postpass(
                work, machine, assignment, schedule, profiles
            )

    result = CompilationResult(
        schedule=schedule,
        ddg=work,
        source=source,
        assignment=assignment,
        coherence=coherence,
        heuristic=heuristic,
        machine=machine,
        profiles=profiles,
        mdc=mdc_result,
        ddgt=ddgt_result,
        copies=copies,
        unroll_factor=factor,
    )
    with _timed("check"):
        findings = lint_compilation(result)
    if findings:
        raise CheckError(
            f"schedule of {work.name!r} at II={schedule.ii} failed the "
            f"check with {len(findings)} finding(s):\n"
            + "\n".join(f"  {finding}" for finding in findings)
        )
    return result
