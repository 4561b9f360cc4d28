"""Spec execution: the compile+simulate unit of work, result-cache-free.

:func:`execute_spec` turns a declarative :class:`~repro.api.spec.RunSpec`
into a :class:`~repro.api.records.RunRecord`; *result* caching and
parallelism live one layer up in :class:`~repro.api.runner.Runner`.
Compilation rides the staged pipeline (:mod:`repro.sched.stages`)
against an :class:`~repro.api.artifacts.ArtifactStore`, so the
variant-independent front end (unrolling, disambiguation, profiling) is
shared across the coherence × heuristic cross instead of being
recomputed per variant.

Inside a :class:`LoopMemo`, the specs of one group also share each
loop's back end, keyed by what the loop will compute:

* specs that differ only in their memory model share the loop's
  compiled result, execution trace (with its address tables) and the
  checker's expected versions, none of which depends on the model; each
  still simulates;
* on a *chain-free* loop, one whose disambiguated graph has no
  memory-dependent chain, MDC and DDGT compile exactly what free
  compiles with the same heuristic (MDC constrains only chain members,
  DDGT replicates only stores dependent on another op and rewrites only
  MA edges), so every coherence variant of a heuristic shares that
  compile, and specs that also share the model share the simulated
  loop record, relabelled with their own variant.

The runner keeps one memo per front-end group; entries are dropped once
the last spec that maps onto them is done with the loop.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, Optional, Set, Tuple

from repro.api.artifacts import ArtifactStore, default_artifact_store
from repro.api.records import LoopRecord, RunRecord
from repro.api.spec import (
    PROFILE_ITERATIONS,
    RunSpec,
    Variant,
    resolve_machine,
)
from repro.arch.config import MachineConfig
from repro.errors import WorkloadError
from repro.obs import metrics, trace
from repro.sched.mdc import memory_dependent_chains
from repro.sched.stages import CoherenceMode, CompilationResult, compile_loop
from repro.sim.coherence import ExpectedVersions, expected_versions
from repro.sim.executor import simulate
from repro.sim.models import DEFAULT_MODEL
from repro.sim.stats import SimStats
from repro.workloads.catalog import Benchmark, LoopSpec, get_benchmark
from repro.workloads.traces import AddressTrace, trace_factory


#: Minimum kernel iterations simulated per loop: below this the pipeline
#: warm-up dominates and the cycle counts stop being comparable across
#: variants.  Tiny scaled runs are inflated up to this floor (and the
#: inflation is recorded in :attr:`LoopRecord.iteration_floor`).
KERNEL_ITERATION_FLOOR = 32

_floor_warning_emitted = False


def _warn_iteration_floor(benchmark: str, loop: str, natural: int) -> None:
    """One-time (per process) warning that the floor inflated a run."""
    global _floor_warning_emitted
    if _floor_warning_emitted:
        return
    _floor_warning_emitted = True
    warnings.warn(
        f"kernel-iteration floor: {benchmark}:{loop} scaled to {natural} "
        f"kernel iterations; simulating {KERNEL_ITERATION_FLOOR} instead "
        f"(the floor is recorded in LoopRecord.iteration_floor; further "
        f"floored runs will not be reported)",
        RuntimeWarning,
        stacklevel=3,
    )


def suppress_floor_warning() -> None:
    """Mark the one-time floor warning as already emitted.

    The warning gate is per-process, so without this every pool worker
    of a parallel sweep would re-emit it.  The
    :class:`~repro.api.runner.Runner` installs this as the pool worker
    initializer and surfaces a single parent-side warning instead (see
    :func:`warn_floor_from_record`).
    """
    global _floor_warning_emitted
    _floor_warning_emitted = True


def warn_floor_from_record(record: RunRecord) -> None:
    """Parent-side one-time floor warning, derived from a record.

    Pool workers run with the in-worker warning suppressed; when their
    records come back, the first one carrying a non-zero
    :attr:`LoopRecord.iteration_floor` triggers this single warning in
    the parent process (same gate as the in-process warning, so serial
    and parallel execution never double-report).
    """
    global _floor_warning_emitted
    if _floor_warning_emitted:
        return
    for loop in record.loops:
        if loop.iteration_floor:
            _floor_warning_emitted = True
            warnings.warn(
                f"kernel-iteration floor: {record.benchmark}:{loop.loop} "
                f"inflated to {loop.kernel_iterations} kernel iterations "
                f"in a worker process (recorded in "
                f"LoopRecord.iteration_floor; further floored runs will "
                f"not be reported)",
                RuntimeWarning,
                stacklevel=3,
            )
            return


@dataclass(frozen=True)
class _LoopInputs:
    """What simulating one compiled loop needs, under any memory model."""

    compiled: CompilationResult
    execution: AddressTrace
    expected: ExpectedVersions
    kernel_iterations: int
    iteration_floor: int


@dataclass
class _SharedLoop:
    """One memo entry: a loop's simulation inputs and the records
    simulated from them, by memory model."""

    inputs: _LoopInputs
    records: Dict[str, LoopRecord] = field(default_factory=dict)


#: The memo key of a (spec, loop): a sibling key and the loop's name.
_MemoKey = Tuple[RunSpec, str]

#: The :class:`LoopMemo` the running :func:`execute_spec` call consults.
#: A context variable rather than a parameter, so ``execute_spec`` keeps
#: the ``(spec, artifacts=)`` signature its callers and wrappers use.
_LOOP_MEMO: ContextVar[Optional["LoopMemo"]] = ContextVar(
    "repro_loop_memo", default=None)


def sibling_key(spec: RunSpec) -> RunSpec:
    """``spec`` with the default memory model: equal exactly for *model
    siblings*, the specs that differ only in ``model``."""
    return replace(spec, model=DEFAULT_MODEL)


def chain_free_key(spec: RunSpec) -> RunSpec:
    """:func:`sibling_key` with coherence ``none``: what every coherence
    variant of ``spec``'s heuristic compiles on a chain-free loop."""
    heuristic = spec.variant_obj.heuristic
    return replace(spec, model=DEFAULT_MODEL,
                   variant=Variant(CoherenceMode.NONE, heuristic).key)


class LoopMemo:
    """Loop work shared between the :func:`execute_spec` calls of one
    group of specs, keyed by what each loop will compute.

    A (spec, loop) maps to ``(chain_free_key(spec), loop)`` when the
    loop's disambiguated graph has no memory-dependent chain (no MF/MA/MO
    edge between two distinct memory ops): MDC then leaves every op free
    and DDGT replicates and synchronizes nothing, so every coherence
    variant compiles what free compiles with the same heuristic.  Any
    other loop maps to ``(sibling_key(spec), loop)``.  The first compile
    of a loop decides which: its ``source`` is the shared front end, so
    every variant would see the same answer.

    Specs that map to one key share the loop's compile, execution trace
    and checker oracle; those that also share the model reuse the
    simulated :class:`LoopRecord`, relabelled with their variant.
    Failures are never shared: nothing that raised is kept, and a spec
    whose simulation of another variant's compile raises compiles and
    simulates the loop itself.

    Entries are reference-counted against the group's specs that have
    not yet passed the loop, so each is dropped once the last spec that
    maps onto it is done with the loop.  Use one memo per group: run
    each spec through :meth:`active`.
    """

    def __init__(self, specs: Iterable[RunSpec]) -> None:
        #: unfinished spec -> (front-end key, sibling key, chain-free key)
        self._specs: Dict[RunSpec, Tuple[str, RunSpec, RunSpec]] = {
            spec: (spec.frontend_key, sibling_key(spec),
                   chain_free_key(spec))
            for spec in specs
        }
        #: front-end key -> {loop: whether the loop is chain-free}
        self._chain_free: Dict[str, Dict[str, bool]] = {}
        #: (front-end key, loop) -> the specs done with that loop
        self._passed: Dict[Tuple[str, str], Set[RunSpec]] = {}
        self._entries: Dict[_MemoKey, _SharedLoop] = {}
        self._refs: Dict[_MemoKey, int] = {}

    @contextmanager
    def active(self) -> Iterator[None]:
        """Make this memo the one :func:`execute_spec` calls consult."""
        token = _LOOP_MEMO.set(self)
        try:
            yield
        finally:
            _LOOP_MEMO.reset(token)

    def __len__(self) -> int:
        """The number of entries held now."""
        return len(self._entries)

    # -- the execute_spec side -----------------------------------------
    def _key(self, spec: RunSpec, loop: str) -> Optional[_MemoKey]:
        """Where ``(spec, loop)`` maps, or ``None`` while undecided."""
        frontend, sibling, free = self._specs[spec]
        chain_free = self._chain_free.get(frontend, {}).get(loop)
        if chain_free is None:
            return None
        return (free if chain_free else sibling, loop)

    def _lookup(self, spec: RunSpec, loop: str) -> Optional[_SharedLoop]:
        key = self._key(spec, loop)
        return None if key is None else self._entries.get(key)

    def _keep(self, spec: RunSpec, loop: str,
              inputs: _LoopInputs) -> _SharedLoop:
        """Hold ``inputs``, which ``spec`` computed for ``loop``, for the
        specs that map onto the same key; the first compile of the loop
        decides whether it is chain-free."""
        frontend, sibling, free = self._specs[spec]
        decided = self._chain_free.setdefault(frontend, {})
        if loop not in decided:
            chain_free = decided[loop] = not memory_dependent_chains(
                inputs.compiled.source)
            passed = self._passed.get((frontend, loop), ())
            for other, (front, o_sibling, o_free) in self._specs.items():
                if front == frontend and other not in passed:
                    counted = (o_free if chain_free else o_sibling, loop)
                    self._refs[counted] = self._refs.get(counted, 0) + 1
        key = (free if decided[loop] else sibling, loop)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = _SharedLoop(inputs)
        return entry

    def _release(self, spec: RunSpec, loop: str) -> None:
        """``spec`` is done with ``loop``: drop the loop's entry if no
        other spec maps onto it."""
        passed = self._passed.setdefault((self._specs[spec][0], loop), set())
        if spec in passed:
            return
        passed.add(spec)
        key = self._key(spec, loop)
        if key is None:
            return
        self._refs[key] -= 1
        if not self._refs[key]:
            del self._refs[key]
            self._entries.pop(key, None)

    def _finish(self, spec: RunSpec) -> None:
        """``spec`` ended, whether or not it reached every loop."""
        for loop in tuple(self._chain_free.get(self._specs[spec][0], ())):
            self._release(spec, loop)
        del self._specs[spec]


def execute_spec(spec: RunSpec,
                 artifacts: Optional[ArtifactStore] = None) -> RunRecord:
    """Compile + simulate the work a spec declares (no result caching):
    every loop of the benchmark, or the one named loop, on the spec's
    effective machine (interleave and Attraction Buffers applied).

    ``artifacts`` (default: the process-wide store) shares front-end
    compilation stages with every other spec run in this process.
    Inside :meth:`LoopMemo.active` of a memo built over ``spec``, loops
    share work with the memo's other specs.
    """
    memo = _LOOP_MEMO.get()
    if memo is None or spec not in memo._specs:
        return _execute(spec, artifacts, None)
    try:
        return _execute(spec, artifacts, memo)
    finally:
        memo._finish(spec)


def _execute(spec: RunSpec, artifacts: Optional[ArtifactStore],
             memo: Optional[LoopMemo]) -> RunRecord:
    if artifacts is None:
        artifacts = default_artifact_store()
    machine = resolve_machine(spec)
    variant = spec.variant_obj
    key = spec.content_hash
    with trace.span(f"spec:{spec.benchmark}/{spec.variant}", cat="spec",
                    machine=spec.machine, spec_key=key):
        bench = get_benchmark(spec.benchmark)
        loops = bench.loops
        if spec.loop is not None:
            loops = tuple(s for s in loops if s.name == spec.loop)
            if not loops:
                known = sorted(s.name for s in bench.loops)
                raise WorkloadError(
                    f"benchmark {spec.benchmark!r} has no loop "
                    f"{spec.loop!r}; expected one of {known}"
                )
        record = RunRecord(
            benchmark=spec.benchmark,
            variant=variant.key,
            machine=machine.name,
            attraction=spec.attraction,
            scale=spec.scale,
            spec_key=key,
            model=spec.model,
        )
        for loop_spec in loops:
            if memo is None:
                inputs = _loop_inputs(bench, loop_spec, variant, machine,
                                      spec.scale, spec.seeds, artifacts)
                loop = _run_loop(bench, loop_spec, variant, inputs,
                                 spec.model)
            else:
                loop = _shared_loop(memo, spec, bench, loop_spec, variant,
                                    machine, artifacts)
                memo._release(spec, loop_spec.name)
            record.loops.append(loop)
        return record


def _shared_loop(
    memo: LoopMemo,
    spec: RunSpec,
    bench: Benchmark,
    loop_spec: LoopSpec,
    variant: Variant,
    machine: MachineConfig,
    artifacts: ArtifactStore,
) -> LoopRecord:
    """One loop's record through ``memo``: reused, simulated from shared
    inputs, or computed here and kept for the specs that map onto it."""
    entry = memo._lookup(spec, loop_spec.name)
    if entry is not None:
        shared = entry.records.get(spec.model)
        if shared is not None:
            metrics.inc("runner.shared_loops", via="chain_free")
            return replace(shared, variant=variant.key,
                           stats=_copied(shared.stats))
        try:
            loop = _run_loop(bench, loop_spec, variant, entry.inputs,
                             spec.model)
        except Exception:
            if entry.inputs.compiled.coherence is variant.coherence:
                raise
            # Failures are never shared: this variant computes the loop
            # itself below and reports its own outcome.
        else:
            metrics.inc("runner.shared_loops", via="model")
            entry.records[spec.model] = loop
            return loop
    inputs = _loop_inputs(bench, loop_spec, variant, machine, spec.scale,
                          spec.seeds, artifacts)
    if entry is None:
        entry = memo._keep(spec, loop_spec.name, inputs)
    loop = _run_loop(bench, loop_spec, variant, inputs, spec.model)
    if entry.inputs is inputs:
        entry.records[spec.model] = loop
    return loop


def _copied(stats: SimStats) -> SimStats:
    """An independent copy of ``stats``, so no two records share one."""
    return replace(stats, accesses=dict(stats.accesses),
                   bus_transfer_kinds=dict(stats.bus_transfer_kinds))


def _loop_inputs(
    bench: Benchmark,
    spec: LoopSpec,
    variant: Variant,
    machine: MachineConfig,
    scale: float,
    seeds: Optional[Tuple[int, int]],
    artifacts: ArtifactStore,
) -> _LoopInputs:
    """Compile one loop and build its execution trace and the checker's
    expected versions over it."""
    profile_seed, execute_seed = seeds or (bench.profile_seed,
                                           bench.execute_seed)
    # A keyed trace spec: its key is what lets the front end hit the
    # artifact store across the variant cross.
    profile = trace_factory(PROFILE_ITERATIONS, seed=profile_seed)
    with trace.span(f"compile:{spec.name}", cat="compile"):
        compiled = compile_loop(
            spec.ddg,
            machine,
            coherence=variant.coherence,
            heuristic=variant.heuristic,
            trace_factory=profile,
            unroll_factor=spec.unroll,
            artifacts=artifacts,
        )
    # spec.iterations counts *original* loop iterations; one kernel
    # iteration of the unrolled loop covers `unroll_factor` of them, so
    # every variant of a loop simulates the same amount of original work.
    original_iters = spec.scaled_iterations(scale)
    natural_iters = original_iters // compiled.unroll_factor
    kernel_iters = max(KERNEL_ITERATION_FLOOR, natural_iters)
    iteration_floor = 0
    if kernel_iters > natural_iters:
        iteration_floor = KERNEL_ITERATION_FLOOR
        _warn_iteration_floor(bench.name, spec.name, natural_iters)
    with trace.span(f"trace-gen:{spec.name}", cat="trace-gen"):
        execution = trace_factory(kernel_iters,
                                  seed=execute_seed)(compiled.ddg)
        expected = expected_versions(compiled.ddg, execution, kernel_iters)
    return _LoopInputs(compiled, execution, expected, kernel_iters,
                       iteration_floor)


def _run_loop(
    bench: Benchmark,
    spec: LoopSpec,
    variant: Variant,
    inputs: _LoopInputs,
    model: str,
) -> LoopRecord:
    """Simulate one compiled loop under ``model``."""
    compiled = inputs.compiled
    with trace.span(f"simulate:{spec.name}", cat="sim"):
        sim = simulate(compiled, inputs.execution,
                       iterations=inputs.kernel_iterations, model=model,
                       expected=inputs.expected)
    return LoopRecord(
        benchmark=bench.name,
        loop=spec.name,
        variant=variant.key,
        ii=compiled.ii,
        unroll=compiled.unroll_factor,
        kernel_iterations=inputs.kernel_iterations,
        compute_cycles=sim.compute_cycles,
        stall_cycles=sim.stall_cycles,
        stats=sim.stats,
        violations=sim.violations.total if sim.violations else 0,
        static_copies=compiled.num_copies,
        replicated_instances=(
            compiled.ddgt.instance_count if compiled.ddgt else 0
        ),
        fake_consumers=(
            len(compiled.ddgt.fake_consumers) if compiled.ddgt else 0
        ),
        iteration_floor=inputs.iteration_floor,
    )
