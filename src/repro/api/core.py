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

The memo is also the group's artifact store, the one in-process holder
of its front ends: each compile looks its front end up there, and the
memo keeps every front end it fetched from or put into the runner's
artifact store until the group ends.  The runner keeps one memo per
front-end group and runs the specs that map onto one back-end entry
back to back; :meth:`LoopMemo.enter` drops, before each spec, every
entry that spec will not look up.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional, Tuple, Union

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


def warn_floor_from_record(record: RunRecord) -> None:
    """One-time (per process) warning that the floor inflated a run.

    :meth:`Runner.run <repro.api.runner.Runner.run>` applies it to every
    fresh record, serially and under ``parallel`` alike, so a process
    reports the first record carrying a non-zero
    :attr:`LoopRecord.iteration_floor` and stays quiet afterwards,
    however many workers computed the records.  The warning names the
    line that called ``run``, which calls this directly.
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
                f"(recorded in LoopRecord.iteration_floor; further floored "
                f"runs will not be reported)",
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

#: Where a spec's loops may map: its sibling key and its chain-free key.
_SpecKeys = Tuple[RunSpec, RunSpec]


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


def _spec_keys(spec: RunSpec) -> _SpecKeys:
    return sibling_key(spec), chain_free_key(spec)


class LoopMemo:
    """Loop work shared between the :func:`execute_spec` calls of one
    group of specs, keyed by what each loop will compute.

    A (spec, loop) maps to ``(chain_free_key(spec), loop)`` when the
    loop's disambiguated graph has no memory-dependent chain (no MF/MA/MO
    edge between two distinct memory ops): MDC then leaves every op free
    and DDGT replicates and synchronizes nothing, so every coherence
    variant compiles what free compiles with the same heuristic.  Any
    other loop maps to ``(sibling_key(spec), loop)``.  The first compile
    of a loop under a chain-free key decides which: its ``source`` is
    the shared front end, so every variant would see the same answer.

    Specs that map to one key share the loop's compile, execution trace
    and checker oracle; those that also share the model reuse the
    simulated :class:`LoopRecord`, relabelled with their variant.
    Failures are never shared: nothing that raised is kept, and a spec
    whose simulation of another variant's compile raises compiles and
    simulates the loop itself.

    An entry stays until :meth:`enter` drops it: run the specs that map
    onto one entry back to back, and enter each spec before passing the
    memo to its :func:`execute_spec` call.

    The memo is also the artifact store its group's compiles receive
    (:meth:`get` / :meth:`put`, the pipeline's duck type).  Front ends
    persist in ``artifacts``; the memo holds each one it fetched or put
    until the memo goes with its group, and keeps the canonical text of
    its puts in :attr:`puts`, which a pool task ships back to the
    parent's store.
    """

    def __init__(self, artifacts: ArtifactStore) -> None:
        self._artifacts = artifacts
        #: artifact key -> the front end held: a put's canonical text
        #: until the first replay decodes it, then the decoded value
        #: (never text)
        self._frontends: Dict[str, Any] = {}
        #: artifact key -> canonical text, for every front end put here
        self.puts: Dict[str, str] = {}
        #: (chain-free key, loop) -> whether the loop is chain-free
        self._chain_free: Dict[_MemoKey, bool] = {}
        self._entries: Dict[_MemoKey, _SharedLoop] = {}

    def __len__(self) -> int:
        """The number of back-end entries held now."""
        return len(self._entries)

    def enter(self, spec: RunSpec) -> None:
        """``spec`` runs next: drop every entry it will not look up."""
        keys = _spec_keys(spec)
        self._entries = {key: entry for key, entry in self._entries.items()
                         if self._key(keys, key[1]) == key}

    # -- the compile_loop side -----------------------------------------
    def get(self, key: str, decode: Callable[[dict], Any]) -> Any:
        """The decoded front end under ``key``, or ``None`` on a miss.

        A held front end is served as the same decoded object every
        time (the pipeline copies what it mutates); one this memo does
        not hold yet is fetched from the artifact store and kept.
        """
        held = self._frontends.get(key)
        if held is None:
            held = self._artifacts.get(key, decode)
        elif isinstance(held, str):
            held = decode(json.loads(held))
        if held is not None:
            self._frontends[key] = held
        return held

    def put(self, key: str, payload: dict) -> str:
        """Store ``payload`` in the artifact store and hold its canonical
        text until a replay decodes it."""
        text = self._artifacts.put(key, payload)
        self._frontends[key] = self.puts[key] = text
        return text

    # -- the execute_spec side -----------------------------------------
    def _key(self, keys: _SpecKeys, loop: str) -> Optional[_MemoKey]:
        """Where a spec with ``keys`` maps ``loop``, or ``None`` while
        undecided."""
        sibling, free = keys
        chain_free = self._chain_free.get((free, loop))
        if chain_free is None:
            return None
        return (free if chain_free else sibling, loop)

    def _lookup(self, keys: _SpecKeys, loop: str) -> Optional[_SharedLoop]:
        key = self._key(keys, loop)
        return None if key is None else self._entries.get(key)

    def _keep(self, keys: _SpecKeys, loop: str,
              inputs: _LoopInputs) -> _SharedLoop:
        """Hold ``inputs``, which a spec with ``keys`` computed for
        ``loop`` and found no entry for, for the specs that map onto the
        same key; the first compile of the loop decides whether it is
        chain-free."""
        sibling, free = keys
        chain_free = self._chain_free.get((free, loop))
        if chain_free is None:
            chain_free = self._chain_free[free, loop] = (
                not memory_dependent_chains(inputs.compiled.source))
        key = (free if chain_free else sibling, loop)
        entry = self._entries[key] = _SharedLoop(inputs)
        return entry


def execute_spec(
    spec: RunSpec,
    artifacts: Union[LoopMemo, ArtifactStore, None] = None,
) -> RunRecord:
    """Compile + simulate the work a spec declares (no result caching):
    every loop of the benchmark, or the one named loop, on the spec's
    effective machine (interleave and Attraction Buffers applied).

    A :class:`LoopMemo` passed as ``artifacts`` is used as is: loops
    share work with the memo's other specs, and front ends persist in
    the memo's artifact store.  Any other store (default: the
    process-wide one) gets a fresh memo of this spec's own.
    """
    if isinstance(artifacts, LoopMemo):
        memo = artifacts
    else:
        memo = LoopMemo(default_artifact_store() if artifacts is None
                        else artifacts)
    machine = resolve_machine(spec)
    variant = spec.variant_obj
    keys = _spec_keys(spec)
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
            record.loops.append(_shared_loop(memo, keys, spec, bench,
                                             loop_spec, variant, machine))
        return record


def _shared_loop(
    memo: LoopMemo,
    keys: _SpecKeys,
    spec: RunSpec,
    bench: Benchmark,
    loop_spec: LoopSpec,
    variant: Variant,
    machine: MachineConfig,
) -> LoopRecord:
    """One loop's record through ``memo``: reused, simulated from shared
    inputs, or computed here and kept for the specs that map onto it."""
    entry = memo._lookup(keys, loop_spec.name)
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
                          spec.seeds, memo)
    if entry is None:
        entry = memo._keep(keys, loop_spec.name, inputs)
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
    memo: LoopMemo,
) -> _LoopInputs:
    """Compile one loop, with its front end through ``memo``, and build
    its execution trace and the checker's expected versions over it."""
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
            artifacts=memo,
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
