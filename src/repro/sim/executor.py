"""The stall-on-use VLIW core: executes a modulo schedule against the
distributed memory system.

Execution model (section 2.1 + modulo semantics):

* the machine is a single flow of control in lockstep across clusters;
  instance ``i`` of operation ``v`` issues at kernel index
  ``t(v) + i * II``; one kernel index is retired per non-stalled cycle;
* *stall-on-use*: issue blocks — for the whole machine — when any operation
  due this cycle consumes a load value that has not arrived yet; the memory
  system keeps advancing during stalls;
* only loads have non-deterministic completion times, so only direct
  register consumers of loads can stall (every fixed-latency producer is
  separated from its consumers by at least its latency in kernel indexes,
  and stalls can only widen the real-time gap).

Cycle accounting matches Figures 7/9: ``compute_cycles`` counts retired
kernel indexes, ``stall_cycles`` counts blocked cycles.  The drain of
in-flight memory traffic after the last issue is not charged to either.

Two engines run this model and agree on every statistic:

* ``engine="events"`` (the default) — the flat fast path
  (:func:`repro.sim.flatmem.run_flat`), for every registered memory
  model: the memory system in plain containers, with stalled windows,
  the post-issue drain and memory-free kernel-index runs jumped in bulk;
* ``engine="cycles"`` — the per-cycle reference: one Python iteration
  per machine cycle, ``tick_begin``/``tick_end`` every cycle on the
  object :class:`~repro.sim.memory.MemorySystem`, routed by the run's
  model.  It is the oracle the fast path is differentially tested
  against, the memory system the conformance bridge ties to the
  protocol model, and the engine that drives a ``MemorySystem``
  substituted through this module (the fault-injecting test doubles),
  under every model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.alias.profiles import TraceLike
from repro.errors import SimulationError
from repro.ir.edges import DepKind
from repro.obs import metrics
from repro.sched.stages import CompilationResult
from repro.sim.coherence import (
    CoherenceChecker,
    ExpectedVersions,
    ViolationCounts,
)
from repro.sim.memory import MemorySystem
from repro.sim.models import DEFAULT_MODEL, named_model
from repro.sim.stats import SimStats

#: Consecutive stalled cycles after which the simulation is declared
#: hung.  The same bound guards the post-issue drain: a memory system
#: that fails to quiesce within this many cycles after the last issue
#: raises instead of spinning forever.
STALL_WATCHDOG = 100_000

#: The available simulation engines (see module docstring).
ENGINES = ("events", "cycles")


@dataclass
class SimulationResult:
    """Statistics plus context for one simulated loop execution."""

    stats: SimStats
    ii: int
    stage_count: int
    iterations: int
    violations: Optional[ViolationCounts] = None

    @property
    def total_cycles(self) -> int:
        return self.stats.total_cycles

    @property
    def compute_cycles(self) -> int:
        return self.stats.compute_cycles

    @property
    def stall_cycles(self) -> int:
        return self.stats.stall_cycles


@dataclass
class _OpInfo:
    """Pre-resolved per-operation execution info."""

    iid: int
    cluster: int
    time: int
    is_load: bool = False
    is_store: bool = False
    width: int = 4
    replica: bool = False
    seq: int = 0
    #: (load iid, distance) pairs this op must wait for (stall-on-use)
    load_preds: Tuple[Tuple[int, int], ...] = ()


def simulate(
    compilation: CompilationResult,
    trace: TraceLike,
    iterations: Optional[int] = None,
    check_coherence: bool = True,
    engine: str = "events",
    model: str = DEFAULT_MODEL,
    expected: Optional[ExpectedVersions] = None,
) -> SimulationResult:
    """Run a compiled loop against an execution address trace.

    ``engine`` selects the execution strategy: ``"events"`` (default)
    runs the flat fast path, ``"cycles"`` the one-iteration-per-cycle
    reference.  Both produce identical
    :class:`~repro.sim.stats.SimStats` and violation counts.

    ``model`` names the registered memory model
    (:mod:`repro.sim.models`) the run simulates; both engines support
    every model.

    ``expected`` is the coherence checker's oracle,
    :func:`~repro.sim.coherence.expected_versions` over this loop's graph,
    ``trace`` and iteration count.  It does not depend on ``model``, so a
    caller simulating one trace under several models can build it once;
    by default the checker builds it.
    """
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown simulation engine {engine!r}; expected one of {ENGINES}"
        )
    from repro.sim.flatmem import run_flat  # local: avoid cycle

    model_impl = named_model(model)
    schedule = compilation.schedule
    machine = compilation.machine
    ddg = compilation.ddg

    n_iter = trace.num_iterations if iterations is None else iterations
    if n_iter < 1:
        raise SimulationError("need at least one iteration")
    if n_iter > trace.num_iterations:
        raise SimulationError(
            f"trace provides {trace.num_iterations} iterations, "
            f"{n_iter} requested"
        )
    model_impl.validate_machine(machine)

    checker = (
        CoherenceChecker(ddg, trace, n_iter, expected)
        if check_coherence else None
    )
    stats = SimStats()
    ops_by_slot = _prepare(compilation)
    total_indexes = schedule.length + (n_iter - 1) * schedule.ii

    if engine == "events":
        busy_cycles = run_flat(
            machine, model_impl, schedule, n_iter, total_indexes,
            ops_by_slot, trace, stats, checker,
        )
    else:
        # Load completions, per load one list indexed by iteration: 0
        # before issue, None in flight, then the completion cycle.
        completions: Dict[int, List[Optional[int]]] = {
            instr.iid: [0] * n_iter for instr in ddg.loads()
        }
        # Construct through the module global so tests substituting
        # ``executor.MemorySystem`` (fault injectors) drive the
        # reference.
        memory = MemorySystem(machine, stats, checker, model=model)
        _run_per_cycle(
            schedule, n_iter, total_indexes, ops_by_slot, completions,
            trace, memory, stats,
        )
        memory.flush_attraction_buffers()
        busy_cycles = memory.fabric.busy_cycles

    # One registry publication per run (never per cycle): engine counters
    # incl. the fast path's skip diagnostics, plus per-bus occupancy.
    if metrics.enabled():
        stats.publish(engine, model=model)
        for bus, busy in enumerate(busy_cycles):
            metrics.inc("sim.bus_busy_cycles", busy, engine=engine, bus=bus)

    return SimulationResult(
        stats=stats,
        ii=schedule.ii,
        stage_count=schedule.stage_count,
        iterations=n_iter,
        violations=checker.counts if checker else None,
    )


# ----------------------------------------------------------------------
# Engine: per-cycle reference
# ----------------------------------------------------------------------
def _run_per_cycle(
    schedule, n_iter, total_indexes, ops_by_slot, completions,
    trace, memory, stats,
) -> None:
    """One Python iteration per machine cycle (the semantic baseline)."""
    ii = schedule.ii
    index = 0
    cycle = 0
    stall_streak = 0
    drain_streak = 0
    drain_low_water = float("inf")
    while index < total_indexes or not memory.quiescent():
        memory.tick_begin(cycle)
        if index < total_indexes:
            due = _due_ops(ops_by_slot, index, ii, n_iter)
            if _all_ready(due, completions, cycle):
                for info, iteration in due:
                    _issue(
                        info, iteration, cycle, trace, memory, completions, stats
                    )
                index += 1
                stats.compute_cycles += 1
                stall_streak = 0
            else:
                stats.stall_cycles += 1
                stall_streak += 1
                if stall_streak > STALL_WATCHDOG:
                    raise SimulationError(
                        f"machine stalled for {stall_streak} cycles at "
                        f"kernel index {index}"
                    )
        else:
            # Post-issue drain: nothing issues, the memory system empties
            # its in-flight traffic.  A memory bug that never quiesces
            # must raise, not spin forever.  The watchdog bounds
            # *progress-free* windows — the low-water mark of pending
            # work must keep falling — so a legitimately large backlog
            # may take arbitrarily long, but a stuck or self-rescheduling
            # memory system cannot.
            pending = memory.pending_work()
            if pending < drain_low_water:
                drain_low_water = pending
                drain_streak = 0
            drain_streak += 1
            if drain_streak > STALL_WATCHDOG:
                raise SimulationError(
                    f"memory system failed to drain: no progress for "
                    f"{STALL_WATCHDOG} cycles after the last issue"
                )
        memory.tick_end(cycle)
        cycle += 1


# ----------------------------------------------------------------------
def _prepare(compilation: CompilationResult) -> List[List[_OpInfo]]:
    """Bucket scheduled ops by modulo slot with pre-resolved issue info."""
    schedule = compilation.schedule
    ddg = compilation.ddg
    buckets: List[List[_OpInfo]] = [[] for _ in range(schedule.ii)]
    for op in schedule.ops.values():
        instr = ddg.node(op.iid)
        load_preds = tuple(
            (e.src, e.distance)
            for e in ddg.preds(op.iid)
            if e.kind is DepKind.RF and ddg.node(e.src).is_load
        )
        info = _OpInfo(
            iid=op.iid,
            cluster=op.cluster,
            time=op.time,
            is_load=instr.is_load,
            is_store=instr.is_store,
            width=instr.mem.width if instr.mem is not None else 4,
            replica=instr.replica_group is not None,
            seq=instr.seq,
            load_preds=load_preds,
        )
        buckets[op.time % schedule.ii].append(info)
    for bucket in buckets:
        # Within one cycle, reads happen before writes (an MA-dependent
        # store scheduled in the same cycle as the load must not clobber
        # the value first — the paper's "at the same time" case).
        bucket.sort(key=lambda info: (info.is_store, info.iid))
    return buckets


def _due_ops(
    ops_by_slot: List[List[_OpInfo]], index: int, ii: int, n_iter: int
) -> List[Tuple[_OpInfo, int]]:
    due = []
    for info in ops_by_slot[index % ii]:
        iteration, rem = divmod(index - info.time, ii)
        if rem == 0 and 0 <= iteration < n_iter:
            due.append((info, iteration))
    return due


def _all_ready(
    due: List[Tuple[_OpInfo, int]],
    completions: Dict[int, List[Optional[int]]],
    cycle: int,
) -> bool:
    for info, iteration in due:
        for load_iid, distance in info.load_preds:
            j = iteration - distance
            if j < 0:
                continue
            done = completions[load_iid][j]
            if done is None or done > cycle:
                return False
    return True


def _issue(
    info: _OpInfo,
    iteration: int,
    cycle: int,
    trace: TraceLike,
    memory: MemorySystem,
    completions: Dict[int, List[Optional[int]]],
    stats: SimStats,
) -> None:
    stats.issued_ops += 1
    if info.is_load:
        addr = trace.address(info.iid, iteration)
        slot = completions[info.iid]
        slot[iteration] = None

        def on_complete(done: int, _slot=slot, _it=iteration) -> None:
            _slot[_it] = done

        memory.load(
            info.cluster, addr, info.width, info.iid, iteration, on_complete, cycle
        )
    elif info.is_store:
        addr = trace.address(info.iid, iteration)
        memory.store(
            info.cluster,
            addr,
            info.width,
            info.iid,
            iteration,
            (iteration, info.seq),
            info.replica,
            cycle,
        )

