"""The modulo scheduler vs the straightforward reference, schedule for
schedule.

:mod:`repro.sched` computes RecMII exactly over cyclic components by
positive-cycle jumps, bounds the latency ladder to the base II (a
level whose RecMII exceeds it raises ``RecurrenceError`` before any
placement), picks ops from a heap, scans for the first free slot in one
call, resolves each op's table row and adjacency once per call and
keeps its reservation table in row-indexed cell lists and per-bus
bitmasks.  ``sched_reference`` is the scheduler before those changes.
The two must agree on ``rec_mii`` and ``minimum_ii`` at every ladder
level (where the reference raises a plain ``SchedulingError`` on RecMII,
:mod:`repro.sched` raises its ``RecurrenceError`` subclass), and on the
whole :class:`~repro.sched.schedule.Schedule` the latency policy returns
(II, each op's cluster and time in placement order, assumed latencies):

* over a fixed cross — one scenario per family × the Table-2 baseline,
  ``nobal+mem`` and a slow-memory machine whose pessimistic RecMII
  reaches the hundreds × the six variants — where the ladder also tries
  the reference's levels in order and rejects on RecMII exactly those
  whose reference RecMII exceeds the base II;
* over derandomized generated graphs (several components, self loops,
  zero-distance cycles), for ``LoopBounds`` (edge weights and
  ``recurrence_floor``), ``rec_mii`` and ``minimum_ii`` alone, floors
  and limits on both sides of the answer;
* over a derandomized hypothesis search of ``scn-`` knobs × ``gen-``
  machines × variants through the ``repro run`` pipeline, each cell
  also checked by the independent schedule verifier; a failure names
  the ``repro run`` command that replays the cell;
* for the reservation table alone, over random
  ``place``/``remove``/``fits``/``first_fit``/``conflicting_ops``
  sequences on machines with several register buses, the fast table
  taking the row :func:`~repro.sched.schedule.table_row` resolves;
* and, without the reference, the ``modulo_schedule`` calls and
  ``sched.ladder_levels`` outcomes of the fixed cross stay pinned.
"""

from __future__ import annotations

import functools
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.alias import MemRef
from repro.api import core
from repro.api.artifacts import MemoryArtifactStore
from repro.api.spec import ALL_VARIANTS, RunSpec
from repro.arch.config import BusConfig, FuKind, MachineConfig, named_config
from repro.errors import CheckError, RecurrenceError, SchedulingError
from repro.ir import Ddg, DepKind, Opcode
from repro.obs import metrics
from repro.scenarios import FAMILIES, ScenarioParams, build_scenario_ddg
from repro.scenarios.machines import machine_grid
from repro.sched import (
    CoherenceMode,
    Heuristic,
    compile_loop,
    latency,
    mii,
    stages,
)
from repro.sched.latency import schedule_with_latency_policy
from repro.sched.schedule import ReservationTable, table_row
from repro.workloads import trace_factory

import sched_reference as reference

SLOWMEM = "gen-c4-mb1x8-rb4x2-cm512b32a2-nl60p2"
MACHINES = ("baseline", "nobal+mem", SLOWMEM)
#: One scenario per family, small enough that the slow reference stays
#: quick; the chase's pessimistic RecMII on SLOWMEM exceeds 300.
SCENARIOS = (
    ScenarioParams(family="stream", size=12, seed=3),
    ScenarioParams(family="stencil", size=8, seed=3),
    ScenarioParams(family="reduce", size=12, recurrence=3, seed=3),
    ScenarioParams(family="gather", size=12, recurrence=2, seed=3),
    ScenarioParams(family="chase", size=8, recurrence=3, seed=3),
    ScenarioParams(family="alias", size=12, alias_pct=40, seed=3),
)


def observation(schedule):
    """Everything the two schedulers must agree on."""
    return (
        schedule.ii,
        [(iid, op.cluster, op.time) for iid, op in schedule.ops.items()],
        schedule.assumed_latency,
    )


def bounds(module, ddg, machine):
    """``module``'s ``(rec_mii, minimum_ii)`` at every ladder level, or
    the error type where a level has no recurrence bound below the
    search cap."""
    loads = [instr.iid for instr in ddg.loads()]
    out = []
    for level in machine.memory_latencies().ladder():
        assumed = {iid: level for iid in loads}
        try:
            out.append((module.rec_mii(ddg, machine, assumed),
                        module.minimum_ii(ddg, machine, assumed)))
        except SchedulingError as exc:
            out.append(type(exc))
    return out


def as_fast(outcome):
    """The reference's ``outcome`` as :mod:`repro.sched` must report it:
    where the reference raises a plain SchedulingError (on RecMII), the
    fast path raises RecurrenceError."""
    return RecurrenceError if outcome is SchedulingError else outcome


def tried_levels(work, machine, assignment):
    """The latency policy's schedule, the pessimistic levels it tries in
    order, and those among them whose capped ``modulo_schedule`` call
    raises RecurrenceError."""
    tried, recmii = [], []
    modulo_schedule = latency.modulo_schedule

    def spy(ddg, machine, assignment, assumed_latency=None, **kwargs):
        level = set(assumed_latency.values())
        tried.append(level)
        try:
            return modulo_schedule(ddg, machine, assignment,
                                   assumed_latency, **kwargs)
        except RecurrenceError:
            recmii.append(level)
            raise

    with mock.patch.object(latency, "modulo_schedule", spy):
        fast = schedule_with_latency_policy(work, machine, assignment)
    return fast, (tried[1:], recmii)


def expected_levels(work, machine, schedule):
    """The pessimistic levels the ladder must try before it returns
    ``schedule``, and those among them whose reference RecMII exceeds
    the base II."""
    base_ii = schedule.ii
    loads = [instr.iid for instr in work.loads()]
    ladder = machine.memory_latencies().ladder()
    accepted = set(schedule.assumed_latency.values())
    tried, recmii = [], []
    for level in sorted(set(ladder[1:]), reverse=True):
        tried.append({level})
        try:
            reference.rec_mii(work, machine, {iid: level for iid in loads},
                              max_ii=base_ii)
        except SchedulingError:
            recmii.append({level})
            continue
        if accepted == {level}:
            break
    return tried, recmii


def differential(mismatches, check_bounds=False):
    """A ``run_schedule`` stand-in that also runs the reference and
    records every disagreement."""

    def run_schedule(work, machine, assignment):
        fast, levels = tried_levels(work, machine, assignment)
        ref = reference.schedule_with_latency_policy(work, machine,
                                                     assignment)
        if observation(fast) != observation(ref):
            mismatches.append(("schedule", observation(fast),
                               observation(ref)))
        if check_bounds:
            got = bounds(mii, work, machine)
            want = [as_fast(level)
                    for level in bounds(reference, work, machine)]
            if got != want:
                mismatches.append(("bounds", got, want))
            if work.loads():
                want = expected_levels(work, machine, ref)
                if levels != want:
                    mismatches.append(("ladder levels", levels, want))
        return fast

    return run_schedule


@pytest.fixture(scope="module")
def artifacts():
    """One front-end store per (scenario, machine), shared by the six
    variants."""
    stores = {}

    def get(params, machine):
        return stores.setdefault((params, machine), MemoryArtifactStore())

    return get


def test_scenarios_cover_every_family():
    assert sorted(p.family for p in SCENARIOS) == sorted(FAMILIES)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.key)
@pytest.mark.parametrize("params", SCENARIOS, ids=lambda p: p.family)
@pytest.mark.parametrize("machine", MACHINES)
def test_schedule_matches_reference(artifacts, machine, params, variant):
    mismatches = []
    with mock.patch.object(stages, "run_schedule",
                           differential(mismatches, check_bounds=True)):
        compile_loop(
            build_scenario_ddg(params), named_config(machine),
            coherence=variant.coherence, heuristic=variant.heuristic,
            trace_factory=trace_factory(64, seed=5),
            profile_iterations=64,
            artifacts=artifacts(params, machine),
        )
    assert not mismatches, mismatches[0]


#: ``modulo_schedule`` calls and ``sched.ladder_levels`` outcomes of the
#: fixed cross (the six scenarios x the six variants) on one machine,
#: pinned at the values of the scheduler before ops were resolved once
#: per call: a faster search must make the same calls with the same
#: outcomes.
LADDER_PINS = {
    "baseline": (112, {"accepted": 23, "no_fit": 2, "recmii": 36,
                       "too_long": 15}),
    "nobal+mem": (124, {"accepted": 18, "no_fit": 22, "recmii": 34,
                        "too_long": 14}),
}


@pytest.mark.parametrize("machine", sorted(LADDER_PINS))
def test_ladder_counts_are_pinned(machine):
    calls = []
    modulo_schedule = latency.modulo_schedule

    def counted(*args, **kwargs):
        calls.append(1)
        return modulo_schedule(*args, **kwargs)

    with metrics.capture() as reg, \
            mock.patch.object(latency, "modulo_schedule", counted):
        for params in SCENARIOS:
            artifacts = MemoryArtifactStore()
            for variant in ALL_VARIANTS:
                compile_loop(
                    build_scenario_ddg(params), named_config(machine),
                    coherence=variant.coherence,
                    heuristic=variant.heuristic,
                    trace_factory=trace_factory(64, seed=5),
                    profile_iterations=64, artifacts=artifacts,
                )
    levels = {dict(labels)["outcome"]: value
              for labels, value in reg.counter_items("sched.ladder_levels")}
    assert (len(calls), levels) == LADDER_PINS[machine]


def test_slow_memory_recurrence_reaches_the_hundreds():
    """The slow-memory machine is in the cross for its large RecMII: the
    pessimistic levels of the pointer chase probe hundreds of cycles
    above the local-hit bound."""
    machine = named_config(SLOWMEM)
    seen = []

    def capture(work, machine, assignment):
        seen.append(bounds(mii, work, machine))
        return schedule_with_latency_policy(work, machine, assignment)

    with mock.patch.object(stages, "run_schedule", capture):
        compile_loop(build_scenario_ddg(SCENARIOS[4]), machine,
                     coherence=CoherenceMode.MDC,
                     heuristic=Heuristic.MINCOMS)
    (levels,) = seen
    assert levels[0][0] < 10 and levels[-1][0] >= 100


# ----------------------------------------------------------------------
# Fuzzed differential over whole `repro run` cells
# ----------------------------------------------------------------------
#: Generated machines: cluster count, register-bus grid and next-level
#: distance all vary.
FUZZ_MACHINES = machine_grid(
    clusters=(2, 4),
    mem_buses=((4, 2), (1, 8)),
    reg_buses=((4, 2), (2, 4), (1, 3)),
    next_levels=((10, 4), (60, 2)),
)
FUZZ_SCALE = 0.05


@st.composite
def cells(draw):
    """One small ``repro run`` cell."""
    params = ScenarioParams(
        family=draw(st.sampled_from(FAMILIES)),
        size=draw(st.sampled_from((8, 12, 16))),
        mem_pct=draw(st.sampled_from((20, 40, 60))),
        recurrence=draw(st.integers(0, 4)),
        alias_pct=draw(st.sampled_from((0, 25, 50))),
        seed=draw(st.integers(0, 999)),
    )
    return RunSpec(
        benchmark=params.name,
        variant=draw(st.sampled_from([v.key for v in ALL_VARIANTS])),
        machine=draw(st.sampled_from(FUZZ_MACHINES)),
        scale=FUZZ_SCALE,
    )


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(cells())
def test_fuzzed_cells_match_reference(spec):
    """Every fuzzed cell also passes the independent schedule verifier
    (``compile_loop(verify=True)``)."""
    replay = (
        f"replay the cell with: repro run {spec.benchmark} "
        f"-v {spec.variant} --machine {spec.machine} --scale {spec.scale:g}"
    )
    verified = functools.partial(compile_loop, verify=True)
    mismatches = []
    with mock.patch.object(stages, "run_schedule",
                           differential(mismatches)), \
            mock.patch.object(core, "compile_loop", verified), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            core.execute_spec(spec, artifacts=MemoryArtifactStore())
        except CheckError as err:
            pytest.fail(f"{err}\n{replay}")
    assert not mismatches, (
        f"fast scheduler != reference (fast, reference): "
        f"{mismatches[0][1:]}; {replay}"
    )


# ----------------------------------------------------------------------
# Recurrence bounds on generated graphs
# ----------------------------------------------------------------------
GRAPH_OPCODES = (Opcode.IALU, Opcode.FMUL, Opcode.FDIV, Opcode.LOAD,
                 Opcode.STORE)


@st.composite
def recurrence_cases(draw):
    """``(opcodes, edges, load latencies, floor, limit)``: up to ten ops,
    one to three drawn cycles of one to four ops each and up to eight
    more edges between random ops, so a graph splits into several
    strongly connected components.  Edges are typed, of distance 0 to 2:
    a cycle of distance-0 edges is positive through RF/MF/MO edges and
    of weight 0 through MA/SYNC ones, and a one-op cycle is a self loop
    of distance >= 1."""
    opcodes = draw(st.lists(st.sampled_from(GRAPH_OPCODES), min_size=1,
                            max_size=10))
    node = st.integers(0, len(opcodes) - 1)
    kind = st.sampled_from(tuple(DepKind))
    distance = st.integers(0, 2)
    edges = []
    for ring in draw(st.lists(st.lists(node, min_size=1, max_size=4),
                              min_size=1, max_size=3)):
        for src, dst in zip(ring, ring[1:] + ring[:1]):
            edges.append((src, dst, draw(kind), draw(distance)))
    edges += draw(st.lists(st.tuples(node, node, kind, distance),
                           max_size=8))
    latencies = draw(st.lists(st.integers(1, 60), min_size=1, max_size=3))
    return (opcodes, edges, latencies, draw(st.integers(1, 40)),
            draw(st.integers(1, 40)))


def recurrence_graph(opcodes, edges, latencies):
    """The graph of a :func:`recurrence_cases` draw and its loads' assumed
    latencies (``latencies`` cycled over the loads)."""
    ddg = Ddg()
    nodes = [
        ddg.add_instruction(
            opcode, dest=None if opcode is Opcode.STORE else f"r{k}",
            mem=MemRef("A") if opcode in (Opcode.LOAD, Opcode.STORE)
            else None,
        )
        for k, opcode in enumerate(opcodes)
    ]
    for src, dst, kind, distance in edges:
        ddg.add_edge(nodes[src].iid, nodes[dst].iid, kind,
                     distance or int(src == dst))
    loads = [instr.iid for instr in nodes if instr.is_load]
    return ddg, {iid: latencies[k % len(latencies)]
                 for k, iid in enumerate(loads)}


def outcome(fn, *args, **kwargs):
    """``fn``'s value, or the type of the SchedulingError it raises."""
    try:
        return fn(*args, **kwargs)
    except SchedulingError as exc:
        return type(exc)


IALU, FMUL, LOAD = Opcode.IALU, Opcode.FMUL, Opcode.LOAD
RF, MA = DepKind.RF, DepKind.MA


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(recurrence_cases())
# Two components: a load's self loop (RecMII 30) and an FMUL pair
# (RecMII 4), with the floor and the limit between and around them.
@example(([LOAD, FMUL, FMUL], [(0, 0, RF, 1), (1, 2, RF, 1),
                                (2, 1, RF, 1)], [30], 10, 40))
@example(([LOAD, FMUL, FMUL], [(0, 0, RF, 1), (1, 2, RF, 1),
                                (2, 1, RF, 1)], [30], 35, 29))
@example(([LOAD, FMUL, FMUL], [(0, 0, RF, 1), (1, 2, RF, 1),
                                (2, 1, RF, 1)], [30], 2, 30))
# A zero-distance positive cycle beside a carried one.
@example(([IALU, IALU, FMUL], [(0, 1, RF, 0), (1, 0, RF, 0),
                                (2, 2, RF, 2)], [1], 1, 40))
# A zero-distance cycle of weight 0: no bound.
@example(([IALU, LOAD], [(0, 1, MA, 0), (1, 0, MA, 0), (1, 1, RF, 3)],
          [7], 1, 40))
def test_recurrence_bounds_match_reference(case):
    """``LoopBounds`` (edge weights and ``recurrence_floor``), ``rec_mii``
    and ``minimum_ii`` equal the reference's whole-graph binary search,
    error type included (:func:`as_fast`)."""
    opcodes, edges, latencies, floor, limit = case
    ddg, assumed = recurrence_graph(opcodes, edges, latencies)
    machine = named_config("baseline")
    rec = as_fast(outcome(reference.rec_mii, ddg, machine, assumed,
                          max_ii=limit))
    assert outcome(mii.rec_mii, ddg, machine, assumed, max_ii=limit) == rec
    loop = mii.LoopBounds(ddg, machine)
    weights = loop.weights(assumed)
    assert weights == reference._edge_weights(ddg, machine, assumed)
    want = rec if rec is RecurrenceError else max(floor, rec)
    assert outcome(loop.recurrence_floor, weights, floor, limit) == want
    assert outcome(mii.minimum_ii, ddg, machine, assumed) == as_fast(
        outcome(reference.minimum_ii, ddg, machine, assumed))


# ----------------------------------------------------------------------
# The reservation table alone
# ----------------------------------------------------------------------
TABLE_OPCODES = (Opcode.IALU, Opcode.FMUL, Opcode.LOAD, Opcode.COPY,
                 Opcode.COPY, Opcode.COPY)


def table_ops():
    ddg = Ddg()
    return [
        ddg.add_instruction(
            opcode, dest=f"r{k}",
            mem=MemRef("A") if opcode is Opcode.LOAD else None,
        )
        for k, opcode in enumerate(TABLE_OPCODES * 2)
    ]


@st.composite
def table_runs(draw):
    """A machine with several register buses, an II, and a sequence of
    ``(op, cluster, time)`` actions."""
    machine = MachineConfig(
        name="table-fuzz",
        num_clusters=2,
        fu_per_cluster={
            FuKind.INT: draw(st.integers(1, 2)),
            FuKind.FP: draw(st.integers(0, 1)),
            FuKind.MEM: 1,
        },
        register_buses=BusConfig(draw(st.integers(1, 3)),
                                 draw(st.integers(1, 5))),
    )
    ii = draw(st.integers(1, 7))
    actions = draw(st.lists(
        st.tuples(st.integers(0, len(TABLE_OPCODES) * 2 - 1),
                  st.integers(0, 1), st.integers(-3, 20)),
        max_size=40,
    ))
    return machine, ii, actions


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(table_runs())
def test_fuzzed_table_matches_reference(run):
    """Each action removes the op if it is placed; otherwise it places
    the op, ejecting ``conflicting_ops`` first when it does not fit (the
    scheduler's forced placement).  After every action, ``fits`` and
    ``conflicting_ops`` agree for every op, cluster and slot, and
    ``first_fit`` from a few starts is the first time the reference
    ``fits``.  The fast table takes the row :func:`table_row` resolves
    from the op and its cluster, as the scheduler passes it; the
    reference takes the op and the cluster."""
    machine, ii, actions = run
    ops = table_ops()
    fast, ref = ReservationTable(machine, ii), reference.ReservationTable(
        machine, ii)
    placed = {}

    def both(method, instr, cluster, time):
        want = getattr(ref, method)(instr, cluster, time)
        got = getattr(fast, method)(table_row(instr, cluster), time)
        assert got == want, (method, instr, cluster, time)
        return want

    def remove(iid):
        cluster, time = placed.pop(iid)
        fast.remove(iid, table_row(ops[iid], cluster), time)
        ref.remove(ops[iid], cluster, time)

    for index, cluster, time in actions:
        instr = ops[index]
        if instr.iid in placed:
            remove(instr.iid)
        else:
            if not both("fits", instr, cluster, time):
                for victim in both("conflicting_ops", instr, cluster, time):
                    remove(victim)
            if both("fits", instr, cluster, time):
                fast.place(instr.iid, table_row(instr, cluster), time)
                ref.place(instr, cluster, time)
                placed[instr.iid] = (cluster, time)
            else:
                with pytest.raises(SchedulingError):
                    fast.place(instr.iid, table_row(instr, cluster), time)
                with pytest.raises(SchedulingError):
                    ref.place(instr, cluster, time)
        for probe in ops:
            for c in range(machine.num_clusters):
                for t in range(ii):
                    both("fits", probe, c, t)
                    both("conflicting_ops", probe, c, t)
                row = table_row(probe, c)
                for start in (-1, 0, ii - 1, ii + 2):
                    first = next((t for t in range(start, start + ii)
                                  if ref.fits(probe, c, t)), None)
                    assert fast.first_fit(row, start) == first, (
                        "first_fit", probe, c, start)
