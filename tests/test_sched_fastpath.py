"""The modulo scheduler vs the straightforward reference, schedule for
schedule.

:mod:`repro.sched` searches RecMII over cyclic components only, bounds
the latency ladder to the base II, picks ops from a heap and keeps its
reservation table in int-keyed cells and per-bus bitmasks.
``sched_reference`` is the scheduler before those changes.  The two must
agree on ``rec_mii`` and ``minimum_ii`` at every ladder level, and on the
whole :class:`~repro.sched.schedule.Schedule` the latency policy returns
(II, each op's cluster and time in placement order, assumed latencies):

* over a fixed cross — one scenario per family × the Table-2 baseline,
  ``nobal+mem`` and a slow-memory machine whose pessimistic RecMII
  reaches the hundreds × the six variants;
* over a derandomized hypothesis search of ``scn-`` knobs × ``gen-``
  machines × variants through the ``repro run`` pipeline, each cell
  also checked by the independent schedule verifier; a failure names
  the ``repro run`` command that replays the cell;
* and, for the reservation table alone, over random
  ``place``/``remove``/``fits``/``conflicting_ops`` sequences on
  machines with several register buses.
"""

from __future__ import annotations

import functools
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alias import MemRef
from repro.api import core
from repro.api.artifacts import MemoryArtifactStore
from repro.api.spec import ALL_VARIANTS, RunSpec
from repro.arch.config import BusConfig, FuKind, MachineConfig, named_config
from repro.errors import CheckError, SchedulingError
from repro.ir import Ddg, Opcode
from repro.scenarios import FAMILIES, ScenarioParams, build_scenario_ddg
from repro.scenarios.machines import machine_grid
from repro.sched import CoherenceMode, Heuristic, compile_loop, mii, stages
from repro.sched.latency import schedule_with_latency_policy
from repro.sched.schedule import ReservationTable
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


def differential(mismatches, check_bounds=False):
    """A ``run_schedule`` stand-in that also runs the reference and
    records every disagreement."""

    def run_schedule(work, machine, assignment):
        fast = schedule_with_latency_policy(work, machine, assignment)
        ref = reference.schedule_with_latency_policy(work, machine,
                                                     assignment)
        if observation(fast) != observation(ref):
            mismatches.append(("schedule", observation(fast),
                               observation(ref)))
        if check_bounds:
            got = bounds(mii, work, machine)
            want = bounds(reference, work, machine)
            if got != want:
                mismatches.append(("bounds", got, want))
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
    ``conflicting_ops`` agree for every op, cluster and slot."""
    machine, ii, actions = run
    ops = table_ops()
    fast, ref = ReservationTable(machine, ii), reference.ReservationTable(
        machine, ii)
    placed = {}

    def both(method, *args):
        want = getattr(ref, method)(*args)
        assert getattr(fast, method)(*args) == want, (method, args)
        return want

    def remove(iid):
        cluster, time = placed.pop(iid)
        fast.remove(ops[iid], cluster, time)
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
                fast.place(instr, cluster, time)
                ref.place(instr, cluster, time)
                placed[instr.iid] = (cluster, time)
            else:
                for table in (fast, ref):
                    with pytest.raises(SchedulingError):
                        table.place(instr, cluster, time)
        for probe in ops:
            for c in range(machine.num_clusters):
                for t in range(ii):
                    both("fits", probe, c, t)
                    both("conflicting_ops", probe, c, t)
