"""Conformance bridge: the simulator vs. the protocol model, step by step.

The model checker (:mod:`repro.check.explorer`) proves properties of the
*model*; this module pins the model to the *simulator* so those proofs
transfer.  It drives a real :class:`~repro.sim.memory.MemorySystem`,
routed by one registered memory model, through small programs, captures
the structured trace events the memory system emits, maps every event
onto one model transition, and replays that transition sequence through
:class:`~repro.check.model.ProtocolModel` routed by the same memory
model — both sides take their homes and owners from that model's
``placement`` on :func:`~repro.check.model.conformance_machine` — asserting
at every step that

* the transition the simulator took is *enabled* in the model (the
  simulator never does anything the model cannot);
* the message/action the simulator consumed is exactly the one at the
  model's corresponding FIFO head (per-source in-order delivery holds);
* observation and store-application payloads agree version for version;
* the drained final states agree — subblock versions, residency, and
  completion of every access.

A battery of programs and issue schedules (:func:`run_conformance`)
covers every core transition of the model; the run fails loudly if any
transition was never exercised, so the correspondence cannot silently
rot as either side evolves.

Version encoding: the simulator stamps stores with ``(iteration, seq)``
pairs; the driver runs a single iteration and stamps store ``op_i`` with
``(0, i + 1)``, so simulator version ``(0, v)`` is model version ``v``
and ``None`` (initial contents) is model version ``0``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import CheckError
from repro.check.model import (
    ABSENT,
    COMPLETE,
    ModelOp,
    ProtocolModel,
    State,
    Transition,
    conformance_machine,
    enumerate_programs,
)
from repro.sim.memory import MemorySystem
from repro.sim.stats import SimStats

#: simulator trace kinds that open a new model transition (everything
#: else — observe/apply/fill-time send_response — is that transition's
#: payload).
_DRIVER_KINDS = frozenset({
    "local", "remote_issue", "home_request", "deliver_response", "fill",
    "forward_issue", "forward", "owner_request",
})

_LOCAL_NAMES = {
    "hit": "issue_local_hit",
    "miss": "issue_local_miss",
    "combine": "issue_local_combine",
}
_REQUEST_NAMES = {
    "hit": "deliver_request_hit",
    "miss": "deliver_request_miss",
    "combine": "deliver_request_combine",
}
_FORWARD_NAMES = {
    "hit": "deliver_forward_hit",
    "miss": "deliver_forward_miss",
    "combine": "deliver_forward_combine",
}


def _norm(version: Optional[Tuple[int, int]]) -> int:
    """Simulator version -> model version (see the module docstring)."""
    return 0 if version is None else version[1]


@dataclass
class ConformanceReport:
    """Aggregate result of one :func:`run_conformance` battery."""

    num_clusters: int
    num_subblocks: int
    #: the check model's core transition names (its coverage target)
    core: Tuple[str, ...]
    model: str = "snooping"
    runs: int = 0
    programs: int = 0
    transitions: int = 0
    elapsed_seconds: float = 0.0
    coverage: Dict[str, int] = field(default_factory=dict)

    def missing_transitions(self) -> List[str]:
        return [t for t in self.core if not self.coverage.get(t)]

    @property
    def ok(self) -> bool:
        return not self.missing_transitions()

    def summary(self) -> str:
        lines = [
            f"configuration      : {self.num_clusters} clusters x "
            f"{self.num_subblocks} subblocks, model={self.model}",
            f"programs driven    : {self.programs} ({self.runs} runs)",
            f"transitions agreed : {self.transitions}",
            "transition coverage:",
        ]
        for name in self.core:
            lines.append(f"  {name:24s} {self.coverage.get(name, 0)}")
        missing = self.missing_transitions()
        verdict = (
            "every core transition exercised, no disagreements"
            if not missing
            else "NEVER exercised: " + ", ".join(missing)
        )
        lines.append(f"elapsed            : {self.elapsed_seconds:.2f}s")
        lines.append(f"verdict            : {verdict}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
class ConformanceBridge:
    """Replays one simulator trace through the model."""

    def __init__(self, model: ProtocolModel) -> None:
        self.model = model
        self.state: State = model.initial_state()
        self.coverage: Dict[str, int] = {}
        self.transitions = 0
        self.steps: List[str] = []  # replayed transitions, for diagnostics

    # ------------------------------------------------------------------
    def _fail(self, problem: str) -> None:
        lines = [
            f"conformance failure: {problem}",
            "program : " + "; ".join(op.label for op in self.model.program),
            "model   : " + self.model.describe_state(self.state),
            f"replayed: {len(self.steps)} transitions",
        ]
        for step in self.steps[-6:]:
            lines.append(f"  ... {step}")
        raise CheckError("\n".join(lines))

    def _decode_op(self, kind: str, ref) -> ModelOp:
        """Map a simulator event's op reference (a load's iid, a store's
        version stamp) back to the program op."""
        index = ref if kind == "load" else ref[1] - 1
        if not 0 <= index < len(self.model.program):
            self._fail(f"simulator referenced unknown op {ref!r}")
        op = self.model.program[index]
        if op.kind != kind:
            self._fail(f"simulator treated {op.label} as a {kind}")
        return op

    # ------------------------------------------------------------------
    def _step(
        self, name: str, args: Tuple, payload: Sequence[tuple]
    ) -> None:
        """Fire one model transition and compare its events with the
        simulator payload that accompanied the step."""
        transition = Transition(name, args)
        if transition not in self.model.enabled(self.state):
            self._fail(
                f"simulator step {name}{args} is not enabled in the model"
            )
        self.state, events = self.model.apply(self.state, transition)
        self.transitions += 1
        self.coverage[name] = self.coverage.get(name, 0) + 1
        self.steps.append(f"{name}{args}")

        model_seq = [
            ("observe", e[1], e[2]) if e[0] == "observe"
            else ("apply", e[1], e[2], e[4])
            for e in events
        ]
        sim_seq = []
        for event in payload:
            if event[0] == "observe":
                _tag, iid, _iteration, observed = event
                sim_seq.append(("observe", iid, _norm(observed)))
            elif event[0] == "apply":
                _tag, block, _home, _addr, version, inverted = event
                sim_seq.append(("apply", block, _norm(version), inverted))
            # fill-time ("send_response", ..., deferred=False) events are
            # part of the fill transition in the model (the response goes
            # straight onto the bus); nothing to compare.
        if model_seq != sim_seq:
            self._fail(
                f"payload mismatch at {name}{args}: "
                f"model {model_seq} vs simulator {sim_seq}"
            )

    # ------------------------------------------------------------------
    def replay(self, events: Sequence[tuple]) -> None:
        """Map the whole simulator trace onto model transitions."""
        cursor = 0
        total = len(events)
        while cursor < total:
            event = events[cursor]
            kind = event[0]
            is_driver = kind in _DRIVER_KINDS or (
                kind == "send_response" and event[-1]  # deferred pop
            )
            if not is_driver:
                self._fail(f"orphan payload event {event!r}")
            cursor += 1
            payload_start = cursor
            while cursor < total:
                nxt = events[cursor]
                if nxt[0] in _DRIVER_KINDS or (
                    nxt[0] == "send_response" and nxt[-1]
                ):
                    break
                cursor += 1
            payload = events[payload_start:cursor]
            self._dispatch(event, payload)

    def _dispatch(self, event: tuple, payload: Sequence[tuple]) -> None:
        kind = event[0]
        if kind == "local":
            _tag, cluster, block, opkind, ref, disposition = event
            op = self._decode_op(opkind, ref)
            if op.cluster != cluster or op.subblock != block:
                self._fail(f"{op.label} issued as {event!r}")
            self._step(_LOCAL_NAMES[disposition], (op.index,), payload)
        elif kind == "remote_issue":
            _tag, cluster, home, block, opkind, ref = event
            op = self._decode_op(opkind, ref)
            if (
                op.cluster != cluster
                or op.subblock != block
                or self.model.homes[block] != home
            ):
                self._fail(f"{op.label} issued as {event!r}")
            self._step("issue_remote", (op.index,), payload)
        elif kind == "home_request":
            _tag, home, src, block, opkind, ref, disposition = event
            op = self._decode_op(opkind, ref)
            expected_head = (
                ("req_ld", block, (op.index,))
                if op.is_load
                else ("req_st", block, op.index)
            )
            queue = self.state.queues[src]
            if not queue or queue[0] != expected_head:
                self._fail(
                    f"home c{home} served {expected_head} from c{src} but "
                    f"the model FIFO head is "
                    f"{queue[0] if queue else 'empty'}"
                )
            self._step(_REQUEST_NAMES[disposition], (src, 0), payload)
        elif kind == "forward_issue":
            _tag, cluster, block, opkind, ref = event
            op = self._decode_op(opkind, ref)
            if (
                op.cluster != cluster
                or op.subblock != block
                or self.model.homes[block] != cluster
                or self.model.owners[block] == cluster
            ):
                self._fail(f"{op.label} issued as {event!r}")
            self._step("issue_forward", (op.index,), payload)
        elif kind == "forward":
            _tag, home, owner, src, block, opkind, ref = event
            op = self._decode_op(opkind, ref)
            if (
                self.model.homes[block] != home
                or self.model.owners[block] != owner
            ):
                self._fail(f"misrouted forward {event!r}")
            expected_head = (
                ("req_ld", block, (op.index,))
                if op.is_load
                else ("req_st", block, op.index)
            )
            queue = self.state.queues[src]
            if not queue or queue[0] != expected_head:
                self._fail(
                    f"home c{home} forwarded {expected_head} from c{src} "
                    f"but the model FIFO head is "
                    f"{queue[0] if queue else 'empty'}"
                )
            self._step("deliver_request_forward", (src, 0), payload)
        elif kind == "owner_request":
            _tag, owner, src, block, opkind, ref, disposition = event
            op = self._decode_op(opkind, ref)
            if self.model.owners[block] != owner:
                self._fail(f"forward served away from the owner: {event!r}")
            expected_head = (
                ("fwd_ld", block, (op.index,), src)
                if op.is_load
                else ("fwd_st", block, op.index)
            )
            # The forward sits in the FIFO of whoever sent it: the
            # requester itself (issue_forward) or the directory home
            # (deliver_request_forward).
            for source in dict.fromkeys((src, self.model.homes[block])):
                queue = self.state.queues[source]
                if queue and queue[0] == expected_head:
                    self._step(
                        _FORWARD_NAMES[disposition], (source, 0), payload
                    )
                    return
            self._fail(
                f"owner c{owner} served {expected_head} but no model FIFO "
                f"has it at its head"
            )
        elif kind == "send_response":
            _tag, home, block, iids, _deferred = event
            ready = self.state.pending[home]
            if not ready or ready[0][1] != block or ready[0][2] != iids:
                self._fail(
                    f"home c{home} sent response for sb{block} ops {iids} "
                    f"but the model ready buffer head is "
                    f"{ready[0] if ready else 'empty'}"
                )
            self._step("send_response", (home,), payload)
        elif kind == "deliver_response":
            _tag, requester, block, iids = event
            owner = self.model.owners[block]
            queue = self.state.queues[owner]
            if (
                not queue
                or queue[0][0] != "resp"
                or queue[0][1] != block
                or queue[0][2] != iids
            ):
                self._fail(
                    f"c{requester} received response for sb{block} ops "
                    f"{iids} but the model FIFO head is "
                    f"{queue[0] if queue else 'empty'}"
                )
            self._step("deliver_response", (owner,), payload)
        else:  # fill
            _tag, cluster, block = event
            if self.model.owners[block] != cluster:
                self._fail(f"fill of sb{block} landed at cluster {cluster}")
            self._step("fill_complete", (block,), payload)

    # ------------------------------------------------------------------
    def finish(self, memory: MemorySystem) -> None:
        """Compare the drained final states of simulator and model: each
        subblock at the memory model's ``conformance_address`` on the
        memory system's machine."""
        address = self.model.memory_model.conformance_address
        for op in self.model.program:
            if self.state.ops[op.index][0] != COMPLETE:
                self._fail(
                    f"{op.label} never completed in the model although the "
                    f"simulator drained"
                )
        if any(self.state.queues) or any(self.state.pending) or any(
            self.state.mshr
        ):
            self._fail(
                "model still holds in-flight work after the simulator "
                "drained"
            )
        for sb in range(self.model.num_subblocks):
            owner = self.model.owners[sb]
            addr = address(memory.machine, sb)
            # Reaching into the memory system's version book is the whole
            # point of the bridge: it is the simulator's ground truth.
            sim_version = _norm(
                memory._versions.get((sb, owner), {}).get(addr)
            )
            if sim_version != self.state.versions[sb]:
                self._fail(
                    f"final version of sb{sb} differs: simulator has "
                    f"v{sim_version}, model has v{self.state.versions[sb]}"
                )
            present = memory.modules[owner].contains(sb)
            if present != (self.state.cache[sb] != ABSENT):
                self._fail(
                    f"final residency of sb{sb} differs: simulator "
                    f"{'holds' if present else 'lacks'} it, model says "
                    f"{'present' if self.state.cache[sb] != ABSENT else 'absent'}"
                )


# ----------------------------------------------------------------------
# Driving the simulator
# ----------------------------------------------------------------------
def run_program(
    program: Tuple[ModelOp, ...],
    schedule: Sequence[int],
    num_clusters: int = 2,
    num_subblocks: Optional[int] = None,
    max_cycles: int = 10_000,
    model: str = "snooping",
    memory_factory: Callable[..., MemorySystem] = MemorySystem,
) -> ConformanceBridge:
    """Drive one program through the simulator at the given issue cycles
    and replay its trace through the model.

    ``schedule[i]`` is the cycle op ``i`` issues; within one (cluster,
    subblock) chain cycles must be non-decreasing in program order (the
    in-order memory unit the model's issue guard encodes).

    ``model`` names the registered memory model that routes both the
    driven memory system, on ``conformance_machine(num_clusters)``, and
    the check model that replays it.  ``memory_factory`` builds the
    memory system, called like :class:`~repro.sim.memory.MemorySystem`
    (by default that class itself, routed by ``model``); the tests pass
    subclasses with seeded bugs to show the bridge rejects them.
    """
    if num_subblocks is None:
        num_subblocks = max(op.subblock for op in program) + 1
    if len(schedule) != len(program):
        raise CheckError("schedule and program lengths differ")
    check_model = ProtocolModel(
        num_clusters, num_subblocks, program, model=model
    )
    machine = conformance_machine(num_clusters)
    address = check_model.memory_model.conformance_address

    events: List[tuple] = []
    completed: set = set()
    memory = memory_factory(
        machine, SimStats(), trace=events.append, model=model
    )
    by_cycle: Dict[int, List[ModelOp]] = defaultdict(list)
    for op, cycle in zip(program, schedule):
        by_cycle[cycle].append(op)
    last_issue = max(schedule)

    cycle = 0
    while True:
        memory.tick_begin(cycle)
        for op in by_cycle.get(cycle, ()):
            addr = address(machine, op.subblock)
            if op.is_load:
                memory.load(
                    op.cluster, addr, machine.interleave_bytes,
                    op.index, 0,
                    lambda _c, index=op.index: completed.add(index),
                    cycle,
                )
            else:
                memory.store(
                    op.cluster, addr, machine.interleave_bytes,
                    op.index, 0, (0, op.index + 1), False, cycle,
                )
        memory.tick_end(cycle)
        if cycle >= last_issue and memory.quiescent():
            break
        cycle += 1
        if cycle > max_cycles:
            raise CheckError(
                f"simulator did not drain within {max_cycles} cycles for "
                "program " + "; ".join(op.label for op in program)
            )

    loads = {op.index for op in program if op.is_load}
    if completed != loads:
        raise CheckError(
            f"loads {sorted(loads - completed)} never completed in the "
            "simulator"
        )

    bridge = ConformanceBridge(check_model)
    bridge.replay(events)
    bridge.finish(memory)
    return bridge


def issue_schedules(length: int) -> List[Tuple[int, ...]]:
    """The issue timings each program is driven under.  Together they hit
    every disposition: back-to-back issue (miss + combine flows), small
    stagger (requests racing fills) and wide stagger (everything resident
    by the next access — the hit flows)."""
    return [
        (0,) * length,
        tuple(range(length)),
        tuple(3 * i for i in range(length)),
        tuple(25 * i for i in range(length)),
    ]


def run_conformance(
    num_clusters: int = 2,
    num_subblocks: int = 2,
    op_counts: Iterable[int] = (2, 3),
    programs: Optional[Iterable[Tuple[ModelOp, ...]]] = None,
    schedules: Optional[List[Tuple[int, ...]]] = None,
    model: str = "snooping",
    memory_factory: Callable[..., MemorySystem] = MemorySystem,
) -> ConformanceReport:
    """Run the full battery; raises :class:`~repro.errors.CheckError` on
    the first simulator/model disagreement, returns the coverage report
    otherwise (``report.ok`` asserts every core transition fired)."""
    report = ConformanceReport(
        num_clusters=num_clusters,
        num_subblocks=num_subblocks,
        core=ProtocolModel(
            num_clusters, num_subblocks, (), model=model
        ).core_transitions(),
        model=model,
    )
    started = time.perf_counter()
    if programs is None:
        programs = [
            program
            for count in op_counts
            for program in enumerate_programs(
                num_clusters, num_subblocks, count
            )
        ]
    for program in programs:
        report.programs += 1
        for schedule in (schedules or issue_schedules(len(program))):
            bridge = run_program(
                program, schedule, num_clusters=num_clusters,
                num_subblocks=num_subblocks, model=model,
                memory_factory=memory_factory,
            )
            report.runs += 1
            report.transitions += bridge.transitions
            for name, count in bridge.coverage.items():
                report.coverage[name] = report.coverage.get(name, 0) + count
    report.elapsed_seconds = time.perf_counter() - started
    return report
