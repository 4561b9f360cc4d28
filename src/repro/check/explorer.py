"""Exhaustive BFS exploration of the protocol model's state space.

For every program over a small configuration (default: 2 clusters,
2 subblocks, 3 ops), the explorer enumerates the *complete* reachable
state space of :class:`~repro.check.model.ProtocolModel`, routed by one
registered memory model, breadth-first and checks every invariant of
:mod:`repro.check.invariants` on every state, edge and event.  The
configurations are the machines the simulator can build: 1, 2, 4 or 8
clusters at the baseline geometry
(:func:`~repro.check.model.conformance_machine`).  BFS order makes the
first violation found a minimal-depth one, and parent pointers
reconstruct the full transition trace leading to it — the
counterexample format ``docs/checking.md`` explains how to read.

State spaces here are tiny by model-checking standards (tens of
thousands of states across all programs) but exhaustive where the
simulator tests are one interleaving each: every bus-delivery order,
every fill timing, every issue interleaving consistent with per-chain
program order is covered.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.check.invariants import (
    edge_violations,
    event_violations,
    measure,
    state_violations,
    terminal_violations,
)
from repro.check.model import (
    ModelOp,
    ProtocolModel,
    State,
    Transition,
    enumerate_programs,
    is_disciplined,
)
from repro.sim.models import named_model


@dataclass
class Counterexample:
    """A minimal trace from the initial state to an invariant violation."""

    program: Tuple[ModelOp, ...]
    mutation: Optional[str]
    invariant: str  # e.g. "no_stale_read"
    violation: str  # full violation message
    trace: List[str]  # rendered transitions, initial state first
    final_state: str

    def format(self) -> str:
        lines = [
            f"invariant violated : {self.invariant}",
            f"  {self.violation}",
            "program            : "
            + "; ".join(op.label for op in self.program),
        ]
        if self.mutation:
            lines.append(f"mutation           : {self.mutation}")
        lines.append(f"trace ({len(self.trace)} steps):")
        for i, step in enumerate(self.trace, 1):
            lines.append(f"  {i:2d}. {step}")
        lines.append(f"final state        : {self.final_state}")
        return "\n".join(lines)


@dataclass
class CheckReport:
    """Aggregate result of one :func:`check_protocol` run."""

    num_clusters: int
    num_subblocks: int
    op_count: int
    mutation: Optional[str]
    model: str = "snooping"
    programs: int = 0
    disciplined_programs: int = 0
    states: int = 0
    transitions: int = 0
    races: int = 0  # stale/future observations in free (undisciplined) programs
    elapsed_seconds: float = 0.0
    truncated: bool = False
    counterexamples: List[Counterexample] = field(default_factory=list)
    transition_coverage: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def summary(self) -> str:
        verdict = (
            "no invariant violations"
            if self.ok
            else f"{len(self.counterexamples)} invariant violation(s)"
        )
        lines = [
            f"configuration      : {self.num_clusters} clusters x "
            f"{self.num_subblocks} subblocks x {self.op_count} ops"
            + (f", model={self.model}" if self.model != "snooping" else "")
            + (f", mutation={self.mutation}" if self.mutation else ""),
            f"programs explored  : {self.programs} "
            f"({self.disciplined_programs} disciplined)"
            + (" [truncated by --max-states]" if self.truncated else ""),
            f"reachable states   : {self.states}",
            f"transitions fired  : {self.transitions}",
            f"free-mode races    : {self.races} "
            "(stale/future observations under free scheduling; expected)",
            f"elapsed            : {self.elapsed_seconds:.2f}s",
            f"verdict            : {verdict}",
        ]
        return "\n".join(lines)


# ----------------------------------------------------------------------
def _reconstruct(
    model: ProtocolModel,
    parents: Dict[State, Optional[Tuple[State, Transition]]],
    state: State,
    extra: Optional[Transition],
    final_state: State,
    violation: str,
) -> Counterexample:
    steps: List[str] = []
    cursor: Optional[State] = state
    while True:
        link = parents[cursor]
        if link is None:
            break
        cursor, transition = link
        steps.append(
            f"{transition.name} "
            f"[{model.describe_transition(transition)}]"
        )
    steps.reverse()
    if extra is not None:
        steps.append(
            f"{extra.name} [{model.describe_transition(extra)}]"
        )
    return Counterexample(
        program=model.program,
        mutation=model.mutation,
        invariant=violation.split(":", 1)[0],
        violation=violation,
        trace=steps,
        final_state=model.describe_state(final_state),
    )


def explore_program(
    model: ProtocolModel,
    max_states: Optional[int] = None,
    coverage: Optional[Dict[str, int]] = None,
) -> Tuple[int, int, int, bool, Optional[Counterexample]]:
    """Exhaustively explore one program.

    Returns ``(states, transitions, races, truncated, counterexample)``;
    exploration stops at the first violation (BFS order keeps it
    minimal) or when ``max_states`` distinct states were visited.
    """
    disciplined = is_disciplined(model.program)
    start = model.initial_state()
    parents: Dict[State, Optional[Tuple[State, Transition]]] = {start: None}
    frontier = deque([start])
    transitions = 0
    races = 0
    truncated = False

    violations = state_violations(model, start)
    if violations:
        return 1, 0, 0, False, _reconstruct(
            model, parents, start, None, start, violations[0]
        )

    while frontier:
        state = frontier.popleft()
        enabled = model.enabled(state)
        if not enabled:
            violations = terminal_violations(model, state)
            if violations:
                return (
                    len(parents), transitions, races, truncated,
                    _reconstruct(model, parents, state, None, state,
                                 violations[0]),
                )
            continue
        measure_before = measure(state)
        for transition in enabled:
            successor, events = model.apply(state, transition)
            transitions += 1
            if coverage is not None:
                coverage[transition.name] = (
                    coverage.get(transition.name, 0) + 1
                )
            violations, new_races = event_violations(
                model, events, disciplined
            )
            races += new_races
            if not violations:
                violations = edge_violations(
                    transition.name, measure_before, measure(successor)
                )
            if not violations and successor not in parents:
                violations = state_violations(model, successor)
            if violations:
                return (
                    len(parents), transitions, races, truncated,
                    _reconstruct(model, parents, state, transition,
                                 successor, violations[0]),
                )
            if successor not in parents:
                parents[successor] = (state, transition)
                if max_states is not None and len(parents) >= max_states:
                    truncated = True
                    return len(parents), transitions, races, truncated, None
                frontier.append(successor)

    return len(parents), transitions, races, truncated, None


# ----------------------------------------------------------------------
def check_protocol(
    num_clusters: int = 2,
    num_subblocks: int = 2,
    op_count: int = 3,
    mutation: Optional[str] = None,
    max_states: Optional[int] = None,
    stop_on_violation: bool = True,
    disciplined_only: bool = False,
    programs: Optional[Iterable[Tuple[ModelOp, ...]]] = None,
    model: str = "snooping",
) -> CheckReport:
    """Exhaustively check every program of the configuration.

    ``max_states`` bounds the *total* states across all programs (the CI
    smoke budget); ``disciplined_only`` restricts the sweep to programs
    the coherence solutions actually produce (faster mutation hunting);
    ``programs`` substitutes an explicit program list for the full
    enumeration; ``model`` names the registered memory model whose
    placement routes the check model.
    """
    named_model(model)  # an unknown name fails even with no program
    report = CheckReport(
        num_clusters=num_clusters,
        num_subblocks=num_subblocks,
        op_count=op_count,
        mutation=mutation,
        model=model,
    )
    started = time.perf_counter()
    if programs is None:
        programs = enumerate_programs(num_clusters, num_subblocks, op_count)
    for program in programs:
        disciplined = is_disciplined(program)
        if disciplined_only and not disciplined:
            continue
        budget: Optional[int] = None
        if max_states is not None:
            budget = max_states - report.states
            if budget <= 0:
                report.truncated = True
                break
        check_model = ProtocolModel(
            num_clusters, num_subblocks, program, mutation=mutation,
            model=model,
        )
        states, transitions, races, truncated, counterexample = (
            explore_program(check_model, budget, report.transition_coverage)
        )
        report.programs += 1
        report.disciplined_programs += int(disciplined)
        report.states += states
        report.transitions += transitions
        report.races += races
        report.truncated = report.truncated or truncated
        if counterexample is not None:
            report.counterexamples.append(counterexample)
            if stop_on_violation:
                break
    report.elapsed_seconds = time.perf_counter() - started
    return report
