"""Static checking: the protocol model checker and its conformance bridge.

``repro.check`` is the correctness backbone of the memory system: instead
of *sampling* behaviours the way the simulator-based tests do, it

* models the coherence protocol as a **guarded-action transition system**
  (:mod:`repro.check.model`) small enough to enumerate exhaustively: one
  model and one transition table for every registered memory model,
  routed by that model's ``placement`` exactly as the simulator is,
* **BFS-explores** every reachable state of small configurations and
  checks safety/progress invariants, producing minimal counterexample
  traces on violation (:mod:`repro.check.explorer`,
  :mod:`repro.check.invariants`),
* keeps the model honest with a **conformance bridge** that drives the
  live :class:`~repro.sim.memory.MemorySystem` under each registered
  memory model and replays its event trace through the protocol model
  routed by the same memory model, transition by transition
  (:mod:`repro.check.conformance`).

The schedule lint lives with the compiler it checks
(:mod:`repro.sched.lint`), since every compile runs it; this package
re-exports :class:`LintFinding` and :func:`lint_compilation` for
callers that lint a result themselves.

Seeded protocol mutations (including a re-injection of the stale-read
bug fixed in an early revision) live in :mod:`repro.check.mutations` and
prove, under every memory model, that the checker can actually find the
class of bug it exists for.

See ``docs/checking.md`` for the model, the invariants and how to read a
counterexample trace.
"""

from repro.check.explorer import CheckReport, Counterexample, check_protocol
from repro.check.model import ModelOp, ProtocolModel, enumerate_programs
from repro.check.mutations import MUTATIONS
from repro.sched.lint import LintFinding, lint_compilation

__all__ = [
    "CheckReport",
    "Counterexample",
    "LintFinding",
    "MUTATIONS",
    "ModelOp",
    "ProtocolModel",
    "check_protocol",
    "enumerate_programs",
    "lint_compilation",
]
