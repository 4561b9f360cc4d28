"""Invariants checked over every reachable state, edge and event.

Four families, matching the claims the paper's coherence solutions make:

* **safety of observations** (``no_stale_read`` / ``no_future_read`` /
  ``store_order``): in a *disciplined* program — every aliasing pair on
  one cluster, i.e. what MDC chains and DDGT replication guarantee — a
  load observes exactly the version of the last program-order store to
  its subblock, and stores never apply out of order.  Undisciplined
  (free-scheduling) programs are exempt: racing is their documented
  behaviour, and the explorer counts those races separately as evidence
  the model can represent them.

* **bookkeeping soundness** (``single_owner`` / ``single_carrier``): a
  subblock is either resident at its home or being filled, never both;
  every in-flight access is carried by exactly one protocol artifact
  (request, MSHR action, ready response or response message), and
  completed/unissued accesses by none.

* **progress** (``deadlock``): a state with no enabled transition must
  be fully quiescent — all ops complete, no queued messages, no open
  MSHR entries, no waiting responses.

* **watchdog consistency** (``watchdog_progress``): the *drain measure*
  :func:`measure` strictly decreases on every non-issue transition and
  grows by at most :data:`MAX_ISSUE_DELTA` per issue.  That gives a
  lexicographic ranking ((unissued ops, measure)) that decreases on
  every transition, so no infinite run exists once issue stops: the
  protocol is livelock-free and the simulator's post-issue stall
  watchdog (``repro.sim.executor.STALL_WATCHDOG``) can only ever fire
  on a genuine bug, never on a slow legal drain.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.check.model import (
    ABSENT,
    COMPLETE,
    INFLIGHT,
    Event,
    ProtocolModel,
    State,
)

#: Message kinds carrying a tuple of load ops at position 2 (``fwd_*``
#: are the forwards a home sends to an owner elsewhere; see
#: :mod:`repro.check.model`).
PER_OP_KINDS = frozenset({"req_ld", "fwd_ld"})
#: Message kinds carrying a single store op index at position 2.
FLAT_KINDS = frozenset({"req_st", "fwd_st"})

#: Drain-measure weights.  Chosen so that every non-issue transition is
#: strictly decreasing: each protocol step turns an artifact into
#: strictly lighter ones (e.g. serving a read request, weight 8/op,
#: leaves a ready response, weight 4, which becomes a response message,
#: weight 2, which vanishes at delivery).  The forward family inserts
#: one more rung per message kind — a request forwarded to the owner
#: becomes a ``fwd_*`` message, one lighter per carried op than the
#: request it came from, and a forwarded load that opens an MSHR entry turns
#: ``fwd_ld`` (7/op) into respond actions (4/op) plus one fill (2), a
#: strict decrease already at a single op.
W_REQ_LD = 8      # per load carried by a read request message
W_FWD_LD = 7      # per load carried by a forwarded read
W_REQ_ST = 6      # a store request message
W_FWD_ST = 5      # a forwarded store message
W_RESP = 2        # a response message (any op count)
W_READY = 4       # a ready (not yet sent) probe-hit response
W_RESPOND = 4     # a deferred "respond" MSHR action
W_LOCAL = 2       # a deferred local load/store MSHR action
W_FILL = 2        # an in-flight next-level fill (MSHR entry open)

#: Largest measure increase any single issue transition can cause
#: (a remote load request).
MAX_ISSUE_DELTA = W_REQ_LD

_MESSAGE_WEIGHTS = {"req_ld": W_REQ_LD, "fwd_ld": W_FWD_LD,
                    "req_st": W_REQ_ST, "fwd_st": W_FWD_ST}


def measure(state: State) -> int:
    """Total weight of in-flight protocol work (the drain measure)."""
    total = 0
    for queue in state.queues:
        for message in queue:
            kind = message[0]
            if kind in PER_OP_KINDS:
                total += _MESSAGE_WEIGHTS[kind] * len(message[2])
            elif kind in FLAT_KINDS:
                total += _MESSAGE_WEIGHTS[kind]
            else:
                total += W_RESP
    for ready in state.pending:
        total += W_READY * len(ready)
    for actions in state.mshr:
        if actions:
            total += W_FILL
        for action in actions:
            total += W_RESPOND if action[0] == "respond" else W_LOCAL
    return total


# ----------------------------------------------------------------------
def state_violations(model: ProtocolModel, state: State) -> List[str]:
    """Bookkeeping-soundness violations of one state."""
    violations: List[str] = []
    for sb in range(model.num_subblocks):
        if state.mshr[sb] and state.cache[sb] != ABSENT:
            violations.append(
                f"single_owner: sb{sb} is resident at its home while a "
                f"next-level fill is still in flight"
            )
    carriers = [0] * len(model.program)
    for queue in state.queues:
        for message in queue:
            if message[0] in FLAT_KINDS:
                carriers[message[2]] += 1
            else:  # req_ld / fwd_ld / resp all carry an op tuple
                for op in message[2]:
                    carriers[op] += 1
    for ready in state.pending:
        for message in ready:
            for op in message[2]:
                carriers[op] += 1
    for actions in state.mshr:
        for action in actions:
            carriers[action[-1]] += 1
    for op in model.program:
        status = state.ops[op.index][0]
        count = carriers[op.index]
        if status == INFLIGHT and count != 1:
            violations.append(
                f"single_carrier: in-flight {op.label} is carried by "
                f"{count} protocol artifacts (want exactly 1)"
            )
        elif status != INFLIGHT and count != 0:
            violations.append(
                f"single_carrier: {'completed' if status == COMPLETE else 'unissued'} "
                f"{op.label} still appears in {count} protocol artifacts"
            )
    return violations


def edge_violations(
    transition_name: str, measure_before: int, measure_after: int
) -> List[str]:
    """Watchdog-consistency check for one fired transition."""
    if transition_name.startswith("issue"):
        if measure_after > measure_before + MAX_ISSUE_DELTA:
            return [
                f"watchdog_progress: issue transition {transition_name} "
                f"grew the drain measure by "
                f"{measure_after - measure_before} (> {MAX_ISSUE_DELTA})"
            ]
        return []
    if measure_after >= measure_before:
        return [
            f"watchdog_progress: {transition_name} did not decrease the "
            f"drain measure ({measure_before} -> {measure_after}); a "
            f"cycle of such steps would livelock the drain"
        ]
    return []


def event_violations(
    model: ProtocolModel, events: List[Event], disciplined: bool
) -> Tuple[List[str], int]:
    """Observation-safety violations of one transition's events.

    Returns ``(violations, races)`` where races counts stale/future
    observations in *undisciplined* programs (legal for free scheduling,
    and evidence the model can express the hazard at all).
    """
    violations: List[str] = []
    races = 0
    for event in events:
        if event[0] == "observe":
            _tag, op_index, observed, expected = event
            if observed == expected:
                continue
            if not disciplined:
                races += 1
                continue
            kind = "no_stale_read" if observed < expected else "no_future_read"
            op = model.program[op_index]
            violations.append(
                f"{kind}: {op.label} observed version {observed} but the "
                f"last program-order store left version {expected}"
            )
        elif event[0] == "apply" and event[4]:
            _tag, sb, version, previous, _inverted = event
            if not disciplined:
                races += 1
                continue
            violations.append(
                f"store_order: version {version} reached sb{sb} after "
                f"younger version {previous} (program order inverted)"
            )
    return violations, races


def terminal_violations(model: ProtocolModel, state: State) -> List[str]:
    """Deadlock check for a state with no enabled transitions."""
    problems: List[str] = []
    stuck = [
        model.program[i].label
        for i, (status, _v) in enumerate(state.ops)
        if status != COMPLETE
    ]
    if stuck:
        problems.append("incomplete ops: " + ", ".join(stuck))
    if any(state.queues):
        problems.append("undelivered messages")
    if any(state.pending):
        problems.append("unsent responses")
    if any(state.mshr):
        problems.append("open MSHR entries")
    if problems:
        return ["deadlock: quiescence unreachable — " + "; ".join(problems)]
    return []
