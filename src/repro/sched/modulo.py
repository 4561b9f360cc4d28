"""Iterative modulo scheduling (Rau-style, with ejection).

The scheduler consumes a DDG whose instructions already carry a cluster
assignment.  For a candidate II it places operations highest-priority
first (priority = dependence height, ties to the lower iid), each in the
first slot of a window of II slots, starting at its earliest legal time,
that has a free resource (:meth:`ReservationTable.first_fit`); when no
slot has one the operation is force-placed and the conflicting/violated
operations are ejected and re-queued.  A placement budget bounds the
search; on failure the II is increased.

The II window starts at ``max(ResMII, RecMII, min_ii)`` and ends
``MAX_II_SLACK`` IIs above that, or at ``max_ii`` when the caller caps it.
The latency ladder (:mod:`repro.sched.latency`) caps it at the base II,
the only II it accepts, so a pessimistic level tries at most one II, and
none when its RecMII lies above the cap: the call then raises
:class:`~repro.errors.RecurrenceError` before any placement.
The graph's :class:`~repro.sched.mii.LoopBounds` (edge weights, ResMII,
cyclic components) is built once per compile by the ladder and passed
in; adjacency is built once per call and shared by every II tried.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.config import MachineConfig
from repro.errors import SchedulingError
from repro.ir.ddg import Ddg
from repro.sched.cluster import ClusterAssignment
from repro.sched.mii import MAX_REC_II, LoopBounds, Weight
from repro.sched.schedule import ReservationTable, Schedule, ScheduledOp

#: How far above max(ResMII, RecMII) the scheduler will search.
MAX_II_SLACK = 64
#: Placement attempts allowed per candidate II, per operation.
BUDGET_FACTOR = 12

#: ``iid -> [(neighbour, latency, distance)]``
Adjacency = Dict[int, List[Tuple[int, int, int]]]


def modulo_schedule(
    ddg: Ddg,
    machine: MachineConfig,
    assignment: ClusterAssignment,
    assumed_latency: Optional[Dict[int, int]] = None,
    min_ii: Optional[int] = None,
    max_ii: Optional[int] = None,
    bounds: Optional[LoopBounds] = None,
) -> Schedule:
    """Produce a valid modulo schedule; raise SchedulingError if impossible
    within the II search window.

    ``min_ii`` raises the window's start and ``max_ii`` caps its end; when
    the minimum II lies above ``max_ii`` no II is tried (RecurrenceError
    when RecMII is what lies above it).  ``bounds`` is
    ``LoopBounds(ddg, machine)``, built here when not given.
    """
    if bounds is None:
        bounds = LoopBounds(ddg, machine)
    assumed = dict(assumed_latency or {})
    weights = bounds.weights(assumed)
    floor = bounds.res_mii
    if min_ii is not None:
        floor = max(floor, min_ii)
    if max_ii is None:
        lower = bounds.recurrence_floor(weights, floor)
        upper = lower + MAX_II_SLACK
    else:
        if floor > max_ii:
            raise SchedulingError(
                f"no schedule found for {ddg.name!r} within II in "
                f"[{floor}, {max_ii}]: the window is empty"
            )
        lower = bounds.recurrence_floor(weights, floor,
                                        min(max_ii, MAX_REC_II))
        upper = min(lower + MAX_II_SLACK, max_ii)

    preds: Adjacency = {v.iid: [] for v in ddg}
    succs: Adjacency = {v.iid: [] for v in ddg}
    for src, dst, lat, d in weights:
        preds[dst].append((src, lat, d))
        succs[src].append((dst, lat, d))
    # Sinks first: one relaxation round settles an acyclic, program-ordered
    # graph.
    by_sink = weights[::-1]
    for ii in range(lower, upper + 1):
        times = _try_ii(ddg, machine, assignment, by_sink, preds, succs, ii)
        if times is not None:
            return Schedule(
                ii=ii,
                ops={
                    iid: ScheduledOp(iid, assignment[iid], time)
                    for iid, time in times.items()
                },
                ddg=ddg,
                machine=machine,
                assumed_latency=assumed,
            )
    raise SchedulingError(
        f"no schedule found for {ddg.name!r} within II in [{lower}, {upper}]"
    )


# ----------------------------------------------------------------------
def _heights(
    ddg: Ddg, weights: Sequence[Weight], ii: int
) -> Optional[Dict[int, int]]:
    """Dependence height of each node at this II (longest outgoing path
    with weights ``lat - II * distance``); the scheduling priority.

    The heights are the relaxation's unique fixpoint, whatever the edge
    order; ``None`` when a positive cycle keeps it from converging (this
    II is below the recurrence bound).
    """
    height = {instr.iid: 0 for instr in ddg}
    edges = [(src, dst, lat - ii * d) for src, dst, lat, d in weights]
    for _ in range(len(height)):
        changed = False
        for src, dst, w in edges:
            h = height[dst] + w
            if h > height[src]:
                height[src] = h
                changed = True
        if not changed:
            return height
    return None


def _try_ii(
    ddg: Ddg,
    machine: MachineConfig,
    assignment: ClusterAssignment,
    weights: Sequence[Weight],
    preds: Adjacency,
    succs: Adjacency,
    ii: int,
) -> Optional[Dict[int, int]]:
    """Start time of every op, in final placement order, or ``None`` when
    the placement budget runs out."""
    height = _heights(ddg, weights, ii)
    if height is None:
        return None

    node = ddg.node
    table = ReservationTable(machine, ii)
    placed: Dict[int, int] = {}  # iid -> time
    last_time: Dict[int, int] = {}  # previous placement, for retry floor
    budget = BUDGET_FACTOR * max(1, len(ddg))

    # Highest first, ties to the lower iid; the keys are unique, so the
    # heap pops what max() over the pending set would pick.
    pending = [(-h, iid) for iid, h in height.items()]
    heapify(pending)

    def eject(iid: int) -> None:
        table.remove(node(iid), assignment[iid], placed.pop(iid))
        heappush(pending, (-height[iid], iid))

    while pending:
        if budget <= 0:
            return None
        budget -= 1
        iid = heappop(pending)[1]
        instr = node(iid)
        cluster = assignment[iid]

        start = 0
        for src, lat, d in preds[iid]:
            time = placed.get(src)
            if time is not None and time + lat - ii * d > start:
                start = time + lat - ii * d
        floor = last_time.get(iid)
        if floor is not None and floor + 1 > start:
            start = floor + 1

        chosen = table.first_fit(instr, cluster, start)
        if chosen is None:
            chosen = start
            for victim in table.conflicting_ops(instr, cluster, chosen):
                eject(victim)

        table.place(instr, cluster, chosen)
        placed[iid] = chosen
        last_time[iid] = chosen

        # Eject successors whose dependence the new placement violates.
        # Predecessors placed later in time are caught when they are
        # (re)placed: this op is then one of *their* successors.
        for dst, lat, d in succs[iid]:
            if dst != iid:
                time = placed.get(dst)
                if time is not None and time < chosen + lat - ii * d:
                    eject(dst)

    # Normalize: shift by a whole number of IIs (keeping every op's slot)
    # so the earliest op starts in stage 0.
    shift = (min(placed.values()) // ii) * ii
    if shift:
        placed = {iid: time - shift for iid, time in placed.items()}
    return placed
