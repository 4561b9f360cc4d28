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
in.  Each op is resolved once per call, into lists indexed by iid and
shared by every II tried: its reservation-table row (its cluster's unit
class, or the register-bus row; :func:`~repro.sched.schedule.table_row`)
and its predecessor and successor edges.  An II's search then keeps
placement times in iid-indexed lists too, and places and ejects
functional-unit ops directly on the table's cell lists, so a placement
looks up no node, cluster or cell key.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.config import MachineConfig
from repro.errors import SchedulingError
from repro.ir.ddg import Ddg
from repro.sched.cluster import ClusterAssignment
from repro.sched.mii import MAX_REC_II, LoopBounds, Weight
from repro.sched.schedule import (
    BUS_ROW,
    ReservationTable,
    Schedule,
    ScheduledOp,
    table_row,
)

#: How far above max(ResMII, RecMII) the scheduler will search.
MAX_II_SLACK = 64
#: Placement attempts allowed per candidate II, per operation.
BUDGET_FACTOR = 12

#: ``[iid] -> [(neighbour, latency, distance)]``
Adjacency = List[List[Tuple[int, int, int]]]


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

    iids = [instr.iid for instr in ddg]
    size = max(iids, default=-1) + 1
    rows = [BUS_ROW] * size
    for instr in ddg:
        rows[instr.iid] = table_row(instr, assignment[instr.iid])
    preds: Adjacency = [[] for _ in range(size)]
    succs: Adjacency = [[] for _ in range(size)]
    for src, dst, lat, d in weights:
        preds[dst].append((src, lat, d))
        succs[src].append((dst, lat, d))
    # Sinks first: one relaxation round settles an acyclic, program-ordered
    # graph.
    by_sink = weights[::-1]
    for ii in range(lower, upper + 1):
        times = _try_ii(machine, iids, rows, by_sink, preds, succs, ii)
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
    size: int, nodes: int, weights: Sequence[Weight], ii: int
) -> Optional[List[int]]:
    """Dependence height of each iid below ``size`` at this II (longest
    outgoing path with weights ``lat - II * distance``); the scheduling
    priority.

    The heights are the relaxation's unique fixpoint, whatever the edge
    order; ``None`` when a positive cycle keeps it from converging within
    ``nodes`` rounds (this II is below the recurrence bound).
    """
    height = [0] * size
    edges = [(src, dst, lat - ii * d) for src, dst, lat, d in weights]
    for _ in range(nodes):
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
    machine: MachineConfig,
    iids: Sequence[int],
    rows: Sequence[int],
    weights: Sequence[Weight],
    preds: Adjacency,
    succs: Adjacency,
    ii: int,
) -> Optional[Dict[int, int]]:
    """Start time of every op, in final placement order, or ``None`` when
    the placement budget runs out.

    ``rows``, ``preds`` and ``succs`` are indexed by iid (``iids`` lists
    the graph's).
    """
    height = _heights(len(rows), len(iids), weights, ii)
    if height is None:
        return None

    table = ReservationTable(machine, ii)
    first_fit, cells = table.first_fit, table.cells
    placed: List[Optional[int]] = [None] * len(rows)  # iid -> time
    last_time = [-1] * len(rows)  # previous placement, for retry floor
    order: Dict[int, int] = {}  # iid -> time, in placement order
    budget = BUDGET_FACTOR * max(1, len(iids))

    # Highest first, ties to the lower iid; the keys are unique, so the
    # heap pops what max() over the pending set would pick.
    pending = [(-height[iid], iid) for iid in iids]
    heapify(pending)

    def eject(iid: int) -> None:
        time = placed[iid]
        assert time is not None  # only placed ops are ejected
        placed[iid] = None
        del order[iid]
        row = rows[iid]
        if row == BUS_ROW:
            table.remove(iid, row, time)
        else:
            cells[row * ii + time % ii].remove(iid)
        heappush(pending, (-height[iid], iid))

    while pending:
        if budget <= 0:
            return None
        budget -= 1
        iid = heappop(pending)[1]
        row = rows[iid]

        # Times are never negative, so the first placement's floor is 0.
        start = last_time[iid] + 1
        for src, lat, d in preds[iid]:
            time = placed[src]
            if time is not None and time + lat - ii * d > start:
                start = time + lat - ii * d

        chosen = first_fit(row, start)
        if chosen is None:
            chosen = start
            for victim in table.conflicting_ops(row, chosen):
                eject(victim)
            table.place(iid, row, chosen)
        elif row == BUS_ROW:
            table.place(iid, row, chosen)
        else:
            cells[row * ii + chosen % ii].append(iid)
        placed[iid] = last_time[iid] = order[iid] = chosen

        # Eject successors whose dependence the new placement violates.
        # Predecessors placed later in time are caught when they are
        # (re)placed: this op is then one of *their* successors.
        for dst, lat, d in succs[iid]:
            if dst != iid:
                time = placed[dst]
                if time is not None and time < chosen + lat - ii * d:
                    eject(dst)

    # Normalize: shift by a whole number of IIs (keeping every op's slot)
    # so the earliest op starts in stage 0.
    shift = (min(order.values()) // ii) * ii
    if shift:
        order = {iid: time - shift for iid, time in order.items()}
    return order
