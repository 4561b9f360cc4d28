"""The straightforward modulo scheduler: the oracle for the fast one.

A test-only copy of the scheduler as it stood before the fast path, kept
so ``tests/test_sched_fastpath.py`` can show the optimized
:mod:`repro.sched` computes the same bounds and the same schedules:

* ``rec_mii`` binary-searches ``[1, max_ii]`` with a Bellman-Ford
  positive-cycle test over the *whole* graph;
* ``ReservationTable`` keys functional units by ``(cluster, FuKind,
  slot)`` lists and register buses by ``(bus, slot)`` owners;
* ``modulo_schedule`` rebuilds the edge weights for every II and picks
  the next op with ``max()`` over the pending set;
* ``schedule_with_latency_policy`` lets every pessimistic ladder level
  search the full ``MAX_II_SLACK`` window and discards any II other than
  the base one afterwards.

Resource bounds (``res_mii``, ``assignment_res_mii``) and edge latencies
are shared with the production code; nothing here is fast on purpose.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.arch.config import FuKind, MachineConfig
from repro.errors import SchedulingError
from repro.ir.ddg import Ddg
from repro.ir.instructions import Instruction
from repro.sched.cluster import ClusterAssignment
from repro.sched.latency import LENGTH_SLACK_STAGES
from repro.sched.mii import assignment_res_mii, res_mii
from repro.sched.modulo import BUDGET_FACTOR, MAX_II_SLACK
from repro.sched.schedule import Schedule, ScheduledOp, edge_latency


# ----------------------------------------------------------------------
# Bounds
# ----------------------------------------------------------------------
def rec_mii(
    ddg: Ddg,
    machine: MachineConfig,
    assumed_latency: Optional[Dict[int, int]] = None,
    max_ii: int = 512,
) -> int:
    edges = [
        (e.src, e.dst, edge_latency(e, ddg, machine, assumed_latency),
         e.distance)
        for e in ddg.edges()
    ]
    if not any(d for *_rest, d in edges):
        return 1  # acyclic graph: no recurrence bound

    def feasible(ii: int) -> bool:
        return not _has_positive_cycle(ddg, edges, ii)

    lo, hi = 1, max_ii
    if not feasible(hi):
        raise SchedulingError(
            f"recurrence unschedulable even at II={max_ii}; "
            "graph has a cycle with zero total distance?"
        )
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _has_positive_cycle(ddg: Ddg, edges, ii: int) -> bool:
    dist = {instr.iid: 0 for instr in ddg}
    n = len(dist)
    for _ in range(n):
        changed = False
        for src, dst, lat, d in edges:
            w = lat - ii * d
            if dist[src] + w > dist[dst]:
                dist[dst] = dist[src] + w
                changed = True
        if not changed:
            return False
    return True


def minimum_ii(
    ddg: Ddg,
    machine: MachineConfig,
    assumed_latency: Optional[Dict[int, int]] = None,
) -> int:
    return max(res_mii(ddg, machine), rec_mii(ddg, machine, assumed_latency))


# ----------------------------------------------------------------------
# Reservation table
# ----------------------------------------------------------------------
class ReservationTable:
    def __init__(self, machine: MachineConfig, ii: int) -> None:
        if ii < 1:
            raise SchedulingError(f"II must be >= 1, got {ii}")
        self.machine = machine
        self.ii = ii
        # (cluster, fu_kind, slot) -> list of iids (len <= units)
        self._fu: Dict[Tuple[int, FuKind, int], List[int]] = {}
        # (bus_index, slot) -> iid
        self._bus: Dict[Tuple[int, int], int] = {}
        # iid -> bus index (for removal)
        self._bus_of: Dict[int, int] = {}

    def _fu_free(self, instr: Instruction, cluster: int, slot: int) -> bool:
        kind = instr.fu_kind
        assert kind is not None
        units = self.machine.fu_per_cluster.get(kind, 0)
        if units == 0:
            return False
        taken = self._fu.get((cluster, kind, slot), [])
        return len(taken) < units

    def _bus_slots(self, slot: int) -> List[int]:
        return [
            (slot + k) % self.ii
            for k in range(self.machine.register_buses.latency)
        ]

    def _find_free_bus(self, slot: int) -> Optional[int]:
        for bus in range(self.machine.register_buses.count):
            if all((bus, s) not in self._bus for s in self._bus_slots(slot)):
                return bus
        return None

    def fits(self, instr: Instruction, cluster: int, time: int) -> bool:
        slot = time % self.ii
        if instr.is_copy:
            return self._find_free_bus(slot) is not None
        return self._fu_free(instr, cluster, slot)

    def place(self, instr: Instruction, cluster: int, time: int) -> None:
        slot = time % self.ii
        if instr.is_copy:
            bus = self._find_free_bus(slot)
            if bus is None:
                raise SchedulingError(
                    f"no register bus free at slot {slot} for {instr.label}"
                )
            for s in self._bus_slots(slot):
                self._bus[(bus, s)] = instr.iid
            self._bus_of[instr.iid] = bus
            return
        kind = instr.fu_kind
        if not self._fu_free(instr, cluster, slot):
            raise SchedulingError(
                f"{kind} unit busy in cluster {cluster} slot {slot} "
                f"for {instr.label}"
            )
        self._fu.setdefault((cluster, kind, slot), []).append(instr.iid)

    def remove(self, instr: Instruction, cluster: int, time: int) -> None:
        slot = time % self.ii
        if instr.is_copy:
            bus = self._bus_of.pop(instr.iid)
            for s in self._bus_slots(slot):
                if self._bus.get((bus, s)) == instr.iid:
                    del self._bus[(bus, s)]
            return
        self._fu[(cluster, instr.fu_kind, slot)].remove(instr.iid)

    def conflicting_ops(
        self, instr: Instruction, cluster: int, time: int
    ) -> List[int]:
        slot = time % self.ii
        if instr.is_copy:
            victims = []
            for s in self._bus_slots(slot):
                owner = self._bus.get((0, s))
                if owner is not None and owner not in victims:
                    victims.append(owner)
            return victims
        return list(self._fu.get((cluster, instr.fu_kind, slot), []))


# ----------------------------------------------------------------------
# Iterative modulo scheduling
# ----------------------------------------------------------------------
def modulo_schedule(
    ddg: Ddg,
    machine: MachineConfig,
    assignment: ClusterAssignment,
    assumed_latency: Optional[Dict[int, int]] = None,
    min_ii: Optional[int] = None,
) -> Schedule:
    assumed = dict(assumed_latency or {})
    lower = minimum_ii(ddg, machine, assumed)
    if min_ii is not None:
        lower = max(lower, min_ii)
    for ii in range(lower, lower + MAX_II_SLACK + 1):
        ops = _try_ii(ddg, machine, assignment, assumed, ii)
        if ops is not None:
            return Schedule(
                ii=ii,
                ops=ops,
                ddg=ddg,
                machine=machine,
                assumed_latency=assumed,
            )
    raise SchedulingError(
        f"no schedule found for {ddg.name!r} within II in "
        f"[{lower}, {lower + MAX_II_SLACK}]"
    )


def _edge_weights(
    ddg: Ddg, machine: MachineConfig, assumed: Dict[int, int]
) -> List[Tuple[int, int, int, int]]:
    return [
        (e.src, e.dst, edge_latency(e, ddg, machine, assumed), e.distance)
        for e in ddg.edges()
    ]


def _heights(ddg: Ddg, weights, ii: int) -> Dict[int, int]:
    height = {instr.iid: 0 for instr in ddg}
    n = len(height)
    for _ in range(n):
        changed = False
        for src, dst, lat, d in weights:
            w = lat - ii * d
            if height[dst] + w > height[src]:
                height[src] = height[dst] + w
                changed = True
        if not changed:
            break
    else:
        raise SchedulingError(f"positive dependence cycle at II={ii}")
    return height


def _try_ii(
    ddg: Ddg,
    machine: MachineConfig,
    assignment: ClusterAssignment,
    assumed: Dict[int, int],
    ii: int,
) -> Optional[Dict[int, ScheduledOp]]:
    weights = _edge_weights(ddg, machine, assumed)
    try:
        height = _heights(ddg, weights, ii)
    except SchedulingError:
        return None

    preds: Dict[int, List[Tuple[int, int, int]]] = {v.iid: [] for v in ddg}
    succs: Dict[int, List[Tuple[int, int, int]]] = {v.iid: [] for v in ddg}
    for src, dst, lat, d in weights:
        preds[dst].append((src, lat, d))
        succs[src].append((dst, lat, d))

    table = ReservationTable(machine, ii)
    placed: Dict[int, ScheduledOp] = {}
    last_time: Dict[int, int] = {}
    budget = BUDGET_FACTOR * max(1, len(ddg))

    pending: Set[int] = {v.iid for v in ddg}

    def pick_next() -> int:
        return max(pending, key=lambda iid: (height[iid], -iid))

    def earliest_start(iid: int) -> int:
        start = 0
        for src, lat, d in preds[iid]:
            if src in placed:
                start = max(start, placed[src].time + lat - ii * d)
        return start

    def eject(iid: int) -> None:
        op = placed.pop(iid)
        table.remove(ddg.node(iid), op.cluster, op.time)
        pending.add(iid)

    while pending:
        if budget <= 0:
            return None
        budget -= 1
        iid = pick_next()
        pending.discard(iid)
        instr = ddg.node(iid)
        cluster = assignment[iid]

        start = earliest_start(iid)
        floor = last_time.get(iid)
        if floor is not None and floor + 1 > start:
            start = floor + 1

        chosen = None
        for t in range(start, start + ii):
            if table.fits(instr, cluster, t):
                chosen = t
                break
        if chosen is None:
            chosen = start
            for victim in table.conflicting_ops(instr, cluster, chosen):
                eject(victim)

        table.place(instr, cluster, chosen)
        placed[iid] = ScheduledOp(iid=iid, cluster=cluster, time=chosen)
        last_time[iid] = chosen

        for dst, lat, d in succs[iid]:
            if dst in placed and dst != iid:
                if placed[dst].time < chosen + lat - ii * d:
                    eject(dst)

    min_time = min(op.time for op in placed.values())
    if min_time:
        shift = (min_time // ii) * ii
        if shift:
            placed = {
                iid: ScheduledOp(op.iid, op.cluster, op.time - shift)
                for iid, op in placed.items()
            }
    return placed


# ----------------------------------------------------------------------
# The latency ladder
# ----------------------------------------------------------------------
def schedule_with_latency_policy(
    ddg: Ddg,
    machine: MachineConfig,
    assignment: ClusterAssignment,
) -> Schedule:
    ladder = machine.memory_latencies().ladder()
    loads = [instr.iid for instr in ddg.loads()]
    floor = assignment_res_mii(ddg, machine, assignment)

    def uniform(level: int) -> Dict[int, int]:
        return {iid: level for iid in loads}

    base = modulo_schedule(
        ddg, machine, assignment, uniform(ladder[0]), min_ii=floor
    )
    if not loads:
        return base

    limit = base.length + LENGTH_SLACK_STAGES * base.ii
    for level in sorted(set(ladder[1:]), reverse=True):
        try:
            candidate = modulo_schedule(
                ddg, machine, assignment, uniform(level), min_ii=base.ii
            )
        except SchedulingError:
            continue
        if candidate.ii == base.ii and candidate.length <= limit:
            return candidate
    return base
