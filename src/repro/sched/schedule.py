"""Schedule data structures: modulo reservation table and the result type.

Resource model
--------------
Each cluster owns ``fu_per_cluster[kind]`` units of each functional-unit
class; an operation occupies one unit for one (issue) slot — the units are
fully pipelined.  Inter-cluster COPY operations occupy one of the global
register-to-register buses for ``register_buses.latency`` *consecutive*
modulo slots (the buses run at a fraction of the core frequency).  Memory
buses are not statically reserved: their occupancy depends on run-time hit/
miss behaviour, which is exactly why their latency is non-deterministic to
the compiler (paper section 2.3, footnote 2).

Timing model
------------
A modulo schedule assigns every operation ``v`` a start time ``t(v)``;
instance ``i`` of ``v`` issues at ``t(v) + i * II``.  A dependence edge
``u -> v`` with latency ``lat`` and distance ``d`` is satisfied iff
``t(v) >= t(u) + lat - II * d``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.config import FuKind, MachineConfig
from repro.errors import SchedulingError
from repro.ir.ddg import Ddg
from repro.ir.edges import DepKind, Edge
from repro.ir.instructions import Instruction, LATENCY_MNEMONIC, Opcode


def carries_load_latency(edge: Edge, ddg: Ddg) -> bool:
    """Whether ``edge`` is RF from a load, whose latency is the load's
    assumed latency (:func:`edge_latency`)."""
    return edge.kind is DepKind.RF and ddg.node(edge.src).opcode is Opcode.LOAD


def edge_latency(
    edge: Edge,
    ddg: Ddg,
    machine: MachineConfig,
    assumed_latency: Optional[Dict[int, int]] = None,
) -> int:
    """Scheduling latency of a dependence edge.

    * RF from a load: the load's *assumed* latency (the scheduler's pick
      from the memory-latency ladder; defaults to a local hit);
    * RF from a COPY: the register-bus latency;
    * RF otherwise: the producer's fixed latency;
    * MF / MO: the store's completion latency (the consumer memory op must
      issue strictly after the store);
    * MA / SYNC: 0 — the target may issue in the same cycle or later.
    """
    if carries_load_latency(edge, ddg):
        if assumed_latency and edge.src in assumed_latency:
            return assumed_latency[edge.src]
        return machine.memory_latencies().local_hit
    if edge.kind is DepKind.RF:
        src = ddg.node(edge.src)
        if src.opcode is Opcode.COPY:
            return machine.register_buses.latency
        return machine.op_latency(LATENCY_MNEMONIC[src.opcode])
    if edge.kind in (DepKind.MF, DepKind.MO):
        return machine.op_latency("store")
    # MA and SYNC: issue-order constraints.
    return 0


@dataclass(frozen=True)
class ScheduledOp:
    """Placement of one instruction in the kernel."""

    iid: int
    cluster: int
    time: int  # absolute start time within the flat schedule

    def slot(self, ii: int) -> int:
        return self.time % ii

    def stage(self, ii: int) -> int:
        return self.time // ii


#: Functional-unit classes in the order of each cluster's table rows.
_KINDS = tuple(FuKind)
_KIND_ROW = {kind: row for row, kind in enumerate(_KINDS)}
#: Table row of a COPY operation, which holds a register bus instead of
#: a functional unit.
BUS_ROW = -1


def table_row(instr: Instruction, cluster: int) -> int:
    """The reservation-table row ``instr`` occupies when issued in
    ``cluster``: ``cluster * len(FuKind)`` plus its unit class's index,
    or :data:`BUS_ROW` for a COPY."""
    if instr.is_copy:
        return BUS_ROW
    return cluster * len(_KINDS) + _KIND_ROW[instr.fu_kind]


class ReservationTable:
    """Modulo reservation table for one candidate II.

    Callers resolve each operation's row once (:func:`table_row`) and
    pass it with the op's iid; the table never looks at an instruction.
    Functional units: ``cells[row * II + slot]`` lists the ops holding
    that row's units in that slot, at most ``units[row]`` of them.
    Register buses: one occupancy bitmask over the II slots per bus; a
    COPY issued in slot ``s`` needs the precomputed window mask of slots
    ``s .. s + latency - 1`` (mod II) clear on some bus, and takes the
    first such bus.  ``place``/``remove`` keep the table consistent under
    the iterative scheduler's eject-and-retry policy; the scheduler may
    also append to and remove from ``cells`` directly, for a placement
    :meth:`first_fit` found room for.
    """

    def __init__(self, machine: MachineConfig, ii: int) -> None:
        if ii < 1:
            raise SchedulingError(f"II must be >= 1, got {ii}")
        self.machine = machine
        self.ii = ii
        # row -> units of the row's class in its cluster
        self.units = [machine.fu_per_cluster.get(kind, 0)
                      for kind in _KINDS] * machine.num_clusters
        self.cells: List[List[int]] = [
            [] for _ in range(len(self.units) * ii)
        ]
        self._latency = latency = machine.register_buses.latency
        span = (1 << min(latency, ii)) - 1
        full = (1 << ii) - 1
        self._window = [
            ((span << slot) | (span << slot >> ii)) & full
            for slot in range(ii)
        ]
        self._busy = [0] * machine.register_buses.count
        # iid -> (bus, issue slot) of each placed COPY
        self._bus_of: Dict[int, Tuple[int, int]] = {}
        # slot -> iid holding bus 0 there (the transfers a forced COPY
        # evicts)
        self._first_bus: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def _window_slots(self, slot: int) -> List[int]:
        return [(slot + k) % self.ii for k in range(self._latency)]

    def _find_free_bus(self, slot: int) -> Optional[int]:
        window = self._window[slot]
        for bus, busy in enumerate(self._busy):
            if not busy & window:
                return bus
        return None

    # ------------------------------------------------------------------
    def fits(self, row: int, time: int) -> bool:
        slot = time % self.ii
        if row == BUS_ROW:
            return self._find_free_bus(slot) is not None
        return len(self.cells[row * self.ii + slot]) < self.units[row]

    def first_fit(self, row: int, start: int) -> Optional[int]:
        """The first time in ``[start, start + II)`` at which an op of
        ``row`` fits (the first ``t`` for which :meth:`fits` holds), or
        ``None`` when every slot is taken."""
        ii = self.ii
        first = start % ii
        if row == BUS_ROW:
            window, buses = self._window, self._busy
            for k in range(ii):
                slot = first + k
                mask = window[slot - ii if slot >= ii else slot]
                for busy in buses:
                    if not busy & mask:
                        return start + k
            return None
        units = self.units[row]
        if units:
            cells = self.cells
            base = row * ii
            for k in range(ii):
                slot = first + k
                if len(cells[base + (slot - ii if slot >= ii else slot)]) \
                        < units:
                    return start + k
        return None

    def place(self, iid: int, row: int, time: int) -> None:
        slot = time % self.ii
        if row == BUS_ROW:
            bus = self._find_free_bus(slot)
            if bus is None:
                raise SchedulingError(
                    f"no register bus free at slot {slot} for op {iid}"
                )
            self._busy[bus] |= self._window[slot]
            self._bus_of[iid] = (bus, slot)
            if bus == 0:
                for s in self._window_slots(slot):
                    self._first_bus[s] = iid
            return
        taken = self.cells[row * self.ii + slot]
        if len(taken) >= self.units[row]:
            cluster, kind = divmod(row, len(_KINDS))
            raise SchedulingError(
                f"{_KINDS[kind]} unit busy in cluster {cluster} slot {slot} "
                f"for op {iid}"
            )
        taken.append(iid)

    def remove(self, iid: int, row: int, time: int) -> None:
        """Undo the ``place`` of op ``iid`` at this row and time."""
        if row == BUS_ROW:
            bus, slot = self._bus_of.pop(iid)
            self._busy[bus] &= ~self._window[slot]
            if bus == 0:
                for s in self._window_slots(slot):
                    self._first_bus.pop(s, None)
            return
        self.cells[row * self.ii + time % self.ii].remove(iid)

    def conflicting_ops(self, row: int, time: int) -> List[int]:
        """Operations that must be ejected to place an op of ``row``
        here."""
        slot = time % self.ii
        if row == BUS_ROW:
            # Eject every transfer overlapping the first bus's window.
            victims: List[int] = []
            for s in self._window_slots(slot):
                owner = self._first_bus.get(s)
                if owner is not None and owner not in victims:
                    victims.append(owner)
            return victims
        return list(self.cells[row * self.ii + slot])


@dataclass
class Schedule:
    """A finished modulo schedule.

    ``ddg`` is the final graph actually scheduled — including COPY nodes,
    replicated store instances and fake consumers.
    """

    ii: int
    ops: Dict[int, ScheduledOp]
    ddg: Ddg
    machine: MachineConfig
    assumed_latency: Dict[int, int] = field(default_factory=dict)

    @property
    def length(self) -> int:
        """Flat schedule length (cycles from first to last issue, +1)."""
        if not self.ops:
            return 0
        return max(op.time for op in self.ops.values()) + 1

    @property
    def stage_count(self) -> int:
        """Number of kernel stages (SC); a loop of N iterations executes in
        about ``(N + SC - 1) * II`` stall-free cycles."""
        if not self.ops:
            return 1
        return max(op.time for op in self.ops.values()) // self.ii + 1

    def time_of(self, iid: int) -> int:
        return self.ops[iid].time

    def cluster_of(self, iid: int) -> int:
        return self.ops[iid].cluster

    def ops_by_slot(self) -> List[List[ScheduledOp]]:
        """Scheduled ops bucketed by modulo slot (index = slot)."""
        buckets: List[List[ScheduledOp]] = [[] for _ in range(self.ii)]
        for op in self.ops.values():
            buckets[op.time % self.ii].append(op)
        for bucket in buckets:
            bucket.sort(key=lambda op: op.iid)
        return buckets

    def copy_count(self) -> int:
        return sum(1 for op in self.ops.values() if self.ddg.node(op.iid).is_copy)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check dependence and resource constraints; raise on violation.

        This re-checks everything from scratch and is used by tests and by
        every pipeline run.
        """
        for instr in self.ddg:
            if instr.iid not in self.ops:
                raise SchedulingError(f"{instr.label} was never scheduled")
            placed = self.ops[instr.iid]
            rc = instr.required_cluster
            if rc is not None and placed.cluster != rc:
                raise SchedulingError(
                    f"{instr.label} pinned to cluster {rc} but scheduled in "
                    f"{placed.cluster}"
                )
        for edge in self.ddg.edges():
            lat = edge_latency(edge, self.ddg, self.machine, self.assumed_latency)
            lhs = self.ops[edge.dst].time - self.ops[edge.src].time
            rhs = lat - self.ii * edge.distance
            if lhs < rhs:
                raise SchedulingError(
                    f"dependence violated: {edge} (needs {rhs}, got {lhs})"
                )
        # Re-play functional-unit usage exactly (one slot per op, so the
        # check is order-independent).
        fu_usage: Dict[Tuple[int, FuKind, int], int] = {}
        bus_usage: Dict[int, int] = {}
        for op in self.ops.values():
            instr = self.ddg.node(op.iid)
            slot = op.time % self.ii
            if instr.is_copy:
                # Copies occupy a register bus for `latency` consecutive
                # modulo slots.  Bus *identity* is a first-fit packing whose
                # feasibility the scheduler's reservation table proved
                # constructively; replaying it in a different order can
                # false-negative, so validation checks the per-slot
                # aggregate capacity instead.
                for k in range(self.machine.register_buses.latency):
                    s = (slot + k) % self.ii
                    bus_usage[s] = bus_usage.get(s, 0) + 1
                continue
            key = (op.cluster, instr.fu_kind, slot)
            fu_usage[key] = fu_usage.get(key, 0) + 1
        for (cluster, kind, slot), used in fu_usage.items():
            units = self.machine.fu_per_cluster.get(kind, 0)
            if used > units:
                raise SchedulingError(
                    f"{used} {kind} ops in cluster {cluster} slot {slot} "
                    f"but only {units} unit(s)"
                )
        for slot, used in bus_usage.items():
            if used > self.machine.register_buses.count:
                raise SchedulingError(
                    f"{used} copies occupy slot {slot} but only "
                    f"{self.machine.register_buses.count} register buses"
                )

    def describe(self) -> str:
        """Kernel dump: one line per (slot, cluster) with the ops issued."""
        lines = [
            f"II={self.ii} length={self.length} stages={self.stage_count} "
            f"copies={self.copy_count()}"
        ]
        by_slot = self.ops_by_slot()
        for slot in range(self.ii):
            for cluster in self.machine.clusters:
                cell = [
                    f"{self.ddg.node(op.iid).label}@s{op.stage(self.ii)}"
                    for op in by_slot[slot]
                    if op.cluster == cluster
                ]
                if cell:
                    lines.append(
                        f"  slot {slot} cluster {cluster}: " + " ".join(cell)
                    )
        return "\n".join(lines)
