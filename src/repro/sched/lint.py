"""The schedule lint: the ``check`` stage that ends every compile.

:func:`lint_compilation` re-derives every rule from the machine
description and the final graph and returns all findings instead of
stopping at the first; :func:`repro.sched.stages.compile_loop` runs it
on every result and raises :class:`~repro.errors.CheckError` listing
them.  Besides placement, dependences and unit/bus capacity it checks
the rules that only make sense at the whole-compilation level:
copy-insertion completeness and "memory ops ordered at their home
module" under MDC/DDGT.

Rules (each finding carries its ``rule`` name):

* ``completeness`` — every node scheduled exactly once, cluster pins and
  the assignment respected;
* ``resource`` — no functional-unit overcommit in any (cluster, slot)
  of the modulo schedule; inter-cluster copies within the register-bus
  capacity over their full occupancy window;
* ``latency`` — every dependence edge satisfied:
  ``t(dst) - t(src) >= latency - II * distance``;
* ``copies`` — cross-cluster register flow is copy-mediated: an RF edge
  between two non-copy ops stays within one cluster, a copy lives in
  its consumers' cluster and has exactly one producer;
* ``memory_order`` — the coherence solution's placement obligations:
  under MDC every memory-dependence edge stays within one cluster (the
  chain property); under DDGT no MA edge survives the rewrite, SYNC
  edges target stores, and every replicated store covers all clusters
  so aliased updates apply in the home cluster — locally — before any
  posterior access.

``repro check schedule <benchmark>`` compiles a variant cross and
prints each compile's findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.arch.config import FuKind, MachineConfig
from repro.ir.ddg import Ddg
from repro.ir.edges import DepKind, MEMORY_DEP_KINDS
from repro.sched.cluster import ClusterAssignment
from repro.sched.coherence import CoherenceMode
from repro.sched.ddgt import DdgtResult
from repro.sched.schedule import Schedule, edge_latency

if TYPE_CHECKING:  # stages imports this module
    from repro.sched.stages import CompilationResult


@dataclass(frozen=True)
class LintFinding:
    """One rule violation found in a compiled loop."""

    rule: str
    message: str
    iid: Optional[int] = None

    def __str__(self) -> str:
        return f"[{self.rule}] {self.message}"


def lint_compilation(result: CompilationResult) -> List[LintFinding]:
    """Lint one :func:`~repro.sched.stages.compile_loop` result."""
    return lint_schedule(
        result.ddg,
        result.machine,
        result.assignment,
        result.schedule,
        coherence=result.coherence,
        ddgt=result.ddgt,
    )


def lint_schedule(
    ddg: Ddg,
    machine: MachineConfig,
    assignment: ClusterAssignment,
    schedule: Schedule,
    coherence: CoherenceMode = CoherenceMode.NONE,
    ddgt: Optional[DdgtResult] = None,
) -> List[LintFinding]:
    """Run every rule; returns all findings (empty = lint-clean)."""
    findings: List[LintFinding] = []
    findings.extend(_check_completeness(ddg, machine, assignment, schedule))
    if findings:
        # Placement is broken; the remaining rules would only cascade.
        return findings
    findings.extend(_check_resources(ddg, machine, schedule))
    findings.extend(_check_latencies(ddg, machine, schedule))
    findings.extend(_check_copies(ddg, schedule))
    findings.extend(
        _check_memory_order(ddg, machine, schedule, coherence, ddgt)
    )
    return findings


# ----------------------------------------------------------------------
def _check_completeness(
    ddg: Ddg,
    machine: MachineConfig,
    assignment: ClusterAssignment,
    schedule: Schedule,
) -> List[LintFinding]:
    findings: List[LintFinding] = []
    node_ids = {instr.iid for instr in ddg}
    for instr in ddg:
        placed = schedule.ops.get(instr.iid)
        if placed is None:
            findings.append(LintFinding(
                "completeness", f"{instr.label} was never scheduled",
                instr.iid,
            ))
            continue
        if not 0 <= placed.cluster < machine.num_clusters:
            findings.append(LintFinding(
                "completeness",
                f"{instr.label} scheduled in nonexistent cluster "
                f"{placed.cluster}",
                instr.iid,
            ))
        if (
            instr.required_cluster is not None
            and placed.cluster != instr.required_cluster
        ):
            findings.append(LintFinding(
                "completeness",
                f"{instr.label} pinned to cluster "
                f"{instr.required_cluster} but scheduled in "
                f"{placed.cluster}",
                instr.iid,
            ))
        if instr.iid in assignment and assignment[instr.iid] != placed.cluster:
            findings.append(LintFinding(
                "completeness",
                f"{instr.label} assigned to cluster "
                f"{assignment[instr.iid]} but scheduled in "
                f"{placed.cluster}",
                instr.iid,
            ))
    for iid in schedule.ops:
        if iid not in node_ids:
            findings.append(LintFinding(
                "completeness",
                f"schedule places unknown instruction iid {iid}",
                iid,
            ))
    return findings


def _check_resources(
    ddg: Ddg, machine: MachineConfig, schedule: Schedule
) -> List[LintFinding]:
    findings: List[LintFinding] = []
    ii = schedule.ii
    fu_usage: Dict[Tuple[int, FuKind, int], int] = {}
    bus_usage: Dict[int, int] = {}
    for op in schedule.ops.values():
        instr = ddg.node(op.iid)
        slot = op.time % ii
        if instr.is_copy:
            # A copy holds a register bus for `latency` consecutive
            # modulo slots.  Bus identity is a first-fit packing the
            # scheduler's reservation table proved feasible; replaying it
            # in another order can false-negative, so the per-slot
            # aggregate is the invariant.
            for k in range(machine.register_buses.latency):
                s = (slot + k) % ii
                bus_usage[s] = bus_usage.get(s, 0) + 1
            continue
        key = (op.cluster, instr.fu_kind, slot)
        fu_usage[key] = fu_usage.get(key, 0) + 1
    for (cluster, kind, slot), used in sorted(
        fu_usage.items(), key=lambda kv: (kv[0][0], kv[0][1].value, kv[0][2])
    ):
        units = machine.fu_per_cluster.get(kind, 0)
        if used > units:
            findings.append(LintFinding(
                "resource",
                f"{used} {kind.value} ops share slot {slot} of cluster "
                f"{cluster} but it has {units} {kind.value} unit(s)",
            ))
    for slot, used in sorted(bus_usage.items()):
        if used > machine.register_buses.count:
            findings.append(LintFinding(
                "resource",
                f"{used} copies occupy modulo slot {slot} but only "
                f"{machine.register_buses.count} register buses exist",
            ))
    return findings


def _check_latencies(
    ddg: Ddg, machine: MachineConfig, schedule: Schedule
) -> List[LintFinding]:
    findings: List[LintFinding] = []
    ii = schedule.ii
    for edge in ddg.edges():
        lat = edge_latency(edge, ddg, machine, schedule.assumed_latency)
        slack = (
            schedule.ops[edge.dst].time
            - schedule.ops[edge.src].time
            - (lat - ii * edge.distance)
        )
        if slack < 0:
            findings.append(LintFinding(
                "latency",
                f"dependence {edge} unsatisfied: needs "
                f"{lat - ii * edge.distance} cycles, schedule gives "
                f"{schedule.ops[edge.dst].time - schedule.ops[edge.src].time}",
                edge.dst,
            ))
    return findings


def _check_copies(ddg: Ddg, schedule: Schedule) -> List[LintFinding]:
    findings: List[LintFinding] = []
    # copy iid -> its register-flow producers, in node order
    producers = {instr.iid: 0 for instr in ddg if instr.is_copy}
    for edge in ddg.edges():
        if edge.kind is not DepKind.RF:
            continue
        if edge.dst in producers:
            producers[edge.dst] += 1
        src_cluster = schedule.ops[edge.src].cluster
        dst_cluster = schedule.ops[edge.dst].cluster
        if src_cluster == dst_cluster:
            continue
        src = ddg.node(edge.src)
        dst = ddg.node(edge.dst)
        if src.is_copy:
            findings.append(LintFinding(
                "copies",
                f"copy {src.label} lives in cluster {src_cluster} but "
                f"its consumer {dst.label} is in {dst_cluster}",
                edge.src,
            ))
        elif not dst.is_copy:
            findings.append(LintFinding(
                "copies",
                f"register flow {src.label} -> {dst.label} crosses "
                f"clusters {src_cluster} -> {dst_cluster} without a "
                f"copy",
                edge.dst,
            ))
    for iid, count in producers.items():
        if count != 1:
            findings.append(LintFinding(
                "copies",
                f"copy {ddg.node(iid).label} has {count} producers "
                f"(want exactly 1)",
                iid,
            ))
    return findings


def _check_memory_order(
    ddg: Ddg,
    machine: MachineConfig,
    schedule: Schedule,
    coherence: CoherenceMode,
    ddgt: Optional[DdgtResult],
) -> List[LintFinding]:
    findings: List[LintFinding] = []
    if coherence is CoherenceMode.MDC:
        # The chain property: aliasing accesses share a cluster, so the
        # per-cluster in-order memory unit plus in-order same-source bus
        # delivery serializes them at the home module in program order.
        for edge in ddg.edges():
            if edge.kind not in MEMORY_DEP_KINDS or edge.src == edge.dst:
                continue
            src_cluster = schedule.ops[edge.src].cluster
            dst_cluster = schedule.ops[edge.dst].cluster
            if src_cluster != dst_cluster:
                findings.append(LintFinding(
                    "memory_order",
                    f"MDC: memory-dependent "
                    f"{ddg.node(edge.src).label} -> "
                    f"{ddg.node(edge.dst).label} split across clusters "
                    f"{src_cluster} and {dst_cluster}; their requests "
                    f"can reach the home module out of order",
                    edge.dst,
                ))
    elif coherence is CoherenceMode.DDGT:
        for edge in ddg.edges():
            if edge.kind is DepKind.MA:
                findings.append(LintFinding(
                    "memory_order",
                    f"DDGT: anti dependence {ddg.node(edge.src).label} "
                    f"-> {ddg.node(edge.dst).label} was not rewritten "
                    f"into a SYNC edge",
                    edge.dst,
                ))
            elif edge.kind is DepKind.SYNC:
                if not ddg.node(edge.dst).is_store:
                    findings.append(LintFinding(
                        "memory_order",
                        f"DDGT: SYNC edge targets non-store "
                        f"{ddg.node(edge.dst).label}",
                        edge.dst,
                    ))
        groups: Dict[int, List[int]] = {}
        if ddgt is not None:
            groups = dict(ddgt.replicas)
        else:
            for instr in ddg:
                if instr.replica_group is not None:
                    groups.setdefault(instr.replica_group, []).append(
                        instr.iid
                    )
        for original, instances in sorted(groups.items()):
            clusters = sorted(
                schedule.ops[iid].cluster for iid in instances
            )
            if clusters != list(range(machine.num_clusters)):
                findings.append(LintFinding(
                    "memory_order",
                    f"DDGT: replica group of "
                    f"{ddg.node(original).label} covers clusters "
                    f"{clusters}, not one instance per cluster; the "
                    f"home-cluster instance of some address is missing",
                    original,
                ))
    return findings
