"""Minimum initiation interval bounds.

``ResMII`` counts operations against the machine's functional units and the
register buses; ``RecMII`` is the recurrence bound: the smallest II such
that no dependence cycle has positive total ``latency - II * distance``.

RecMII is searched one strongly connected component at a time: no cycle
uses an edge outside its component, so each Bellman-Ford probe relaxes
only that component's edges, over at most its size in rounds.  Callers
that only need ``max(floor, RecMII)`` (``minimum_ii``, the modulo
scheduler) probe the floor first and binary-search above it only for a
component whose cycles are still positive there; usually none is.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.config import FuKind, MachineConfig
from repro.errors import SchedulingError
from repro.ir.ddg import Ddg
from repro.sched.schedule import edge_latency

#: Largest II the recurrence search considers.
MAX_REC_II = 512
#: A dependence edge as the II searches see it:
#: ``(src, dst, latency, distance)``.
Weight = Tuple[int, int, int, int]


def res_mii(ddg: Ddg, machine: MachineConfig) -> int:
    """Resource-constrained lower bound on the II.

    Clusters are homogeneous, so the classic bound uses pooled units; for
    pinned instructions (replicated store instances) a per-cluster bound is
    also applied, since pinning removes the scheduler's freedom to spread
    them.
    """
    per_kind: Dict[FuKind, int] = {kind: 0 for kind in FuKind}
    per_cluster_kind: Dict[tuple, int] = {}
    copies = 0
    for instr in ddg:
        if instr.is_copy:
            copies += 1
            continue
        kind = instr.fu_kind
        per_kind[kind] = per_kind.get(kind, 0) + 1
        if instr.required_cluster is not None:
            key = (instr.required_cluster, kind)
            per_cluster_kind[key] = per_cluster_kind.get(key, 0) + 1

    bound = 1
    for kind, count in per_kind.items():
        units = machine.fu_per_cluster.get(kind, 0) * machine.num_clusters
        if count and not units:
            raise SchedulingError(f"graph uses {kind} but machine has none")
        if count:
            bound = max(bound, math.ceil(count / units))
    for (cluster, kind), count in per_cluster_kind.items():
        units = machine.fu_per_cluster.get(kind, 0)
        if count and not units:
            raise SchedulingError(f"graph pins {kind} ops, machine has none")
        if count:
            bound = max(bound, math.ceil(count / units))
    if copies:
        buses = machine.register_buses
        bound = max(bound, math.ceil(copies * buses.latency / buses.count))
    return bound


def assignment_res_mii(ddg: Ddg, machine: MachineConfig, assignment) -> int:
    """Resource lower bound once clusters are fixed.

    After cluster assignment the pooled bound of :func:`res_mii` can be far
    too optimistic — e.g. an MDC chain concentrates every memory op of the
    chain in one cluster, so that cluster's single memory unit bounds the
    II.  ``assignment`` is any mapping supporting ``assignment[iid]``.
    """
    per_cluster_kind: Dict[tuple, int] = {}
    copies = 0
    for instr in ddg:
        if instr.is_copy:
            copies += 1
            continue
        key = (assignment[instr.iid], instr.fu_kind)
        per_cluster_kind[key] = per_cluster_kind.get(key, 0) + 1
    bound = 1
    for (cluster, kind), count in per_cluster_kind.items():
        units = machine.fu_per_cluster.get(kind, 0)
        if count and not units:
            raise SchedulingError(f"{kind} ops assigned, machine has no {kind}")
        if count:
            bound = max(bound, math.ceil(count / units))
    if copies:
        buses = machine.register_buses
        bound = max(bound, math.ceil(copies * buses.latency / buses.count))
    return bound


def edge_weights(
    ddg: Ddg,
    machine: MachineConfig,
    assumed_latency: Optional[Dict[int, int]] = None,
) -> List[Weight]:
    """``(src, dst, latency, distance)`` of every dependence edge."""
    return [
        (e.src, e.dst, edge_latency(e, ddg, machine, assumed_latency),
         e.distance)
        for e in ddg.edges()
    ]


def rec_mii(
    ddg: Ddg,
    machine: MachineConfig,
    assumed_latency: Optional[Dict[int, int]] = None,
    max_ii: int = MAX_REC_II,
) -> int:
    """Recurrence-constrained lower bound on the II, searched up to
    ``max_ii``."""
    weights = edge_weights(ddg, machine, assumed_latency)
    return recurrence_floor(ddg, weights, 1, max_ii)


def recurrence_floor(
    ddg: Ddg, weights: Sequence[Weight], floor: int, limit: int = MAX_REC_II
) -> int:
    """``max(floor, RecMII)``; raise SchedulingError when RecMII exceeds
    ``limit``.

    Each cyclic component is probed at the running floor first (capped at
    ``limit``) and binary-searched above it only when one of its cycles is
    still positive there.  Feasibility is monotone in the II (a cycle's
    weight ``latency - II * distance`` never grows with the II), so the
    probes find the same bound a whole-graph search of ``[1, limit]``
    would.
    """
    if not any(d for *_rest, d in weights):
        # No loop-carried edge, no recurrence bound.  A zero-distance
        # cycle is left for the scheduler's height pass to reject.
        return floor
    lower = floor
    for size, edges in _cyclic_components(ddg, weights):
        probe = min(lower, limit)
        if not _has_positive_cycle(size, edges, probe):
            continue
        if probe == limit or _has_positive_cycle(size, edges, limit):
            raise SchedulingError(
                f"no II in [{floor}, {limit}] meets the recurrence bound: "
                f"a dependence cycle is still positive at II={limit}"
            )
        lo, hi = probe + 1, limit
        while lo < hi:
            mid = (lo + hi) // 2
            if _has_positive_cycle(size, edges, mid):
                lo = mid + 1
            else:
                hi = mid
        lower = lo
    return lower


def _cyclic_components(
    ddg: Ddg, weights: Sequence[Weight]
) -> List[Tuple[int, List[Weight]]]:
    """``(size, internal edges)`` of every strongly connected component
    that holds a cycle, with nodes renumbered ``0 .. size - 1``.

    No dependence cycle can use an edge between two components, nor any
    edge of an acyclic one, so the positive-cycle test relaxes only these.
    """
    succs: Dict[int, List[int]] = {instr.iid: [] for instr in ddg}
    for src, dst, _lat, _d in weights:
        succs[src].append(dst)
    component = _strongly_connected(succs)
    members: Dict[int, List[int]] = {}
    for iid in succs:
        members.setdefault(component[iid], []).append(iid)
    internal: Dict[int, List[Weight]] = {}
    for weight in weights:
        src, dst = weight[0], weight[1]
        if component[src] == component[dst]:
            internal.setdefault(component[src], []).append(weight)
    out = []
    for comp, edges in internal.items():
        local = {iid: k for k, iid in enumerate(members[comp])}
        out.append((
            len(local),
            [(local[s], local[t], lat, d) for s, t, lat, d in edges],
        ))
    return out


def _strongly_connected(succs: Dict[int, List[int]]) -> Dict[int, int]:
    """Tarjan's algorithm, iterative: node -> component number."""
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    component: Dict[int, int] = {}
    stack: List[int] = []
    for root in succs:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succs[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    work.append((child, iter(succs[child])))
                    break
                if child not in component:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = len(component)
                    while True:
                        member = stack.pop()
                        component[member] = comp
                        if member == node:
                            break
    return component


def _has_positive_cycle(size: int, edges: Sequence[Weight], ii: int) -> bool:
    """Longest-path relaxation over ``size`` nodes: converges within
    ``size`` rounds iff no cycle has positive weight at this II."""
    dist = [0] * size
    for _ in range(size):
        changed = False
        for src, dst, lat, d in edges:
            w = dist[src] + lat - ii * d
            if w > dist[dst]:
                dist[dst] = w
                changed = True
        if not changed:
            return False
    return True


def minimum_ii(
    ddg: Ddg,
    machine: MachineConfig,
    assumed_latency: Optional[Dict[int, int]] = None,
) -> int:
    """``max(ResMII, RecMII)`` — the scheduler's starting II."""
    weights = edge_weights(ddg, machine, assumed_latency)
    return recurrence_floor(ddg, weights, res_mii(ddg, machine))
