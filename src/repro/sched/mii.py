"""Minimum initiation interval bounds.

``ResMII`` counts operations against the machine's functional units and the
register buses; ``RecMII`` is the recurrence bound: the smallest II such
that no dependence cycle has positive total ``latency - II * distance``,
i.e. the largest ``ceil(latency / distance)`` over the graph's cycles.

RecMII is computed exactly, one strongly connected component at a time
(no cycle uses an edge outside its component), by positive-cycle jumps
(after Cochet-Terrasson et al. 1998 and Dasdan 2004, who compute the
maximum cycle ratio): relax the component's longest paths at the running
II and, after each round, look for a cycle among the edges that last
raised each node.  Such a cycle is always positive at that II, so the II
jumps to the cycle's own ``ceil(latency / distance)`` and the relaxation
restarts; a round that raises nothing proves the II feasible.  Callers
that need ``max(floor, RecMII)`` (``minimum_ii``, the modulo scheduler)
start at the floor, so a component already feasible there costs one
converging relaxation.

:class:`LoopBounds` holds what every II search of one graph on one
machine shares: the edge weights, which edges carry a load's assumed
latency, ResMII and the cyclic components.  The latency ladder builds
one per compile and derives each level's weights by substitution;
``rec_mii`` and ``minimum_ii`` build one for their single search.  A
RecMII above the search's limit raises :class:`RecurrenceError`.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.config import FuKind, MachineConfig
from repro.errors import RecurrenceError, SchedulingError
from repro.ir.ddg import Ddg
from repro.sched.schedule import carries_load_latency, edge_latency

#: Largest II the recurrence search considers.
MAX_REC_II = 512
#: A dependence edge as the II searches see it:
#: ``(src, dst, latency, distance)``.
Weight = Tuple[int, int, int, int]
#: A strongly connected component that holds a cycle: its size and its
#: internal edges as ``(src, dst, index)``, nodes renumbered
#: ``0 .. size - 1`` and ``index`` pointing into the graph's weight list.
Component = Tuple[int, List[Tuple[int, int, int]]]


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


class LoopBounds:
    """What every II search of one graph on one machine shares.

    Built once: the edge weights at local-hit load latency, the edges
    that carry a load's assumed latency, and the cyclic components as
    edge indexes; ResMII on first use.  :meth:`weights` derives any
    assumed latencies' weights by substitution and
    :meth:`recurrence_floor` reuses the components, so the latency ladder
    builds one per compile and shares it with every ``modulo_schedule``
    call.  The graph must not change while its bounds are in use.
    """

    def __init__(self, ddg: Ddg, machine: MachineConfig) -> None:
        self._ddg, self._machine = ddg, machine
        edges = ddg.edges()
        self._weights = [
            (e.src, e.dst, edge_latency(e, ddg, machine), e.distance)
            for e in edges
        ]
        self._load_edges = [
            k for k, e in enumerate(edges) if carries_load_latency(e, ddg)
        ]
        # No loop-carried edge, no recurrence bound.  A zero-distance
        # cycle is left for the scheduler's height pass to reject.
        carried = any(e.distance for e in edges)
        self._components = (
            _cyclic_components(ddg, self._weights) if carried else []
        )

    @cached_property
    def res_mii(self) -> int:
        """:func:`res_mii` of the graph."""
        return res_mii(self._ddg, self._machine)

    def weights(
        self, assumed_latency: Optional[Dict[int, int]] = None
    ) -> List[Weight]:
        """``(src, dst, latency, distance)`` of every dependence edge, a
        load's result edges at its ``assumed_latency`` (a local hit for a
        load it leaves out)."""
        weights = list(self._weights)
        if assumed_latency:
            for k in self._load_edges:
                src, dst, _lat, d = weights[k]
                if src in assumed_latency:
                    weights[k] = (src, dst, assumed_latency[src], d)
        return weights

    def recurrence_floor(
        self, weights: Sequence[Weight], floor: int,
        limit: int = MAX_REC_II,
    ) -> int:
        """``max(floor, RecMII)`` of ``weights``, one of this graph's
        :meth:`weights`; raise RecurrenceError when RecMII exceeds
        ``limit``.

        Each cyclic component is searched from the running floor, capped
        at ``limit``.  A positive cycle at II ``ii`` has ``latency > ii *
        distance``, so its own bound ``ceil(latency / distance)`` lies
        above ``ii``: every jump raises the II, and none passes the
        component's RecMII.  A cycle of zero total distance, or one whose
        bound exceeds ``limit``, is still positive at ``limit``.
        """
        lower = floor
        for size, internal in self._components:
            edges = [(s, t, weights[k][2], weights[k][3])
                     for s, t, k in internal]
            ii = min(lower, limit)
            cycle = _positive_cycle(size, edges, ii)
            while cycle is not None:
                latency = sum(edges[k][2] for k in cycle)
                distance = sum(edges[k][3] for k in cycle)
                if not distance or latency > limit * distance:
                    raise RecurrenceError(
                        f"no II in [{floor}, {limit}] meets the recurrence "
                        f"bound: a dependence cycle is still positive at "
                        f"II={limit}"
                    )
                ii = -(-latency // distance)
                cycle = _positive_cycle(size, edges, ii)
            lower = max(lower, ii)
        return lower


def rec_mii(
    ddg: Ddg,
    machine: MachineConfig,
    assumed_latency: Optional[Dict[int, int]] = None,
    max_ii: int = MAX_REC_II,
) -> int:
    """Recurrence-constrained lower bound on the II, searched up to
    ``max_ii``."""
    bounds = LoopBounds(ddg, machine)
    return bounds.recurrence_floor(bounds.weights(assumed_latency), 1,
                                   max_ii)


def _cyclic_components(
    ddg: Ddg, weights: Sequence[Weight]
) -> List[Component]:
    """Every strongly connected component that holds a cycle, with its
    internal edges as indexes into ``weights``.

    No dependence cycle can use an edge between two components, nor any
    edge of an acyclic one, so the RecMII search relaxes only these.
    """
    succs: Dict[int, List[int]] = {instr.iid: [] for instr in ddg}
    for src, dst, _lat, _d in weights:
        succs[src].append(dst)
    component = _strongly_connected(succs)
    members: Dict[int, List[int]] = {}
    for iid in succs:
        members.setdefault(component[iid], []).append(iid)
    internal: Dict[int, List[int]] = {}
    for k, (src, dst, _lat, _d) in enumerate(weights):
        if component[src] == component[dst]:
            internal.setdefault(component[src], []).append(k)
    out = []
    for comp, indexes in internal.items():
        local = {iid: n for n, iid in enumerate(members[comp])}
        out.append((
            len(local),
            [(local[weights[k][0]], local[weights[k][1]], k)
             for k in indexes],
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


def _positive_cycle(
    size: int, edges: Sequence[Weight], ii: int
) -> Optional[List[int]]:
    """A cycle of positive total ``latency - ii * distance``, as indexes
    into ``edges``, or ``None`` when no cycle is positive at this II.

    Longest-path relaxation from 0 at every node, remembering the edge
    that last raised each node.  A cycle of such edges is positive: on
    it, each node's value is at most its predecessor's plus the edge's
    weight, and was strictly less just before the edge that closed the
    cycle raised it, so the weights sum to more than 0.  A round that
    still raises a node after ``size - 1`` rounds (when every simple path
    has been relaxed) leaves such a cycle, so the search ends within
    ``size`` rounds.
    """
    dist = [0] * size
    pred = [-1] * size
    sources = [src for src, *_rest in edges]
    relax = [(k, src, dst, lat - ii * d)
             for k, (src, dst, lat, d) in enumerate(edges)]
    for _ in range(size):
        changed = False
        for k, src, dst, w in relax:
            w += dist[src]
            if w > dist[dst]:
                dist[dst] = w
                pred[dst] = k
                changed = True
        if not changed:
            return None
        cycle = _predecessor_cycle(pred, sources)
        if cycle is not None:
            return cycle
    raise AssertionError("relaxation neither converged nor closed a cycle")


def _predecessor_cycle(
    pred: Sequence[int], sources: Sequence[int]
) -> Optional[List[int]]:
    """A cycle of the edges ``pred`` names (edge ``pred[v]`` enters
    ``v``; ``-1`` for none), or ``None``.  Each walk stamps the nodes it
    visits and stops at the first stamped one, so the search visits each
    node once."""
    stamp = [0] * len(pred)
    for start in range(len(pred)):
        if stamp[start]:
            continue
        mark = start + 1
        node = start
        while node >= 0 and not stamp[node]:
            stamp[node] = mark
            k = pred[node]
            node = sources[k] if k >= 0 else -1
        if node >= 0 and stamp[node] == mark:
            cycle = []
            at = node
            while True:
                k = pred[at]
                cycle.append(k)
                at = sources[k]
                if at == node:
                    return cycle
    return None


def minimum_ii(
    ddg: Ddg,
    machine: MachineConfig,
    assumed_latency: Optional[Dict[int, int]] = None,
) -> int:
    """``max(ResMII, RecMII)`` — the scheduler's starting II."""
    bounds = LoopBounds(ddg, machine)
    return bounds.recurrence_floor(bounds.weights(assumed_latency),
                                   bounds.res_mii)
