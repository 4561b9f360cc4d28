"""Explicit inter-cluster copy insertion.

"The compiler is responsible to add and schedule explicit copy operations
when it schedules two register-flow dependent instructions in different
clusters" (section 2.1).  For every RF edge whose endpoints were assigned
to different clusters, a COPY node is materialized; one copy is shared by
all consumers of the same value in the same destination cluster.

Edge rewiring for ``u -> v`` (distance ``d``) with copy ``w``::

    u --RF,0--> w --RF,d--> v

so the producer-side edge carries the producer latency and the
consumer-side edge carries the bus latency (see
:func:`repro.sched.schedule.edge_latency`), and the loop-carried distance
is preserved end to end.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.arch.config import MachineConfig
from repro.ir.ddg import Ddg
from repro.ir.edges import DepKind
from repro.ir.instructions import Opcode
from repro.sched.cluster import ClusterAssignment


def insert_copies(
    ddg: Ddg,
    machine: MachineConfig,
    assignment: ClusterAssignment,
) -> List[int]:
    """Materialize COPY nodes for cross-cluster RF edges (in place).

    Returns the iids of the inserted copies.  ``assignment`` is extended
    with the copies' clusters (a copy is attributed to its destination
    cluster; the bus it occupies is a global resource).
    """
    inserted: List[int] = []
    #: (producer iid, destination cluster) -> copy iid
    existing: Dict[Tuple[int, int], int] = {}

    for edge in [e for e in ddg.edges() if e.kind is DepKind.RF]:
        src_cluster = assignment[edge.src]
        dst_cluster = assignment[edge.dst]
        if src_cluster == dst_cluster:
            continue
        key = (edge.src, dst_cluster)
        copy_iid = existing.get(key)
        if copy_iid is None:
            producer = ddg.node(edge.src)
            reg = producer.dest if producer.dest else f"v{producer.iid}"
            copy = ddg.add_instruction(
                Opcode.COPY,
                dest=f"{reg}@c{dst_cluster}",
                srcs=(reg,),
                origin=producer.iid,
                name=f"cp.{producer.label}.c{dst_cluster}",
                seq=producer.seq,
            )
            ddg.add_edge(edge.src, copy.iid, DepKind.RF, 0)
            assignment.cluster_of[copy.iid] = dst_cluster
            existing[key] = copy.iid
            inserted.append(copy.iid)
            copy_iid = copy.iid
        ddg.add_edge(copy_iid, edge.dst, DepKind.RF, edge.distance)
        ddg.remove_edge(edge)

    return inserted
