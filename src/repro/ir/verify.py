"""Structural validation of loop DDGs.

:func:`verify_ddg` checks the invariants every graph handed to the
scheduler must satisfy.  It raises :class:`~repro.errors.GraphError` with a
message naming the offending node/edge; transformations call it in their
tests (and the compilation pipeline calls it in between phases).
"""

from __future__ import annotations

from typing import Optional

from repro.arch.config import MachineConfig
from repro.errors import GraphError
from repro.ir.ddg import Ddg
from repro.ir.edges import DepKind
from repro.ir.instructions import Opcode

#: (kind) -> (source must be, target must be); None = any opcode.
_MEMORY_EDGE_SHAPE = {
    DepKind.MF: (Opcode.STORE, Opcode.LOAD),
    DepKind.MA: (Opcode.LOAD, Opcode.STORE),
    DepKind.MO: (Opcode.STORE, Opcode.STORE),
}


def verify_ddg(ddg: Ddg, machine: Optional[MachineConfig] = None) -> None:
    """Validate graph structure; raise :class:`GraphError` when broken.

    Checks performed:

    * edge endpoints exist;
    * memory edges connect the right opcode pair (MF store->load,
      MA load->store, MO store->store);
    * SYNC edges target a store (section 3.3 creates only those);
    * memory edges with distance 0 respect sequential program order;
    * the distance-0 subgraph is acyclic (a zero-distance cycle can never
      be scheduled);
    * RF sources define a register, RF targets are not stores' duplicates
      of it (stores may consume, never produce);
    * ``required_cluster`` fits the machine (when one is provided).
    """
    for edge in ddg.edges():
        if not ddg.has_node(edge.src) or not ddg.has_node(edge.dst):
            raise GraphError(f"dangling edge {edge}")
        src = ddg.node(edge.src)
        dst = ddg.node(edge.dst)

        shape = _MEMORY_EDGE_SHAPE.get(edge.kind)
        if shape is not None:
            want_src, want_dst = shape
            if src.opcode is not want_src or dst.opcode is not want_dst:
                raise GraphError(
                    f"{edge.kind.value} edge must be "
                    f"{want_src.value}->{want_dst.value}, got "
                    f"{src.opcode.value}->{dst.opcode.value} ({edge})"
                )
            if edge.distance == 0 and src.seq >= dst.seq:
                raise GraphError(
                    f"zero-distance memory edge against program order: {edge}"
                )
        if edge.kind is DepKind.SYNC and not dst.is_store:
            raise GraphError(f"SYNC edge must target a store: {edge}")
        if edge.kind is DepKind.RF and src.dest is None:
            raise GraphError(
                f"RF edge from {src.label}, which defines no register"
            )

    _check_zero_distance_acyclic(ddg)

    if machine is not None:
        for instr in ddg:
            rc = instr.required_cluster
            if rc is not None and not 0 <= rc < machine.num_clusters:
                raise GraphError(
                    f"{instr.label} pinned to cluster {rc}, machine has "
                    f"{machine.num_clusters}"
                )


def _check_zero_distance_acyclic(ddg: Ddg) -> None:
    """Kahn's algorithm on the distance-0 subgraph."""
    indeg = {instr.iid: 0 for instr in ddg}
    for edge in ddg.edges():
        if edge.distance == 0:
            indeg[edge.dst] += 1
    ready = [iid for iid, d in indeg.items() if d == 0]
    seen = 0
    while ready:
        iid = ready.pop()
        seen += 1
        for edge in ddg.succs(iid):
            if edge.distance == 0:
                indeg[edge.dst] -= 1
                if indeg[edge.dst] == 0:
                    ready.append(edge.dst)
    if seen != len(ddg):
        cyclic = sorted(
            ddg.node(iid).label for iid, d in indeg.items() if d > 0
        )
        raise GraphError(
            "zero-distance dependence cycle through: " + ", ".join(cyclic)
        )
