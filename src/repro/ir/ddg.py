"""The Data Dependence Graph container.

A :class:`Ddg` owns the instructions of one loop body and the typed,
distance-annotated dependence edges between them.  It is the single source
of structural truth: transformations (unrolling, MDC, DDGT), the modulo
scheduler and the analyses all operate on this class.

Mutation discipline: nodes are immutable; the graph supports adding nodes,
adding/removing edges, and replacing a node with an updated copy (same
iid).  Transformations that need a scratch copy call :meth:`Ddg.clone`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import GraphError
from repro.ir.edges import DepKind, Edge, MEMORY_DEP_KINDS
from repro.ir.instructions import Instruction, Opcode

#: Serialized edge kind -> DepKind, for snapshot decoding.
_DEP_KINDS = {kind.value: kind for kind in DepKind}


def _mem_to_dict(mem) -> Optional[Dict[str, object]]:
    if mem is None:
        return None
    return {
        "space": mem.space,
        "offset": mem.offset,
        "stride": mem.stride,
        "width": mem.width,
        "pattern": mem.pattern.value,
        "spread": mem.spread,
        "ambiguous": mem.ambiguous,
        "salt": mem.salt,
    }


def _mem_from_dict(data) :
    if data is None:
        return None
    from repro.alias.memref import AccessPattern, MemRef

    return MemRef(
        space=data["space"],
        offset=data["offset"],
        stride=data["stride"],
        width=data["width"],
        pattern=AccessPattern(data["pattern"]),
        spread=data["spread"],
        ambiguous=data["ambiguous"],
        salt=data["salt"],
    )


def _instruction_to_dict(instr: Instruction) -> Dict[str, object]:
    return {
        "iid": instr.iid,
        "opcode": instr.opcode.value,
        "seq": instr.seq,
        "dest": instr.dest,
        "srcs": list(instr.srcs),
        "mem": _mem_to_dict(instr.mem),
        "origin": instr.origin,
        "required_cluster": instr.required_cluster,
        "replica_group": instr.replica_group,
        "name": instr.name,
    }


def _instruction_from_dict(data: Dict[str, object]) -> Instruction:
    return Instruction(
        iid=data["iid"],
        opcode=Opcode(data["opcode"]),
        seq=data["seq"],
        dest=data["dest"],
        srcs=tuple(data["srcs"]),
        mem=_mem_from_dict(data["mem"]),
        origin=data["origin"],
        required_cluster=data["required_cluster"],
        replica_group=data["replica_group"],
        name=data["name"],
    )


class Ddg:
    """A loop-body data dependence graph."""

    def __init__(self, name: str = "loop") -> None:
        self.name = name
        self._nodes: Dict[int, Instruction] = {}
        self._succs: Dict[int, List[Edge]] = {}
        self._preds: Dict[int, List[Edge]] = {}
        self._next_iid = 0
        self._next_seq = 0

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def add_instruction(
        self,
        opcode: Opcode,
        *,
        dest: Optional[str] = None,
        srcs: Tuple[str, ...] = (),
        mem=None,
        origin: Optional[int] = None,
        required_cluster: Optional[int] = None,
        replica_group: Optional[int] = None,
        name: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> Instruction:
        """Create and insert a new instruction, allocating its iid.

        ``seq`` defaults to the next sequential position; transformations
        that materialize instructions standing for an existing one (store
        replication) pass the original's ``seq`` explicitly.
        """
        iid = self._next_iid
        self._next_iid += 1
        if seq is None:
            seq = self._next_seq
        self._next_seq = max(self._next_seq, seq + 1)
        instr = Instruction(
            iid=iid,
            opcode=opcode,
            seq=seq,
            dest=dest,
            srcs=tuple(srcs),
            mem=mem,
            origin=origin,
            required_cluster=required_cluster,
            replica_group=replica_group,
            name=name,
        )
        self._nodes[iid] = instr
        self._succs[iid] = []
        self._preds[iid] = []
        return instr

    def insert(self, instr: Instruction) -> Instruction:
        """Insert a fully-formed instruction (iid must be fresh)."""
        if instr.iid in self._nodes:
            raise GraphError(f"duplicate iid {instr.iid}")
        self._nodes[instr.iid] = instr
        self._succs[instr.iid] = []
        self._preds[instr.iid] = []
        self._next_iid = max(self._next_iid, instr.iid + 1)
        self._next_seq = max(self._next_seq, instr.seq + 1)
        return instr

    def replace_instruction(self, instr: Instruction) -> None:
        """Swap in an updated copy of an existing instruction (same iid)."""
        if instr.iid not in self._nodes:
            raise GraphError(f"unknown iid {instr.iid}")
        self._nodes[instr.iid] = instr

    def node(self, iid: int) -> Instruction:
        try:
            return self._nodes[iid]
        except KeyError:
            raise GraphError(f"unknown iid {iid}") from None

    def has_node(self, iid: int) -> bool:
        return iid in self._nodes

    def __contains__(self, iid: int) -> bool:
        return iid in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._nodes.values())

    @property
    def instructions(self) -> List[Instruction]:
        """Instructions in insertion order."""
        return list(self._nodes.values())

    def in_program_order(self) -> List[Instruction]:
        """Instructions sorted by sequential program order (ties by iid)."""
        return sorted(self._nodes.values(), key=lambda v: (v.seq, v.iid))

    def memory_instructions(self) -> List[Instruction]:
        return [v for v in self._nodes.values() if v.is_memory]

    def loads(self) -> List[Instruction]:
        return [v for v in self._nodes.values() if v.is_load]

    def stores(self) -> List[Instruction]:
        return [v for v in self._nodes.values() if v.is_store]

    # ------------------------------------------------------------------
    # Edge management
    # ------------------------------------------------------------------
    def add_edge(
        self, src: int, dst: int, kind: DepKind, distance: int = 0
    ) -> Optional[Edge]:
        """Add a dependence edge; duplicate edges are silently skipped.

        Returns the edge, or ``None`` when an identical edge already exists.
        """
        if src not in self._nodes:
            raise GraphError(f"edge source {src} not in graph")
        if dst not in self._nodes:
            raise GraphError(f"edge target {dst} not in graph")
        edge = Edge(src, dst, kind, distance)
        if edge in self._succs[src]:
            return None
        self._succs[src].append(edge)
        self._preds[dst].append(edge)
        return edge

    def remove_edge(self, edge: Edge) -> None:
        try:
            self._succs[edge.src].remove(edge)
            self._preds[edge.dst].remove(edge)
        except (KeyError, ValueError):
            raise GraphError(f"edge not in graph: {edge}") from None

    def remove_edges(self, predicate: Callable[[Edge], bool]) -> List[Edge]:
        """Remove and return every edge matching ``predicate``."""
        removed = [e for e in self.edges() if predicate(e)]
        for edge in removed:
            self.remove_edge(edge)
        return removed

    def edges(self) -> List[Edge]:
        return [e for edges in self._succs.values() for e in edges]

    def succs(self, iid: int) -> List[Edge]:
        """Outgoing edges of ``iid``."""
        try:
            return list(self._succs[iid])
        except KeyError:
            raise GraphError(f"unknown iid {iid}") from None

    def preds(self, iid: int) -> List[Edge]:
        """Incoming edges of ``iid``."""
        try:
            return list(self._preds[iid])
        except KeyError:
            raise GraphError(f"unknown iid {iid}") from None

    def memory_edges(self) -> List[Edge]:
        return [e for e in self.edges() if e.kind in MEMORY_DEP_KINDS]

    def consumers(self, iid: int) -> List[Instruction]:
        """Instructions consuming the register value defined by ``iid``
        (targets of outgoing RF edges)."""
        return [
            self._nodes[e.dst] for e in self._succs[iid] if e.kind is DepKind.RF
        ]

    def has_edge(self, src: int, dst: int, kind: Optional[DepKind] = None) -> bool:
        return any(
            e.dst == dst and (kind is None or e.kind is kind)
            for e in self._succs.get(src, ())
        )

    # ------------------------------------------------------------------
    # Whole-graph helpers
    # ------------------------------------------------------------------
    def clone(self, name: Optional[str] = None) -> "Ddg":
        """An independent structural copy of this graph."""
        copy = Ddg(name if name is not None else self.name)
        copy._next_iid = self._next_iid
        copy._next_seq = self._next_seq
        copy._nodes = dict(self._nodes)
        copy._succs = {iid: list(edges) for iid, edges in self._succs.items()}
        copy._preds = {iid: list(edges) for iid, edges in self._preds.items()}
        return copy

    def pin_cluster(self, iid: int, cluster: int) -> None:
        """Constrain an instruction to a specific cluster (in place)."""
        self.replace_instruction(replace(self.node(iid), required_cluster=cluster))

    def relabel(self, iid: int, name: str) -> None:
        self.replace_instruction(replace(self.node(iid), name=name))

    def fingerprint(self) -> str:
        """Stable structural hash of the graph (nodes, edges, MemRefs).

        Identical across processes and interpreter versions, so generators
        can assert determinism (same parameters => same fingerprint) and
        sweep harnesses can key scenarios by structure.
        """
        def mem_fields(mem) -> Optional[List[object]]:
            if mem is None:
                return None
            return [
                mem.space, mem.offset, mem.stride, mem.width,
                mem.pattern.value, mem.spread, mem.ambiguous, mem.salt,
            ]

        nodes = [
            [
                instr.iid, instr.opcode.value, instr.seq, instr.dest,
                list(instr.srcs), mem_fields(instr.mem), instr.origin,
                instr.required_cluster, instr.replica_group, instr.name,
            ]
            for instr in self.in_program_order()
        ]
        edges = sorted(
            [e.src, e.dst, e.kind.value, e.distance] for e in self.edges()
        )
        payload = json.dumps([self.name, nodes, edges],
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Serialization (exact structural round trip)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-able snapshot reconstructing this graph *exactly*.

        Unlike :meth:`fingerprint` (which canonicalizes), the snapshot
        preserves node insertion order and per-node edge-list order, so a
        graph loaded with :meth:`from_dict` iterates identically to the
        original — deterministic passes (scheduling, cluster assignment)
        produce bit-identical results on either copy.  This is what lets
        compilation artifacts live in an on-disk store.
        """
        return {
            "name": self.name,
            "next_iid": self._next_iid,
            "next_seq": self._next_seq,
            "nodes": [
                _instruction_to_dict(instr) for instr in self._nodes.values()
            ],
            "succs": {
                str(iid): [[e.src, e.dst, e.kind.value, e.distance]
                           for e in edges]
                for iid, edges in self._succs.items()
            },
            "preds": {
                str(iid): [[e.src, e.dst, e.kind.value, e.distance]
                           for e in edges]
                for iid, edges in self._preds.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Ddg":
        """Rebuild a graph serialized by :meth:`to_dict`."""
        ddg = cls(data["name"])
        for node_data in data["nodes"]:
            instr = _instruction_from_dict(node_data)
            if instr.iid in ddg._nodes:
                raise GraphError(f"duplicate iid {instr.iid} in snapshot")
            ddg._nodes[instr.iid] = instr
        # Key order must be node insertion order (as the live class
        # maintains it); JSON canonicalization may have string-sorted the
        # object keys, so rebuild from the nodes list instead.  Each edge
        # is built once and shared by its succs and preds lists, as
        # add_edge shares it.
        succs, preds = data["succs"], data["preds"]
        edges: Dict[Tuple[int, int, str, int], Edge] = {}
        for iid in ddg._nodes:
            out = ddg._succs[iid] = []
            for src, dst, kind, distance in succs.get(str(iid), ()):
                edge = Edge(src, dst, _DEP_KINDS[kind], distance)
                edges[src, dst, kind, distance] = edge
                out.append(edge)
        for iid in ddg._nodes:
            into = ddg._preds[iid] = []
            for src, dst, kind, distance in preds.get(str(iid), ()):
                edge = edges.get((src, dst, kind, distance))
                if edge is None:
                    raise GraphError(
                        f"pred edge {src} -{kind}-> {dst} has no succ edge "
                        "in snapshot"
                    )
                into.append(edge)
        ddg._next_iid = data["next_iid"]
        ddg._next_seq = data["next_seq"]
        return ddg

    def describe(self) -> str:
        """Multi-line dump used by the DDG-transformation example."""
        lines = [f"DDG {self.name!r}: {len(self)} instructions"]
        for instr in self.in_program_order():
            lines.append(f"  {instr}")
            for edge in sorted(
                self._succs[instr.iid], key=lambda e: (e.dst, e.kind.value)
            ):
                dst = self._nodes[edge.dst]
                tail = f" d={edge.distance}" if edge.distance else ""
                lines.append(
                    f"    -{edge.kind.value}-> {dst.label}{tail}"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Ddg({self.name!r}, nodes={len(self)}, edges={len(self.edges())})"
