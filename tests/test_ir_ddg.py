"""Structural tests for the DDG container and instructions."""

import pytest

from repro.alias import MemRef
from repro.errors import GraphError
from repro.ir import Ddg, DdgBuilder, DepKind, Opcode
from repro.ir.instructions import Instruction


class TestInstruction:
    def test_memory_requires_memref(self):
        with pytest.raises(GraphError):
            Instruction(iid=0, opcode=Opcode.LOAD, seq=0)

    def test_non_memory_rejects_memref(self):
        with pytest.raises(GraphError):
            Instruction(iid=0, opcode=Opcode.IALU, seq=0, mem=MemRef("A"))

    def test_store_defines_no_register(self):
        with pytest.raises(GraphError):
            Instruction(
                iid=0, opcode=Opcode.STORE, seq=0, dest="r1", mem=MemRef("A")
            )

    def test_properties(self):
        load = Instruction(iid=1, opcode=Opcode.LOAD, seq=0, dest="r",
                           mem=MemRef("A"))
        assert load.is_load and load.is_memory and not load.is_store
        copy = Instruction(iid=2, opcode=Opcode.COPY, seq=0, dest="c")
        assert copy.is_copy and copy.fu_kind is None

    def test_pinned_to(self):
        op = Instruction(iid=0, opcode=Opcode.IALU, seq=0, dest="r")
        assert op.pinned_to(2).required_cluster == 2
        assert op.required_cluster is None  # original untouched


class TestDdgNodes:
    def test_iids_are_unique_and_dense(self):
        ddg = Ddg()
        ids = [ddg.add_instruction(Opcode.IALU, dest=f"r{k}").iid
               for k in range(5)]
        assert ids == [0, 1, 2, 3, 4]

    def test_insert_rejects_duplicate_iid(self):
        ddg = Ddg()
        op = ddg.add_instruction(Opcode.IALU, dest="r")
        with pytest.raises(GraphError):
            ddg.insert(op)

    def test_unknown_node(self):
        ddg = Ddg()
        with pytest.raises(GraphError):
            ddg.node(42)

    def test_program_order_uses_seq(self):
        ddg = Ddg()
        late = ddg.add_instruction(Opcode.IALU, dest="a", seq=5)
        early = ddg.add_instruction(Opcode.IALU, dest="b", seq=1)
        assert ddg.in_program_order() == [early, late]

    def test_memory_filters(self, figure3):
        ddg, nodes = figure3
        assert {v.label for v in ddg.loads()} == {"n1", "n2"}
        assert {v.label for v in ddg.stores()} == {"n3", "n4"}
        assert len(ddg.memory_instructions()) == 4


class TestDdgEdges:
    def test_duplicate_edges_are_skipped(self):
        ddg = Ddg()
        a = ddg.add_instruction(Opcode.IALU, dest="a")
        b = ddg.add_instruction(Opcode.IALU, dest="b", srcs=("a",))
        assert ddg.add_edge(a.iid, b.iid, DepKind.RF) is not None
        assert ddg.add_edge(a.iid, b.iid, DepKind.RF) is None
        assert len(ddg.edges()) == 1

    def test_edge_endpoints_must_exist(self):
        ddg = Ddg()
        a = ddg.add_instruction(Opcode.IALU, dest="a")
        with pytest.raises(GraphError):
            ddg.add_edge(a.iid, 99, DepKind.RF)

    def test_remove_edges_by_predicate(self, figure3):
        ddg, _ = figure3
        removed = ddg.remove_edges(lambda e: e.kind is DepKind.MA)
        assert len(removed) == 4
        assert all(e.kind is not DepKind.MA for e in ddg.edges())

    def test_consumers_are_rf_targets(self, figure3):
        ddg, nodes = figure3
        assert [c.label for c in ddg.consumers(nodes["n1"].iid)] == ["n4"]
        assert [c.label for c in ddg.consumers(nodes["n2"].iid)] == ["n5"]

    def test_preds_and_succs_are_copies(self, figure3):
        ddg, nodes = figure3
        succs = ddg.succs(nodes["n3"].iid)
        succs.clear()
        assert ddg.succs(nodes["n3"].iid)  # unaffected


class TestClone:
    def test_clone_is_independent(self, figure3):
        ddg, nodes = figure3
        copy = ddg.clone()
        copy.add_instruction(Opcode.IALU, dest="x")
        copy.remove_edges(lambda e: True)
        assert len(copy) == len(ddg) + 1
        assert len(ddg.edges()) > 0

    def test_clone_continues_iid_sequence(self, figure3):
        ddg, _ = figure3
        copy = ddg.clone()
        fresh = copy.add_instruction(Opcode.IALU, dest="x")
        assert fresh.iid not in [v.iid for v in ddg]


class TestSnapshot:
    def test_round_trip_iterates_identically_and_shares_edges(self,
                                                              figure3):
        import json

        ddg, _ = figure3
        # Canonical JSON sorts the succs/preds keys as strings.
        data = json.loads(json.dumps(ddg.to_dict(), sort_keys=True))
        copy = Ddg.from_dict(data)
        assert copy.to_dict() == ddg.to_dict()
        assert [v.iid for v in copy] == [v.iid for v in ddg]
        assert copy.edges() == ddg.edges()
        for instr in copy:
            assert copy.preds(instr.iid) == ddg.preds(instr.iid)
            for edge in copy.preds(instr.iid):
                # The object in the source's succs list, as add_edge
                # shares it.
                (twin,) = [e for e in copy.succs(edge.src) if e == edge]
                assert twin is edge

    def test_pred_edge_without_succ_edge_is_rejected(self, figure3):
        ddg, _ = figure3
        data = ddg.to_dict()
        src = next(key for key, edges in data["succs"].items() if edges)
        data["succs"][src] = data["succs"][src][1:]
        with pytest.raises(GraphError, match="no succ edge"):
            Ddg.from_dict(data)


class TestBuilder:
    def test_def_use_creates_rf_edges(self, stream_loop):
        rf = [e for e in stream_loop.edges() if e.kind is DepKind.RF]
        # agen feeds 3 memory ops + itself (carried); add feeds store;
        # two loads feed add.
        assert len(rf) == 7

    def test_carried_use_distance(self, stream_loop):
        agen = next(v for v in stream_loop if v.name == "agen")
        self_edges = [e for e in stream_loop.succs(agen.iid)
                      if e.dst == agen.iid]
        assert self_edges and self_edges[0].distance == 1

    def test_undefined_register_raises(self):
        b = DdgBuilder()
        with pytest.raises(GraphError, match="undefined register"):
            b.ialu("x", "nope")

    def test_carried_never_defined_raises(self):
        b = DdgBuilder()
        b.ialu("x", b.carried("ghost", 1))
        with pytest.raises(GraphError, match="never-defined"):
            b.build()

    def test_mem_dep_rejects_rf(self, figure3):
        _, nodes = figure3
        b = DdgBuilder()
        with pytest.raises(GraphError):
            b.mem_dep(nodes["n1"], nodes["n3"], DepKind.RF)

    def test_describe_lists_nodes(self, figure3):
        ddg, _ = figure3
        text = ddg.describe()
        for label in ("n1", "n2", "n3", "n4", "n5"):
            assert label in text
