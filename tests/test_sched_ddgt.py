"""DDG-transformation tests: the paper's Figure 3 -> Figure 5 walkthrough.

Section 3.3 spells out exactly what ``transform_DDG`` must produce on the
example graph; these tests verify every claim:

* n3 and n4 are replicated 3 times (4 clusters), one instance per cluster;
* the MA dependence n1->n4 is redundant (covered by the RF n1->n4) and
  disappears;
* the MA dependence n1->n3 needs a *fake consumer* (NEW_CONS), because
  n1's only consumer (n4) is a memory instruction sequentially posterior
  to and dependent on n3;
* the MA dependences from n2 become SYNC edges from n5 (the consumer);
* no MA edge survives, self MO edges are not replicated, and memory
  dependences between the two replicated stores are mapped instance-wise.
"""

import pytest

from repro.arch import BASELINE_CONFIG
from repro.ir import DepKind, Opcode, verify_ddg
from repro.sched import apply_ddgt


@pytest.fixture
def transformed(figure3):
    ddg, nodes = figure3
    result = apply_ddgt(ddg, BASELINE_CONFIG)
    return ddg, nodes, result


class TestStoreReplication:
    def test_both_stores_replicated(self, transformed):
        _, nodes, result = transformed
        assert set(result.replicas) == {nodes["n3"].iid, nodes["n4"].iid}
        assert result.instance_count == 8  # 2 stores x 4 clusters

    def test_one_instance_per_cluster(self, transformed):
        _, nodes, result = transformed
        for original, instances in result.replicas.items():
            clusters = [
                result.ddg.node(iid).required_cluster for iid in instances
            ]
            assert sorted(clusters) == [0, 1, 2, 3]

    def test_instances_share_seq_and_memref(self, transformed):
        _, nodes, result = transformed
        for original, instances in result.replicas.items():
            base = result.ddg.node(original)
            for iid in instances:
                inst = result.ddg.node(iid)
                assert inst.seq == base.seq
                assert inst.mem is base.mem
                assert inst.replica_group == original

    def test_input_rf_edges_fanned_out(self, transformed):
        _, nodes, result = transformed
        # n4 stores n1's value: every instance must receive it.
        for iid in result.replicas[nodes["n4"].iid]:
            rf = [e for e in result.ddg.preds(iid) if e.kind is DepKind.RF]
            assert any(e.src == nodes["n1"].iid for e in rf)

    def test_self_mo_not_replicated(self, transformed):
        _, nodes, result = transformed
        ddg = result.ddg
        for instances in result.replicas.values():
            for iid in instances[1:]:  # new instances only
                assert not any(
                    e.src == e.dst for e in ddg.succs(iid)
                ), "self MO must not be copied onto instances"

    def test_store_store_edges_instance_wise(self, transformed):
        _, nodes, result = transformed
        ddg = result.ddg
        n3_instances = result.replicas[nodes["n3"].iid]
        n4_instances = result.replicas[nodes["n4"].iid]
        for k, (a, b) in enumerate(zip(n3_instances, n4_instances)):
            # Same-cluster instances are ordered: MO n3.k -> n4.k (d0).
            assert ddg.has_edge(a, b, DepKind.MO)
        # No cross-cluster instance MO pairs beyond the instance-wise ones.
        for i, a in enumerate(n3_instances):
            for j, b in enumerate(n4_instances):
                if i != j:
                    assert not ddg.has_edge(a, b, DepKind.MO)


class TestLoadStoreSynchronization:
    def test_no_ma_edges_survive(self, transformed):
        _, _, result = transformed
        assert all(e.kind is not DepKind.MA for e in result.ddg.edges())

    def test_redundant_ma_removed_without_sync(self, transformed):
        _, nodes, result = transformed
        # n1->n4 was covered by RF n1->n4: counted redundant (one per
        # instance of n4).
        assert result.redundant_ma == 4

    def test_fake_consumer_created_for_n1_n3(self, transformed):
        _, nodes, result = transformed
        ddg = result.ddg
        assert len(result.fake_consumers) == 1
        fake = ddg.node(result.fake_consumers[0])
        assert fake.opcode is Opcode.FAKE
        # It reads the load's value...
        assert ddg.has_edge(nodes["n1"].iid, fake.iid, DepKind.RF)
        # ...and synchronizes every instance of n3.
        for iid in result.replicas[nodes["n3"].iid]:
            assert ddg.has_edge(fake.iid, iid, DepKind.SYNC)

    def test_n5_synchronizes_n3_and_n4(self, transformed):
        _, nodes, result = transformed
        ddg = result.ddg
        for store in ("n3", "n4"):
            for iid in result.replicas[nodes[store].iid]:
                assert ddg.has_edge(nodes["n5"].iid, iid, DepKind.SYNC)

    def test_transformed_graph_is_valid(self, transformed):
        _, _, result = transformed
        verify_ddg(result.ddg, BASELINE_CONFIG)

    def test_original_graph_untouched(self, figure3):
        ddg, _ = figure3
        before_nodes = len(ddg)
        before_edges = len(ddg.edges())
        apply_ddgt(ddg, BASELINE_CONFIG)
        assert len(ddg) == before_nodes
        assert len(ddg.edges()) == before_edges


class TestEdgeCases:
    def test_independent_stores_not_replicated(self, stream_loop):
        result = apply_ddgt(stream_loop, BASELINE_CONFIG)
        assert result.replicas == {}
        assert len(result.ddg) == len(stream_loop)

    def test_store_with_only_self_dependence_not_replicated(self):
        from repro.alias import MemRef
        from repro.ir import DdgBuilder

        b = DdgBuilder()
        st = b.store(mem=MemRef("A", stride=0), name="st")
        ddg = b.build()
        ddg.add_edge(st.iid, st.iid, DepKind.MO, 1)
        result = apply_ddgt(ddg, BASELINE_CONFIG)
        assert result.replicas == {}

    def test_ma_with_loadless_consumer_uses_fake(self):
        """A load with no register consumers at all gets a fake consumer."""
        from repro.alias import MemRef
        from repro.ir import DdgBuilder

        b = DdgBuilder()
        load = b.load("x", mem=MemRef("A"), name="ld")
        store = b.store(mem=MemRef("A"), name="st")
        b.mem_dep(load, store, DepKind.MA, 0)
        ddg = b.build()
        result = apply_ddgt(ddg, BASELINE_CONFIG)
        assert len(result.fake_consumers) == 1
        fake = result.fake_consumers[0]
        for iid in result.replicas[store.iid]:
            assert result.ddg.has_edge(fake, iid, DepKind.SYNC)
