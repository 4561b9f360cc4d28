"""Modulo scheduler tests: MII bounds, reservation table, IMS, latencies."""

import pytest

from repro.alias import MemRef
from repro.arch import BASELINE_CONFIG
from repro.errors import SchedulingError
from repro.ir import Ddg, DdgBuilder, DepKind, Opcode
from repro.sched.cluster import ClusterAssignment, HeuristicKind
from repro.sched.mii import assignment_res_mii, minimum_ii, rec_mii, res_mii
from repro.sched.modulo import modulo_schedule
from repro.sched.schedule import (
    BUS_ROW,
    ReservationTable,
    edge_latency,
    table_row,
)


class TestResMii:
    def test_memory_bound(self, stream_loop):
        # 3 memory ops over 4 clusters x 1 unit -> ceil(3/4) = 1.
        assert res_mii(stream_loop, BASELINE_CONFIG) == 1

    def test_many_ops_one_kind(self):
        ddg = Ddg()
        for k in range(9):
            ddg.add_instruction(Opcode.IALU, dest=f"r{k}")
        # 9 integer ops / 4 units -> 3.
        assert res_mii(ddg, BASELINE_CONFIG) == 3

    def test_pinned_ops_bound_per_cluster(self):
        ddg = Ddg()
        for k in range(3):
            ddg.add_instruction(
                Opcode.LOAD, dest=f"r{k}", mem=MemRef("A"), required_cluster=0
            )
        assert res_mii(ddg, BASELINE_CONFIG) == 3

    def test_assignment_aware_bound(self):
        ddg = Ddg()
        iids = [
            ddg.add_instruction(Opcode.LOAD, dest=f"r{k}", mem=MemRef("A")).iid
            for k in range(6)
        ]
        spread = ClusterAssignment({iid: i % 4 for i, iid in enumerate(iids)})
        packed = ClusterAssignment({iid: 0 for iid in iids})
        assert assignment_res_mii(ddg, BASELINE_CONFIG, spread) == 2
        assert assignment_res_mii(ddg, BASELINE_CONFIG, packed) == 6


class TestRecMii:
    def test_acyclic_graph(self, stream_loop):
        assert rec_mii(stream_loop, BASELINE_CONFIG) == 1

    def test_simple_recurrence(self):
        # acc = fmul(acc@1): latency 4 over distance 1 -> RecMII 4.
        b = DdgBuilder()
        b.fmul("acc", b.carried("acc", 1))
        assert rec_mii(b.build(), BASELINE_CONFIG) == 4

    def test_two_op_recurrence(self):
        b = DdgBuilder()
        b.ialu("a", b.carried("c", 1), name="a")
        b.ialu("c", "a", name="c")
        # latency 2 around a distance-1 cycle -> RecMII 2.
        assert rec_mii(b.build(), BASELINE_CONFIG) == 2

    def test_minimum_ii_is_max(self):
        b = DdgBuilder()
        b.fmul("acc", b.carried("acc", 1))
        for k in range(9):
            b.ialu(f"r{k}")
        ddg = b.build()
        assert minimum_ii(ddg, BASELINE_CONFIG) == max(
            res_mii(ddg, BASELINE_CONFIG), 4
        )


class TestEdgeLatency:
    def test_rf_from_load_uses_assumed(self, stream_loop):
        load = next(v for v in stream_loop if v.name == "lda")
        edge = next(
            e for e in stream_loop.succs(load.iid) if e.kind is DepKind.RF
        )
        assert edge_latency(edge, stream_loop, BASELINE_CONFIG) == 1
        assert edge_latency(
            edge, stream_loop, BASELINE_CONFIG, {load.iid: 15}
        ) == 15

    def test_sync_and_ma_are_zero(self, figure3):
        ddg, nodes = figure3
        ma = next(e for e in ddg.edges() if e.kind is DepKind.MA)
        assert edge_latency(ma, ddg, BASELINE_CONFIG) == 0

    def test_mf_is_store_latency(self, figure3):
        ddg, _ = figure3
        mf = next(e for e in ddg.edges() if e.kind is DepKind.MF)
        assert edge_latency(mf, ddg, BASELINE_CONFIG) == 1


class TestReservationTable:
    def test_fu_capacity(self):
        table = ReservationTable(BASELINE_CONFIG, ii=2)
        ddg = Ddg()
        a = ddg.add_instruction(Opcode.IALU, dest="a")
        b = ddg.add_instruction(Opcode.IALU, dest="b")
        table.place(a.iid, table_row(a, 0), time=0)
        assert not table.fits(table_row(b, 0), time=2)  # same modulo slot
        assert table.fits(table_row(b, 0), time=1)
        assert table.fits(table_row(b, 1), time=0)  # other cluster

    def test_rows_split_clusters_and_unit_classes(self):
        ddg = Ddg()
        add = ddg.add_instruction(Opcode.IALU, dest="a")
        mul = ddg.add_instruction(Opcode.FMUL, dest="m")
        copy = ddg.add_instruction(Opcode.COPY, dest="c")
        rows = {table_row(instr, cluster)
                for instr in (add, mul) for cluster in range(4)}
        assert len(rows) == 8
        assert table_row(copy, 0) == table_row(copy, 3) == BUS_ROW

    def test_remove_frees_slot(self):
        table = ReservationTable(BASELINE_CONFIG, ii=2)
        ddg = Ddg()
        a = ddg.add_instruction(Opcode.IALU, dest="a")
        row = table_row(a, 0)
        table.place(a.iid, row, 0)
        table.remove(a.iid, row, 0)
        assert table.fits(row, 0)

    def test_copies_occupy_bus_for_latency_slots(self):
        table = ReservationTable(BASELINE_CONFIG, ii=4)
        ddg = Ddg()
        copies = [
            ddg.add_instruction(Opcode.COPY, dest=f"c{k}") for k in range(5)
        ]
        # 4 buses, each transfer holds 2 slots; slot 0 overlaps slot 3+1...
        for k in range(4):
            table.place(copies[k].iid, BUS_ROW, 0)
        assert not table.fits(BUS_ROW, 0)
        assert not table.fits(BUS_ROW, 1)  # window [1,2] overlaps [0,1]?
        # slot 2: windows [2,3] do not overlap [0,1]
        assert table.fits(BUS_ROW, 2)

    def test_conflicting_ops_reports_victims(self):
        table = ReservationTable(BASELINE_CONFIG, ii=1)
        ddg = Ddg()
        a = ddg.add_instruction(Opcode.IALU, dest="a")
        b = ddg.add_instruction(Opcode.IALU, dest="b")
        table.place(a.iid, table_row(a, 0), 0)
        assert table.conflicting_ops(table_row(b, 0), 0) == [a.iid]


class TestModuloScheduler:
    def _uniform_assignment(self, ddg, cluster=0):
        return ClusterAssignment({v.iid: cluster for v in ddg})

    def test_stream_loop_schedules_at_mii(self, stream_loop):
        assignment = ClusterAssignment(
            {v.iid: i % 4 for i, v in enumerate(stream_loop)}
        )
        sched = modulo_schedule(stream_loop, BASELINE_CONFIG, assignment)
        sched.validate()
        assert sched.ii >= minimum_ii(stream_loop, BASELINE_CONFIG)

    def test_single_cluster_memory_serialization(self, stream_loop):
        assignment = self._uniform_assignment(stream_loop)
        sched = modulo_schedule(
            stream_loop, BASELINE_CONFIG, assignment,
            min_ii=assignment_res_mii(stream_loop, BASELINE_CONFIG, assignment),
        )
        sched.validate()
        assert sched.ii >= 3  # three memory ops share one memory unit

    def test_figure3_schedules_under_all_coherence(self, figure3):
        ddg, _ = figure3
        assignment = ClusterAssignment({v.iid: 0 for v in ddg})
        sched = modulo_schedule(ddg, BASELINE_CONFIG, assignment)
        sched.validate()

    def test_recurrence_respected(self):
        b = DdgBuilder()
        b.fmul("acc", b.carried("acc", 1), name="mul")
        ddg = b.build()
        sched = modulo_schedule(
            ddg, BASELINE_CONFIG, ClusterAssignment({0: 0})
        )
        assert sched.ii == 4

    def test_impossible_zero_distance_cycle_raises(self):
        ddg = Ddg()
        a = ddg.add_instruction(Opcode.IALU, dest="a")
        c = ddg.add_instruction(Opcode.IALU, dest="c", srcs=("a",))
        ddg.add_edge(a.iid, c.iid, DepKind.RF, 0)
        ddg.add_edge(c.iid, a.iid, DepKind.RF, 0)
        with pytest.raises(SchedulingError):
            modulo_schedule(
                ddg, BASELINE_CONFIG,
                ClusterAssignment({a.iid: 0, c.iid: 0}),
            )

    def test_validate_catches_moved_op(self, stream_loop):
        assignment = ClusterAssignment(
            {v.iid: i % 4 for i, v in enumerate(stream_loop)}
        )
        sched = modulo_schedule(stream_loop, BASELINE_CONFIG, assignment)
        # Corrupt: move a dependent op before its producer.
        from repro.sched.schedule import ScheduledOp

        load = next(v for v in stream_loop if v.name == "add")
        sched.ops[load.iid] = ScheduledOp(load.iid, 0, -100)
        with pytest.raises(SchedulingError):
            sched.validate()


class TestLadderBound:
    """``max_ii`` caps the II window; the latency ladder caps it at the
    base II, the only II it accepts."""

    @pytest.fixture(scope="class")
    def stencil(self):
        """The schedule stage's input for a DDGT stencil whose base II
        and one pessimistic level each fail at their first II."""
        from unittest import mock

        from repro.scenarios import ScenarioParams, build_scenario_ddg
        from repro.sched import stages

        captured = []

        def capture(work, machine, assignment):
            captured.append((work.clone(), machine, assignment))
            return stages.schedule_with_latency_policy(work, machine,
                                                       assignment)

        with mock.patch.object(stages, "run_schedule", capture):
            stages.compile_loop(
                build_scenario_ddg(ScenarioParams(
                    family="stencil", size=8, recurrence=0, seed=3)),
                BASELINE_CONFIG, coherence=stages.CoherenceMode.DDGT,
                heuristic=HeuristicKind.MINCOMS,
            )
        (inputs,) = captured
        return inputs

    def test_never_returns_an_ii_above_max_ii(self, stencil):
        ddg, machine, assignment = stencil
        floor = assignment_res_mii(ddg, machine, assignment)
        free = modulo_schedule(ddg, machine, assignment, min_ii=floor)
        lower = max(floor, minimum_ii(ddg, machine))
        assert free.ii > lower  # the uncapped search went past its start
        for k in range(lower, free.ii + 3):
            if k < free.ii:
                with pytest.raises(SchedulingError,
                                   match=rf"II in \[{lower}, {k}\]"):
                    modulo_schedule(ddg, machine, assignment,
                                    min_ii=floor, max_ii=k)
            else:
                capped = modulo_schedule(ddg, machine, assignment,
                                         min_ii=floor, max_ii=k)
                assert capped.ii == free.ii <= k
                assert capped.ops == free.ops

    @pytest.mark.parametrize("min_ii, max_ii, window", [
        (None, 3, r"II in \[1, 3\]"),  # below the recurrence bound
        (6, 5, r"II in \[6, 5\]"),  # below the requested floor
    ])
    def test_window_below_minimum_ii_raises(self, min_ii, max_ii, window):
        # acc = fmul(acc@1): RecMII 4.
        b = DdgBuilder()
        b.fmul("acc", b.carried("acc", 1))
        ddg = b.build()
        with pytest.raises(SchedulingError, match=window):
            modulo_schedule(ddg, BASELINE_CONFIG,
                            ClusterAssignment({v.iid: 0 for v in ddg}),
                            min_ii=min_ii, max_ii=max_ii)

    def test_partial_recurrence_matches_whole_graph_reference(self):
        """Two cycles, one through a load; a tail hanging off them, a
        self loop, and a carried edge between acyclic ops add edges no
        recurrence uses."""
        import sched_reference as reference

        b = DdgBuilder()
        b.ialu("a", b.carried("c", 2), name="a")
        b.fmul("c", "a", name="c")
        b.load("x", b.carried("y", 1), mem=MemRef("A"), name="x")
        b.ialu("y", "x", "c", name="y")
        b.falu("z", "y", b.carried("x", 1), name="z")
        b.ialu("w", b.carried("w", 3), "z", name="w")
        b.ialu("u", name="u")
        b.ialu("v", b.carried("u", 1), name="v")
        ddg = b.build()
        load = next(v.iid for v in ddg if v.name == "x")
        for latency in (1, 5, 40, 200):
            assumed = {load: latency}
            assert rec_mii(ddg, BASELINE_CONFIG, assumed) == \
                reference.rec_mii(ddg, BASELINE_CONFIG, assumed) == \
                max(3, latency + 1)
            assert minimum_ii(ddg, BASELINE_CONFIG, assumed) == \
                reference.minimum_ii(ddg, BASELINE_CONFIG, assumed)

    def test_pessimistic_levels_try_at_most_one_ii(self, stencil,
                                                   monkeypatch):
        """Counted ``_try_ii`` calls per ``modulo_schedule`` call of the
        ladder: uncapped, the failing level went on to the next II and
        the ladder discarded what it found there."""
        from repro.sched import latency, modulo

        tries = []
        try_ii, schedule = modulo._try_ii, latency.modulo_schedule

        def counting_try(*args, **kwargs):
            tries[-1] += 1
            return try_ii(*args, **kwargs)

        def counting_schedule(*args, **kwargs):
            tries.append(0)
            return schedule(*args, **kwargs)

        monkeypatch.setattr(modulo, "_try_ii", counting_try)
        monkeypatch.setattr(latency, "modulo_schedule", counting_schedule)
        latency.schedule_with_latency_policy(*stencil)
        assert len(tries) == 4  # the base schedule and three levels
        assert tries[0] > 1  # the base search is not capped
        assert max(tries[1:]) <= 1

    @pytest.mark.parametrize("family, recurrence, seed, counts", [
        # The stencil of the class fixture.
        ("stencil", 0, 3, {"no_fit": 1, "too_long": 1, "accepted": 1}),
        ("alias", 3, 7, {"recmii": 1, "no_fit": 1, "accepted": 1}),
    ])
    def test_ladder_levels_counted_by_outcome(self, family, recurrence,
                                              seed, counts):
        """``sched.ladder_levels`` counts each pessimistic level the
        ladder visits by outcome, on two small DDGT/MinComs compiles."""
        from repro.obs import metrics
        from repro.scenarios import ScenarioParams, build_scenario_ddg
        from repro.sched import stages

        with metrics.capture() as reg:
            stages.compile_loop(
                build_scenario_ddg(ScenarioParams(
                    family=family, size=8, recurrence=recurrence,
                    seed=seed)),
                BASELINE_CONFIG, coherence=stages.CoherenceMode.DDGT,
                heuristic=HeuristicKind.MINCOMS,
            )
        assert {
            dict(labels)["outcome"]: value
            for labels, value in reg.counter_items("sched.ladder_levels")
        } == counts
