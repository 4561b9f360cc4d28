"""Boundary inputs the pipeline and simulator must handle gracefully:
zero-iteration runs, single-node graphs, and a loop whose achieved II
sits exactly on the resource lower bound."""

import pytest

from repro.alias import MemRef
from repro.arch import BASELINE_CONFIG
from repro.errors import SimulationError
from repro.ir import DdgBuilder
from repro.sched import CoherenceMode, Heuristic, compile_loop
from repro.sched.lint import lint_compilation
from repro.sched.mii import minimum_ii, rec_mii, res_mii
from repro.sim import simulate
from repro.workloads import trace_factory


def compiled(ddg, **kwargs):
    defaults = dict(
        coherence=CoherenceMode.NONE,
        heuristic=Heuristic.MINCOMS,
        trace_factory=trace_factory(64, seed=1),
        unroll_factor=1,
    )
    defaults.update(kwargs)
    return compile_loop(ddg, BASELINE_CONFIG, **defaults)


def all_variants():
    return [
        (coh, heur)
        for coh in CoherenceMode
        for heur in (Heuristic.PREFCLUS, Heuristic.MINCOMS)
    ]


class TestZeroIterations:
    """A loop that never runs is a spec error, not a hang or a crash."""

    @pytest.fixture(scope="class")
    def result(self):
        b = DdgBuilder("zero")
        b.load("x", mem=MemRef("A", stride=4), name="ld")
        b.ialu("y", "x", name="use")
        return compiled(b.build())

    @pytest.mark.parametrize("engine", ["events", "cycles"])
    def test_zero_iterations_raise_cleanly(self, result, engine):
        trace = trace_factory(16, seed=2)(result.ddg)
        with pytest.raises(SimulationError, match="at least one iteration"):
            simulate(result, trace, iterations=0, engine=engine)

    def test_negative_iterations_raise_cleanly(self, result):
        trace = trace_factory(16, seed=2)(result.ddg)
        with pytest.raises(SimulationError, match="at least one iteration"):
            simulate(result, trace, iterations=-3)


class TestSingleNodeDdg:
    @pytest.mark.parametrize("coherence,heuristic", all_variants())
    def test_single_store_compiles_everywhere(self, coherence, heuristic):
        b = DdgBuilder("one-store")
        b.store(mem=MemRef("A", stride=4), name="st")
        result = compiled(
            b.build(), coherence=coherence, heuristic=heuristic
        )
        assert lint_compilation(result) == []
        assert result.ii >= 1
        # Only the store (plus any coherence replicas) is scheduled.
        assert len(result.schedule.ops) >= 1

    def test_single_compute_op_schedules_at_ii_one(self):
        b = DdgBuilder("one-op")
        b.ialu("i", b.carried("i", 1), name="inc")
        result = compiled(b.build())
        assert lint_compilation(result) == []
        assert result.ii == 1
        assert len(result.schedule.ops) == 1

    def test_single_node_simulates(self):
        b = DdgBuilder("one-load")
        b.load("x", mem=MemRef("A", stride=4), name="ld")
        result = compiled(b.build())
        trace = trace_factory(8, seed=2)(result.ddg)
        sim = simulate(result, trace, iterations=8)
        assert sim.stats.issued_ops == 8


class TestExactResourceBound:
    """Nine independent INT ops on four 1-INT-unit clusters: ResMII is
    ceil(9/4) = 3 and nothing else constrains, so the scheduler must
    land on II == ResMII exactly."""

    def build(self):
        b = DdgBuilder("packed")
        for i in range(9):
            b.ialu(f"x{i}", b.carried(f"x{i}", 1), name=f"op{i}")
        return b.build()

    def test_ii_equals_res_mii_exactly(self):
        result = compiled(self.build())
        machine = result.machine
        assert res_mii(result.ddg, machine) == 3
        assert rec_mii(result.ddg, machine) < 3
        assert minimum_ii(result.ddg, machine) == 3
        assert result.ii == 3

    def test_no_slack_in_the_reservation_table(self):
        # With II == ResMII every (slot, unit) of the bounding FU kind
        # is busy except the padding of the last slot.
        result = compiled(self.build())
        by_slot = {}
        for op in result.schedule.ops.values():
            slot = op.time % result.ii
            by_slot[slot] = by_slot.get(slot, 0) + 1
        assert sum(by_slot.values()) == 9
        assert all(count <= 4 for count in by_slot.values())
