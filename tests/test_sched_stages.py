"""The staged pipeline: stage table, key derivation, artifact sharing."""

import pytest

from repro.api.artifacts import MemoryArtifactStore
from repro.arch.config import BASELINE_CONFIG
from repro.sched import CoherenceMode, Heuristic, compile_loop
from repro.sched.stages import (
    FRONTEND_STAGES,
    PIPELINE_STAGES,
    STAGE_BY_NAME,
    disambiguate_key,
    profile_key,
    reset_stage_counters,
    stage_counters,
    unroll_key,
)
from repro.workloads import cached_trace_spec, get_benchmark
from repro.workloads.traces import TraceSpec

MACHINE = BASELINE_CONFIG
ALL_VARIANTS = [
    (coherence, heuristic)
    for coherence in CoherenceMode
    for heuristic in (Heuristic.PREFCLUS, Heuristic.MINCOMS)
]


@pytest.fixture(autouse=True)
def fresh_counters():
    reset_stage_counters()
    yield
    reset_stage_counters()


@pytest.fixture
def loop_spec():
    bench = get_benchmark("gsmdec")
    return bench, bench.loops[0]


class TestStageTable:
    def test_declared_order_and_frontend(self):
        names = [s.name for s in PIPELINE_STAGES]
        assert names == [
            "unroll", "disambiguate", "profile", "coherence", "assign",
            "copies", "schedule", "postpass", "verify",
        ]
        assert FRONTEND_STAGES == ("unroll", "disambiguate", "profile")
        assert all(not STAGE_BY_NAME[n].cacheable
                   for n in names if n not in FRONTEND_STAGES)

    def test_dataflow_is_connected(self):
        """Every stage input is either a pipeline parameter or an output
        of an earlier stage."""
        parameters = {
            "source", "machine", "unroll_factor", "add_mem_deps", "trace",
            "coherence", "heuristic",
        }
        available = set(parameters)
        for stage in PIPELINE_STAGES:
            missing = set(stage.inputs) - available
            assert not missing, f"{stage.name} consumes unknown {missing}"
            available |= set(stage.outputs)


class TestStageKeys:
    def test_unroll_key_sees_graph_machine_and_factor(self, loop_spec):
        _, spec = loop_spec
        base = unroll_key(spec.ddg, MACHINE, None)
        assert base.startswith("unroll-")
        assert unroll_key(spec.ddg, MACHINE, None) == base
        assert unroll_key(spec.ddg, MACHINE, 2) != base
        other_machine = MACHINE.with_interleave(8)
        assert unroll_key(spec.ddg, other_machine, None) != base

    def test_equal_fingerprint_different_order_graphs_never_collide(self):
        """fingerprint() canonicalizes iteration order away; artifact
        keys must not, since deterministic passes are order-sensitive."""
        from repro.ir.ddg import Ddg
        from repro.ir.instructions import Instruction, Opcode

        first = Instruction(iid=0, opcode=Opcode.IALU, seq=0, dest="a")
        second = Instruction(iid=1, opcode=Opcode.IALU, seq=1, dest="b")
        forward = Ddg("g")
        forward.insert(first)
        forward.insert(second)
        backward = Ddg("g")
        backward.insert(second)
        backward.insert(first)
        assert forward.fingerprint() == backward.fingerprint()
        assert forward.to_dict() != backward.to_dict()
        assert unroll_key(forward, MACHINE, 1) != \
            unroll_key(backward, MACHINE, 1)

    def test_chained_keys_propagate(self):
        a = disambiguate_key("unroll-aaa", True)
        assert a != disambiguate_key("unroll-bbb", True)
        assert a != disambiguate_key("unroll-aaa", False)
        p = profile_key(a, MACHINE, "iters256-seed1-padded1", 256)
        assert p != profile_key(a, MACHINE, "iters256-seed2-padded1", 256)
        assert p != profile_key(a, MACHINE, "iters256-seed1-padded1", 128)

    def test_trace_spec_key_and_memoization(self):
        spec = cached_trace_spec(256, seed=11)
        assert spec is cached_trace_spec(256, seed=11)
        assert spec.key == "iters256-seed11-padded1"
        assert cached_trace_spec(256, seed=12) is not spec
        assert TraceSpec(64, 3, padded=False).key == "iters64-seed3-padded0"


class TestFrontendSharing:
    def _compile(self, loop_spec, coherence, heuristic, artifacts):
        bench, spec = loop_spec
        return compile_loop(
            spec.ddg,
            bench.machine(MACHINE),
            coherence=coherence,
            heuristic=heuristic,
            trace_factory=cached_trace_spec(256, seed=bench.profile_seed),
            unroll_factor=spec.unroll,
            artifacts=artifacts,
        )

    def test_variant_cross_executes_frontend_once(self, loop_spec):
        artifacts = MemoryArtifactStore()
        for coherence, heuristic in ALL_VARIANTS:
            self._compile(loop_spec, coherence, heuristic, artifacts)
        counters = stage_counters()
        for stage in FRONTEND_STAGES:
            assert counters.executed[stage] == 1, stage
        # Back-end stages ran for every one of the six variants.
        assert counters.executed["schedule"] == len(ALL_VARIANTS)
        assert counters.frontend_executions() == len(FRONTEND_STAGES)

    def test_without_store_frontend_repeats(self, loop_spec):
        for coherence, heuristic in ALL_VARIANTS:
            self._compile(loop_spec, coherence, heuristic, None)
        counters = stage_counters()
        for stage in FRONTEND_STAGES:
            assert counters.executed[stage] == len(ALL_VARIANTS), stage

    def test_shared_frontend_results_identical(self, loop_spec):
        artifacts = MemoryArtifactStore()
        for coherence, heuristic in ALL_VARIANTS:
            cold = self._compile(loop_spec, coherence, heuristic, None)
            warm = self._compile(loop_spec, coherence, heuristic, artifacts)
            assert cold.ii == warm.ii
            assert cold.unroll_factor == warm.unroll_factor
            assert cold.ddg.fingerprint() == warm.ddg.fingerprint()
            assert cold.source.fingerprint() == warm.source.fingerprint()
            assert cold.num_copies == warm.num_copies
            assert {
                iid: op.cluster for iid, op in cold.schedule.ops.items()
            } == {
                iid: op.cluster for iid, op in warm.schedule.ops.items()
            }

    def test_unkeyed_trace_factory_still_compiles(self, loop_spec):
        """A plain closure (no .key) disables profile caching only."""
        from repro.workloads import trace_factory

        bench, spec = loop_spec
        artifacts = MemoryArtifactStore()
        for _ in range(2):
            compile_loop(
                spec.ddg,
                bench.machine(MACHINE),
                coherence=CoherenceMode.MDC,
                heuristic=Heuristic.PREFCLUS,
                trace_factory=trace_factory(256, seed=bench.profile_seed),
                unroll_factor=spec.unroll,
                artifacts=artifacts,
            )
        counters = stage_counters()
        assert counters.executed["unroll"] == 1
        assert counters.executed["profile"] == 2
        assert not [k for k in artifacts.keys()
                    if k.startswith("profile-")]
