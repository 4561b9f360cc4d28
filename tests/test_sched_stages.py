"""The staged pipeline: the front-end artifact key, artifact sharing."""

import pytest

from repro.api.artifacts import (
    DiskArtifactStore,
    MemoryArtifactStore,
    artifact_stats,
    reset_artifact_stats,
)
from repro.arch.config import BASELINE_CONFIG
from repro.sched import CoherenceMode, Heuristic, compile_loop
from repro.sched.stages import (
    FRONTEND_STAGES,
    frontend_artifact_key,
    reset_stage_counters,
    stage_counters,
)
from repro.workloads import get_benchmark, trace_factory
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
    reset_artifact_stats()
    yield
    reset_stage_counters()
    reset_artifact_stats()


@pytest.fixture
def loop_spec():
    bench = get_benchmark("gsmdec")
    return bench, bench.loops[0]


class TestStageKeys:
    TRACE = "iters256-seed1-padded1"

    def test_every_input_changes_the_key(self, loop_spec):
        _, spec = loop_spec
        base_args = (spec.ddg, MACHINE, None, True, self.TRACE, 256)
        base = frontend_artifact_key(*base_args)
        assert base.startswith("frontend-")
        assert frontend_artifact_key(*base_args) == base
        variations = {
            "machine": (spec.ddg, MACHINE.with_interleave(8), None, True,
                        self.TRACE, 256),
            "unroll factor": (spec.ddg, MACHINE, 2, True, self.TRACE, 256),
            "add_mem_deps": (spec.ddg, MACHINE, None, False, self.TRACE,
                             256),
            "trace key": (spec.ddg, MACHINE, None, True,
                          "iters256-seed2-padded1", 256),
            "no trace": (spec.ddg, MACHINE, None, True, None, 256),
            "profile_iterations": (spec.ddg, MACHINE, None, True,
                                   self.TRACE, 128),
        }
        keys = {name: frontend_artifact_key(*args)
                for name, args in variations.items()}
        for name, key in keys.items():
            assert key != base, name
        assert len(set(keys.values())) == len(keys)

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
        assert frontend_artifact_key(forward, MACHINE, 1, True, None, 256) \
            != frontend_artifact_key(backward, MACHINE, 1, True, None, 256)

    def test_trace_spec_key_and_memoization(self):
        spec = trace_factory(256, seed=11)
        assert spec == trace_factory(256, seed=11)
        assert spec.key == "iters256-seed11-padded1"
        assert trace_factory(256, seed=12) != spec
        assert trace_factory(256, seed=12).key != spec.key
        # Every key keeps the suffix stored front-end artifacts carry.
        assert TraceSpec(64, 3).key == "iters64-seed3-padded1"


def _whole(result):
    """Everything a compilation hands the simulator and the records, in
    iteration order."""
    return (
        result.ddg.to_dict(),
        result.source.to_dict(),
        [(iid, op.cluster, op.time)
         for iid, op in result.schedule.ops.items()],
        list(result.schedule.assumed_latency.items()),
        [(iid, p.counts) for iid, p in result.profiles.items()],
        result.copies,
        result.ii,
        result.unroll_factor,
    )


class TestFrontendSharing:
    def _compile(self, loop_spec, coherence, heuristic, artifacts):
        bench, spec = loop_spec
        return compile_loop(
            spec.ddg,
            bench.machine(MACHINE),
            coherence=coherence,
            heuristic=heuristic,
            trace_factory=trace_factory(256, seed=bench.profile_seed),
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

    def test_variant_cross_is_one_entry(self, loop_spec):
        """One lookup per compile; one miss and one put per front end."""
        artifacts = MemoryArtifactStore()
        for coherence, heuristic in ALL_VARIANTS:
            self._compile(loop_spec, coherence, heuristic, artifacts)
        stats = artifact_stats()
        assert (stats.lookups, stats.misses, stats.puts) == (
            len(ALL_VARIANTS), 1, 1)
        (key,) = artifacts.keys()
        assert key.startswith("frontend-")

    def test_fresh_disk_store_replays_the_cross(self, loop_spec, tmp_path):
        self._compile(loop_spec, CoherenceMode.NONE, Heuristic.MINCOMS,
                      DiskArtifactStore(tmp_path))
        reset_stage_counters()
        replay = DiskArtifactStore(tmp_path)
        for coherence, heuristic in ALL_VARIANTS:
            self._compile(loop_spec, coherence, heuristic, replay)
        counters = stage_counters()
        assert counters.frontend_executions() == 0
        assert counters.executed["schedule"] == len(ALL_VARIANTS)

    def test_shared_frontend_results_identical(self, loop_spec, tmp_path):
        """No store, a cold store, a warm store and a second disk store on
        the same directory compile every variant identically — iteration
        order included, which ``Ddg.fingerprint()`` ignores."""
        warm = MemoryArtifactStore()
        self._compile(loop_spec, CoherenceMode.NONE, Heuristic.MINCOMS, warm)
        for n, (coherence, heuristic) in enumerate(ALL_VARIANTS):
            root = tmp_path / str(n)
            results = {
                case: _whole(self._compile(loop_spec, coherence, heuristic,
                                           store))
                for case, store in (
                    ("no store", None),
                    ("cold store", DiskArtifactStore(root)),
                    ("warm store", warm),
                    ("second disk instance", DiskArtifactStore(root)),
                )
            }
            want = results.pop("no store")
            for case, got in results.items():
                assert got == want, (case, coherence, heuristic)
        assert len(warm) == 1

    def test_unkeyed_trace_factory_still_compiles(self, loop_spec):
        """A factory without a .key has no content key: the front end
        runs uncached, leaves the store empty and compiles what the keyed
        spec of the same trace compiles."""
        bench, spec = loop_spec
        keyed_factory = trace_factory(256, seed=bench.profile_seed)
        keyed = self._compile(loop_spec, CoherenceMode.MDC,
                              Heuristic.PREFCLUS, MemoryArtifactStore())
        reset_stage_counters()
        reset_artifact_stats()
        artifacts = MemoryArtifactStore()
        for _ in range(2):
            unkeyed = compile_loop(
                spec.ddg,
                bench.machine(MACHINE),
                coherence=CoherenceMode.MDC,
                heuristic=Heuristic.PREFCLUS,
                trace_factory=lambda ddg: keyed_factory(ddg),
                unroll_factor=spec.unroll,
                artifacts=artifacts,
            )
            assert _whole(unkeyed) == _whole(keyed)
        counters = stage_counters()
        assert counters.executed["unroll"] == 2
        assert counters.executed["profile"] == 2
        assert len(artifacts) == 0
        assert artifact_stats().lookups == 0

    def test_explicit_profiles_bypass_the_store(self, loop_spec):
        bench, spec = loop_spec
        keyed = self._compile(loop_spec, CoherenceMode.MDC,
                              Heuristic.PREFCLUS, MemoryArtifactStore())
        reset_stage_counters()
        artifacts = MemoryArtifactStore()
        given = compile_loop(
            spec.ddg,
            bench.machine(MACHINE),
            coherence=CoherenceMode.MDC,
            heuristic=Heuristic.PREFCLUS,
            profiles=keyed.profiles,
            unroll_factor=spec.unroll,
            artifacts=artifacts,
        )
        assert _whole(given) == _whole(keyed)
        assert len(artifacts) == 0
        counters = stage_counters()
        assert counters.executed["unroll"] == 1
        assert "profile" not in counters.executed

