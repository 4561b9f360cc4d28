"""The staged pipeline: the front-end artifact key, artifact sharing,
decoded replays through a bare store and through a group memo."""

import warnings

import pytest

from repro.alias.profiles import ClusterProfile
from repro.api import ALL_VARIANTS as API_VARIANTS
from repro.api import MemoryStore, Plan, Runner
from repro.api.artifacts import (
    DiskArtifactStore,
    MemoryArtifactStore,
    artifact_stats,
    reset_artifact_stats,
)
from repro.api.core import LoopMemo
from repro.arch.config import BASELINE_CONFIG
from repro.ir import Ddg, Opcode
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


def compile_variant(loop_spec, coherence, heuristic, artifacts):
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


class TestFrontendSharing:
    def test_variant_cross_executes_frontend_once(self, loop_spec):
        artifacts = MemoryArtifactStore()
        for coherence, heuristic in ALL_VARIANTS:
            compile_variant(loop_spec, coherence, heuristic, artifacts)
        counters = stage_counters()
        for stage in FRONTEND_STAGES:
            assert counters.executed[stage] == 1, stage
        # Back-end stages ran for every one of the six variants.
        assert counters.executed["schedule"] == len(ALL_VARIANTS)
        assert counters.frontend_executions() == len(FRONTEND_STAGES)

    def test_without_store_frontend_repeats(self, loop_spec):
        for coherence, heuristic in ALL_VARIANTS:
            compile_variant(loop_spec, coherence, heuristic, None)
        counters = stage_counters()
        for stage in FRONTEND_STAGES:
            assert counters.executed[stage] == len(ALL_VARIANTS), stage

    def test_variant_cross_is_one_entry(self, loop_spec):
        """One lookup per compile; one miss and one put per front end."""
        artifacts = MemoryArtifactStore()
        for coherence, heuristic in ALL_VARIANTS:
            compile_variant(loop_spec, coherence, heuristic, artifacts)
        stats = artifact_stats()
        assert (stats.lookups, stats.misses, stats.puts) == (
            len(ALL_VARIANTS), 1, 1)
        assert stats.hit_rate == pytest.approx(5 / 6)
        (key,) = artifacts.keys()
        assert key.startswith("frontend-")

    def test_fresh_disk_store_replays_the_cross(self, loop_spec, tmp_path):
        compile_variant(loop_spec, CoherenceMode.NONE, Heuristic.MINCOMS,
                        DiskArtifactStore(tmp_path))
        reset_stage_counters()
        replay = DiskArtifactStore(tmp_path)
        for coherence, heuristic in ALL_VARIANTS:
            compile_variant(loop_spec, coherence, heuristic, replay)
        counters = stage_counters()
        assert counters.frontend_executions() == 0
        assert counters.executed["schedule"] == len(ALL_VARIANTS)

    def test_shared_frontend_results_identical(self, loop_spec, tmp_path):
        """No store, a cold store, a warm store and a second disk store on
        the same directory compile every variant identically — iteration
        order included, which ``Ddg.fingerprint()`` ignores."""
        warm = MemoryArtifactStore()
        compile_variant(loop_spec, CoherenceMode.NONE, Heuristic.MINCOMS,
                        warm)
        for n, (coherence, heuristic) in enumerate(ALL_VARIANTS):
            root = tmp_path / str(n)
            results = {
                case: _whole(compile_variant(loop_spec, coherence,
                                             heuristic, store))
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
        keyed = compile_variant(loop_spec, CoherenceMode.MDC,
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
        keyed = compile_variant(loop_spec, CoherenceMode.MDC,
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


class TestDecodedReplay:
    """A bare store decodes a front end afresh for every replay; a group
    memo decodes it once and hands every later compile the same value.
    Either way each compile gets its own copy: what one compile does to
    its graph or profiles never reaches the next."""

    VARIANTS = sorted(ALL_VARIANTS, key=lambda v: v[0] is not
                      CoherenceMode.DDGT)

    def test_ddgt_first_then_the_cross_on_one_store(self, loop_spec,
                                                    tmp_path):
        """DDGT rewrites the graph it is handed; the compiles after it on
        the same store (memory, disk, and a memo) match a fresh store and
        no store, variant for variant."""
        assert self.VARIANTS[0][0] is CoherenceMode.DDGT
        for shared in (MemoryArtifactStore(), DiskArtifactStore(tmp_path),
                       LoopMemo((), MemoryArtifactStore())):
            for coherence, heuristic in self.VARIANTS * 2:
                got = _whole(compile_variant(loop_spec, coherence,
                                             heuristic, shared))
                fresh = _whole(compile_variant(loop_spec, coherence,
                                               heuristic,
                                               MemoryArtifactStore()))
                alone = _whole(compile_variant(loop_spec, coherence,
                                               heuristic, None))
                assert got == fresh == alone, (coherence, heuristic)

    def test_mutating_a_handed_out_front_end_never_reaches_a_replay(
            self, loop_spec):
        memo = LoopMemo((), MemoryArtifactStore())
        want = _whole(compile_variant(loop_spec, CoherenceMode.MDC,
                                      Heuristic.PREFCLUS, None))
        for _ in range(3):
            result = compile_variant(loop_spec, CoherenceMode.MDC,
                                     Heuristic.PREFCLUS, memo)
            assert _whole(result) == want
            # Scribble over everything the compile was handed.
            graph = result.ddg
            first = next(iter(graph))
            graph.pin_cluster(first.iid, 3)
            graph.remove_edges(lambda edge: True)
            graph.add_instruction(Opcode.IALU, dest="scribble")
            result.source.add_instruction(Opcode.IALU, dest="scribble")
            iid = next(iter(result.profiles))
            result.profiles[iid] = ClusterProfile((99, 0, 0, 0))
            result.profiles[-1] = ClusterProfile((0, 0, 0, 1))
        assert artifact_stats().puts == 1

    @pytest.mark.parametrize("holder, replays_decoded", [
        ("memo", 1),
        ("bare store", 2 * len(ALL_VARIANTS) - 1),
    ], ids=["memo", "bare-store"])
    def test_decodes_per_key(self, loop_spec, monkeypatch, holder,
                             replays_decoded):
        decodes = []
        from_dict = Ddg.from_dict.__func__

        def counted(cls, data):
            decodes.append(data["name"])
            return from_dict(cls, data)

        monkeypatch.setattr(Ddg, "from_dict", classmethod(counted))
        store = MemoryArtifactStore()
        artifacts = LoopMemo((), store) if holder == "memo" else store
        for coherence, heuristic in ALL_VARIANTS * 2:
            compile_variant(loop_spec, coherence, heuristic, artifacts)
        # The first compile computes the front end and keeps its own
        # graph.  Through a memo the first replay decodes and every later
        # one copies; a bare store decodes every replay.
        assert len(decodes) == replays_decoded
        stats = artifact_stats()
        assert (stats.hits, stats.misses, stats.puts) == (
            2 * len(ALL_VARIANTS) - 1, 1, 1)

    def test_runner_counters_on_a_catalog_cross(self):
        """Artifact hits, misses and puts of a catalog cross: a cold
        run, then the same front ends at another scale (no stored
        record), which only hits.  One lookup per compile: each of the
        three chain loops compiles under all six variants, each of the
        three chain-free aux loops once per heuristic."""
        store = MemoryArtifactStore()
        counts = []
        for scale in (0.05, 0.06):
            reset_artifact_stats()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                Runner(store=MemoryStore(), artifacts=store).run(Plan.grid(
                    benchmarks=["epicdec", "pgpdec", "gsmdec"],
                    variants=API_VARIANTS, scale=scale))
            stats = artifact_stats()
            counts.append((stats.hits, stats.misses, stats.puts))
        assert counts == [(18, 6, 6), (24, 0, 0)]
