"""Runner: caching semantics, parallel/serial equivalence, grouping."""

import pytest

from repro.api.records import RunRecord
from repro.api.runner import Runner, run
from repro.api.spec import MDC_PREF, Plan, RunSpec
from repro.api.store import MemoryStore, set_default_store
from repro.errors import WorkloadError

SCALE = 0.1
PLAN = Plan.grid(
    benchmarks=["gsmdec", "gsmenc"],
    variants=("mdc/prefclus", "ddgt/prefclus"),
    scale=SCALE,
)


class CountingStore(MemoryStore):
    def __init__(self):
        super().__init__()
        self.puts = 0

    def put(self, key, record):
        self.puts += 1
        super().put(key, record)


@pytest.fixture
def store():
    return CountingStore()


class TestRunnerCaching:
    def test_second_run_is_all_hits(self, store):
        runner = Runner(store=store)
        first = runner.run(PLAN)
        assert store.puts == len(PLAN)
        second = runner.run(PLAN)
        assert store.puts == len(PLAN), "second run must not recompute"
        assert [a.to_dict() for a in first] == [b.to_dict() for b in second]

    def test_results_in_plan_order(self, store):
        records = Runner(store=store).run(PLAN)
        assert [(r.benchmark, r.variant) for r in records] == [
            (s.benchmark, s.variant) for s in PLAN
        ]

    def test_partial_hits_fill_only_misses(self, store):
        runner = Runner(store=store)
        runner.run(Plan(PLAN.specs[:2]))
        assert store.puts == 2
        runner.run(PLAN)
        assert store.puts == len(PLAN)

    def test_run_one_and_module_run(self, store):
        spec = PLAN.specs[0]
        record = Runner(store=store).run_one(spec)
        assert isinstance(record, RunRecord)
        assert record.spec_key == spec.content_hash
        previous = set_default_store(store)
        try:
            again = run(spec)
        finally:
            set_default_store(previous)
        assert again.to_dict() == record.to_dict()


class TestParallelEqualsSerial:
    def test_identical_records(self):
        serial = Runner(store=MemoryStore(), parallel=None).run(PLAN)
        parallel = Runner(store=MemoryStore(), parallel=2).run(PLAN)
        assert [a.to_dict() for a in serial] == [
            b.to_dict() for b in parallel
        ]

    def test_parallel_minus_one_uses_cpu_count(self):
        import multiprocessing

        runner = Runner(store=MemoryStore(), parallel=-1)
        cpus = multiprocessing.cpu_count()
        assert runner._effective_parallel(2) == min(2, cpus)
        assert runner._effective_parallel(1) == 1
        # Never more workers than specs, even on big machines.
        assert Runner(parallel=64)._effective_parallel(3) == 3


class TestLoopScopedSpecs:
    def test_single_loop_subset(self):
        full = run(RunSpec(benchmark="gsmdec", variant=MDC_PREF.key,
                           scale=SCALE), store=MemoryStore())
        assert len(full.loops) > 1
        one = run(RunSpec(benchmark="gsmdec", variant=MDC_PREF.key,
                          scale=SCALE, loop=full.loops[0].loop),
                  store=MemoryStore())
        assert len(one.loops) == 1
        assert one.loops[0].to_dict() == full.loops[0].to_dict()

    def test_unknown_loop_raises(self):
        with pytest.raises(WorkloadError):
            run(RunSpec(benchmark="gsmdec", scale=SCALE, loop="nope"),
                store=MemoryStore())


class TestFrontendGrouping:
    def test_frontend_key_shared_across_the_variant_cross(self):
        keys = {
            RunSpec(benchmark="gsmdec", variant=v, scale=SCALE).frontend_key
            for v in ("none/prefclus", "none/mincoms", "mdc/prefclus",
                      "mdc/mincoms", "ddgt/prefclus", "ddgt/mincoms")
        }
        assert len(keys) == 1, "all six variants must share one front end"

    def test_frontend_key_ignores_scale_but_not_machine_or_seeds(self):
        base = RunSpec(benchmark="gsmdec", scale=0.1)
        assert base.frontend_key == \
            RunSpec(benchmark="gsmdec", scale=0.7).frontend_key
        assert base.frontend_key != \
            RunSpec(benchmark="gsmenc", scale=0.1).frontend_key
        assert base.frontend_key != \
            RunSpec(benchmark="gsmdec", scale=0.1,
                    machine="nobal+mem").frontend_key
        assert base.frontend_key != \
            RunSpec(benchmark="gsmdec", scale=0.1,
                    seeds=(1, 2)).frontend_key
        assert base.frontend_key != \
            RunSpec(benchmark="gsmdec", scale=0.1,
                    attraction=True).frontend_key

    def test_group_indices_partition_preserves_order(self):
        specs = list(PLAN.specs)  # gsmdec x2 variants, gsmenc x2 variants
        groups = Runner._group_indices(specs)
        assert [sorted(g) for g in groups] == [[0, 1], [2, 3]]
        flattened = [i for group in groups for i in group]
        assert sorted(flattened) == list(range(len(specs)))

    def test_balance_splits_groups_to_fill_workers(self):
        one_cross = [list(range(6))]
        tasks = Runner._balance(one_cross, 4)
        assert len(tasks) == 4
        assert sorted(i for t in tasks for i in t) == list(range(6))
        assert all(tasks)
        # Enough groups already: nothing is split.
        assert Runner._balance([[0, 1], [2, 3]], 2) == [[0, 1], [2, 3]]
        # Singletons cannot be split further.
        assert Runner._balance([[0]], 8) == [[0]]

    def test_single_group_plan_still_parallelizes_correctly(self):
        plan = Plan.grid(benchmarks=["gsmdec"],
                         variants=("mdc/prefclus", "ddgt/prefclus",
                                   "mdc/mincoms", "ddgt/mincoms"),
                         scale=SCALE)
        assert len({s.frontend_key for s in plan}) == 1
        serial = Runner(store=MemoryStore()).run(plan)
        parallel = Runner(store=MemoryStore(), parallel=4).run(plan)
        assert [a.to_dict() for a in parallel] == [
            b.to_dict() for b in serial
        ]

    def test_parallel_groups_share_disk_artifacts(self, tmp_path):
        from repro.api.artifacts import DiskArtifactStore
        from repro.workloads import get_benchmark

        artifacts = DiskArtifactStore(tmp_path / "artifacts")
        runner = Runner(store=MemoryStore(), parallel=2,
                        artifacts=artifacts)
        parallel = runner.run(PLAN)
        serial = Runner(store=MemoryStore()).run(PLAN)
        assert [a.to_dict() for a in parallel] == [
            b.to_dict() for b in serial
        ]
        # One front-end entry per loop, whichever worker computed it.
        loops = sum(len(get_benchmark(name).loops)
                    for name in ("gsmdec", "gsmenc"))
        assert len(artifacts) == loops
        assert all(key.startswith("frontend-") for key in artifacts.keys())

    def test_workers_honor_a_pinned_artifact_version(self, tmp_path):
        import json

        from repro.api.artifacts import DiskArtifactStore

        root = tmp_path / "artifacts"
        runner = Runner(store=MemoryStore(), parallel=2,
                        artifacts=DiskArtifactStore(root, version="pinned"))
        runner.run(Plan(PLAN.specs[:2]))
        versions = {
            json.loads(path.read_text())["version"]
            for path in root.rglob("*.json")
        }
        assert versions == {"pinned"}, (
            "workers must write the parent store's version, or the two "
            "sides treat each other's entries as stale"
        )

    def test_custom_artifact_store_warns_in_parallel(self):
        from repro.api.artifacts import MemoryArtifactStore

        class CustomStore(MemoryArtifactStore):
            pass

        class PlainCustom:
            def get(self, key):
                return None

            def put(self, key, payload):
                pass

        # A MemoryArtifactStore subclass is fine (expected process-local).
        Runner(store=MemoryStore(), parallel=2,
               artifacts=CustomStore()).run(Plan(PLAN.specs[:2]))
        with pytest.warns(RuntimeWarning, match="cannot cross process"):
            Runner(store=MemoryStore(), parallel=2,
                   artifacts=PlainCustom()).run(Plan(PLAN.specs[:2]))

