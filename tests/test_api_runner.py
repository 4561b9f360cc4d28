"""Runner: caching semantics, parallel/serial equivalence, grouping."""

import json

import pytest

from repro.api.artifacts import MemoryArtifactStore
from repro.api.records import RunRecord
from repro.api.runner import Runner, run
from repro.api.spec import MDC_PREF, Plan, RunSpec
from repro.api.store import DiskStore, MemoryStore, set_default_store
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


class TestProvenance:
    @pytest.mark.parametrize("kind", ["memory", "disk"])
    def test_store_hits_are_tagged_but_not_serialized(self, kind,
                                                      tmp_path):
        """``RunRecord.source`` says where a record came from, for
        callers that count store hits; it never reaches equality or the
        serialized record."""
        store = MemoryStore() if kind == "memory" else DiskStore(tmp_path)
        runner = Runner(store=store, artifacts=MemoryArtifactStore())
        spec = RunSpec(benchmark="scn-gather-n24-m45-r2-a30-s7",
                       variant="mdc/prefclus", machine="baseline",
                       scale=0.05)
        first = runner.run([spec])[0]
        again = runner.run([spec])[0]
        assert first.source == "simulated"
        assert again.source == "store"
        assert first == again, "provenance must not affect equality"
        assert "source" not in first.to_dict()
        assert "source" not in json.dumps(again.to_dict())

    @pytest.mark.parametrize("kind", ["memory", "disk"])
    def test_partial_hits_are_tagged_per_record(self, kind, tmp_path):
        """In a plan that is half warm, exactly the warm records say
        ``store``, in plan order."""
        store = MemoryStore() if kind == "memory" else DiskStore(tmp_path)
        runner = Runner(store=store, artifacts=MemoryArtifactStore())
        plan = Plan.grid(benchmarks=["scn-gather-n24-m45-r2-a30-s7"],
                         variants=("mdc/prefclus", "mdc/mincoms",
                                   "ddgt/prefclus", "ddgt/mincoms"),
                         scale=0.05)
        runner.run(Plan(plan.specs[:2]))
        records = runner.run(plan)
        assert [r.source for r in records] == [
            "store", "store", "simulated", "simulated",
        ]

    def test_progress_sees_tagged_records(self):
        runner = Runner(store=MemoryStore(), artifacts=MemoryArtifactStore())
        spec = RunSpec(benchmark="scn-gather-n24-m45-r2-a30-s7",
                       variant="mdc/prefclus", machine="baseline",
                       scale=0.05)
        seen = []
        for _ in range(2):
            runner.run([spec], progress=lambda done, total, record:
                       seen.append(record))
        first, again = seen
        assert (first.source, again.source) == ("simulated", "store")
        assert again == first


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
        tasks = Runner._balance(one_cross, 4, lambda i: i, lambda i: i)
        assert len(tasks) == 4
        assert sorted(i for t in tasks for i in t) == list(range(6))
        assert all(tasks)
        # Enough groups already: nothing is split.
        assert Runner._balance([[0, 1], [2, 3]], 2, lambda i: i,
                               lambda i: i) == [[0, 1], [2, 3]]
        # Singletons cannot be split further.
        assert Runner._balance([[0]], 8, lambda i: i, lambda i: i) == [[0]]

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

    def test_parallel_front_ends_reach_a_fresh_disk_store(self, tmp_path):
        """Workers write the front ends to the shared files, which are
        all a disk store keeps: the parent store after absorbing them,
        and a fresh store on the same root, replay every one."""
        from repro.api.artifacts import DiskArtifactStore
        from repro.obs import metrics

        root = tmp_path / "artifacts"
        runner = Runner(store=MemoryStore(), parallel=2,
                        artifacts=DiskArtifactStore(root))
        runner.run(PLAN)
        expected = as_json(Runner(store=MemoryStore()).run(PLAN))
        for artifacts in (runner.artifacts, DiskArtifactStore(root)):
            with metrics.capture() as reg:
                records = Runner(store=MemoryStore(),
                                 artifacts=artifacts).run(PLAN)
            assert as_json(records) == expected
            assert reg.counter("artifacts.lookups", outcome="miss") == 0
            assert reg.counter("artifacts.puts") == 0
            assert reg.counter("artifacts.lookups", outcome="hit") == \
                reg.counter("stages.executed", stage="schedule") > 0

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

    def test_workers_use_the_runners_memory_artifact_store(self):
        """A pre-warmed in-memory store serves the workers' front ends:
        every lookup hits and nothing is put.  Seeds no other test uses
        keep the process-default store from holding these entries."""
        from repro.obs import metrics
        from repro.workloads import get_benchmark

        plan = Plan(tuple(
            RunSpec(benchmark="gsmdec", variant=variant, scale=SCALE,
                    seeds=(104_723, 104_729))
            for variant in ("mdc/prefclus", "ddgt/prefclus")
        ))
        warm = MemoryArtifactStore()
        serial = Runner(store=MemoryStore(), artifacts=warm).run(plan)
        with metrics.capture() as reg:
            parallel = Runner(store=MemoryStore(), parallel=2,
                              artifacts=warm).run(plan)
        assert [a.to_dict() for a in parallel] == [
            b.to_dict() for b in serial
        ]
        assert reg.counter("runner.tasks") == 2
        loops = len(get_benchmark("gsmdec").loops)
        assert reg.counter("artifacts.lookups", outcome="hit") == 2 * loops
        assert reg.counter("artifacts.lookups", outcome="miss") == 0
        assert reg.counter("artifacts.puts") == 0

    def test_workers_use_a_custom_artifact_store(self):
        """A store of neither built-in kind reaches the workers too:
        they put the front end into their copy of it, and nothing warns
        that the store stays behind."""
        import warnings

        from repro.api.artifacts import ArtifactStore
        from repro.obs import metrics

        class DictArtifactStore(ArtifactStore):
            def __init__(self):
                self.entries = {}

            def _get(self, key):
                return self.entries.get(key)

            def _put(self, key, text):
                self.entries[key] = text

        plan = Plan(PLAN.specs[:2])
        with metrics.capture() as reg, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            records = Runner(store=MemoryStore(), parallel=2,
                             artifacts=DictArtifactStore()).run(plan)
        assert [r.to_dict() for r in records] == [
            r.to_dict() for r in Runner(store=MemoryStore()).run(plan)
        ]
        assert reg.counter("runner.tasks") == 2
        assert reg.counter("artifacts.puts") > 0

    def test_parallel_front_ends_reach_the_runners_store(self):
        """Front ends computed in workers land in the runner's in-memory
        store: afterwards it holds the serial run's keys, and a second
        plan at another scale (same front ends, no stored record) is all
        artifact hits.  Seeds no other test uses keep the
        process-default store from holding these entries."""
        from repro.obs import metrics

        def plan(scale):
            return Plan.grid(benchmarks=["gsmdec", "gsmenc"],
                             variants=("mdc/prefclus", "ddgt/prefclus"),
                             scale=scale, seeds=(104_717, 104_723))

        serial = MemoryArtifactStore()
        Runner(store=MemoryStore(), artifacts=serial).run(plan(0.05))
        runner = Runner(store=MemoryStore(), parallel=2,
                        artifacts=MemoryArtifactStore())
        with metrics.capture() as first:
            runner.run(plan(0.05))
        assert sorted(runner.artifacts.keys()) == sorted(serial.keys())
        # Absorbing moves no counter: the workers counted their puts.
        assert first.counter("artifacts.puts") == len(serial)
        with metrics.capture() as second:
            runner.run(plan(0.06))
        # One lookup per compile: gsmdec and gsmenc each have a chain
        # loop, compiled under both variants, and a chain-free aux loop,
        # compiled once (both variants use PrefClus).
        assert second.counter("artifacts.lookups", outcome="miss") == 0
        assert second.counter("artifacts.lookups", outcome="hit") == 6
        assert second.counter("stages.executed", stage="schedule") == 6


MODEL_PLAN = Plan.grid(
    benchmarks="gsmdec",
    variants=("mdc/prefclus", "ddgt/mincoms"),
    scale=SCALE,
    models=("snooping", "dls", "directory"),
)


def as_json(items):
    return [json.dumps(item.to_dict(), sort_keys=True) for item in items]


def in_runner_order(plan):
    """The specs of a one-group plan in the order the runner runs them."""
    (group,) = Runner._group_indices(list(plan))
    return [plan.specs[i] for i in group]


def unshared(specs):
    """Each spec alone: a fresh artifact store and no sibling memo."""
    from repro.api.artifacts import MemoryArtifactStore
    from repro.api.core import execute_spec

    return [execute_spec(spec, artifacts=MemoryArtifactStore())
            for spec in specs]


class TestModelSiblings:
    """Specs equal except for ``model`` share one compile, execution
    trace and checker oracle per loop, and still give the records each
    spec gives alone."""

    def loops(self):
        from repro.workloads import get_benchmark

        return len(get_benchmark("gsmdec").loops)

    def test_serial_shares_and_matches_unshared(self, monkeypatch):
        import repro.api.core as core
        compiled = []
        original = core.compile_loop

        def counting(ddg, machine, **kwargs):
            compiled.append((kwargs["coherence"], kwargs["heuristic"],
                             id(ddg)))
            return original(ddg, machine, **kwargs)

        expected = as_json(unshared(MODEL_PLAN))
        monkeypatch.setattr(core, "compile_loop", counting)
        records = Runner(store=MemoryStore(),
                         artifacts=MemoryArtifactStore()).run(MODEL_PLAN)
        assert as_json(records) == expected
        # Once per (variant, loop), not once per model.
        assert len(compiled) == len(set(compiled)) == 2 * self.loops()

    def test_parallel_shares_and_matches_unshared(self):
        from repro.obs import metrics

        with metrics.capture() as reg:
            records = Runner(store=MemoryStore(), parallel=2).run(MODEL_PLAN)
        assert as_json(records) == as_json(unshared(MODEL_PLAN))
        # Each back end ran once per (variant, loop), whichever worker
        # ran it: the two tasks are the two sibling groups.
        assert reg.counter("stages.executed", stage="schedule") == \
            2 * self.loops()

    def test_group_order_and_balance_keep_siblings_together(self):
        from repro.api.core import chain_free_key, sibling_key

        specs = list(MODEL_PLAN.specs)  # variants inside models
        groups = Runner._group_indices(specs)
        assert groups == [[0, 2, 4, 1, 3, 5]]
        chain_free = [chain_free_key(spec) for spec in specs]
        siblings = [sibling_key(spec) for spec in specs]
        assert Runner._balance(groups, 2, chain_free.__getitem__,
                               siblings.__getitem__) == [
            [0, 2, 4], [1, 3, 5]
        ]
        # Three sibling pairs of one chain-free key: the cut moves off
        # the middle (3) to the nearest sibling boundary.
        pairs = [[0, 1, 2, 3, 4, 5]]
        assert Runner._balance(pairs, 2, lambda i: 0, lambda i: i) == [
            [0, 1, 2], [3, 4, 5]
        ]
        assert Runner._balance(pairs, 2, lambda i: 0, lambda i: i // 2) == [
            [0, 1], [2, 3, 4, 5]
        ]
        # More workers than sibling groups: occupancy wins, every spec
        # still runs exactly once.
        tasks = Runner._balance(groups, 4, chain_free.__getitem__,
                                siblings.__getitem__)
        assert len(tasks) == 4
        assert sorted(i for task in tasks for i in task) == list(range(6))

    def test_simulate_failure_stays_with_its_model(self, monkeypatch):
        import repro.api.core as core
        from repro.api.core import LoopMemo, execute_spec
        from repro.errors import SimulationError

        original = core.simulate

        def failing(*args, **kwargs):
            if kwargs["model"] == "dls":
                raise SimulationError("injected dls failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(core, "simulate", failing)
        memo = LoopMemo(MemoryArtifactStore())
        records = []
        for spec in in_runner_order(MODEL_PLAN):
            memo.enter(spec)
            if spec.model == "dls":
                with pytest.raises(SimulationError,
                                   match="^injected dls failure$"):
                    execute_spec(spec, memo)
            else:
                records.append(execute_spec(spec, memo))
        monkeypatch.setattr(core, "simulate", original)
        survivors = [s for s in in_runner_order(MODEL_PLAN)
                     if s.model != "dls"]
        assert as_json(records) == as_json(unshared(survivors))

    def test_compile_failure_reaches_every_sibling(self, monkeypatch):
        import repro.api.core as core
        from repro.api.core import LoopMemo, execute_spec
        from repro.errors import SchedulingError

        def failing(*_args, **_kwargs):
            raise SchedulingError("injected compile failure")

        monkeypatch.setattr(core, "compile_loop", failing)
        memo = LoopMemo(MemoryArtifactStore())
        for spec in in_runner_order(MODEL_PLAN):
            memo.enter(spec)
            with pytest.raises(SchedulingError,
                               match="^injected compile failure$"):
                execute_spec(spec, memo)

    def test_model_rejection_stays_with_its_model(self):
        """Single-copy models reject Attraction Buffers in ``simulate``,
        after the snooping sibling filled the memo; under ``parallel``
        the rejection reaches ``run`` with its type."""
        from repro.api.core import LoopMemo, execute_spec
        from repro.errors import ConfigError

        plan = Plan.grid(benchmarks="gsmdec", variants="mdc/prefclus",
                         scale=SCALE, attraction=True,
                         models=("snooping", "dls", "directory"))
        memo = LoopMemo(MemoryArtifactStore())
        snooping, dls, directory = in_runner_order(plan)
        memo.enter(snooping)
        record = execute_spec(snooping, memo)
        for spec in (dls, directory):
            memo.enter(spec)
            with pytest.raises(ConfigError, match=spec.model):
                execute_spec(spec, memo)
        assert as_json([record]) == as_json(unshared([snooping]))
        with pytest.raises(ConfigError):
            Runner(store=MemoryStore(), parallel=2).run(plan)


CROSS_MODELS = ("snooping", "dls")


def cross_plan(reverse=False):
    """gsmdec (a chain loop and a chain-free aux loop) under all six
    variants and two models; ``reverse`` runs DDGT and MDC before free."""
    from repro.api import ALL_VARIANTS

    variants = ALL_VARIANTS[::-1] if reverse else ALL_VARIANTS
    return Plan.grid(benchmarks="gsmdec", variants=variants, scale=SCALE,
                     models=CROSS_MODELS)


@pytest.fixture(scope="module")
def unshared_cross():
    """Each spec of the cross alone, by spec key."""
    return dict(zip((s.content_hash for s in cross_plan()),
                    as_json(unshared(cross_plan()))))


def chain_free_loops():
    """gsmdec's loops whose front end has no memory-dependent chain."""
    from repro.api.spec import PROFILE_ITERATIONS
    from repro.arch.config import BASELINE_CONFIG
    from repro.sched import compile_loop
    from repro.sched.mdc import memory_dependent_chains
    from repro.workloads import get_benchmark, trace_factory

    bench = get_benchmark("gsmdec")
    free = set()
    for loop in bench.loops:
        compiled = compile_loop(
            loop.ddg, bench.machine(BASELINE_CONFIG),
            trace_factory=trace_factory(PROFILE_ITERATIONS,
                                        seed=bench.profile_seed),
            unroll_factor=loop.unroll)
        if not memory_dependent_chains(compiled.source):
            free.add(loop.name)
    return free


class TestSharedLoops:
    """On a chain-free loop every coherence variant of a heuristic
    shares one compile and, per model, one simulation; the records stay
    those of each spec run alone."""

    def test_the_cross_has_both_kinds_of_loop(self):
        assert chain_free_loops() == {"gsmdec.aux"}

    @pytest.mark.parametrize("parallel", [None, 2])
    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["free-first", "free-last"])
    def test_records_equal_unshared(self, unshared_cross, parallel,
                                    reverse):
        plan = cross_plan(reverse)
        records = Runner(store=MemoryStore(), parallel=parallel,
                         artifacts=MemoryArtifactStore()).run(plan)
        assert as_json(records) == [unshared_cross[s.content_hash]
                                    for s in plan]

    def test_parallel_split_keeps_each_heuristic_in_one_task(self):
        """Split over two workers, the six-variant cross keeps each
        heuristic's variants in one task: the chain-free loop compiles
        once per heuristic, as it does serially, and the records are
        the serial run's."""
        from repro.obs import metrics
        from repro.scenarios import DIFFERENTIAL_VARIANTS

        plan = Plan.grid(benchmarks="gsmdec", variants=DIFFERENTIAL_VARIANTS,
                         scale=SCALE)
        runs = {}
        for parallel in (None, 2):
            with metrics.capture() as reg:
                records = Runner(store=MemoryStore(),
                                 parallel=parallel).run(plan)
            runs[parallel] = (
                as_json(records),
                reg.counter("stages.executed", stage="schedule"),
                reg.counter("runner.shared_loops", via="chain_free"),
            )
        assert runs[None][1:] == (8, 4)
        assert runs[2] == runs[None]

    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["free-first", "free-last"])
    def test_compiles_and_simulations_once_per_heuristic(self, monkeypatch,
                                                         reverse):
        import repro.api.core as core

        calls = {"compile": [], "simulate": []}
        compile_loop, simulate = core.compile_loop, core.simulate

        def compiling(ddg, machine, **kwargs):
            calls["compile"].append(ddg.name)
            return compile_loop(ddg, machine, **kwargs)

        def simulating(compiled, *args, **kwargs):
            calls["simulate"].append(compiled.source.name)
            return simulate(compiled, *args, **kwargs)

        monkeypatch.setattr(core, "compile_loop", compiling)
        monkeypatch.setattr(core, "simulate", simulating)
        Runner(store=MemoryStore(), artifacts=MemoryArtifactStore()).run(
            cross_plan(reverse))
        # The chain loop: six variants, each simulated per model.  The
        # aux loop: two heuristics.
        assert sorted(calls["compile"]) == \
            ["gsmdec.aux"] * 2 + ["gsmdec.chain"] * 6
        assert sorted(name.split("@")[0] for name in calls["simulate"]) == \
            ["gsmdec.aux"] * 4 + ["gsmdec.chain"] * 12

    def test_shared_loops_counter(self):
        """``runner.shared_loops``: one per (spec, loop) served from
        another spec's compile.  The chain loop: each variant's dls spec
        reuses its snooping sibling's compile.  The aux loop: free's dls
        specs do the same, and the eight MDC/DDGT specs reuse free's
        record of their heuristic and model."""
        from repro.obs import metrics

        with metrics.capture() as reg:
            Runner(store=MemoryStore(),
                   artifacts=MemoryArtifactStore()).run(cross_plan())
        assert reg.counter("runner.shared_loops", via="model") == 6 + 2
        assert reg.counter("runner.shared_loops", via="chain_free") == 8

    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["free-first", "free-last"])
    def test_no_entry_outlives_the_last_spec_that_maps_onto_it(
            self, monkeypatch, reverse):
        import repro.api.core as core
        from repro.api.core import (
            LoopMemo,
            chain_free_key,
            execute_spec,
            sibling_key,
        )

        free_loops = chain_free_loops()

        def key(spec, loop):
            if loop in free_loops:
                return (chain_free_key(spec), loop)
            return (sibling_key(spec), loop)

        # In the runner's order: each heuristic's chain-free key, and
        # within it model siblings, back to back.
        specs = in_runner_order(cross_plan(reverse))
        memo = LoopMemo(MemoryArtifactStore())
        held = []
        simulate = core.simulate

        def simulating(*args, **kwargs):
            held.append(len(memo))
            return simulate(*args, **kwargs)

        monkeypatch.setattr(core, "simulate", simulating)
        for done, spec in enumerate(specs):
            memo.enter(spec)
            # What the specs before this one left: only entries that
            # this spec or a later one maps onto.
            pending = {key(s, loop) for s in specs[done:]
                       for loop in ("gsmdec.chain", "gsmdec.aux")}
            assert set(memo._entries) <= pending
            execute_spec(spec, memo)
        # At most the running sibling group's chain-loop entry plus its
        # heuristic's aux entry.
        assert max(held) <= 2

    def test_results_are_handed_over_only_while_no_entry_is_held(
            self, monkeypatch):
        """Serially, a group's progress callbacks never run beside a
        back-end entry: its memo is empty, or gone with the group."""
        import weakref

        import repro.api.runner as runner
        from repro.api.core import LoopMemo

        memos = weakref.WeakSet()

        class Tracked(LoopMemo):
            def __init__(self, artifacts):
                super().__init__(artifacts)
                memos.add(self)

        monkeypatch.setattr(runner, "LoopMemo", Tracked)
        held = []
        Runner(store=MemoryStore(), artifacts=MemoryArtifactStore()).run(
            cross_plan(), progress=lambda *_: held.append(
                sum(len(memo) for memo in memos)))
        assert held == [0] * len(cross_plan())

    def test_nothing_of_the_plan_outlives_run(self, monkeypatch):
        """Once a serial ``Runner.run`` returns, no decoded front end and
        no back-end entry of its groups is reachable: the group memo was
        their only holder, and it went with its group."""
        import gc
        import weakref

        import repro.sched.stages as stages
        from repro.api.core import LoopMemo

        refs = []
        decode, keep = stages._decode_frontend, LoopMemo._keep

        def decoding(payload):
            decoded = decode(payload)
            refs.append(weakref.ref(decoded[0]))
            return decoded

        def keeping(memo, spec, loop, inputs):
            entry = keep(memo, spec, loop, inputs)
            refs.extend((weakref.ref(entry), weakref.ref(inputs.compiled)))
            return entry

        monkeypatch.setattr(stages, "_decode_frontend", decoding)
        monkeypatch.setattr(LoopMemo, "_keep", keeping)
        artifacts = MemoryArtifactStore()
        records = Runner(store=MemoryStore(),
                         artifacts=artifacts).run(cross_plan())
        gc.collect()
        assert len(records) == len(cross_plan())
        # Two loops decoded (replayed) and kept; more entries than loops.
        assert len(refs) > 4
        assert [ref for ref in refs if ref() is not None] == []
        assert len(artifacts) == 2

    def test_failures_are_never_shared(self, monkeypatch):
        """An injected failure in free's compile, then in free's
        simulation, of the chain-free loop stays with the free specs:
        MDC and DDGT compute the loop themselves and give the records
        they give alone."""
        import repro.api.core as core
        from repro.api.core import LoopMemo, execute_spec
        from repro.errors import SchedulingError, SimulationError
        from repro.sched import CoherenceMode

        plan = cross_plan()
        expected = dict(zip((s.content_hash for s in plan),
                            as_json(unshared(plan))))
        compile_loop, simulate = core.compile_loop, core.simulate

        def failing_compile(ddg, machine, **kwargs):
            if (kwargs["coherence"] is CoherenceMode.NONE
                    and ddg.name == "gsmdec.aux"):
                raise SchedulingError("injected compile failure")
            return compile_loop(ddg, machine, **kwargs)

        def failing_simulate(compiled, *args, **kwargs):
            if (compiled.coherence is CoherenceMode.NONE
                    and compiled.source.name.startswith("gsmdec.aux")):
                raise SimulationError("injected simulate failure")
            return simulate(compiled, *args, **kwargs)

        for target, patch, error in (
                ("compile_loop", failing_compile, SchedulingError),
                ("simulate", failing_simulate, SimulationError)):
            monkeypatch.setattr(core, target, patch)
            memo = LoopMemo(MemoryArtifactStore())
            for spec in in_runner_order(plan):
                memo.enter(spec)
                if spec.variant.startswith("none/"):
                    with pytest.raises(error, match="^injected"):
                        execute_spec(spec, memo)
                else:
                    record = execute_spec(spec, memo)
                    assert as_json([record]) == [expected[spec.content_hash]]
            monkeypatch.undo()

    def test_each_variant_reports_its_own_compile_error(self, monkeypatch):
        """A compile failure on the chain-free loop is computed by each
        spec: DDGT's message names its clone ``<loop>+ddgt``."""
        import repro.sched.stages as stages
        from repro.api.core import LoopMemo, execute_spec
        from repro.errors import SchedulingError

        run_schedule = stages.run_schedule

        def failing(work, machine, assignment):
            if work.name.startswith("gsmdec.aux"):
                raise SchedulingError(
                    f"no schedule found for {work.name!r}")
            return run_schedule(work, machine, assignment)

        monkeypatch.setattr(stages, "run_schedule", failing)
        memo = LoopMemo(MemoryArtifactStore())
        for spec in in_runner_order(cross_plan(reverse=True)):
            memo.enter(spec)
            suffix = "+ddgt" if spec.variant.startswith("ddgt/") else ""
            with pytest.raises(SchedulingError) as caught:
                execute_spec(spec, memo)
            assert str(caught.value) == (
                f"no schedule found for 'gsmdec.aux@x4{suffix}'")
