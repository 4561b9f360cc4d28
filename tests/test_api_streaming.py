"""Plan execution through ``Runner.run``: progress, the failure
contract, resuming a failed run from the store, pool lifecycle, the
floor warning, and the sharded store's store-wide operations."""

import multiprocessing
import os
import time
import warnings

import pytest

import repro.api.core as core
from repro.api.runner import Runner
from repro.api.spec import Plan, RunSpec
from repro.api.store import DiskStore, JsonFileStore, MemoryStore
from repro.errors import WorkloadError
from repro.obs import metrics

SCALE = 0.1
PLAN = Plan.grid(
    benchmarks=["gsmdec", "gsmenc"],
    variants=("mdc/prefclus", "ddgt/prefclus"),
    scale=SCALE,
)
BAD = RunSpec(benchmark="gsmdec", scale=SCALE, loop="nope")
GOOD = RunSpec(benchmark="gsmdec", variant="mdc/prefclus", scale=SCALE)


class Stop(Exception):
    """Raised by a progress callback to abandon a plan."""


def stop_at(completion):
    def progress(done, total, record):
        if done == completion:
            raise Stop
    return progress


class TestProgress:
    def test_hits_are_reported_before_any_execution(self, monkeypatch):
        store = MemoryStore()
        runner = Runner(store=store)
        runner.run(Plan(PLAN.specs[:2]))
        executed = []
        seen = []
        original = core.execute_spec

        def counting(spec, artifacts=None):
            executed.append(spec.benchmark)
            return original(spec, artifacts)

        monkeypatch.setattr("repro.api.runner.execute_spec", counting)
        runner.run(PLAN, progress=lambda done, total, record: seen.append(
            (done, record.source, len(executed))))
        assert seen[:2] == [(1, "store", 0), (2, "store", 0)], (
            "warm hits must not wait for cold specs")
        assert [source for _, source, _ in seen[2:]] == ["simulated"] * 2

    def test_run_progress_callback_sees_every_completion(self):
        seen = []
        Runner(store=MemoryStore()).run(
            PLAN,
            progress=lambda done, total, item: seen.append((done, total)),
        )
        assert seen == [(i + 1, len(PLAN)) for i in range(len(PLAN))]


class TestFailures:
    """A failure raises out of ``run``: serially the original exception
    object, under ``parallel`` the worker's exception as the pool
    re-raises it."""

    def test_serial_failure_raises_the_original_exception(
            self, monkeypatch):
        boom = WorkloadError("boom")

        def failing(spec, artifacts=None):
            raise boom

        monkeypatch.setattr("repro.api.runner.execute_spec", failing)
        with pytest.raises(WorkloadError) as caught:
            Runner(store=MemoryStore()).run(Plan.single(GOOD))
        assert caught.value is boom

    def test_a_failing_spec_raises_its_own_error(self):
        with pytest.raises(WorkloadError, match="no loop 'nope'"):
            Runner(store=MemoryStore()).run(Plan.single(BAD))

    def test_parallel_failure_keeps_its_type_and_worker_traceback(self):
        plan = Plan((GOOD, BAD, RunSpec(benchmark="gsmenc", scale=SCALE)))
        runner = Runner(store=MemoryStore(), parallel=2)
        with pytest.raises(WorkloadError, match="no loop 'nope'") as caught:
            runner.run(plan)
        cause = str(caught.value.__cause__)
        assert "in execute_spec" in cause, (
            "the worker traceback must name the raising function")

    def test_stored_records_stay_when_a_later_spec_fails(self):
        store = MemoryStore()
        with pytest.raises(WorkloadError):
            Runner(store=store).run(Plan((GOOD, BAD)))
        assert store.get(GOOD.content_hash) is not None


class TestRerunResumes:
    @pytest.mark.parametrize("parallel", [None, 2],
                             ids=["serial", "parallel"])
    def test_rerun_after_a_raising_callback_executes_only_the_missing_specs(
            self, tmp_path, parallel):
        done = []

        def progress(count, total, record):
            done.append(record.spec_key)
            if count == 2:
                raise Stop  # the "kill": two specs done, two never stored

        runner = Runner(store=DiskStore(tmp_path), parallel=parallel)
        with pytest.raises(Stop):
            runner.run(PLAN, progress=progress)
        assert len(list(tmp_path.glob("??/*.json"))) == 2, (
            "each record is stored the moment it arrives"
        )

        metrics.registry().reset("runner.")
        # A fresh store and pool, as after a process kill + restart.
        runner = Runner(store=DiskStore(tmp_path), parallel=parallel)
        records = runner.run(PLAN)
        executed = metrics.registry().histogram(
            "runner.spec_seconds",
            mode="serial" if parallel is None else "parallel",
        )
        assert executed.count == 2, "completed work must not re-execute"
        assert [r.spec_key for r in records] == [
            s.content_hash for s in PLAN
        ]
        assert [r.source for r in records] == [
            "store" if r.spec_key in done else "simulated" for r in records
        ]


class TestPoolLifecycle:
    """Each plan gets its own pool, and no worker outlives its plan.

    Every test keeps its runner alive past the check: the workers must
    end with the plan, not when the runner is collected.
    """

    def test_no_worker_outlives_a_finished_plan(self):
        runner = Runner(store=MemoryStore(), parallel=2)
        records = runner.run(Plan(PLAN.specs[:2]))
        assert len(records) == 2
        assert multiprocessing.active_children() == []
        assert len(runner.run(PLAN)) == len(PLAN)
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_raising_progress_callback(self):
        runner = Runner(store=MemoryStore(), parallel=2)
        with pytest.raises(Stop):
            runner.run(PLAN, progress=stop_at(1))
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_reraised_failure(self):
        plan = Plan((BAD, GOOD))
        runner = Runner(store=MemoryStore(), parallel=2)
        with pytest.raises(WorkloadError):
            runner.run(plan)
        assert multiprocessing.active_children() == []

    def test_parallel_minus_one_pool_clamped_to_tasks(self, monkeypatch):
        # 2 specs -> at most 2 tasks after splitting: a many-core CI
        # runner must not fork cpu_count() idle workers for them.
        sizes = []
        pool = multiprocessing.Pool

        def recording_pool(processes=None, *args, **kwargs):
            sizes.append(processes)
            return pool(processes, *args, **kwargs)

        monkeypatch.setattr("repro.api.runner.multiprocessing.cpu_count",
                            lambda: 8)
        monkeypatch.setattr("repro.api.runner.multiprocessing.Pool",
                            recording_pool)
        Runner(store=MemoryStore(), parallel=-1).run(Plan(PLAN.specs[:2]))
        assert sizes == [2]


class TestParallelFloorWarning:
    @pytest.fixture
    def reset_floor_warning(self):
        previous = core._floor_warning_emitted
        core._floor_warning_emitted = False
        yield
        core._floor_warning_emitted = previous

    @pytest.mark.parametrize("parallel", [None, 2],
                             ids=["serial", "parallel"])
    def test_one_warning_per_process(self, reset_floor_warning, parallel):
        # pgpdec at tiny scale hits the kernel-iteration floor; the
        # runner derives one warning per process from the fresh records'
        # LoopRecord.iteration_floor, however many workers ran, and a
        # later floored plan adds none.
        plan = Plan.grid(benchmarks=["pgpdec"],
                         variants=("mdc/prefclus", "ddgt/prefclus"),
                         scale=0.01)
        runner = Runner(store=MemoryStore(), parallel=parallel)
        with pytest.warns(RuntimeWarning,
                          match="kernel-iteration floor") as caught:
            records = runner.run(plan)
            runner.run(Plan.grid(benchmarks=["gsmenc"],
                                 variants=("mdc/prefclus",), scale=0.01))
        assert any(l.iteration_floor for r in records for l in r.loops)
        floor_warnings = [w for w in caught
                          if "kernel-iteration floor" in str(w.message)]
        assert len(floor_warnings) == 1, (
            "exactly one warning, not one per worker or plan"
        )
        assert str(floor_warnings[0].message).startswith(
            "kernel-iteration floor: pgpdec:")

    @pytest.mark.parametrize("parallel", [None, 2],
                             ids=["serial", "parallel"])
    def test_warning_names_the_line_that_called_run(
            self, reset_floor_warning, parallel):
        plan = Plan.grid(benchmarks=["pgpdec"], variants=("mdc/prefclus",),
                         scale=0.01)
        runner = Runner(store=MemoryStore(), parallel=parallel)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runner.run(plan)
        (floor,) = [w for w in caught
                    if "kernel-iteration floor" in str(w.message)]
        assert floor.filename == __file__


class TestShardedStore:
    def test_entries_land_in_two_hex_shards(self, tmp_path):
        store = JsonFileStore(tmp_path)
        for i in range(20):
            store.put_payload(f"key-{i}", {"i": i})
        shards = [p for p in tmp_path.iterdir() if p.is_dir()]
        assert shards, "sharded layout must create shard directories"
        assert all(len(p.name) == 2 for p in shards)
        assert not list(tmp_path.glob("*.json")), "no flat entries"
        assert sum(1 for _ in store.keys()) == 20

    def test_keys_see_other_writers_at_once(self, tmp_path):
        reader = JsonFileStore(tmp_path)
        reader.put_payload("a", {"x": 1})
        assert list(reader.keys()) == ["a"]
        writer = JsonFileStore(tmp_path)  # another "process"
        writer.put_payload("b", {"x": 2})
        assert sorted(reader.keys()) == ["a", "b"]
        writer.entry_path("b").unlink()
        assert list(reader.keys()) == ["a"]

    def test_same_shard_writes_from_two_instances_are_all_listed(
            self, tmp_path):
        """Entries two instances write into one shard, interleaved with
        store-wide reads, all show up in keys() and size_bytes()."""
        from repro.api.store import shard_prefix

        # k9 / k26 / k66 share shard '76' (asserted so a hashing change
        # fails loudly instead of silently weakening the test).
        assert len({shard_prefix(k) for k in ("k9", "k26", "k66")}) == 1
        a = JsonFileStore(tmp_path)
        a.put_payload("k9", {"v": 1})
        assert list(a.keys()) == ["k9"]
        b = JsonFileStore(tmp_path)  # another "process"
        b.put_payload("k26", {"v": 2})
        a.put_payload("k66", {"v": 3})  # same shard, right after B
        assert sorted(a.keys()) == ["k26", "k66", "k9"], (
            "A's write must not hide B's concurrent same-shard entry"
        )
        assert a.size_bytes() == sum(
            p.stat().st_size for p in tmp_path.rglob("*.json")
        )

    def test_store_wide_ops_agree_with_disk(self, tmp_path):
        store = JsonFileStore(tmp_path)
        for i in range(25):
            store.put_payload(f"key-{i}", {"i": i})
        on_disk = list(tmp_path.rglob("*.json"))
        assert len(on_disk) == 25
        assert sum(1 for _ in store.keys()) == 25
        assert store.size_bytes() == sum(
            p.stat().st_size for p in on_disk
        )
        assert store.clear() == 25
        assert list(store.keys()) == []
        assert store.size_bytes() == 0
        assert not list(tmp_path.rglob("*.json"))

    def test_prune_keeps_keys_and_reads_consistent(self, tmp_path):
        store = JsonFileStore(tmp_path)
        store.put_payload("old", {"x": 1})
        store.put_payload("new", {"x": 2})
        stale = time.time() - 3600
        os.utime(store.entry_path("old"), (stale, stale))
        assert store.prune(older_than_seconds=60) == 1
        assert list(store.keys()) == ["new"]
        assert store.get_payload("old") is None

    def test_leftover_index_meta_is_ignored(self, tmp_path):
        """An ``index.meta`` older versions persisted is neither read
        nor rewritten nor removed."""
        store = JsonFileStore(tmp_path)
        store.put_payload("old", {"x": 1})
        store.put_payload("new", {"x": 2})
        leftover = tmp_path / "index.meta"
        leftover.write_text("{garbage")
        assert list(JsonFileStore(tmp_path).keys()) == ["new", "old"]
        stale = time.time() - 3600
        os.utime(store.entry_path("old"), (stale, stale))
        assert store.prune(older_than_seconds=60) == 1
        assert store.clear() == 1
        assert leftover.read_text() == "{garbage"

    def test_diskstore_rejects_wrong_shape_entry(self, tmp_path):
        # Valid JSON that is no envelope must self-heal: a miss, and the
        # entry is removed.
        store = DiskStore(tmp_path)
        entry = store.entry_path("bad")
        entry.parent.mkdir(parents=True)
        entry.write_text("[1, 2]")
        assert store.get("bad") is None
        assert not entry.exists()


class TestCliRerun:
    """A rerun after a kill is served from the store: only the record
    the kill lost is recomputed, and the output is unchanged."""

    def _rerun_after_losing_one_record(self, argv, cache, capsys):
        from repro.api.cli import main

        assert main(argv) == 0
        first = capsys.readouterr().out
        entries = sorted(cache.glob("??/*.json"))
        assert len(entries) > 1
        entries[0].unlink()  # stands in for a kill before its put
        metrics.registry().reset("runner.store_lookups")
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        reg = metrics.registry()
        assert reg.counter("runner.store_lookups", outcome="miss") == 1
        assert reg.counter("runner.store_lookups",
                           outcome="hit") == len(entries) - 1

    def test_run_rerun_recomputes_only_the_lost_record(self, tmp_path,
                                                       capsys):
        self._rerun_after_losing_one_record(
            ["run", "gsmdec", "gsmenc", "-v", "mdc/prefclus",
             "--scale", "0.1", "--cache-dir", str(tmp_path)],
            tmp_path, capsys)

    def test_sweep_rerun_recomputes_only_the_lost_record(self, tmp_path,
                                                         capsys):
        self._rerun_after_losing_one_record(
            ["scenarios", "sweep", "--seed", "3", "--count", "2",
             "--scale", "0.05", "--cache-dir", str(tmp_path)],
            tmp_path, capsys)
