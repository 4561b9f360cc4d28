"""Streaming execution core: stream/run equivalence, the checkpoint
journal and resume, structured error records, pool lifecycle, and the
sharded store's index machinery."""

import json
import os
import time

import pytest

import repro.api.core as core
from repro.api.journal import RunJournal, journal_root
from repro.api.records import RunRecord
from repro.api.runner import RunError, Runner
from repro.api.spec import Plan, RunSpec
from repro.api.store import DiskStore, JsonFileStore, MemoryStore
from repro.errors import ExecutionError, WorkloadError

SCALE = 0.1
PLAN = Plan.grid(
    benchmarks=["gsmdec", "gsmenc"],
    variants=("mdc/prefclus", "ddgt/prefclus"),
    scale=SCALE,
)


def record_keys(items):
    return sorted(item.spec_key for item in items)


class TestStreamEqualsRun:
    def test_stream_yields_the_same_record_set_serial(self):
        run_records = Runner(store=MemoryStore()).run(PLAN)
        streamed = list(Runner(store=MemoryStore()).stream(PLAN))
        assert len(streamed) == len(PLAN)
        by_key = {r.spec_key: r.to_dict() for r in streamed}
        assert by_key == {r.spec_key: r.to_dict() for r in run_records}

    def test_stream_yields_the_same_record_set_parallel(self):
        run_records = Runner(store=MemoryStore()).run(PLAN)
        with Runner(store=MemoryStore(), parallel=2) as runner:
            streamed = list(runner.stream(PLAN))
        assert record_keys(streamed) == record_keys(run_records)
        by_key = {r.spec_key: r.to_dict() for r in streamed}
        assert by_key == {r.spec_key: r.to_dict() for r in run_records}

    def test_hits_stream_out_before_any_execution(self, monkeypatch):
        store = MemoryStore()
        runner = Runner(store=store)
        runner.run(Plan(PLAN.specs[:2]))
        executed = []
        original = core.execute_spec

        def counting(spec, artifacts=None):
            executed.append(spec.benchmark)
            return original(spec, artifacts=artifacts)

        monkeypatch.setattr("repro.api.runner.execute_spec", counting)
        stream = runner.stream(PLAN)
        first, second = next(stream), next(stream)
        assert not executed, "warm hits must not wait for cold specs"
        rest = list(stream)
        assert executed
        assert len([first, second] + rest) == len(PLAN)

    def test_run_progress_callback_sees_every_completion(self):
        seen = []
        Runner(store=MemoryStore()).run(
            PLAN,
            progress=lambda done, total, item: seen.append((done, total)),
        )
        assert seen == [(i + 1, len(PLAN)) for i in range(len(PLAN))]


class TestStructuredErrors:
    BAD = RunSpec(benchmark="gsmdec", scale=SCALE, loop="nope")
    GOOD = RunSpec(benchmark="gsmdec", variant="mdc/prefclus", scale=SCALE)

    def test_on_error_yield_emits_runerror_and_keeps_going(self):
        plan = Plan((self.BAD, self.GOOD))
        items = list(Runner(store=MemoryStore()).stream(
            plan, on_error="yield"
        ))
        assert len(items) == 2
        errors = [i for i in items if isinstance(i, RunError)]
        records = [i for i in items if isinstance(i, RunRecord)]
        assert len(errors) == len(records) == 1
        assert errors[0].error_type == "WorkloadError"
        assert "no loop" in errors[0].message
        assert errors[0].spec["loop"] == "nope"

    def test_on_error_raise_preserves_the_original_exception(self):
        with pytest.raises(WorkloadError):
            Runner(store=MemoryStore()).run(Plan.single(self.BAD))

    def test_parallel_worker_failure_is_contained(self):
        plan = Plan((self.GOOD, self.BAD,
                     RunSpec(benchmark="gsmenc", scale=SCALE)))
        with Runner(store=MemoryStore(), parallel=2) as runner:
            items = list(runner.stream(plan, on_error="yield"))
        errors = [i for i in items if isinstance(i, RunError)]
        records = [i for i in items if isinstance(i, RunRecord)]
        assert len(errors) == 1 and len(records) == 2
        assert errors[0].error_type == "WorkloadError"
        assert errors[0].traceback, "worker traceback must be captured"

    def test_runerror_reconstructs_repro_exception_types(self):
        err = RunError.from_dict({
            "spec": {}, "spec_key": "k",
            "error_type": "WorkloadError", "message": "boom",
        })
        assert isinstance(err.exception(), WorkloadError)
        alien = RunError.from_dict({
            "spec": {}, "spec_key": "k",
            "error_type": "KeyError", "message": "boom",
            "traceback": "tb",
        })
        exc = alien.exception()
        assert isinstance(exc, ExecutionError)
        assert "KeyError" in str(exc) and "tb" in str(exc)

    def test_runerror_roundtrips_through_dict(self):
        try:
            raise WorkloadError("nope")
        except WorkloadError as exc:
            err = RunError.from_exception(self.BAD, "key", exc)
        clone = RunError.from_dict(json.loads(json.dumps(err.to_dict())))
        assert clone.spec_key == "key"
        assert clone.error_type == "WorkloadError"
        assert "test_api_streaming" in clone.traceback


class TestJournalAndResume:
    def test_journal_records_done_events(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        runner = Runner(store=MemoryStore())
        records = runner.run(PLAN, journal=journal)
        state = RunJournal(tmp_path / "j.jsonl").load()
        assert state.plan_hash == PLAN.content_hash
        assert state.total == len(PLAN)
        assert state.done == {r.spec_key for r in records}
        assert not state.errors

    def test_killed_stream_resumes_without_reexecuting(self, tmp_path,
                                                       monkeypatch):
        store = DiskStore(tmp_path / "cache")
        journal = RunJournal(tmp_path / "j.jsonl")
        stream = Runner(store=store).stream(PLAN, journal=journal)
        next(stream), next(stream)
        stream.close()  # the "kill": two specs done, two never ran
        journal.close()
        state = RunJournal(tmp_path / "j.jsonl").load()
        assert len(state.done) == 2

        executed = []
        original = core.execute_spec

        def counting(spec, artifacts=None):
            executed.append(spec)
            return original(spec, artifacts=artifacts)

        monkeypatch.setattr("repro.api.runner.execute_spec", counting)
        resumed_journal = RunJournal(tmp_path / "j.jsonl")
        # A fresh store instance, as after a process kill + restart.
        records = Runner(store=DiskStore(tmp_path / "cache")).run(
            PLAN, journal=resumed_journal
        )
        assert len(executed) == 2, "completed work must not re-execute"
        assert [r.spec_key for r in records] == [
            s.content_hash for s in PLAN
        ]
        assert RunJournal(tmp_path / "j.jsonl").load().done == {
            s.content_hash for s in PLAN
        }

    def test_journal_for_a_different_plan_is_discarded(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        Runner(store=MemoryStore()).run(Plan(PLAN.specs[:2]),
                                        journal=journal)
        journal.close()
        other = Plan(PLAN.specs[2:])
        fresh = RunJournal(tmp_path / "j.jsonl")
        state = fresh.begin(other)
        assert state.done == set()
        assert state.plan_hash == other.content_hash

    def test_journal_errors_recorded_and_cleared_on_success(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        bad = RunSpec(benchmark="gsmdec", scale=SCALE, loop="nope")
        plan = Plan.single(bad)
        list(Runner(store=MemoryStore()).stream(
            plan, journal=journal, on_error="yield"
        ))
        journal.close()
        state = RunJournal(tmp_path / "j.jsonl").load()
        assert bad.content_hash in state.errors
        assert state.errors[bad.content_hash]["error_type"] == \
            "WorkloadError"
        # A later successful attempt supersedes the recorded failure.
        reopened = RunJournal(tmp_path / "j.jsonl")
        reopened.begin(plan)
        reopened.note_done(bad.content_hash)
        reopened.close()
        state = RunJournal(tmp_path / "j.jsonl").load()
        assert not state.errors
        assert state.done == {bad.content_hash}

    def test_torn_final_line_is_tolerated(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.begin(PLAN)
        journal.note_done("abc")
        journal.close()
        with open(tmp_path / "j.jsonl", "a") as handle:
            handle.write('{"event": "done", "key": "tr')  # kill mid-write
        state = RunJournal(tmp_path / "j.jsonl").load()
        assert state.done == {"abc"}

    def test_stale_package_version_restarts_the_journal(self, tmp_path,
                                                        monkeypatch):
        journal = RunJournal(tmp_path / "j.jsonl")
        journal.begin(PLAN)
        journal.note_done("abc")
        journal.close()
        monkeypatch.setattr("repro.api.journal._package_version",
                            lambda: "0.0.0-other")
        assert RunJournal(tmp_path / "j.jsonl").load().done == set()


class TestPoolLifecycle:
    def test_pool_persists_across_plans(self):
        with Runner(store=MemoryStore(), parallel=2) as runner:
            runner.run(Plan(PLAN.specs[:2]))
            pool = runner._pool
            assert pool is not None
            runner.run(PLAN)
            assert runner._pool is pool, "pool must be reused across plans"
        assert runner._pool is None

    def test_parallel_minus_one_pool_clamped_to_tasks(self, monkeypatch):
        # 2 specs -> at most 2 tasks after splitting: a many-core CI
        # runner must not fork cpu_count() idle workers for them.
        monkeypatch.setattr("repro.api.runner.multiprocessing.cpu_count",
                            lambda: 8)
        with Runner(store=MemoryStore(), parallel=-1) as runner:
            runner.run(Plan(PLAN.specs[:2]))
            assert runner._pool is not None
            assert runner._pool_size <= 2


class TestParallelFloorWarning:
    @pytest.fixture
    def reset_floor_warning(self):
        previous = core._floor_warning_emitted
        core._floor_warning_emitted = False
        yield
        core._floor_warning_emitted = previous

    def test_single_parent_side_warning(self, reset_floor_warning):
        # pgpdec at tiny scale hits the kernel-iteration floor; workers
        # suppress their per-process warning, the parent re-derives one
        # from LoopRecord.iteration_floor.
        plan = Plan.grid(benchmarks=["pgpdec"],
                         variants=("mdc/prefclus", "ddgt/prefclus"),
                         scale=0.01)
        with Runner(store=MemoryStore(), parallel=2) as runner:
            with pytest.warns(RuntimeWarning,
                              match="kernel-iteration floor") as caught:
                records = runner.run(plan)
        assert any(l.iteration_floor for r in records for l in r.loops)
        floor_warnings = [w for w in caught
                          if "kernel-iteration floor" in str(w.message)]
        assert len(floor_warnings) == 1, (
            "exactly one warning, not one per worker"
        )
        assert "worker process" in str(floor_warnings[0].message)


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

    def test_index_is_persisted_and_reused(self, tmp_path):
        store = JsonFileStore(tmp_path)
        for i in range(10):
            store.put_payload(f"key-{i}", {"i": i})
        assert sum(1 for _ in store.keys()) == 10  # builds + persists
        assert (tmp_path / "index.meta").exists()
        fresh = JsonFileStore(tmp_path)
        assert sum(1 for _ in fresh.keys()) == 10

    def test_index_picks_up_external_writers(self, tmp_path):
        reader = JsonFileStore(tmp_path)
        reader.put_payload("a", {"x": 1})
        assert list(reader.keys()) == ["a"]  # index now warm
        writer = JsonFileStore(tmp_path)  # another "process"
        writer.put_payload("b", {"x": 2})
        assert sorted(reader.keys()) == ["a", "b"], (
            "a warm index must revalidate against shard dir mtimes"
        )
        time.sleep(0.05)  # let the shard dir mtime tick past the scan's
        writer_entry = writer.entry_path("b")
        writer_entry.unlink()
        # Removals are seen too (the shard dir mtime changed again).
        assert list(reader.keys()) == ["a"]

    def test_own_write_never_masks_a_concurrent_writers_entry(self,
                                                              tmp_path):
        """Regression: an in-process put must *invalidate* its shard's
        index cell, not re-stamp it — stamping the post-write directory
        mtime would permanently hide an entry another process slipped
        into the same shard between our last scan and our write."""
        from repro.api.store import shard_prefix

        # k9 / k26 / k66 share shard '76' (asserted so a hashing change
        # fails loudly instead of silently weakening the test).
        assert len({shard_prefix(k) for k in ("k9", "k26", "k66")}) == 1
        a = JsonFileStore(tmp_path)
        a.put_payload("k9", {"v": 1})
        assert list(a.keys()) == ["k9"]  # A's index is now warm
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

    def test_prune_uses_the_index_and_stays_correct(self, tmp_path):
        store = JsonFileStore(tmp_path)
        store.put_payload("old", {"x": 1})
        store.put_payload("new", {"x": 2})
        stale = time.time() - 3600
        os.utime(store.entry_path("old"), (stale, stale))
        assert store.prune(older_than_seconds=60) == 1
        assert list(store.keys()) == ["new"]
        assert store.get_payload("old") is None

    def test_corrupt_persisted_index_is_rebuilt(self, tmp_path):
        store = JsonFileStore(tmp_path)
        store.put_payload("k", {"x": 1})
        list(store.keys())
        (tmp_path / "index.meta").write_text("{garbage")
        assert list(JsonFileStore(tmp_path).keys()) == ["k"]

    def test_diskstore_rejects_wrong_shape_entry(self, tmp_path):
        # Valid JSON that is no envelope must self-heal: a miss, and the
        # entry is removed.
        store = DiskStore(tmp_path)
        entry = store.entry_path("bad")
        entry.parent.mkdir(parents=True)
        entry.write_text("[1, 2]")
        assert store.get("bad") is None
        assert not entry.exists()


class TestCliResume:
    def test_resume_requires_disk_store(self, tmp_path, capsys):
        from repro.api.cli import main

        rc = main(["run", "gsmdec", "-v", "mdc/prefclus", "--scale", "0.1",
                   "--no-cache", "--resume"])
        assert rc == 2
        assert "--resume" in capsys.readouterr().err

    def test_run_resume_smoke(self, tmp_path, capsys):
        from repro.api.cli import main

        args = ["run", "gsmdec", "-v", "mdc/prefclus", "--scale", "0.1",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        journals = list((tmp_path / "journal").glob("*.jsonl"))
        assert len(journals) == 1
        first = capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_sweep_resume_smoke(self, tmp_path, capsys):
        from repro.api.cli import main

        args = ["scenarios", "sweep", "--seed", "3", "--count", "2",
                "--scale", "0.05", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        assert list((tmp_path / "journal").glob("*.jsonl"))
        first = capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_journal_root_follows_cache_dir(self, tmp_path):
        assert journal_root(tmp_path) == tmp_path / "journal"
