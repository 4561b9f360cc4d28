"""ResultStore implementations: hit/miss, version invalidation, defaults."""

import errno
import json
import os
import time
from pathlib import Path

import pytest

from repro.api.artifacts import DiskArtifactStore
from repro.api.records import LoopRecord, RunRecord
from repro.api.store import (
    DiskStore,
    MemoryStore,
    default_store,
    remove_files,
    set_default_store,
    shard_prefix,
)
from repro.sim.stats import SimStats


def make_record(benchmark="gsmdec", cycles=100) -> RunRecord:
    stats = SimStats()
    stats.compute_cycles = cycles
    loop = LoopRecord(
        benchmark=benchmark, loop=f"{benchmark}.l0", variant="mdc/prefclus",
        ii=3, unroll=2, kernel_iterations=64, compute_cycles=cycles,
        stall_cycles=7, stats=stats, violations=0, static_copies=2,
        replicated_instances=0, fake_consumers=0,
    )
    return RunRecord(benchmark=benchmark, variant="mdc/prefclus",
                     scale=0.1, spec_key="k", loops=[loop])


def write_entry(store, key, text):
    """Plant raw ``text`` where ``store`` keeps ``key``."""
    entry = store.entry_path(key)
    entry.parent.mkdir(parents=True, exist_ok=True)
    entry.write_text(text)
    return entry


class TestMemoryStore:
    def test_miss_then_hit(self):
        store = MemoryStore()
        assert store.get("k") is None
        record = make_record()
        store.put("k", record)
        assert store.get("k") is record
        assert "k" in store
        assert len(store) == 1

    def test_clear_returns_count(self):
        store = MemoryStore()
        store.put("a", make_record())
        store.put("b", make_record())
        assert store.clear() == 2
        assert store.get("a") is None


class TestDiskStore:
    def test_roundtrip_across_instances(self, tmp_path):
        record = make_record(cycles=123)
        DiskStore(tmp_path).put("key1", record)
        # A brand-new store instance (as in a second process) must hit.
        fetched = DiskStore(tmp_path).get("key1")
        assert fetched is not None
        assert fetched.to_dict() == record.to_dict()
        assert fetched.loops[0].compute_cycles == 123

    def test_version_bump_invalidates(self, tmp_path):
        DiskStore(tmp_path, version="1.0.0").put("key1", make_record())
        old = DiskStore(tmp_path, version="1.0.0")
        assert old.get("key1") is not None
        bumped = DiskStore(tmp_path, version="2.0.0")
        assert bumped.get("key1") is None
        # The stale file was dropped, so even the old version misses now.
        assert DiskStore(tmp_path, version="1.0.0").get("key1") is None

    def test_default_version_is_package_version(self, tmp_path):
        import repro

        store = DiskStore(tmp_path)
        assert store.version == repro.__version__
        store.put("key1", make_record())
        payload = json.loads(store.entry_path("key1").read_text())
        assert payload["version"] == repro.__version__

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = DiskStore(tmp_path)
        write_entry(store, "bad", "{not json")
        assert store.get("bad") is None

    def test_wrong_shape_entry_is_a_miss_and_removed(self, tmp_path):
        """Valid JSON of the wrong shape must self-heal, not crash."""
        import repro

        store = DiskStore(tmp_path)
        write_entry(store, "a", "[1, 2, 3]")
        write_entry(store, "b", json.dumps(
            {"version": repro.__version__}  # no 'record'
        ))
        write_entry(store, "c", json.dumps(
            {"version": repro.__version__, "record": {"loops": 3}}
        ))
        for key in ("a", "b", "c"):
            assert store.get(key) is None
            assert not store.entry_path(key).exists(), key

    def test_clear_and_info(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("a", make_record())
        store.put("b", make_record())
        assert sorted(store.keys()) == ["a", "b"]
        assert store.size_bytes() > 0
        assert store.clear() == 2
        assert list(store.keys()) == []

    def test_prune_drops_old_entries(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("old", make_record(cycles=1))
        store.put("new", make_record(cycles=2))
        assert store.get("old") is not None
        stale = time.time() - 3600
        os.utime(store.entry_path("old"), (stale, stale))
        assert store.prune(older_than_seconds=60) == 1
        assert store.get("old") is None, "pruned entry must not be served"
        assert store.get("new") is not None
        assert sorted(store.keys()) == ["new"]

    def test_every_get_reads_the_file(self, tmp_path):
        """Nothing is kept in process: an entry whose file is gone is a
        miss for the instance that wrote and read it, too."""
        store = DiskStore(tmp_path)
        store.put("k", make_record())
        assert store.get("k") is not None
        store.entry_path("k").unlink()
        assert store.get("k") is None
        assert "k" not in store

    @pytest.mark.parametrize("store_cls, payload", [
        (DiskStore, make_record()),
        (DiskArtifactStore, {"x": 1}),
    ], ids=["records", "artifacts"])
    def test_prune_removes_temp_files_of_killed_writers(self, tmp_path,
                                                        store_cls, payload):
        """A writer killed between mkstemp and its rename leaves a temp
        file in the shard: prune removes it once it is as old as the
        cutoff, keeps a younger one (a write in flight), and counts
        entries only."""
        store = store_cls(tmp_path)
        store.put("old", payload)
        store.put("new", payload)
        shard = store.entry_path("old").parent
        killed = shard / "tmpkilled.tmp"
        in_flight = shard / "tmpwriting.tmp"
        for path in (killed, in_flight):
            path.write_text('{"torn')
        stale = time.time() - 30 * 86400
        for path in (store.entry_path("old"), killed):
            os.utime(path, (stale, stale))
        assert store.prune(older_than_seconds=86400) == 1
        assert not killed.exists()
        assert in_flight.exists()
        assert sorted(store.keys()) == ["new"]

    def test_env_var_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        store = DiskStore()
        assert store.root == tmp_path / "envcache"


class TestTwoInstancesOnOneRoot:
    """What one instance does to the directory, the other sees at once:
    its ``get`` and ``in`` agree with its ``keys()``."""

    @staticmethod
    def agree(store, key):
        listed = key in set(store.keys())
        assert (store.get(key) is not None) is listed
        assert (key in store) is listed
        return listed

    def test_clear(self, tmp_path):
        a, b = DiskStore(tmp_path), DiskStore(tmp_path)
        a.put("k", make_record())
        assert a.get("k") is not None
        assert self.agree(a, "k")
        assert b.clear() == 1
        assert not self.agree(a, "k")

    def test_prune(self, tmp_path):
        a, b = DiskStore(tmp_path), DiskStore(tmp_path)
        a.put("k", make_record())
        assert a.get("k") is not None
        stale = time.time() - 3600
        os.utime(a.entry_path("k"), (stale, stale))
        assert b.prune(older_than_seconds=60) == 1
        assert not self.agree(a, "k")

    def test_rewrite(self, tmp_path):
        a, b = DiskStore(tmp_path), DiskStore(tmp_path)
        a.put("k", make_record(cycles=1))
        assert a.get("k").loops[0].compute_cycles == 1
        b.put("k", make_record(cycles=2))
        assert self.agree(a, "k")
        assert a.get("k").loops[0].compute_cycles == 2


class TestDiskStoreConcurrencyHardening:
    def test_torn_read_retries_until_writer_finishes(self, tmp_path,
                                                     monkeypatch):
        """A partially-visible entry that completes while the reader
        retries must be served, not deleted."""
        record = make_record(cycles=55)
        writer = DiskStore(tmp_path)
        writer.put("key1", record)
        entry = writer.entry_path("key1")
        good = entry.read_text()
        entry.write_text(good[: len(good) // 2])

        reader = DiskStore(tmp_path)
        attempts = []
        original = DiskStore._read_payload

        def heal_then_read(self, path):
            def patched_sleep(_seconds):
                # The "writer" finishes its atomic rename mid-retry.
                entry.write_text(good)

            monkeypatch.setattr("repro.api.store.time.sleep", patched_sleep)
            attempts.append(path)
            return original(self, path)

        monkeypatch.setattr(DiskStore, "_read_payload", heal_then_read)
        fetched = reader.get("key1")
        assert fetched is not None
        assert fetched.loops[0].compute_cycles == 55
        assert entry.exists()

    @pytest.mark.parametrize("store_type", [DiskStore, DiskArtifactStore])
    def test_unreadable_entry_is_retried_then_a_miss_and_kept(
            self, tmp_path, monkeypatch, store_type):
        """A read failing with an ``OSError`` other than a missing file
        (here a directory where the entry should be) proves nothing
        about the entry: it is retried, then served as a miss, and the
        entry stays on disk."""
        delays = []
        monkeypatch.setattr("repro.api.store.time.sleep", delays.append)
        store = store_type(tmp_path)
        entry = store.entry_path("blocked")
        entry.mkdir(parents=True)
        assert store.get("blocked") is None
        assert len(delays) == store.READ_ATTEMPTS - 1
        assert entry.is_dir()

    @pytest.mark.parametrize("store_type", [DiskStore, DiskArtifactStore])
    def test_directory_at_an_entry_path_is_no_entry(
            self, tmp_path, monkeypatch, store_type):
        """Only a regular file is an entry: a directory where one should
        be is no key, counts toward neither ``len`` nor ``size_bytes``
        (``repro cache info``), reads as a miss and is nothing ``clear``
        removed."""
        monkeypatch.setattr("repro.api.store.time.sleep", lambda _s: None)
        store = store_type(tmp_path)
        store.entry_path("blocked").mkdir(parents=True)
        assert list(store.keys()) == []
        assert len(store) == 0
        assert store.size_bytes() == 0
        assert store.get("blocked") is None
        assert store.clear() == 0

    @pytest.mark.parametrize("store_type, value", [
        (DiskStore, make_record(cycles=41)),
        (DiskArtifactStore, {"ddg": [1, 2], "factor": 2}),
    ])
    def test_failing_read_of_a_healthy_entry_keeps_it(
            self, tmp_path, monkeypatch, store_type, value):
        """An I/O error on every attempt is a miss, never a deletion:
        once reads work again, a fresh store serves the entry intact."""
        store_type(tmp_path).put("key1", value)
        entry = store_type(tmp_path).entry_path("key1")
        attempts = []

        def failing_open(path, *args, **kwargs):
            attempts.append(path)
            raise OSError(errno.EIO, "injected I/O error", path)

        monkeypatch.setattr("repro.api.store.time.sleep", lambda _s: None)
        monkeypatch.setattr("repro.api.store.open", failing_open,
                            raising=False)
        assert store_type(tmp_path).get("key1") is None
        assert len(attempts) == store_type.READ_ATTEMPTS
        assert entry.is_file()
        monkeypatch.undo()
        assert store_type(tmp_path).get("key1") == value

    def test_persistently_corrupt_entry_is_dropped(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr("repro.api.store.time.sleep", lambda _s: None)
        store = DiskStore(tmp_path)
        entry = write_entry(store, "bad", "{torn")
        assert store.get("bad") is None
        assert not entry.exists()

    def test_concurrent_writers_same_key_keep_store_readable(self, tmp_path):
        """Interleaved atomic puts of the same key never tear reads."""
        import threading

        stores = [DiskStore(tmp_path) for _ in range(4)]
        errors = []

        def hammer(store, cycles):
            try:
                for _ in range(25):
                    store.put("shared", make_record(cycles=cycles))
                    got = DiskStore(tmp_path).get("shared")
                    assert got is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(store, 100 + i))
            for i, store in enumerate(stores)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        final = DiskStore(tmp_path).get("shared")
        assert final is not None
        # No stray temp files survive the interleaved writes (they are
        # created next to their entry, inside the shard directory).
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_size_bytes_tolerates_entries_vanishing_mid_scan(self, tmp_path):
        """``repro cache info`` must not crash when a concurrent
        prune/clear deletes an entry between the glob and the stat.  A
        dangling symlink reproduces exactly that window: listed by the
        shard walk, gone by stat time."""
        store = DiskStore(tmp_path)
        store.put("a", make_record())
        store.put("b", make_record())
        intact = store.size_bytes()
        assert intact > 0
        # A shard no entry lives in yet, so the symlink is the only
        # entry in it (asserted so a hashing change fails loudly
        # instead of silently weakening the test).
        assert shard_prefix("vanished") not in {
            shard_prefix("a"), shard_prefix("b")
        }
        vanished = store.entry_path("vanished")
        vanished.parent.mkdir()
        vanished.symlink_to(tmp_path / "no-such-entry")
        assert store.size_bytes() == intact
        assert sorted(store.keys()) == ["a", "b"]


class TestRemoveFiles:
    """The one helper behind store clears and prunes."""

    def test_glob_and_age_cutoff(self, tmp_path):
        old, fresh, other = (tmp_path / name for name in
                             ("old.jsonl", "fresh.jsonl", "keep.json"))
        for path in (old, fresh, other):
            path.write_text("x")
        stale = time.time() - 3600
        os.utime(old, (stale, stale))
        assert remove_files(tmp_path, "*.jsonl", 60) == 1
        assert not old.exists() and fresh.exists()
        assert remove_files(tmp_path, "*.jsonl") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.json"]

    def test_missing_directory_removes_nothing(self, tmp_path):
        assert remove_files(tmp_path / "absent", "*.jsonl") == 0

    def test_file_removed_concurrently_is_skipped(self, tmp_path,
                                                  monkeypatch):
        for name in ("a.jsonl", "b.jsonl"):
            (tmp_path / name).write_text("x")
        raced = tmp_path / "a.jsonl"
        real_unlink = Path.unlink

        def unlink_after_another_process(path, *args, **kwargs):
            if path == raced:
                real_unlink(path)
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", unlink_after_another_process)
        assert remove_files(tmp_path, "*.jsonl") == 1
        assert list(tmp_path.iterdir()) == []


class TestDefaultStore:
    def test_swap_and_restore(self):
        fresh = MemoryStore()
        previous = set_default_store(fresh)
        try:
            assert default_store() is fresh
        finally:
            set_default_store(previous)
        assert default_store() is previous
