"""ArtifactStore implementations: ownership, fresh decodes, one parse
per disk read, cross-instance consistency, pruning, defaults."""

import json
import os
import time

import pytest

from repro.api.artifacts import (
    DiskArtifactStore,
    MemoryArtifactStore,
    artifact_root,
    artifact_stats,
    default_artifact_store,
    reset_artifact_stats,
    set_default_artifact_store,
)


@pytest.fixture(autouse=True)
def fresh_stats():
    reset_artifact_stats()
    yield
    reset_artifact_stats()


PAYLOAD = {"ddg": {"nodes": [1, 2, 3]}, "factor": 4}


def make_store(store_type, tmp_path):
    if store_type == "memory":
        return MemoryArtifactStore()
    return DiskArtifactStore(tmp_path)


class TestMemoryArtifactStore:
    def test_miss_then_hit(self):
        store = MemoryArtifactStore()
        assert store.get("unroll-abc") is None
        store.put("unroll-abc", PAYLOAD)
        assert store.get("unroll-abc") == PAYLOAD
        assert "unroll-abc" in store
        assert len(store) == 1
        assert store.clear() == 1
        assert store.get("unroll-abc") is None

    def test_get_returns_an_owned_copy(self):
        """Mutating a fetched payload must never poison the store."""
        store = MemoryArtifactStore()
        store.put("k", PAYLOAD)
        fetched = store.get("k")
        fetched["ddg"]["nodes"].append(999)
        assert store.get("k") == PAYLOAD

    def test_put_stores_a_snapshot_not_a_reference(self):
        store = MemoryArtifactStore()
        payload = {"factor": 1, "ddg": {"nodes": []}}
        store.put("k", payload)
        payload["factor"] = 99
        assert store.get("k")["factor"] == 1

    def test_absorb_holds_a_workers_entries(self):
        store = MemoryArtifactStore()
        text = MemoryArtifactStore().put("k", PAYLOAD)
        store.absorb({"k": text})
        assert store.get("k") == PAYLOAD
        assert list(store.keys()) == ["k"]


class TestDiskArtifactStore:
    def test_roundtrip_across_instances(self, tmp_path):
        DiskArtifactStore(tmp_path).put("profile-k1", PAYLOAD)
        fetched = DiskArtifactStore(tmp_path).get("profile-k1")
        assert fetched == PAYLOAD

    def test_envelope_is_version_stamped(self, tmp_path):
        import repro

        store = DiskArtifactStore(tmp_path)
        store.put("k", PAYLOAD)
        envelope = json.loads(store.entry_path("k").read_text())
        assert envelope["version"] == repro.__version__
        assert envelope["artifact"] == PAYLOAD

    def test_version_bump_invalidates(self, tmp_path):
        old = DiskArtifactStore(tmp_path, version="1.0.0")
        old.put("k", PAYLOAD)
        assert DiskArtifactStore(tmp_path, version="2.0.0").get("k") is None
        assert not old.entry_path("k").exists()

    def test_every_get_reads_the_file(self, tmp_path):
        """Nothing is kept in process: an entry whose file is gone is a
        miss for the instance that wrote and read it, too."""
        store = DiskArtifactStore(tmp_path)
        store.put("k", PAYLOAD)
        first = store.get("k")
        first["factor"] = -1
        assert store.get("k") == PAYLOAD
        store.entry_path("k").unlink()
        assert store.get("k") is None
        assert "k" not in store

    def test_a_read_parses_its_file_once_and_encodes_nothing(
            self, tmp_path, monkeypatch):
        """Each get, of an instance that wrote the entry or of a fresh
        one, makes one JSON pass: parsing the file."""
        store = DiskArtifactStore(tmp_path)
        store.put("k", PAYLOAD)
        calls = []
        loads, dumps = json.loads, json.dumps

        def counted_loads(*args, **kwargs):
            calls.append("loads")
            return loads(*args, **kwargs)

        def counted_dumps(*args, **kwargs):
            calls.append("dumps")
            return dumps(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counted_loads)
        monkeypatch.setattr(json, "dumps", counted_dumps)
        for reader in (store, DiskArtifactStore(tmp_path)):
            assert reader.get("k") == PAYLOAD
            assert calls == ["loads"]
            calls.clear()
        fresh = DiskArtifactStore(tmp_path)
        assert fresh.get("k", lambda payload: payload["factor"]) == 4
        assert calls == ["loads"]

    def test_absorb_writes_nothing(self, tmp_path):
        """A worker's copy of a disk store wrote its entries' files
        already, so absorbing their texts adds nothing."""
        store = DiskArtifactStore(tmp_path)
        store.absorb({"k": json.dumps(PAYLOAD)})
        assert list(store.keys()) == []
        assert store.get("k") is None

    def test_prune_by_age(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        store.put("old", PAYLOAD)
        store.put("new", PAYLOAD)
        stale = time.time() - 3600
        os.utime(store.entry_path("old"), (stale, stale))
        assert store.prune(older_than_seconds=60) == 1
        assert sorted(store.keys()) == ["new"]
        assert store.get("old") is None

    def test_default_root_is_artifacts_subdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert DiskArtifactStore().root == tmp_path / "cache" / "artifacts"
        assert artifact_root() == tmp_path / "cache" / "artifacts"
        assert artifact_root("elsewhere") == (
            artifact_root("elsewhere")
        )


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
        a, b = DiskArtifactStore(tmp_path), DiskArtifactStore(tmp_path)
        a.put("k", PAYLOAD)
        assert a.get("k") == PAYLOAD
        assert self.agree(a, "k")
        assert b.clear() == 1
        assert not self.agree(a, "k")

    def test_prune(self, tmp_path):
        a, b = DiskArtifactStore(tmp_path), DiskArtifactStore(tmp_path)
        a.put("k", PAYLOAD)
        assert a.get("k") == PAYLOAD
        stale = time.time() - 3600
        os.utime(a.entry_path("k"), (stale, stale))
        assert b.prune(older_than_seconds=60) == 1
        assert not self.agree(a, "k")

    def test_rewrite(self, tmp_path):
        a, b = DiskArtifactStore(tmp_path), DiskArtifactStore(tmp_path)
        a.put("k", PAYLOAD)
        assert a.get("k") == PAYLOAD
        b.put("k", dict(PAYLOAD, factor=8))
        assert self.agree(a, "k")
        assert a.get("k") == dict(PAYLOAD, factor=8)


class TestFreshDecodes:
    """A bare store holds nothing decoded: ``get(key, decode)`` decodes
    afresh on every call.  What a group of compiles shares is held by
    its ``repro.api.core.LoopMemo``."""

    @pytest.mark.parametrize("store_type", ["memory", "disk"])
    def test_every_get_decodes(self, tmp_path, store_type):
        store = make_store(store_type, tmp_path)
        calls = []

        def decode(payload):
            calls.append(payload["factor"])
            return ["decoded", payload["factor"]]

        assert store.get("k", decode) is None
        store.put("k", PAYLOAD)
        first = store.get("k", decode)
        second = store.get("k", decode)
        assert first == second == ["decoded", 4]
        assert first is not second
        assert calls == [4, 4]
        store.put("k", dict(PAYLOAD, factor=8))
        assert store.get("k", decode) == ["decoded", 8]

    @pytest.mark.parametrize("store_type", ["memory", "disk"])
    def test_stores_count_nothing(self, tmp_path, store_type):
        """The pipeline counts its lookups and puts; a store's own gets
        and puts move no counter."""
        store = make_store(store_type, tmp_path)
        store.get("frontend-a")
        store.put("frontend-a", PAYLOAD)
        store.get("frontend-a")
        stats = artifact_stats()
        assert (stats.hits, stats.misses, stats.puts) == (0, 0, 0)


class TestDefaultArtifactStore:
    def test_swap_and_restore(self):
        fresh = MemoryArtifactStore()
        previous = set_default_artifact_store(fresh)
        try:
            assert default_artifact_store() is fresh
        finally:
            set_default_artifact_store(previous)
        assert default_artifact_store() is previous
