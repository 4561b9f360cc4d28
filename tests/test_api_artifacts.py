"""ArtifactStore implementations: ownership, counters, pruning, defaults."""

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

    def test_memoized_reread(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        store.put("k", PAYLOAD)
        store.entry_path("k").unlink()
        # The in-process memo still serves (and returns a fresh copy).
        first = store.get("k")
        first["factor"] = -1
        assert store.get("k") == PAYLOAD

    def test_prune_by_age(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        store.put("old", PAYLOAD)
        store.put("new", PAYLOAD)
        stale = time.time() - 3600
        os.utime(store.entry_path("old"), (stale, stale))
        assert store.prune(older_than_seconds=60) == 1
        assert sorted(store.keys()) == ["new"]
        # The in-process memo must not resurrect the pruned entry.
        assert store.get("old") is None

    def test_default_root_is_artifacts_subdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert DiskArtifactStore().root == tmp_path / "cache" / "artifacts"
        assert artifact_root() == tmp_path / "cache" / "artifacts"
        assert artifact_root("elsewhere") == (
            artifact_root("elsewhere")
        )


class TestCounters:
    def test_hit_miss_accounting(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        store.get("frontend-a")        # miss
        store.put("frontend-a", PAYLOAD)
        store.get("frontend-a")        # hit
        store.get("frontend-b")        # miss
        stats = artifact_stats()
        assert stats.hits == 1
        assert stats.misses == 2
        assert stats.puts == 1
        assert stats.lookups == 3
        assert stats.hit_rate == pytest.approx(1 / 3)

    def test_counters_span_stores(self):
        a, b = MemoryArtifactStore(), MemoryArtifactStore()
        a.get("unroll-x")
        b.get("unroll-x")
        assert artifact_stats().misses == 2


class TestDefaultArtifactStore:
    def test_swap_and_restore(self):
        fresh = MemoryArtifactStore()
        previous = set_default_artifact_store(fresh)
        try:
            assert default_artifact_store() is fresh
        finally:
            set_default_artifact_store(previous)
        assert default_artifact_store() is previous
