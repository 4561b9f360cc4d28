"""ArtifactStore implementations: ownership, decoded values, counters,
pruning, defaults."""

import json
import os
import time

import pytest

from repro.api.artifacts import (
    DECODED_ENTRIES,
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


class TestDecodedValues:
    """``get(key, decode)`` decodes once per key and keeps the value in a
    bounded LRU that ``clear``, ``prune``, a re-``put`` and an ``absorb``
    of the key drop."""

    @staticmethod
    def decoder():
        calls = []

        def decode(payload):
            calls.append(payload["factor"])
            return ("decoded", payload["factor"])

        return decode, calls

    @pytest.mark.parametrize("store_type", ["memory", "disk"])
    def test_decoded_once_per_key(self, tmp_path, store_type):
        store = (MemoryArtifactStore() if store_type == "memory"
                 else DiskArtifactStore(tmp_path))
        decode, calls = self.decoder()
        assert store.get("k", decode) is None
        store.put("k", PAYLOAD)
        first = store.get("k", decode)
        assert first == ("decoded", 4)
        assert store.get("k", decode) is first
        assert calls == [4]
        # A plain get still hands out a fresh payload.
        assert store.get("k") == PAYLOAD
        # Another decode function never sees this one's value.
        other, other_calls = self.decoder()
        assert store.get("k", other) == ("decoded", 4)
        assert other_calls == [4]
        stats = artifact_stats()
        assert (stats.hits, stats.misses, stats.puts) == (4, 1, 1)

    def test_re_put_drops_the_decoded_value(self):
        store = MemoryArtifactStore()
        decode, calls = self.decoder()
        store.put("k", PAYLOAD)
        store.get("k", decode)
        store.put("k", dict(PAYLOAD, factor=8))
        assert store.get("k", decode) == ("decoded", 8)
        assert calls == [4, 8]

    def test_absorb_drops_the_decoded_value(self, tmp_path):
        for store in (MemoryArtifactStore(), DiskArtifactStore(tmp_path)):
            decode, calls = self.decoder()
            store.put("k", PAYLOAD)
            store.get("k", decode)
            store.absorb({"k": json.dumps(dict(PAYLOAD, factor=8))})
            assert store.get("k", decode) == ("decoded", 8)
            assert calls == [4, 8]

    @pytest.mark.parametrize("store_type", ["memory", "disk"])
    def test_clear_drops_the_decoded_value(self, tmp_path, store_type):
        store = (MemoryArtifactStore() if store_type == "memory"
                 else DiskArtifactStore(tmp_path))
        decode, calls = self.decoder()
        store.put("k", PAYLOAD)
        store.get("k", decode)
        assert store.clear() == 1
        assert store.get("k", decode) is None
        store.put("k", PAYLOAD)
        assert store.get("k", decode) == ("decoded", 4)
        assert calls == [4, 4]

    def test_prune_drops_the_decoded_value(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        decode, calls = self.decoder()
        store.put("old", PAYLOAD)
        assert store.get("old", decode) == ("decoded", 4)
        stale = time.time() - 3600
        os.utime(store.entry_path("old"), (stale, stale))
        assert store.prune(older_than_seconds=60) == 1
        assert store.get("old", decode) is None
        assert calls == [4]

    def test_lru_never_exceeds_its_bound(self):
        store = MemoryArtifactStore()
        decode, calls = self.decoder()
        keys = [f"k{n}" for n in range(DECODED_ENTRIES + 5)]
        for n, key in enumerate(keys):
            store.put(key, dict(PAYLOAD, factor=n))
        for key in keys + keys[::-1]:
            store.get(key, decode)
            assert len(store._decoded) <= DECODED_ENTRIES
        # The most recently used keys are served without a decode; the
        # least recently used one was evicted and decodes again.
        calls.clear()
        for key in keys[:DECODED_ENTRIES]:
            store.get(key, decode)
        assert calls == []
        store.get(keys[-1], decode)
        assert calls == [len(keys) - 1]


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
