"""Content-addressed compilation artifacts.

One layer below the :class:`~repro.api.store.ResultStore`: where the
result store caches a *finished* ``RunRecord`` per spec hash, the
artifact store caches the compilation pipeline's front end — one entry
per loop holding its unrolled, disambiguated graph, unroll factor and
preferred-cluster profiles — keyed by
:func:`repro.sched.stages.frontend_artifact_key`.  The paper's 6-way
coherence × heuristic cross shares that front end verbatim, so a
differential sweep that would run it six times per loop hits the warm
entry five times instead.

Two implementations:

* :class:`MemoryArtifactStore` — process-local (the default);
* :class:`DiskArtifactStore` — one JSON file per artifact under
  ``.repro_cache/artifacts/``, on the hardened
  :class:`~repro.api.store.JsonFileStore` machinery (atomic writes,
  torn-read retries, version stamping, pruning, prefix-sharded
  directories).

Both return callers a *fresh* decode of the stored JSON on every get, so
a pipeline mutating the graph it built from an artifact can never poison
the cache.  Process-wide hit/miss/put counters feed a run's
``--metrics`` snapshot and the stage benchmarks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from repro.api.store import JsonFileStore, resolve_cache_root
from repro.obs import metrics, trace

#: Subdirectory of the cache root that holds artifacts.
ARTIFACT_SUBDIR = "artifacts"


def artifact_root(cache_root: Union[str, Path, None] = None) -> Path:
    """The artifact directory for a cache root (default: the process
    cache root, i.e. ``.repro_cache/artifacts/`` or
    ``$REPRO_CACHE_DIR/artifacts/``)."""
    return resolve_cache_root(cache_root) / ARTIFACT_SUBDIR


# ----------------------------------------------------------------------
# Process-wide counters
# ----------------------------------------------------------------------
@dataclass
class ArtifactStats:
    """Hit/miss/put counters.

    Since the `repro.obs` migration this is a *snapshot view* built by
    :func:`artifact_stats` from the process metrics registry
    (``artifacts.lookups`` labeled by outcome, ``artifacts.puts``) —
    fetch it after the work you want to measure.
    Because the runner merges each pool worker's metric deltas back into
    the parent registry, the view now covers ``parallel>1`` runs too.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def artifact_stats() -> ArtifactStats:
    """Current artifact counters, read out of the metrics registry."""
    stats = ArtifactStats()
    reg = metrics.registry()
    for labels, value in reg.counter_items("artifacts.lookups"):
        if labels.get("outcome") == "hit":
            stats.hits += int(value)
        else:
            stats.misses += int(value)
    stats.puts = int(reg.counter("artifacts.puts"))
    return stats


def reset_artifact_stats() -> None:
    """Zero the artifact metrics (tests and benchmarks)."""
    metrics.registry().reset("artifacts.")


# ----------------------------------------------------------------------
# Stores
# ----------------------------------------------------------------------
class ArtifactStore:
    """Interface: a keyed store of JSON-able artifact payloads.

    ``get`` returns a payload the caller owns outright (mutating it never
    affects the store).  Implementations provide ``_get``/``_put`` over
    canonical JSON text; this base class adds the counters.
    """

    def get(self, key: str) -> Optional[dict]:
        with trace.span("artifact.get", cat="artifact", key=key):
            text = self._get(key)
        metrics.inc("artifacts.lookups",
                    outcome="miss" if text is None else "hit")
        if text is None:
            return None
        return json.loads(text)

    def put(self, key: str, payload: dict) -> str:
        """Store ``payload``; returns its canonical JSON text so callers
        that immediately replay what they stored (the staged pipeline's
        cold path) can decode it without re-encoding."""
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        with trace.span("artifact.put", cat="artifact", key=key):
            self._put(key, text)
        metrics.inc("artifacts.puts")
        return text

    def absorb(self, entries: Dict[str, str]) -> None:
        """Hold ``entries`` (key -> canonical JSON text) that a pool
        worker put into its copy of this store.  No counter moves: the
        worker counted its puts, and its metrics reach the parent."""
        for key, text in entries.items():
            self._put(key, text)

    # -- implementation hooks ------------------------------------------
    def _get(self, key: str) -> Optional[str]:
        raise NotImplementedError

    def _put(self, key: str, text: str) -> None:
        raise NotImplementedError

    def clear(self) -> int:
        raise NotImplementedError

    def keys(self) -> Iterator[str]:
        raise NotImplementedError

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __contains__(self, key: str) -> bool:
        return self._get(key) is not None


class MemoryArtifactStore(ArtifactStore):
    """Process-local artifact store over canonical JSON text.

    Storing *text* (not live objects) keeps its semantics identical to
    the disk store: every get decodes afresh, so warm in-memory hits and
    warm cross-process disk hits replay byte-identical payloads.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, str] = {}

    def _get(self, key: str) -> Optional[str]:
        return self._entries.get(key)

    def _put(self, key: str, text: str) -> None:
        self._entries[key] = text

    def clear(self) -> int:
        count = len(self._entries)
        self._entries.clear()
        return count

    def keys(self) -> Iterator[str]:
        return iter(tuple(self._entries))


class DiskArtifactStore(JsonFileStore, ArtifactStore):
    """One JSON file per artifact under ``root`` (default
    ``.repro_cache/artifacts/``), version-stamped and prefix-sharded
    like the record store.

    Payload text is memoized in-process after the first read, so a sweep
    re-deriving the same key pays the disk read once.
    """

    PAYLOAD_FIELD = "artifact"

    def __init__(self, root: Union[str, Path, None] = None,
                 version: Optional[str] = None) -> None:
        if root is None:
            root = artifact_root()
        JsonFileStore.__init__(self, root, version)
        self._memo: Dict[str, str] = {}

    def _get(self, key: str) -> Optional[str]:
        with trace.span("store.get", cat="store", key=key,
                        kind=self.PAYLOAD_FIELD):
            memoized = self._memo.get(key)
            if memoized is not None:
                return memoized
            payload = self.get_payload(key)
            if payload is None:
                return None
            text = json.dumps(payload, sort_keys=True,
                              separators=(",", ":"))
            self._memo[key] = text
            return text

    def _put(self, key: str, text: str) -> None:
        with trace.span("store.put", cat="store", key=key,
                        kind=self.PAYLOAD_FIELD):
            # The payload is canonical JSON already: splice it into the
            # envelope instead of decoding it only to encode it again.
            envelope = '{"%s":%s,"key":%s,"version":%s}' % (
                self.PAYLOAD_FIELD, text, json.dumps(key),
                json.dumps(self.version),
            )
            self._put_envelope(key, envelope)
            self._memo[key] = text

    def absorb(self, entries: Dict[str, str]) -> None:
        # The worker's copy wrote these files into the shared directory
        # already; memoize them as this process's own puts would.
        self._memo.update(entries)

    def clear(self) -> int:
        self._memo.clear()
        return JsonFileStore.clear(self)

    def prune(self, older_than_seconds: float) -> int:
        removed = JsonFileStore.prune(self, older_than_seconds)
        if removed:
            # Keep get/keys/len consistent: never serve pruned entries
            # from the in-process memo.
            self._memo.clear()
        return removed


# ----------------------------------------------------------------------
# Process-wide default
# ----------------------------------------------------------------------
_DEFAULT_ARTIFACTS: ArtifactStore = MemoryArtifactStore()


def default_artifact_store() -> ArtifactStore:
    """The process-wide artifact store used when none is given."""
    return _DEFAULT_ARTIFACTS


def set_default_artifact_store(store: ArtifactStore) -> ArtifactStore:
    """Swap the process-wide artifact store; returns the previous one."""
    global _DEFAULT_ARTIFACTS
    previous = _DEFAULT_ARTIFACTS
    _DEFAULT_ARTIFACTS = store
    return previous
