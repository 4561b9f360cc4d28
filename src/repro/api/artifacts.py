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

A plain ``get(key)`` returns a *fresh* decode of the stored JSON, which
the caller owns outright.  ``get(key, decode)`` returns
``decode(payload)`` instead, computed once per key and kept in a small
LRU (:data:`DECODED_ENTRIES` entries) beside the store's text: the
pipeline passes its front-end decoder, so the variant cross of one loop
builds its graph once and each compile copies it.  ``clear``, ``prune``
and a re-``put`` of the key drop the decoded value.  Process-wide
hit/miss/put counters feed a run's ``--metrics`` snapshot and the stage
benchmarks; a decoded hit counts as the hit it replaces.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Union

from repro.api.store import JsonFileStore, resolve_cache_root
from repro.obs import metrics, trace

#: Subdirectory of the cache root that holds artifacts.
ARTIFACT_SUBDIR = "artifacts"
#: Decoded values one store keeps, least recently used dropped first.
#: Plans run a benchmark's variants back to back, so only that
#: benchmark's loops (two at most in the catalog) are replayed at a
#: time; a decoded scenario front end holds about 65 KB (144 KB at most
#: over a 60-scenario sweep), so the bound keeps memory under about a
#: megabyte however long the sweep.
DECODED_ENTRIES = 8


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
    affects the store), or with ``decode`` the shared decoded value.
    Implementations provide ``_get``/``_put`` over canonical JSON text;
    this base class adds the decoded-value LRU and the counters.
    """

    @cached_property
    def _decoded(self) -> "OrderedDict[str, Tuple[Callable, Any]]":
        """key -> ``(decode, decode(payload))``, least recently used
        first; made on first use, so a subclass need not call up to an
        ``__init__``."""
        return OrderedDict()

    def get(self, key: str,
            decode: Optional[Callable[[dict], Any]] = None) -> Any:
        """The payload stored under ``key``, or ``None`` on a miss.

        With ``decode``, return ``decode(payload)`` instead: computed on
        the first get of ``key`` with that ``decode``, then served from
        the LRU as the *same* object, so callers copy what they mutate.
        """
        with trace.span("artifact.get", cat="artifact", key=key):
            held = self._decoded.get(key)
            if held is not None and held[0] is decode:
                self._decoded.move_to_end(key)
                value = held[1]
            else:
                text = self._get(key)
                value = None if text is None else json.loads(text)
                if value is not None and decode is not None:
                    value = decode(value)
                    self._decoded.pop(key, None)
                    self._decoded[key] = (decode, value)
                    if len(self._decoded) > DECODED_ENTRIES:
                        self._decoded.popitem(last=False)
        metrics.inc("artifacts.lookups",
                    outcome="miss" if value is None else "hit")
        return value

    def put(self, key: str, payload: dict) -> str:
        """Store ``payload``; returns its canonical JSON text (what a pool
        worker ships back to the parent's store)."""
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        with trace.span("artifact.put", cat="artifact", key=key):
            self._put(key, text)
        self._decoded.pop(key, None)
        metrics.inc("artifacts.puts")
        return text

    def absorb(self, entries: Dict[str, str]) -> None:
        """Hold ``entries`` (key -> canonical JSON text) that a pool
        worker put into its copy of this store.  No counter moves: the
        worker counted its puts, and its metrics reach the parent."""
        for key, text in entries.items():
            self._put(key, text)
            self._decoded.pop(key, None)

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
    the disk store: a get without ``decode`` decodes afresh, and a
    decoded value is built from the same text, so warm in-memory hits
    and warm cross-process disk hits replay byte-identical payloads.
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
        self._decoded.clear()
        return count

    def keys(self) -> Iterator[str]:
        return iter(tuple(self._entries))


class DiskArtifactStore(JsonFileStore, ArtifactStore):
    """One JSON file per artifact under ``root`` (default
    ``.repro_cache/artifacts/``), version-stamped and prefix-sharded
    like the record store.

    Payload text is memoized in-process after the first read, so a sweep
    re-deriving the same key pays the disk read once; decoded values sit
    beside it in the base class's LRU.
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
        for key in entries:
            self._decoded.pop(key, None)

    def clear(self) -> int:
        self._memo.clear()
        self._decoded.clear()
        return JsonFileStore.clear(self)

    def prune(self, older_than_seconds: float) -> int:
        removed = JsonFileStore.prune(self, older_than_seconds)
        if removed:
            # Keep get/keys/len consistent: never serve pruned entries
            # from the in-process memos.
            self._memo.clear()
            self._decoded.clear()
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
