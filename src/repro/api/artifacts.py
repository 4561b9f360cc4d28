"""Content-addressed compilation artifacts.

One layer below the :class:`~repro.api.store.ResultStore`: where the
result store persists a *finished* ``RunRecord`` per spec hash, the
artifact store persists the compilation pipeline's front end — one
entry per loop holding its unrolled, disambiguated graph, unroll factor
and preferred-cluster profiles — keyed by
:func:`repro.sched.stages.frontend_artifact_key`.  The paper's 6-way
coherence × heuristic cross shares that front end verbatim, so a
differential sweep that would run it six times per loop computes it
once.

Two implementations:

* :class:`MemoryArtifactStore` — process-local canonical JSON texts
  (the default);
* :class:`DiskArtifactStore` — one JSON file per artifact under
  ``.repro_cache/artifacts/``, on the hardened
  :class:`~repro.api.store.JsonFileStore` machinery (atomic writes,
  torn-read retries, version stamping, pruning, prefix-sharded
  directories).

Stores only persist.  ``get(key)`` returns a fresh decode of the stored
JSON, which the caller owns outright, and ``get(key, decode)`` returns
``decode(payload)``, computed afresh on every call; nothing else is kept
in process, so two disk stores on one directory always agree with each
other and with the files.  What the specs of one group share in process
(each front end, decoded once) is held by the group's
:class:`~repro.api.core.LoopMemo`, which the runner hands its compiles.
The pipeline counts one lookup per compile and one put per computed
front end (``artifacts.lookups`` / ``artifacts.puts``);
:func:`artifact_stats` reads them out of the metrics registry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Union

from repro.api.store import JsonFileStore, resolve_cache_root
from repro.errors import GraphError
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

    A *snapshot view* built by :func:`artifact_stats` from the process
    metrics registry (``artifacts.lookups`` labeled by outcome,
    ``artifacts.puts``), which the compilation front end feeds: fetch it
    after the work you want to measure.  Because the runner merges each
    pool worker's metric deltas back into the parent registry, the view
    covers ``parallel>1`` runs too.
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
    affects the store), or with ``decode`` that payload decoded.
    Implementations write canonical JSON text through ``_put``, and read
    it either through the text hook ``_get``, which the base ``get``
    parses, or by overriding ``get`` itself, as the disk store does to
    parse its file once.  Membership (``in``) is a ``get``.
    """

    def get(self, key: str,
            decode: Optional[Callable[[dict], Any]] = None) -> Any:
        """The payload stored under ``key``, or ``None`` on a miss; with
        ``decode``, ``decode(payload)``, computed afresh on every call."""
        text = self._get(key)
        if text is None:
            return None
        payload = json.loads(text)
        return payload if decode is None else decode(payload)

    def put(self, key: str, payload: dict) -> str:
        """Store ``payload``; returns its canonical JSON text (what a pool
        worker ships back to the parent's store)."""
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        with trace.span("artifact.put", cat="artifact", key=key):
            self._put(key, text)
        return text

    def absorb(self, entries: Dict[str, str]) -> None:
        """Hold ``entries`` (key -> canonical JSON text) that a pool
        worker put into its copy of this store."""
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
        return self.get(key) is not None


class MemoryArtifactStore(ArtifactStore):
    """Process-local artifact store over canonical JSON text.

    Storing *text* (not live objects) keeps its semantics identical to
    the disk store: every get decodes afresh from the same canonical
    text, so warm in-memory hits and warm cross-process disk hits replay
    byte-identical payloads.
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

    Nothing is kept in process: a get reads the entry's file and parses
    it once, a put writes it.  An entry whose payload ``decode``
    rejects is removed and read as a miss, as the record store does for
    a record of the wrong shape.
    """

    PAYLOAD_FIELD = "artifact"

    def __init__(self, root: Union[str, Path, None] = None,
                 version: Optional[str] = None) -> None:
        if root is None:
            root = artifact_root()
        JsonFileStore.__init__(self, root, version)

    def get(self, key: str,
            decode: Optional[Callable[[dict], Any]] = None) -> Any:
        with trace.span("store.get", cat="store", key=key,
                        kind=self.PAYLOAD_FIELD):
            payload = self.get_payload(key)
            if payload is None or decode is None:
                return payload
            try:
                return decode(payload)
            except (AttributeError, KeyError, TypeError, ValueError,
                    GraphError):
                # A payload the decoder rejects: a miss, not a crash
                # loop.  The compile that misses puts a good one.
                self._discard(self._entry_file(key))
                return None

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

    def absorb(self, entries: Dict[str, str]) -> None:
        """Nothing to do: the worker's copy of this store wrote the
        entries' files into the shared directory already."""


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
