"""Pluggable result stores.

A :class:`ResultStore` maps a spec content hash to a
:class:`~repro.api.records.RunRecord`.  Two implementations ship:

* :class:`MemoryStore` — a process-local dict (the default; replaces the
  old hidden ``_RUN_CACHE`` module global);
* :class:`DiskStore` — one JSON file per record under ``.repro_cache/``
  (override with ``REPRO_CACHE_DIR``), validated against the package
  version so a version bump invalidates every stale entry.

The hardened file machinery (atomic writes, torn-read retries,
version-stamped payloads, pruning) lives in :class:`JsonFileStore`, which
is shared with the compilation-artifact layer one level below
(:mod:`repro.api.artifacts` keeps stage outputs under
``.repro_cache/artifacts/``).

Entries are *prefix-sharded*: a key lives under ``root/<ss>/<key>.json``
where ``<ss>`` is the first two hex characters of the key's SHA-1, so no
single directory grows past a few dozen entries even for multi-thousand
-run sweeps.  The entries are the only thing a store persists, and a
disk store keeps nothing in process: a get reads the entry's file, and
store-wide operations (:meth:`~JsonFileStore.keys`,
:meth:`~JsonFileStore.size_bytes`, :meth:`~JsonFileStore.prune`) walk
the shard directories, so both always see what other processes and
other instances wrote or removed.

The process-wide default store is swappable via :func:`set_default_store`
— e.g. tests inject a fresh :class:`MemoryStore`, the CLI injects a
:class:`DiskStore` so repeated figure regenerations across processes are
near-instant.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import stat
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.api.records import RunRecord
from repro.obs import metrics, trace

#: Default on-disk cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

#: Shard directory names: two lowercase hex characters.
_SHARD_RE = re.compile(r"^[0-9a-f]{2}$")


def _package_version() -> str:
    from repro import __version__

    return __version__


def resolve_cache_root(root: Union[str, Path, None] = None) -> Path:
    """The effective cache directory: explicit > $REPRO_CACHE_DIR > default."""
    if root is None:
        root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
    return Path(root)


def remove_files(directory: Path, pattern: str,
                 older_than_seconds: Optional[float] = None) -> int:
    """Delete the files in ``directory`` matching the glob ``pattern``;
    with ``older_than_seconds``, only those last modified longer ago.
    Returns the number removed.  A file another process removes first
    is skipped, not an error."""
    if not directory.is_dir():
        return 0
    cutoff = (None if older_than_seconds is None
              else time.time() - older_than_seconds)
    count = 0
    for path in directory.glob(pattern):
        try:
            if cutoff is None or path.stat().st_mtime < cutoff:
                path.unlink()
                count += 1
        except OSError:  # another process removed it first
            pass
    return count


def shard_prefix(key: str) -> str:
    """The shard directory a key lives in: first two hex chars of its
    SHA-1.  Keys carry heterogeneous human prefixes (``unroll-…``,
    ``profile-…``), so sharding on a hash of the whole key keeps the 256
    shards uniformly filled regardless of the keyspace."""
    return hashlib.sha1(key.encode("utf-8")).hexdigest()[:2]


class JsonFileStore:
    """A keyed store of JSON payloads, one file per key under ``root``.

    The machinery every on-disk cache layer in the package shares:

    * entries carry the package version they were produced with; a
      version mismatch is a cache miss (the stale file is removed on
      read);
    * writes are atomic (tmp file + rename), so parallel workers and
      concurrent processes never observe torn entries;
    * reads retry briefly before declaring an entry corrupt: on
      filesystems without atomic-rename visibility (network mounts, some
      Windows setups) a reader racing a writer can observe a short or
      momentarily-missing file, and treating that transient as corruption
      would delete a healthy entry under a concurrent sweep;
    * entries are sharded into 256 two-hex-char subdirectories (see
      :func:`shard_prefix`); store-wide operations walk them;
    * :meth:`prune` drops entries whose file is older than a cutoff,
      and the temp files of writers killed before their rename.

    Subclasses pick the payload envelope field (``PAYLOAD_FIELD``) and
    layer their own decoding on :meth:`get_payload` /
    :meth:`put_payload`; they keep nothing in process.
    """

    #: Read attempts before an unparseable entry is declared corrupt.
    READ_ATTEMPTS = 3
    #: Base delay between read attempts (seconds, grows linearly).
    READ_RETRY_DELAY = 0.01
    #: Envelope key the stored value lives under.
    PAYLOAD_FIELD = "record"

    def __init__(self, root: Union[str, Path, None] = None,
                 version: Optional[str] = None) -> None:
        self.root = resolve_cache_root(root)
        self._version = version

    @property
    def version(self) -> str:
        return self._version or _package_version()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def entry_path(self, key: str) -> Path:
        """The file ``key`` lives in: ``root/<shard>/<key>.json``."""
        return Path(self._entry_file(key))

    def _entry_file(self, key: str) -> str:
        """:meth:`entry_path` as a string, built without ``pathlib``:
        the read path opens it once and never needs a ``Path``."""
        return f"{self.root}/{shard_prefix(key)}/{key}.json"

    # ------------------------------------------------------------------
    # Raw payload plumbing
    # ------------------------------------------------------------------
    def get_payload(self, key: str):
        """The stored payload for ``key``, or ``None`` on a miss.

        Stale (version-mismatched) and malformed envelopes are removed;
        transient I/O failures are a miss, never a deletion.
        """
        with metrics.registry().time_block("store.read_seconds",
                                           kind=self.PAYLOAD_FIELD):
            path = self._entry_file(key)
            envelope = self._read_payload(path)
            if envelope is None:
                return None
            try:
                stale = envelope.get("version") != self.version
                payload = None if stale else envelope[self.PAYLOAD_FIELD]
            except (AttributeError, KeyError, TypeError):
                payload = None  # valid JSON of the wrong shape: a miss
            if payload is None:
                self._discard(path)
            return payload

    def put_payload(self, key: str, payload) -> None:
        envelope = {
            "version": self.version,
            "key": key,
            self.PAYLOAD_FIELD: payload,
        }
        self._put_envelope(key, json.dumps(envelope, sort_keys=True))

    def _put_envelope(self, key: str, text: str) -> None:
        """Atomically write ``key``'s entry: an envelope already encoded
        as JSON text (``version``, ``key`` and the payload field)."""
        with metrics.registry().time_block("store.write_seconds",
                                           kind=self.PAYLOAD_FIELD):
            target = self.entry_path(key)
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(target.parent),
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(text)
                os.replace(tmp, target)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    def _read_payload(self, path: str):
        """Read + parse one entry, retrying transient failures.

        A missing file is an immediate miss.  An entry is dropped as
        corrupt only when a read *succeeded* and its content still failed
        to parse on the final attempt — persistent I/O errors (a scanner
        holding the file, a flaky mount, a directory where the entry
        should be) are a miss, never a deletion, since they prove nothing
        about the entry's content.  The bytes are parsed as read: JSON
        text is UTF-8, and invalid UTF-8 is as unparseable as a torn
        entry."""
        unparseable = False
        for attempt in range(self.READ_ATTEMPTS):
            unparseable = False
            try:
                with open(path, "rb", buffering=0) as handle:
                    data = handle.readall()
            except FileNotFoundError:
                return None
            except OSError:  # transient I/O error: retry, then a miss
                data = None
            if data is not None:
                try:
                    return json.loads(data)
                except ValueError:
                    unparseable = True  # possibly a torn read: retry
            if attempt + 1 < self.READ_ATTEMPTS:
                time.sleep(self.READ_RETRY_DELAY * (attempt + 1))
        if unparseable:
            self._discard(path)
        return None

    @staticmethod
    def _discard(path: Union[str, Path]) -> None:
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - concurrent removal
            pass

    def _shard_dirs(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return [child for child in self.root.iterdir()
                if child.is_dir() and _SHARD_RE.match(child.name)]

    def _entry_sizes(self) -> Iterator[Tuple[str, int]]:
        """``(key, size in bytes)`` of every entry in the shards: each
        regular ``*.json`` file.  Anything else at an entry path (a
        directory, say) holds no entry a read could serve, and an entry
        another process removes between the glob and the stat is
        skipped."""
        for shard in self._shard_dirs():
            for path in shard.glob("*.json"):
                try:
                    info = path.stat()
                except OSError:
                    continue
                if stat.S_ISREG(info.st_mode):
                    yield path.stem, info.st_size

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def clear(self) -> int:
        count = 0
        for shard in self._shard_dirs():
            count += remove_files(shard, "*.json")
            try:
                shard.rmdir()
            except OSError:
                pass  # non-entry stragglers: leave the dir alone
        return count

    def prune(self, older_than_seconds: float) -> int:
        """Drop entries whose file modification time is older than
        ``older_than_seconds``; returns the number removed.

        Temp files as old are removed too, uncounted: a writer killed
        between ``mkstemp`` and its rename leaves one behind, and a
        write still in flight is younger than any cutoff longer than
        one write."""
        count = 0
        for shard in self._shard_dirs():
            count += remove_files(shard, "*.json", older_than_seconds)
            remove_files(shard, "*.tmp", older_than_seconds)
        return count

    def keys(self) -> Iterator[str]:
        return iter(sorted({key for key, _size in self._entry_sizes()}))

    def size_bytes(self) -> int:
        return sum(size for _key, size in self._entry_sizes())

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())


class ResultStore:
    """Interface: a keyed store of :class:`RunRecord` results."""

    def get(self, key: str) -> Optional[RunRecord]:
        """The record stored under ``key``, or ``None`` on a miss.

        A hit is a new object the caller owns, with ``source`` set to
        ``"store"``: setting its fields (``source`` among them) leaves
        the stored record as it was.  Its loop records may be shared
        with the stored record, so they are read-only.
        """
        raise NotImplementedError

    def put(self, key: str, record: RunRecord) -> None:
        raise NotImplementedError

    def clear(self) -> int:
        """Drop every entry; returns the number of entries removed."""
        raise NotImplementedError

    def keys(self) -> Iterator[str]:
        raise NotImplementedError

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None


class MemoryStore(ResultStore):
    """Process-local in-memory store.  A hit is a shallow copy of the
    record it keeps, tagged ``source="store"``; the record put stays
    as it was given."""

    def __init__(self) -> None:
        self._records: Dict[str, RunRecord] = {}

    def get(self, key: str) -> Optional[RunRecord]:
        record = self._records.get(key)
        if record is None:
            return None
        return replace(record, source="store")

    def put(self, key: str, record: RunRecord) -> None:
        self._records[key] = record

    def clear(self) -> int:
        count = len(self._records)
        self._records.clear()
        return count

    def keys(self) -> Iterator[str]:
        return iter(tuple(self._records))


class DiskStore(JsonFileStore, ResultStore):
    """One JSON file per :class:`RunRecord` under ``root`` (default
    ``.repro_cache/``), on the hardened, sharded :class:`JsonFileStore`
    machinery.  Nothing is kept in process: every get reads the entry's
    file, so instances on one root agree with each other and the disk,
    and a hit is the record just decoded from it, tagged
    ``source="store"``.
    """

    PAYLOAD_FIELD = "record"

    def get(self, key: str) -> Optional[RunRecord]:
        with trace.span("store.get", cat="store", key=key,
                        kind=self.PAYLOAD_FIELD):
            payload = self.get_payload(key)
            if payload is None:
                return None
            try:
                record = RunRecord.from_dict(payload)
            except (AttributeError, KeyError, TypeError, ValueError):
                # Valid JSON of the wrong shape: a miss, not a crash loop.
                self._discard(self._entry_file(key))
                return None
            record.source = "store"
            return record

    def put(self, key: str, record: RunRecord) -> None:
        with trace.span("store.put", cat="store", key=key,
                        kind=self.PAYLOAD_FIELD):
            self.put_payload(key, record.to_dict())


# ----------------------------------------------------------------------
# Process-wide default
# ----------------------------------------------------------------------
_DEFAULT_STORE: ResultStore = MemoryStore()


def default_store() -> ResultStore:
    """The process-wide store used when no explicit store is given."""
    return _DEFAULT_STORE


def set_default_store(store: ResultStore) -> ResultStore:
    """Swap the process-wide default store; returns the previous one."""
    global _DEFAULT_STORE
    previous = _DEFAULT_STORE
    _DEFAULT_STORE = store
    return previous
