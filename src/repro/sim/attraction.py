"""Attraction Buffers (paper section 5).

An Attraction Buffer is a small set-associative buffer, one per cluster,
that caches *remote subblocks*: when a cluster issues a remote load, the
whole remote subblock comes back and is kept locally, so subsequent
accesses to it are satisfied with local latency.

Coherence discipline (sections 5.2/5.3):

* under MDC, an aliased datum is only ever modified from its chain's single
  cluster, so copies elsewhere are read-only; a store whose target sits in
  the local AB updates the AB copy (marking it dirty);
* under DDGT, the nullified remote instances of a replicated store update
  their cluster's AB copy if present, keeping copies consistent;
* buffers are *flushed* at loop boundaries, writing dirty versions back to
  the home cluster.

Entries carry a version snapshot (address -> store version) standing in
for the subblock data, so the coherence checker can detect stale reads out
of an AB exactly as it does out of a cache module.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.config import AttractionBufferConfig

#: A store version: (iteration, sequence index) — monotonic in program
#: order for any single address.
Version = Tuple[int, int]
#: Subblock identifier: (block id, home cluster).
SubblockKey = Tuple[int, int]


@dataclass
class AbEntry:
    key: SubblockKey
    versions: Dict[int, Version] = field(default_factory=dict)
    dirty: bool = False


class AttractionBuffer:
    """One cluster's Attraction Buffer."""

    def __init__(self, config: AttractionBufferConfig) -> None:
        self.config = config
        self._sets: Tuple[OrderedDict, ...] = tuple(
            OrderedDict() for _ in range(config.num_sets)
        )
        self.hits = 0
        self.fills = 0
        self.overflows = 0  # fills that evicted a live entry

    def _set_of(self, key: SubblockKey) -> OrderedDict:
        return self._sets[key[0] % self.config.num_sets]

    # ------------------------------------------------------------------
    def lookup(self, key: SubblockKey) -> Optional[AbEntry]:
        entries = self._set_of(key)
        entry = entries.get(key)
        if entry is not None:
            entries.move_to_end(key)
            self.hits += 1
        return entry

    def peek(self, key: SubblockKey) -> Optional[AbEntry]:
        """Presence check with no statistics or LRU side effects."""
        return self._set_of(key).get(key)

    def fill(
        self, key: SubblockKey, versions: Dict[int, Version]
    ) -> Optional[AbEntry]:
        """Install a subblock snapshot; returns the evicted entry if any."""
        entries = self._set_of(key)
        if key in entries:
            entry = entries[key]
            entry.versions.update(versions)
            entries.move_to_end(key)
            return None
        victim: Optional[AbEntry] = None
        if len(entries) >= self.config.associativity:
            _victim_key, victim = next(iter(entries.items()))
            del entries[_victim_key]
            self.overflows += 1
        entries[key] = AbEntry(key=key, versions=dict(versions))
        self.fills += 1
        return victim

    def update(self, key: SubblockKey, address: int, version: Version) -> bool:
        """Write a new version into a resident copy (store hit / DDGT
        remote-instance update).  Returns False when not resident."""
        entry = self.peek(key)
        if entry is None:
            return False
        entry.versions[address] = version
        entry.dirty = True
        return True

    def flush(self) -> List[AbEntry]:
        """Drop every entry, returning the dirty ones for write-back."""
        dirty: List[AbEntry] = []
        for entries in self._sets:
            for entry in entries.values():
                if entry.dirty:
                    dirty.append(entry)
            entries.clear()
        return dirty
