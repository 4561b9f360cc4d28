"""Per-cluster cache modules.

Each cluster owns a small set-associative module that stores, for every
cached block, only that cluster's *subblock* (the paper's Figure 1: a 2KB
module with 32-byte blocks holds 8-byte subblocks of 256 blocks at 4-way
interleaving).  Presence is tracked per block id; true LRU within a set.

The module stores no data — values are modeled as store *versions* kept by
the :class:`~repro.sim.memory.MemorySystem` — so the cache tracks only
presence and dirtiness.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.arch.config import CacheConfig


@dataclass
class Eviction:
    """A victim subblock pushed out by an install."""

    block: int
    dirty: bool


class CacheModule:
    """One cluster's slice of the distributed L1."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        # set index -> OrderedDict[block_id -> dirty]; ordered by recency
        # (last = most recently used).
        self._sets: Tuple[OrderedDict, ...] = tuple(
            OrderedDict() for _ in range(self.num_sets)
        )

    def _set_of(self, block: int) -> OrderedDict:
        return self._sets[block % self.num_sets]

    # ------------------------------------------------------------------
    def probe(self, block: int) -> bool:
        """Is the subblock of ``block`` present?  Updates LRU on hit."""
        entries = self._set_of(block)
        if block in entries:
            entries.move_to_end(block)
            return True
        return False

    def contains(self, block: int) -> bool:
        """Presence check with no LRU side effect."""
        return block in self._set_of(block)

    def install(self, block: int, dirty: bool = False) -> Optional[Eviction]:
        """Insert a subblock, evicting the LRU victim when the set is full.

        Re-installing a present block merges dirtiness and refreshes LRU.
        """
        entries = self._set_of(block)
        if block in entries:
            entries[block] = entries[block] or dirty
            entries.move_to_end(block)
            return None
        victim: Optional[Eviction] = None
        if len(entries) >= self.config.associativity:
            victim_block, victim_dirty = next(iter(entries.items()))
            del entries[victim_block]
            victim = Eviction(victim_block, victim_dirty)
        entries[block] = dirty
        return victim

    def mark_dirty(self, block: int) -> None:
        entries = self._set_of(block)
        if block in entries:
            entries[block] = True
            entries.move_to_end(block)
