"""Store-wide operations from a warm shard index vs a full shard walk.

The on-disk stores split entries over 256 two-hex-char shard directories
and answer store-wide questions (``keys()`` / ``size_bytes()`` /
``prune()``) from a lazily maintained index: each shard's entry list is
trusted while the shard directory's mtime matches the indexed one, and
the index persists to ``index.meta`` so a fresh process warm-starts.
The steady state therefore costs ~256 ``stat`` calls instead of a glob +
``stat`` of every entry — O(N) per operation, which a weekly
200-scenario sweep (thousands of cached records and artifacts) would
otherwise pay over and over from the CLI and the sweep drivers.

This bench fills one store with ``ENTRIES`` entries and runs the three
store-wide operations repeatedly two ways: on an instance whose index is
warm, and on a fresh instance whose ``index.meta`` was removed before
each round, so every round walks all shards.  It checks both report the
same answers and asserts the warm index is at least ``MIN_SPEEDUP``×
faster.  Wired into the CI smoke step.
"""

from __future__ import annotations

import time

from repro.api.store import INDEX_FILE, JsonFileStore

ENTRIES = 5000
REPEAT = 3
MIN_SPEEDUP = 2.0


def _fill(store: JsonFileStore, entries: int) -> None:
    for i in range(entries):
        store.put_payload(f"bench-{i:06d}", {"i": i})


def _cycle(store: JsonFileStore):
    """One round of every store-wide operation (prune with a cutoff far
    in the past, so nothing is actually removed)."""
    count = sum(1 for _ in store.keys())
    size = store.size_bytes()
    pruned = store.prune(older_than_seconds=30 * 86400)
    return count, size, pruned


def _time_warm(store: JsonFileStore):
    start = time.perf_counter()
    result = None
    for _ in range(REPEAT):
        result = _cycle(store)
    return time.perf_counter() - start, result


def _time_walks(root):
    """Rounds on fresh instances with no persisted index to start from."""
    seconds = 0.0
    result = None
    for _ in range(REPEAT):
        (root / INDEX_FILE).unlink()
        start = time.perf_counter()
        result = _cycle(JsonFileStore(root))
        seconds += time.perf_counter() - start
    return seconds, result


def test_warm_index_beats_full_shard_walk(tmp_path):
    root = tmp_path / "store"
    warm = JsonFileStore(root)
    _fill(warm, ENTRIES)

    # One untimed round: the warm instance builds (and persists) its
    # index here — the one-off full walk every long-lived process
    # amortizes — which also warms the page cache, so the comparison is
    # index-vs-walk, not cold-vs-warm I/O.
    first = _cycle(warm)
    assert first[0] == ENTRIES
    assert first[1] > 0
    assert first[2] == 0

    walk_seconds, walk_result = _time_walks(root)
    warm_seconds, warm_result = _time_warm(warm)
    assert walk_result == warm_result == first, (
        "the warm index and a full shard walk must report identical "
        "store-wide answers"
    )

    speedup = walk_seconds / warm_seconds
    print(f"\nstore-wide ops at {ENTRIES} entries x {REPEAT} rounds "
          f"(keys + size_bytes + prune):")
    print(f"  full shard walk : {walk_seconds:.3f}s")
    print(f"  warm index      : {warm_seconds:.3f}s")
    print(f"  speedup         : {speedup:.1f}x")
    assert speedup >= MIN_SPEEDUP, (
        f"store-wide operations from a warm index must beat a full shard "
        f"walk >={MIN_SPEEDUP}x at {ENTRIES} entries; got {speedup:.2f}x"
    )
