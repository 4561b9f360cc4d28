"""Unit tests for the simulator's building blocks: interleaving, cache
modules, attraction buffers, buses, next level."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import BASELINE_CONFIG
from repro.arch.config import AttractionBufferConfig, BusConfig, CacheConfig
from repro.sim.attraction import AttractionBuffer
from repro.sim.bus import BusFabric, BusMessage
from repro.sim.cache import CacheModule
from repro.sim.interleave import (
    home_cluster,
    spans_clusters,
    subblock_addresses,
    subblock_id,
)
from repro.sim.nextlevel import NextLevel, NextLevelRequest


class TestInterleave:
    def test_figure1_example(self):
        """Paper Figure 1: an 8-word block, words 0 and 4 form cluster 1's
        subblock (cluster 0 zero-based)."""
        cfg = BASELINE_CONFIG
        assert subblock_addresses(cfg, block=0, cluster=0) == [0, 16]
        assert subblock_addresses(cfg, block=0, cluster=1) == [4, 20]
        assert subblock_addresses(cfg, block=1, cluster=0) == [32, 48]

    def test_home_cluster_wraps(self):
        cfg = BASELINE_CONFIG
        assert [home_cluster(cfg, a) for a in range(0, 32, 4)] == [
            0, 1, 2, 3, 0, 1, 2, 3,
        ]

    def test_subblock_id(self):
        cfg = BASELINE_CONFIG
        assert subblock_id(cfg, 0) == (0, 0)
        assert subblock_id(cfg, 36) == (1, 1)

    def test_spans_clusters(self):
        cfg = BASELINE_CONFIG
        assert not spans_clusters(cfg, 0, 4)
        assert spans_clusters(cfg, 0, 8)
        assert spans_clusters(cfg, 2, 4)


class TestCacheModule:
    def test_miss_then_hit(self):
        module = CacheModule(CacheConfig())
        assert not module.probe(5)
        module.install(5)
        assert module.probe(5)
        assert module.hits == 1 and module.misses == 1

    def test_lru_eviction(self):
        module = CacheModule(CacheConfig())
        sets = module.num_sets
        a, b, c = 0, sets, 2 * sets  # same set
        module.install(a)
        module.install(b)
        module.probe(a)  # a is now MRU
        victim = module.install(c)
        assert victim is not None and victim.block == b

    def test_dirty_tracking(self):
        module = CacheModule(CacheConfig())
        module.install(1)
        module.mark_dirty(1)
        sets = module.num_sets
        module.install(1 + sets)
        victim = module.install(1 + 2 * sets)
        assert victim.block == 1 and victim.dirty

    def test_invalidate(self):
        module = CacheModule(CacheConfig())
        module.install(9)
        assert module.invalidate(9)
        assert not module.probe(9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 500), min_size=1, max_size=200))
    def test_set_occupancy_never_exceeds_ways(self, blocks):
        config = CacheConfig()
        module = CacheModule(config)
        for block in blocks:
            if not module.probe(block):
                module.install(block)
        for entries in module._sets:
            assert len(entries) <= config.associativity


class TestAttractionBuffer:
    def _ab(self):
        return AttractionBuffer(AttractionBufferConfig(16, 2))

    def test_fill_then_hit(self):
        ab = self._ab()
        ab.fill((3, 1), {100: (0, 5)})
        entry = ab.lookup((3, 1))
        assert entry is not None
        assert entry.versions[100] == (0, 5)

    def test_update_marks_dirty(self):
        ab = self._ab()
        ab.fill((3, 1), {})
        assert ab.update((3, 1), 104, (1, 7))
        assert ab.peek((3, 1)).dirty

    def test_update_missing_returns_false(self):
        ab = self._ab()
        assert not ab.update((9, 0), 0, (0, 0))

    def test_overflow_evicts_lru(self):
        ab = self._ab()
        sets = ab.config.num_sets
        keys = [(k * sets, 1) for k in range(3)]  # same set
        for key in keys:
            ab.fill(key, {})
        assert ab.overflows == 1
        assert ab.peek(keys[0]) is None

    def test_flush_returns_dirty_and_clears(self):
        ab = self._ab()
        ab.fill((1, 0), {})
        ab.fill((2, 0), {})
        ab.update((1, 0), 32, (0, 1))
        dirty = ab.flush()
        assert [e.key for e in dirty] == [(1, 0)]
        assert ab.resident == 0


class TestBusFabric:
    def _collect(self):
        log = []

        def deliver(tag):
            return lambda cycle: log.append((tag, cycle))

        return log, deliver

    def test_transfer_latency(self):
        fabric = BusFabric(BusConfig(4, 2), 4)
        log, deliver = self._collect()
        fabric.send(BusMessage(src=0, dst=1, on_deliver=deliver("m")))
        fabric.inject(0)
        fabric.deliver(1)
        assert log == []
        fabric.deliver(2)
        assert log == [("m", 2)]

    def test_same_source_fifo_order(self):
        """Messages from one cluster arrive in issue order — the property
        the MDC solution relies on (section 3.2)."""
        fabric = BusFabric(BusConfig(4, 2), 4)
        log, deliver = self._collect()
        for k in range(4):
            fabric.send(BusMessage(src=0, dst=1, on_deliver=deliver(k)))
        for cycle in range(12):
            fabric.deliver(cycle)
            fabric.inject(cycle)
        assert [tag for tag, _ in log] == [0, 1, 2, 3]
        cycles = [c for _, c in log]
        assert cycles == sorted(cycles)
        assert len(set(cycles)) == 4  # one injection per source per cycle

    def test_bus_contention_queues(self):
        fabric = BusFabric(BusConfig(1, 2), 4)  # a single bus
        log, deliver = self._collect()
        for src in range(3):
            fabric.send(BusMessage(src=src, dst=3, on_deliver=deliver(src)))
        for cycle in range(10):
            fabric.deliver(cycle)
            fabric.inject(cycle)
        assert len(log) == 3
        cycles = sorted(c for _, c in log)
        assert cycles == [2, 4, 6]  # serialized on the single bus

    def test_pending_counts_queued_and_in_flight(self):
        fabric = BusFabric(BusConfig(1, 2), 2)
        log, deliver = self._collect()
        fabric.send(BusMessage(src=0, dst=1, on_deliver=deliver(0)))
        fabric.send(BusMessage(src=0, dst=1, on_deliver=deliver(1)))
        assert fabric.pending() == 2
        fabric.inject(0)
        assert fabric.pending() == 2
        fabric.deliver(2)
        assert fabric.pending() == 1


class TestNextLevel:
    def test_fixed_latency(self):
        nl = NextLevel(BASELINE_CONFIG.next_level)
        fills = []
        nl.request(NextLevelRequest(on_fill=fills.append))
        for cycle in range(12):
            nl.tick(cycle)
        assert fills == [10]

    def test_port_limit(self):
        nl = NextLevel(BASELINE_CONFIG.next_level)
        fills = []
        for _ in range(6):  # 6 requests, 4 ports
            nl.request(NextLevelRequest(on_fill=fills.append))
        for cycle in range(13):
            nl.tick(cycle)
        assert fills == [10, 10, 10, 10, 11, 11]

    def test_pending(self):
        nl = NextLevel(BASELINE_CONFIG.next_level)
        nl.request(NextLevelRequest(on_fill=lambda c: None))
        assert nl.pending() == 1
        nl.tick(0)
        assert nl.pending() == 1
        for cycle in range(1, 11):
            nl.tick(cycle)
        assert nl.pending() == 0
