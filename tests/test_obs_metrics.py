"""`repro.obs.metrics`: registry semantics and aggregation laws.

The property section pins the contract the parallel runner relies on:
merging worker snapshots into the parent registry is associative and
lossless, whatever the grouping or interleaving of workers — so parallel
runs report exactly the telemetry serial runs would.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics
from repro.obs.metrics import HistogramData, MetricsRegistry


class TestCounters:
    def test_inc_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        reg.inc("hits", stage="mdc")
        reg.inc("hits", 2, stage="mdc")
        reg.inc("hits", stage="ddgt")
        assert reg.counter("hits", stage="mdc") == 3
        assert reg.counter("hits", stage="ddgt") == 1
        assert reg.counter("hits", stage="missing") == 0

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.inc("x", a="1", b="2")
        reg.inc("x", b="2", a="1")
        reg.inc("x", a=1, b=2)
        reg.inc("x", b=2, a=1)
        assert reg.counter("x", b="2", a="1") == 4
        assert list(reg.counter_items("x")) == [({"a": "1", "b": "2"}, 4)]

    def test_equal_values_that_print_apart_stay_apart(self):
        # 1 == True == 1.0 and 0.0 == -0.0, but their labels differ.
        reg = MetricsRegistry()
        for value in (1, True, 1.0, 0.0, -0.0, 1, True):
            reg.inc("x", a=value)
        assert dict((labels["a"], n) for labels, n in reg.counter_items("x")
                    ) == {"1": 2, "True": 2, "1.0": 1, "0.0": 1, "-0.0": 1}

    def test_unhashable_label_values_still_record(self):
        reg = MetricsRegistry()
        reg.inc("x", a=[1, 2])
        reg.inc("x", a=[1, 2])
        assert reg.counter("x", a="[1, 2]") == 2

    def test_counter_items_round_trips_labels(self):
        reg = MetricsRegistry()
        reg.inc("x", 5, stage="sched", outcome="hit")
        items = list(reg.counter_items("x"))
        assert items == [({"outcome": "hit", "stage": "sched"}, 5)]


class TestGaugesAndHistograms:
    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("util", 0.25)
        reg.set_gauge("util", 0.5)
        assert reg.gauge("util") == 0.5
        assert reg.gauge("missing") is None

    def test_histogram_moments(self):
        reg = MetricsRegistry()
        for value in (1.0, 2.0, 3.0):
            reg.observe("lat", value)
        hist = reg.histogram("lat")
        assert hist.count == 3
        assert hist.total == 6.0
        assert hist.minimum == 1.0 and hist.maximum == 3.0
        assert hist.mean == 2.0

    def test_time_block_observes_elapsed(self):
        reg = MetricsRegistry()
        with reg.time_block("t", kind="x"):
            pass
        hist = reg.histogram("t", kind="x")
        assert hist.count == 1
        assert hist.minimum >= 0.0

    def test_time_block_observes_a_block_that_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(KeyError, match="boom"):
            with reg.time_block("t", kind="x"):
                raise KeyError("boom")
        assert reg.histogram("t", kind="x").count == 1


class TestDisabled:
    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("c")
        reg.set_gauge("g", 1.0)
        reg.observe("h", 1.0)
        with reg.time_block("t"):
            pass
        assert reg.names() == []

    def test_disabled_time_block_reads_no_clock(self, monkeypatch):
        def no_clock():
            raise AssertionError("clock read while disabled")

        reg = MetricsRegistry(enabled=False)
        monkeypatch.setattr(metrics.time, "perf_counter", no_clock)
        with reg.time_block("t", kind="x"):
            pass
        assert reg.names() == []

    def test_merge_works_into_a_disabled_registry(self):
        # A parent that disabled local instrumentation must still
        # aggregate worker deltas faithfully.
        source = MetricsRegistry()
        source.inc("c", 7, k="v")
        source.observe("h", 2.5)
        target = MetricsRegistry(enabled=False)
        target.merge(source.snapshot())
        assert target.counter("c", k="v") == 7
        assert target.histogram("h").count == 1


class TestSnapshotMerge:
    def test_snapshot_is_pure_json_and_round_trips(self):
        import json

        reg = MetricsRegistry()
        reg.inc("c", 3, stage="s")
        reg.set_gauge("g", 1.5)
        reg.observe("h", 0.25, kind="k")
        snap = json.loads(json.dumps(reg.snapshot()))
        rebuilt = MetricsRegistry()
        rebuilt.merge(snap)
        assert rebuilt.counter("c", stage="s") == 3
        assert rebuilt.gauge("g") == 1.5
        assert rebuilt.histogram("h", kind="k").total == 0.25
        assert rebuilt.snapshot() == reg.snapshot()

    def test_reset_prefix_only_clears_that_family(self):
        reg = MetricsRegistry()
        reg.inc("stages.executed", stage="s")
        reg.inc("artifacts.puts")
        reg.reset("stages.")
        assert reg.counter("stages.executed", stage="s") == 0
        assert reg.counter("artifacts.puts") == 1
        reg.reset()
        assert reg.names() == []

    def test_capture_swaps_and_restores_the_process_registry(self):
        outer = metrics.registry()
        with metrics.capture() as inner:
            assert metrics.registry() is inner
            assert inner is not outer
            metrics.inc("captured")
            assert inner.counter("captured") == 1
        assert metrics.registry() is outer
        assert outer.counter("captured") == 0

    def test_snapshot_file_round_trip(self, tmp_path):
        with metrics.capture():
            metrics.inc("c", 4, k="v")
            metrics.observe("h", 1.25)
            path = tmp_path / "metrics.json"
            metrics.write_snapshot(str(path))
            want = metrics.registry().snapshot()
        rebuilt = metrics.load_snapshot(str(path))
        assert rebuilt.snapshot() == want
        assert "c{k=v} = 4" in rebuilt.render()


# ----------------------------------------------------------------------
# Aggregation laws (the parallel-runner contract)
# ----------------------------------------------------------------------
def observations():
    return st.lists(
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        max_size=8,
    )


def exact_observations():
    """Integer-valued observations: float addition over them is exact,
    so associativity holds bit-for-bit (with arbitrary floats the sums
    drift by an ulp depending on grouping — inherent to IEEE addition,
    not to the merge logic under test)."""
    return st.lists(st.integers(0, 10**6).map(float), max_size=8)


@st.composite
def registries(draw):
    """A small random registry: a few counters and histograms over a
    shared pool of names/labels so merges actually collide."""
    reg = MetricsRegistry()
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(["a", "b", "c"]))
        label = draw(st.sampled_from(["x", "y"]))
        reg.inc(name, draw(st.integers(0, 100)), label=label)
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(["h1", "h2"]))
        for value in draw(exact_observations()):
            reg.observe(name, value)
    return reg


def _merged(snapshots):
    reg = MetricsRegistry()
    for snap in snapshots:
        reg.merge(snap)
    return reg


def _canon(snapshot):
    """Order-free image of a snapshot: the wire format preserves dict
    insertion order, which legitimately varies with merge order."""
    import json

    return {
        family: {
            name: sorted(
                (tuple(tuple(pair) for pair in key),
                 json.dumps(value, sort_keys=True))
                for key, value in series
            )
            for name, series in snapshot.get(family, {}).items()
        }
        for family in ("counters", "gauges", "histograms")
    }


@settings(max_examples=50, deadline=None)
@given(st.lists(registries(), min_size=1, max_size=4),
       st.permutations(range(4)))
def test_merge_is_associative_and_order_free(regs, order):
    """Any grouping and any arrival order of worker snapshots produces
    the same aggregate."""
    snaps = [r.snapshot() for r in regs]

    flat = _canon(_merged(snaps).snapshot())
    # Regroup: fold the first k into an intermediate registry, snapshot
    # it, then merge that snapshot with the rest (tree-shaped merge).
    for split in range(1, len(snaps)):
        left = _merged(snaps[:split])
        grouped = _merged([left.snapshot()] + snaps[split:])
        assert _canon(grouped.snapshot()) == flat
    # Reorder: counters and histograms are commutative.
    shuffled = [snaps[i] for i in order if i < len(snaps)]
    assert _canon(_merged(shuffled).snapshot()) == flat


@settings(max_examples=50, deadline=None)
@given(st.lists(observations(), min_size=1, max_size=5))
def test_histogram_merge_is_lossless(streams):
    """Splitting an observation stream across workers and merging the
    parts loses nothing: moments and bucket counts match the histogram
    of the undivided stream."""
    parts = []
    for stream in streams:
        hist = HistogramData()
        for value in stream:
            hist.observe(value)
        parts.append(hist)
    merged = parts[0]
    for part in parts[1:]:
        merged = merged.merged_with(part)

    whole = HistogramData()
    for stream in streams:
        for value in stream:
            whole.observe(value)

    assert merged.count == whole.count
    assert math.isclose(merged.total, whole.total, rel_tol=1e-12,
                        abs_tol=1e-12)
    assert merged.minimum == whole.minimum
    assert merged.maximum == whole.maximum
    assert merged.buckets == whole.buckets


@settings(max_examples=30, deadline=None)
@given(exact_observations(), exact_observations(), exact_observations())
def test_histogram_merged_with_is_associative(a, b, c):
    def hist(values):
        h = HistogramData()
        for value in values:
            h.observe(value)
        return h

    ha, hb, hc = hist(a), hist(b), hist(c)
    left = ha.merged_with(hb).merged_with(hc)
    right = ha.merged_with(hb.merged_with(hc))
    assert left.to_dict() == right.to_dict()
