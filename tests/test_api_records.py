"""RunRecord aggregates: the one-pass loop-stats sum."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.records import LoopRecord, RunRecord
from repro.sim.stats import (
    _COUNTER_FIELDS,
    _DIAGNOSTIC_FIELDS,
    AccessType,
    SimStats,
)

#: Message kinds, drawn as subsets in any order per loop.
BUS_KINDS = ("req_load", "req_store", "fwd_load", "fwd_store", "resp")

counts = st.integers(0, 10**6)


@st.composite
def sim_stats(draw):
    stats = SimStats()
    for kind in AccessType:
        stats.accesses[kind] = draw(counts)
    for name in _COUNTER_FIELDS + _DIAGNOSTIC_FIELDS:
        setattr(stats, name, draw(counts))
    for kind in draw(st.lists(st.sampled_from(BUS_KINDS), unique=True)):
        stats.bus_transfer_kinds[kind] = draw(counts)
    return stats


def record_of(stats):
    loops = [
        LoopRecord(
            benchmark="b", loop=f"b.l{n}", variant="mdc/prefclus", ii=1,
            unroll=1, kernel_iterations=1, compute_cycles=0,
            stall_cycles=0, stats=run, violations=0, static_copies=0,
            replicated_instances=0, fake_consumers=0,
        )
        for n, run in enumerate(stats)
    ]
    return RunRecord(benchmark="b", variant="mdc/prefclus", loops=loops)


def fields(stats):
    """Every field of ``stats``, dict key order included."""
    return (
        list(stats.accesses.items()),
        [getattr(stats, name)
         for name in _COUNTER_FIELDS + _DIAGNOSTIC_FIELDS],
        list(stats.bus_transfer_kinds.items()),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(sim_stats(), max_size=5))
def test_merged_stats_equals_the_pairwise_fold(runs):
    """``merged_stats`` sums the loops in one pass to exactly what
    folding ``SimStats.merged_with`` over them gives: every counter, the
    unserialized diagnostics, and ``bus_transfer_kinds`` in first-seen
    order."""
    folded = SimStats()
    for run in runs:
        folded = folded.merged_with(run)
    merged = record_of(runs).merged_stats()
    assert fields(merged) == fields(folded)
    assert merged == folded


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sim_stats())
def test_stats_equal_what_their_serialized_form_reads_back(stats):
    """Equality covers exactly the serialized counters: a run equals the
    stats a store reads back for it, although that copy has zero
    diagnostics and no ``bus_transfer_kinds``, and a change to any
    serialized counter breaks it."""
    again = SimStats.from_dict(stats.to_dict())
    assert again == stats
    assert fields(again)[1][len(_COUNTER_FIELDS):] == [0, 0]
    assert again.bus_transfer_kinds == {}
    again.issued_ops += 1
    assert again != stats
