"""Spec execution internals: iteration floor, the group memo's front
ends, memoized profile traces."""

import warnings

import pytest

import repro.api.core as core
from repro.api.artifacts import MemoryArtifactStore
from repro.api.core import KERNEL_ITERATION_FLOOR, LoopMemo, execute_spec
from repro.api.runner import Runner
from repro.api.spec import RunSpec
from repro.api.store import MemoryStore
from repro.obs import metrics
from repro.workloads import get_benchmark, trace_factory


@pytest.fixture
def reset_floor_warning():
    previous = core._floor_warning_emitted
    core._floor_warning_emitted = False
    yield
    core._floor_warning_emitted = previous


class TestIterationFloor:
    # At scale 0.01 gsmdec's loops scale to 32 original iterations; the
    # aux loop unrolls 4x, so its natural kernel count (8) is floored.
    SPEC = RunSpec(benchmark="gsmdec", variant="mdc/prefclus", scale=0.01)

    def test_floor_recorded_in_loop_record(self, reset_floor_warning):
        # Only the runner warns: a direct execute_spec call is silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            record = execute_spec(self.SPEC)
        floored = {r.loop: r for r in record.loops if r.iteration_floor}
        assert floored, "expected at least one floored loop at scale 0.01"
        for loop in floored.values():
            assert loop.iteration_floor == KERNEL_ITERATION_FLOOR
            assert loop.kernel_iterations == KERNEL_ITERATION_FLOOR
        # Round-trips through the record serialization.
        clone = type(record).from_dict(record.to_dict())
        assert [r.iteration_floor for r in clone.loops] == [
            r.iteration_floor for r in record.loops
        ]

    def test_unfloored_loop_records_zero(self):
        record = execute_spec(
            RunSpec(benchmark="gsmdec", variant="mdc/prefclus", scale=1.0)
        )
        assert all(r.iteration_floor == 0 for r in record.loops)

    def test_warning_is_emitted_once_per_process(self, reset_floor_warning):
        with pytest.warns(RuntimeWarning, match="kernel-iteration floor"):
            Runner(store=MemoryStore()).run([self.SPEC])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            Runner(store=MemoryStore()).run([
                RunSpec(benchmark="gsmenc", variant="mdc/prefclus",
                        scale=0.01)
            ])  # must not raise: the warning fired already


class TestMemoFrontEnds:
    """A group memo is its compiles' artifact store: it holds each front
    end it put or fetched, decodes it once and hands every later get the
    same value; the store itself keeps only text."""

    PAYLOAD = {"factor": 4}

    @staticmethod
    def decoder():
        calls = []

        def decode(payload):
            calls.append(payload["factor"])
            return ["decoded", payload["factor"]]

        return decode, calls

    def test_a_put_is_held_as_text_until_the_first_replay(self):
        store = MemoryArtifactStore()
        memo = LoopMemo(store)
        decode, calls = self.decoder()
        assert memo.get("k", decode) is None
        text = memo.put("k", self.PAYLOAD)
        assert memo.puts == {"k": text}
        assert store.get("k") == self.PAYLOAD
        assert calls == []
        first = memo.get("k", decode)
        assert first == ["decoded", 4]
        assert memo.get("k", decode) is first
        assert calls == [4]

    def test_a_fetched_front_end_is_decoded_once(self):
        store = MemoryArtifactStore()
        store.put("k", self.PAYLOAD)
        memo = LoopMemo(store)
        decode, calls = self.decoder()
        first = memo.get("k", decode)
        assert memo.get("k", decode) is first
        assert calls == [4]
        assert memo.puts == {}

    def test_the_memo_counts_nothing(self):
        """The pipeline counts one lookup per compile; the memo's gets,
        held or fetched, and its puts move no counter."""
        memo = LoopMemo(MemoryArtifactStore())
        decode, _calls = self.decoder()
        with metrics.capture() as reg:
            memo.get("k", decode)
            memo.put("k", self.PAYLOAD)
            memo.get("k", decode)
        assert list(reg.counter_items("artifacts.lookups")) == []
        assert reg.counter("artifacts.puts") == 0


class TestMemoizedProfileTrace:
    def test_one_spec_per_seed_and_length(self):
        bench = get_benchmark("gsmdec")
        first = trace_factory(256, seed=bench.profile_seed)
        second = trace_factory(256, seed=bench.profile_seed)
        assert first == second, "equal arguments must give equal specs"
        assert first.key == second.key
        other = trace_factory(128, seed=bench.profile_seed)
        assert other != first and other.key != first.key
