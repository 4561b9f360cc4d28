"""Spec execution internals: iteration floor, memoized profile traces."""

import warnings

import pytest

import repro.api.core as core
from repro.api.core import KERNEL_ITERATION_FLOOR, execute_spec
from repro.api.spec import RunSpec
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
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
            execute_spec(self.SPEC)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            execute_spec(
                RunSpec(benchmark="gsmenc", variant="mdc/prefclus",
                        scale=0.01)
            )  # must not raise: the warning fired already


class TestMemoizedProfileTrace:
    def test_one_spec_per_seed_and_length(self):
        bench = get_benchmark("gsmdec")
        first = trace_factory(256, seed=bench.profile_seed)
        second = trace_factory(256, seed=bench.profile_seed)
        assert first == second, "equal arguments must give equal specs"
        assert first.key == second.key
        other = trace_factory(128, seed=bench.profile_seed)
        assert other != first and other.key != first.key
