"""The default simulation path vs the per-cycle reference, per model.

Every figure, sweep and scenario run bottoms out in ``simulate()``.  The
per-cycle reference (``engine="cycles"``) burns one Python iteration per
machine cycle on the object memory system, even while the core is
stalled on a remote load or draining in-flight traffic — exactly the
long-latency windows the distributed-data-cache model creates.  The
default path runs the flat stepper (:mod:`repro.sim.flatmem`), which
jumps those windows to the next memory event.

For every registered memory model this bench runs a stall-heavy
scenario — an indirect gather whose table busts the tiny cache modules,
on a machine with one slow memory bus and a far next level, so most
cycles are stall cycles — under both engines, requires identical
``SimStats``, traffic kinds and coherence verdicts, and asserts the
default path is at least 2x faster (the checked-run ratio is reported
alongside).  Wired into the CI smoke step like the pipeline-stage bench.
"""

from __future__ import annotations

import json
import time

import pytest
from conftest import run_once

from repro.arch.config import parse_config_name
from repro.scenarios import ScenarioParams, build_scenario_ddg
from repro.sched import CoherenceMode, Heuristic, compile_loop
from repro.sim import simulate
from repro.sim.models import model_names
from repro.workloads.traces import trace_factory

#: Indirect gather/scatter, few ops per iteration, long dependence chain.
SCENARIO = ScenarioParams(family="gather", size=12, mem_pct=15, seed=3)
#: One 8-cycle memory bus, 512B cache modules, 60-cycle next level: the
#: stall-heavy corner of the machine space (contended interconnect, tiny
#: distributed cache, far backing store).
MACHINE = "gen-c4-mb1x8-rb4x2-cm512b32a2-nl60p2"
ITERATIONS = 2000
#: The acceptance bar asserted in CI.
MIN_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def compiled():
    ddg = build_scenario_ddg(SCENARIO)
    return compile_loop(
        ddg,
        parse_config_name(MACHINE),
        coherence=CoherenceMode.NONE,
        heuristic=Heuristic.MINCOMS,
        trace_factory=trace_factory(64, seed=5),
        profile_iterations=64,
    )


def _run(compiled, engine: str, model: str, check: bool):
    trace = trace_factory(ITERATIONS, seed=7)(compiled.ddg)
    start = time.perf_counter()
    result = simulate(
        compiled, trace, iterations=ITERATIONS, engine=engine,
        model=model, check_coherence=check,
    )
    return result, time.perf_counter() - start


def _observation(result) -> str:
    return json.dumps(
        [result.stats.to_dict(), result.stats.bus_transfer_kinds],
        sort_keys=True,
    )


@pytest.mark.parametrize("model", model_names())
def test_default_path_beats_per_cycle_reference(benchmark, compiled, model):
    # Warm once (bytecode, allocator) so the timed pair is stable.
    _run(compiled, "events", model, check=False)

    reference, ref_seconds = _run(compiled, "cycles", model, check=False)
    fast, fast_seconds = run_once(
        benchmark, _run, compiled, "events", model, False
    )
    speedup = ref_seconds / fast_seconds

    checked_ref, checked_ref_s = _run(compiled, "cycles", model, check=True)
    checked_fast, checked_fast_s = _run(compiled, "events", model,
                                        check=True)

    stats = reference.stats
    print(f"\n[{model}] scenario {SCENARIO.name} on {MACHINE}, "
          f"{ITERATIONS} kernel iterations")
    print(f"cycles: {stats.total_cycles} total "
          f"({stats.stall_cycles} stalled = "
          f"{stats.stall_cycles / stats.total_cycles:.0%}); "
          f"default path fast-forwarded "
          f"{fast.stats.fast_forwarded_cycles} and bulk-retired "
          f"{fast.stats.fast_retired_indexes} kernel indexes")
    print(f"per-cycle {ref_seconds:.3f}s | default {fast_seconds:.3f}s | "
          f"{speedup:.2f}x speedup")
    print(f"with coherence checking: {checked_ref_s:.3f}s | "
          f"{checked_fast_s:.3f}s | "
          f"{checked_ref_s / checked_fast_s:.2f}x")

    # Observation equivalence first: a fast wrong answer is no answer.
    assert _observation(fast) == _observation(reference)
    assert _observation(checked_fast) == _observation(checked_ref)
    assert checked_fast.violations == checked_ref.violations
    # The workload must actually be stall-heavy for the claim to mean
    # anything.
    assert stats.stall_cycles / stats.total_cycles >= 0.75
    # Deterministic counterpart of the timing claim (immune to CI
    # runner noise): the default path must have skipped the vast
    # majority of machine cycles, the mechanism the wall-clock win
    # comes from.
    skipped = (fast.stats.fast_forwarded_cycles
               + fast.stats.fast_retired_indexes)
    assert skipped / stats.total_cycles >= 0.75, (
        f"default path only skipped {skipped / stats.total_cycles:.0%} "
        f"of cycles"
    )
    # The acceptance bar: >=2x on a stall-heavy scenario.
    assert speedup >= MIN_SPEEDUP, (
        f"expected >={MIN_SPEEDUP}x simulation speedup, got {speedup:.2f}x"
    )


#: Max relative wall-time cost of the observability layer on the
#: simulator path, in either state.  `repro.obs` instrumentation is
#: O(1) per simulate() call — never per cycle — so both the disabled
#: path (one attribute check per hook) and the enabled path (a few
#: dozen dict updates per run) must be noise next to the simulation.
MAX_OBS_OVERHEAD = 0.05


def test_observability_overhead_is_negligible(compiled):
    """Instrumented-vs-disabled wall time on the simulator hot path.

    Interleaves min-of-N timings of the same default-path run with the
    metrics registry disabled (and no tracer — the default state) and
    with everything lit (recording registry + installed tracer), and
    bounds the relative difference.  min-of-N makes the comparison
    robust to scheduler noise; interleaving makes it fair to both.
    """
    from repro.obs import metrics, trace

    _run(compiled, "events", "snooping", check=False)  # warm-up

    rounds = 5
    dark_best = lit_best = float("inf")
    for _ in range(rounds):
        with metrics.capture(enabled=False):
            previous = trace.set_tracer(None)
            try:
                _, seconds = _run(compiled, "events", "snooping",
                                  check=False)
            finally:
                trace.set_tracer(previous)
        dark_best = min(dark_best, seconds)

        with metrics.capture(enabled=True):
            previous = trace.set_tracer(trace.Tracer())
            try:
                _, seconds = _run(compiled, "events", "snooping",
                                  check=False)
            finally:
                trace.set_tracer(previous)
        lit_best = min(lit_best, seconds)

    overhead = lit_best / dark_best - 1.0
    print(f"\nobservability overhead: disabled {dark_best:.4f}s | "
          f"enabled {lit_best:.4f}s | {overhead:+.1%}")
    assert lit_best <= dark_best * (1.0 + MAX_OBS_OVERHEAD), (
        f"enabled instrumentation costs {overhead:+.1%} "
        f"(budget: {MAX_OBS_OVERHEAD:.0%})"
    )
