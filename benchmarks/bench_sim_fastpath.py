"""The default simulation path vs the per-cycle reference, per model.

Every figure, sweep and scenario run bottoms out in ``simulate()``.  The
per-cycle reference (``engine="cycles"``) burns one Python iteration per
machine cycle on the object memory system, even while the core is
stalled on a remote load or draining in-flight traffic — exactly the
long-latency windows the distributed-data-cache model creates.  The
default path runs the flat stepper (:mod:`repro.sim.flatmem`), which
jumps those windows to the next memory event.

For every registered memory model this bench runs two regimes under
both engines, requires identical ``SimStats``, traffic kinds and
coherence verdicts, and asserts the default path is at least 2x faster:

* *stall-heavy* — an indirect gather whose table busts the tiny cache
  modules, on a machine with one slow memory bus and a far next level,
  so most cycles are stall cycles and skipping does most of the work
  (the checked-run ratio is reported alongside);
* *busy* — a catalog benchmark's loops on the Table-2 baseline, where
  the memory system works on most cycles and little can be skipped,
  so the speedup comes from the per-cycle work itself.

Wired into the CI smoke step like the pipeline-stage bench.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time
from unittest import mock

import pytest
from conftest import run_once

from repro.api import core
from repro.api.artifacts import MemoryArtifactStore
from repro.api.spec import RunSpec
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


#: The busy regime: a catalog benchmark on the Table-2 baseline, where
#: bus and next-level traffic keeps the memory system working on most
#: cycles (the regime of the simulator-bound repository benchmark).
BUSY_SPEC = RunSpec(benchmark="g721dec", variant="mdc/prefclus", scale=1.0)


@pytest.fixture(scope="module")
def busy_loops():
    """``(compiled, trace, iterations)`` of each of ``BUSY_SPEC``'s loops,
    exactly as ``execute_spec`` simulates them."""
    loops = []

    def record(compiled, trace, iterations, **kwargs):
        loops.append((compiled, trace, iterations))
        return simulate(compiled, trace, iterations=iterations, **kwargs)

    with mock.patch.object(core, "simulate", record):
        core.execute_spec(BUSY_SPEC, artifacts=MemoryArtifactStore())
    return loops


def _run_loops(loops, engine: str, model: str):
    start = time.perf_counter()
    results = [
        simulate(compiled, trace, iterations=iterations, engine=engine,
                 model=model, check_coherence=False)
        for compiled, trace, iterations in loops
    ]
    return results, time.perf_counter() - start


@pytest.mark.parametrize("model", model_names())
def test_default_path_beats_reference_when_busy(busy_loops, model):
    _run_loops(busy_loops, "events", model)  # warm-up

    # Best of three alternating runs per engine: one run takes tens of
    # milliseconds, short enough for a single host burst to swamp it.
    ref_seconds = fast_seconds = math.inf
    for _ in range(3):
        reference, seconds = _run_loops(busy_loops, "cycles", model)
        ref_seconds = min(ref_seconds, seconds)
        fast, seconds = _run_loops(busy_loops, "events", model)
        fast_seconds = min(fast_seconds, seconds)
    speedup = ref_seconds / fast_seconds

    total = sum(result.stats.total_cycles for result in reference)
    skipped = sum(
        result.stats.fast_forwarded_cycles + result.stats.fast_retired_indexes
        for result in fast
    )
    print(f"\n[{model}] {BUSY_SPEC.benchmark} {BUSY_SPEC.variant} on "
          f"baseline at scale {BUSY_SPEC.scale:g}, {len(busy_loops)} loops: "
          f"{total} cycles, {skipped / total:.1%} skipped")
    print(f"per-cycle {ref_seconds:.3f}s | default {fast_seconds:.3f}s | "
          f"{speedup:.2f}x speedup")

    assert ([_observation(result) for result in fast]
            == [_observation(result) for result in reference])
    # The case must stay busy: most cycles are processed one by one.
    assert skipped / total < 0.5
    assert speedup >= MIN_SPEEDUP, (
        f"expected >={MIN_SPEEDUP}x simulation speedup, got {speedup:.2f}x"
    )


#: Max relative CPU-time cost of the observability layer on the
#: simulator path, in either state.  `repro.obs` instrumentation is
#: O(1) per simulate() call — never per cycle — so both the disabled
#: path (one attribute check per hook) and the enabled path (a few
#: dozen dict updates per run) must be noise next to the simulation.
MAX_OBS_OVERHEAD = 0.05
#: ABBA quadruples the overhead check times before it may stop, and at
#: most (about 0.6 s each).
MIN_QUADS = 7
MAX_QUADS = 41


def _cpu_seconds(compiled, lit: bool) -> float:
    """Process CPU seconds of one default-path run with the
    instrumentation dark (registry disabled, no tracer: the default
    state) or lit (recording registry plus an installed tracer)."""
    from repro.obs import metrics, trace

    execution = trace_factory(ITERATIONS, seed=7)(compiled.ddg)
    with metrics.capture(enabled=lit):
        previous = trace.set_tracer(trace.Tracer() if lit else None)
        try:
            start = time.process_time()
            simulate(compiled, execution, iterations=ITERATIONS,
                     model="snooping", check_coherence=False)
            return time.process_time() - start
        finally:
            trace.set_tracer(previous)


def _median_ci(ratios):
    """The median of ``ratios`` and its distribution-free ~95%
    confidence interval (order statistics n/2 -/+ 0.98 sqrt(n))."""
    ordered = sorted(ratios)
    n = len(ordered)
    half = 0.98 * math.sqrt(n)
    low = ordered[max(0, round(n / 2 - half) - 1)]
    high = ordered[min(n - 1, round(1 + n / 2 + half) - 1)]
    return statistics.median(ordered), low, high


def test_observability_overhead_is_negligible(compiled):
    """Instrumented-vs-disabled CPU time on the simulator hot path.

    A shared host changes speed by up to 25% from one 0.15-s run to the
    next, in bursts, so minima of a few runs per side flaked.  This
    times ABBA quadruples instead — dark, lit, lit, dark, then the
    mirror order — in process CPU time: the lit/dark ratio within a
    quadruple cancels the host's speed and any linear drift across it.
    The verdict is the median ratio.  Quadruples are added until the
    median's confidence interval lies on one side of the bound (at
    least ``MIN_QUADS``, at most ``MAX_QUADS``), so a noisy host buys
    more samples rather than a coin flip.
    """
    _cpu_seconds(compiled, lit=False)  # warm-up

    bound = 1.0 + MAX_OBS_OVERHEAD
    ratios = []
    while len(ratios) < MAX_QUADS:
        order = ((False, True, True, False) if len(ratios) % 2 == 0
                 else (True, False, False, True))
        seconds = {False: 0.0, True: 0.0}
        gc.collect()
        for lit in order:
            seconds[lit] += _cpu_seconds(compiled, lit)
        ratios.append(seconds[True] / seconds[False])
        if len(ratios) >= MIN_QUADS:
            _, low, high = _median_ci(ratios)
            if high <= bound or low > bound:
                break

    median, low, high = _median_ci(ratios)
    overhead = median - 1.0
    print(f"\nobservability overhead: {overhead:+.1%} median lit/dark CPU "
          f"over {len(ratios)} ABBA quadruples "
          f"(95% CI {low - 1.0:+.1%} .. {high - 1.0:+.1%})")
    assert median <= bound, (
        f"enabled instrumentation costs {overhead:+.1%} "
        f"(budget: {MAX_OBS_OVERHEAD:.0%})"
    )
