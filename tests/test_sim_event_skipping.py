"""The flat fast path's skip machinery: engagement and watchdogs.

The stat-for-stat equivalence to the per-cycle reference lives in
``tests/test_sim_fastpath.py``.  Here:

* **engagement** — the skip paths really run under every memory model,
  so the differential tests do not vacuously compare two per-cycle
  runs;
* **watchdogs** — a memory system that never quiesces after the last
  issue, or a load that never completes, raises
  :class:`SimulationError` within the watchdog bound instead of
  spinning (fault-injecting doubles, which drive the reference); a
  legitimately long drain does not trip it; and on healthy slow-memory
  runs with a shortened watchdog the default path raises exactly the
  reference's error.
"""

from __future__ import annotations

import pytest

from repro.alias import MemRef
from repro.arch import BASELINE_CONFIG
from repro.arch.config import parse_config_name
from repro.errors import SimulationError
from repro.ir import DdgBuilder
from repro.scenarios import ScenarioParams, build_scenario_ddg
from repro.sched import CoherenceMode, Heuristic, compile_loop
from repro.sim import ENGINES, MemorySystem, simulate
from repro.sim import executor as executor_mod
from repro.sim.models import model_names
from repro.workloads import trace_factory

#: The stall-heavy corner: contended single bus, tiny modules, far next
#: level — long in-flight windows, bus queueing, NL port queues.
SLOWMEM = parse_config_name("gen-c4-mb1x8-rb4x2-cm512b32a2-nl60p2")


def _compile(ddg, machine=BASELINE_CONFIG, **kwargs):
    defaults = dict(
        coherence=CoherenceMode.NONE,
        heuristic=Heuristic.MINCOMS,
        trace_factory=trace_factory(64, seed=5),
        profile_iterations=64,
    )
    defaults.update(kwargs)
    return compile_loop(ddg, machine, **defaults)


def _run(compiled, engine, iterations=200, seed=7, model="snooping"):
    trace = trace_factory(iterations, seed=seed)(compiled.ddg)
    return simulate(compiled, trace, iterations=iterations, engine=engine,
                    model=model)


def single_load_loop():
    b = DdgBuilder("one-load")
    b.load("x", mem=MemRef("A", stride=16), name="ld")
    b.ialu("y", "x", name="use")
    return b.build()


# ----------------------------------------------------------------------
# Engagement
# ----------------------------------------------------------------------
class TestEngines:
    @pytest.mark.parametrize("model", model_names())
    def test_fast_paths_actually_engage(self, model):
        """The differential tests must cover the skipping machinery, not
        vacuously compare two per-cycle runs."""
        params = ScenarioParams(family="gather", size=12, mem_pct=15, seed=3)
        compiled = _compile(build_scenario_ddg(params), SLOWMEM)
        fast = _run(compiled, "events", model=model)
        assert fast.stats.fast_forwarded_cycles > 0
        reference = _run(compiled, "cycles", model=model)
        assert reference.stats.fast_forwarded_cycles == 0

    def test_unknown_engine_rejected(self):
        compiled = _compile(single_load_loop())
        trace = trace_factory(8, seed=7)(compiled.ddg)
        with pytest.raises(SimulationError, match="unknown simulation engine"):
            simulate(compiled, trace, iterations=8, engine="warp")


# ----------------------------------------------------------------------
# Watchdogs (regression: hung drain / hung stall must raise, not spin)
# ----------------------------------------------------------------------
class _NeverQuiescentMemory(MemorySystem):
    """A buggy memory system that claims in-flight work forever."""

    def quiescent(self) -> bool:
        return False


class _SwallowingMemory(MemorySystem):
    """A buggy memory system that drops loads: completion never comes."""

    def load(self, cluster, addr, width, iid, iteration, on_complete,
             cycle) -> None:
        pass


@pytest.fixture
def small_watchdog(monkeypatch):
    monkeypatch.setattr(executor_mod, "STALL_WATCHDOG", 500)
    return 500


@pytest.mark.parametrize("model", model_names())
def test_hung_drain_raises_within_bound(small_watchdog, monkeypatch, model):
    monkeypatch.setattr(executor_mod, "MemorySystem", _NeverQuiescentMemory)
    compiled = _compile(single_load_loop())
    trace = trace_factory(8, seed=7)(compiled.ddg)
    with pytest.raises(SimulationError, match="drain"):
        simulate(compiled, trace, iterations=8, engine="cycles",
                 model=model)


@pytest.mark.parametrize("model", model_names())
def test_lost_load_raises_stall_watchdog(small_watchdog, monkeypatch, model):
    monkeypatch.setattr(executor_mod, "MemorySystem", _SwallowingMemory)
    compiled = _compile(single_load_loop())
    trace = trace_factory(8, seed=7)(compiled.ddg)
    with pytest.raises(
        SimulationError,
        match=f"machine stalled for {small_watchdog + 1} cycles",
    ):
        simulate(compiled, trace, iterations=8, engine="cycles",
                 model=model)


@pytest.mark.parametrize("engine", ENGINES)
def test_long_healthy_drain_does_not_trip_watchdog(engine, small_watchdog):
    """The drain watchdog bounds progress-free windows, not total drain
    length: a store-heavy loop on a single slow bus builds a backlog
    whose (healthy) drain takes far longer than the watchdog."""
    b = DdgBuilder("store-flood")
    b.store(mem=MemRef("A", stride=4), name="st")
    ddg = b.build()
    # Pin the store away from 3/4 of its rotating homes and forbid the
    # locality unroll, so one remote store issues per cycle against a
    # single 8-cycle bus: the backlog grows ~7/8 per cycle.
    for v in list(ddg):
        ddg.pin_cluster(v.iid, 0)
    machine = parse_config_name("gen-c4-mb1x8-rb4x2-cm2048b32a2-nl10p4")
    compiled = _compile(ddg, machine, unroll_factor=1)
    iterations = 400
    trace = trace_factory(iterations, seed=7)(compiled.ddg)
    result = simulate(compiled, trace, iterations=iterations, engine=engine)
    # The backlog really outlived the watchdog: messages spent far more
    # aggregate cycles queued than the progress-free bound allows.
    assert result.stats.bus_queued_cycles > small_watchdog
    assert result.stats.stall_cycles == 0  # stores never stall the core


def _watchdog_errors(compiled, iterations, model):
    """The error each engine raises on the same run."""
    errors = {}
    for engine in ENGINES:
        trace = trace_factory(iterations, seed=7)(compiled.ddg)
        with pytest.raises(SimulationError) as excinfo:
            simulate(compiled, trace, iterations=iterations, engine=engine,
                     model=model)
        errors[engine] = str(excinfo.value)
    return errors


@pytest.mark.parametrize("model", model_names())
def test_stall_watchdog_parity_on_a_load_miss(model, monkeypatch):
    """A healthy load missing to the 60-cycle next level stalls its
    consumer past a 40-cycle watchdog: the default path skips that
    window but must declare the same stall, at the same kernel index,
    as the reference that steps through it."""
    monkeypatch.setattr(executor_mod, "STALL_WATCHDOG", 40)
    errors = _watchdog_errors(_compile(single_load_loop(), SLOWMEM), 8,
                              model)
    assert errors["events"] == errors["cycles"]
    assert errors["cycles"].startswith("machine stalled for 41 cycles")


@pytest.mark.parametrize("model, params, watchdog", [
    # A 10-cycle next-level fill behind a 2-cycle watchdog: the stall
    # crosses the bound on a cycle the default path steps through.
    ("dls", None, 2),
    ("directory", None, 2),
    ("snooping", ScenarioParams(family="gather", size=12, mem_pct=15,
                                seed=3), 6),
], ids=["dls-single-load", "directory-single-load", "snooping-gather"])
def test_stall_watchdog_parity_on_a_processed_cycle(model, params, watchdog,
                                                    monkeypatch):
    """Where the stall streak crosses the bound on a cycle the default
    path processes (a memory event lands on it) rather than inside a
    skipped window, both engines must still raise the same error."""
    monkeypatch.setattr(executor_mod, "STALL_WATCHDOG", watchdog)
    ddg = single_load_loop() if params is None else build_scenario_ddg(params)
    errors = _watchdog_errors(_compile(ddg), 64, model)
    assert errors["events"] == errors["cycles"]
    assert errors["cycles"].startswith(
        f"machine stalled for {watchdog + 1} cycles")


@pytest.mark.parametrize("model", model_names())
def test_drain_watchdog_parity_on_a_store_only_loop(model, monkeypatch):
    """Stores never stall the core, but the last ones still wait on the
    60-cycle next level after the final issue: with a 40-cycle watchdog
    both engines must declare the same hung drain."""
    monkeypatch.setattr(executor_mod, "STALL_WATCHDOG", 40)
    b = DdgBuilder("store-only")
    b.store(mem=MemRef("A", stride=64), name="st")
    errors = _watchdog_errors(_compile(b.build(), SLOWMEM), 8, model)
    assert errors["events"] == errors["cycles"]
    assert errors["cycles"].startswith("memory system failed to drain")


