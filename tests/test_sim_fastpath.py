"""The default simulation path vs the per-cycle reference, per model.

``simulate()`` runs the flat fast path (:mod:`repro.sim.flatmem`) by
default; ``engine="cycles"`` drives the model's object ``MemorySystem``
one tick pair per cycle.  The two must agree on every serialized
counter, on the per-kind bus traffic, on the violation breakdown and on
each bus's busy cycles (``sim.bus_busy_cycles``), for every registered
memory model:

* over a fixed cross — every model × the Table-2 baseline and a
  stall-heavy machine (one slow bus, tiny modules, far next level) ×
  the three coherence modes × the six scenario families, plus snooping
  with Attraction Buffers;
* on a deep pipeline run for fewer iterations than it has stages, so
  every kernel index is a prologue or epilogue ramp index, and run
  long enough for a steady state whose consumers read load values of
  earlier iterations;
* over a derandomized hypothesis search of ``scn-`` knobs × ``gen-``
  machines × models × variants × Attraction Buffers (snooping only)
  through the ``repro run`` pipeline; a failure names the ``repro run``
  command that replays the cell.
"""

from __future__ import annotations

import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alias import MemRef
from repro.api import core
from repro.api.artifacts import MemoryArtifactStore
from repro.api.spec import ALL_VARIANTS, RunSpec
from repro.arch import BASELINE_CONFIG
from repro.arch.config import parse_config_name
from repro.errors import ConfigError
from repro.ir import DdgBuilder
from repro.obs import metrics
from repro.scenarios import FAMILIES, ScenarioParams, build_scenario_ddg
from repro.scenarios.machines import machine_grid
from repro.sched import CoherenceMode, Heuristic, compile_loop
from repro.sim import ENGINES, simulate
from repro.sim.models import model_names
from repro.workloads import trace_factory

ITERATIONS = 120
SLOWMEM = "gen-c4-mb1x8-rb4x2-cm512b32a2-nl60p2"
MACHINES = {"baseline": BASELINE_CONFIG, SLOWMEM: parse_config_name(SLOWMEM)}
MODES = (CoherenceMode.NONE, CoherenceMode.MDC, CoherenceMode.DDGT)
#: One scenario per family; the gather is shrunk so it stalls hard.
SCENARIOS = (
    ScenarioParams(family="stream", seed=3),
    ScenarioParams(family="stencil", seed=3),
    ScenarioParams(family="reduce", seed=3),
    ScenarioParams(family="gather", size=12, mem_pct=15, seed=3),
    ScenarioParams(family="chase", seed=3),
    ScenarioParams(family="alias", alias_pct=40, seed=3),
)


def _compile(params, machine, mode=CoherenceMode.NONE):
    return compile_loop(
        build_scenario_ddg(params), machine, coherence=mode,
        heuristic=Heuristic.MINCOMS, trace_factory=trace_factory(64, seed=5),
        profile_iterations=64,
    )


def observe(compiled, trace, **kwargs):
    """One ``simulate`` run: its result, and everything the two engines
    must agree on, per-bus busy cycles included."""
    with metrics.capture() as registry:
        result = simulate(compiled, trace, **kwargs)
    busy = {
        labels["bus"]: cycles
        for labels, cycles in registry.counter_items("sim.bus_busy_cycles")
    }
    return result, (result.stats.to_dict(), result.stats.bus_transfer_kinds,
                    result.violations, busy)


def run_both(compiled, model="snooping"):
    """``(default path, reference)`` runs of one loop, each a
    ``(result, observation)`` pair."""
    trace = trace_factory(ITERATIONS, seed=7)(compiled.ddg)
    return tuple(
        observe(compiled, trace, iterations=ITERATIONS, model=model,
                engine=engine)
        for engine in ("events", "cycles")
    )


@pytest.fixture(scope="module")
def compiled():
    """Compilation is model-independent: each (scenario, machine, mode)
    compiles once for the whole model cross."""
    cache = {}

    def get(params, machine, mode):
        key = (params, machine, mode)
        if key not in cache:
            cache[key] = _compile(params, MACHINES[machine], mode)
        return cache[key]

    return get


def test_scenarios_cover_every_family():
    assert sorted(p.family for p in SCENARIOS) == sorted(FAMILIES)


@pytest.mark.parametrize("params", SCENARIOS, ids=lambda p: p.family)
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("model", model_names())
def test_default_path_matches_reference(compiled, model, machine, mode,
                                        params):
    (_, seen), (_, expected) = run_both(compiled(params, machine, mode),
                                        model)
    assert seen == expected


@pytest.mark.parametrize("machine, geometry", [
    ("baseline", ()),
    # Tiny buffers on the slow machine: overflows and dirty evictions.
    (SLOWMEM, (8, 2)),
])
def test_snooping_with_attraction_buffers(machine, geometry):
    params = ScenarioParams(family="gather", size=12, mem_pct=30, seed=4)
    result = _compile(
        params, MACHINES[machine].with_attraction_buffers(*geometry),
        CoherenceMode.MDC,
    )
    (default, seen), (_, expected) = run_both(result)
    assert seen == expected
    assert default.stats.ab_fills > 0


def deep_pipeline_loop():
    """A long-latency chain at a small II.  Two of its ops read a load
    value of an earlier iteration; the last, late in the schedule, is
    the only reader of ``x`` and reads it three iterations back."""
    b = DdgBuilder("deep-pipeline")
    b.load("a", mem=MemRef("A", stride=4), name="ld_a")
    b.load("x", mem=MemRef("X", stride=8), name="ld_x")
    b.fdiv("d", "a", "a", name="div")
    b.fmul("m", "d", b.carried("a", distance=1), name="mul")
    b.fdiv("e", "m", "a", name="div2")
    b.falu("s", "e", b.carried("x", distance=3), name="add")
    b.store("s", mem=MemRef("B", stride=4), name="st")
    return b.build()


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("model", model_names())
def test_ramp_only_runs_match_reference(model, machine):
    """Runs of 1, 2, 3 and stage count - 1 iterations never reach a
    kernel index where every op instance is live: issue, readiness and
    the issued-op count all take the ramp paths.  One or two more
    iterations give a steady state so short that the late consumer
    reads an iteration below 0 there, from the completion lists' zero
    tail, while the load's last iterations are in flight; a long run
    adds a full steady state."""
    compiled = compile_loop(
        deep_pipeline_loop(), MACHINES[machine],
        heuristic=Heuristic.MINCOMS, trace_factory=trace_factory(64, seed=5),
        profile_iterations=64, unroll_factor=1,
    )
    stages = compiled.schedule.stage_count
    assert stages > 4
    for iterations in (1, 2, 3, stages - 1, stages, stages + 1, ITERATIONS):
        trace = trace_factory(iterations, seed=7)(compiled.ddg)
        default, seen = observe(compiled, trace, iterations=iterations,
                                model=model)
        _, expected = observe(compiled, trace, iterations=iterations,
                              model=model, engine="cycles")
        assert seen == expected, iterations
        assert default.stats.issued_ops == (
            iterations * len(compiled.schedule.ops))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("model", ["dls", "directory"])
def test_single_copy_models_reject_attraction_buffers(model, engine):
    result = _compile(SCENARIOS[0], BASELINE_CONFIG.with_attraction_buffers())
    trace = trace_factory(32, seed=7)(result.ddg)
    with pytest.raises(ConfigError, match="Attraction Buffers"):
        simulate(result, trace, iterations=32, model=model, engine=engine)


# ----------------------------------------------------------------------
# Fuzzed differential over whole `repro run` cells
# ----------------------------------------------------------------------
#: Generated machines: cluster count, bus grid, module geometry and
#: next-level distance all vary.
FUZZ_MACHINES = machine_grid(
    clusters=(2, 4),
    mem_buses=((4, 2), (1, 8)),
    caches=((2048, 32, 2), (512, 32, 2), (1024, 32, 1)),
    next_levels=((10, 4), (60, 2)),
)
FUZZ_SCALE = 0.05


@st.composite
def cells(draw):
    """One small ``repro run`` cell."""
    params = ScenarioParams(
        family=draw(st.sampled_from(FAMILIES)),
        size=draw(st.sampled_from((8, 12, 16))),
        mem_pct=draw(st.sampled_from((20, 40, 60))),
        recurrence=draw(st.integers(0, 3)),
        alias_pct=draw(st.sampled_from((0, 25, 50))),
        seed=draw(st.integers(0, 999)),
    )
    model = draw(st.sampled_from(model_names()))
    return RunSpec(
        benchmark=params.name,
        variant=draw(st.sampled_from([v.key for v in ALL_VARIANTS])),
        machine=draw(st.sampled_from(FUZZ_MACHINES)),
        scale=FUZZ_SCALE,
        model=model,
        # Only snooping keeps the per-cluster copies buffers extend.
        attraction=model == "snooping" and draw(st.booleans()),
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cells())
def test_fuzzed_cells_match_reference(spec):
    mismatches = []

    def differential(compiled, trace, **kwargs):
        default, seen = observe(compiled, trace, **kwargs)
        _, expected = observe(compiled, trace, engine="cycles", **kwargs)
        if seen != expected:
            mismatches.append((seen, expected))
        return default

    with mock.patch.object(core, "simulate", differential), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        core.execute_spec(spec, artifacts=MemoryArtifactStore())
    assert not mismatches, (
        f"default path != engine='cycles' (default, reference): "
        f"{mismatches[0]}; replay the cell with: repro run "
        f"{spec.benchmark} -v {spec.variant} --machine {spec.machine} "
        f"--model {spec.model} --scale {spec.scale:g}"
        + (" --attraction" if spec.attraction else "")
    )
