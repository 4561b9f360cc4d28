"""Property tests over the scenario generator (the satellite invariants):

* determinism — same name => byte-identical DDG (fingerprint equality),
  across fresh generator invocations and cache-bypassing rebuilds;
* validity — every generated graph passes the structural verifier after
  conservative disambiguation, and compiles to a validated modulo
  schedule under every coherence mode;
* the differential invariant — MDC and DDGT runs report zero coherence
  violations on generated scenarios (only free scheduling may violate).
"""

from __future__ import annotations

import pytest

from repro.alias.disambiguation import add_memory_dependences
from repro.api.core import execute_spec
from repro.api.spec import RunSpec
from repro.arch.config import BASELINE_CONFIG
from repro.ir.verify import verify_ddg
from repro.scenarios import (
    FAMILIES,
    ScenarioParams,
    build_scenario_ddg,
    sample_scenarios,
)
from repro.sched import CoherenceMode, Heuristic, compile_loop
from repro.sched.lint import lint_compilation
from repro.workloads.traces import trace_factory

#: The ~100 seeded scenarios the generator-level properties run over.
SAMPLE = sample_scenarios(seed=1234, count=102)


def test_sample_covers_every_family():
    assert {p.family for p in SAMPLE} == set(FAMILIES)


@pytest.mark.parametrize(
    "params", SAMPLE, ids=lambda p: p.name,
)
def test_generation_is_deterministic_and_valid(params: ScenarioParams):
    ddg = build_scenario_ddg(params)
    again = build_scenario_ddg(ScenarioParams.parse(params.name))
    assert ddg.fingerprint() == again.fingerprint()

    # Structural validity under the compiler's conservative memory
    # disambiguation — the invariant the scheduler relies on.
    work = ddg.clone()
    add_memory_dependences(work)
    verify_ddg(work, BASELINE_CONFIG)

    assert len(ddg.memory_instructions()) >= 1
    assert all(instr.mem is None or instr.mem.offset >= 0 for instr in ddg)


# ----------------------------------------------------------------------
# Compile + simulate invariants on a representative subset (two scenarios
# per family, three coherence modes each: 36 pipeline runs).
# ----------------------------------------------------------------------
_COMPILED_SUBSET = [
    params
    for family in FAMILIES
    for params in [p for p in SAMPLE if p.family == family][:2]
]


@pytest.mark.parametrize("params", _COMPILED_SUBSET, ids=lambda p: p.name)
@pytest.mark.parametrize("mode", list(CoherenceMode), ids=lambda m: m.value)
def test_scenarios_compile_to_valid_schedules(params, mode):
    ddg = build_scenario_ddg(params)
    compiled = compile_loop(
        ddg,
        BASELINE_CONFIG,
        coherence=mode,
        heuristic=Heuristic.PREFCLUS,
        trace_factory=trace_factory(64, seed=5),
        profile_iterations=64,
    )
    assert lint_compilation(compiled) == []  # as the check stage did
    assert compiled.ii >= 1


@pytest.mark.parametrize(
    "params",
    [p for family in FAMILIES
     for p in [q for q in SAMPLE if q.family == family][:1]],
    ids=lambda p: p.name,
)
@pytest.mark.parametrize("variant", ["mdc/prefclus", "ddgt/mincoms"])
def test_coherent_modes_never_violate(params, variant):
    record = execute_spec(
        RunSpec(benchmark=params.name, variant=variant, scale=0.05)
    )
    assert record.violations == 0
