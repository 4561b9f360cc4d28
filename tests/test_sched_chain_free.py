"""Chain-free loops: MDC and DDGT compile exactly what free compiles.

A loop whose disambiguated graph has no memory-dependent chain (no
MF/MA/MO edge between two distinct memory ops) gives MDC nothing to keep
together and DDGT no store to replicate and no MA edge to rewrite, so
each coherence variant compiles the same schedule as free scheduling
with the same heuristic.  The runner relies on this to compile and
simulate such a loop once per heuristic (``repro.api.core.LoopMemo``).
These tests check the claim pass by pass over every catalog loop and a
fixed sample of scenario loops from all six families.
"""

import pytest

from repro.api import ALL_VARIANTS, MemoryStore, Plan, Runner
from repro.api.artifacts import MemoryArtifactStore
from repro.api.spec import PROFILE_ITERATIONS
from repro.arch.config import BASELINE_CONFIG
from repro.scenarios import FAMILIES, sample_scenarios
from repro.sched import CoherenceMode, Heuristic, compile_loop
from repro.sched.ddgt import apply_ddgt
from repro.sched.mdc import apply_mdc, memory_dependent_chains
from repro.workloads import get_benchmark, trace_factory
from repro.workloads.catalog import BENCHMARKS

#: Scenario loops: the first three of each family, at most 32 ops, from
#: one fixed sample.
SCENARIO_SEED = 24
SCENARIOS_PER_FAMILY = 3
SCENARIO_MAX_OPS = 32


def scenario_names():
    picked = {family: [] for family in FAMILIES}
    for params in sample_scenarios(SCENARIO_SEED, 120):
        bucket = picked[params.family]
        if (params.size <= SCENARIO_MAX_OPS
                and len(bucket) < SCENARIOS_PER_FAMILY):
            bucket.append(params.name)
    return [name for family in FAMILIES for name in picked[family]]


LOOPS = [
    (bench, loop.name)
    for bench in list(BENCHMARKS) + scenario_names()
    for loop in get_benchmark(bench).loops
]


def compile_variant(bench, loop, coherence, heuristic, artifacts):
    """What the runner compiles for one variant of ``loop``."""
    return compile_loop(
        loop.ddg,
        bench.machine(BASELINE_CONFIG),
        coherence=coherence,
        heuristic=heuristic,
        trace_factory=trace_factory(PROFILE_ITERATIONS,
                                    seed=bench.profile_seed),
        unroll_factor=loop.unroll,
        artifacts=artifacts,
    )


def without_name(ddg):
    snapshot = ddg.to_dict()
    del snapshot["name"]
    return snapshot


def outcome(result):
    """Everything of a compile that reaches a loop record or the
    simulator, the graph's name aside."""
    return (
        result.ii,
        {iid: (op.cluster, op.time)
         for iid, op in result.schedule.ops.items()},
        dict(result.schedule.assumed_latency),
        result.copies,
        result.unroll_factor,
        without_name(result.ddg),
    )


def test_the_sample_covers_every_family_and_both_kinds():
    names = scenario_names()
    assert len(names) == SCENARIOS_PER_FAMILY * len(FAMILIES)
    assert {name.split("-")[1] for name in names} == set(FAMILIES)
    kinds = set()
    for name, loop_name in LOOPS:
        bench = get_benchmark(name)
        loop = next(l for l in bench.loops if l.name == loop_name)
        source = compile_variant(bench, loop, CoherenceMode.NONE,
                                 Heuristic.MINCOMS, None).source
        kinds.add(not memory_dependent_chains(source))
    assert kinds == {True, False}


@pytest.mark.parametrize("name,loop_name", LOOPS,
                         ids=[f"{b}:{l}" for b, l in LOOPS])
def test_chain_free_loops_compile_alike(name, loop_name):
    bench = get_benchmark(name)
    loop = next(l for l in bench.loops if l.name == loop_name)
    machine = bench.machine(BASELINE_CONFIG)
    store = MemoryArtifactStore()
    free = {
        heuristic: compile_variant(bench, loop, CoherenceMode.NONE,
                                   heuristic, store)
        for heuristic in Heuristic
    }
    front_end = free[Heuristic.PREFCLUS]
    source, profiles = front_end.source, front_end.profiles
    chains = memory_dependent_chains(source)
    mdc = apply_mdc(source, profiles)
    ddgt = apply_ddgt(source, machine)
    if chains:
        # The criterion is tight: every chain holds a store dependent on
        # another op, which DDGT replicates.
        assert mdc.chains == chains
        assert ddgt.replicas
        return
    assert mdc.chains == [] and mdc.group_of == {}
    assert ddgt.replicas == {} and ddgt.fake_consumers == []
    assert ddgt.synchronized == ddgt.redundant_ma == 0
    assert ddgt.ddg.name == f"{source.name}+ddgt"
    assert without_name(ddgt.ddg) == without_name(source)
    for heuristic in Heuristic:
        expected = outcome(free[heuristic])
        for coherence in (CoherenceMode.MDC, CoherenceMode.DDGT):
            result = compile_variant(bench, loop, coherence, heuristic,
                                     store)
            assert outcome(result) == expected, (coherence, heuristic)
            if result.ddgt is not None:
                assert result.ddgt.instance_count == 0
                assert result.ddgt.fake_consumers == []


def test_a_chain_loop_still_compiles_once_per_variant(monkeypatch):
    """The runner shares a chain-free loop's compile across coherence
    variants, never a chain loop's: gsmdec.chain compiles six times,
    gsmdec.aux once per heuristic."""
    import repro.api.core as core

    bench = get_benchmark("gsmdec")
    chain, aux = bench.loops
    for loop, chained in ((chain, True), (aux, False)):
        source = compile_variant(bench, loop, CoherenceMode.NONE,
                                 Heuristic.MINCOMS, None).source
        assert bool(memory_dependent_chains(source)) is chained
    compiled = []
    original = core.compile_loop

    def counting(ddg, machine, **kwargs):
        compiled.append((ddg.name, kwargs["coherence"].value,
                         kwargs["heuristic"].value))
        return original(ddg, machine, **kwargs)

    monkeypatch.setattr(core, "compile_loop", counting)
    Runner(store=MemoryStore(), artifacts=MemoryArtifactStore()).run(
        Plan.grid(benchmarks="gsmdec", variants=ALL_VARIANTS, scale=0.1))
    assert sorted(v for n, *v in compiled if n == chain.ddg.name) == sorted(
        [v.coherence.value, v.heuristic.value] for v in ALL_VARIANTS)
    assert sorted(v for n, *v in compiled if n == aux.ddg.name) == [
        ["none", "mincoms"], ["none", "prefclus"]]
