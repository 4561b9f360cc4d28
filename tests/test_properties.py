"""Property-based integration tests.

The headline invariant of the whole reproduction: for *any* loop, under
MDC or DDGT the simulated execution observes sequential memory semantics
(zero coherence violations), and every produced schedule satisfies its
dependence and resource constraints.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.alias import MemRef
from repro.arch import BASELINE_CONFIG
from repro.ir import DdgBuilder
from repro.ir.verify import verify_ddg
from repro.sched import CoherenceMode, Heuristic, compile_loop
from repro.sched.lint import lint_compilation
from repro.sim import simulate
from repro.workloads import trace_factory


@st.composite
def random_loops(draw):
    """Small random loops: mixed load/store streams over a couple of
    spaces, some ambiguous, with value flow between them."""
    n_ops = draw(st.integers(2, 7))
    width = draw(st.sampled_from([2, 4]))
    b = DdgBuilder("random")
    b.ialu("i", b.carried("i", 1), name="agen")
    value = "i"
    for k in range(n_ops):
        space = draw(st.sampled_from(["A", "B"]))
        stride = draw(st.sampled_from([0, width, 4 * width]))
        offset = draw(st.integers(0, 4)) * width
        ambiguous = draw(st.booleans())
        ref = MemRef(space, offset=offset, stride=stride, width=width,
                     ambiguous=ambiguous)
        if draw(st.booleans()):
            b.load(f"v{k}", "i", mem=ref, name=f"ld{k}")
            if draw(st.booleans()):
                b.ialu(f"c{k}", f"v{k}", name=f"use{k}")
                value = f"c{k}"
            else:
                value = f"v{k}"
        else:
            b.store(value, "i", mem=ref, name=f"st{k}")
    return b.build()


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    loop=random_loops(),
    coherence=st.sampled_from([CoherenceMode.MDC, CoherenceMode.DDGT]),
    heuristic=st.sampled_from([Heuristic.PREFCLUS, Heuristic.MINCOMS]),
)
def test_coherence_solutions_never_violate(loop, coherence, heuristic):
    result = compile_loop(
        loop,
        BASELINE_CONFIG,
        coherence=coherence,
        heuristic=heuristic,
        trace_factory=trace_factory(32, seed=7),
        unroll_factor=1,
    )
    verify_ddg(result.ddg, BASELINE_CONFIG)
    assert lint_compilation(result) == []
    trace = trace_factory(96, seed=8)(result.ddg)
    sim = simulate(result, trace, iterations=96)
    assert sim.violations.total == 0, (
        f"{coherence.value}/{heuristic.value} violated coherence on "
        f"{loop.describe()}"
    )


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(loop=random_loops())
def test_ddgt_removes_every_ma_edge(loop):
    from repro.alias import add_memory_dependences
    from repro.ir import DepKind
    from repro.sched import apply_ddgt

    work = loop.clone()
    add_memory_dependences(work)
    result = apply_ddgt(work, BASELINE_CONFIG)
    assert all(e.kind is not DepKind.MA for e in result.ddg.edges())
    verify_ddg(result.ddg, BASELINE_CONFIG)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(loop=random_loops())
def test_chains_partition_memory_instructions(loop):
    from repro.alias import add_memory_dependences
    from repro.sched import memory_dependent_chains

    work = loop.clone()
    add_memory_dependences(work)
    chains = memory_dependent_chains(work)
    seen = set()
    for chain in chains:
        assert not (chain & seen), "chains must be disjoint"
        seen |= chain
    mem_ids = {v.iid for v in work.memory_instructions()}
    assert seen <= mem_ids
