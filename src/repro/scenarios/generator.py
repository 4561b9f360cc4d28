"""Seeded synthetic kernel generator.

Emits valid loop :class:`~repro.ir.ddg.Ddg` bodies across six
access-pattern families, each parameterized by size, memory-op fraction,
recurrence depth and may-alias density:

* ``stream``  — strided input/output streams with rng-varied strides;
* ``stencil`` — in-place neighborhood updates (genuine short memory
  chains through the line buffer);
* ``reduce``  — load + multiply + carried accumulation, with the
  recurrence knob setting the carried chain depth;
* ``gather``  — indirect gather (and optionally scatter) over a table,
  the unanalyzable-access stressor;
* ``chase``   — a pointer-chase: each load's address register is produced
  by the previous load, the latency-bound serial pattern;
* ``alias``   — engineered must/may/no-alias load-store pairs over one
  buffer at controlled densities.

Scenario identity is the *name*: every generation knob is encoded in it
(``scn-<family>-n<size>-m<mem%>-r<rec>-a<alias%>-s<seed>``), and the
generator is a pure function of the name, so any process — a CLI, a
``multiprocessing`` sweep worker, a warm-cache re-run — reconstructs the
identical benchmark from the string alone.  Determinism is testable via
:meth:`Ddg.fingerprint`.

Address discipline: within a scenario every affine offset and stride is a
multiple of the (uniform) access width, so two same-space accesses either
coincide exactly or are disjoint — the granularity the
:class:`~repro.sim.coherence.CoherenceChecker` tracks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.alias.memref import AccessPattern, MemRef
from repro.errors import WorkloadError
from repro.ir.builder import DdgBuilder
from repro.ir.ddg import Ddg
from repro.scenarios.rng import ScenarioRng, stable_hash64
from repro.workloads.catalog import Benchmark, LoopSpec

#: The access-pattern families the generator knows, in canonical order.
FAMILIES: Tuple[str, ...] = (
    "stream", "stencil", "reduce", "gather", "chase", "alias",
)

#: Every scenario benchmark name starts with this.
SCENARIO_PREFIX = "scn-"

_NAME_RE = re.compile(
    r"^scn-(?P<family>[a-z]+)-n(?P<size>\d+)-m(?P<mem>\d+)"
    r"-r(?P<rec>\d+)-a(?P<alias>\d+)-s(?P<seed>\d+)$"
)


def is_scenario_name(name: str) -> bool:
    return name.startswith(SCENARIO_PREFIX)


@dataclass(frozen=True)
class ScenarioParams:
    """The complete recipe for one synthetic scenario.

    ``size`` is the target instruction count per iteration, ``mem_pct``
    the target percentage of memory operations, ``recurrence`` the
    loop-carried dependence depth knob, ``alias_pct`` the density of
    may-alias (ambiguous) references, and ``seed`` decorrelates scenarios
    that share every other knob.
    """

    family: str
    size: int = 24
    mem_pct: int = 40
    recurrence: int = 1
    alias_pct: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise WorkloadError(
                f"unknown scenario family {self.family!r}; known: {FAMILIES}"
            )
        if not 4 <= self.size <= 96:
            raise WorkloadError(f"scenario size {self.size} outside [4, 96]")
        if not 5 <= self.mem_pct <= 80:
            raise WorkloadError(
                f"memory fraction {self.mem_pct}% outside [5, 80]"
            )
        if not 0 <= self.recurrence <= 4:
            raise WorkloadError(
                f"recurrence depth {self.recurrence} outside [0, 4]"
            )
        if not 0 <= self.alias_pct <= 100:
            raise WorkloadError(
                f"alias density {self.alias_pct}% outside [0, 100]"
            )
        if self.seed < 0:
            raise WorkloadError("scenario seed must be non-negative")

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return (
            f"scn-{self.family}-n{self.size}-m{self.mem_pct}"
            f"-r{self.recurrence}-a{self.alias_pct}-s{self.seed}"
        )

    @classmethod
    def parse(cls, name: str) -> "ScenarioParams":
        match = _NAME_RE.match(name)
        if match is None:
            raise WorkloadError(
                f"malformed scenario name {name!r}; expected "
                f"'scn-<family>-n<size>-m<mem%>-r<rec>-a<alias%>-s<seed>'"
            )
        return cls(
            family=match.group("family"),
            size=int(match.group("size")),
            mem_pct=int(match.group("mem")),
            recurrence=int(match.group("rec")),
            alias_pct=int(match.group("alias")),
            seed=int(match.group("seed")),
        )


# ----------------------------------------------------------------------
# Shared building blocks
# ----------------------------------------------------------------------
def _add_agen(b: DdgBuilder) -> str:
    b.ialu("i", b.carried("i", 1), name="agen")
    return "i"


def _add_filler(b: DdgBuilder, count: int, seed_reg: str) -> None:
    """Alternating INT/FP compute in short dependent runs of four (the
    same idiom as the calibrated catalog kernels)."""
    prev = seed_reg
    for j in range(count):
        dest = f"f{j}"
        if j % 2:
            b.falu(dest, prev, name=f"fill{j}")
        else:
            b.ialu(dest, prev, name=f"fill{j}")
        prev = dest if (j + 1) % 4 else seed_reg


def _combine(b: DdgBuilder, regs: Sequence[str], prefix: str = "v") -> str:
    """Fold registers into one value with alternating INT/FP ops."""
    value = regs[0]
    for d, reg in enumerate(regs[1:]):
        dest = f"{prefix}{d}"
        if d % 2:
            b.falu(dest, value, reg, name=f"{prefix}op{d}")
        else:
            b.ialu(dest, value, reg, name=f"{prefix}op{d}")
        value = dest
    return value


def _carried_chain(b: DdgBuilder, value: str, depth: int, distance: int = 1,
                   reg: str = "acc") -> str:
    """A loop-carried dependent chain of ``depth`` FP ops — the recurrence
    cycle that bounds the achievable II."""
    if depth <= 0:
        return value
    link = value
    for j in range(depth):
        dest = reg if j == depth - 1 else f"{reg}c{j}"
        if j == 0:
            b.falu(dest, link, b.carried(reg, distance), name=f"{reg}{j}")
        else:
            b.falu(dest, link, name=f"{reg}{j}")
        link = dest
    return reg


# ----------------------------------------------------------------------
# Family builders.  Each emits its memory skeleton plus minimal compute
# and returns the live value register filler compute hangs off.
# ----------------------------------------------------------------------
def _build_stream(b: DdgBuilder, rng: ScenarioRng, params: ScenarioParams,
                  width: int, mem_target: int, agen: str) -> str:
    n_stores = max(1, mem_target // 4)
    n_loads = max(1, mem_target - n_stores)
    may_alias = params.alias_pct / 100.0
    regs: List[str] = []
    for k in range(n_loads):
        shared = rng.chance(may_alias)
        mem = MemRef(
            "shared" if shared else f"src{k}",
            offset=width * rng.randint(0, 15),
            stride=width * rng.randint(1, 4),
            width=width,
            ambiguous=shared and rng.chance(0.5),
        )
        b.load(f"in{k}", agen, mem=mem, name=f"ld{k}")
        regs.append(f"in{k}")
    value = _combine(b, regs)
    value = _carried_chain(b, value, params.recurrence)
    for k in range(n_stores):
        shared = rng.chance(may_alias)
        mem = MemRef(
            "shared" if shared else f"dst{k}",
            offset=width * rng.randint(0, 15),
            stride=width * rng.randint(1, 4),
            width=width,
            ambiguous=shared and rng.chance(0.5),
        )
        b.store(value, agen, mem=mem, name=f"st{k}")
    return value


def _build_stencil(b: DdgBuilder, rng: ScenarioRng, params: ScenarioParams,
                   width: int, mem_target: int, agen: str) -> str:
    taps = min(max(2, mem_target - 1), 9)
    write_pos = rng.randint(0, max(0, taps - 2))
    regs: List[str] = []
    for k in range(taps):
        mem = MemRef(
            "line",
            offset=k * width,
            stride=width,
            width=width,
            ambiguous=k == 0 and rng.chance(params.alias_pct / 100.0),
        )
        b.load(f"a{k}", agen, mem=mem, name=f"tap{k}")
        regs.append(f"a{k}")
    value = _combine(b, regs, prefix="s")
    value = _carried_chain(b, value, params.recurrence)
    b.store(value, agen,
            mem=MemRef("line", offset=write_pos * width, stride=width,
                       width=width),
            name="stc")
    return value


def _build_reduce(b: DdgBuilder, rng: ScenarioRng, params: ScenarioParams,
                  width: int, mem_target: int, agen: str) -> str:
    regs: List[str] = []
    for k in range(mem_target):
        mem = MemRef(f"vec{k}", offset=width * rng.randint(0, 7),
                     stride=width * rng.randint(1, 2), width=width)
        b.load(f"in{k}", agen, mem=mem, name=f"ld{k}")
        regs.append(f"in{k}")
    if len(regs) > 1:
        b.fmul("prod", regs[0], regs[1], name="mul")
        value = _combine(b, ["prod"] + regs[2:])
    else:
        value = regs[0]
    return _carried_chain(b, value, max(1, params.recurrence))


def _build_gather(b: DdgBuilder, rng: ScenarioRng, params: ScenarioParams,
                  width: int, mem_target: int, agen: str) -> str:
    spread = width * (2 ** rng.randint(4, 8))
    b.load("idx", agen,
           mem=MemRef("indices", stride=width, width=width), name="ldidx")
    n_refs = max(1, mem_target - 1)
    n_scatter = n_refs // 3
    value = "idx"
    for k in range(n_refs - n_scatter):
        mem = MemRef("table", width=width, pattern=AccessPattern.INDIRECT,
                     spread=spread, salt=k)
        b.load(f"t{k}", "idx", mem=mem, name=f"gat{k}")
        b.ialu(f"c{k}", f"t{k}", value, name=f"use{k}")
        value = f"c{k}"
    value = _carried_chain(b, value, params.recurrence)
    for k in range(n_scatter):
        # Scatters into the gathered table form read-modify-write chains;
        # at low alias density they land in a separate output table and
        # leave the gather chain-free.
        shared = rng.chance(params.alias_pct / 100.0)
        mem = MemRef("table" if shared else "outtab", width=width,
                     pattern=AccessPattern.INDIRECT, spread=spread,
                     salt=100 + k)
        b.store(value, "idx", mem=mem, name=f"sca{k}")
    return value


def _build_chase(b: DdgBuilder, rng: ScenarioRng, params: ScenarioParams,
                 width: int, mem_target: int, agen: str) -> str:
    depth = min(max(2, mem_target), 12)
    spread = width * (2 ** rng.randint(5, 9))
    carry = max(1, params.recurrence)
    prev: Union[str, object] = b.carried(f"p{depth - 1}", carry)
    for k in range(depth):
        mem = MemRef("heap", width=width, pattern=AccessPattern.INDIRECT,
                     spread=spread, salt=k,
                     ambiguous=rng.chance(params.alias_pct / 100.0))
        b.load(f"p{k}", prev, mem=mem, name=f"hop{k}")
        prev = f"p{k}"
    value = b.ialu("vp", f"p{depth - 1}", agen, name="usep").dest
    if rng.chance(0.3 + params.alias_pct / 200.0):
        # A store back into the chased heap serializes against every hop.
        b.store(value, agen,
                mem=MemRef("heap", width=width,
                           pattern=AccessPattern.INDIRECT, spread=spread,
                           salt=depth),
                name="stheap")
    else:
        b.store(value, agen,
                mem=MemRef("out", stride=width, width=width), name="stout")
    return value


def _build_alias(b: DdgBuilder, rng: ScenarioRng, params: ScenarioParams,
                 width: int, mem_target: int, agen: str) -> str:
    """Load/store pairs over one buffer with engineered alias relations.

    Each pair is *hot* (an invariant shared scalar updated and re-read
    every iteration — the paper's Figure 2 hazard), *must* (store feeds
    the load ``d`` iterations later: exact flow dependence), *may* (the
    store is an ambiguous pointer the compiler serializes against the
    space), or *no* (the pair runs in disjoint word lanes) — densities
    set by ``alias_pct``.
    """
    n_pairs = max(1, mem_target // 2)
    lane = 64 * width  # pairs live far apart: inter-pair streams disjoint
    may_alias = params.alias_pct / 100.0
    value = agen
    for k in range(n_pairs):
        base = k * lane
        roll = rng.random()
        if rng.chance(0.25):
            # hot variable: invariant store + load of one shared scalar.
            # Free scheduling can split the pair across clusters, where
            # the store's bus transit races the load (stale reads).
            hot = MemRef("buf", offset=base, stride=0, width=width,
                         ambiguous=rng.chance(may_alias))
            b.store(value, agen, mem=hot, name=f"st{k}")
            b.load(f"in{k}", agen, mem=hot, name=f"ld{k}")
            value = b.ialu(f"v{k}", f"in{k}", value, name=f"use{k}").dest
            continue
        if roll < may_alias:
            stride = width * rng.choice((1, 2))
            load_mem = MemRef("buf", offset=base, stride=stride, width=width)
            store_mem = MemRef("buf", offset=base, stride=stride,
                               width=width, ambiguous=True)
        elif rng.chance(0.5):
            # must-alias: the store of iteration j writes the address the
            # load of iteration j + d reads (flow dependence, distance d).
            stride = width * rng.choice((1, 2))
            d = rng.randint(1, 3)
            load_mem = MemRef("buf", offset=base, stride=stride, width=width)
            store_mem = MemRef("buf", offset=base + d * stride, stride=stride,
                               width=width)
        else:
            # no-alias: same stride, offsets one word apart — the streams
            # interleave through disjoint word lanes and never collide.
            stride = 2 * width
            load_mem = MemRef("buf", offset=base, stride=stride, width=width)
            store_mem = MemRef("buf", offset=base + width, stride=stride,
                               width=width)
        b.load(f"in{k}", agen, mem=load_mem, name=f"ld{k}")
        value = b.ialu(f"v{k}", f"in{k}", value, name=f"use{k}").dest
        b.store(value, agen, mem=store_mem, name=f"st{k}")
    return _carried_chain(b, value, params.recurrence)


_BUILDERS: Dict[str, Callable[..., str]] = {
    "stream": _build_stream,
    "stencil": _build_stencil,
    "reduce": _build_reduce,
    "gather": _build_gather,
    "chase": _build_chase,
    "alias": _build_alias,
}


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def _scenario_rng(params: ScenarioParams) -> Tuple[ScenarioRng, int]:
    """The scenario's generator after its first draw, and that draw: the
    dominant data width, which is also the scenario's interleave
    factor.  Every use of a scenario's randomness starts here, so the
    width read from a name is the one its benchmark carries."""
    rng = ScenarioRng(stable_hash64(params.name))
    return rng, rng.choice((2, 4, 4))  # words dominate, as in Table 1


def build_scenario_ddg(params: ScenarioParams) -> Ddg:
    """Deterministically build the loop DDG a scenario describes."""
    rng, width = _scenario_rng(params)
    b = DdgBuilder(params.name)
    agen = _add_agen(b)
    mem_target = max(2, round(params.size * params.mem_pct / 100))
    value = _BUILDERS[params.family](b, rng, params, width, mem_target, agen)
    _add_filler(b, max(0, params.size - len(b)), value)
    return b.build()


def _scenario_iterations(rng: ScenarioRng) -> int:
    return 96 + 32 * rng.randint(0, 4)


# Enough for every perfbench pool (12 scenarios).  A longer sweep runs
# one scenario's group at a time, so it keeps its latest scenarios, not
# every DDG it ever built.
@lru_cache(maxsize=16)
def _benchmark_by_name(name: str) -> Benchmark:
    params = ScenarioParams.parse(name)
    rng, width = _scenario_rng(params)
    ddg = build_scenario_ddg(params)
    meta = rng.fork("meta")
    return Benchmark(
        name=params.name,
        interleave_bytes=width,
        main_width=width,
        main_width_share=1.0,
        profile_input=f"synthetic:{params.seed}:profile",
        execute_input=f"synthetic:{params.seed}:execute",
        loops=(LoopSpec(f"{params.name}.loop", ddg,
                        _scenario_iterations(meta)),),
        profile_seed=meta.randint(0, 2**31 - 1),
        execute_seed=meta.randint(0, 2**31 - 1),
        evaluated=False,
    )


def scenario_benchmark(spec: Union[str, ScenarioParams]) -> Benchmark:
    """The :class:`Benchmark` a scenario name (or params) describes.

    Pure function of the name — any process reconstructs the identical
    benchmark, which is what makes scenario specs safe to ship through
    ``RunSpec`` fields, cache keys and ``multiprocessing`` workers.
    """
    name = spec.name if isinstance(spec, ScenarioParams) else spec
    return _benchmark_by_name(name)


def sample_scenarios(
    seed: int,
    count: int,
    families: Optional[Sequence[str]] = None,
) -> List[ScenarioParams]:
    """``count`` scenarios drawn round-robin over ``families``.

    Deterministic in ``(seed, index)``: growing ``count`` extends the
    sample without perturbing earlier entries, so a 200-scenario sweep
    shares its first 50 scenarios (and their cached results) with a
    50-scenario one.
    """
    chosen = tuple(families) if families else FAMILIES
    for family in chosen:
        if family not in FAMILIES:
            raise WorkloadError(
                f"unknown scenario family {family!r}; known: {FAMILIES}"
            )
    if count < 0:
        raise WorkloadError("negative scenario count")
    out: List[ScenarioParams] = []
    for index in range(count):
        rng = ScenarioRng(stable_hash64(f"sample/{seed}/{index}"))
        out.append(ScenarioParams(
            family=chosen[index % len(chosen)],
            size=4 * rng.randint(3, 10),
            mem_pct=rng.choice((20, 30, 40, 50, 60)),
            recurrence=rng.randint(0, 3),
            alias_pct=rng.choice((0, 10, 25, 50)),
            seed=rng.randint(0, 999_999),
        ))
    return out


#: One canonical representative per family — these are the names the
#: workload catalog lists behind ``benchmark_names(evaluated_only=False)``.
DEFAULT_SCENARIOS: Tuple[str, ...] = tuple(
    ScenarioParams(family=family).name for family in FAMILIES
)
