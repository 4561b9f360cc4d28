"""The benchmark catalog: 14 Mediabench-like models (paper Table 1).

Each benchmark is a weighted set of loops built from the kernel templates,
with the paper's per-benchmark calibration targets baked in:

* the interleaving factor and dominant data size follow Table 1;
* for benchmarks with memory dependent chains, the chain loop's filler
  compute and the auxiliary loop's trip count are *solved* from the
  published CMR/CAR of Table 3, so the chain ratios match by construction;
* the chain structure (ladder partition) follows the section 5.4/6
  anecdotes: epicdec's 76-instruction chain, and the OLD -> NEW chain
  reductions of Table 5.

Calibration algebra: let the chain loop have ``c`` chain instructions,
``m`` memory and ``n`` total instructions per iteration, and the auxiliary
loop ``m2``/``n2``; with trip counts ``I1``/``I2``::

    CMR = c*I1 / (m*I1 + m2*I2)     =>  I2 = I1 * (c/CMR - m) / m2
    CAR = c*I1 / (n*I1 + n2*I2)     =>  n  = c/CAR - (n2/m2) * (c/CMR - m)

The second equation fixes the chain loop's filler compute count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.chains import ChainStats, chain_stats
from repro.arch.config import MachineConfig
from repro.errors import WorkloadError
from repro.ir.ddg import Ddg
from repro.workloads.kernels import (
    chain_kernel,
    inplace_stencil_kernel,
    reduction_kernel,
    streaming_kernel,
    table_lookup_kernel,
)


@dataclass(frozen=True)
class LoopSpec:
    """One loop of a benchmark: a DDG template plus its trip count."""

    name: str
    ddg: Ddg
    iterations: int
    unroll: Optional[int] = None  # None = the locality heuristic decides

    def scaled_iterations(self, scale: float) -> int:
        return max(32, int(round(self.iterations * scale)))


@dataclass(frozen=True)
class Benchmark:
    """A Mediabench-like benchmark model (one Table 1 row)."""

    name: str
    interleave_bytes: int
    main_width: int
    main_width_share: float
    profile_input: str
    execute_input: str
    loops: Tuple[LoopSpec, ...]
    profile_seed: int
    execute_seed: int
    target_cmr: Optional[float] = None
    target_car: Optional[float] = None
    evaluated: bool = True

    def machine(self, base: MachineConfig) -> MachineConfig:
        """The machine config this benchmark runs on (its interleave)."""
        return base.with_interleave(self.interleave_bytes)

    def chain_table(self) -> List[Tuple[ChainStats, int]]:
        """(per-loop chain stats, trip count) pairs for CMR/CAR."""
        return [
            (chain_stats(spec.ddg), spec.iterations) for spec in self.loops
        ]


# ----------------------------------------------------------------------
# Calibration helper
# ----------------------------------------------------------------------
def _calibrate_chain_loop(
    name: str,
    chain_builder: Callable[[int], Ddg],
    aux: Ddg,
    cmr: float,
    car: float,
    base_iterations: int,
) -> Tuple[Ddg, int, int]:
    """Solve filler count and auxiliary trip count for the Table 3 targets.

    Returns ``(chain ddg, chain iterations, aux iterations)``.
    """
    probe = chain_stats(chain_builder(0))
    c, m, n0 = probe.biggest_chain, probe.memory_ops, probe.total_ops
    if c == 0:
        raise WorkloadError(f"{name}: chain loop has no chain to calibrate")
    aux_stats = chain_stats(aux)
    if aux_stats.biggest_chain:
        raise WorkloadError(f"{name}: auxiliary loop must be chain-free")
    m2, n2 = aux_stats.memory_ops, aux_stats.total_ops

    spare_mem = c / cmr - m  # m2 * I2 / I1
    if spare_mem < 0:
        raise WorkloadError(f"{name}: CMR target above the chain loop's own ratio")
    aux_iters = max(1, round(base_iterations * spare_mem / m2))
    filler = round(c / car - (n2 / m2) * spare_mem - n0)
    if filler < 0:
        raise WorkloadError(
            f"{name}: CAR target unreachable (needs filler {filler}); "
            "lower the auxiliary loop's compute ratio"
        )
    return chain_builder(filler), base_iterations, aux_iters


# ----------------------------------------------------------------------
# Benchmark definitions
# ----------------------------------------------------------------------
def _chain_benchmark(
    name: str,
    *,
    idx: int,
    interleave: int,
    width: int,
    share: float,
    inputs: Tuple[str, str],
    cmr: float,
    car: float,
    ladders: Tuple[int, ...],
    aux: Ddg,
    base_iterations: int = 384,
    store_every: int = 4,
    rotating: Tuple[int, ...] = (),
    stencil_taps: Optional[int] = None,
) -> Benchmark:
    """A benchmark dominated by one chain loop plus one auxiliary loop."""
    lane = 4 * interleave  # clusters x interleave: the single-home stride

    if stencil_taps is not None:

        def build(filler: int) -> Ddg:
            return inplace_stencil_kernel(
                f"{name}.chain", taps=stencil_taps, width=width,
                filler_compute=filler,
            )

    else:

        def build(filler: int) -> Ddg:
            return chain_kernel(
                f"{name}.chain",
                ladders=ladders,
                width=width,
                lane_stride=lane,
                store_every=store_every,
                filler_compute=filler,
                rotating=rotating,
            )

    chain_ddg, chain_iters, aux_iters = _calibrate_chain_loop(
        name, build, aux, cmr, car, base_iterations
    )
    return Benchmark(
        name=name,
        interleave_bytes=interleave,
        main_width=width,
        main_width_share=share,
        profile_input=inputs[0],
        execute_input=inputs[1],
        loops=(
            LoopSpec(f"{name}.chain", chain_ddg, chain_iters),
            LoopSpec(f"{name}.aux", aux, aux_iters),
        ),
        profile_seed=11_000 + idx,
        execute_seed=23_000 + idx,
        target_cmr=cmr,
        target_car=car,
    )


def _build_catalog() -> Dict[str, Benchmark]:
    catalog: Dict[str, Benchmark] = {}

    def register(benchmark: Benchmark) -> None:
        catalog[benchmark.name] = benchmark

    # -- epic (image compression, 4-byte floats dominant) ----------------
    register(_chain_benchmark(
        "epicdec", idx=0, interleave=4, width=4, share=0.84,
        inputs=("test_image.pgm.E", "titanic3.pgm.E"),
        cmr=0.64, car=0.22,
        ladders=(24, 13, 13, 13, 13),  # the 76-instruction chain of §5.4
        rotating=(3, 4),
        aux=streaming_kernel("epicdec.aux", n_loads=2, n_stores=1, width=4,
                             taps=2, reuse_offset=32, compute_depth=2,
                             filler_compute=7, fp=True),
    ))
    register(Benchmark(
        name="epicenc", interleave_bytes=4, main_width=4,
        main_width_share=0.89,
        profile_input="test_image", execute_input="titanic3.pgm",
        loops=(
            LoopSpec("epicenc.chain",
                     chain_kernel("epicenc.chain", ladders=(8, 4), width=4,
                                  lane_stride=16, filler_compute=12), 384),
            LoopSpec("epicenc.aux",
                     streaming_kernel("epicenc.aux", n_loads=2, n_stores=1,
                                      width=4, taps=2, compute_depth=2,
                                      filler_compute=9, fp=True), 1200),
        ),
        profile_seed=11_001, execute_seed=23_001,
        evaluated=False,  # Table 1 only; the figures omit epicenc
    ))

    # -- g721 (ADPCM codec: table lookups + integer math; no chains) -----
    for idx, (name, inputs) in enumerate((
        ("g721dec", ("clinton.g721", "S_16_44.g721")),
        ("g721enc", ("clinton.pcm", "S_16_44.pcm")),
    ), start=2):
        register(Benchmark(
            name=name, interleave_bytes=2, main_width=2,
            main_width_share=0.89 if name.endswith("dec") else 0.917,
            profile_input=inputs[0], execute_input=inputs[1],
            loops=(
                LoopSpec(f"{name}.lut",
                         table_lookup_kernel(f"{name}.lut", n_lookups=3,
                                             width=2, table_bytes=1024,
                                             filler_compute=10), 1600),
                LoopSpec(f"{name}.stream",
                         streaming_kernel(f"{name}.stream", n_loads=2,
                                          n_stores=1, width=2, taps=2,
                                          reuse_offset=8, compute_depth=3,
                                          filler_compute=6), 1200),
            ),
            profile_seed=11_000 + idx, execute_seed=23_000 + idx,
            target_cmr=0.0, target_car=0.0,
        ))

    # -- gsm (speech codec: a small multi-home chain, heavy compute).
    # The 4-op chain spans several home clusters, reproducing the §4.2
    # anecdote: under MDC its loads turn remote and stall; DDGT frees them.
    register(_chain_benchmark(
        "gsmdec", idx=4, interleave=2, width=2, share=0.99,
        inputs=("clint.pcm.run.gsm", "S_16_44.pcm.gsm"),
        cmr=0.18, car=0.02, ladders=(2, 1, 1), rotating=(1, 2),
        aux=reduction_kernel("gsmdec.aux", n_loads=2, width=2,
                             filler_compute=12),
    ))
    register(_chain_benchmark(
        "gsmenc", idx=5, interleave=2, width=2, share=0.99,
        inputs=("clinton.pcm", "S_16_44.pcm"),
        cmr=0.08, car=0.01, ladders=(2, 1, 1), rotating=(1, 2),
        aux=reduction_kernel("gsmenc.aux", n_loads=2, width=2,
                             filler_compute=10),
    ))

    # -- jpeg ------------------------------------------------------------
    register(_chain_benchmark(
        "jpegdec", idx=6, interleave=4, width=1, share=0.53,
        inputs=("testimg.jpg", "monalisa.jpg"),
        cmr=0.46, car=0.09, ladders=(5, 3), rotating=(1,),
        aux=streaming_kernel("jpegdec.aux", n_loads=2, n_stores=2, width=4,
                             taps=2, reuse_offset=32, compute_depth=3,
                             filler_compute=6),
    ))
    register(_chain_benchmark(
        "jpegenc", idx=7, interleave=4, width=4, share=0.70,
        inputs=("testimg.ppm", "monalisa.ppm"),
        cmr=0.07, car=0.03, ladders=(4,),
        aux=streaming_kernel("jpegenc.aux", n_loads=2, n_stores=1, width=4,
                             taps=2, reuse_offset=32, compute_depth=2,
                             filler_compute=0),
    ))

    # -- mpeg2 (8-byte motion-compensation data over 4-byte interleave) --
    register(_chain_benchmark(
        "mpeg2dec", idx=8, interleave=4, width=8, share=0.49,
        inputs=("mei16v2.m2v", "tek6.m2v"),
        cmr=0.13, car=0.05, ladders=(4,),
        aux=streaming_kernel("mpeg2dec.aux", n_loads=2, n_stores=1, width=8,
                             taps=2, reuse_offset=32, compute_depth=3,
                             filler_compute=2),
    ))

    # -- pegwit (elliptic-curve crypto on 2-byte limbs) -------------------
    register(_chain_benchmark(
        "pegwitdec", idx=9, interleave=2, width=2, share=0.758,
        inputs=("pegwit.enc", "tech_rep.txt.enc"),
        cmr=0.27, car=0.07, ladders=(4, 2), rotating=(1,),
        aux=streaming_kernel("pegwitdec.aux", n_loads=2, n_stores=1, width=2,
                             taps=2, reuse_offset=16, compute_depth=3,
                             filler_compute=4),
    ))
    register(_chain_benchmark(
        "pegwitenc", idx=10, interleave=2, width=2, share=0.836,
        inputs=("pgptest.plain", "tech_rep.txt"),
        cmr=0.35, car=0.09, ladders=(5, 3), rotating=(1,),
        aux=streaming_kernel("pegwitenc.aux", n_loads=2, n_stores=1, width=2,
                             taps=2, reuse_offset=16, compute_depth=3,
                             filler_compute=4),
    ))

    # -- pgp (big-number crypto: long in-place chains) --------------------
    register(_chain_benchmark(
        "pgpdec", idx=11, interleave=4, width=4, share=0.921,
        inputs=("pgptext.pgp", "tech_rep.txt.enc"),
        cmr=0.73, car=0.24,
        ladders=(17, 7),  # Table 5: NEW CMR = 17/24 of OLD
        rotating=(1,),
        aux=streaming_kernel("pgpdec.aux", n_loads=2, n_stores=1, width=4,
                             taps=2, reuse_offset=32, compute_depth=2,
                             filler_compute=7),
    ))
    register(_chain_benchmark(
        "pgpenc", idx=12, interleave=4, width=4, share=0.732,
        inputs=("pgptest.plain", "tech_rep.txt"),
        cmr=0.63, car=0.21, ladders=(14, 6), rotating=(1,),
        aux=streaming_kernel("pgpenc.aux", n_loads=2, n_stores=1, width=4,
                             taps=2, reuse_offset=32, compute_depth=2,
                             filler_compute=7),
    ))

    # -- rasta (speech analysis: several small in-place filter chains) ----
    register(_chain_benchmark(
        "rasta", idx=13, interleave=4, width=4, share=0.95,
        inputs=("ex5_c1.wav", "ex5_c1.wav"),
        cmr=0.52, car=0.26,
        ladders=(4, 4, 4, 4),  # Table 5: NEW CMR = 4/16 of OLD
        rotating=(2, 3),
        aux=streaming_kernel("rasta.aux", n_loads=2, n_stores=1, width=4,
                             taps=2, reuse_offset=32, compute_depth=1,
                             filler_compute=0),
    ))

    return catalog


_CACHE: Optional[Dict[str, Benchmark]] = None


def _catalog() -> Dict[str, Benchmark]:
    global _CACHE
    if _CACHE is None:
        _CACHE = _build_catalog()
    return _CACHE


def benchmark_names(evaluated_only: bool = True) -> List[str]:
    """Benchmark names, by default the 13 that appear in the figures.

    With ``evaluated_only=False`` the list also carries one canonical
    synthetic scenario per generator family (``scn-...`` names), so
    existing drivers can run generated workloads by name.
    """
    names = [
        name
        for name, bench in _catalog().items()
        if bench.evaluated or not evaluated_only
    ]
    if not evaluated_only:
        from repro.scenarios.generator import DEFAULT_SCENARIOS

        names.extend(DEFAULT_SCENARIOS)
    return names


def get_benchmark(name: str) -> Benchmark:
    """Look up a catalog benchmark, or build a synthetic scenario.

    ``scn-...`` names are resolved through
    :func:`repro.scenarios.generator.scenario_benchmark`: generation is a
    pure function of the name, so any process (CLI, multiprocessing
    worker, warm-cache reader) reconstructs the identical benchmark.
    They are recognized before the catalog is consulted, so a process
    that only names scenarios never builds the catalog.
    """
    from repro.scenarios.generator import is_scenario_name, scenario_benchmark

    if is_scenario_name(name):
        return scenario_benchmark(name)
    try:
        return _catalog()[name]
    except KeyError:
        pass
    raise WorkloadError(
        f"unknown benchmark {name!r}; known: {sorted(_catalog())} "
        f"(or a generated 'scn-...' scenario name)"
    )


@lru_cache(maxsize=1024)
def _interleave_bytes(name: str) -> int:
    """``get_benchmark(name).interleave_bytes``, with a scenario's read
    from its name: every spec key resolves its machine, and a scenario's
    DDG is built only to run it.  Cached, because parsing the name costs
    about half of deriving a key."""
    from repro.scenarios.generator import (
        ScenarioParams,
        _scenario_rng,
        is_scenario_name,
    )

    if is_scenario_name(name):
        return _scenario_rng(ScenarioParams.parse(name))[1]
    return get_benchmark(name).interleave_bytes


#: Names of all benchmarks (Table 1 rows), including the unevaluated one.
BENCHMARKS: Tuple[str, ...] = (
    "epicdec", "epicenc", "g721dec", "g721enc", "gsmdec", "gsmenc",
    "jpegdec", "jpegenc", "mpeg2dec", "pegwitdec", "pegwitenc",
    "pgpdec", "pgpenc", "rasta",
)
