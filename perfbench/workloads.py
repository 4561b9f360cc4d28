"""The benchmark's workloads, driven only through ``repro``'s public API.

Every workload runs serially in this process with the runner's defaults
(no worker pool, no engine, batch or surrogate knob).  A *round* runs the
workload's whole plan once: cold, as one fresh-store sweep per benchmark
(the runner shares the compile front end only within a benchmark, so
splitting loses nothing), or warm, as one report request.  Rounds of
one run repeat identical work, so their records digests must agree.

Call sites look ``repro`` functions up at call time (``scenarios.summarize``,
``Plan.grid``), so the tracer's patches see the benchmark's own calls.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import repro.scenarios as scenarios
from repro.api import DiskArtifactStore, DiskStore, Plan, Runner

#: The fixed scenario pool: drawn once from ``sample_scenarios`` with this
#: seed, keeping the first ``POOL_PER_FAMILY`` scenarios of each family
#: with at most ``POOL_MAX_OPS`` operations.  The run seed varies the
#: profile and execution traces (``RunSpec.seeds``), not the pool: the
#: compile cost of freshly sampled scenarios spans 0.03-9 s per
#: scenario, which no affordable run length averages out.
POOL_SEED = 0
POOL_PER_FAMILY = 2
POOL_MAX_OPS = 24
#: ``store-warm`` serves the first scenario of each family.
WARM_SCENARIOS = len(scenarios.FAMILIES)
COLD_SCALE = 0.1

#: Seconds ``calibration_loop`` takes on the reference host (a quiet
#: 2-core 2.1 GHz VM).  A shared host runs the interpreter up to 1.8x
#: slower in bursts lasting seconds to minutes; every timing is scaled by
#: this reference over the loop's time measured around it, which turned
#: a 20-28% spread of identical 10-s windows into 3-6%.
CALIBRATION_REF_S = 0.0045

CATALOG_BENCHMARKS = ("gsmdec", "g721dec")
CATALOG_VARIANTS = ("mdc/prefclus", "ddgt/mincoms")
MEMORY_MODELS = ("snooping", "dls", "directory")


def trace_seeds(seed: int) -> Tuple[int, int]:
    """``(profile_seed, execute_seed)`` for a run seed."""
    rng = random.Random(f"perfbench/{seed}")
    return rng.randrange(2**31), rng.randrange(2**31)


def scenario_pool() -> List[str]:
    """The pool's scenario names, interleaved family by family."""
    picked: Dict[str, List[str]] = {f: [] for f in scenarios.FAMILIES}
    for params in scenarios.sample_scenarios(POOL_SEED, 400):
        bucket = picked[params.family]
        if params.size <= POOL_MAX_OPS and len(bucket) < POOL_PER_FAMILY:
            bucket.append(params.name)
    return [picked[family][i] for i in range(POOL_PER_FAMILY)
            for family in scenarios.FAMILIES]


def calibration_loop() -> float:
    """Seconds a fixed piece of pure-Python work takes on this host now.

    It allocates, hashes strings and round-trips JSON, like the program
    does: a tight arithmetic loop stays in L1 and misses the cache
    contention that slows the program on a shared host.
    """
    start = time.perf_counter()
    table = {}
    for i in range(1_500):
        table[str(i)] = (i, i * i % 7, [i] * 3)
    json.loads(json.dumps(table))
    return time.perf_counter() - start


def host_speed() -> float:
    """Reference over current loop time: below 1 on a slowed host."""
    return CALIBRATION_REF_S / statistics.median(
        calibration_loop() for _ in range(5))


def records_digest(records) -> str:
    """SHA-256 over every record's serialized form, in plan order."""
    text = json.dumps([r.to_dict() for r in records], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class UnitClock:
    """Times one unit in segments separated by calibration loops.

    ``split`` ends a segment, times the calibration loop and starts the
    next; each segment is scaled by the host speed the loops on either
    side of it show.  Calibration time is in no segment.
    """

    def __init__(self, calib_before: float) -> None:
        self.calib = calib_before
        self.wall = self.cpu = self.wall_n = self.cpu_n = 0.0
        self.start()

    def start(self) -> None:
        """(Re)start the current segment."""
        self._wall, self._cpu = time.perf_counter(), time.process_time()

    def split(self, *_progress) -> None:
        wall = time.perf_counter() - self._wall
        cpu = time.process_time() - self._cpu
        calib = calibration_loop()
        speed = 2 * CALIBRATION_REF_S / (self.calib + calib)
        self.wall += wall
        self.cpu += cpu
        self.wall_n += wall * speed
        self.cpu_n += cpu * speed
        self.calib = calib
        self.start()


@dataclass
class Unit:
    """One timed unit of work, and one request as the metrics count it:
    a cold sweep of one benchmark's cells on fresh stores, or one warm
    report request.  ``*_n`` timings are host-normalized."""

    wall: float
    cpu: float
    wall_n: float
    cpu_n: float
    cells: int
    failed: int
    #: the unit's records in plan order; ``None`` when it raised
    records: Optional[list]
    errors: List[str] = field(default_factory=list)


def violating(records) -> int:
    """Cells that show coherence violations where none are allowed:
    MDC and DDGT must be violation-free; free scheduling may race."""
    return sum(1 for r in records
               if r.violations and not r.variant.startswith("none/"))


def round_digest(units: List[Unit]) -> str:
    if any(unit.records is None for unit in units):
        return "error"
    return records_digest([r for unit in units for r in unit.records])


class Workload:
    """A plan split into units; a round runs every unit once.

    Units are timed one by one so a round's time can be estimated as
    the sum of per-unit medians across rounds, which shrugs off bursts
    of host slowdown.  ``split_cells`` also re-calibrates between the
    cells of a cold unit, from the runner's progress callback; the
    traced run turns it off, since that callback runs inside the
    runner's span.
    """

    name = ""
    split_cells = True

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.seeds: Tuple[int, int] = (0, 0)
        self.units: List[Tuple[str, ...]] = []

    def plan(self, benchmarks: Sequence[str]) -> Plan:
        raise NotImplementedError

    def full_plan(self) -> Plan:
        return self.plan([b for unit in self.units for b in unit])

    def setup(self, seed: int) -> None:
        self.seeds = trace_seeds(seed)
        # Process-level memo warm-up: hashing every spec resolves its
        # machine, which builds the catalog or the scenario's DDG once.
        for spec in self.full_plan().specs:
            spec.content_hash

    def round(self) -> List[Unit]:
        units = []
        calib = calibration_loop()
        for group in self.units:
            clock = UnitClock(calib)
            units.append(self.run_unit(group, clock))
            calib = clock.calib
        return units

    def run_unit(self, benchmarks: Sequence[str], clock: UnitClock) -> Unit:
        root = Path(tempfile.mkdtemp(prefix="cold-", dir=self.workdir))
        done: List[object] = []
        errors: List[str] = []
        records = None

        def progress(*item) -> None:
            done.append(item)
            if self.split_cells:
                clock.split()

        clock.start()
        plan = self.plan(benchmarks)
        runner = Runner(store=DiskStore(root / "records"),
                        artifacts=DiskArtifactStore(root / "artifacts"))
        try:
            records = runner.run(plan, progress=progress)
            self.report(records)
        except Exception as exc:  # a failing cell is counted, not fatal
            errors.append(f"{type(exc).__name__}: {exc}")
        clock.split()
        shutil.rmtree(root, ignore_errors=True)
        failed = (len(plan) - len(done) if records is None
                  else violating(records))
        return Unit(clock.wall, clock.cpu, clock.wall_n, clock.cpu_n,
                    len(plan), failed, records, errors)

    def report(self, records) -> None:
        """What the user reads after the sweep (nothing by default)."""

    def reference_digest(self, first_round: str) -> str:
        """The records digest every round of this run must reproduce,
        given the first round's."""
        return first_round


class SweepCold(Workload):
    """Scheduler-bound: a cold differential sweep, one unit per
    scenario."""

    name = "sweep-cold"

    @staticmethod
    def group(pool: List[str]) -> List[Tuple[str, ...]]:
        return [(name,) for name in pool]

    def setup(self, seed: int) -> None:
        self.units = self.group(scenario_pool())
        super().setup(seed)

    def plan(self, benchmarks: Sequence[str]) -> Plan:
        return Plan.grid(benchmarks=benchmarks,
                         variants=scenarios.DIFFERENTIAL_VARIANTS,
                         machines="baseline", scale=COLD_SCALE,
                         seeds=self.seeds)

    def report(self, records) -> None:
        scenarios.summarize(records)


class ModelsScale1(Workload):
    """Simulator-bound: one unit per catalog benchmark, all memory
    models in one runner call, so a compile memo shared across models
    could show."""

    name = "models-scale1"

    def setup(self, seed: int) -> None:
        self.units = [(name,) for name in CATALOG_BENCHMARKS]
        super().setup(seed)

    def plan(self, benchmarks: Sequence[str]) -> Plan:
        return Plan.grid(benchmarks=benchmarks, variants=CATALOG_VARIANTS,
                         machines="baseline", scale=1.0, seeds=self.seeds,
                         models=MEMORY_MODELS)


class StoreWarm(SweepCold):
    """Store-bound: each unit is one warm report request for the pool's
    first scenario of every family, on freshly opened stores."""

    name = "store-warm"

    @staticmethod
    def group(pool: List[str]) -> List[Tuple[str, ...]]:
        return [tuple(pool[:WARM_SCENARIOS])]

    def setup(self, seed: int) -> None:
        super().setup(seed)
        self.root = Path(tempfile.mkdtemp(prefix="warm-", dir=self.workdir))
        self.fill_digest = records_digest(
            self._runner().run(self.full_plan())
        )

    def _runner(self) -> Runner:
        # The layout ``repro scenarios sweep --cache-dir`` uses.
        return Runner(store=DiskStore(self.root),
                      artifacts=DiskArtifactStore(self.root / "artifacts"))

    def run_unit(self, benchmarks: Sequence[str], clock: UnitClock) -> Unit:
        clock.start()
        records = self._runner().run(self.plan(benchmarks))
        self.report(records)
        clock.split()
        # A miss was recomputed: the store did not serve the request.
        failed = sum(1 for r in records if r.source != "store")
        failed += violating(records)
        return Unit(clock.wall, clock.cpu, clock.wall_n, clock.cpu_n,
                    len(records), failed, records)

    def reference_digest(self, first_round: str) -> str:
        return self.fill_digest


WORKLOADS = {cls.name: cls for cls in (SweepCold, ModelsScale1, StoreWarm)}


def make(name: str, workdir: Path) -> Workload:
    return WORKLOADS[name](workdir)
