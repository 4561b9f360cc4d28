"""The differential sweep harness.

Runs every scenario under the three coherence modes — free (``none``),
MDC and DDGT — over a machine space, through the ordinary
:class:`~repro.api.spec.Plan` / :class:`~repro.api.runner.Runner` path
(so results land in the shared :class:`~repro.api.store.ResultStore`,
multiprocessing/warm-cache behaviour comes for free, and the runner's
front-end grouping lets all six variants of a scenario share one
unroll+disambiguate+profile compilation via the
:class:`~repro.api.artifacts.ArtifactStore`), then
cross-checks the :class:`~repro.sim.coherence.CoherenceChecker` verdicts:
**coherence violations are allowed only under free scheduling**.  A
violation reported under MDC or DDGT is a bug in the coherence machinery
(or the generator found a pathological input) and is surfaced as an
anomaly.  Per-family IPC/II/traffic summaries aggregate the rest.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.api.records import RunRecord
from repro.api.runner import Runner
from repro.api.spec import Plan
from repro.errors import WorkloadError
from repro.obs import metrics, trace
from repro.scenarios.generator import (
    FAMILIES,
    ScenarioParams,
    sample_scenarios,
)
from repro.scenarios.machines import resolve_machines
from repro.sim.stats import AccessType

#: The differential grid, free modes first: the full coherence x
#: heuristic cross.  Both heuristics matter — PrefClus tends to
#: co-locate accesses with their home cluster, while MinComs chases
#: register traffic and is the placement that actually provokes
#: coherence races — so MDC and DDGT must be violation-free under both,
#: not just under the gentle one.
DIFFERENTIAL_VARIANTS: Tuple[str, ...] = (
    "none/prefclus", "none/mincoms",
    "mdc/prefclus", "mdc/mincoms",
    "ddgt/prefclus", "ddgt/mincoms",
)


def _is_free(variant: str) -> bool:
    return variant.startswith("none/")


@dataclass(frozen=True)
class FamilySummary:
    """Aggregate metrics of one (family, variant, model) cell of a sweep."""

    family: str
    variant: str
    runs: int
    mean_ii: float
    mean_ipc: float
    mean_local_hit: float
    mean_bus_per_iter: float
    violations: int
    model: str = "snooping"

    def row(self) -> List[object]:
        return [
            self.family, self.variant, self.runs, self.mean_ii,
            self.mean_ipc, self.mean_local_hit, self.mean_bus_per_iter,
            self.violations, self.model,
        ]


SUMMARY_COLUMNS = (
    "family", "variant", "runs", "mean_ii", "mean_ipc", "mean_local_hit",
    "mean_bus_per_iter", "violations", "model",
)


@dataclass
class SweepResult:
    """Everything one differential sweep produced."""

    scenarios: List[str]
    machines: List[str]
    variants: Tuple[str, ...]
    plan: Plan
    records: List[RunRecord]
    #: The memory models the records cover.
    models: List[str] = field(default_factory=list)
    summaries: List[FamilySummary] = field(default_factory=list)
    #: Human-readable description of every differential-check failure.
    anomalies: List[str] = field(default_factory=list)
    #: (benchmark, variant, machine, model) -> violation count, free mode
    #: only — the violations the optimistic baseline is *expected* to show.
    free_violations: Dict[Tuple[str, str, str, str], int] = field(
        default_factory=dict
    )

    @property
    def ok(self) -> bool:
        """True when violations appeared only under free scheduling."""
        return not self.anomalies

    # ------------------------------------------------------------------
    def render(self) -> str:
        title = (
            f"differential sweep: {len(self.scenarios)} scenarios x "
            f"{len(self.machines)} machines x {len(self.variants)} variants"
        )
        if len(self.models) > 1:
            title += f" x {len(self.models)} models"
        lines = [format_table(
            SUMMARY_COLUMNS,
            [s.row() for s in self.summaries],
            title=f"{title} = {len(self.plan)} runs",
        )]
        free_total = sum(self.free_violations.values())
        flagged = sum(1 for count in self.free_violations.values() if count)
        lines.append(
            f"free-scheduling violations: {free_total} "
            f"(in {flagged} of {len(self.free_violations)} free runs) — "
            f"expected under the optimistic baseline"
        )
        if self.anomalies:
            lines.append("DIFFERENTIAL CHECK FAILED:")
            lines.extend(f"  {msg}" for msg in self.anomalies)
        else:
            lines.append(
                "differential check passed: no violations under MDC/DDGT"
            )
        return "\n".join(lines)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for s in self.summaries:
            writer.writerow([
                s.family, s.variant, s.runs, f"{s.mean_ii:.3f}",
                f"{s.mean_ipc:.4f}", f"{s.mean_local_hit:.4f}",
                f"{s.mean_bus_per_iter:.3f}", s.violations, s.model,
            ])
        return out.getvalue()


# ----------------------------------------------------------------------
def scenario_family(benchmark_name: str) -> str:
    return ScenarioParams.parse(benchmark_name).family


def sweep_plan(
    scenarios: Sequence[str],
    machines: Optional[Sequence[str]] = None,
    variants: Sequence[str] = DIFFERENTIAL_VARIANTS,
    scale: Optional[float] = None,
    models: Sequence[str] = ("snooping",),
) -> Plan:
    """The full scenario x machine x variant x model grid as a ``Plan``."""
    for name in scenarios:
        ScenarioParams.parse(name)  # fail fast on malformed names
    return Plan.grid(
        benchmarks=list(scenarios),
        variants=list(variants),
        machines=resolve_machines(machines),
        scale=scale,
        models=list(models),
    )


def summarize(records: Sequence[RunRecord]) -> SweepResult:
    """Differential cross-check + per-family aggregation of sweep records.

    Standalone so callers holding warm-store records (e.g. the ``report``
    CLI verb) can re-aggregate without re-running anything.  The result
    is a pure function of the records: how each one was obtained (fresh
    simulation or store hit) never shows.
    """
    grouped: Dict[Tuple[str, str, str], List[RunRecord]] = {}
    anomalies: List[str] = []
    free_violations: Dict[Tuple[str, str, str, str], int] = {}
    # A sweep's records repeat each scenario once per variant and model.
    families = {name: scenario_family(name)
                for name in {record.benchmark for record in records}}
    for record in records:
        cell_key = (families[record.benchmark], record.variant,
                    record.model)
        grouped.setdefault(cell_key, []).append(record)
        if _is_free(record.variant):
            key = (
                record.benchmark, record.variant, record.machine,
                record.model,
            )
            free_violations[key] = record.violations
        elif record.violations:
            coherence, _, heuristic = record.variant.partition("/")
            # Echo the memory model so the repro command replays the
            # exact run; omitted for the default to keep the command
            # (and the pinned tests) stable for snooping sweeps.
            model_arg = (
                "" if record.model == "snooping"
                else f" --model {record.model}"
            )
            anomalies.append(
                f"scenario={record.benchmark} coherence={coherence} "
                f"heuristic={heuristic} machine={record.machine}: "
                f"{record.violations} coherence violations (only free "
                f"scheduling may violate) — reproduce with: "
                f"repro run {record.benchmark} -v {record.variant} "
                f"--machine {record.machine} --scale {record.scale:g}"
                f"{model_arg}"
            )

    models = sorted({record.model for record in records})
    summaries: List[FamilySummary] = []
    for family in FAMILIES:
        for variant in DIFFERENTIAL_VARIANTS:
            for model in models:
                cell = grouped.pop((family, variant, model), None)
                if cell:
                    summaries.append(
                        _summarize_cell(family, variant, model, cell)
                    )
    # Cells outside the canonical family/variant grid (custom variants).
    for key in sorted(grouped):
        summaries.append(_summarize_cell(*key, grouped[key]))

    scenarios = sorted({r.benchmark for r in records})
    machines = sorted({r.machine for r in records})
    variants = tuple(sorted({r.variant for r in records}))
    return SweepResult(
        scenarios=scenarios,
        machines=machines,
        variants=variants,
        plan=Plan(),
        records=list(records),
        models=models,
        summaries=summaries,
        anomalies=anomalies,
        free_violations=free_violations,
    )


def _summarize_cell(
    family: str, variant: str, model: str, cell: List[RunRecord],
) -> FamilySummary:
    iis: List[int] = []
    ipcs: List[float] = []
    hits: List[float] = []
    bus_rates: List[float] = []
    violations = 0
    for record in cell:
        # Integer sums of the loops' counters: each ratio equals the one
        # record.merged_stats() gives, without building a SimStats.
        cycles = issued = accesses = local_hits = bus = iters = 0
        for loop in record.loops:
            stats = loop.stats
            cycles += stats.compute_cycles + stats.stall_cycles
            issued += stats.issued_ops
            counts = stats.accesses
            accesses += sum(counts.values())
            local_hits += counts[AccessType.LOCAL_HIT]
            bus += stats.bus_transfers
            iters += loop.kernel_iterations
            iis.append(loop.ii)
            violations += loop.violations
        if cycles:
            ipcs.append(issued / cycles)
        if accesses:
            hits.append(local_hits / accesses)
        if iters:
            bus_rates.append(bus / iters)
    return FamilySummary(
        family=family,
        variant=variant,
        runs=len(cell),
        mean_ii=_mean(iis),
        mean_ipc=_mean(ipcs),
        mean_local_hit=_mean(hits),
        mean_bus_per_iter=_mean(bus_rates),
        violations=violations,
        model=model,
    )


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
def run_sweep(
    scenarios: Optional[Sequence[str]] = None,
    *,
    seed: int = 0,
    count: int = 50,
    families: Optional[Sequence[str]] = None,
    machines: Optional[Sequence[str]] = None,
    variants: Sequence[str] = DIFFERENTIAL_VARIANTS,
    scale: Optional[float] = None,
    models: Sequence[str] = ("snooping",),
    runner: Optional[Runner] = None,
    progress=None,
) -> SweepResult:
    """Sample (or take) scenarios, run the differential grid, cross-check.

    With an explicit ``scenarios`` list the sampler is bypassed; otherwise
    ``count`` scenarios are drawn from ``seed`` over ``families``.

    The grid executes through :meth:`Runner.run`: ``progress``
    (``(done, total, record)``) fires as each run completes, and each
    record is stored as it arrives, so rerunning a killed sweep against
    the on-disk store executes only the runs it had not finished.
    """
    if scenarios is None:
        scenarios = [
            p.name for p in sample_scenarios(seed, count, families)
        ]
    if not scenarios:
        raise WorkloadError("differential sweep needs at least one scenario")
    if runner is None:
        runner = Runner(store=None)
    plan = sweep_plan(scenarios, machines, variants, scale, models)

    with trace.span("sweep", cat="sweep", scenarios=len(scenarios),
                    runs=len(plan)):
        records = runner.run(plan, progress=progress)
        result = summarize(records)
    metrics.inc("sweep.runs", len(records))
    if result.anomalies:
        metrics.inc("sweep.anomalies", len(result.anomalies))
    result.plan = plan
    result.scenarios = list(scenarios)
    return result
