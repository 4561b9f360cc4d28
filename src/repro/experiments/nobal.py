"""Section 4.2, "other architectural configurations".

Two unbalanced bus configurations are evaluated:

* **NOBAL+MEM** — four 2-cycle memory buses, two 4-cycle register buses:
  register communication becomes the scarce resource, so MDC (which adds
  none) should always beat DDGT (whose replicated stores multiply copies);
* **NOBAL+REG** — two 4-cycle memory buses, four 2-cycle register buses:
  remote accesses get more expensive, so DDGT(PrefClus) — which makes
  accesses local — should win the chain-heavy benchmarks (the paper
  reports 17%/20%/9%/8% speedups over the best MDC for epicdec, pgpdec,
  pgpenc and rasta).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.report import format_table
from repro.api.runner import Runner
from repro.api.spec import DDGT_PREF, EVALUATED, MDC_MIN, MDC_PREF, Plan
from repro.arch.config import NOBAL_MEM_CONFIG, NOBAL_REG_CONFIG
from repro.experiments import paperdata


@dataclass
class NobalResult:
    #: config name -> benchmark -> variant key -> total cycles
    cycles: Dict[str, Dict[str, Dict[str, int]]] = field(default_factory=dict)

    def ddgt_speedup_over_best_mdc(self, config: str, benchmark: str) -> float:
        """DDGT(PrefClus) speedup over the best MDC variant (positive =
        DDGT faster)."""
        bench = self.cycles[config][benchmark]
        best_mdc = min(bench[MDC_PREF.key], bench[MDC_MIN.key])
        return best_mdc / bench[DDGT_PREF.key] - 1.0

    def render(self) -> str:
        headers = ["config", "benchmark", "MDC(Pref)", "MDC(Min)",
                   "DDGT(Pref)", "DDGT speedup vs best MDC", "paper"]
        rows = []
        for config, benches in self.cycles.items():
            for name, per_variant in benches.items():
                speedup = self.ddgt_speedup_over_best_mdc(config, name)
                paper = (
                    f"{paperdata.NOBAL_REG_SPEEDUPS[name]:+.0%}"
                    if config == "nobal+reg"
                    and name in paperdata.NOBAL_REG_SPEEDUPS
                    else "-"
                )
                rows.append([
                    config, name,
                    per_variant[MDC_PREF.key],
                    per_variant[MDC_MIN.key],
                    per_variant[DDGT_PREF.key],
                    f"{speedup:+.1%}",
                    paper,
                ])
        return format_table(
            headers, rows, title="Section 4.2: unbalanced bus configurations"
        )


def run_nobal(
    benchmarks: Optional[List[str]] = None,
    scale: Optional[float] = None,
    runner: Optional[Runner] = None,
) -> NobalResult:
    names = list(benchmarks) if benchmarks is not None else list(EVALUATED)
    runner = runner if runner is not None else Runner()
    variants = (MDC_PREF, MDC_MIN, DDGT_PREF)
    plan = Plan.grid(
        benchmarks=names,
        variants=variants,
        machines=(NOBAL_MEM_CONFIG.name, NOBAL_REG_CONFIG.name),
        scale=scale,
    )
    records = {
        (r.machine, r.benchmark, r.variant): r for r in runner.run(plan)
    }
    result = NobalResult()
    for config in (NOBAL_MEM_CONFIG, NOBAL_REG_CONFIG):
        result.cycles[config.name] = {}
        for name in names:
            per_variant: Dict[str, int] = {}
            for variant in variants:
                run = records[(config.name, name, variant.key)]
                per_variant[variant.key] = run.total_cycles
            result.cycles[config.name][name] = per_variant
    return result
