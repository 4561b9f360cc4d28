"""Figure 9 — execution time with Attraction Buffers.

Same four bars as Figure 7, but the machine carries 16-entry 2-way
Attraction Buffers, and the normalization baseline (free MinComs) also
uses them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.api.runner import Runner
from repro.api.spec import DDGT_PREF, EVALUATED, MDC_PREF
from repro.experiments.common import fetch_records
from repro.experiments.figure7 import Figure7Result, run_figure7


@dataclass
class Figure9Result:
    figure: Figure7Result
    #: epicdec chain-loop detail backing the section 5.4 anecdote
    epicdec_loop: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def render(self) -> str:
        text = self.figure.render().replace(
            "Figure 7:", "Figure 9 (Attraction Buffers):"
        )
        if self.epicdec_loop:
            lines = [text, "", "epicdec chain loop (the 76-op chain, §5.4):"]
            for bar, data in self.epicdec_loop.items():
                lines.append(
                    f"  {bar:12s} local hit {data['local_hit']:.2f}  "
                    f"stall {data['stall']:.0f}  total {data['total']:.0f}"
                )
            text = "\n".join(lines)
        return text


def run_figure9(
    benchmarks: Optional[List[str]] = None,
    scale: Optional[float] = None,
    runner: Optional[Runner] = None,
    progress=None,
) -> Figure9Result:
    runner = runner if runner is not None else Runner()
    figure = run_figure7(
        benchmarks=benchmarks, scale=scale, attraction=True,
        runner=runner, progress=progress,
    )
    result = Figure9Result(figure=figure)
    names = benchmarks if benchmarks is not None else EVALUATED
    if "epicdec" in names:
        records = fetch_records(
            ["epicdec"], (MDC_PREF, DDGT_PREF), scale, True, runner,
            progress=progress,
        )
        for variant, bar in ((MDC_PREF, "MDC"), (DDGT_PREF, "DDGT")):
            run = records[("epicdec", variant.key)]
            chain = next(l for l in run.loops if l.loop.endswith(".chain"))
            result.epicdec_loop[bar] = {
                "local_hit": chain.stats.local_hit_ratio,
                "stall": float(chain.stall_cycles),
                "total": float(chain.total_cycles),
            }
    return result
