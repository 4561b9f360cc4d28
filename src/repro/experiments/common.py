"""Shared plumbing of the figure and table drivers."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.api.records import RunRecord
from repro.api.runner import Runner
from repro.api.spec import Plan, Variant


def fetch_records(
    names: Iterable[str],
    variants: Iterable[Variant],
    scale: Optional[float],
    attraction: bool,
    runner: Runner,
    progress=None,
) -> Dict[Tuple[str, str], RunRecord]:
    """``(benchmark, variant key) -> RunRecord`` for one driver grid on
    the ``baseline`` machine.

    The grid runs through ``runner`` as one streamed :class:`Plan`, so a
    ``progress`` callback (``(done, total, record)``) sees every
    completion live.
    """
    plan = Plan.grid(
        benchmarks=list(names),
        variants=tuple(variants),
        attraction=attraction,
        scale=scale,
    )
    records = runner.run(plan, progress=progress)
    return {(r.benchmark, r.variant): r for r in records}
