"""Trajectory comparison: fail the build when a tracked series regresses.

:func:`compare` diffs two ``BENCH_*.json`` trajectories (see
:mod:`repro.bench.grid`):

* **perf fields** regress when they move past a relative threshold in
  the bad direction (``wall_seconds``/``frontend_seconds`` up,
  ``cycles_per_second`` down).  The default threshold (15%) absorbs
  normal machine noise while catching real slowdowns;
* a series present in the previous trajectory but **missing** from the
  current one is a regression (coverage must never silently shrink),
  unless the current trajectory lists its key under ``retired`` (the
  grid config dropped it on purpose), which is a note; new series are
  a note;
* **deterministic fields** (spec counts, simulated cycles, record
  digests) differing is a *note*, not a failure: they change exactly
  when the simulated work changes, which a PR may do on purpose — but
  it should be visible in the compare output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.bench.grid import DETERMINISTIC_FIELDS

#: field name -> +1 when bigger-is-better, -1 when smaller-is-better.
PERF_DIRECTIONS = {
    "wall_seconds": -1,
    "frontend_seconds": -1,
    "cycles_per_second": +1,
}

#: Default relative regression threshold.
DEFAULT_THRESHOLD = 0.15

#: Perf values below this are treated as zero: relative comparison of
#: sub-millisecond timings is pure noise.
_EPSILON = 1e-3


@dataclass
class Comparison:
    """Outcome of one trajectory diff."""

    regressions: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    improvements: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines: List[str] = []
        if self.regressions:
            lines.append(
                f"REGRESSIONS ({len(self.regressions)}):"
            )
            lines.extend(f"  {msg}" for msg in self.regressions)
        else:
            lines.append("no regressions")
        if self.improvements:
            lines.append(f"improvements ({len(self.improvements)}):")
            lines.extend(f"  {msg}" for msg in self.improvements)
        if self.notes:
            lines.append(f"notes ({len(self.notes)}):")
            lines.extend(f"  {msg}" for msg in self.notes)
        return "\n".join(lines)


def compare(current: Dict[str, Any], previous: Dict[str, Any],
            threshold: float = DEFAULT_THRESHOLD) -> Comparison:
    """Diff ``current`` against ``previous``; see the module docstring."""
    result = Comparison()
    cur_series: Dict[str, Dict] = dict(current.get("series") or {})
    prev_series: Dict[str, Dict] = dict(previous.get("series") or {})
    retired = set(current.get("retired") or ())
    for key in sorted(prev_series):
        if key not in cur_series:
            if key in retired:
                result.notes.append(
                    f"{key}: retired (the current grid config drops it "
                    "on purpose)"
                )
            else:
                result.regressions.append(
                    f"{key}: series disappeared from the current "
                    "trajectory"
                )
            continue
        cur, prev = cur_series[key], prev_series[key]
        for name, direction in PERF_DIRECTIONS.items():
            if name not in cur or name not in prev:
                continue
            cur_value = float(cur[name])
            prev_value = float(prev[name])
            if prev_value < _EPSILON or cur_value < _EPSILON:
                continue
            change = cur_value / prev_value - 1.0
            text = (
                f"{key}.{name}: {prev_value:.4f} -> {cur_value:.4f} "
                f"({change:+.1%})"
            )
            if change * direction < 0 and abs(change) > threshold:
                result.regressions.append(text)
            elif change * direction > 0 and abs(change) > threshold:
                result.improvements.append(text)
        for name in DETERMINISTIC_FIELDS:
            if name in cur and name in prev and cur[name] != prev[name]:
                result.notes.append(
                    f"{key}.{name}: {prev[name]} -> {cur[name]} "
                    "(workload changed; expected only when the PR "
                    "changes what is simulated)"
                )
    for key in sorted(cur_series):
        if key not in prev_series:
            result.notes.append(f"{key}: new series (no baseline)")
    return result
