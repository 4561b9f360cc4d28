#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 30 \\
        --trace 0

Run from the root of a source checkout; ``repro`` is imported from
``src/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, measured untraced; ``--trace 1``
reports the per-layer metrics of a traced run, plus the tracing
overhead against an untraced half of the same window, and writes every
span to ``.perfbench/traces/<workload>-seed<seed>.json``.  A per-layer
share table goes to standard error.

Every timing is host-normalized: scaled by a calibration loop timed
between units and cells (``workloads.CALIBRATION_REF_S``), so bursts of
host slowdown do not read as regressions.  The raw throughput goes to
standard error.

The run fails (exit 1, ``"correct": false``) when a records digest
differs from the one ``perfbench/pinned.json`` pins for this workload
and seed, when rounds of identical work disagree, or when tracing
changes a record.  Without ``src/repro`` it exits 2 and prints nothing.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from tracer import LAYERS, LayerTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
PINS = HERE / "pinned.json"
WORKLOADS = ("sweep-cold", "models-scale1", "store-warm")

#: Set-ups timed per run: this process plus fresh child processes.
SETUP_SAMPLES = 3

Metrics = Dict[str, Tuple[float, str]]


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time one set-up in a fresh process and exit.
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_pin(path: Path, workload: str, seed: int) -> Optional[str]:
    """The pinned records digest for (workload, seed), if any."""
    if not path.is_file():
        return None
    pins = json.loads(path.read_text())
    return pins.get(workload, {}).get("digests", {}).get(str(seed))


def digest_problems(reference: str, pinned: Optional[str],
                    digests: List[str]) -> List[str]:
    """Every way the run's digests disagree with each other or the pin."""
    problems = []
    if pinned is not None and reference != pinned:
        problems.append(f"records digest {reference[:16]} differs from "
                        f"the pinned {pinned[:16]}")
    for index, digest in enumerate(digests):
        if digest != reference:
            problems.append(f"round {index} digest {digest[:16]} differs "
                            f"from the reference {reference[:16]}")
    return problems


class Window:
    """Rounds measured back to back until a deadline (at least one)."""

    def __init__(self, workload, seconds: float,
                 on_round: Callable[[int], None] = lambda _i: None) -> None:
        import workloads

        self.rounds: List[list] = []
        self.digests: List[str] = []
        self.records: list = []
        deadline = time.perf_counter() + seconds
        while not self.rounds or time.perf_counter() < deadline:
            on_round(len(self.rounds))
            units = workload.round()
            # Outside the timed units: digest, then drop the records.
            self.digests.append(workloads.round_digest(units))
            if not self.records:
                self.records = [r for u in units for r in u.records or ()]
            for unit in units:
                unit.records = None
            self.rounds.append(units)

    def units(self):
        return [unit for units in self.rounds for unit in units]

    def median_sum(self, attr: str) -> float:
        """Sum over units of each unit's median ``attr`` across rounds."""
        return sum(
            statistics.median(getattr(units[i], attr)
                              for units in self.rounds)
            for i in range(len(self.rounds[0]))
        )

    @property
    def cells(self) -> int:
        return sum(unit.cells for unit in self.rounds[0])

    def cells_per_s(self, timing: str = "wall_n") -> float:
        return self.cells / self.median_sum(timing)


def percentile(values: List[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(window: Window, setup_s: float) -> Metrics:
    latencies = [unit.wall_n for unit in window.units()]
    attempted = sum(unit.cells for unit in window.units())
    failed = sum(unit.failed for unit in window.units())
    stats = [record.merged_stats() for record in window.records]
    cycles = sum(s.total_cycles for s in stats)
    return {
        "cells_per_s": (window.cells_per_s(), "1/s"),
        "cpu_ms_per_cell": (
            window.median_sum("cpu_n") / window.cells * 1e3, "ms"),
        "request_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "request_p95_ms": (percentile(latencies, 95) * 1e3, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB"),
        "ok_frac": (1 - failed / attempted, "frac"),
        "sim_ipc": (sum(s.issued_ops for s in stats) / cycles, "ops/cycle"),
        "stall_cycle_frac": (
            sum(s.stall_cycles for s in stats) / cycles, "frac"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tracer: LayerTracer, traced: Window, untraced: Window,
              generate_s: float) -> Metrics:
    n = len(traced.rounds)
    wall = sum(unit.wall for unit in traced.units())
    own = tracer.self_times()
    calls = tracer.counts
    layers = tracer.layer_self(wall)

    def per_round(value: float) -> float:
        return value / n

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics: Metrics = {
        "scenarios.generate_s": (generate_s, "s"),
        "scenarios.summarize_s": (
            per_round(own["scenarios.summarize"]), "s/round"),
        "ir.unroll_s": (per_round(own["ir.unroll"]), "s/round"),
        "ir.unroll_calls": (per_round(calls["ir.unroll"]), "calls/round"),
        "alias.disambiguate_s": (
            per_round(own["alias.disambiguate"]), "s/round"),
        "alias.profile_s": (per_round(own["alias.profile"]), "s/round"),
        "alias.profile_calls": (
            per_round(calls["alias.profile"]), "calls/round"),
        "sched.compile_calls": (
            per_round(calls["sched.compile"]), "calls/round"),
    }
    for stage in ("coherence", "assign", "copies", "schedule", "postpass"):
        metrics[f"sched.{stage}_s"] = (
            per_round(own[f"sched.{stage}"]), "s/round")
    metrics["sched.modulo_calls"] = (
        per_round(calls["sched.modulo"]), "calls/round")
    metrics["sched.ladder_accept_ratio"] = (
        ratio(calls["sched.schedule"], calls["sched.modulo"]), "ratio")
    metrics["sim.simulate_s"] = (per_round(own["sim.simulate"]), "s/round")
    metrics["sim.simulate_calls"] = (
        per_round(calls["sim.simulate"]), "calls/round")
    for model in ("snooping", "dls", "directory"):
        metrics[f"sim.simulate_s.{model}"] = (
            per_round(own[f"sim.simulate.{model}"]), "s/round")
    metrics["sim.mcycles_per_s"] = (
        ratio(sum(tracer.sim_cycles.values()), own["sim.simulate"]) / 1e6,
        "Mcycles/s")
    metrics["api.runner_self_s"] = (per_round(own["api.runner"]), "s/round")
    for kind in ("store", "artifact"):
        for op in ("get", "put"):
            metrics[f"api.{kind}_{op}_s"] = (
                per_round(own[f"api.{kind}_{op}"]), "s/round")
        metrics[f"api.{kind}_hit_ratio"] = (
            ratio(calls[f"api.{kind}_get_hit"], calls[f"api.{kind}_get"]),
            "ratio")
    for layer in LAYERS:
        metrics[f"layer.{layer}.share"] = (ratio(layers[layer], wall),
                                           "frac")
    metrics["trace.round_s"] = (wall / n, "s")
    metrics["trace.overhead_frac"] = (
        1 - traced.cells_per_s() / untraced.cells_per_s(), "frac")
    return metrics


def layer_table(metrics: Metrics) -> str:
    round_s = metrics["trace.round_s"][0]
    lines = ["| layer | self s/round | share of traced wall |",
             "| --- | --- | --- |"]
    for layer in LAYERS:
        share = metrics[f"layer.{layer}.share"][0]
        lines.append(f"| {layer} | {share * round_s:.4f} | {share:.1%} |")
    return "\n".join(lines)


def child_setup_s(args: argparse.Namespace) -> float:
    """Time one set-up in a fresh interpreter (imports included)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def run(args: argparse.Namespace, started: float, workdir: Path,
        pins: Path) -> int:
    import workloads

    workload = workloads.make(args.workload, workdir)
    workload.split_cells = not args.trace
    tracer = LayerTracer().install() if args.trace else None
    workload.setup(args.seed)
    setup_s = (time.perf_counter() - started) * workloads.host_speed()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    generate_s = 0.0
    if tracer is not None:
        own = tracer.self_times()
        generate_s = own["scenarios.sample"] + own["scenarios.build_ddg"]
        tracer.uninstall()
        tracer.reset()

    span = args.seconds / 2 if tracer is not None else args.seconds
    window = Window(workload, span)
    reference = workload.reference_digest(window.digests[0])
    digests = list(window.digests)
    if tracer is not None:
        def label(index: int) -> None:
            tracer.round = f"round-{index}"

        tracer.install()
        traced = Window(workload, span, on_round=label)
        tracer.uninstall()
        digests += traced.digests
        metrics = per_layer(tracer, traced, window, generate_s)
        units = window.units() + traced.units()
        tracer.write(
            WORKDIR / "traces" / f"{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed},
        )
        print(layer_table(metrics), file=sys.stderr)
    else:
        setups = [setup_s] + [child_setup_s(args)
                              for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(window, statistics.median(setups))
        units = window.units()
        print(f"raw cells_per_s {window.cells_per_s('wall'):.4g} "
              f"(host-normalized {window.cells_per_s():.4g})",
              file=sys.stderr)

    problems = digest_problems(
        reference, load_pin(pins, args.workload, args.seed), digests)
    problems += [e for unit in units for e in unit.errors]
    failed = sum(unit.failed for unit in units)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": sum(unit.cells for unit in units),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def use_sources() -> bool:
    """Import ``repro`` from the checkout's ``src/``; False if absent."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    warnings.filterwarnings("ignore", message="kernel-iteration floor")
    return True


def scratch_dir() -> Path:
    """A fresh per-process directory under the checkout's work area."""
    WORKDIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-",
                                 dir=WORKDIR))


def main(argv: Optional[List[str]] = None, pins: Path = PINS) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not use_sources():
        return 2
    workdir = scratch_dir()
    try:
        return run(args, started, workdir, pins)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
