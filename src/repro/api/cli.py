"""``python -m repro`` — the command-line front door.

Built on the same :class:`~repro.api.spec.Plan` objects as the library:

* ``repro list`` — benchmarks, variants, machine configs, figures/tables;
* ``repro run BENCH [...]`` — run a spec grid, print a summary, export
  JSON/CSV;
* ``repro figure {6,7,9}`` / ``repro table {4,5}`` — regenerate a
  figure/table through the experiment drivers;
* ``repro scenarios {generate,sweep,report}`` — seeded synthetic
  workloads and the free/MDC/DDGT differential sweep harness
  (:mod:`repro.scenarios`);
* ``repro check {protocol,conformance,schedule}`` — the exhaustive
  coherence-protocol model checker, the simulator/model conformance
  bridge (:mod:`repro.check`), and a compile-only run of the schedule
  lint every compile ends in (:mod:`repro.sched.lint`);
* ``repro cache {info,clear,prune}`` — manage the on-disk result and
  artifact stores;
* ``repro bench {run,compare}`` — config-driven benchmark grids with a
  persistent ``BENCH_*.json`` perf trajectory (:mod:`repro.bench`);
* ``repro obs {trace,metrics}`` — summarize trace/metric files produced
  with ``--trace FILE`` / ``--metrics FILE`` (:mod:`repro.obs`).

All compute-bearing commands accept ``--parallel N`` (process fan-out)
and use the on-disk :class:`~repro.api.store.DiskStore` under
``.repro_cache/`` by default, so a second invocation is near-instant and
byte-identical.  ``repro run`` and ``repro scenarios sweep`` stream:
completions print live progress (a ``\\r`` status line on a tty,
periodic plain lines otherwise), and each record is stored as it
arrives, so rerunning a killed command executes only what it had not
finished.  Every command accepts
``--trace FILE`` (Perfetto-loadable span trace; ``.jsonl`` for JSONL)
and ``--metrics FILE`` (metrics-registry snapshot) where they appear.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from typing import List, Optional

from repro import obs

from repro.analysis.report import format_table
from repro.api.artifacts import (
    DiskArtifactStore,
    MemoryArtifactStore,
    artifact_root,
)
from repro.api.records import RunRecord, records_to_csv, records_to_json
from repro.api.runner import Runner
from repro.api.spec import (
    ALL_VARIANTS,
    EVALUATED,
    Plan,
    default_scale,
)
from repro.api.store import DEFAULT_CACHE_DIR, DiskStore, MemoryStore
from repro.errors import CheckError, ConfigError, ReproError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Gibert, Sánchez & González (CGO 2003): "
            "memory coherence in a clustered VLIW processor with a "
            "distributed data cache."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scale", type=float, default=None,
                       help="iteration scale (default: REPRO_SCALE or 0.5)")
        p.add_argument("--parallel", type=int, default=None, metavar="N",
                       help="fan misses out over N worker processes")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help=f"on-disk result store (default: "
                            f"{DEFAULT_CACHE_DIR}/, or $REPRO_CACHE_DIR)")
        p.add_argument("--no-cache", action="store_true",
                       help="use a throwaway in-memory store")
        p.add_argument("--out", default=None, metavar="FILE",
                       help="also write the rendered output to FILE")
        p.add_argument("--trace", default=None, metavar="FILE",
                       help="write a span trace (Chrome trace-event "
                            "JSON, Perfetto-loadable; .jsonl for JSONL)")
        p.add_argument("--metrics", default=None, metavar="FILE",
                       help="write a metrics-registry snapshot as JSON")

    p_run = sub.add_parser("run", help="run a grid of specs")
    p_run.add_argument("benchmarks", nargs="*", metavar="BENCH",
                       help="benchmark names (default: the 13 evaluated)")
    p_run.add_argument("-v", "--variant", action="append", dest="variants",
                       metavar="C/H",
                       help="coherence/heuristic key, e.g. mdc/prefclus "
                            "(repeatable; default: all six)")
    p_run.add_argument("--machine", default="baseline",
                       help="named machine config (default: baseline)")
    p_run.add_argument("--model", action="append", dest="models",
                       metavar="MODEL",
                       help="memory model (repeatable; see 'repro list'; "
                            "default: snooping)")
    p_run.add_argument("--attraction", action="store_true",
                       help="enable Attraction Buffers")
    p_run.add_argument("--loop", default=None,
                       help="restrict to one loop of each benchmark")
    p_run.add_argument("--json", default=None, metavar="FILE",
                       help="write full records as JSON")
    p_run.add_argument("--csv", default=None, metavar="FILE",
                       help="write per-loop records as CSV")
    add_common(p_run)

    p_fig = sub.add_parser("figure", help="regenerate a figure's data")
    p_fig.add_argument("number", type=int, choices=(6, 7, 9))
    p_fig.add_argument("--benchmarks", nargs="*", default=None,
                       metavar="BENCH")
    add_common(p_fig)

    p_tab = sub.add_parser("table", help="regenerate a table")
    p_tab.add_argument("number", type=int, choices=(4, 5))
    p_tab.add_argument("--benchmarks", nargs="*", default=None,
                       metavar="BENCH")
    add_common(p_tab)

    p_scn = sub.add_parser(
        "scenarios",
        help="synthetic scenario generator + differential sweep harness",
    )
    scn_sub = p_scn.add_subparsers(dest="action", required=True)

    def add_sampling(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0,
                       help="sampler seed (default: 0)")
        p.add_argument("--count", type=int, default=50, metavar="N",
                       help="number of scenarios to sample (default: 50)")
        p.add_argument("--family", action="append", dest="families",
                       metavar="FAMILY",
                       help="restrict to a generator family (repeatable)")

    p_scn_gen = scn_sub.add_parser(
        "generate", help="sample scenarios and describe their DDGs")
    add_sampling(p_scn_gen)
    p_scn_gen.add_argument("--out", default=None, metavar="FILE",
                           help="also write the listing to FILE")

    def add_sweep_args(p: argparse.ArgumentParser) -> None:
        # report must reconstruct the exact plan sweep ran, so the two
        # verbs share one argument definition.
        add_sampling(p)
        p.add_argument("--machine", action="append", dest="machines",
                       metavar="NAME",
                       help="machine config name, named or gen-... "
                            "(repeatable; default: baseline)")
        p.add_argument("--machine-space", action="store_true",
                       help="sweep the default 2/4/8-cluster machine "
                            "space instead of the baseline alone")
        p.add_argument("--model", action="append", dest="models",
                       metavar="MODEL",
                       help="memory model to cross into the sweep "
                            "(repeatable; default: snooping)")
        p.add_argument("--csv", default=None, metavar="FILE",
                       help="write the per-family summary as CSV")
        add_common(p)

    p_scn_sweep = scn_sub.add_parser(
        "sweep", help="run the free/MDC/DDGT differential sweep")
    add_sweep_args(p_scn_sweep)

    p_scn_rep = scn_sub.add_parser(
        "report", help="re-aggregate a sweep from the warm store only")
    add_sweep_args(p_scn_rep)

    p_check = sub.add_parser(
        "check",
        help="protocol model checker, conformance bridge and "
             "compile-only schedule verification",
    )
    check_sub = p_check.add_subparsers(dest="action", required=True)

    def add_model_config(p: argparse.ArgumentParser) -> None:
        p.add_argument("--clusters", type=int, default=2, metavar="N",
                       help="model clusters (default: 2)")
        p.add_argument("--subblocks", type=int, default=2, metavar="K",
                       help="model subblocks (default: 2)")
        p.add_argument("--ops", type=int, default=3, metavar="L",
                       help="ops per model program (default: 3)")

    p_chk_proto = check_sub.add_parser(
        "protocol",
        help="exhaustively model-check the coherence protocol")
    add_model_config(p_chk_proto)
    p_chk_proto.add_argument(
        "--model", default="snooping", metavar="MODEL",
        help="memory model whose protocol to check "
             "(default: snooping)")
    p_chk_proto.add_argument(
        "--mutation", default=None, metavar="NAME",
        help="seed a protocol bug (see repro.check.mutations); the run "
             "is then expected to find a counterexample")
    p_chk_proto.add_argument(
        "--max-states", type=int, default=None, metavar="N",
        help="stop after N reachable states across all programs "
             "(CI smoke budget; default: unlimited)")
    p_chk_proto.add_argument(
        "--disciplined-only", action="store_true",
        help="only explore programs the coherence solutions produce")
    p_chk_proto.add_argument("--out", default=None, metavar="FILE")

    p_chk_conf = check_sub.add_parser(
        "conformance",
        help="drive the simulator through the model transition by "
             "transition and assert agreement")
    p_chk_conf.add_argument("--clusters", type=int, default=2, metavar="N",
                            help="clusters (default: 2)")
    p_chk_conf.add_argument("--subblocks", type=int, default=2, metavar="K",
                            help="subblocks (default: 2)")
    p_chk_conf.add_argument(
        "--model", default="snooping", metavar="MODEL",
        help="memory model to drive and replay (default: snooping)")
    p_chk_conf.add_argument("--out", default=None, metavar="FILE")

    p_chk_sched = check_sub.add_parser(
        "schedule",
        help="compile a variant cross and report each compile's "
             "schedule-lint findings (completeness/resource/latency/"
             "copies/memory-order rules)")
    p_chk_sched.add_argument(
        "benchmarks", nargs="*", metavar="BENCH",
        help="benchmark names (default: the full catalog)")
    p_chk_sched.add_argument(
        "-v", "--variant", action="append", dest="variants", metavar="C/H",
        help="coherence/heuristic key, e.g. mdc/prefclus "
             "(repeatable; default: all six)")
    p_chk_sched.add_argument("--machine", default="baseline",
                             help="named machine config (default: baseline)")
    p_chk_sched.add_argument("--loop", default=None,
                             help="restrict to one loop of each benchmark")
    p_chk_sched.add_argument("--out", default=None, metavar="FILE")

    sub.add_parser("list", help="list benchmarks, variants and configs")

    p_cache = sub.add_parser(
        "cache",
        help="manage the on-disk result + artifact stores",
    )
    p_cache.add_argument(
        "action", choices=("info", "clear", "prune"),
        help="info: both stores; clear: drop both stores; prune: drop "
             "entries older than --older-than",
    )
    p_cache.add_argument("--cache-dir", default=None, metavar="DIR")
    p_cache.add_argument(
        "--older-than", default=None, metavar="AGE",
        help="age cutoff for prune: seconds, or with a d/h/m/s suffix "
             "(e.g. 7d, 12h, 30m)",
    )

    p_bench = sub.add_parser(
        "bench",
        help="config-driven benchmark grids with a persistent "
             "BENCH_*.json perf trajectory (repro.bench)",
    )
    bench_sub = p_bench.add_subparsers(dest="action", required=True)
    p_bench_run = bench_sub.add_parser(
        "run", help="run a grid config and emit BENCH_<grid>.json + CSV")
    p_bench_run.add_argument(
        "--grid", default="benchmarks/grids/default.json", metavar="FILE",
        help="grid config (default: benchmarks/grids/default.json)")
    p_bench_run.add_argument(
        "--repeat", type=int, default=None, metavar="N",
        help="override the config's repeat count (median wall is tracked)")
    p_bench_run.add_argument(
        "--out-dir", default=".", metavar="DIR",
        help="where BENCH_<grid>.json + CSV land (default: .)")
    p_bench_run.add_argument("--trace", default=None, metavar="FILE",
                             help="write a span trace of the grid run")
    p_bench_run.add_argument("--metrics", default=None, metavar="FILE",
                             help="write a metrics snapshot of the run")
    p_bench_cmp = bench_sub.add_parser(
        "compare",
        help="diff a trajectory against a previous one; non-zero exit "
             "on regression")
    p_bench_cmp.add_argument(
        "current", metavar="CURRENT",
        help="current BENCH_<grid>.json")
    p_bench_cmp.add_argument(
        "--against", required=True, metavar="PREVIOUS",
        help="previous trajectory to compare against")
    p_bench_cmp.add_argument(
        "--threshold", type=float, default=15.0, metavar="PCT",
        help="relative regression threshold in percent (default: 15)")

    p_obs = sub.add_parser(
        "obs",
        help="summarize observability artifacts (trace/metrics files)",
    )
    obs_sub = p_obs.add_subparsers(dest="action", required=True)
    p_obs_trace = obs_sub.add_parser(
        "trace", help="summarize a span-trace file (--trace output)")
    p_obs_trace.add_argument("file", metavar="FILE")
    p_obs_metrics = obs_sub.add_parser(
        "metrics", help="render a metrics snapshot (--metrics output)")
    p_obs_metrics.add_argument("file", metavar="FILE")

    return parser


#: ``--older-than`` suffixes, in seconds.
_AGE_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400}


def parse_age(text: str) -> float:
    """Parse an ``--older-than`` age: plain seconds or ``7d``-style."""
    raw = text.strip().lower()
    unit = 1.0
    if raw and raw[-1] in _AGE_UNITS:
        unit = _AGE_UNITS[raw[-1]]
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"invalid age {text!r}: expected seconds or a number with a "
            f"d/h/m/s suffix (e.g. 7d, 12h, 30m)"
        ) from None
    if not math.isfinite(value) or value < 0:
        raise ConfigError(
            f"invalid age {text!r}: must be a non-negative finite number"
        )
    return value * unit


def _store(args: argparse.Namespace):
    if getattr(args, "no_cache", False):
        return MemoryStore()
    return DiskStore(args.cache_dir)


def _artifact_store(args: argparse.Namespace):
    if getattr(args, "no_cache", False):
        return MemoryArtifactStore()
    return DiskArtifactStore(artifact_root(getattr(args, "cache_dir", None)))


def _runner(args: argparse.Namespace) -> Runner:
    return Runner(store=_store(args), parallel=args.parallel,
                  artifacts=_artifact_store(args))


def _progress_printer():
    """Live progress on stderr, degrading gracefully off a tty.

    On a tty: a single ``\\r``-rewritten status line.  Off a tty (CI
    logs, pipes): periodic plain newline-terminated lines — roughly one
    per tenth of the plan plus the final one — so captured logs show
    progress without carriage-return noise.  stdout is never touched,
    so piped *output* stays byte-identical either way.
    """
    if sys.stderr.isatty():  # pragma: no cover - tty-only cosmetics
        def emit(done: int, total: int, record: RunRecord) -> None:
            sys.stderr.write(f"\r[{done}/{total}]  {record.benchmark} "
                             f"{record.variant}\x1b[K")
            if done >= total:
                sys.stderr.write("\n")
            sys.stderr.flush()

        return emit

    def emit_plain(done: int, total: int, record: RunRecord) -> None:
        step = max(1, total // 10)
        if done % step and done < total:
            return
        sys.stderr.write(
            f"[{done}/{total}]  {record.benchmark} {record.variant}\n")
        sys.stderr.flush()

    return emit_plain


@contextmanager
def _observed(args: argparse.Namespace):
    """Honor ``--trace FILE`` / ``--metrics FILE`` around a command.

    With ``--trace`` the whole command runs under a root span on a
    fresh tracer (written, in Chrome or JSONL format by extension, when
    the command finishes); with ``--metrics`` the process registry's
    snapshot is written on exit.  Commands without those flags pass
    through untouched.
    """
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    tracer_obj = None
    if trace_path:
        tracer_obj = obs.Tracer()
        previous = obs.set_tracer(tracer_obj)
        root = tracer_obj.span(f"repro.{args.command}", cat="cli")
        root.__enter__()
    try:
        yield
    finally:
        if tracer_obj is not None:
            root.__exit__(None, None, None)
            obs.set_tracer(previous)
            tracer_obj.write(trace_path)
            print(f"trace: {len(tracer_obj.events())} spans -> "
                  f"{trace_path}", file=sys.stderr)
        if metrics_path:
            obs.write_snapshot(metrics_path)
            print(f"metrics snapshot -> {metrics_path}", file=sys.stderr)


def _emit(text: str, out: Optional[str]) -> None:
    print(text)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    variants = tuple(args.variants) if args.variants else ALL_VARIANTS
    plan = Plan.grid(
        benchmarks=args.benchmarks or None,
        variants=variants,
        machines=args.machine,
        attraction=args.attraction,
        scale=args.scale,
        loops=args.loop,
        models=tuple(args.models) if args.models else "snooping",
    )
    records = _runner(args).run(plan, progress=_progress_printer())
    rows = []
    for record in records:
        stats = record.merged_stats()
        rows.append([
            record.benchmark, record.variant, record.machine,
            record.compute_cycles, record.stall_cycles, record.total_cycles,
            f"{record.local_hit_ratio:.1%}", record.violations,
            stats.bus_transfers,
        ])
    text = format_table(
        ["benchmark", "variant", "machine", "compute", "stall", "total",
         "local hit", "violations", "bus xfers"],
        rows,
        title=f"{len(records)} runs (scale "
              f"{args.scale if args.scale is not None else default_scale()})",
    )
    _emit(text, args.out)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(records_to_json(records))
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(records_to_csv(records))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.figure6 import run_figure6
    from repro.experiments.figure7 import run_figure7
    from repro.experiments.figure9 import run_figure9

    drivers = {6: run_figure6, 7: run_figure7, 9: run_figure9}
    result = drivers[args.number](
        benchmarks=args.benchmarks, scale=args.scale, runner=_runner(args),
        progress=_progress_printer(),
    )
    _emit(result.render(), args.out)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.experiments.table4 import run_table4
    from repro.experiments.table5 import run_table5

    if args.number == 4:
        result = run_table4(
            benchmarks=args.benchmarks, scale=args.scale,
            runner=_runner(args), progress=_progress_printer(),
        )
    else:
        # Table 5 is a static DDG analysis: no simulation, no cache.
        result = run_table5(benchmarks=args.benchmarks)
    _emit(result.render(), args.out)
    return 0


def _scenario_machines(args: argparse.Namespace):
    machines = []
    if getattr(args, "machine_space", False):
        from repro.scenarios.machines import DEFAULT_MACHINE_SPACE

        machines.extend(DEFAULT_MACHINE_SPACE)
    if getattr(args, "machines", None):
        machines.extend(args.machines)
    return machines or None


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        build_scenario_ddg,
        sample_scenarios,
        summarize,
        sweep_plan,
        run_sweep,
    )

    scenarios = sample_scenarios(args.seed, args.count, args.families)

    if args.action == "generate":
        rows = []
        for params in scenarios:
            ddg = build_scenario_ddg(params)
            rows.append([
                params.name, params.family, len(ddg),
                len(ddg.memory_instructions()), ddg.fingerprint(),
            ])
        text = format_table(
            ["scenario", "family", "ops", "mem ops", "fingerprint"],
            rows,
            title=f"{len(rows)} scenarios (seed {args.seed})",
        )
        _emit(text, args.out)
        return 0

    names = [params.name for params in scenarios]
    machines = _scenario_machines(args)
    models = tuple(args.models) if args.models else ("snooping",)

    if args.action == "sweep":
        result = run_sweep(
            names,
            machines=machines,
            scale=args.scale,
            models=models,
            runner=_runner(args),
            progress=_progress_printer(),
        )
        _emit(result.render(), args.out)
        if args.csv:
            with open(args.csv, "w") as handle:
                handle.write(result.to_csv())
        return 0 if result.ok else 1

    # report: re-aggregate whatever the store already holds for the plan.
    plan = sweep_plan(names, machines, scale=args.scale, models=models)
    store = _store(args)
    cached = [store.get(spec.content_hash) for spec in plan]
    present = [record for record in cached if record is not None]
    result = summarize(present)
    result.plan = plan
    missing = len(plan) - len(present)
    text = result.render()
    if missing:
        # An absent run is an unperformed check, not a passed one.
        text += (f"\nDIFFERENTIAL CHECK INCOMPLETE: {missing} of "
                 f"{len(plan)} runs not in the store — run "
                 f"'repro scenarios sweep' first")
    _emit(text, args.out)
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(result.to_csv())
    return 0 if result.ok and not missing else 1


def _cmd_check(args: argparse.Namespace) -> int:
    if args.action == "protocol":
        from repro.check import check_protocol

        report = check_protocol(
            num_clusters=args.clusters,
            num_subblocks=args.subblocks,
            op_count=args.ops,
            mutation=args.mutation,
            max_states=args.max_states,
            disciplined_only=args.disciplined_only,
            model=args.model,
        )
        text = report.summary()
        for counterexample in report.counterexamples:
            text += "\n\n" + counterexample.format()
        _emit(text, args.out)
        if args.mutation is not None:
            # A seeded bug the checker does NOT catch is the failure.
            return 0 if report.counterexamples else 1
        return 0 if report.ok else 1

    if args.action == "conformance":
        from repro.check.conformance import run_conformance

        report = run_conformance(
            num_clusters=args.clusters, num_subblocks=args.subblocks,
            model=args.model,
        )
        _emit(report.summary(), args.out)
        return 0 if report.ok else 1

    # schedule: compile the requested cross.  Every compile ends in the
    # schedule lint, whose CheckError names the II and lists the
    # findings one per line.
    from repro.api.core import PROFILE_ITERATIONS
    from repro.api.spec import parse_variant
    from repro.arch.config import named_config
    from repro.sched import compile_loop
    from repro.workloads.catalog import BENCHMARKS, get_benchmark
    from repro.workloads.traces import trace_factory

    base = named_config(args.machine)
    variants = [parse_variant(v) for v in (args.variants or ALL_VARIANTS)]
    lines: List[str] = []
    findings_total = 0
    for name in (args.benchmarks or list(BENCHMARKS)):
        bench = get_benchmark(name)
        machine = bench.machine(base)
        profile = trace_factory(PROFILE_ITERATIONS, seed=bench.profile_seed)
        loops = bench.loops
        if args.loop is not None:
            loops = tuple(s for s in loops if s.name == args.loop)
        for spec in loops:
            for variant in variants:
                findings: List[str] = []
                try:
                    ii = compile_loop(
                        spec.ddg, machine,
                        coherence=variant.coherence,
                        heuristic=variant.heuristic,
                        trace_factory=profile,
                        unroll_factor=spec.unroll,
                    ).ii
                except CheckError as exc:
                    header, *findings = str(exc).splitlines()
                    ii = int(header.rsplit("II=", 1)[1].split()[0])
                findings_total += len(findings)
                verdict = (
                    "clean" if not findings
                    else f"{len(findings)} finding(s)"
                )
                lines.append(
                    f"{name:12s} {spec.name:20s} {variant.key:16s} "
                    f"ii={ii:3d} {verdict}"
                )
                lines.extend(f"  {finding}" for finding in findings)
    lines.append(
        "verdict: "
        + ("all schedules verified" if not findings_total
           else f"{findings_total} finding(s)")
    )
    _emit("\n".join(lines), args.out)
    return 0 if not findings_total else 1


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.arch.config import _NAMED
    from repro.workloads.catalog import BENCHMARKS

    lines = ["evaluated benchmarks:"]
    lines.extend(f"  {name}" for name in EVALUATED)
    extras = [name for name in BENCHMARKS if name not in EVALUATED]
    if extras:
        lines.append("catalog-only benchmarks:")
        lines.extend(f"  {name}" for name in extras)
    lines.append("variants (coherence/heuristic):")
    lines.extend(f"  {v.key:16s} {v}" for v in ALL_VARIANTS)
    lines.append("machine configs:")
    lines.extend(f"  {name}" for name in sorted(_NAMED))
    lines.append("  gen-...  (generated machine-space names, see "
                 "'repro scenarios')")
    from repro.sim.models import DEFAULT_MODEL, MODELS

    lines.append("memory models (--model):")
    for name in sorted(MODELS):
        model = MODELS[name]
        default = "  [default]" if name == DEFAULT_MODEL else ""
        lines.append(f"  {name:10s} {model.description}{default}")
    from repro.scenarios import FAMILIES

    lines.append("scenario families (repro scenarios): " + ", ".join(FAMILIES))
    lines.append("figures: 6, 7, 9   tables: 4, 5")
    print("\n".join(lines))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    store = DiskStore(args.cache_dir)
    artifacts = DiskArtifactStore(artifact_root(args.cache_dir))
    if args.action == "clear":
        records = store.clear()
        dropped = artifacts.clear()
        print(f"removed {records} cached records from {store.root}/")
        print(f"removed {dropped} artifacts from {artifacts.root}/")
    elif args.action == "prune":
        if args.older_than is None:
            raise ConfigError("cache prune requires --older-than AGE")
        age = parse_age(args.older_than)
        records = store.prune(age)
        dropped = artifacts.prune(age)
        print(f"pruned {records} records from {store.root}/")
        print(f"pruned {dropped} artifacts from {artifacts.root}/")
    else:
        print(f"cache dir : {store.root}/")
        print(f"records   : {len(store)}")
        print(f"artifacts : {len(artifacts)} "
              f"({artifacts.size_bytes()} bytes under {artifacts.root}/)")
        print(f"size      : {store.size_bytes()} bytes")
        print(f"version   : {store.version}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro import bench

    if args.action == "run":
        config = bench.GridConfig.load(args.grid)

        def progress(pos: int, total: int, key: str) -> None:
            sys.stderr.write(f"[{pos + 1}/{total}] series {key}\n")
            sys.stderr.flush()

        trajectory = bench.run_grid(config, repeat=args.repeat,
                                    progress=progress)
        paths = bench.write_trajectory(trajectory, args.out_dir)
        print(bench.render(trajectory))
        print(f"trajectory -> {paths['json']}")
        print(f"csv        -> {paths['csv']}")
        return 0

    # compare
    current = bench.load_trajectory(args.current)
    previous = bench.load_trajectory(args.against)
    outcome = bench.compare(current, previous,
                            threshold=args.threshold / 100.0)
    print(outcome.render())
    return 0 if outcome.ok else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    try:
        if args.action == "trace":
            text = obs.summarize_events(obs.load_events(args.file))
        else:
            text = obs.load_snapshot(args.file).render()
    except OSError as exc:
        raise ConfigError(f"cannot read {args.file}: {exc}")
    except ValueError as exc:
        raise ConfigError(f"{args.file} is not a valid "
                          f"{args.action} file: {exc}")
    print(text)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "figure": _cmd_figure,
    "table": _cmd_table,
    "scenarios": _cmd_scenarios,
    "check": _cmd_check,
    "list": _cmd_list,
    "cache": _cmd_cache,
    "bench": _cmd_bench,
    "obs": _cmd_obs,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with _observed(args):
            return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
