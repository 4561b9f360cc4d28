"""Observability end to end: instrumentation is faithful and harmless.

Three contracts:

* **worker telemetry survives the pool** — artifact hit/miss counters
  and per-spec latencies recorded inside pool workers aggregate into
  the parent registry (the bug class this module was built to kill:
  artifact hit rates silently under-reported for parallel runs);
* **spans actually cover the work** — a traced run's stage spans sum to
  (almost all of) their compile span, and the trace file is loadable;
* **instrumentation never changes results** — records serialize
  byte-identically with metrics+tracing fully on vs fully off.
"""

import json
import warnings

import pytest

from repro.api.artifacts import MemoryArtifactStore, artifact_stats
from repro.api.cli import main
from repro.api.core import execute_spec
from repro.api.runner import Runner
from repro.api.spec import Plan, RunSpec
from repro.api.store import MemoryStore
from repro.obs import metrics, trace

PLAN = Plan.grid(benchmarks=["gsmdec"],
                 variants=["mdc/prefclus", "mdc/mincoms"],
                 scale=0.05)


def _canonical(record) -> str:
    return json.dumps(record.to_dict(), sort_keys=True)


class TestWorkerTelemetry:
    def test_parallel_run_aggregates_worker_metrics(self):
        with metrics.capture() as reg:
            runner = Runner(store=MemoryStore(),
                            artifacts=MemoryArtifactStore(), parallel=2)
            records = runner.run(PLAN)
            assert len(records) == 2

            # The artifact lookups happened inside pool workers; their
            # deltas must be visible here, in the parent process.
            lookups = sum(v for _, v in
                          reg.counter_items("artifacts.lookups"))
            assert lookups > 0
            # Hit/miss split depends on which worker runs which task;
            # what must hold is that the lookups were counted at all.
            assert artifact_stats().lookups > 0
            assert reg.counter("runner.tasks") == 2
            hist = reg.histogram("runner.spec_seconds", mode="parallel")
            assert hist is not None and hist.count == 2
            assert reg.counter("runner.worker_busy_seconds") > 0
            util = reg.gauge("runner.worker_utilization")
            assert util is not None and 0.0 < util <= 1.0
            # Simulator counters cross the pool boundary too.
            assert reg.counter("sim.runs", engine="events") > 0

    def test_serial_run_records_the_same_counter_families(self):
        with metrics.capture() as reg:
            runner = Runner(store=MemoryStore(),
                            artifacts=MemoryArtifactStore(), parallel=None)
            runner.run(PLAN)
            assert reg.counter("runner.store_lookups", outcome="miss") == 2
            hist = reg.histogram("runner.spec_seconds", mode="serial")
            assert hist is not None and hist.count == 2
            assert sum(v for _, v in
                       reg.counter_items("stages.executed")) > 0


class TestSpanCoverage:
    def test_stage_spans_cover_their_compile_span(self):
        tracer = trace.Tracer()
        previous = trace.set_tracer(tracer)
        try:
            with metrics.capture():
                Runner(store=MemoryStore(),
                       artifacts=MemoryArtifactStore()).run(PLAN)
        finally:
            trace.set_tracer(previous)
        events = tracer.events()
        compiles = [e for e in events if e["cat"] == "compile"]
        assert compiles, "no compile spans recorded"
        for compile_span in compiles:
            # Parents are recorded by name, and the same loop compiles
            # once per variant — disambiguate instances by containment.
            begin = compile_span["ts_us"]
            end = begin + compile_span["dur_us"]
            children = [
                e for e in events
                if e.get("parent") == compile_span["name"]
                and e["cat"] in ("stage", "artifact", "glue")
                and e["tid"] == compile_span["tid"]
                and begin <= e["ts_us"] <= end
            ]
            assert children, f"no children under {compile_span['name']}"
            covered = sum(e["dur_us"] for e in children)
            # The staged pipeline IS the compile: its children account
            # for nearly all of the parent span, and can never exceed
            # it by more than measurement jitter.
            assert covered <= compile_span["dur_us"] * 1.02
            assert covered >= compile_span["dur_us"] * 0.85, (
                f"{compile_span['name']}: stage spans cover only "
                f"{covered / compile_span['dur_us']:.0%}"
            )
        # Every spec span contains compile and simulate work.
        specs = [e for e in events if e["cat"] == "spec"]
        assert len(specs) == 2
        cats = {e["cat"] for e in events}
        assert {"spec", "compile", "stage", "sim", "artifact"} <= cats

    def test_parallel_spans_come_back_from_the_workers(self):
        tracer = trace.Tracer()
        previous = trace.set_tracer(tracer)
        try:
            Runner(store=MemoryStore(), artifacts=MemoryArtifactStore(),
                   parallel=2).run(PLAN)
        finally:
            trace.set_tracer(previous)
        events = tracer.events()
        specs = [e for e in events if e["cat"] == "spec"]
        assert len(specs) == 2
        workers = {e["pid"] for e in specs}
        assert tracer.pid not in workers
        # The compile stages ran in the same workers as their specs.
        assert {e["pid"] for e in events if e["cat"] == "stage"} == workers


class TestGoldenEquivalence:
    def test_instrumentation_never_changes_results(self):
        spec = RunSpec(benchmark="gsmdec", variant="mdc/prefclus",
                       scale=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            # Fully dark: metrics disabled, no tracer.
            with metrics.capture(enabled=False):
                previous = trace.set_tracer(None)
                try:
                    dark = execute_spec(
                        spec, artifacts=MemoryArtifactStore())
                finally:
                    trace.set_tracer(previous)
            # Fully lit: fresh registry recording, tracer installed.
            with metrics.capture():
                previous = trace.set_tracer(trace.Tracer())
                try:
                    lit = execute_spec(
                        spec, artifacts=MemoryArtifactStore())
                finally:
                    trace.set_tracer(previous)
        assert _canonical(dark) == _canonical(lit)

    def test_parallel_records_identical_with_and_without_metrics(self):
        with metrics.capture(enabled=False):
            dark = Runner(store=MemoryStore(),
                          artifacts=MemoryArtifactStore(),
                          parallel=2).run(PLAN)
        with metrics.capture():
            lit = Runner(store=MemoryStore(),
                         artifacts=MemoryArtifactStore(),
                         parallel=2).run(PLAN)
        assert ([_canonical(r) for r in dark]
                == [_canonical(r) for r in lit])


class TestCliObservability:
    def test_traced_run_is_loadable_and_covers_the_wall(self, tmp_path,
                                                        capsys):
        trace_path = tmp_path / "out.json"
        metrics_path = tmp_path / "metrics.json"
        rc = main([
            "run", "gsmdec", "-v", "mdc/prefclus", "--scale", "0.05",
            "--cache-dir", str(tmp_path / "cache"),
            "--trace", str(trace_path), "--metrics", str(metrics_path),
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "trace:" in err and "metrics snapshot" in err

        # Perfetto-loadable: valid chrome trace-event JSON.
        doc = json.loads(trace_path.read_text())
        assert doc["traceEvents"]

        events = trace.load_events(str(trace_path))
        roots = [e for e in events if e["name"] == "repro.run"]
        assert len(roots) == 1
        spec_spans = [e for e in events if e["cat"] == "spec"]
        covered = sum(e["dur_us"] for e in spec_spans)
        # The cold spec execution dominates the command; everything
        # else (arg parsing, table rendering, store writes) is noise.
        assert covered <= roots[0]["dur_us"] * 1.02
        assert covered >= roots[0]["dur_us"] * 0.5

        snapshot = metrics.load_snapshot(str(metrics_path))
        assert sum(v for _, v in
                   snapshot.counter_items("stages.executed")) > 0
        assert snapshot.counter("sim.runs", engine="events") > 0

    def test_progress_is_plain_lines_off_a_tty(self, tmp_path, capsys):
        # pytest's captured stderr is not a tty, so the plain-line
        # printer is active: newline-terminated lines, no \r rewriting.
        rc = main([
            "run", "gsmdec", "-v", "mdc/prefclus", "-v", "mdc/mincoms",
            "--scale", "0.05", "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "\r" not in err
        assert "[2/2]" in err

    @pytest.mark.parametrize("suffix,kind", [
        ("json", "trace"), ("jsonl", "trace"),
    ])
    def test_obs_trace_summarizes_both_formats(self, tmp_path, capsys,
                                               suffix, kind):
        path = tmp_path / f"t.{suffix}"
        main(["run", "gsmdec", "-v", "mdc/prefclus", "--scale", "0.05",
              "--cache-dir", str(tmp_path / "cache"),
              "--trace", str(path)])
        capsys.readouterr()
        assert main(["obs", kind, str(path)]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out and "by category:" in out

    def test_obs_metrics_renders_a_snapshot(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        main(["run", "gsmdec", "-v", "mdc/prefclus", "--scale", "0.05",
              "--cache-dir", str(tmp_path / "cache"),
              "--metrics", str(path)])
        capsys.readouterr()
        assert main(["obs", "metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "stages.executed" in out
        assert "sim.runs{engine=events}" in out
