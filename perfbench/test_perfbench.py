"""The benchmark's own checks.

    python3 -m pytest perfbench -q

They run the real program on the smallest windows the workloads allow
(a few seconds each).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

assert run.use_sources()

import workloads  # noqa: E402
from tracer import LayerTracer  # noqa: E402


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_digest_problems_flag_pin_and_round_mismatches():
    assert run.digest_problems("a", "a", ["a", "a"]) == []
    assert run.digest_problems("a", None, ["a"]) == []
    assert len(run.digest_problems("a", "b", ["a"])) == 1
    assert len(run.digest_problems("a", None, ["a", "c"])) == 1


def test_pinned_digest_matches_the_program(capsys):
    code = run.main(["--workload", "store-warm", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    result = _result(capsys.readouterr().out)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0
    assert set(result["metrics"]) >= {"cells_per_s", "setup_s"}


def test_corrupted_pin_is_reported_as_a_failure(tmp_path, capsys):
    pins = json.loads(run.PINS.read_text())
    good = pins["store-warm"]["digests"]["1"]
    pins["store-warm"]["digests"]["1"] = (
        ("0" if good[0] != "0" else "1") + good[1:]
    )
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(pins))
    code = run.main(["--workload", "store-warm", "--seed", "1",
                     "--seconds", "0", "--trace", "1"], pins=path)
    out = capsys.readouterr()
    assert code == 1
    assert _result(out.out)["correct"] is False
    assert "pinned" in out.err


def test_tracing_changes_no_record(tmp_path):
    workload = workloads.make("sweep-cold", tmp_path)
    workload.setup(3)
    workload.units = workload.units[:1]
    plain = workloads.round_digest(workload.round())
    tracer = LayerTracer().install()
    try:
        traced = workloads.round_digest(workload.round())
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.counts["sched.compile"] == 6
    assert tracer.counts["sched.modulo"] >= tracer.counts["sched.schedule"]
    spans = {span.name for span in tracer.spans}
    assert {"api.runner", "api.execute_spec", "sched.schedule",
            "sim.simulate", "api.store_put"} <= spans
    # Spans inside a cell carry the cell's content hash.
    cells = {s.cell for s in tracer.spans if s.name == "sim.simulate"}
    assert len(cells) == 6


def test_uninstall_restores_the_program():
    import repro.api.core as core
    from repro.api import DiskArtifactStore, DiskStore, Plan, Runner

    def snapshot():
        return (core.compile_loop, core.simulate, DiskStore.get,
                Runner.run, vars(Plan)["grid"],
                "get" in vars(DiskArtifactStore))

    before = snapshot()
    LayerTracer().install().uninstall()
    assert snapshot() == before


def test_self_time_excludes_children():
    tracer = LayerTracer()
    inner = tracer.wrap("sched.schedule", lambda: time.sleep(0.02))

    def body():
        inner()
        time.sleep(0.01)

    tracer.wrap("sched.compile", body)()
    own = tracer.self_times()
    assert own["sched.schedule"] >= 0.02
    assert 0.01 <= own["sched.compile"] < 0.02
    total = tracer.spans[0].end - tracer.spans[0].start
    layers = tracer.layer_self(wall=total + 0.5)
    assert abs(layers["sched"] - total) < 1e-9
    assert abs(layers["harness"] - 0.5) < 1e-9


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
