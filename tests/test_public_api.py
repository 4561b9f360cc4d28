"""Every name a package exports through ``__all__`` resolves, and the
retired surrogate-guided sweep, run-journal, opt-in schedule
verification and streaming-runner surfaces stay gone."""

import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.api",
    "repro.sched",
    "repro.experiments",
    "repro.check",
)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ lists unresolvable {missing}"
    assert len(set(module.__all__)) == len(module.__all__), "duplicates"


def test_the_surrogate_package_is_gone():
    with pytest.raises(ImportError):
        importlib.import_module("repro.surrogate")


def test_the_journal_module_is_gone():
    with pytest.raises(ImportError):
        importlib.import_module("repro.api.journal")


@pytest.mark.parametrize("entry", ["Runner.run", "run_sweep"])
def test_execution_entry_points_take_no_journal(entry):
    from repro.api import MemoryStore, Plan, Runner
    from repro.scenarios import run_sweep

    runner = Runner(store=MemoryStore())
    call = {"Runner.run": runner.run, "run_sweep": run_sweep}[entry]
    args = (["scn-stream-n16-m40-r0-a10-s1"] if entry == "run_sweep"
            else Plan())
    with pytest.raises(TypeError, match="journal"):
        call(args, journal=None)


def test_run_is_the_runners_only_execution_path():
    from repro.api import MemoryStore, Plan, Runner

    assert not hasattr(Runner, "stream")
    with pytest.raises(TypeError, match="on_error"):
        Runner(store=MemoryStore()).run(Plan(), on_error="yield")


@pytest.mark.parametrize("package", ["repro", "repro.api"])
@pytest.mark.parametrize("name", ["RunError", "ExecutionError"])
def test_failure_records_are_not_exported(package, name):
    """A failure raises out of ``Runner.run``; no error record or
    wrapper type stands in for it."""
    module = importlib.import_module(package)
    assert name not in module.__all__
    assert not hasattr(module, name)


def test_front_door_imports_load_no_surrogate_module():
    """Nothing the library, the sweep harness or the CLI imports pulls
    in a learned-model module."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = (
        "import sys, repro, repro.scenarios, repro.api, repro.api.cli\n"
        "print(sorted(m for m in sys.modules if 'surrogate' in m))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src),
    ).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("keyword", [
    "surrogate", "budget", "explore_frac", "surrogate_seed",
])
def test_run_sweep_takes_no_guidance_keywords(keyword):
    from repro.scenarios import run_sweep

    with pytest.raises(TypeError, match=keyword):
        run_sweep(["scn-stream-n16-m40-r0-a10-s1"], **{keyword: 1})


def test_summarize_takes_only_the_records():
    from repro.scenarios import summarize

    assert summarize([]).summaries == []
    with pytest.raises(TypeError):
        summarize([], skipped=[])


def test_family_summary_fields_are_the_csv_columns():
    """One field per summary column, in column order: nothing in a row
    records how its numbers were obtained."""
    from dataclasses import fields

    from repro.scenarios.sweep import SUMMARY_COLUMNS, FamilySummary

    assert tuple(f.name for f in fields(FamilySummary)) == SUMMARY_COLUMNS


@pytest.mark.parametrize("name", [
    "skipped_specs", "surrogate", "simulated_runs", "store_runs",
    "skipped_runs",
])
def test_sweep_result_keeps_no_guidance_bookkeeping(name):
    from repro.scenarios.sweep import SweepResult

    assert not hasattr(SweepResult, name)
    assert name not in SweepResult.__dataclass_fields__


def test_compile_loop_takes_no_verify_keyword():
    from repro.arch import BASELINE_CONFIG
    from repro.ir import DdgBuilder
    from repro.sched import compile_loop

    b = DdgBuilder("one-op")
    b.ialu("i", b.carried("i", 1), name="inc")
    with pytest.raises(TypeError, match="verify"):
        compile_loop(b.build(), BASELINE_CONFIG, **{"verify": True})


def test_schedule_has_no_validate():
    from repro.sched import Schedule

    assert not hasattr(Schedule, "validate")


def test_compiling_a_loop_loads_no_check_module():
    """The check stage every compile ends in lives in ``repro.sched``:
    a compile never imports the protocol model checker."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = (
        "import sys\n"
        "from repro.arch import BASELINE_CONFIG\n"
        "from repro.sched import CoherenceMode, compile_loop\n"
        "from repro.workloads import get_benchmark\n"
        "loop = get_benchmark('gsmdec').loops[0]\n"
        "compile_loop(loop.ddg, BASELINE_CONFIG,\n"
        "             coherence=CoherenceMode.DDGT)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[:2] == ['repro', 'check']))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src),
    ).stdout
    assert out.strip() == "[]"
