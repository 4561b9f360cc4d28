"""The ``repro.scenarios`` subsystem: generator, machine space, sweep
harness and the ``repro scenarios`` CLI verb."""

from __future__ import annotations

import math

import pytest

from repro.api.artifacts import MemoryArtifactStore
from repro.api.cli import main
from repro.api.records import LoopRecord, RunRecord
from repro.api.runner import Runner
from repro.api.spec import RunSpec
from repro.arch.config import (
    BASELINE_CONFIG,
    encode_config_name,
    named_config,
    parse_config_name,
)
from repro.api.store import MemoryStore
from repro.errors import ConfigError, WorkloadError
from repro.scenarios import (
    DEFAULT_MACHINE_SPACE,
    DEFAULT_SCENARIOS,
    DIFFERENTIAL_VARIANTS,
    FAMILIES,
    ScenarioParams,
    ScenarioRng,
    build_scenario_ddg,
    run_sweep,
    machine_grid,
    sample_machines,
    sample_scenarios,
    scenario_benchmark,
    scenario_family,
    summarize,
    sweep_plan,
)
from repro.scenarios.sweep import SUMMARY_COLUMNS
from repro.sim.stats import SimStats
from repro.workloads.catalog import benchmark_names, get_benchmark


class TestScenarioParams:
    def test_name_roundtrip(self):
        params = ScenarioParams("gather", size=36, mem_pct=55,
                                recurrence=3, alias_pct=25, seed=99)
        assert params.name == "scn-gather-n36-m55-r3-a25-s99"
        assert ScenarioParams.parse(params.name) == params

    def test_every_knob_is_validated(self):
        with pytest.raises(WorkloadError):
            ScenarioParams("nosuch")
        with pytest.raises(WorkloadError):
            ScenarioParams("stream", size=2)
        with pytest.raises(WorkloadError):
            ScenarioParams("stream", mem_pct=99)
        with pytest.raises(WorkloadError):
            ScenarioParams("stream", recurrence=7)
        with pytest.raises(WorkloadError):
            ScenarioParams("stream", alias_pct=101)
        with pytest.raises(WorkloadError):
            ScenarioParams.parse("scn-stream-bogus")

    def test_default_scenarios_cover_every_family(self):
        assert len(DEFAULT_SCENARIOS) == len(FAMILIES)
        assert [ScenarioParams.parse(n).family for n in DEFAULT_SCENARIOS] \
            == list(FAMILIES)


class TestScenarioRng:
    def test_streams_are_deterministic_and_seed_sensitive(self):
        a = [ScenarioRng(7).next_u64() for _ in range(5)]
        b = [ScenarioRng(7).next_u64() for _ in range(5)]
        c = [ScenarioRng(8).next_u64() for _ in range(5)]
        assert a == b
        assert a != c

    def test_randint_bounds(self):
        rng = ScenarioRng(0)
        draws = {rng.randint(3, 6) for _ in range(200)}
        assert draws == {3, 4, 5, 6}
        with pytest.raises(WorkloadError):
            rng.randint(4, 3)

    def test_fork_does_not_perturb_parent(self):
        a, b = ScenarioRng(1), ScenarioRng(1)
        a.fork("x")
        b.fork("x")
        assert a.next_u64() == b.next_u64()


class TestGenerator:
    def test_knobs_shape_the_graph(self):
        small = build_scenario_ddg(ScenarioParams("stream", size=12))
        large = build_scenario_ddg(ScenarioParams("stream", size=48))
        assert len(large) > len(small)

        lean = build_scenario_ddg(
            ScenarioParams("stream", size=40, mem_pct=10))
        rich = build_scenario_ddg(
            ScenarioParams("stream", size=40, mem_pct=60))
        assert len(rich.memory_instructions()) > \
            len(lean.memory_instructions())

    def test_seed_changes_structure(self):
        a = build_scenario_ddg(ScenarioParams("alias", seed=1))
        b = build_scenario_ddg(ScenarioParams("alias", seed=2))
        assert a.fingerprint() != b.fingerprint()

    def test_chase_is_a_load_chain(self):
        ddg = build_scenario_ddg(ScenarioParams("chase", size=24,
                                                mem_pct=40, seed=3))
        loads = ddg.loads()
        # Each hop's address register is produced by the previous load.
        chained = sum(
            1 for ld in loads
            if any(src.dest in ld.srcs for src in loads if src is not ld)
        )
        assert chained >= len(loads) - 2

    def test_scenario_benchmark_is_cached_and_consistent(self):
        name = DEFAULT_SCENARIOS[0]
        bench = scenario_benchmark(name)
        assert scenario_benchmark(name) is bench
        assert bench.name == name
        assert not bench.evaluated
        assert bench.loops[0].ddg.fingerprint() == \
            build_scenario_ddg(ScenarioParams.parse(name)).fingerprint()

    def test_scenario_cache_keeps_a_bounded_working_set(self):
        """The benchmarks a process names are cached as a working set
        that covers a perfbench pool (12 scenarios), not for the life of
        the process: an early scenario's DDG is released once enough
        later ones were named."""
        import gc
        import weakref

        from repro.scenarios.generator import _benchmark_by_name

        names = [p.name for p in sample_scenarios(11, 40)]
        first = weakref.ref(scenario_benchmark(names[0]).loops[0].ddg)
        for name in names[1:]:
            scenario_benchmark(name)
        gc.collect()
        assert first() is None
        hits = _benchmark_by_name.cache_info().hits
        for name in names[-12:]:
            scenario_benchmark(name)
        assert _benchmark_by_name.cache_info().hits - hits == 12

    def test_sample_is_deterministic_and_prefix_stable(self):
        first = sample_scenarios(5, 20)
        again = sample_scenarios(5, 20)
        longer = sample_scenarios(5, 40)
        assert first == again
        assert longer[:20] == first
        assert sample_scenarios(6, 20) != first

    def test_sample_respects_family_filter(self):
        only = sample_scenarios(0, 9, families=("chase", "alias"))
        assert {p.family for p in only} == {"chase", "alias"}
        with pytest.raises(WorkloadError):
            sample_scenarios(0, 3, families=("nosuch",))


class TestCatalogIntegration:
    def test_get_benchmark_resolves_scenario_names(self):
        bench = get_benchmark(DEFAULT_SCENARIOS[1])
        assert bench.name == DEFAULT_SCENARIOS[1]

    def test_malformed_scenario_name_is_a_workload_error(self):
        with pytest.raises(WorkloadError):
            get_benchmark("scn-bogus")

    def test_benchmark_names_lists_scenarios_when_asked(self):
        default = benchmark_names()
        everything = benchmark_names(evaluated_only=False)
        assert not any(n.startswith("scn-") for n in default)
        for name in DEFAULT_SCENARIOS:
            assert name in everything

    def test_runspec_content_hash_works_for_scenarios(self):
        spec = RunSpec(benchmark=DEFAULT_SCENARIOS[0], scale=0.1)
        assert spec.content_hash == RunSpec(
            benchmark=DEFAULT_SCENARIOS[0], scale=0.1).content_hash


class TestMachineSpace:
    def test_encode_parse_roundtrip(self):
        name = encode_config_name(BASELINE_CONFIG)
        config = parse_config_name(name)
        assert encode_config_name(config) == name
        assert config.num_clusters == BASELINE_CONFIG.num_clusters
        assert config.cache == BASELINE_CONFIG.cache

    def test_named_config_decodes_generated_names(self):
        config = named_config("gen-c8-mb4x2-rb4x2-cm2048b32a2-nl10p4")
        assert config.num_clusters == 8
        assert config.subblock_bytes == 4

    def test_unencodable_fields_are_refused_not_dropped(self):
        """A config whose unencoded fields differ from the defaults has
        no faithful name — encoding must raise, not silently decode into
        a different machine."""
        from dataclasses import replace

        from repro.arch.config import CacheConfig, FuKind

        beefy = replace(
            BASELINE_CONFIG,
            fu_per_cluster={FuKind.INT: 2, FuKind.FP: 2, FuKind.MEM: 2},
        )
        with pytest.raises(ConfigError, match="fu_per_cluster"):
            encode_config_name(beefy)
        slow_hit = replace(BASELINE_CONFIG, cache=CacheConfig(hit_latency=2))
        with pytest.raises(ConfigError, match="hit_latency"):
            encode_config_name(slow_hit)
        with pytest.raises(ConfigError, match="attraction"):
            encode_config_name(BASELINE_CONFIG.with_attraction_buffers())

    def test_bad_generated_names_raise(self):
        with pytest.raises(ConfigError):
            named_config("gen-bogus")
        with pytest.raises(ConfigError):
            # 16-byte blocks cannot give 8 clusters an interleave unit.
            named_config("gen-c8-mb4x2-rb4x2-cm2048b16a2-nl10p4")
        with pytest.raises(ConfigError):
            named_config("definitely-unknown")

    def test_grid_skips_invalid_geometry(self):
        names = machine_grid(clusters=(8,), caches=((2048, 16, 2),))
        assert names == []

    def test_grid_and_sample_are_deterministic(self):
        assert machine_grid() == machine_grid()
        assert sample_machines(3, 5) == sample_machines(3, 5)
        for name in sample_machines(3, 5):
            named_config(name)  # every sampled name must decode

    def test_default_space_resolves(self):
        for name in DEFAULT_MACHINE_SPACE:
            named_config(name)


def _fake_record(benchmark, variant, violations=0, machine="baseline"):
    stats = SimStats()
    stats.compute_cycles = 80
    stats.stall_cycles = 20
    stats.issued_ops = 300
    stats.bus_transfers = 12
    loop = LoopRecord(
        benchmark=benchmark, loop=f"{benchmark}.loop", variant=variant,
        ii=5, unroll=2, kernel_iterations=50, compute_cycles=80,
        stall_cycles=20, stats=stats, violations=violations,
        static_copies=1, replicated_instances=0, fake_consumers=0,
    )
    return RunRecord(benchmark=benchmark, variant=variant, machine=machine,
                     scale=0.1, loops=[loop])


class TestSweepHarness:
    def test_sweep_plan_is_the_full_grid(self):
        names = list(DEFAULT_SCENARIOS[:2])
        plan = sweep_plan(names, machines=list(DEFAULT_MACHINE_SPACE),
                          scale=0.1)
        assert len(plan) == 2 * len(DEFAULT_MACHINE_SPACE) * \
            len(DIFFERENTIAL_VARIANTS)

    def test_sweep_plan_rejects_non_scenarios(self):
        with pytest.raises(WorkloadError):
            sweep_plan(["gsmdec"])

    def test_scenario_family(self):
        assert scenario_family("scn-chase-n24-m40-r1-a10-s0") == "chase"

    def test_free_violations_are_expected_not_anomalous(self):
        name = "scn-alias-n24-m40-r1-a10-s0"
        result = summarize([
            _fake_record(name, "none/mincoms", violations=9),
            _fake_record(name, "mdc/prefclus", violations=0),
            _fake_record(name, "ddgt/prefclus", violations=0),
        ])
        assert result.ok
        assert sum(result.free_violations.values()) == 9
        assert "differential check passed" in result.render()

    def test_coherent_violations_are_anomalies(self):
        name = "scn-alias-n24-m40-r1-a10-s0"
        result = summarize([
            _fake_record(name, "mdc/prefclus", violations=3),
        ])
        assert not result.ok
        assert "mdc/prefclus" in result.anomalies[0]
        assert "DIFFERENTIAL CHECK FAILED" in result.render()
        # The anomaly names the full (scenario, coherence, heuristic)
        # triple and carries a stable reproduction command.
        assert f"scenario={name}" in result.anomalies[0]
        assert "coherence=mdc" in result.anomalies[0]
        assert "heuristic=prefclus" in result.anomalies[0]
        assert (
            f"repro run {name} -v mdc/prefclus --machine baseline "
            "--scale 0.1" in result.anomalies[0]
        )

    def test_summary_metrics(self):
        name = "scn-stream-n24-m40-r1-a10-s0"
        result = summarize([_fake_record(name, "none/prefclus")])
        (cell,) = result.summaries
        assert cell.family == "stream"
        assert cell.runs == 1
        assert cell.mean_ii == 5.0
        assert cell.mean_ipc == pytest.approx(3.0)
        assert cell.mean_bus_per_iter == pytest.approx(12 / 50)
        header = result.to_csv().splitlines()[0]
        assert header.startswith("family,variant,runs")


class TestSummaryIsAFunctionOfTheRecords:
    NAMES = ("scn-alias-n24-m40-r1-a10-s0", "scn-stream-n24-m40-r1-a10-s0")

    def _records(self):
        records = [
            _fake_record(name, variant,
                         violations=2 if variant.startswith("none/") else 0)
            for name in self.NAMES for variant in DIFFERENTIAL_VARIANTS
        ]
        records.append(_fake_record(self.NAMES[0], "mdc/offgrid"))
        return records

    @pytest.mark.parametrize("tags", ["simulated", "store", "alternating"])
    def test_provenance_never_shows(self, tags):
        """Whether a record was simulated or served from the store
        changes neither the summaries, the table nor the CSV."""
        baseline = summarize(self._records())
        records = self._records()
        for pos, record in enumerate(records):
            record.source = (tags if tags != "alternating"
                             else ("store", "simulated")[pos % 2])
        result = summarize(records)
        assert result.summaries == baseline.summaries
        assert result.render() == baseline.render()
        assert result.to_csv() == baseline.to_csv()

    def test_csv_rows_follow_the_columns(self):
        result = summarize(self._records())
        header, *rows = result.to_csv().splitlines()
        assert header.split(",") == list(SUMMARY_COLUMNS)
        assert len(rows) == len(result.summaries)
        assert all(len(row.split(",")) == len(SUMMARY_COLUMNS)
                   for row in rows)

    def test_off_grid_variants_follow_the_grid(self):
        """Every record lands in exactly one row; a variant outside the
        differential grid gets its own row after the grid's."""
        records = self._records()
        result = summarize(records)
        assert sum(s.runs for s in result.summaries) == len(records)
        last = result.summaries[-1]
        assert (last.family, last.variant, last.runs) == (
            "alias", "mdc/offgrid", 1)
        assert len(result.summaries) == 2 * len(DIFFERENTIAL_VARIANTS) + 1


@pytest.fixture(scope="module")
def cold_and_warm():
    """One small sweep run cold, then again on the same runner."""
    names = [p.name for p in sample_scenarios(29, 4)]
    runner = Runner(store=MemoryStore(), artifacts=MemoryArtifactStore())
    cold = run_sweep(names, scale=0.05, runner=runner)
    warm = run_sweep(names, scale=0.05, runner=runner)
    return cold, warm


class TestSweepEndToEnd:
    def test_every_cell_of_the_plan_is_simulated(self, cold_and_warm):
        cold, _ = cold_and_warm
        assert len(cold.plan) == 4 * len(DIFFERENTIAL_VARIANTS)
        assert [(r.benchmark, r.variant) for r in cold.records] == [
            (s.benchmark, s.variant) for s in cold.plan
        ]
        assert {r.source for r in cold.records} == {"simulated"}

    def test_summaries_account_for_every_record(self, cold_and_warm):
        cold, _ = cold_and_warm
        assert sum(s.runs for s in cold.summaries) == len(cold.records)
        assert {(s.family, s.variant, s.model) for s in cold.summaries} == {
            (scenario_family(r.benchmark), r.variant, r.model)
            for r in cold.records
        }

    def test_metrics_are_finite(self, cold_and_warm):
        cold, _ = cold_and_warm
        for record in cold.records:
            stats = record.merged_stats()
            assert stats.total_cycles > 0 and stats.issued_ops > 0
        for summary in cold.summaries:
            assert summary.mean_ii >= 1
            for value in (summary.mean_ipc, summary.mean_local_hit,
                          summary.mean_bus_per_iter):
                assert math.isfinite(value)

    def test_warm_rerun_is_served_from_the_store(self, cold_and_warm):
        cold, warm = cold_and_warm
        assert {r.source for r in warm.records} == {"store"}
        assert warm.records == cold.records

    def test_warm_rerun_renders_and_writes_identically(self, cold_and_warm):
        cold, warm = cold_and_warm
        assert warm.render() == cold.render()
        assert warm.to_csv() == cold.to_csv()
        assert "surrogate" not in cold.render()


class TestScenariosCli:
    def test_generate_lists_scenarios(self, capsys):
        assert main(["scenarios", "generate", "--seed", "1",
                     "--count", "4"]) == 0
        out = capsys.readouterr().out
        assert "scn-stream-" in out and "fingerprint" in out

    def test_generate_family_filter(self, capsys):
        assert main(["scenarios", "generate", "--count", "3",
                     "--family", "chase"]) == 0
        out = capsys.readouterr().out
        assert "scn-chase-" in out and "scn-stream-" not in out

    def test_sweep_then_report_from_warm_store(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["--seed", "0", "--count", "2", "--scale", "0.1",
                "--cache-dir", cache]
        csv_path = tmp_path / "summary.csv"
        rc = main(["scenarios", "sweep", *args, "--csv", str(csv_path)])
        sweep_out = capsys.readouterr().out
        assert rc == 0
        assert "differential check passed" in sweep_out
        assert csv_path.read_text().startswith("family,variant")

        rc = main(["scenarios", "report", *args])
        report_out = capsys.readouterr().out
        assert rc == 0
        assert "warning" not in report_out
        # The report's summary table matches the sweep's byte for byte.
        assert report_out.splitlines()[1:] == sweep_out.splitlines()[1:]

    def test_summary_csv_depends_only_on_the_records(self, tmp_path,
                                                     capsys):
        """A cold sweep, its warm rerun and a store-only report write
        byte-identical summary CSVs: how each record was obtained
        (simulated or served from the store) never shows."""
        args = ["--seed", "1", "--count", "2", "--scale", "0.05",
                "--cache-dir", str(tmp_path / "cache")]
        csvs = []
        for pos, verb in enumerate(("sweep", "sweep", "report")):
            path = tmp_path / f"summary-{pos}.csv"
            assert main(["scenarios", verb, *args, "--csv", str(path)]) == 0
            csvs.append(path.read_bytes())
        capsys.readouterr()
        assert csvs[0].startswith(b"family,variant,runs")
        assert csvs[0] == csvs[1] == csvs[2]

    def test_report_on_cold_store_is_incomplete_not_passed(self, tmp_path,
                                                           capsys):
        """Absent runs are an unperformed check: nonzero exit, loud text."""
        rc = main(["scenarios", "report", "--seed", "9", "--count", "2",
                   "--scale", "0.1", "--cache-dir", str(tmp_path / "c")])
        assert rc == 1
        assert "DIFFERENTIAL CHECK INCOMPLETE" in capsys.readouterr().out

    def test_bad_family_is_a_clean_error(self, capsys):
        rc = main(["scenarios", "generate", "--count", "2",
                   "--family", "nosuch"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
