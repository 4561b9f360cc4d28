"""The pluggable memory-model layer (:mod:`repro.sim.models`).

Covers the registry, per-model simulation behaviour, the per-kind
bus-traffic breakdown, and how model identity is woven through specs,
records, plans, the sweep harness, the bench grids and the CLI.  Every
model's default path is checked against the per-cycle reference in
``tests/test_sim_fastpath.py``.
"""

import pytest

from repro.alias import MemRef
from repro.arch import BASELINE_CONFIG
from repro.arch.config import parse_config_name
from repro.errors import ConfigError, WorkloadError
from repro.ir import DdgBuilder
from repro.scenarios import FAMILIES, ScenarioParams, build_scenario_ddg
from repro.scenarios.machines import machine_grid
from repro.sched import CoherenceMode, Heuristic, compile_loop
from repro.sim import simulate
from repro.sim.models import (
    DEFAULT_MODEL,
    MODELS,
    model_names,
    named_model,
)
from repro.sim.models.directory import directory_home, directory_owner
from repro.sim.models.dls import dls_home
from repro.workloads import trace_factory
from repro.workloads.traces import address_table


def small_loop():
    """A two-access loop striding across blocks, so every model routes
    some traffic off-cluster."""
    b = DdgBuilder("models-probe")
    b.load("x", mem=MemRef("A", stride=16), name="ld")
    b.store("x", mem=MemRef("B", stride=16, ambiguous=True), name="st")
    return b.build()


def compiled(ddg, **kwargs):
    defaults = dict(
        coherence=CoherenceMode.MDC,
        heuristic=Heuristic.PREFCLUS,
        trace_factory=trace_factory(64, seed=1),
        unroll_factor=1,
    )
    defaults.update(kwargs)
    return compile_loop(ddg, BASELINE_CONFIG, **defaults)


def run(model, iterations=48):
    result = compiled(small_loop())
    trace = trace_factory(64, seed=2)(result.ddg)
    return simulate(result, trace, iterations=iterations, model=model)


# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_models_registered(self):
        assert model_names() == ("directory", "dls", "snooping")
        assert DEFAULT_MODEL == "snooping"

    def test_unknown_model_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown memory model"):
            named_model("mesi")

    def test_descriptions_are_nonempty(self):
        for name in model_names():
            assert MODELS[name].description

    def test_default_model_is_explicit_snooping(self):
        ddg_result = compiled(small_loop())
        trace = trace_factory(64, seed=2)(ddg_result.ddg)
        implicit = simulate(ddg_result, trace, iterations=48)
        explicit = simulate(ddg_result, trace, iterations=48,
                            model="snooping")
        assert implicit.stats.to_dict() == explicit.stats.to_dict()


class TestModelBehaviour:
    @pytest.mark.parametrize("model", model_names())
    def test_kind_breakdown_sums_to_scalar(self, model):
        sim = run(model)
        kinds = sim.stats.bus_transfer_kinds
        assert sum(kinds.values()) == sim.stats.bus_transfers

    def test_models_route_differently(self):
        """The three models are genuinely different machines: their bus
        traffic differs on a block-striding loop."""
        transfers = {m: run(m).stats.bus_transfers for m in model_names()}
        assert len(set(transfers.values())) > 1

    def test_directory_emits_forward_traffic(self):
        kinds = run("directory").stats.bus_transfer_kinds
        assert kinds.get("fwd_load", 0) + kinds.get("fwd_store", 0) > 0

    def test_single_slice_models_reject_attraction(self):
        machine = BASELINE_CONFIG.with_attraction_buffers()
        from repro.sim.memory import MemorySystem
        from repro.sim.stats import SimStats

        for name in ("dls", "directory"):
            with pytest.raises(ConfigError, match="Attraction"):
                MemorySystem(machine, SimStats(), model=name)

    @pytest.mark.parametrize("model", model_names())
    def test_disciplined_runs_are_violation_free(self, model):
        assert run(model).violations.total == 0


# ----------------------------------------------------------------------
#: Cluster counts, block sizes and interleave units all vary.
PLACEMENT_MACHINES = ["baseline"] + machine_grid(
    clusters=(2, 4, 8), mem_buses=((4, 2),),
    caches=((2048, 32, 2), (1024, 16, 1), (4096, 64, 2)),
)


@pytest.fixture(scope="module")
def address_tables():
    """Every memory op's execution addresses, over one scenario of each
    family (affine, indirect and aliasing streams)."""
    tables = []
    for family in FAMILIES:
        ddg = build_scenario_ddg(ScenarioParams(family=family, seed=11))
        trace = trace_factory(96, seed=3)(ddg)
        tables.extend(address_table(trace, op.iid, 96)
                      for op in ddg.memory_instructions())
    return tables


@pytest.mark.parametrize("machine", PLACEMENT_MACHINES)
def test_placement_matches_the_per_address_routes(machine, address_tables):
    """``placement()`` computes a whole table's routes inline; it must
    equal the per-address functions it inlines.  Both simulator engines
    and the protocol model route by ``placement`` itself."""
    config = (BASELINE_CONFIG if machine == "baseline"
              else parse_config_name(machine))
    n = config.num_clusters
    for addrs in address_tables:
        blocks = [addr // config.cache.block_bytes for addr in addrs]
        homes = [dls_home(block, n) for block in blocks]
        assert named_model("dls").placement(config, addrs) == (homes, homes)
        assert named_model("directory").placement(config, addrs) == (
            [directory_home(block, n) for block in blocks],
            [directory_owner(block, n) for block in blocks],
        )
        homes = [config.home_cluster(addr) for addr in addrs]
        assert named_model("snooping").placement(config, addrs) == (
            homes, homes)


# ----------------------------------------------------------------------
class TestSpecIntegration:
    def test_model_suffix_is_an_unknown_machine(self):
        """The model is named by ``model`` alone: a ``-mm<model>``
        machine suffix is part of an unknown machine name."""
        from repro.api.spec import RunSpec

        spec = RunSpec("gsmdec", "mdc/prefclus", machine="baseline-mmdls")
        assert (spec.machine, spec.model) == ("baseline-mmdls", "snooping")
        with pytest.raises(ConfigError, match="unknown configuration"):
            _ = spec.content_hash

    def test_unknown_model_rejected_at_spec_time(self):
        from repro.api.spec import RunSpec

        with pytest.raises(ConfigError, match="unknown memory model"):
            RunSpec("gsmdec", "mdc/prefclus", model="moesi")

    def test_content_hash_separates_models(self):
        from repro.api.spec import RunSpec

        hashes = {
            RunSpec("gsmdec", "mdc/prefclus", model=m).content_hash
            for m in model_names()
        }
        assert len(hashes) == len(model_names())

    def test_plan_grid_models_axis(self):
        from repro.api.spec import Plan

        plan = Plan.grid(benchmarks=["gsmdec"], variants=["mdc/prefclus"],
                         models=("snooping", "dls"))
        assert len(plan) == 2
        assert sorted(spec.model for spec in plan) == ["dls", "snooping"]

    def test_record_serialization_omits_default_model(self):
        from repro.api.records import RunRecord

        default = RunRecord("gsmdec", "mdc/prefclus")
        assert "model" not in default.to_dict()
        assert RunRecord.from_dict(default.to_dict()).model == "snooping"
        dls = RunRecord("gsmdec", "mdc/prefclus", model="dls")
        assert dls.to_dict()["model"] == "dls"
        assert RunRecord.from_dict(dls.to_dict()).model == "dls"


# ----------------------------------------------------------------------
class TestSweepIntegration:
    def _record(self, name, variant, violations, model):
        from repro.api.records import LoopRecord, RunRecord
        from repro.sim.stats import SimStats

        loop = LoopRecord(
            benchmark=name, loop="main", variant=variant, ii=4, unroll=1,
            kernel_iterations=8, compute_cycles=32, stall_cycles=0,
            stats=SimStats(), violations=violations, static_copies=0,
            replicated_instances=0, fake_consumers=0,
        )
        return RunRecord(name, variant, scale=0.1, model=model,
                         loops=[loop])

    def test_summaries_group_by_model(self):
        from repro.scenarios.generator import sample_scenarios
        from repro.scenarios.sweep import SUMMARY_COLUMNS, summarize

        name = sample_scenarios(0, 1)[0].name
        records = [
            self._record(name, "mdc/prefclus", 0, model)
            for model in ("snooping", "dls")
        ]
        result = summarize(records)
        assert SUMMARY_COLUMNS == (
            "family", "variant", "runs", "mean_ii", "mean_ipc",
            "mean_local_hit", "mean_bus_per_iter", "violations", "model",
        )
        assert sorted(s.model for s in result.summaries) == [
            "dls", "snooping",
        ]

    def test_anomaly_echoes_non_default_model(self):
        from repro.scenarios.generator import sample_scenarios
        from repro.scenarios.sweep import summarize

        name = sample_scenarios(0, 1)[0].name
        result = summarize([
            self._record(name, "mdc/prefclus", 3, "directory"),
        ])
        assert len(result.anomalies) == 1
        assert result.anomalies[0].endswith("--model directory")

    def test_default_model_anomaly_is_unchanged(self):
        from repro.scenarios.generator import sample_scenarios
        from repro.scenarios.sweep import summarize

        name = sample_scenarios(0, 1)[0].name
        result = summarize([
            self._record(name, "mdc/prefclus", 3, "snooping"),
        ])
        assert result.anomalies[0].endswith("--scale 0.1")


# ----------------------------------------------------------------------
class TestBenchIntegration:
    def _config(self, model):
        return {
            "name": "t", "repeat": 1,
            "series": [{
                "key": "k", "benchmarks": ["gsmdec"],
                "variants": ["mdc/prefclus"], "machines": ["baseline"],
                "scale": 0.05, "model": model,
            }],
        }

    def test_series_model_reaches_plan(self):
        from repro.bench.grid import GridConfig

        config = GridConfig.from_dict(self._config("dls"))
        (spec,) = list(config.series[0].plan())
        assert spec.model == "dls"

    def test_unknown_series_model_rejected(self):
        from repro.bench.grid import GridConfig

        with pytest.raises(WorkloadError, match="unknown memory model"):
            GridConfig.from_dict(self._config("mesi"))

    def test_default_grid_has_model_series(self):
        from repro.bench.grid import GridConfig

        config = GridConfig.load("benchmarks/grids/default.json")
        models = {series.model for series in config.series}
        assert {"snooping", "dls", "directory"} <= models


# ----------------------------------------------------------------------
class TestCli:
    def test_list_enumerates_models(self, capsys):
        from repro.api.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "memory models" in out
        for name in model_names():
            assert name in out

    def test_run_accepts_model_flag(self, capsys):
        from repro.api.cli import main

        code = main([
            "run", "gsmdec", "-v", "mdc/prefclus", "--scale", "0.02",
            "--no-cache", "--model", "dls",
        ])
        assert code == 0
        assert "gsmdec" in capsys.readouterr().out
