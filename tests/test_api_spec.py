"""RunSpec/Plan: validation, hashing, grid construction."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import spec as spec_module
from repro.api.spec import (
    ALL_VARIANTS,
    FIGURE7_BARS,
    MDC_PREF,
    PROFILE_ITERATIONS,
    Plan,
    RunSpec,
    Variant,
    default_scale,
    parse_variant,
)
from repro.arch.config import BASELINE_CONFIG, NOBAL_REG_CONFIG, named_config
from repro.errors import ConfigError
from repro.hashing import digest
from repro.scenarios import sample_machines, sample_scenarios
from repro.sched import CoherenceMode, Heuristic
from repro.sched.stages import frontend_artifact_key
from repro.workloads import get_benchmark, trace_factory
from repro.workloads.catalog import BENCHMARKS

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestDefaultScale:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert default_scale() == 0.5

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        assert default_scale() == 0.25

    @pytest.mark.parametrize("raw", ["banana", "", "0", "-1", "nan", "inf"])
    def test_invalid_values_raise_config_error(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SCALE", raw)
        with pytest.raises(ConfigError) as exc:
            default_scale()
        assert repr(raw) in str(exc.value)


class TestVariantParsing:
    def test_roundtrip(self):
        for variant in ALL_VARIANTS:
            assert parse_variant(variant.key) == variant

    def test_variant_passthrough(self):
        assert parse_variant(MDC_PREF) is MDC_PREF

    def test_bad_shape(self):
        with pytest.raises(ConfigError):
            parse_variant("mdc")

    def test_bad_coherence(self):
        with pytest.raises(ConfigError):
            parse_variant("snoop/prefclus")

    def test_bad_heuristic(self):
        with pytest.raises(ConfigError):
            parse_variant("mdc/roundrobin")


class TestRunSpec:
    def test_scale_resolved_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        spec = RunSpec(benchmark="gsmdec")
        assert spec.scale == 0.25
        # Later env changes do not move an already-built spec.
        monkeypatch.setenv("REPRO_SCALE", "1.0")
        assert spec.scale == 0.25

    def test_invalid_scale(self):
        with pytest.raises(ConfigError):
            RunSpec(benchmark="gsmdec", scale=-0.5)

    def test_invalid_variant(self):
        with pytest.raises(ConfigError):
            RunSpec(benchmark="gsmdec", variant="nope")

    def test_variant_normalized_from_variant_object(self):
        spec = RunSpec(benchmark="gsmdec", variant=MDC_PREF.key, scale=0.1)
        assert spec.variant == "mdc/prefclus"
        assert spec.variant_obj == Variant(CoherenceMode.MDC,
                                           Heuristic.PREFCLUS)

    def test_dict_roundtrip(self):
        spec = RunSpec(benchmark="epicdec", variant="ddgt/mincoms",
                       machine="nobal+reg", attraction=True, scale=0.3,
                       loop=None, seeds=(7, 11))
        again = RunSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.content_hash == spec.content_hash


class TestContentHash:
    def test_differs_by_field(self):
        base = RunSpec(benchmark="gsmdec", scale=0.2)
        assert base.content_hash != RunSpec(
            benchmark="gsmenc", scale=0.2).content_hash
        assert base.content_hash != RunSpec(
            benchmark="gsmdec", scale=0.3).content_hash
        assert base.content_hash != RunSpec(
            benchmark="gsmdec", scale=0.2, attraction=True).content_hash
        assert base.content_hash != RunSpec(
            benchmark="gsmdec", scale=0.2,
            variant="ddgt/prefclus").content_hash

    def test_stable_across_processes(self):
        """The cache key must be identical from a fresh interpreter."""
        spec = RunSpec(benchmark="epicdec", variant="mdc/prefclus",
                       scale=0.2, attraction=True)
        code = (
            "from repro.api.spec import RunSpec;"
            "print(RunSpec(benchmark='epicdec', variant='mdc/prefclus',"
            "scale=0.2, attraction=True).content_hash)"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env=env,
        )
        assert out.stdout.strip() == spec.content_hash

    @pytest.mark.parametrize("spec, key", [
        (RunSpec(benchmark="gsmdec", scale=0.1, model="dls"),
         "82ea0176cf3b7a50"),
        (RunSpec(benchmark="gsmdec", variant="ddgt/mincoms", scale=0.1,
                 attraction=True, loop="gsmdec.l0", seeds=(1, 2),
                 model="directory"),
         "843ef42f3f381a18"),
        (RunSpec(benchmark="scn-gather-n24-m45-r2-a30-s7", scale=0.05,
                 machine="gen-c4-mb4x2-rb4x2-cm2048b32a2-nl10p4"),
         "3174df71a379b5af"),
    ])
    def test_pinned_keys(self, spec, key):
        """Records carry the key as ``spec_key`` and disk stores file
        entries under it, so its payload may never drift: a changed key
        orphans every cached record and breaks record equality.  The
        catalog goldens pin snooping keys; these cover the model, loop,
        seeds and generated-machine fields."""
        assert spec.content_hash == key

    def test_fingerprint_sees_structure_not_name(self):
        """Two configs sharing a name but differing structurally must not
        collide (the old cache keyed on config.name alone)."""
        plain = BASELINE_CONFIG
        with_ab = BASELINE_CONFIG.with_attraction_buffers()
        assert plain.fingerprint() != with_ab.fingerprint()
        renamed = NOBAL_REG_CONFIG
        assert plain.fingerprint() != renamed.fingerprint()


GEN_MACHINE = "gen-c2-mb2x4-rb4x2-cm1024b32a2-nl20p2"
CATALOG_SPEC = RunSpec(benchmark="gsmdec", variant="ddgt/mincoms", scale=0.1,
                       attraction=True, seeds=(3, 4))
SCENARIO_SPEC = RunSpec(benchmark="scn-gather-n24-m45-r2-a30-s7", scale=0.05,
                        machine=GEN_MACHINE)


#: Catalog and scenario names, and named and generated machines: a
#: scenario's interleave factor comes from its name, a catalog
#: benchmark's from the catalog.
KEYED_BENCHMARKS = BENCHMARKS + tuple(p.name for p in sample_scenarios(3, 8))
KEYED_MACHINES = ("baseline", "nobal+mem", "nobal+reg",
                  *sample_machines(5, 6))


@st.composite
def drawn_specs(draw):
    return RunSpec(
        benchmark=draw(st.sampled_from(KEYED_BENCHMARKS)),
        variant=draw(st.sampled_from([v.key for v in ALL_VARIANTS])),
        machine=draw(st.sampled_from(KEYED_MACHINES)),
        attraction=draw(st.booleans()),
        scale=draw(st.sampled_from((1 / 3, 1e-3, 0.05, 0.5, 1.0))
                   | st.floats(1e-6, 8.0)),
        loop=draw(st.none() | st.sampled_from(("gsmdec.l0", "loop"))
                  | st.text(max_size=6)),
        seeds=draw(st.none() | st.tuples(st.integers(0, 2**31 - 1),
                                         st.integers(0, 2**31 - 1))),
        model=draw(st.sampled_from(("snooping", "dls", "directory"))),
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(drawn_specs())
def test_keys_are_the_digest_of_their_payload(spec):
    """Both spec keys hash plain-JSON payloads without the ``jsonable``
    walk; they must equal ``repro.hashing.digest`` of the same dicts."""
    fingerprint = spec.resolved_machine().fingerprint()
    content = {
        "benchmark": spec.benchmark,
        "variant": spec.variant,
        "machine": fingerprint,
        "scale": spec.scale,
        "loop": spec.loop,
        "seeds": spec.seeds,
        "profile_iterations": PROFILE_ITERATIONS,
    }
    if spec.model != "snooping":
        content["model"] = spec.model
    assert spec.content_hash == digest(content)
    assert spec.frontend_key == digest({
        "benchmark": spec.benchmark,
        "machine": fingerprint,
        "loop": spec.loop,
        "seeds": spec.seeds,
        "profile_iterations": PROFILE_ITERATIONS,
    })


class TestPinnedMachineKeys:
    """Literal keys captured before effective machines were memoized
    and their fingerprints kept on the config: every key the memo now
    serves must read exactly as it did when each spec resolved and
    canonicalized its own machine."""

    @pytest.mark.parametrize("name, plain, interleave2, with_ab", [
        ("baseline", "a8efa58ef586ad2b", "60c2454d21127363",
         "f41d82dfe92a1c87"),
        (GEN_MACHINE, "1ec19308cd58a7a0", "d7bf5658f8b91c11",
         "f9ebf12cc50c19fd"),
    ])
    def test_pinned_fingerprints(self, name, plain, interleave2, with_ab):
        config = named_config(name)
        assert config.fingerprint() == plain
        assert config.with_interleave(2).fingerprint() == interleave2
        assert config.with_attraction_buffers().fingerprint() == with_ab

    @pytest.mark.parametrize("spec, frontend, artifact", [
        (CATALOG_SPEC, "7a8d4c31ef050bba", "frontend-761d0ab71791c949"),
        (SCENARIO_SPEC, "f8a05075321b032f", "frontend-dea3a8886e2ef426"),
    ])
    def test_pinned_frontend_keys(self, spec, frontend, artifact):
        """``frontend_key`` groups a plan's misses; the artifact key is
        the one ``compile_loop`` derives for the spec's first loop."""
        assert spec.frontend_key == frontend
        bench = get_benchmark(spec.benchmark)
        loop = bench.loops[0]
        profile_seed = spec.seeds[0] if spec.seeds else bench.profile_seed
        trace_key = trace_factory(PROFILE_ITERATIONS, seed=profile_seed).key
        assert frontend_artifact_key(
            loop.ddg, spec.resolved_machine(), loop.unroll, True, trace_key,
            PROFILE_ITERATIONS,
        ) == artifact


class TestEffectiveMachineMemo:
    def test_equal_triples_share_one_config(self):
        """Machine name, benchmark interleave and Attraction Buffers
        decide the effective machine; nothing else about a spec does."""
        assert (get_benchmark("gsmdec").interleave_bytes
                == get_benchmark("g721enc").interleave_bytes)
        a = RunSpec(benchmark="gsmdec", variant="mdc/prefclus", scale=0.1)
        b = RunSpec(benchmark="g721enc", variant="ddgt/mincoms", scale=0.3,
                    seeds=(5, 6), model="dls")
        assert a.resolved_machine() is b.resolved_machine()
        wider = RunSpec(benchmark="epicdec", scale=0.1)
        with_ab = RunSpec(benchmark="gsmdec", scale=0.1, attraction=True)
        configs = [spec.resolved_machine() for spec in (a, wider, with_ab)]
        assert len({config.fingerprint() for config in configs}) == 3

    def test_cached_fingerprint_is_the_digest(self):
        for spec in (CATALOG_SPEC, SCENARIO_SPEC):
            config = spec.resolved_machine()
            assert config.fingerprint() is config.fingerprint()
            assert config.fingerprint() == digest(config)

    def test_copies_compute_their_own_fingerprint(self):
        """``replace`` builds a new config; it must not inherit the
        digest its source kept."""
        config = SCENARIO_SPEC.resolved_machine()
        config.fingerprint()
        wider = dataclasses.replace(config, num_clusters=4)
        assert wider.fingerprint() == digest(wider)
        assert wider.fingerprint() != config.fingerprint()
        assert config == dataclasses.replace(config)

    def test_scenario_keys_never_build_the_catalog(self):
        """A fresh process keying only scenarios (a warm ``repro
        scenarios report``) reads each scenario's interleave without
        building the 14 catalog benchmarks."""
        code = (
            "from repro.api.spec import RunSpec;"
            "from repro.workloads import catalog;"
            "RunSpec(benchmark='scn-gather-n24-m45-r2-a30-s7',"
            "scale=0.05).content_hash;"
            "print(catalog._CACHE is None)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert out.stdout.strip() == "True"

    def test_scenario_keys_build_no_scenario(self, monkeypatch):
        """A scenario's interleave factor comes from its name: keying
        its specs builds no benchmark (no DDG), and the factor is the
        one the built benchmark carries."""
        from repro.scenarios import generator, sample_scenarios

        names = [p.name for p in sample_scenarios(12, 12)]
        want = {name: get_benchmark(name).interleave_bytes
                for name in names}
        assert set(want.values()) == {2, 4}

        def refuse(name):
            raise AssertionError(f"built {name} to derive a key")

        monkeypatch.setattr(generator, "_benchmark_by_name", refuse)
        for name in names:
            spec = RunSpec(benchmark=name, scale=0.1)
            spec.content_hash
            spec.frontend_key
            assert spec.resolved_machine().interleave_bytes == want[name]

    def test_memo_is_bounded_and_keyed_by_machine_only(self):
        memo = spec_module._effective_machine
        assert memo.cache_info().maxsize == 256
        before = memo.cache_info().currsize
        plan = Plan.grid(benchmarks=("gsmdec", "g721enc", "g721dec"),
                         scale=0.1, attraction=(False, True),
                         seeds=(1, 2))
        for spec in plan:
            spec.content_hash
        # 36 specs, one interleave factor, two AB settings: at most two
        # new entries, however many specs or keys there are.
        assert len(plan) == 36
        assert memo.cache_info().currsize - before <= 2


class TestPlan:
    def test_grid_order_and_size(self):
        plan = Plan.grid(benchmarks=["a1", "b2"],
                         variants=("mdc/prefclus", "ddgt/prefclus"),
                         scale=0.1)
        assert len(plan) == 4
        assert [(s.benchmark, s.variant) for s in plan] == [
            ("a1", "mdc/prefclus"), ("a1", "ddgt/prefclus"),
            ("b2", "mdc/prefclus"), ("b2", "ddgt/prefclus"),
        ]

    def test_grid_defaults_to_evaluated_benchmarks(self):
        plan = Plan.grid(variants="mdc/prefclus", scale=0.1)
        assert len(plan) == 13

    def test_dedup_preserves_order(self):
        spec = RunSpec(benchmark="gsmdec", scale=0.1)
        other = RunSpec(benchmark="gsmenc", scale=0.1)
        plan = Plan((spec, other, spec))
        assert plan.specs == (spec, other)

    def test_concatenation(self):
        a = Plan.grid(benchmarks="gsmdec", variants="mdc/prefclus",
                      scale=0.1)
        b = Plan.grid(benchmarks="gsmenc", variants="mdc/prefclus",
                      scale=0.1)
        combined = a + b
        assert len(combined) == 2
        assert (a + a).specs == a.specs

    def test_grid_figure7_shape(self):
        plan = Plan.grid(benchmarks=["epicdec"], variants=FIGURE7_BARS,
                         scale=0.1)
        assert len(plan) == 4
        assert plan.describe().startswith("plan ")
