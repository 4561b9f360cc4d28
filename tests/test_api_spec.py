"""RunSpec/Plan: validation, hashing, grid construction."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.spec import (
    ALL_VARIANTS,
    FIGURE7_BARS,
    MDC_PREF,
    Plan,
    RunSpec,
    Variant,
    default_scale,
    parse_variant,
)
from repro.arch.config import BASELINE_CONFIG, NOBAL_REG_CONFIG
from repro.errors import ConfigError
from repro.sched import CoherenceMode, Heuristic

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
