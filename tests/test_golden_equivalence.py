"""Staged pipeline == monolithic pipeline, byte for byte.

The fixtures under ``tests/goldens/`` were captured from the monolithic
``compile_loop`` path immediately before the staged-pipeline refactor
(see ``tests/goldens/capture.py``).  These tests replay the full
coherence × heuristic cross through the staged, artifact-cached path —
cold, warm-in-memory, and warm-on-disk — and require the resulting
``RunRecord`` JSON to be identical to the goldens.  The catalog cross
under the ``dls`` and ``directory`` memory models is pinned the same
way (``model_goldens.json``).
"""

import importlib.util
import json
import warnings
from pathlib import Path

import pytest

from repro.api.artifacts import (
    ArtifactStore,
    DiskArtifactStore,
    MemoryArtifactStore,
)
from repro.api.core import execute_spec
from repro.api.spec import ALL_VARIANTS, RunSpec

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


def _load_capture():
    spec = importlib.util.spec_from_file_location(
        "golden_capture", GOLDEN_DIR / "capture.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cap = _load_capture()
CATALOG_GOLDENS = json.loads((GOLDEN_DIR / "catalog_goldens.json").read_text())
SCENARIO_GOLDENS = json.loads(
    (GOLDEN_DIR / "scenario_goldens.json").read_text()
)
MODEL_GOLDENS = json.loads((GOLDEN_DIR / "model_goldens.json").read_text())
VARIANT_KEYS = [v.key for v in ALL_VARIANTS]


def _execute(benchmark: str, variant: str, artifacts,
             model: str = "snooping") -> dict:
    spec = RunSpec(benchmark=benchmark, variant=variant,
                   scale=cap.GOLDEN_SCALE, model=model)
    with warnings.catch_warnings():
        # Tiny scaled scenario runs intentionally hit the kernel-
        # iteration floor; the one-time warning is not under test here.
        warnings.simplefilter("ignore", RuntimeWarning)
        return execute_spec(spec, artifacts=artifacts).to_dict()


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def shared_artifacts():
    """One store across the whole module: most variants run warm, which
    is exactly the production sweep behaviour under test."""
    return MemoryArtifactStore()


class TestCatalogCross:
    @pytest.mark.parametrize("bench_name", cap.CATALOG_BENCHMARKS)
    @pytest.mark.parametrize("variant", VARIANT_KEYS)
    def test_byte_identical_to_monolithic_golden(
        self, bench_name, variant, shared_artifacts
    ):
        got = _execute(bench_name, variant, shared_artifacts)
        want = CATALOG_GOLDENS[cap.golden_key(bench_name, variant)]
        assert _canonical(got) == _canonical(want)


class TestModelCross:
    @pytest.mark.parametrize("model", cap.MODELS)
    @pytest.mark.parametrize("bench_name", cap.CATALOG_BENCHMARKS)
    @pytest.mark.parametrize("variant", VARIANT_KEYS)
    def test_byte_identical_to_model_golden(
        self, bench_name, variant, model, shared_artifacts
    ):
        got = _execute(bench_name, variant, shared_artifacts, model)
        want = MODEL_GOLDENS[cap.golden_key(bench_name, variant, model)]
        assert _canonical(got) == _canonical(want)

    def test_goldens_cover_the_cross(self):
        assert len(MODEL_GOLDENS) == (
            len(cap.MODELS) * len(cap.CATALOG_BENCHMARKS) * len(VARIANT_KEYS)
        )


class TestScenarioCross:
    def test_full_cross_cold_then_warm_disk(self, tmp_path):
        """All 20 scenarios × 6 variants, twice: a cold disk artifact
        store, then a fresh store instance replaying the same files (the
        second-process case).  Every record must match its golden."""
        names = cap.scenario_names()
        assert len(names) * len(VARIANT_KEYS) == len(SCENARIO_GOLDENS)
        for _pass in ("cold", "warm"):
            artifacts = DiskArtifactStore(tmp_path / "artifacts")
            for name in names:
                for variant in VARIANT_KEYS:
                    got = _execute(name, variant, artifacts)
                    want = SCENARIO_GOLDENS[cap.golden_key(name, variant)]
                    assert _canonical(got) == _canonical(want), (
                        f"{_pass}: {name} {variant}"
                    )

    def test_never_hitting_store_matches_goldens_too(self):
        """A store that forgets everything (every stage recomputes, every
        spec cold) must still produce golden-identical records."""

        class _NullArtifacts(ArtifactStore):
            def _get(self, key):
                return None

            def _put(self, key, text):
                pass

        name = cap.scenario_names()[0]
        for variant in VARIANT_KEYS:
            got = _execute(name, variant, _NullArtifacts())
            want = SCENARIO_GOLDENS[cap.golden_key(name, variant)]
            assert _canonical(got) == _canonical(want)
