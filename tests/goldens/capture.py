"""Golden-record capture for the staged-pipeline equivalence tests.

Runs the full coherence x heuristic cross (all six variants) for a small
set of catalog benchmarks and generated scenarios through
:func:`repro.api.core.execute_spec` and snapshots every
:class:`~repro.api.records.RunRecord` as canonical JSON.  The goldens
were captured from the *monolithic* ``compile_loop`` path immediately
before the staged-pipeline refactor; ``tests/test_golden_equivalence.py``
asserts the staged, artifact-cached path reproduces them byte-for-byte.
``model_goldens.json`` pins the catalog cross under the ``dls`` and
``directory`` memory models; it was captured immediately before the
flat stepper was rewritten as one cycle loop.

Regenerate (only when a deliberate behavior change invalidates them)::

    PYTHONPATH=src python tests/goldens/capture.py
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
GOLDEN_SCALE = 0.1
#: Three catalog benchmarks spanning the kernel shapes: a long rotating
#: chain (gsmdec), table lookups + streams (g721dec), several small
#: in-place filter chains (rasta).
CATALOG_BENCHMARKS = ("gsmdec", "g721dec", "rasta")
SCENARIO_SEED = 0
SCENARIO_COUNT = 20
#: The non-default memory models, pinned over the catalog cross (the
#: other two golden files run the default ``snooping`` model).
MODELS = ("dls", "directory")


def golden_key(benchmark: str, variant: str, model: str = "snooping") -> str:
    key = f"{benchmark}|{variant}"
    return key if model == "snooping" else f"{key}|{model}"


def scenario_names():
    from repro.scenarios.generator import sample_scenarios

    return [p.name for p in sample_scenarios(SCENARIO_SEED, SCENARIO_COUNT)]


def capture(benchmarks, model: str = "snooping") -> dict:
    from repro.api.core import execute_spec
    from repro.api.spec import ALL_VARIANTS, RunSpec

    goldens = {}
    for bench in benchmarks:
        for variant in ALL_VARIANTS:
            spec = RunSpec(benchmark=bench, variant=variant.key,
                           scale=GOLDEN_SCALE, model=model)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                record = execute_spec(spec)
            goldens[golden_key(bench, variant.key, model)] = record.to_dict()
    return goldens


def write(goldens: dict, name: str) -> Path:
    path = GOLDEN_DIR / name
    with open(path, "w") as handle:
        json.dump(goldens, handle, sort_keys=True, indent=1)
        handle.write("\n")
    return path


def main() -> None:
    catalog = capture(CATALOG_BENCHMARKS)
    path = write(catalog, "catalog_goldens.json")
    print(f"{path}: {len(catalog)} records")
    scenarios = capture(scenario_names())
    path = write(scenarios, "scenario_goldens.json")
    print(f"{path}: {len(scenarios)} records")
    models = {}
    for model in MODELS:
        models.update(capture(CATALOG_BENCHMARKS, model))
    path = write(models, "model_goldens.json")
    print(f"{path}: {len(models)} records")


if __name__ == "__main__":
    main()
