"""repro.surrogate — learned cost model with differential validation.

A zero-dependency subsystem that predicts IPC, II, and bus traffic for
sweep cells straight from their self-describing names, so huge
scenario × machine × variant × model crosses can be pre-ranked and only
the interesting frontier simulated for real.

The contract, everywhere: **predictions never replace ground truth**.
The surrogate only decides *which* cells get simulated; every reported
number (summaries, anomalies, violations) comes from real simulation,
and skipped cells are reported as skipped.

Modules:

* :mod:`~repro.surrogate.features` — deterministic cell featurizer and
  the feature schema (named slots + content hash);
* :mod:`~repro.surrogate.model` — pure-python gradient-boosted stumps
  with byte-stable JSON artifacts and active-learning ``refit_with``;
* :mod:`~repro.surrogate.train` — training from ``RunRecord``s in any
  store, deterministic held-out MAE / rank-correlation report;
* :mod:`~repro.surrogate.guide` — rank-sum interest scoring and
  budgeted frontier selection with seeded exploration;
* :mod:`~repro.surrogate.store` — content-hashed model artifacts under
  ``<cache-root>/surrogate/``.
"""

from repro.surrogate.features import (
    FEATURE_NAMES,
    SCHEMA_VERSION,
    cell_key,
    describe_features,
    feature_schema_hash,
    featurize,
    featurize_spec,
)
from repro.surrogate.guide import (
    FrontierSelection,
    interest_scores,
    select_frontier,
    top_fraction_keys,
)
from repro.surrogate.model import (
    TARGETS,
    SurrogateModel,
    TrainRow,
    describe_model,
    mean_absolute_error,
    rank_correlation,
)
from repro.surrogate.store import (
    SURROGATE_DIR,
    clear_models,
    latest_model_id,
    list_model_ids,
    load_model,
    load_models,
    model_path,
    save_model,
    surrogate_root,
)
from repro.surrogate.train import (
    DEFAULT_HOLDOUT_FRAC,
    record_targets,
    record_to_row,
    rows_from_records,
    rows_from_store,
    train_from_records,
    train_from_rows,
    train_from_store,
)

__all__ = [
    "FEATURE_NAMES",
    "SCHEMA_VERSION",
    "cell_key",
    "describe_features",
    "feature_schema_hash",
    "featurize",
    "featurize_spec",
    "FrontierSelection",
    "interest_scores",
    "select_frontier",
    "top_fraction_keys",
    "TARGETS",
    "SurrogateModel",
    "TrainRow",
    "describe_model",
    "mean_absolute_error",
    "rank_correlation",
    "SURROGATE_DIR",
    "clear_models",
    "latest_model_id",
    "list_model_ids",
    "load_model",
    "load_models",
    "model_path",
    "save_model",
    "surrogate_root",
    "DEFAULT_HOLDOUT_FRAC",
    "record_targets",
    "record_to_row",
    "rows_from_records",
    "rows_from_store",
    "train_from_records",
    "train_from_rows",
    "train_from_store",
]
