"""The learned cost model: pure-python boosted stumps per target.

One :class:`SurrogateModel` predicts the three quantities the sweep
frontier cares about — ``ipc`` (issued ops per cycle), ``ii`` (mean
initiation interval) and ``traffic`` (bus transfers per kernel
iteration) — from the :mod:`repro.surrogate.features` vector of a cell.
Everything is standard-library python.  Each target gets an ensemble of
gradient-boosted depth-1 regression stumps fit on raw features: the
sweep targets respond nonlinearly to the generator knobs (II saturates
with recurrence, traffic explodes with alias density under mincoms),
which a linear model cannot rank.

The model carries its **training rows** (feature vector + targets +
cell key) in the artifact, which is what makes the active-learning loop
exact: :meth:`SurrogateModel.refit_with` appends freshly *measured*
rows (deduplicated by cell key, new measurements win) and re-solves,
so a guided sweep continuously sharpens the model with ground truth it
just paid for.

Serialization is canonical JSON (sorted keys, no whitespace drift):
``loads(dumps(model))`` round-trips byte-identically, which the store
layer relies on for content-hashed artifact names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, WorkloadError
from repro.hashing import digest
from repro.surrogate.features import feature_schema_hash

#: The quantities a surrogate predicts, in canonical order.
TARGETS: Tuple[str, ...] = ("ipc", "ii", "traffic")

#: Boosting hyperparameters.
BOOST_ROUNDS = 200
LEARN_RATE = 0.15

#: Model artifact format version.  Older artifacts refuse to load and
#: must be retrained.
MODEL_SCHEMA = 2


@dataclass(frozen=True)
class TrainRow:
    """One training example: a cell, its features, its measured targets."""

    key: str
    features: Tuple[float, ...]
    targets: Dict[str, float]

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "features": list(self.features),
            "targets": {t: self.targets[t] for t in sorted(self.targets)},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TrainRow":
        return cls(
            key=str(data["key"]),
            features=tuple(float(v) for v in data["features"]),
            targets={str(k): float(v)
                     for k, v in dict(data["targets"]).items()},
        )


# ----------------------------------------------------------------------
# Boosted stumps
# ----------------------------------------------------------------------
def fit_boosted_stumps(
    x_rows: Sequence[Sequence[float]],
    y: Sequence[float],
) -> Dict[str, object]:
    """Gradient-boosted depth-1 regression trees on *raw* features.

    Each round greedily picks the (feature, threshold) split of the
    current residuals with the largest SSE reduction and adds the
    shrunken leaf means to the ensemble.  Fully deterministic: features
    are scanned in index order, thresholds are midpoints of consecutive
    distinct sorted values, and ties keep the first-found split.
    Returns ``{"base": float, "stumps": [[feature, threshold, left,
    right], ...]}`` with the learning rate pre-multiplied into the
    leaves.
    """
    n = len(y)
    n_features = len(x_rows[0])
    base = sum(y) / n
    preds = [base] * n
    # Per-feature sort orders are reused every round.
    orders = [
        sorted(range(n), key=lambda i: x_rows[i][f])
        for f in range(n_features)
    ]
    stumps: List[List[float]] = []
    for _ in range(BOOST_ROUNDS):
        resid = [y[i] - preds[i] for i in range(n)]
        total = sum(resid)
        best_gain = 1e-12
        best = None
        for f in range(n_features):
            order = orders[f]
            prefix = 0.0
            for pos in range(n - 1):
                i = order[pos]
                prefix += resid[i]
                left_v = x_rows[i][f]
                right_v = x_rows[order[pos + 1]][f]
                if left_v == right_v:
                    continue
                cnt = pos + 1
                # SSE reduction of (left mean, right mean) vs zero.
                gain = (prefix * prefix / cnt
                        + (total - prefix) ** 2 / (n - cnt))
                if gain > best_gain:
                    best_gain = gain
                    best = (f, (left_v + right_v) / 2.0,
                            prefix / cnt, (total - prefix) / (n - cnt))
        if best is None:
            break  # residuals are flat (or all features constant)
        f, threshold, left, right = best
        left *= LEARN_RATE
        right *= LEARN_RATE
        stumps.append([float(f), threshold, left, right])
        for i in range(n):
            preds[i] += left if x_rows[i][f] <= threshold else right
    return {"base": base, "stumps": stumps}


def predict_boosted(booster: Dict[str, object],
                    vector: Sequence[float]) -> float:
    value = float(booster["base"])
    for feature, threshold, left, right in booster["stumps"]:
        value += left if vector[int(feature)] <= threshold else right
    return value


# ----------------------------------------------------------------------
# Error metrics
# ----------------------------------------------------------------------
def mean_absolute_error(predicted: Sequence[float],
                        actual: Sequence[float]) -> float:
    if not actual:
        return 0.0
    return sum(abs(p - a) for p, a in zip(predicted, actual)) / len(actual)


def _ranks(values: Sequence[float]) -> List[float]:
    """Average ranks (1-based, ties share the mean rank)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    pos = 0
    while pos < len(order):
        end = pos
        while (end + 1 < len(order)
               and values[order[end + 1]] == values[order[pos]]):
            end += 1
        mean_rank = (pos + end) / 2.0 + 1.0
        for k in range(pos, end + 1):
            ranks[order[k]] = mean_rank
        pos = end + 1
    return ranks


def rank_correlation(predicted: Sequence[float],
                     actual: Sequence[float]) -> float:
    """Spearman rank correlation (ties averaged); 0.0 on degenerate input.

    This is the metric that matters for frontier guidance: the guided
    sweep only needs the surrogate to *order* cells correctly, not to
    predict absolute values.
    """
    if len(predicted) < 2:
        return 0.0
    pr = _ranks(predicted)
    ar = _ranks(actual)
    n = len(pr)
    mean = (n + 1) / 2.0
    cov = sum((p - mean) * (a - mean) for p, a in zip(pr, ar))
    var_p = sum((p - mean) ** 2 for p in pr)
    var_a = sum((a - mean) ** 2 for a in ar)
    if var_p <= 0.0 or var_a <= 0.0:
        return 0.0
    return cov / (var_p * var_a) ** 0.5


# ----------------------------------------------------------------------
# The model
# ----------------------------------------------------------------------
@dataclass
class SurrogateModel:
    """A trained (features → ipc/ii/traffic) predictor with provenance.

    ``metrics`` holds the held-out evaluation computed at train time
    (``{"ipc": {"mae": …, "rank_corr": …, "holdout": n}, …}``); the
    training rows ride along for exact active-learning refits.
    """

    version: str
    schema_hash: str
    feature_names: Tuple[str, ...]
    train_size: int
    metrics: Dict[str, Dict[str, float]]
    #: Per-target boosted-stump ensembles (see :func:`fit_boosted_stumps`).
    boosters: Dict[str, Dict[str, object]]
    rows: List[TrainRow] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def model_id(self) -> str:
        """Content hash of the full artifact payload — the artifact's
        file name, so identical trainings collide into one file."""
        return digest(self.to_dict())

    def predict(self, vector: Sequence[float]) -> Dict[str, float]:
        """Predicted ``{target: value}`` for one feature vector."""
        if len(vector) != len(self.feature_names):
            raise WorkloadError(
                f"feature vector has {len(vector)} slots, model expects "
                f"{len(self.feature_names)}"
            )
        return {
            target: predict_boosted(booster, vector)
            for target, booster in self.boosters.items()
        }

    def predict_many(
        self, vectors: Sequence[Sequence[float]]
    ) -> List[Dict[str, float]]:
        return [self.predict(vector) for vector in vectors]

    def check_schema(self) -> None:
        """Refuse to score vectors produced by a different feature schema."""
        current = feature_schema_hash()
        if self.schema_hash != current:
            raise ConfigError(
                f"surrogate model was trained with feature schema "
                f"{self.schema_hash}, this build produces {current}; "
                f"retrain with 'repro surrogate train'"
            )

    def refit_with(self, new_rows: Sequence[TrainRow]) -> "SurrogateModel":
        """The active-learning step: merge freshly measured rows into the
        training set (new measurements replace stale rows for the same
        cell) and retrain from scratch.  Returns the new model; ``self``
        is untouched."""
        from repro.surrogate.train import train_from_rows

        merged: Dict[str, TrainRow] = {row.key: row for row in self.rows}
        for row in new_rows:
            merged[row.key] = row
        return train_from_rows(
            sorted(merged.values(), key=lambda row: row.key)
        )

    # ------------------------------------------------------------------
    # Serialization (canonical: load → dump is byte-identical)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": MODEL_SCHEMA,
            "version": self.version,
            "schema_hash": self.schema_hash,
            "feature_names": list(self.feature_names),
            "boosters": {
                target: {
                    "base": self.boosters[target]["base"],
                    "stumps": [list(s)
                               for s in self.boosters[target]["stumps"]],
                }
                for target in sorted(self.boosters)
            },
            "train_size": self.train_size,
            "metrics": {
                target: {k: self.metrics[target][k]
                         for k in sorted(self.metrics[target])}
                for target in sorted(self.metrics)
            },
            "rows": [row.to_dict() for row in self.rows],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SurrogateModel":
        if int(data.get("schema", 0)) != MODEL_SCHEMA:
            raise ConfigError(
                f"unsupported surrogate model schema "
                f"{data.get('schema')!r}; this build reads {MODEL_SCHEMA} "
                f"— retrain with 'repro surrogate train'"
            )
        return cls(
            version=str(data["version"]),
            schema_hash=str(data["schema_hash"]),
            feature_names=tuple(str(n) for n in data["feature_names"]),
            train_size=int(data["train_size"]),
            metrics={
                str(t): {str(k): float(v) for k, v in dict(m).items()}
                for t, m in dict(data["metrics"]).items()
            },
            boosters={
                str(t): {
                    "base": float(b["base"]),
                    "stumps": [
                        [float(v) for v in stump] for stump in b["stumps"]
                    ],
                }
                for t, b in dict(data["boosters"]).items()
            },
            rows=[TrainRow.from_dict(d) for d in data.get("rows", [])],
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SurrogateModel":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    def summary(self) -> str:
        lines = [
            f"surrogate model {self.model_id}",
            f"  package version : {self.version}",
            f"  feature schema  : {self.schema_hash} "
            f"({len(self.feature_names)} features)",
            f"  training rows   : {self.train_size} "
            f"({BOOST_ROUNDS} boosting rounds @ lr {LEARN_RATE:g})",
        ]
        for target in sorted(self.metrics):
            m = self.metrics[target]
            lines.append(
                f"  {target:8s}: held-out MAE {m.get('mae', 0.0):.4f}, "
                f"rank corr {m.get('rank_corr', 0.0):+.3f} "
                f"({int(m.get('holdout', 0))} held-out rows)"
            )
        return "\n".join(lines)


#: Short per-model listing line used by ``repro list``.
def describe_model(model: SurrogateModel) -> str:
    worst_corr = min(
        (m.get("rank_corr", 0.0) for m in model.metrics.values()),
        default=0.0,
    )
    return (
        f"{model.model_id}  v{model.version}  "
        f"schema {model.schema_hash}  rows {model.train_size}  "
        f"worst rank-corr {worst_corr:+.3f}"
    )
