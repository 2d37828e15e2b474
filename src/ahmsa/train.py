"""Training loop, per-fold evaluation, and LOSO orchestration.

Every fold trains a freshly initialized model (seed = base seed XOR fold
index) on all other subjects' samples and is scored on the held-out subject.
Fold confusion matrices are pooled before computing UF1/UAR, both overall
and per source database.

Folds are independent, so ``run_loso`` can train several at once in worker
processes through ``workers.forked_map``.  The workers are forked once the
feature maps are loaded, so they inherit the manifest, maps, labels and
configs without pickling; each gets fold indices one at a time, and the
parent merges the results in fold order, so the report is byte-identical to
the sequential run's.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (
    N_CLASSES,
    ConfusionMatrix,
    DatasetManifest,
    loso_splits,
    uar,
    uf1,
)
from .errors import (
    ConfigError,
    TrainingDivergedError,
    ValidationError,
    field_problems,
)
from .model import ModelConfig, ModelParams, forward, init_model
from .tensor import adam_step, cross_entropy, init_adam, no_grad, zero_grads
from .workers import forked_map

logger = logging.getLogger(__name__)

EVAL_BATCH = 64


@dataclass(frozen=True)
class TrainConfig:
    """Optimization knobs; defaults are the full-scale settings."""

    epochs: int = field(default=800, metadata={"rule": ">= 1"})
    learning_rate: float = field(default=5e-6, metadata={"rule": ">= 0"})
    batch_size: int = field(default=256, metadata={"rule": ">= 1"})
    seed: int = field(default=0, metadata={"rule": ">= 0"})
    shuffle: bool = True
    # epochs between loss log lines; 0 disables
    log_every: int = field(default=0, metadata={"rule": ">= 0"})

    def validate(self) -> None:
        problems = field_problems(self)
        if problems:
            raise ConfigError("; ".join(f"train.{p}" for p in problems))


def desk_scale_config(seed: int = 0) -> TrainConfig:
    """Documented small-run override used for the synthetic verification runs."""
    return TrainConfig(epochs=200, batch_size=32, learning_rate=1e-4, seed=seed)


@dataclass
class FoldResult:
    subject: str
    matrix: ConfusionMatrix
    history: list[float]
    predictions: list[tuple[int, int, int]]  # (sample index, true, predicted)
    error: str | None = None


@dataclass
class MetricsReport:
    """Pooled and per-database scores plus per-fold training history."""

    pooled: ConfusionMatrix
    per_database: dict[str, ConfusionMatrix]
    history: dict[str, list[float]]
    failed_folds: dict[str, str] = field(default_factory=dict)

    @property
    def pooled_uf1(self) -> float:
        return uf1(self.pooled)

    @property
    def pooled_uar(self) -> float:
        return uar(self.pooled)

    def to_json_dict(self) -> dict:
        def block(cm: ConfusionMatrix) -> dict:
            return {
                "uf1": uf1(cm),
                "uar": uar(cm),
                "per_class_acc": cm.per_class_accuracy(),
                "confusion": cm.counts.tolist(),
            }

        payload = {
            "pooled": block(self.pooled),
            "per_database": {db: block(cm) for db, cm in self.per_database.items()},
            "history": {f"fold_{subject}": [float(v) for v in losses]
                        for subject, losses in self.history.items()},
        }
        if self.failed_folds:
            payload["failed_folds"] = dict(self.failed_folds)
        return payload


def train_fold(maps: np.ndarray, labels: np.ndarray, model_config: ModelConfig,
               train_config: TrainConfig) -> tuple[ModelParams, list[float]]:
    """Train a fresh model on one fold's training split.

    ``maps`` is an [N, H, W, 3] batch of feature maps aligned with ``labels``.
    Returns the trained parameters and the per-epoch mean loss history.
    """
    train_config.validate()
    maps = np.asarray(maps, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    if n < 1:
        raise ValidationError("training split is empty")
    if maps.shape[0] != n:
        raise ValidationError(
            f"{maps.shape[0]} maps for {n} labels"
        )

    params = init_model(model_config, seed=train_config.seed)
    named = params.named_parameters()
    state = init_adam(named, lr=train_config.learning_rate)
    rng = np.random.default_rng(train_config.seed)
    history: list[float] = []

    for epoch in range(train_config.epochs):
        order = rng.permutation(n) if train_config.shuffle else np.arange(n)
        epoch_loss = 0.0
        for batch_index, start in enumerate(range(0, n, train_config.batch_size)):
            idx = order[start:start + train_config.batch_size]
            logits = forward(maps[idx], params)
            loss = cross_entropy(logits, labels[idx])
            loss_value = float(loss.data)
            if not math.isfinite(loss_value):
                raise TrainingDivergedError(epoch, batch_index, loss_value)
            loss.backward()
            adam_step(named, state)
            zero_grads(named)
            epoch_loss += loss_value * len(idx)
        history.append(epoch_loss / n)
        if train_config.log_every and (epoch + 1) % train_config.log_every == 0:
            logger.info("epoch %d/%d mean loss %.6f",
                        epoch + 1, train_config.epochs, history[-1])
    return params, history


def evaluate(params: ModelParams, maps: np.ndarray, labels: np.ndarray,
             n_classes: int = N_CLASSES) -> tuple[ConfusionMatrix, np.ndarray]:
    """Argmax predictions (ties to the lowest class index) into a confusion matrix.

    Returns the matrix and the per-sample predicted classes; parameters are
    not mutated and no gradient state is recorded.
    """
    maps = np.asarray(maps, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) < 1:
        raise ValidationError("evaluation set is empty")
    if maps.shape[0] != len(labels):
        raise ValidationError(f"{maps.shape[0]} maps for {len(labels)} labels")
    matrix = ConfusionMatrix(n_classes)
    predictions = np.empty(len(labels), dtype=np.int64)
    with no_grad():
        for start in range(0, len(labels), EVAL_BATCH):
            chunk = slice(start, start + EVAL_BATCH)
            logits = forward(maps[chunk], params).data
            predictions[chunk] = np.argmax(logits, axis=1)
    for true, pred in zip(labels, predictions):
        matrix.add(int(true), int(pred))
    return matrix, predictions


def _run_one_fold(fold_index: int, subject: str, train_idx: list[int],
                  test_idx: list[int], manifest: DatasetManifest,
                  maps: np.ndarray, labels: np.ndarray,
                  model_config: ModelConfig,
                  train_config: TrainConfig) -> FoldResult:
    held_out = {manifest.samples[i].subject_id for i in test_idx}
    train_subjects = {manifest.samples[i].subject_id for i in train_idx}
    if held_out & train_subjects:
        raise ValidationError(
            f"subject leakage in fold {subject!r}: "
            f"{sorted(held_out & train_subjects)} present in the training split"
        )
    fold_config = replace(train_config, seed=train_config.seed ^ fold_index)
    try:
        params, history = train_fold(maps[train_idx], labels[train_idx],
                                     model_config, fold_config)
    except TrainingDivergedError as exc:
        logger.error("fold %s aborted: %s", subject, str(exc))
        return FoldResult(subject=subject, matrix=ConfusionMatrix(),
                          history=[], predictions=[], error=str(exc))
    matrix, predictions = evaluate(params, maps[test_idx], labels[test_idx])
    records = [(i, int(labels[i]), int(p))
               for i, p in zip(test_idx, predictions)]
    return FoldResult(subject=subject, matrix=matrix, history=history,
                      predictions=records)


def run_loso(manifest: DatasetManifest, maps: np.ndarray,
             model_config: ModelConfig, train_config: TrainConfig,
             parallel_folds: int = 1) -> MetricsReport:
    """Full leave-one-subject-out protocol over precomputed feature maps.

    ``maps`` must be aligned with ``manifest.samples``.  A diverged fold is
    recorded in the report and the remaining folds still run.  With
    ``parallel_folds > 1`` up to that many folds train at once in forked
    worker processes; a worker that dies or raises raises an ``AhmsaError``
    naming its fold.  A count below 1 is a ``ConfigError``.
    """
    model_config.validate()
    train_config.validate()
    maps = np.asarray(maps, dtype=np.float32)
    if maps.shape[0] != len(manifest):
        raise ValidationError(
            f"{maps.shape[0]} feature maps for {len(manifest)} manifest samples"
        )
    labels = manifest.labels()
    folds = loso_splits(manifest)

    def run_fold(fold_index: int) -> FoldResult:
        subject, train_idx, test_idx = folds[fold_index]
        return _run_one_fold(fold_index, subject, train_idx, test_idx,
                             manifest, maps, labels, model_config, train_config)

    results = forked_map(run_fold, range(len(folds)), parallel_folds,
                         lambda fold_index: f"fold {folds[fold_index][0]!r}")

    pooled = ConfusionMatrix()
    per_database: dict[str, ConfusionMatrix] = {}
    history: dict[str, list[float]] = {}
    failed: dict[str, str] = {}
    for result in results:
        if result.error is not None:
            failed[result.subject] = result.error
            continue
        pooled = pooled.merged(result.matrix)
        history[result.subject] = result.history
        for sample_index, true, pred in result.predictions:
            db = manifest.samples[sample_index].database_id
            per_database.setdefault(db, ConfusionMatrix()).add(true, pred)
    return MetricsReport(pooled=pooled, per_database=per_database,
                         history=history, failed_folds=failed)
