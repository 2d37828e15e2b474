"""Training loop, per-fold evaluation, and LOSO orchestration.

Every fold trains a freshly initialized model (seed = base seed XOR fold
index) on all other subjects' samples and is scored on the held-out subject.
Fold confusion matrices are pooled before computing UF1/UAR, both overall
and per source database.  Folds are independent, so they may run in a thread
pool; results are identical to sequential execution.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
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
    is_finite_real,
    is_int,
)
from .model import ModelConfig, ModelParams, forward, init_model
from .tensor import adam_step, cross_entropy, init_adam, no_grad, zero_grads

logger = logging.getLogger(__name__)

EVAL_BATCH = 64


@dataclass(frozen=True)
class TrainConfig:
    """Optimization knobs; defaults are the full-scale settings."""

    epochs: int = 800
    learning_rate: float = 5e-6
    batch_size: int = 256
    seed: int = 0
    shuffle: bool = True
    log_every: int = 0  # epochs between loss log lines; 0 disables

    def validate(self) -> None:
        problems = [f"{name} must be an integer, got {getattr(self, name)!r}"
                    for name in ("epochs", "batch_size", "seed", "log_every")
                    if not is_int(getattr(self, name))]
        if not is_finite_real(self.learning_rate):
            problems.append(
                f"learning_rate must be a finite number, got {self.learning_rate!r}")
        if not isinstance(self.shuffle, bool):
            problems.append(f"shuffle must be true or false, got {self.shuffle!r}")
        if problems:  # the checks below need numbers to compare
            raise ConfigError("; ".join(problems))
        if self.epochs < 1:
            problems.append(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            problems.append(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate < 0:
            problems.append(
                f"learning_rate must be non-negative, got {self.learning_rate}")
        if self.seed < 0:
            problems.append(f"seed must be >= 0, got {self.seed}")
        if self.log_every < 0:
            problems.append(f"log_every must be >= 0, got {self.log_every}")
        if problems:
            raise ConfigError("; ".join(problems))


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
        logger.error("fold %s aborted: %s", subject, exc)
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
    recorded in the report and the remaining folds still run.
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

    def job(args):
        fold_index, (subject, train_idx, test_idx) = args
        return _run_one_fold(fold_index, subject, train_idx, test_idx,
                             manifest, maps, labels, model_config, train_config)

    if parallel_folds > 1:
        with ThreadPoolExecutor(max_workers=parallel_folds) as pool:
            results = list(pool.map(job, enumerate(folds)))
    else:
        results = [job(item) for item in enumerate(folds)]

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
