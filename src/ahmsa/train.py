"""Training loop, per-fold evaluation, and LOSO orchestration.

Every fold trains a freshly initialized model (seed = base seed XOR fold
index) on all other subjects' samples and is scored on the held-out subject.
Fold confusion matrices are pooled before computing UF1/UAR, both overall
and per source database.

Folds are independent, so ``run_loso`` can run several at once in worker
processes.  The workers are forked once the feature maps are loaded, so they
inherit the manifest, maps, labels and configs without pickling.  Each pins
the loaded OpenBLAS to one thread before its first fold, so that N workers
share N cores instead of oversubscribing them, then trains the folds the
parent hands it one index at a time.  Their ``ahmsa.*`` log records reach the
parent's handlers as they are emitted, with ``args`` intact, and the parent
merges the results in fold order, so the report is byte-identical to the
sequential run's.  Where no OpenBLAS thread setter can be found the folds run
sequentially in this process.
"""

from __future__ import annotations

import ctypes
import logging
import math
import multiprocessing
import pickle
import signal
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from multiprocessing.connection import Connection, wait

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
    AhmsaError,
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
        logger.error("fold %s aborted: %s", subject, str(exc))
        return FoldResult(subject=subject, matrix=ConfusionMatrix(),
                          history=[], predictions=[], error=str(exc))
    matrix, predictions = evaluate(params, maps[test_idx], labels[test_idx])
    records = [(i, int(labels[i]), int(p))
               for i, p in zip(test_idx, predictions)]
    return FoldResult(subject=subject, matrix=matrix, history=history,
                      predictions=records)


# (set, get) thread-count functions of the OpenBLAS numpy wheels bundle, then
# of a plain OpenBLAS.
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

BlasThreadControl = tuple[Callable[[int], None], Callable[[], int]]


def openblas_thread_controls() -> list[BlasThreadControl]:
    """(set, get) thread-count functions of every OpenBLAS loaded in this
    process, found through ``/proc/self/maps``; empty where there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    controls = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_FUNCTIONS:
            setter = getattr(handle, set_name, None)
            getter = getattr(handle, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


class _ForwardRecords(logging.Handler):
    """Sends a worker's records to the parent, which hands each to its own
    logger of the same name."""

    def __init__(self, conn: Connection):
        super().__init__()
        self.conn = conn

    def emit(self, record: logging.LogRecord) -> None:
        try:
            pickle.loads(pickle.dumps(record))
        except Exception:  # args that do not survive pickling travel as text
            record.msg, record.args = record.getMessage(), None
        self.conn.send(("log", record))


def _fold_worker(conn: Connection, parent_ends: list[Connection],
                 controls: list[BlasThreadControl],
                 run_fold: Callable[[int], FoldResult]) -> None:
    """Body of a forked worker: trains the folds it is sent until ``None``."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent ends its workers
    for parent_end in parent_ends:  # so that EOF on a pipe means its peer is gone
        parent_end.close()
    for set_threads, _ in controls:
        set_threads(1)
    forward = _ForwardRecords(conn)
    for name in {"ahmsa", *(name for name in logging.root.manager.loggerDict
                            if name.startswith("ahmsa."))}:
        worker_logger = logging.getLogger(name)
        worker_logger.handlers = [forward]
        worker_logger.propagate = False
    while True:
        try:
            fold_index = conn.recv()
        except EOFError:
            return
        if fold_index is None:
            return
        try:
            result = run_fold(fold_index)
        except Exception as exc:  # the parent raises it, naming the fold
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
            return
        conn.send(("result", result))


def _run_folds_forked(run_fold: Callable[[int], FoldResult], subjects: list[str],
                      workers: int,
                      controls: list[BlasThreadControl]) -> list[FoldResult]:
    """Runs ``run_fold(i)`` for every fold index in ``workers`` forked
    processes and returns the results in fold order."""
    context = multiprocessing.get_context("fork")
    results: list[FoldResult | None] = [None] * len(subjects)
    todo = iter(range(len(subjects)))
    conns: list[Connection] = []
    procs = []
    running: dict[Connection, int] = {}  # worker pipe -> fold index it trains

    def hand_out(conn: Connection) -> None:
        fold_index = next(todo, None)
        conn.send(fold_index)
        if fold_index is not None:
            running[conn] = fold_index

    sys.stdout.flush()  # or each worker flushes a copy of the buffer on exit
    sys.stderr.flush()
    try:
        for _ in range(workers):
            conn, child_conn = context.Pipe()
            proc = context.Process(target=_fold_worker, daemon=True,
                                   args=(child_conn, [*conns, conn], controls, run_fold))
            proc.start()
            child_conn.close()
            conns.append(conn)
            procs.append(proc)
        for conn in conns:
            hand_out(conn)
        while running:
            for conn in wait(list(running)):
                fold_index = running[conn]
                subject = subjects[fold_index]
                try:
                    kind, payload = conn.recv()
                except EOFError:
                    proc = procs[conns.index(conn)]
                    proc.join(timeout=5)
                    raise AhmsaError(f"fold {subject!r}: its worker process died "
                                     f"(exit code {proc.exitcode})") from None
                if kind == "log":
                    logging.getLogger(payload.name).handle(payload)
                elif kind == "error":
                    raise AhmsaError(f"fold {subject!r} failed in its worker "
                                     f"process: {payload}")
                else:
                    results[fold_index] = payload
                    del running[conn]
                    hand_out(conn)
    finally:
        for conn in conns:
            conn.close()  # an idle worker's recv() ends
        for proc in procs:
            if running:  # a failure: the other workers' folds are not wanted
                proc.kill()
            proc.join()
    return results


def run_loso(manifest: DatasetManifest, maps: np.ndarray,
             model_config: ModelConfig, train_config: TrainConfig,
             parallel_folds: int = 1) -> MetricsReport:
    """Full leave-one-subject-out protocol over precomputed feature maps.

    ``maps`` must be aligned with ``manifest.samples``.  A diverged fold is
    recorded in the report and the remaining folds still run.  With
    ``parallel_folds > 1`` up to that many folds train at once in forked
    worker processes; a worker that dies or raises raises an ``AhmsaError``
    naming its fold.
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

    workers = min(parallel_folds, len(folds))
    controls = openblas_thread_controls() if workers > 1 else []
    if workers > 1 and not controls:
        # unpinned workers oversubscribe the cores and run slower than one
        logger.warning("no OpenBLAS thread setter found: running the %d folds "
                       "sequentially", len(folds))
    if controls:
        results = _run_folds_forked(run_fold, [subject for subject, _, _ in folds],
                                    workers, controls)
    else:
        results = [run_fold(i) for i in range(len(folds))]

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
