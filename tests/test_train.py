import logging
import os
import time
from dataclasses import replace

import numpy as np
import pytest

import ahmsa.train as train_module
from ahmsa.data import ConfusionMatrix, gen_synthetic, uar, uf1
from ahmsa.errors import AhmsaError, ConfigError, TrainingDivergedError, ValidationError
from ahmsa.model import ModelConfig, init_model, tiny_config
from ahmsa.train import (
    FoldResult,
    MetricsReport,
    TrainConfig,
    desk_scale_config,
    evaluate,
    run_loso,
    train_fold,
)
from ahmsa.workers import openblas_thread_controls

from reference import reference_train_fold


def small_model():
    return ModelConfig(h_flow=8, w_flow=8, patch_size=2, embed_channels=12,
                       heads=3, blocks_per_layer=(1, 1, 1), channel_reduction=4,
                       ffn_expansion=2)


def toy_task(rng, n_per_class=4, cfg=None):
    """Linearly separable toy maps: class mean pattern + noise."""
    cfg = cfg or small_model()
    patterns = rng.standard_normal((3, cfg.h_flow, cfg.w_flow, 3))
    maps, labels = [], []
    for c in range(3):
        for _ in range(n_per_class):
            noise = 0.1 * rng.standard_normal(patterns[c].shape)
            maps.append(patterns[c] + noise)
            labels.append(c)
    return np.stack(maps).astype(np.float32), np.array(labels, dtype=np.int64)


# -- TrainConfig -----------------------------------------------------------------


def test_train_config_defaults():
    cfg = TrainConfig()
    assert cfg.epochs == 800
    assert cfg.learning_rate == 5e-6
    assert cfg.batch_size == 256
    cfg.validate()


def test_train_config_validation_lists_problems():
    with pytest.raises(ConfigError) as err:
        TrainConfig(epochs=0, batch_size=0).validate()
    assert "epochs" in str(err.value) and "batch_size" in str(err.value)


@pytest.mark.parametrize("field,value,problem", [
    ("epochs", 2.5, "epochs must be an integer"),
    ("epochs", True, "epochs must be an integer"),
    ("batch_size", "3", "batch_size must be an integer"),
    ("seed", 1.0, "seed must be an integer"),
    ("seed", -1, "seed must be >= 0"),
    ("log_every", None, "log_every must be an integer"),
    ("learning_rate", float("nan"), "learning_rate must be a finite number"),
    ("learning_rate", float("inf"), "learning_rate must be a finite number"),
    ("learning_rate", 10 ** 400, "learning_rate must be a finite number"),
    ("learning_rate", "1e-4", "learning_rate must be a finite number"),
    ("shuffle", "yes", "shuffle must be true or false"),
    ("shuffle", 1, "shuffle must be true or false"),
])
def test_train_config_rejects_wrong_types(field, value, problem):
    with pytest.raises(ConfigError, match=problem):
        TrainConfig(**{field: value}).validate()


def test_train_config_accepts_numpy_scalars():
    TrainConfig(epochs=np.int64(3), learning_rate=np.float32(1e-3),
                seed=np.uint8(2)).validate()


def test_desk_scale_overrides():
    cfg = desk_scale_config()
    assert (cfg.epochs, cfg.batch_size, cfg.learning_rate) == (200, 32, 1e-4)


# -- train_fold ------------------------------------------------------------------


def test_train_single_sample_overfits():
    rng = np.random.default_rng(0)
    maps = rng.uniform(-1, 1, (1, 28, 28, 3)).astype(np.float32)
    labels = np.array([1])
    tc = TrainConfig(epochs=500, learning_rate=1e-3, batch_size=1, seed=0)
    params, history = train_fold(maps, labels, tiny_config(), tc)
    assert history[-1] < 1e-2
    assert history[-1] < history[0]


def test_train_deterministic_history():
    rng = np.random.default_rng(1)
    maps, labels = toy_task(rng)
    tc = TrainConfig(epochs=5, learning_rate=1e-3, batch_size=4, seed=7)
    _, h1 = train_fold(maps, labels, small_model(), tc)
    _, h2 = train_fold(maps, labels, small_model(), tc)
    assert all(abs(a - b) < 1e-6 for a, b in zip(h1, h2))


def test_train_zero_lr_freezes_params():
    rng = np.random.default_rng(2)
    maps, labels = toy_task(rng)
    tc = TrainConfig(epochs=3, learning_rate=0.0, batch_size=4, seed=3)
    params, history = train_fold(maps, labels, small_model(), tc)
    reference = init_model(small_model(), seed=3)
    for name, t in params.named_parameters().items():
        assert t.data.tobytes() == reference.named_parameters()[name].data.tobytes()
    # constant up to f32 batch-averaging order (shuffle varies batch makeup)
    assert max(history) - min(history) < 1e-5


def test_train_loss_decreases_on_fixed_batch():
    rng = np.random.default_rng(3)
    maps, labels = toy_task(rng)
    tc = TrainConfig(epochs=10, learning_rate=1e-3, batch_size=len(labels),
                     seed=0, shuffle=False)
    _, history = train_fold(maps, labels, small_model(), tc)
    # single full batch per epoch: history is the fixed-batch loss curve
    assert all(b < a for a, b in zip(history, history[1:]))


def test_train_fold_matches_per_tensor_adam_loop():
    """train_fold's parameters equal, byte for byte, a reference loop whose
    optimizer updates one parameter at a time (default config)."""
    cfg = ModelConfig()
    rng = np.random.default_rng(9)
    maps = rng.standard_normal((40, 28, 28, 3)).astype(np.float32)
    labels = rng.integers(0, 3, 40)
    tc = TrainConfig(epochs=2, learning_rate=1e-3, batch_size=32, seed=4)
    params, history = train_fold(maps, labels, cfg, tc)
    ref, ref_history = reference_train_fold(maps, labels, cfg, tc)
    assert history == ref_history
    named = ref.named_parameters()
    for name, t in params.named_parameters().items():
        assert t.data.tobytes() == named[name].data.tobytes(), name


def test_train_rejects_empty_split():
    with pytest.raises(ValidationError):
        train_fold(np.zeros((0, 8, 8, 3), dtype=np.float32),
                   np.zeros(0, dtype=np.int64), small_model(), TrainConfig())


def test_train_loss_decreases_on_synthetic_task(synthetic_setup):
    """Sanity on the actual flow-map task: fixed batch, first 10 steps."""
    manifest, maps = synthetic_setup
    labels = manifest.labels()
    tc = TrainConfig(epochs=10, learning_rate=1e-3, batch_size=len(labels),
                     seed=0, shuffle=False)
    _, history = train_fold(maps, labels, small_model(), tc)
    assert all(b < a for a, b in zip(history, history[1:]))


# -- evaluate --------------------------------------------------------------------


def test_evaluate_counts_and_determinism():
    rng = np.random.default_rng(4)
    maps, labels = toy_task(rng)
    params = init_model(small_model(), seed=5)
    cm1, pred1 = evaluate(params, maps, labels)
    cm2, pred2 = evaluate(params, maps, labels)
    assert cm1.total() == len(labels)
    assert cm1 == cm2
    np.testing.assert_array_equal(pred1, pred2)


def test_evaluate_overfit_model_consistency():
    rng = np.random.default_rng(5)
    maps, labels = toy_task(rng, n_per_class=2)
    tc = TrainConfig(epochs=150, learning_rate=2e-3, batch_size=6, seed=1)
    params, _ = train_fold(maps, labels, small_model(), tc)
    cm, _ = evaluate(params, maps, labels)
    assert np.array_equal(cm.counts, np.diag([2, 2, 2]))
    assert uf1(cm) == 1.0


def test_evaluate_does_not_mutate_params():
    rng = np.random.default_rng(6)
    maps, labels = toy_task(rng)
    params = init_model(small_model(), seed=6)
    before = {n: t.data.copy() for n, t in params.named_parameters().items()}
    evaluate(params, maps, labels)
    for name, t in params.named_parameters().items():
        np.testing.assert_array_equal(t.data, before[name])


def test_evaluate_argmax_tie_breaks_low():
    params = init_model(small_model(), seed=7)
    # zero the head so every logit row is the (identical) bias: all ties
    params.head_w.data[...] = 0.0
    params.head_b.data[...] = 0.0
    rng = np.random.default_rng(7)
    maps, labels = toy_task(rng, n_per_class=1)
    _, preds = evaluate(params, maps, labels)
    assert np.all(preds == 0)


# -- run_loso ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def synthetic_setup(tmp_path_factory):
    """Small synthetic dataset with precomputed feature maps."""
    from ahmsa.optflow import extract_feature_map, read_pgm

    root = tmp_path_factory.mktemp("loso_data")
    manifest, _ = gen_synthetic(root, seed=11, n_subjects=3, samples_per_subject=3,
                                image_size=48)
    maps = np.stack([
        extract_feature_map(read_pgm(s.onset_path), read_pgm(s.apex_path),
                            s.landmarks, out_size=8)
        for s in manifest.samples
    ]).astype(np.float32)
    return manifest, maps


FAST_TRAIN = TrainConfig(epochs=20, learning_rate=1e-3, batch_size=6, seed=0)


def test_run_loso_protocol_contract(synthetic_setup):
    manifest, maps = synthetic_setup
    report = run_loso(manifest, maps, small_model(), FAST_TRAIN)
    assert report.pooled.total() == len(manifest)
    assert set(report.history) == set(manifest.subjects)
    assert not report.failed_folds
    assert set(report.per_database) == {"synthetic"}
    assert report.per_database["synthetic"].total() == len(manifest)


def test_run_loso_metrics_recomputable(synthetic_setup):
    manifest, maps = synthetic_setup
    report = run_loso(manifest, maps, small_model(), FAST_TRAIN)
    clone = ConfusionMatrix(counts=report.pooled.counts.tolist())
    assert report.pooled_uf1 == uf1(clone)
    assert report.pooled_uar == uar(clone)
    payload = report.to_json_dict()
    assert payload["pooled"]["uf1"] == uf1(clone)
    assert payload["pooled"]["confusion"] == report.pooled.counts.tolist()


def test_run_loso_parallel_equals_sequential(synthetic_setup):
    """Forked workers, fewer than the folds (so a worker trains a second
    fold) or one per fold, give the sequential report."""
    manifest, maps = synthetic_setup
    sequential = run_loso(manifest, maps, small_model(), FAST_TRAIN,
                          parallel_folds=1)
    for workers in (2, 3):
        parallel = run_loso(manifest, maps, small_model(), FAST_TRAIN,
                            parallel_folds=workers)
        assert sequential.pooled == parallel.pooled
        assert sequential.to_json_dict() == parallel.to_json_dict()


@pytest.mark.parametrize("workers", [0, -2])
def test_run_loso_rejects_fold_counts_below_one(synthetic_setup, workers):
    manifest, maps = synthetic_setup
    with pytest.raises(ConfigError, match="worker count"):
        run_loso(manifest, maps, small_model(), FAST_TRAIN, parallel_folds=workers)


# -- forked fold workers ------------------------------------------------------------
# The workers are forked, so a monkeypatched module attribute is what they run.
# Without an OpenBLAS thread setter the folds run in this process instead.

forks = pytest.mark.skipif(not openblas_thread_controls(),
                           reason="no OpenBLAS thread setter: folds run in-process")


def test_run_loso_parallel_records_diverged_fold(synthetic_setup, monkeypatch):
    manifest, maps = synthetic_setup
    real_train_fold = train_module.train_fold
    diverging_seed = FAST_TRAIN.seed ^ 1

    def train_fold(maps, labels, model_config, train_config):
        if train_config.seed == diverging_seed:
            raise TrainingDivergedError(3, 0, float("nan"))
        return real_train_fold(maps, labels, model_config, train_config)

    monkeypatch.setattr(train_module, "train_fold", train_fold)
    sequential = run_loso(manifest, maps, small_model(), FAST_TRAIN)
    parallel = run_loso(manifest, maps, small_model(), FAST_TRAIN, parallel_folds=2)
    assert list(parallel.failed_folds) == [manifest.subjects[1]]
    assert sequential.to_json_dict() == parallel.to_json_dict()


def _fold_runner(action):
    """A stand-in for ``_run_one_fold`` that calls ``action(fold_index)``."""
    def run_one_fold(fold_index, subject, *args):
        return action(fold_index, subject)
    return run_one_fold


@forks
def test_run_loso_worker_death_names_fold(synthetic_setup, monkeypatch):
    manifest, maps = synthetic_setup

    def die_on_fold_1(fold_index, subject):
        if fold_index == 1:
            os._exit(3)
        time.sleep(60)  # the parent must not wait for the surviving workers

    monkeypatch.setattr(train_module, "_run_one_fold", _fold_runner(die_on_fold_1))
    started = time.monotonic()
    with pytest.raises(AhmsaError, match=f"fold '{manifest.subjects[1]}'.*exit code 3"):
        run_loso(manifest, maps, small_model(), FAST_TRAIN, parallel_folds=3)
    assert time.monotonic() - started < 10


@forks
def test_run_loso_worker_error_names_fold(synthetic_setup, monkeypatch):
    manifest, maps = synthetic_setup

    def fail(fold_index, subject):
        if fold_index == 1:
            raise RuntimeError(f"boom in {subject}")
        return FoldResult(subject=subject, matrix=ConfusionMatrix(), history=[],
                          predictions=[])

    monkeypatch.setattr(train_module, "_run_one_fold", _fold_runner(fail))
    with pytest.raises(AhmsaError, match=f"fold '{manifest.subjects[1]}'.*"
                                         f"RuntimeError: boom in {manifest.subjects[1]}"):
        run_loso(manifest, maps, small_model(), FAST_TRAIN, parallel_folds=2)


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@forks
def test_run_loso_worker_records_reach_parent_handlers(synthetic_setup):
    manifest, maps = synthetic_setup
    config = replace(FAST_TRAIN, epochs=4, log_every=1)
    handler = _Records()
    logger = logging.getLogger("ahmsa.train")
    saved = logger.level, logger.propagate
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    logger.propagate = False
    try:
        run_loso(manifest, maps, small_model(), config, parallel_folds=2)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(saved[0])
        logger.propagate = saved[1]
    by_worker = {}
    for record in handler.records:
        assert record.name == "ahmsa.train" and len(record.args) == 3
        by_worker.setdefault(record.process, []).append(record.args[0])
    assert len(by_worker) == 2 and os.getpid() not in by_worker
    # each worker trains whole folds in turn: epochs 1..4, then 1..4 again
    epochs = list(range(1, config.epochs + 1))
    assert sorted(len(seen) for seen in by_worker.values()) == [4, 8]
    for seen in by_worker.values():
        assert seen == epochs * (len(seen) // config.epochs)


@forks
def test_run_loso_workers_run_one_blas_thread(synthetic_setup, monkeypatch):
    controls = openblas_thread_controls()
    manifest, maps = synthetic_setup
    parent_threads = [get() for _, get in controls]

    def report_threads(fold_index, subject):
        threads = [float(get()) for _, get in openblas_thread_controls()]
        return FoldResult(subject=subject, matrix=ConfusionMatrix(), history=threads,
                          predictions=[])

    monkeypatch.setattr(train_module, "_run_one_fold", _fold_runner(report_threads))
    report = run_loso(manifest, maps, small_model(), FAST_TRAIN, parallel_folds=2)
    assert report.history == {s: [1.0] * len(controls) for s in manifest.subjects}
    assert [get() for _, get in controls] == parent_threads


def test_run_loso_order_invariance(tmp_path):
    from ahmsa.data import load_manifest
    from ahmsa.optflow import extract_feature_map, read_pgm

    manifest, manifest_path = gen_synthetic(tmp_path, seed=13, n_subjects=2,
                                            samples_per_subject=3, image_size=48)
    lines = manifest_path.read_text().strip().split("\n")
    shuffled = [lines[0]] + lines[1:][::-1]
    permuted_path = tmp_path / "permuted.csv"
    permuted_path.write_text("\n".join(shuffled) + "\n")
    permuted = load_manifest(permuted_path)

    def maps_for(m):
        return np.stack([
            extract_feature_map(read_pgm(s.onset_path), read_pgm(s.apex_path),
                                s.landmarks, out_size=8)
            for s in m.samples
        ]).astype(np.float32)

    cfg = TrainConfig(epochs=10, learning_rate=1e-3, batch_size=4, seed=5)
    a = run_loso(manifest, maps_for(manifest), small_model(), cfg)
    b = run_loso(permuted, maps_for(permuted), small_model(), cfg)
    assert a.pooled == b.pooled
    assert a.to_json_dict() == b.to_json_dict()


def test_run_loso_leakage_guard():
    """A corrupted split (held-out subject in training) must hard-fail."""
    from ahmsa.train import _run_one_fold
    from ahmsa.data import DatasetManifest, Sample
    from ahmsa.optflow import LandmarkSet
    from pathlib import Path

    lm = LandmarkSet((1, 1), (2, 1), (1, 2), (1, 3), (3, 3))
    samples = [
        Sample("db", f"s{i // 2}", f"x{i}", Path("o"), Path("a"), lm, "happy", 1)
        for i in range(4)
    ]
    manifest = DatasetManifest(samples=samples)
    maps = np.zeros((4, 8, 8, 3), dtype=np.float32)
    labels = manifest.labels()
    with pytest.raises(ValidationError, match="leakage"):
        _run_one_fold(0, "s0", [0, 1, 2], [1, 3], manifest, maps, labels,
                      small_model(), FAST_TRAIN)


def test_run_loso_rejects_misaligned_maps(synthetic_setup):
    manifest, maps = synthetic_setup
    with pytest.raises(ValidationError):
        run_loso(manifest, maps[:-1], small_model(), FAST_TRAIN)


def test_metrics_report_json_schema(synthetic_setup):
    manifest, maps = synthetic_setup
    report = run_loso(manifest, maps, small_model(), FAST_TRAIN)
    payload = report.to_json_dict()
    assert set(payload) >= {"pooled", "per_database", "history"}
    for block in [payload["pooled"], *payload["per_database"].values()]:
        assert 0.0 <= block["uf1"] <= 1.0
        assert 0.0 <= block["uar"] <= 1.0
        assert np.asarray(block["confusion"]).shape == (3, 3)
    for key, losses in payload["history"].items():
        assert key.startswith("fold_")
        assert all(isinstance(v, float) for v in losses)
