"""Acceptance gate: one test per verification criterion, cheapest first.

The published headline scores of the reference task require license-restricted
face databases and are out of scope here; these property-based checks verify
the same pipeline end-to-end on synthetic data instead.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from ahmsa.cli import main as cli_main
from ahmsa.data import ConfusionMatrix, gen_synthetic, loso_splits, uar, uf1
from ahmsa.errors import ValidationError
from ahmsa.model import (
    ModelConfig,
    forward,
    init_model,
    load_checkpoint,
    msa_block,
    save_checkpoint,
    tiny_config,
)
from ahmsa.optflow import FlowField, optical_strain, tvl1_flow
from ahmsa.tensor import (
    LayerNormParams,
    Tensor,
    adaptive_pool,
    conv2d,
    cross_entropy,
    layer_norm,
    matmul,
    mul,
    relu,
    sigmoid,
    softmax,
    tsum,
)

from gradcheck import numeric_gradient, relative_error
from test_optflow import fourier_shift, smooth_texture


def ok(line: str) -> None:
    print(f"PASS  {line}", flush=True)


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


# -- criterion: gradient suite ---------------------------------------------------


@pytest.mark.slow
def test_acceptance_gradient_suite():
    started = time.time()
    step = 1e-3
    rng = np.random.default_rng(0)

    def check(name, build, x0, tolerance=1e-4):
        x = t64(x0, requires_grad=True)
        build(x).backward()
        numeric = numeric_gradient(lambda a: float(build(t64(a)).data), x0, step)
        err = relative_error(x.grad, numeric)
        assert err < tolerance, f"{name}: rel error {err:.2e}"
        return err

    w = rng.uniform(0.5, 1.5, (2, 4, 5, 5))
    kernel = rng.uniform(-1, 1, (4, 3, 3, 3))
    check("conv2d", lambda x: tsum(mul(conv2d(x, t64(kernel), padding=1), t64(w))),
          rng.uniform(-1, 1, (2, 3, 5, 5)))

    ln = LayerNormParams(t64(rng.uniform(0.5, 1.5, 16)),
                         t64(rng.uniform(-0.5, 0.5, 16)))
    wln = rng.uniform(0.5, 1.5, (4, 16))
    check("layer_norm", lambda x: tsum(mul(layer_norm(x, ln, axis=-1), t64(wln))),
          rng.uniform(-1, 1, (4, 16)))

    wp = rng.uniform(0.5, 1.5, (2, 2, 2, 2))
    for mode in ("max", "avg"):
        check(f"adaptive_pool[{mode}]",
              lambda x, m=mode: tsum(mul(adaptive_pool(x, 2, 2, m), t64(wp))),
              rng.uniform(-1, 1, (2, 2, 5, 5)))

    wa = rng.uniform(0.5, 1.5, (4, 5))
    x0 = rng.uniform(-1, 1, (4, 5)) + 0.05
    check("relu", lambda x: tsum(mul(relu(x), t64(wa))), x0)
    check("sigmoid", lambda x: tsum(mul(sigmoid(x), t64(wa))), x0)
    check("softmax", lambda x: tsum(mul(softmax(x, axis=1), t64(wa))), x0)

    b0 = rng.uniform(-1, 1, (3, 4, 5))
    wm = rng.uniform(0.5, 1.5, (3, 2, 5))
    check("matmul", lambda x: tsum(mul(matmul(x, t64(b0)), t64(wm))),
          rng.uniform(-1, 1, (3, 2, 4)))

    labels = rng.integers(0, 3, 8)
    check("cross_entropy", lambda x: cross_entropy(x, labels),
          rng.uniform(-1, 1, (8, 3)))

    # whole network, tiny config, every parameter
    cfg = tiny_config()
    params = init_model(cfg, seed=0, dtype=np.float64)
    prng = np.random.default_rng(0)
    batch = prng.uniform(-1, 1, (2, 28, 28, 3))
    net_labels = np.array([0, 2])
    loss = cross_entropy(forward(batch, params), net_labels)
    loss.backward()
    worst = 0.0
    for name, tensor in params.named_parameters().items():
        analytic = tensor.grad.copy()
        numeric = np.zeros_like(analytic)
        flat = tensor.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = float(cross_entropy(forward(batch, params), net_labels).data)
            flat[i] = orig - step
            fm = float(cross_entropy(forward(batch, params), net_labels).data)
            flat[i] = orig
            nflat[i] = (fp - fm) / (2 * step)
        err = relative_error(analytic, numeric)
        worst = max(worst, err)
        assert err < 1e-3, f"network parameter {name}: rel error {err:.2e}"

    elapsed = time.time() - started
    assert elapsed < 120.0, f"gradient suite took {elapsed:.0f}s (budget 120s)"
    ok(f"gradient suite: per-op < 1e-4, end-to-end worst {worst:.2e} < 1e-3, "
       f"{elapsed:.0f}s < 120s")


# -- criterion: flow oracle -------------------------------------------------------


def test_acceptance_flow_oracle():
    started = time.time()
    tex = smooth_texture(42)
    central = slice(8, 56)

    flow0 = tvl1_flow(tex, tex)
    peak = max(np.abs(flow0.u).max(), np.abs(flow0.v).max())
    assert peak < 0.05, f"identical frames produced |flow| up to {peak:.3f}"

    worst = 0.0
    for dx, dy in [(2.0, 0.0), (0.0, -1.0), (1.5, -2.5), (0.3, 0.7),
                   (-3.0, 1.0), (0.5, 0.5)]:
        apex = fourier_shift(tex, dy, dx)
        flow = tvl1_flow(tex, apex)
        epe = np.hypot(flow.u[central, central] - dx,
                       flow.v[central, central] - dy)
        median = float(np.median(epe))
        worst = max(worst, median)
        assert median < 0.3, f"shift ({dx},{dy}): median EPE {median:.3f}"

    elapsed = time.time() - started
    assert elapsed < 60.0, f"flow oracle took {elapsed:.0f}s (budget 60s)"
    ok(f"flow oracle: identity peak {peak:.4f} < 0.05, worst median EPE "
       f"{worst:.3f} < 0.3, {elapsed:.0f}s < 60s")


# -- criterion: strain oracle -------------------------------------------------------


def test_acceptance_strain_oracle():
    constant = optical_strain(FlowField(u=np.full((12, 12), 2.5),
                                        v=np.full((12, 12), -0.5)))
    assert np.abs(constant).max() < 1e-12

    yy, xx = np.meshgrid(np.arange(11.0), np.arange(11.0), indexing="ij")
    stretch = optical_strain(FlowField(u=xx.copy(), v=np.zeros_like(xx)))
    assert np.abs(stretch[1:-1, 1:-1] - 1.0).max() < 1e-6

    shear = optical_strain(FlowField(u=yy.copy(), v=xx.copy()))
    assert np.abs(shear[1:-1, 1:-1] - math.sqrt(2.0)).max() < 1e-6
    ok("strain oracle: constant -> 0, unit stretch -> 1, pure shear -> sqrt(2)")


# -- criterion: metric oracle --------------------------------------------------------


def test_acceptance_metric_oracle():
    hand = ConfusionMatrix(n_classes=2, counts=[[2, 0], [1, 1]])
    assert abs(uf1(hand) - 11.0 / 15.0) < 1e-12
    assert abs(uar(hand) - 0.75) < 1e-12

    diagonal = ConfusionMatrix(counts=np.diag([7, 4, 11]))
    assert uf1(diagonal) == 1.0
    assert uar(diagonal) == 1.0
    ok("metric oracle: [[2,0],[1,1]] -> UF1 0.7333/UAR 0.75 at 1e-12; "
       "diagonal -> exactly 1.0/1.0")


# -- criterion: shape suite -----------------------------------------------------------


def test_acceptance_shape_suite():
    cfg = ModelConfig()
    assert cfg.blocks_per_layer == (2, 2, 8)
    params = init_model(cfg, seed=1)
    rng = np.random.default_rng(1)
    trace = []
    logits = forward(rng.uniform(-1, 1, (2, 28, 28, 3)).astype(np.float32),
                     params, trace=trace)
    assert trace == [(2, 3, 28, 28), (2, 96, 4, 4), (2, 96, 2, 2),
                     (2, 96, 1, 1), (2, 3)]
    assert np.all(np.isfinite(logits.data))

    for blocks in [(1, 1, 8), (3, 3, 8), (4, 4, 8), (6, 6, 8), (8, 8, 8)]:
        from dataclasses import replace
        ablated = replace(cfg, blocks_per_layer=blocks)
        p = init_model(ablated, seed=2)
        out = forward(rng.uniform(-1, 1, (1, 28, 28, 3)).astype(np.float32), p)
        assert out.shape == (1, 3) and np.all(np.isfinite(out.data))
    ok("shape suite: 28x28x3 -> 96x4x4 -> 96x2x2 -> 96x1x1 -> 3 logits; "
       "ablations (1,1,8) (3,3,8) (4,4,8) (6,6,8) (8,8,8) all run")


# -- criterion: permutation equivariance -----------------------------------------------


def test_acceptance_permutation_equivariance():
    cfg = ModelConfig()
    params = init_model(cfg, seed=3)
    blk = params.levels[0][0]
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 96, 4, 4)).astype(np.float32)
    perm = rng.permutation(16)

    def permute(arr):
        b, c, h, w = arr.shape
        return arr.reshape(b, c, h * w)[:, :, perm].reshape(b, c, h, w)

    out = msa_block(Tensor(x), blk, cfg.heads).data
    out_perm = msa_block(Tensor(permute(x)), blk, cfg.heads).data
    deviation = float(np.abs(out_perm - permute(out)).max())
    assert deviation < 1e-5
    ok(f"permutation equivariance: max abs deviation {deviation:.2e} < 1e-5")


# -- criterion: leakage guard ------------------------------------------------------------


def test_acceptance_leakage_guard(tmp_path):
    manifest, _ = gen_synthetic(tmp_path, seed=5, n_subjects=3,
                                samples_per_subject=3, image_size=48)
    for subject, train_idx, test_idx in loso_splits(manifest):
        train_subjects = {manifest.samples[i].subject_id for i in train_idx}
        assert subject not in train_subjects

    # a corrupted split must hard-fail before any training happens
    from ahmsa.train import _run_one_fold, TrainConfig
    maps = np.zeros((len(manifest), 28, 28, 3), dtype=np.float32)
    leaky_train = list(range(len(manifest)))  # includes the held-out subject
    test_idx = manifest.by_subject[manifest.subjects[0]]
    with pytest.raises(ValidationError, match="leakage"):
        _run_one_fold(0, manifest.subjects[0], leaky_train, test_idx, manifest,
                      maps, manifest.labels(), ModelConfig(), TrainConfig())
    ok("leakage guard: all folds subject-disjoint; corrupted fold hard-fails")


# -- criterion: checkpoint round-trip ------------------------------------------------------


def test_acceptance_checkpoint_round_trip(tmp_path):
    cfg = ModelConfig()
    params = init_model(cfg, seed=6)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    restored = load_checkpoint(path)
    rng = np.random.default_rng(6)
    batch = rng.uniform(-1, 1, (3, 28, 28, 3)).astype(np.float32)
    a = forward(batch, params).data
    b = forward(batch, restored).data
    assert a.tobytes() == b.tobytes()
    ok("checkpoint round-trip: save -> load -> forward is bit-identical")


# -- criterion: end-to-end determinism ------------------------------------------------------


def test_acceptance_end_to_end_determinism(tmp_path):
    data_dir = tmp_path / "data"
    assert cli_main(["gen-synthetic", "--out-dir", str(data_dir), "--seed", "17",
                     "--subjects", "3", "--samples-per-subject", "3",
                     "--image-size", "48"]) == 0
    digests = []
    for run in ("r1", "r2"):
        out_dir = tmp_path / run
        code = cli_main([
            "loso", "--manifest", str(data_dir / "manifest.csv"), "--extract",
            "--out-dir", str(out_dir), "--epochs", "25", "--batch-size", "8",
            "--lr", "1e-3", "--blocks", "1,1,2",
        ])
        assert code == 0
        digests.append(
            hashlib.sha256((out_dir / "metrics.json").read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    ok(f"determinism: two identical runs -> byte-identical metrics.json "
       f"(sha256 {digests[0][:12]}...)")


# -- criterion: end-to-end synthetic LOSO ----------------------------------------------------


@pytest.mark.slow
def test_acceptance_synthetic_loso(tmp_path):
    started = time.time()
    data_dir = tmp_path / "data"
    flow_dir = tmp_path / "flow"
    out_dir = tmp_path / "out"

    assert cli_main(["gen-synthetic", "--out-dir", str(data_dir),
                     "--seed", "42"]) == 0  # 6 subjects x 9 samples
    assert cli_main(["extract-flow", "--manifest", str(data_dir / "manifest.csv"),
                     "--out-dir", str(flow_dir)]) == 0
    assert len(list(flow_dir.glob("*.flow"))) == 54

    code = cli_main([
        "loso", "--manifest", str(data_dir / "manifest.csv"),
        "--flow-dir", str(flow_dir), "--out-dir", str(out_dir),
        "--epochs", "200", "--batch-size", "32", "--lr", "1e-4",
    ])
    assert code == 0
    payload = json.loads((out_dir / "metrics.json").read_text())
    pooled_uf1 = payload["pooled"]["uf1"]
    pooled_uar = payload["pooled"]["uar"]
    elapsed = time.time() - started
    assert pooled_uf1 >= 0.8, f"pooled UF1 {pooled_uf1:.4f} < 0.8"
    assert pooled_uar >= 0.8, f"pooled UAR {pooled_uar:.4f} < 0.8"
    assert elapsed < 900.0, f"end-to-end run took {elapsed:.0f}s (budget 900s)"
    ok(f"synthetic LOSO: pooled UF1 {pooled_uf1:.4f} >= 0.8, "
       f"UAR {pooled_uar:.4f} >= 0.8, {elapsed:.0f}s < 900s")
