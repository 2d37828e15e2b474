import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ahmsa.errors import AhmsaError, ConfigError, ValidationError
from ahmsa.model import (
    ModelConfig,
    channel_attention,
    downsample,
    feed_forward,
    forward,
    init_model,
    load_checkpoint,
    msa_block,
    parameter_count,
    patch_embed,
    save_checkpoint,
    spatial_attention,
    tiny_config,
)
from ahmsa.tensor import (
    Tensor,
    adam_step,
    adaptive_pool,
    conv2d,
    cross_entropy,
    init_adam,
    layer_norm,
    linear,
    matmul,
    no_grad,
    relu,
    reshape,
    sigmoid,
    softmax,
    transpose,
    tsum,
    zero_grads,
)

import ahmsa.model as model_mod
from ahmsa.train import TrainConfig, train_fold
from gradcheck import relative_error
from reference import composed_block, reference_train_fold, with_stand_in_query_key


def small_config():
    """Cheap config with a 4x4 entry grid, for unit-level checks."""
    return ModelConfig(h_flow=8, w_flow=8, patch_size=2, embed_channels=12,
                       heads=3, blocks_per_layer=(1, 1, 1), channel_reduction=4,
                       ffn_expansion=2)


def rand_maps(rng, b, cfg):
    return rng.uniform(-1, 1, (b, cfg.h_flow, cfg.w_flow, 3)).astype(np.float32)


# -- config validation ----------------------------------------------------------


def test_default_config_is_valid():
    ModelConfig()


@pytest.mark.parametrize("overrides,fragment", [
    (dict(embed_channels=97), "divisible by heads"),
    (dict(patch_size=5), "not divisible by patch_size"),
    (dict(blocks_per_layer=(2, 2)), "entries"),
    (dict(n_layers=4), "top level"),
    (dict(heads=0), "must be positive"),
    (dict(channel_reduction=5), "channel_reduction"),
    (dict(n_layers=10 ** 12, blocks_per_layer=(1,)), "= more than 4 so the top level"),
])
def test_config_validation_names_invariant(overrides, fragment):
    from dataclasses import replace
    with pytest.raises(ConfigError, match=fragment):
        replace(ModelConfig(), **overrides)


def test_config_validation_lists_all_problems():
    with pytest.raises(ConfigError) as err:
        ModelConfig(embed_channels=97, patch_size=5)
    assert "divisible by heads" in str(err.value)
    assert "patch_size" in str(err.value)


# -- init_model ----------------------------------------------------------------------


def test_init_same_seed_bit_identical():
    a = init_model(ModelConfig(), seed=5)
    b = init_model(ModelConfig(), seed=5)
    for name, t in a.named_parameters().items():
        assert t.data.tobytes() == b.named_parameters()[name].data.tobytes(), name


def test_init_different_seed_differs():
    a = init_model(ModelConfig(), seed=5)
    b = init_model(ModelConfig(), seed=6)
    assert any(
        t.data.tobytes() != b.named_parameters()[name].data.tobytes()
        for name, t in a.named_parameters().items()
    )


@pytest.mark.parametrize("config", [
    ModelConfig(), tiny_config(), small_config(),
    ModelConfig(patch_size=14, n_layers=2, blocks_per_layer=(1, 3), n_classes=5),
    # every level 1x1, so no block has query/key projections
    ModelConfig(patch_size=28, downsample_factor=1, blocks_per_layer=(1, 2, 1)),
])
def test_parameter_count_matches_init_model(config):
    params = init_model(config, seed=0)
    assert parameter_count(config) == sum(
        t.data.size for t in params.named_parameters().values())


def test_init_default_shapes():
    params = init_model(ModelConfig(), seed=0)
    assert params.patch_w.shape == (96, 3, 7, 7)
    assert params.head_w.shape == (96, 3)
    assert [len(level) for level in params.levels] == [2, 2, 8]
    assert len(params.transitions) == 2
    blk = params.levels[0][0]
    assert blk.ca_w1.shape == (24, 96, 1, 1)
    assert blk.ff_w1.shape == (384, 96, 1, 1)
    assert blk.q_w.shape == (96, 96, 1, 1)
    for level, wide in enumerate((True, True, False)):
        for blk in params.levels[level]:
            assert all((t is not None) == wide
                       for t in (blk.q_w, blk.q_b, blk.k_w, blk.k_b)), level


def test_init_rejects_invalid_config():
    with pytest.raises(ConfigError):
        init_model(ModelConfig(embed_channels=10), seed=0)


def test_init_biases_zero_ln_unit():
    params = init_model(ModelConfig(), seed=3)
    blk = params.levels[0][0]
    assert np.all(blk.ca_b1.data == 0.0)
    assert np.all(blk.ln_ca.gamma.data == 1.0)
    assert np.all(blk.ln_ca.beta.data == 0.0)


# -- patch_embed ------------------------------------------------------------------------


def test_patch_embed_shape():
    params = init_model(ModelConfig(), seed=1)
    rng = np.random.default_rng(0)
    out = patch_embed(Tensor(rng.standard_normal((2, 3, 28, 28)).astype(np.float32)),
                      params)
    assert out.shape == (2, 96, 4, 4)


def test_patch_embed_zero_input_zero_bias():
    params = init_model(ModelConfig(), seed=1)
    out = patch_embed(Tensor(np.zeros((1, 3, 28, 28), dtype=np.float32)), params)
    np.testing.assert_array_equal(out.data, 0.0)


def test_patch_embed_locality():
    params = init_model(ModelConfig(), seed=2)
    rng = np.random.default_rng(1)
    base = rng.standard_normal((1, 3, 28, 28)).astype(np.float32)
    bumped = base.copy()
    bumped[:, :, 7:14, 14:21] += 1.0  # patch cell (1, 2)
    a = patch_embed(Tensor(base), params).data
    b = patch_embed(Tensor(bumped), params).data
    diff = np.abs(a - b).sum(axis=1)[0]
    assert diff[1, 2] > 0.0
    mask = np.ones((4, 4), dtype=bool)
    mask[1, 2] = False
    assert diff[mask].max() == 0.0


def test_patch_embed_rejects_wrong_dims():
    params = init_model(ModelConfig(), seed=1)
    with pytest.raises(ValidationError):
        patch_embed(Tensor(np.zeros((1, 3, 27, 28), dtype=np.float32)), params)


# -- channel attention ----------------------------------------------------------------------


def test_channel_attention_zero_input():
    params = init_model(small_config(), seed=4)
    blk = params.levels[0][0]
    x = Tensor(np.zeros((2, 4, 4, 12), dtype=np.float32))
    out = channel_attention(x, blk)
    np.testing.assert_array_equal(out.data, 0.0)


def test_channel_attention_weights_in_unit_interval():
    params = init_model(small_config(), seed=4)
    blk = params.levels[0][0]
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((2, 4, 4, 12)).astype(np.float32))
    out = channel_attention(x, blk)
    ratio = out.data / np.where(np.abs(x.data) < 1e-12, 1.0, x.data)
    gated = ratio[np.abs(x.data) >= 1e-12]
    assert np.all(gated > 0.0) and np.all(gated < 1.0)


def test_channel_attention_symmetric_channels():
    cfg = small_config()
    params = init_model(cfg, seed=4)
    blk = params.levels[0][0]
    # make the MLP treat channels 0 and 1 identically
    blk.ca_w1.data[:, 1, :, :] = blk.ca_w1.data[:, 0, :, :]
    blk.ca_w2.data[1] = blk.ca_w2.data[0]
    blk.ca_b2.data[1] = blk.ca_b2.data[0]
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 4, 4, 12)).astype(np.float32)
    x[0, :, :, 1] = x[0, :, :, 0]  # identical spatial content
    out = channel_attention(Tensor(x), blk)
    np.testing.assert_allclose(out.data[0, :, :, 0], out.data[0, :, :, 1], rtol=1e-6)


# -- spatial attention ----------------------------------------------------------------------


def test_spatial_attention_single_token_is_projected_v():
    params = init_model(small_config(), seed=5)
    blk = params.levels[0][0]
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((2, 1, 1, 12)).astype(np.float32))
    out = spatial_attention(x, blk, heads=3)
    x_nchw = Tensor(x.data.reshape(2, 12, 1, 1))
    v = conv2d(x_nchw, blk.v_w, blk.v_b)
    expected = conv2d(v, blk.o_w, blk.o_b).data.reshape(out.shape)
    np.testing.assert_allclose(out.data, expected, atol=1e-6)


def test_spatial_attention_rows_sum_to_one():
    params = init_model(small_config(), seed=5)
    blk = params.levels[0][0]
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((2, 4, 4, 12)).astype(np.float32))
    _, weights = spatial_attention(x, blk, heads=3, return_weights=True)
    assert weights.shape == (2, 3, 16, 16)
    np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, atol=1e-6)


def _permute_grid(arr: np.ndarray, perm: np.ndarray) -> np.ndarray:
    b, c, h, w = arr.shape
    flat = arr.reshape(b, c, h * w)[:, :, perm]
    return flat.reshape(b, c, h, w)


def _permute_grid_last(arr: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """``_permute_grid`` for a channels-last [B,H,W,C] array."""
    b, h, w, c = arr.shape
    return arr.reshape(b, h * w, c)[:, perm].reshape(b, h, w, c)


def test_spatial_attention_permutation_equivariant():
    params = init_model(small_config(), seed=6)
    blk = params.levels[0][0]
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 4, 4, 12)).astype(np.float32)
    perm = rng.permutation(16)
    out = spatial_attention(Tensor(x), blk, heads=3).data
    out_perm = spatial_attention(Tensor(_permute_grid_last(x, perm)), blk,
                                 heads=3).data
    assert np.abs(out_perm - _permute_grid_last(out, perm)).max() < 1e-5


# -- feed forward -------------------------------------------------------------------------------


def test_feed_forward_zero_preserving_and_shape():
    params = init_model(small_config(), seed=7)
    blk = params.levels[0][0]
    zero = Tensor(np.zeros((1, 4, 4, 12), dtype=np.float32))
    np.testing.assert_array_equal(feed_forward(zero, blk).data, 0.0)
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((3, 4, 4, 12)).astype(np.float32))
    assert feed_forward(x, blk).shape == x.shape


def test_feed_forward_positionwise():
    params = init_model(small_config(), seed=7)
    blk = params.levels[0][0]
    rng = np.random.default_rng(8)
    x = rng.standard_normal((1, 4, 4, 12)).astype(np.float32)
    perm = rng.permutation(16)
    a = feed_forward(Tensor(_permute_grid_last(x, perm)), blk).data
    b = _permute_grid_last(feed_forward(Tensor(x), blk).data, perm)
    assert np.abs(a - b).max() < 1e-6


# -- msa_block -----------------------------------------------------------------------------------


def test_msa_block_shape_preserved_at_every_level():
    cfg = small_config()
    params = init_model(cfg, seed=8)
    rng = np.random.default_rng(9)
    for level, side in enumerate((4, 2, 1)):
        x = Tensor(rng.standard_normal((2, 12, side, side)).astype(np.float32))
        out = msa_block(x, params.levels[level][0], cfg.heads)
        assert out.shape == x.shape


def test_msa_block_permutation_equivariant():
    params = init_model(small_config(), seed=9)
    blk = params.levels[0][0]
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 12, 4, 4)).astype(np.float32)
    perm = rng.permutation(16)
    out = msa_block(Tensor(x), blk, heads=3).data
    out_perm = msa_block(Tensor(_permute_grid(x, perm)), blk, heads=3).data
    assert np.abs(out_perm - _permute_grid(out, perm)).max() < 1e-5


def test_msa_block_zeroed_weights_is_identity():
    params = init_model(small_config(), seed=10)
    blk = params.levels[0][0]
    for tensor in (blk.ca_w1, blk.ca_b1, blk.ca_w2, blk.ca_b2, blk.q_w, blk.q_b,
                   blk.k_w, blk.k_b, blk.v_w, blk.v_b, blk.o_w, blk.o_b,
                   blk.ff_w1, blk.ff_b1, blk.ff_w2, blk.ff_b2,
                   blk.ln_ca.gamma, blk.ln_ca.beta, blk.ln_sa.gamma,
                   blk.ln_sa.beta, blk.ln_ff.gamma, blk.ln_ff.beta):
        tensor.data[...] = 0.0
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 12, 4, 4)).astype(np.float32)
    out = msa_block(Tensor(x), blk, heads=3)
    np.testing.assert_allclose(out.data, x, atol=1e-7)


# -- downsample -----------------------------------------------------------------------------------


def test_downsample_shapes():
    cfg = small_config()
    params = init_model(cfg, seed=11)
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((2, 12, 4, 4)).astype(np.float32))
    y = downsample(x, params.transitions[0], 2)
    assert y.shape == (2, 12, 2, 2)
    z = downsample(y, params.transitions[1], 2)
    assert z.shape == (2, 12, 1, 1)


def test_downsample_hot_cell_survives_into_quadrant():
    cfg = small_config()
    params = init_model(cfg, seed=12)
    tr = params.transitions[0]
    # identity-like conv: center tap one on the matching channel, zero bias
    tr.conv_w.data[...] = 0.0
    for c in range(12):
        tr.conv_w.data[c, c, 1, 1] = 1.0
    tr.conv_b.data[...] = 0.0
    tr.ln.gamma.data[...] = 1.0
    tr.ln.beta.data[...] = 0.0
    x = np.zeros((1, 12, 4, 4), dtype=np.float32)
    x[0, 5, 1, 1] = 7.0  # hot cell in the top-left quadrant
    out = downsample(Tensor(x), tr, 2).data
    assert out[0, 5, 0, 0] > 0.0
    zeroed = out.copy()
    zeroed[0, 5, 0, 0] = 0.0
    assert np.abs(zeroed).max() == 0.0


# -- forward --------------------------------------------------------------------------------------


def test_forward_default_shape_trace():
    params = init_model(ModelConfig(), seed=13)
    rng = np.random.default_rng(13)
    trace = []
    logits = forward(rand_maps(rng, 4, ModelConfig()), params, trace=trace)
    assert logits.shape == (4, 3)
    assert np.all(np.isfinite(logits.data))
    assert trace == [(4, 3, 28, 28), (4, 96, 4, 4), (4, 96, 2, 2),
                     (4, 96, 1, 1), (4, 3)]


def test_forward_identical_samples_identical_rows():
    cfg = small_config()
    params = init_model(cfg, seed=14)
    rng = np.random.default_rng(14)
    one = rng.uniform(-1, 1, (1, cfg.h_flow, cfg.w_flow, 3)).astype(np.float32)
    batch = np.concatenate([one, one], axis=0)
    logits = forward(batch, params).data
    np.testing.assert_array_equal(logits[0], logits[1])


def test_forward_batch_independence():
    cfg = small_config()
    params = init_model(cfg, seed=15)
    rng = np.random.default_rng(15)
    batch = rand_maps(rng, 3, cfg)
    base = forward(batch, params).data
    perturbed = batch.copy()
    perturbed[2] += 0.5
    out = forward(perturbed, params).data
    assert out[0].tobytes() == base[0].tobytes()
    assert out[1].tobytes() == base[1].tobytes()
    assert out[2].tobytes() != base[2].tobytes()


def test_forward_deterministic():
    cfg = small_config()
    params = init_model(cfg, seed=16)
    rng = np.random.default_rng(16)
    batch = rand_maps(rng, 2, cfg)
    assert forward(batch, params).data.tobytes() == forward(batch, params).data.tobytes()


def test_forward_rejects_empty_batch():
    params = init_model(small_config(), seed=16)
    with pytest.raises(ValidationError):
        forward(np.zeros((0, 8, 8, 3), dtype=np.float32), params)


def test_forward_total_blocks_default_config(monkeypatch):
    import ahmsa.model as model_mod

    params = init_model(ModelConfig(), seed=17)
    assert sum(len(level) for level in params.levels) == 12

    calls = []
    original = model_mod.msa_block
    monkeypatch.setattr(model_mod, "msa_block",
                        lambda x, blk, heads: calls.append(1) or original(x, blk, heads))
    rng = np.random.default_rng(17)
    forward(rand_maps(rng, 1, ModelConfig()), params)
    assert len(calls) == 12


@pytest.mark.parametrize("blocks", [(1, 1, 8), (3, 3, 8), (4, 4, 8),
                                    (6, 6, 8), (8, 8, 8)])
def test_forward_ablation_block_counts(blocks):
    from dataclasses import replace
    cfg = replace(ModelConfig(), embed_channels=12, blocks_per_layer=blocks)
    params = init_model(cfg, seed=18)
    rng = np.random.default_rng(18)
    logits = forward(rand_maps(rng, 2, cfg), params)
    assert logits.shape == (2, 3)
    assert np.all(np.isfinite(logits.data))


# -- checkpoint ----------------------------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = small_config()
    params = init_model(cfg, seed=19)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    for name, t in params.named_parameters().items():
        assert t.data.tobytes() == loaded.named_parameters()[name].data.tobytes(), name
    rng = np.random.default_rng(19)
    batch = rand_maps(rng, 2, cfg)
    assert forward(batch, params).data.tobytes() == forward(batch, loaded).data.tobytes()


def test_loaded_checkpoint_holds_no_gradients_and_trains_like_the_saved_one(tmp_path):
    # gradient buffers are made lazily, by the first backward pass that needs one
    cfg = small_config()
    saved = init_model(cfg, seed=23)
    save_checkpoint(tmp_path / "m.ckpt", saved)
    loaded = load_checkpoint(tmp_path / "m.ckpt")
    assert all(t._grad is None for t in loaded.named_parameters().values())
    rng = np.random.default_rng(23)
    batch, labels = rand_maps(rng, 4, cfg), np.array([0, 1, 2, 1])
    for params in (saved, loaded):
        named = params.named_parameters()
        state = init_adam(named, lr=1e-3)
        cross_entropy(forward(batch, params), labels).backward()
        adam_step(named, state)
    for name, t in saved.named_parameters().items():
        other = loaded.named_parameters()[name]
        assert t.grad.tobytes() == other.grad.tobytes(), name
        assert t.data.tobytes() == other.data.tobytes(), name


def test_checkpoint_header(tmp_path):
    params = init_model(small_config(), seed=20)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params)
    raw = path.read_bytes()
    assert raw[:4] == b"AHMC"
    assert raw[4] == 2
    import json as _json
    import struct as _struct
    (n,) = _struct.unpack_from("<I", raw, 5)
    cfg = _json.loads(raw[9:9 + n])
    assert cfg["embed_channels"] == 12


def test_checkpoint_rejects_truncation(tmp_path):
    params = init_model(small_config(), seed=21)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params)
    raw = path.read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(raw[:-8])
    with pytest.raises(ValidationError, match="truncated"):
        load_checkpoint(tmp_path / "cut.ckpt")


def test_checkpoint_rejects_version_1(tmp_path):
    """Version 1 stored query/key projections for 1x1 levels too."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, init_model(small_config(), seed=21))
    raw = bytearray(path.read_bytes())
    raw[4] = 1
    (tmp_path / "v1.ckpt").write_bytes(bytes(raw))
    with pytest.raises(ValidationError,
                       match="v1.ckpt: unsupported checkpoint version 1"):
        load_checkpoint(tmp_path / "v1.ckpt")


def test_checkpoint_rejects_bad_magic(tmp_path):
    params = init_model(small_config(), seed=21)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params)
    raw = path.read_bytes()
    (tmp_path / "bad.ckpt").write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(ValidationError, match="magic"):
        load_checkpoint(tmp_path / "bad.ckpt")


@pytest.mark.parametrize("size", [0, 4, 6, 8])
def test_checkpoint_rejects_file_shorter_than_header(tmp_path, size):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, init_model(small_config(), seed=21))
    (tmp_path / "short.ckpt").write_bytes(path.read_bytes()[:size])
    with pytest.raises(ValidationError, match="short.ckpt.*9-byte"):
        load_checkpoint(tmp_path / "short.ckpt")


def test_checkpoint_rejects_config_length_past_end(tmp_path):
    import struct as _struct
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, init_model(small_config(), seed=21))
    raw = bytearray(path.read_bytes())
    _struct.pack_into("<I", raw, 5, len(raw))
    (tmp_path / "long.ckpt").write_bytes(bytes(raw))
    with pytest.raises(ValidationError, match="long.ckpt.*past the end"):
        load_checkpoint(tmp_path / "long.ckpt")


def _checkpoint_with_config_block(path, block: bytes):
    """A checkpoint whose config block is replaced by raw bytes."""
    import struct as _struct
    from ahmsa.model import CHECKPOINT_MAGIC, CHECKPOINT_VERSION
    path.write_bytes(CHECKPOINT_MAGIC + bytes([CHECKPOINT_VERSION])
                     + _struct.pack("<I", len(block)) + block)
    return path


@pytest.mark.parametrize("block", [b"null", b"[1, 2]", b"3", b'"heads"'])
def test_checkpoint_rejects_non_object_config(tmp_path, block):
    path = _checkpoint_with_config_block(tmp_path / "cfg.ckpt", block)
    with pytest.raises(ValidationError, match="cfg.ckpt.*must be a JSON object"):
        load_checkpoint(path)


@pytest.mark.parametrize("cfg,problem", [
    ({"heads": "3"}, "heads must be an integer"),
    ({"embed_channels": 96.0}, "embed_channels must be an integer"),
    ({"n_classes": True}, "n_classes must be an integer"),
    ({"blocks_per_layer": 2}, "blocks_per_layer must be a list of integers"),
    ({"blocks_per_layer": [2, "2", 8]}, "blocks_per_layer must be a list of integers"),
])
def test_checkpoint_rejects_mistyped_config(tmp_path, cfg, problem):
    path = _checkpoint_with_config_block(tmp_path / "typed.ckpt",
                                         json.dumps(cfg).encode())
    with pytest.raises(ValidationError, match=f"typed.ckpt.*{problem}"):
        load_checkpoint(path)


def test_checkpoint_size_checked_before_allocating(tmp_path):
    # 1.28 TiB of parameters: init_model would fail at once, so the check
    # must come from the config's shapes alone
    cfg = dict(FUZZ_CONFIG, embed_channels=1_200_000_000)
    path = _checkpoint_with_config_block(tmp_path / "huge.ckpt", json.dumps(cfg).encode())
    path.write_bytes(path.read_bytes() + bytes(60))
    with pytest.raises(ValidationError, match="huge.ckpt: truncated: 60 parameter bytes"):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, init_model(small_config(), seed=21))
    path.write_bytes(path.read_bytes() + bytes(4))
    with pytest.raises(ValidationError, match="m.ckpt: trailing bytes"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_checkpoint_rejects_non_finite_parameters(tmp_path, bad):
    params = init_model(small_config(), seed=21)
    params.head_b.data[1] = bad
    path = tmp_path / "nf.ckpt"
    save_checkpoint(path, params)
    with pytest.raises(ValidationError, match="nf.ckpt: non-finite.*head.bias"):
        load_checkpoint(path)


def test_checkpoint_rejects_deeply_nested_config(tmp_path):
    path = _checkpoint_with_config_block(tmp_path / "deep.ckpt", b"[" * 100_000)
    with pytest.raises(ValidationError, match="deep.ckpt: corrupt config block"):
        load_checkpoint(path)


# Any file content yields a model or an AhmsaError, never another exception.
# The smallest valid network: 182 parameters, 728 payload bytes.
FUZZ_CONFIG = {"h_flow": 4, "w_flow": 4, "patch_size": 2, "embed_channels": 2,
               "heads": 1, "n_layers": 2, "downsample_factor": 2,
               "blocks_per_layer": [1, 1], "n_classes": 2, "channel_reduction": 1,
               "ffn_expansion": 1}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4)


@st.composite
def _checkpoint_like(draw):
    """Mostly-valid header and config, so the fuzz reaches the payload checks."""
    from ahmsa.model import CHECKPOINT_MAGIC, CHECKPOINT_VERSION
    cfg = dict(FUZZ_CONFIG)
    if draw(st.booleans()):
        cfg[draw(st.sampled_from(sorted(cfg) + ["bogus"]))] = draw(JSON_VALUES)
    block = json.dumps(cfg).encode()
    cfg_len = len(block) + draw(st.sampled_from([0, 0, 0, -1, 5, 1 << 31]))
    n = 4 * parameter_count(ModelConfig(**FUZZ_CONFIG))
    kind = draw(st.sampled_from(["zeros", "random", "random", "cut", "long"]))
    if kind == "zeros":
        payload = bytes(n)
    elif kind == "random":
        payload = np.random.default_rng(draw(st.integers(0, 2 ** 32))).bytes(n)
    else:
        payload = bytes(n - 4 if kind == "cut" else n + 4)
    magic = draw(st.sampled_from([CHECKPOINT_MAGIC, CHECKPOINT_MAGIC, b"AHMS"]))
    version = draw(st.sampled_from([CHECKPOINT_VERSION, CHECKPOINT_VERSION, 0]))
    return magic + bytes([version]) + struct.pack("<I", cfg_len) + block + payload


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.one_of(st.binary(max_size=300), _checkpoint_like()))
def test_load_checkpoint_arbitrary_bytes(tmp_path, raw):
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(raw)
    try:
        params = load_checkpoint(path)
    except AhmsaError:
        return
    named = params.named_parameters()
    assert sum(t.data.size for t in named.values()) == parameter_count(params.config)
    assert all(np.isfinite(t.data).all() for t in named.values())


def test_model_config_type_errors_are_config_errors():
    with pytest.raises(ConfigError, match="heads must be an integer"):
        ModelConfig(heads="3")


# -- channels-last layout against the [B,C,H,W] composition ------------------------------------
# The reference below composes the network from conv2d, layer_norm(axis=1),
# adaptive_pool, softmax and matmul on [B,C,H,W], with no 1x1-grid shortcuts
# (a 1x1 block attends through stand-in query/key projections).
# The model runs its blocks channels-last, which only reorders float sums.


def _ref_channel_attention(x, blk):
    def squeeze_mlp(pooled):
        return conv2d(relu(conv2d(pooled, blk.ca_w1, blk.ca_b1)), blk.ca_w2, blk.ca_b2)

    avg = adaptive_pool(x, 1, 1, "avg")
    mx = adaptive_pool(x, 1, 1, "max")
    return x * sigmoid(squeeze_mlp(avg) + squeeze_mlp(mx))


def _ref_spatial_attention(x, blk, heads):
    blk = with_stand_in_query_key(blk)
    b, c, h, w = x.shape
    d, n = c // heads, h * w

    def split_heads(t):
        return transpose(reshape(t, (b, heads, d, n)), (0, 1, 3, 2))

    q = split_heads(conv2d(x, blk.q_w, blk.q_b))
    k = split_heads(conv2d(x, blk.k_w, blk.k_b))
    v = split_heads(conv2d(x, blk.v_w, blk.v_b))
    weights = softmax(matmul(q, transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(d)), axis=-1)
    z = reshape(transpose(matmul(weights, v), (0, 1, 3, 2)), (b, c, h, w))
    return conv2d(z, blk.o_w, blk.o_b)


def _ref_forward(maps, params):
    cfg = params.config
    x = Tensor(np.ascontiguousarray(maps.transpose(0, 3, 1, 2)))
    x = conv2d(x, params.patch_w, params.patch_b, stride=cfg.patch_size)
    for level, blocks in enumerate(params.levels):
        for blk in blocks:
            x = x + _ref_channel_attention(layer_norm(x, blk.ln_ca, axis=1), blk)
            x = x + _ref_spatial_attention(layer_norm(x, blk.ln_sa, axis=1), blk,
                                           cfg.heads)
            hidden = relu(conv2d(layer_norm(x, blk.ln_ff, axis=1), blk.ff_w1, blk.ff_b1))
            x = x + conv2d(hidden, blk.ff_w2, blk.ff_b2)
        if level < cfg.n_layers - 1:
            tr = params.transitions[level]
            side = x.shape[2] // cfg.downsample_factor
            y = layer_norm(conv2d(x, tr.conv_w, tr.conv_b, padding=1), tr.ln, axis=1)
            x = adaptive_pool(y, side, side, "max")
    feats = reshape(x, (x.shape[0], cfg.embed_channels))
    return matmul(feats, params.head_w) + params.head_b


def _logits_and_grads(run, maps, labels, params):
    named = params.named_parameters()
    zero_grads(named)
    logits = run(maps, params)
    cross_entropy(logits, labels).backward()
    return logits.data, {name: t.grad.copy() for name, t in named.items()}


def test_forward_float64_matches_nchw_reference():
    params = init_model(ModelConfig(), seed=22, dtype=np.float64)
    rng = np.random.default_rng(22)
    maps = rng.uniform(-1, 1, (4, 28, 28, 3))
    labels = np.array([0, 1, 2, 1])
    logits, grads = _logits_and_grads(forward, maps, labels, params)
    ref_logits, ref_grads = _logits_and_grads(_ref_forward, maps, labels, params)
    np.testing.assert_allclose(logits, ref_logits, rtol=1e-9, atol=1e-12)
    for name, ref in ref_grads.items():
        np.testing.assert_allclose(grads[name], ref, rtol=1e-9, atol=1e-12,
                                   err_msg=name)


def test_forward_float32_logits_match_nchw_reference():
    params = init_model(ModelConfig(), seed=23)
    rng = np.random.default_rng(23)
    maps = rand_maps(rng, 8, ModelConfig())
    np.testing.assert_allclose(forward(maps, params).data,
                               _ref_forward(maps, params).data, rtol=0, atol=1e-4)


@pytest.mark.parametrize("part", ["sa", "ca"])
def test_single_position_shortcuts_bit_exact(part):
    """The two 1x1 identities the fused block is built on, against the
    general sub-modules: spatial attention with any query/key is ``o(v(.))``
    with weights of exactly 1, and channel attention's pools pass ``x``
    through, so both MLP branches see ``x`` itself."""
    cfg = ModelConfig()
    params = init_model(cfg, seed=24)
    blk = params.levels[2][0]
    block_params = {name: t for name, t in params.named_parameters().items()
                    if name.startswith("level2.block0.")}
    rng = np.random.default_rng(24)
    x0 = rng.standard_normal((5, 1, 1, cfg.embed_channels)).astype(np.float32)
    g = rng.standard_normal(x0.shape).astype(np.float32)

    def run(fn):
        zero_grads(block_params)
        x = Tensor(x0, requires_grad=True)
        out = fn(x)
        tsum(out * Tensor(g)).backward()
        return out, x.grad, {n: t.grad.copy() for n, t in block_params.items()}

    def squeeze_mlp(t):
        return linear(relu(linear(t, blk.ca_w1, blk.ca_b1)), blk.ca_w2, blk.ca_b2)

    if part == "sa":
        attend = with_stand_in_query_key(blk)
        _, weights = spatial_attention(Tensor(x0), attend, cfg.heads, return_weights=True)
        assert weights.data.tobytes() == np.ones((5, cfg.heads, 1, 1), np.float32).tobytes()
        out, gx, grads = run(lambda x: spatial_attention(x, attend, cfg.heads))
        ref, ref_gx, ref_grads = run(
            lambda x: linear(linear(x, blk.v_w, blk.v_b), blk.o_w, blk.o_b))
    else:
        out, gx, grads = run(lambda x: channel_attention(x, blk))
        ref, ref_gx, ref_grads = run(
            lambda x: x * sigmoid(squeeze_mlp(x) + squeeze_mlp(x)))
    assert out.data.tobytes() == ref.data.tobytes()
    np.testing.assert_array_equal(gx, ref_gx)
    for name, ref_grad in ref_grads.items():
        np.testing.assert_array_equal(grads[name], ref_grad, err_msg=name)


# -- the fused 1x1 block against the composed sub-modules ----------------------------------------
# On the 1x1 top level msa_block records one tape node.  Its reference is
# the composition of channel_attention, spatial_attention and feed_forward
# (tests/reference.py), which must give the same bytes.


def _block_outputs(block, x0, blk, named, heads, g, passes):
    """Output, no_grad output, input gradient and the block's gradients by name."""
    zero_grads(named)
    x = Tensor(x0, requires_grad=True)
    for _ in range(passes):  # later passes accumulate without zero_grads
        out = block(x, blk, heads)
        tsum(out * Tensor(g)).backward()
    with no_grad():
        plain = block(Tensor(x0), blk, heads)
    grads = {name: None if t._grad is None else t._grad.tobytes()
             for name, t in named.items()}
    return out.data.tobytes(), plain.data.tobytes(), x.grad.tobytes(), grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 13, 32])
@pytest.mark.parametrize("passes", [1, 2])
def test_fused_single_position_block_bit_exact(dtype, batch, passes):
    cfg = ModelConfig() if dtype == np.float32 else tiny_config()
    params = init_model(cfg, seed=25, dtype=dtype)
    blk = params.levels[2][0]
    named = {name: t for name, t in params.named_parameters().items()
             if name.startswith("level2.block0.")}
    rng = np.random.default_rng(batch)
    x0 = rng.standard_normal((batch, cfg.embed_channels, 1, 1)).astype(dtype)
    g = rng.standard_normal(x0.shape).astype(dtype)
    fused = _block_outputs(msa_block, x0, blk, named, cfg.heads, g, passes)
    composed = _block_outputs(composed_block, x0, blk, named, cfg.heads, g, passes)
    assert fused == composed
    assert all(grad is not None for grad in fused[3].values())


def _network_outputs(params, maps, labels):
    """Logits, no_grad logits, input gradient and every parameter gradient."""
    named = params.named_parameters()
    zero_grads(named)
    x = Tensor(maps.transpose(0, 3, 1, 2), requires_grad=True)
    logits = forward(x, params)
    cross_entropy(logits, labels).backward()
    with no_grad():
        plain = forward(maps, params)
    return ([logits.data.tobytes(), plain.data.tobytes(), x.grad.tobytes()]
            + [t.grad.tobytes() for t in named.values()])


def _composed_1x1(x, blk):
    return composed_block(x, blk, ModelConfig().heads)  # tiny_config's too


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_network_logits_and_gradients_bit_exact(monkeypatch, dtype):
    cfg = ModelConfig() if dtype == np.float32 else tiny_config()
    params = init_model(cfg, seed=26, dtype=dtype)
    rng = np.random.default_rng(26)
    maps = rng.uniform(-1, 1, (32, 28, 28, 3)).astype(dtype)
    labels = rng.integers(0, 3, 32)
    fused = _network_outputs(params, maps, labels)
    monkeypatch.setattr(model_mod, "_single_position_block", _composed_1x1)
    assert fused == _network_outputs(params, maps, labels)


def test_fused_train_fold_bit_exact(monkeypatch):
    """Three default-config epochs with the fused block and the arena Adam
    give the parameters and loss history of the composed block, which runs
    the full attention path on the 1x1 level, with a per-tensor Adam."""
    cfg = ModelConfig()
    rng = np.random.default_rng(27)
    maps = rng.standard_normal((45, 28, 28, 3)).astype(np.float32)
    labels = rng.integers(0, 3, 45)
    tc = TrainConfig(epochs=3, learning_rate=1e-3, batch_size=32, seed=5)
    params, history = train_fold(maps, labels, cfg, tc)
    monkeypatch.setattr(model_mod, "_single_position_block", _composed_1x1)
    ref, ref_history = reference_train_fold(maps, labels, cfg, tc)
    assert history == ref_history
    ref_named = ref.named_parameters()
    for name, t in params.named_parameters().items():
        assert t.data.tobytes() == ref_named[name].data.tobytes(), name


def test_default_batch_tape_size_pinned():
    """One default-config batch-32 loss records 187 ops, and every parameter
    reaches it."""
    cfg = ModelConfig()
    params = init_model(cfg, seed=28)
    rng = np.random.default_rng(28)
    loss = cross_entropy(forward(rand_maps(rng, 32, cfg), params), rng.integers(0, 3, 32))
    order = loss._topological_order()
    assert sum(node._backward is not None for node in order) == 187
    assert len(order) == 436  # the ops and the leaves they read
    reached = {id(node) for node in order}
    unreached = {name for name, t in params.named_parameters().items()
                 if id(t) not in reached}
    assert unreached == set()


# -- end-to-end gradient check --------------------------------------------------------------------


@pytest.mark.slow
def test_end_to_end_gradients_match_finite_differences():
    # seed chosen so no relu/argmax kink falls inside the 1e-3 FD window
    cfg = tiny_config()
    params = init_model(cfg, seed=0, dtype=np.float64)
    rng = np.random.default_rng(0)
    batch = rng.uniform(-1, 1, (2, 28, 28, 3))
    labels = np.array([0, 2])

    loss = cross_entropy(forward(batch, params), labels)
    loss.backward()

    step = 1e-3
    worst = ("", 0.0)
    for name, tensor in params.named_parameters().items():
        analytic = tensor.grad.copy()
        numeric = np.zeros_like(analytic)
        flat = tensor.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = float(cross_entropy(forward(batch, params), labels).data)
            flat[i] = orig - step
            fm = float(cross_entropy(forward(batch, params), labels).data)
            flat[i] = orig
            nflat[i] = (fp - fm) / (2 * step)
        err = relative_error(analytic, numeric)
        if err > worst[1]:
            worst = (name, err)
        assert err < 1e-3, f"{name}: rel error {err:.2e}"
    print(f"worst end-to-end gradient error: {worst[0]} at {worst[1]:.2e}")
