"""The recognition network: patch embedding, a hierarchy of attention levels
joined by adaptive downsampling, and a linear classification head.

Each level stacks pre-normalized residual blocks of three sub-modules:
channel attention (gating from pooled per-channel statistics), multi-head
spatial attention over the patch grid, and a position-wise feed-forward pair
of projections.  Blocks take and return [B,C,H,W] but run channels-last
inside, so every projection is one GEMM over the [B*H*W, C] rows.  Between
levels, a 3x3 convolution + layer norm + adaptive max pooling halve the grid
until a single patch remains, which the head maps to class logits.

No positional encoding is used, so every block is equivariant under
permutations of grid positions.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, ValidationError, check_fields
from .tensor import (
    LayerNormParams,
    Tensor,
    _make,
    _normalize,
    _normalize_grads,
    _project,
    _project_grads,
    _sigmoid,
    adaptive_pool,
    conv2d,
    layer_norm,
    linear,
    matmul,
    relu,
    reshape,
    sigmoid,
    softmax,
    transpose,
    xavier_uniform,
)

CHECKPOINT_MAGIC = b"AHMC"
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs; defaults give the 28x28x3 -> 3-class network."""

    h_flow: int = field(default=28, metadata={"rule": "positive"})
    w_flow: int = field(default=28, metadata={"rule": "positive"})
    patch_size: int = field(default=7, metadata={"rule": "positive"})
    embed_channels: int = field(default=96, metadata={"rule": "positive"})
    heads: int = field(default=3, metadata={"rule": "positive"})
    n_layers: int = field(default=3, metadata={"rule": "positive"})
    downsample_factor: int = field(default=2, metadata={"rule": "positive"})
    blocks_per_layer: tuple[int, ...] = field(default=(2, 2, 8),
                                              metadata={"rule": "positive"})
    n_classes: int = field(default=3, metadata={"rule": ">= 2"})
    channel_reduction: int = field(default=4, metadata={"rule": "positive"})
    ffn_expansion: int = field(default=4, metadata={"rule": "positive"})

    def __post_init__(self):
        """Raise a ConfigError listing every violated invariant; the ones that
        tie fields together are checked once every field is valid."""
        if isinstance(self.blocks_per_layer, list):
            object.__setattr__(self, "blocks_per_layer", tuple(self.blocks_per_layer))
        check_fields(self, "model", self._joint_problems)

    @property
    def grid(self) -> int:
        return self.h_flow // self.patch_size

    def grid_at(self, level: int) -> int:
        return self.grid // self.downsample_factor ** level

    def _joint_problems(self) -> list[str]:
        problems = []
        if self.h_flow != self.w_flow:
            problems.append("h_flow and w_flow must match (square patch grid)")
        if self.embed_channels % self.heads != 0:
            problems.append(
                f"embed_channels={self.embed_channels} not divisible by heads={self.heads}")
        if self.embed_channels % self.channel_reduction != 0:
            problems.append(
                f"embed_channels={self.embed_channels} not divisible by "
                f"channel_reduction={self.channel_reduction}")
        if self.h_flow % self.patch_size != 0 or self.w_flow % self.patch_size != 0:
            problems.append(
                f"h_flow x w_flow = {self.h_flow}x{self.w_flow} not divisible by "
                f"patch_size={self.patch_size}")
        else:
            # past grid.bit_length() levels any factor >= 2 overshoots the
            # grid; the power is then not computed, as it could be huge
            if self.downsample_factor > 1 and \
                    self.n_layers - 1 > self.grid.bit_length():
                top = f"more than {self.grid}"
            else:
                top = self.downsample_factor ** (self.n_layers - 1)
            if self.grid != top:
                problems.append(
                    f"n_layers={self.n_layers}: patch grid {self.grid} must equal "
                    f"downsample_factor^(n_layers-1) = {top} so the top level is 1x1")
        if len(self.blocks_per_layer) != self.n_layers:
            problems.append(
                f"blocks_per_layer has {len(self.blocks_per_layer)} entries "
                f"for n_layers={self.n_layers}")
        return problems


@dataclass
class BlockParams:
    """One attention block: three pre-norms plus its conv weights (on a 1x1
    grid no query/key, as a softmax over one position is 1 whatever they are)."""

    ln_ca: LayerNormParams
    ca_w1: Tensor
    ca_b1: Tensor
    ca_w2: Tensor
    ca_b2: Tensor
    ln_sa: LayerNormParams
    q_w: Tensor | None
    q_b: Tensor | None
    k_w: Tensor | None
    k_b: Tensor | None
    v_w: Tensor
    v_b: Tensor
    o_w: Tensor
    o_b: Tensor
    ln_ff: LayerNormParams
    ff_w1: Tensor
    ff_b1: Tensor
    ff_w2: Tensor
    ff_b2: Tensor


@dataclass
class TransitionParams:
    """Between-level downsampling: 3x3 conv then layer norm (pooling is fixed)."""

    conv_w: Tensor
    conv_b: Tensor
    ln: LayerNormParams


@dataclass
class ModelParams:
    """Every learnable tensor, structured by pipeline stage."""

    config: ModelConfig
    patch_w: Tensor
    patch_b: Tensor
    levels: list[list[BlockParams]]
    transitions: list[TransitionParams]
    head_w: Tensor
    head_b: Tensor

    def named_parameters(self) -> dict[str, Tensor]:
        """Flat name -> tensor map in the canonical serialization order."""
        out: dict[str, Tensor] = {
            "patch_embed.weight": self.patch_w,
            "patch_embed.bias": self.patch_b,
        }
        for li, blocks in enumerate(self.levels):
            for bi, blk in enumerate(blocks):
                prefix = f"level{li}.block{bi}"
                out[f"{prefix}.ln_ca.gamma"] = blk.ln_ca.gamma
                out[f"{prefix}.ln_ca.beta"] = blk.ln_ca.beta
                out[f"{prefix}.ca.w1"] = blk.ca_w1
                out[f"{prefix}.ca.b1"] = blk.ca_b1
                out[f"{prefix}.ca.w2"] = blk.ca_w2
                out[f"{prefix}.ca.b2"] = blk.ca_b2
                out[f"{prefix}.ln_sa.gamma"] = blk.ln_sa.gamma
                out[f"{prefix}.ln_sa.beta"] = blk.ln_sa.beta
                if blk.q_w is not None:
                    out[f"{prefix}.sa.q_w"] = blk.q_w
                    out[f"{prefix}.sa.q_b"] = blk.q_b
                    out[f"{prefix}.sa.k_w"] = blk.k_w
                    out[f"{prefix}.sa.k_b"] = blk.k_b
                out[f"{prefix}.sa.v_w"] = blk.v_w
                out[f"{prefix}.sa.v_b"] = blk.v_b
                out[f"{prefix}.sa.o_w"] = blk.o_w
                out[f"{prefix}.sa.o_b"] = blk.o_b
                out[f"{prefix}.ln_ff.gamma"] = blk.ln_ff.gamma
                out[f"{prefix}.ln_ff.beta"] = blk.ln_ff.beta
                out[f"{prefix}.ff.w1"] = blk.ff_w1
                out[f"{prefix}.ff.b1"] = blk.ff_b1
                out[f"{prefix}.ff.w2"] = blk.ff_w2
                out[f"{prefix}.ff.b2"] = blk.ff_b2
        for ti, tr in enumerate(self.transitions):
            out[f"transition{ti}.conv.weight"] = tr.conv_w
            out[f"transition{ti}.conv.bias"] = tr.conv_b
            out[f"transition{ti}.ln.gamma"] = tr.ln.gamma
            out[f"transition{ti}.ln.beta"] = tr.ln.beta
        out["head.weight"] = self.head_w
        out["head.bias"] = self.head_b
        return out


def init_model(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Xavier-uniform weights, zero biases, unit layer-norm scales.

    The draw sequence is fixed by the parameter order, so a seed fully
    determines every weight.  The query/key weights of a 1x1 level are drawn
    and dropped, so every other weight keeps the bytes it would have with them.
    """
    rng = np.random.default_rng(seed)
    c = config.embed_channels
    p = config.patch_size

    def conv_weight(c_out, c_in, k):
        return xavier_uniform(rng, (c_out, c_in, k, k),
                              fan_in=c_in * k * k, fan_out=c_out * k * k,
                              dtype=dtype)

    def zeros(*shape):
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)

    def ln():
        return LayerNormParams(gamma=ones(c), beta=zeros(c))

    def block(level):
        hidden = c // config.channel_reduction
        ffn = c * config.ffn_expansion
        blk = BlockParams(
            ln_ca=ln(),
            ca_w1=conv_weight(hidden, c, 1), ca_b1=zeros(hidden),
            ca_w2=conv_weight(c, hidden, 1), ca_b2=zeros(c),
            ln_sa=ln(),
            q_w=conv_weight(c, c, 1), q_b=zeros(c),
            k_w=conv_weight(c, c, 1), k_b=zeros(c),
            v_w=conv_weight(c, c, 1), v_b=zeros(c),
            o_w=conv_weight(c, c, 1), o_b=zeros(c),
            ln_ff=ln(),
            ff_w1=conv_weight(ffn, c, 1), ff_b1=zeros(ffn),
            ff_w2=conv_weight(c, ffn, 1), ff_b2=zeros(c),
        )
        if config.grid_at(level) == 1:
            blk.q_w = blk.q_b = blk.k_w = blk.k_b = None
        return blk

    patch_w = conv_weight(c, 3, p)
    patch_b = zeros(c)
    levels = [[block(level) for _ in range(n)]
              for level, n in enumerate(config.blocks_per_layer)]
    transitions = [
        TransitionParams(conv_w=conv_weight(c, c, 3), conv_b=zeros(c), ln=ln())
        for _ in range(config.n_layers - 1)
    ]
    head_w = xavier_uniform(rng, (c, config.n_classes),
                            fan_in=c, fan_out=config.n_classes, dtype=dtype)
    head_b = zeros(config.n_classes)
    return ModelParams(config=config, patch_w=patch_w, patch_b=patch_b,
                       levels=levels, transitions=transitions,
                       head_w=head_w, head_b=head_b)


def parameter_count(config: ModelConfig) -> int:
    """Number of learnable scalars ``init_model(config)`` creates, from shapes alone."""
    c = config.embed_channels
    hidden = c // config.channel_reduction
    ffn = c * config.ffn_expansion
    norm = 2 * c
    block = (3 * norm + 2 * hidden * c + hidden + c  # channel-attention MLP
             + 2 * (c * c + c)  # v, o
             + 2 * ffn * c + ffn + c)
    query_key = 2 * (c * c + c)  # only on levels wider than 1x1
    wide_blocks = sum(n for level, n in enumerate(config.blocks_per_layer)
                      if config.grid_at(level) > 1)
    transition = 9 * c * c + c + norm
    return (3 * config.patch_size ** 2 * c + c
            + sum(config.blocks_per_layer) * block + wide_blocks * query_key
            + (config.n_layers - 1) * transition
            + c * config.n_classes + config.n_classes)


# -- forward pieces -----------------------------------------------------------


def patch_embed(x: Tensor, params: ModelParams) -> Tensor:
    """Strided PxP convolution turning [B,3,H,W] into the patch grid [B,C,H/P,W/P]."""
    cfg = params.config
    if x.shape[1:] != (3, cfg.h_flow, cfg.w_flow):
        raise ValidationError(
            f"expected input [B, 3, {cfg.h_flow}, {cfg.w_flow}], got {x.shape}"
        )
    return conv2d(x, params.patch_w, params.patch_b, stride=cfg.patch_size)


def channel_attention(x: Tensor, blk: BlockParams) -> Tensor:
    """Gate the channels of [B,H,W,C] by sigmoid(MLP(avgpool) + MLP(maxpool)).

    The MLP weights are shared by both branches.
    """

    def squeeze_mlp(pooled: Tensor) -> Tensor:
        hidden = relu(linear(pooled, blk.ca_w1, blk.ca_b1))
        return linear(hidden, blk.ca_w2, blk.ca_b2)

    b, h, w, c = x.shape
    # [B,1,N,C] views pooled to [B,1,1,C]: one window per channel over all N
    # positions
    positions = (b, 1, h * w, c)
    avg = adaptive_pool(reshape(x, positions), 1, c, "avg")
    mx = adaptive_pool(reshape(x, positions), 1, c, "max")
    weights = sigmoid(squeeze_mlp(avg) + squeeze_mlp(mx))  # [B,1,1,C]
    return x * weights


def spatial_attention(x: Tensor, blk: BlockParams, heads: int,
                      return_weights: bool = False):
    """Multi-head scaled dot-product attention over the N = H*W positions of
    [B,H,W,C]."""
    b, h, w, c = x.shape
    d = c // heads
    n = h * w

    def split_heads(t: Tensor) -> Tensor:
        return transpose(reshape(t, (b, n, heads, d)), (0, 2, 1, 3))  # [B,h,N,D]

    q = split_heads(linear(x, blk.q_w, blk.q_b))
    k = split_heads(linear(x, blk.k_w, blk.k_b))
    v = split_heads(linear(x, blk.v_w, blk.v_b))
    scores = matmul(q, transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(d))
    weights = softmax(scores, axis=-1)  # [B,h,N,N]
    z = matmul(weights, v)  # [B,h,N,D]
    z = reshape(transpose(z, (0, 2, 1, 3)), (b, h, w, c))
    out = linear(z, blk.o_w, blk.o_b)
    if return_weights:
        return out, weights
    return out


def feed_forward(x: Tensor, blk: BlockParams) -> Tensor:
    """Position-wise expand/contract pair of projections over [B,H,W,C]."""
    return linear(relu(linear(x, blk.ff_w1, blk.ff_b1)), blk.ff_w2, blk.ff_b2)


def _single_position_block(x: Tensor, blk: BlockParams) -> Tensor:
    """``msa_block`` on a 1x1 grid, recorded as one tape node.

    It runs the numpy operations of the composed block in the same order:
    channel attention's MLP once, because both of its pools are the identity
    (``s + s`` and the doubled weight gradients are exact), and spatial
    attention as ``o(v(.))``, as its softmax over one position is exactly 1.
    The backward adds every tensor's gradient contributions in the order the
    tape's reverse topological walk adds them for the composed block, so
    logits and gradients are bit-identical.
    """
    x0 = np.transpose(x.data, (0, 2, 3, 1))  # [B,1,1,C]
    l1, xhat1, inv1, gb1 = _normalize(x0, blk.ln_ca, 3)
    h, rows_l1, k_h = _project(l1, blk.ca_w1.data, blk.ca_b1.data)
    hr = np.maximum(h, 0.0)
    s, rows_hr, k_s = _project(hr, blk.ca_w2.data, blk.ca_b2.data)
    gate = _sigmoid(s + s)
    x1 = x0 + l1 * gate
    l2, xhat2, inv2, gb2 = _normalize(x1, blk.ln_sa, 3)
    v, rows_l2, k_v = _project(l2, blk.v_w.data, blk.v_b.data)
    o, rows_v, k_o = _project(v, blk.o_w.data, blk.o_b.data)
    x2 = x1 + o
    l3, xhat3, inv3, gb3 = _normalize(x2, blk.ln_ff, 3)
    f, rows_l3, k_f = _project(l3, blk.ff_w1.data, blk.ff_b1.data)
    fr = np.maximum(f, 0.0)
    f2, rows_fr, k_f2 = _project(fr, blk.ff_w2.data, blk.ff_b2.data)
    parents = (x, blk.ln_ca.gamma, blk.ln_ca.beta, blk.ca_w1, blk.ca_b1,
               blk.ca_w2, blk.ca_b2, blk.ln_sa.gamma, blk.ln_sa.beta,
               blk.v_w, blk.v_b, blk.o_w, blk.o_b, blk.ln_ff.gamma, blk.ln_ff.beta,
               blk.ff_w1, blk.ff_b1, blk.ff_w2, blk.ff_b2)

    def backward(g):
        g3 = np.transpose(g, (0, 2, 3, 1))
        # feed-forward: x2 collects g3 and the norm's input gradient
        gfr, gw_f2, gb_f2 = _project_grads(g3, rows_fr, k_f2, fr.shape,
                                           blk.ff_w2.shape)
        gl3, gw_f, gb_f = _project_grads(gfr * (f > 0.0), rows_l3, k_f, l3.shape,
                                         blk.ff_w1.shape)
        dx2, dgamma3, dbeta3 = _normalize_grads(gl3, xhat3, inv3, gb3, 3)
        g2 = g3 + dx2
        # spatial attention: o(v(.))
        gv, gw_o, gb_o = _project_grads(g2, rows_v, k_o, v.shape, blk.o_w.shape)
        gl2, gw_v, gb_v = _project_grads(gv, rows_l2, k_v, l2.shape, blk.v_w.shape)
        dx1, dgamma2, dbeta2 = _normalize_grads(gl2, xhat2, inv2, gb2, 3)
        g1 = g2 + dx1
        # channel attention: both MLP branches return the same arrays; l1
        # collects the gate product's term first, then one per branch
        ggate = g1 * l1
        gs = ggate * gate * (1.0 - gate)
        ghr, gw_s, gb_s = _project_grads(gs, rows_hr, k_s, hr.shape, blk.ca_w2.shape)
        gl1_branch, gw_h, gb_h = _project_grads(ghr * (h > 0.0), rows_l1, k_h,
                                                l1.shape, blk.ca_w1.shape)
        gl1 = g1 * gate + gl1_branch
        gl1 += gl1_branch
        dx0, dgamma1, dbeta1 = _normalize_grads(gl1, xhat1, inv1, gb1, 3)
        return (np.transpose(g1 + dx0, (0, 3, 1, 2)), dgamma1, dbeta1,
                gw_h + gw_h, gb_h + gb_h, gw_s + gw_s, gb_s + gb_s,
                dgamma2, dbeta2, gw_v, gb_v, gw_o, gb_o,
                dgamma3, dbeta3, gw_f, gb_f, gw_f2, gb_f2)

    return _make(np.transpose(x2 + f2, (0, 3, 1, 2)), parents, backward, fresh=True)


def msa_block(x: Tensor, blk: BlockParams, heads: int) -> Tensor:
    """Pre-norm residual composition of the three sub-modules.

    Takes and returns [B,C,H,W]; the norms and sub-modules run channels-last.
    A 1x1 grid runs as one fused tape node (``_single_position_block``).
    """
    if x.shape[2] * x.shape[3] == 1:
        return _single_position_block(x, blk)
    x = transpose(x, (0, 2, 3, 1))
    x = x + channel_attention(layer_norm(x, blk.ln_ca), blk)
    x = x + spatial_attention(layer_norm(x, blk.ln_sa), blk, heads)
    x = x + feed_forward(layer_norm(x, blk.ln_ff), blk)
    return transpose(x, (0, 3, 1, 2))


def downsample(x: Tensor, tr: TransitionParams, factor: int) -> Tensor:
    """3x3 conv -> layer norm -> adaptive max pool shrinking the grid by `factor`.

    Takes and returns [B,C,H,W].  The norm reduces over the contiguous
    channel axis of the conv's channels-last output, and the pool keeps that
    memory layout, which the next block's channels-last view then reads.
    """
    _, _, h, w = x.shape
    y = conv2d(x, tr.conv_w, tr.conv_b, stride=1, padding=1)
    y = layer_norm(transpose(y, (0, 2, 3, 1)), tr.ln)
    return adaptive_pool(transpose(y, (0, 3, 1, 2)), h // factor, w // factor, "max")


def _as_input_tensor(maps, config: ModelConfig, dtype) -> Tensor:
    """Accept a [B,H,W,3] channel-last batch (array) or a ready [B,3,H,W] Tensor."""
    if isinstance(maps, Tensor):
        return maps
    arr = np.asarray(maps)
    if arr.ndim != 4 or arr.shape[3] != 3:
        raise ValidationError(
            f"expected a [B, {config.h_flow}, {config.w_flow}, 3] batch, got {arr.shape}"
        )
    # a [B,3,H,W] view: patch_embed's im2col reads the channels-last memory
    return Tensor(arr.transpose(0, 3, 1, 2), dtype=dtype)


def forward(maps, params: ModelParams, trace: list | None = None) -> Tensor:
    """Run the full network on a batch of feature maps, returning [B, n_classes] logits.

    ``trace``, when given, collects the shape after every pipeline stage.
    """
    cfg = params.config
    x = _as_input_tensor(maps, cfg, params.patch_w.dtype)
    if x.shape[0] < 1:
        raise ValidationError("batch must be non-empty")
    if trace is not None:
        trace.append(tuple(x.shape))
    x = patch_embed(x, params)
    if trace is not None:
        trace.append(tuple(x.shape))
    for level, blocks in enumerate(params.levels):
        for blk in blocks:
            x = msa_block(x, blk, cfg.heads)
        if level < cfg.n_layers - 1:
            x = downsample(x, params.transitions[level], cfg.downsample_factor)
            if trace is not None:
                trace.append(tuple(x.shape))
    feats = reshape(x, (x.shape[0], cfg.embed_channels))
    logits = matmul(feats, params.head_w) + params.head_b
    if trace is not None:
        trace.append(tuple(logits.shape))
    return logits


# -- checkpoint serialization -----------------------------------------------------


def _config_to_json(config: ModelConfig) -> bytes:
    payload = {f.name: getattr(config, f.name) for f in fields(config)}
    payload["blocks_per_layer"] = list(payload["blocks_per_layer"])
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def save_checkpoint(path, params: ModelParams) -> None:
    """Magic + version + length-prefixed config JSON + f32 LE tensors in order."""
    cfg_json = _config_to_json(params.config)
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<B", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(cfg_json)))
        f.write(cfg_json)
        for tensor in params.named_parameters().values():
            f.write(np.ascontiguousarray(tensor.data, dtype="<f4").tobytes())


def load_checkpoint(path) -> ModelParams:
    from pathlib import Path

    data = Path(path).read_bytes()
    if len(data) < 9:
        raise ValidationError(
            f"{path}: {len(data)} bytes, shorter than the 9-byte checkpoint header")
    if data[:4] != CHECKPOINT_MAGIC:
        raise ValidationError(f"{path}: bad checkpoint magic {data[:4]!r}")
    version = data[4]
    if version != CHECKPOINT_VERSION:
        raise ValidationError(f"{path}: unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack_from("<I", data, 5)
    if 9 + cfg_len > len(data):
        raise ValidationError(
            f"{path}: config block of {cfg_len} bytes runs past the end of the file")
    cfg_raw = data[9:9 + cfg_len]
    try:
        cfg_dict = json.loads(cfg_raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"{path}: corrupt config block: {exc}") from exc
    if not isinstance(cfg_dict, dict):
        raise ValidationError(
            f"{path}: config block must be a JSON object, got {type(cfg_dict).__name__}")
    known = {f.name for f in fields(ModelConfig)}
    unknown = set(cfg_dict) - known
    if unknown:
        raise ValidationError(f"{path}: unknown config keys {sorted(unknown)}")
    try:
        config = ModelConfig(**cfg_dict)
    except ConfigError as exc:
        raise ValidationError(f"{path}: invalid config: {exc}") from exc
    offset = 9 + cfg_len
    # checked before init_model, so a config naming a huge model allocates nothing
    expected = 4 * parameter_count(config)
    if len(data) - offset != expected:
        problem = "truncated" if len(data) - offset < expected else "trailing bytes"
        raise ValidationError(
            f"{path}: {problem}: {len(data) - offset} parameter bytes, "
            f"the config needs {expected}")
    params = init_model(config, seed=0)
    for name, tensor in params.named_parameters().items():
        flat = np.frombuffer(data, dtype="<f4", count=tensor.data.size,
                             offset=offset)
        if not np.isfinite(flat).all():
            raise ValidationError(f"{path}: non-finite values in parameter {name!r}")
        tensor.data = flat.reshape(tensor.data.shape).copy()
        offset += tensor.data.size * 4
    return params


def tiny_config() -> ModelConfig:
    """Smallest config exercising every code path; used by gradient checks."""
    return replace(ModelConfig(), embed_channels=6, heads=3,
                   blocks_per_layer=(1, 1, 1), channel_reduction=2,
                   ffn_expansion=2)
