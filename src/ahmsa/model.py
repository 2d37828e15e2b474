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
import math
import struct
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .data import N_CLASSES
from .errors import ConfigError, ValidationError, check_fields
from .files import replacing
from .tensor import (
    LayerNormParams,
    Tensor,
    _accumulate,
    _first_max,
    _make,
    _normalize,
    _normalize_grads,
    _project,
    _project_grads,
    _sigmoid,
    _softmax,
    _softmax_grads,
    _unbroadcast,
    adaptive_pool,
    conv2d,
    layer_norm,
    matmul,
    reshape,
    transpose,
    xavier_uniform,
)

CHECKPOINT_MAGIC = b"AHMC"
CHECKPOINT_VERSION = 3


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs; defaults give the 28x28x3 -> 3-class network.  One
    level per ``blocks_per_layer`` entry; the patch size makes the top 1x1."""

    h_flow: int = field(default=28, metadata={"rule": "positive"})
    embed_channels: int = field(default=96, metadata={"rule": "positive"})
    heads: int = field(default=3, metadata={"rule": "positive"})
    downsample_factor: int = field(default=2, metadata={"rule": "positive"})
    blocks_per_layer: tuple[int, ...] = field(default=(2, 2, 8),
                                              metadata={"rule": "positive"})
    channel_reduction: int = field(default=4, metadata={"rule": "positive"})
    ffn_expansion: int = field(default=4, metadata={"rule": "positive"})

    def __post_init__(self):
        """Raise a ConfigError listing every violated invariant; the ones that
        tie fields together are checked once every field is valid."""
        if isinstance(self.blocks_per_layer, list):
            object.__setattr__(self, "blocks_per_layer", tuple(self.blocks_per_layer))
        check_fields(self, "model", self._joint_problems)

    @property
    def n_layers(self) -> int:
        return len(self.blocks_per_layer)

    @property
    def grid(self) -> int:
        """Patches per side at level 0, which the downsampling takes to 1x1."""
        return self.downsample_factor ** (self.n_layers - 1)

    @property
    def patch_size(self) -> int:
        return self.h_flow // self.grid

    def grid_at(self, level: int) -> int:
        return self.grid // self.downsample_factor ** level

    def _joint_problems(self) -> list[str]:
        problems = []
        if self.embed_channels % self.heads != 0:
            problems.append(
                f"embed_channels={self.embed_channels} not divisible by heads={self.heads}")
        if self.embed_channels % self.channel_reduction != 0:
            problems.append(
                f"embed_channels={self.embed_channels} not divisible by "
                f"channel_reduction={self.channel_reduction}")
        # past h_flow.bit_length() levels any factor >= 2 overshoots h_flow,
        # so the grid, which could be huge, is not computed
        overshoots = self.downsample_factor > 1 and self.n_layers > self.h_flow.bit_length()
        if overshoots or self.h_flow % self.grid != 0:
            grid = f"more than {self.h_flow}" if overshoots else self.grid
            problems.append(
                f"h_flow={self.h_flow} must be a multiple of the patch grid "
                f"downsample_factor^(levels-1) = {grid} so the top level is 1x1 "
                f"(levels = {self.n_layers} blocks_per_layer entries)")
        return problems


@dataclass
class BlockParams:
    """One attention block: three pre-norms plus its conv weights (on a 1x1
    grid no query/key, as a softmax over one position is 1 whatever they are).
    The field order is the checkpoint's and ``msa_block``'s gradient order."""

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
        """Flat name -> tensor map in the serialization order: the patch embed,
        each level's blocks, the transitions, the head, each in field order."""
        out = {"patch_w": self.patch_w, "patch_b": self.patch_b}
        for li, blocks in enumerate(self.levels):
            for bi, blk in enumerate(blocks):
                out |= _tensors(blk, f"level{li}.block{bi}.")
        for ti, tr in enumerate(self.transitions):
            out |= _tensors(tr, f"transition{ti}.")
        return out | {"head_w": self.head_w, "head_b": self.head_b}


def _tensors(part, prefix: str = "") -> dict[str, Tensor]:
    """``part``'s tensors in field order, keyed by ``prefix`` + field name: a
    layer norm as its gamma then its beta, and no entry for an absent tensor
    (the query/key of a 1x1 block)."""
    out = {}
    for f in fields(part):
        value = getattr(part, f.name)
        if isinstance(value, LayerNormParams):
            out[f"{prefix}{f.name}.gamma"] = value.gamma
            out[f"{prefix}{f.name}.beta"] = value.beta
        elif isinstance(value, Tensor):
            out[prefix + f.name] = value
    return out


def init_model(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Xavier-uniform weights, zero biases, unit layer-norm scales.

    The draw sequence is fixed by the parameter order, so a seed fully
    determines every weight.  The query/key weights of a 1x1 level are drawn
    and dropped, so every other weight keeps the bytes it would have with them.
    """
    rng = np.random.default_rng(seed)

    def tensor(shape, init, kept):
        t = (xavier_uniform(rng, shape, *init, dtype=dtype) if isinstance(init, tuple)
             else Tensor(np.full(shape, init, dtype=dtype), requires_grad=True))
        return t if kept else None

    return _build_model(config, tensor)


def _build_model(config: ModelConfig, tensor) -> ModelParams:
    """The network with each tensor from ``tensor(shape, init, kept)``, called
    in the order of ``named_parameters``: ``init`` is a constant fill or the
    (fan_in, fan_out) of a Xavier-uniform weight.  The query/key tensors of a
    1x1 level, which the network does not hold, are asked for in their place
    with ``kept`` False, and ``tensor`` returns None for them."""
    c = config.embed_channels
    p = config.patch_size

    def conv_weight(c_out, c_in, k, kept=True):
        return tensor((c_out, c_in, k, k), (c_in * k * k, c_out * k * k), kept)

    def zeros(n, kept=True):
        return tensor((n,), 0.0, kept)

    def ln():
        return LayerNormParams(gamma=tensor((c,), 1.0, True), beta=zeros(c))

    def block(level):
        hidden = c // config.channel_reduction
        ffn = c * config.ffn_expansion
        attends = config.grid_at(level) > 1
        return BlockParams(
            ln_ca=ln(),
            ca_w1=conv_weight(hidden, c, 1), ca_b1=zeros(hidden),
            ca_w2=conv_weight(c, hidden, 1), ca_b2=zeros(c),
            ln_sa=ln(),
            q_w=conv_weight(c, c, 1, attends), q_b=zeros(c, attends),
            k_w=conv_weight(c, c, 1, attends), k_b=zeros(c, attends),
            v_w=conv_weight(c, c, 1), v_b=zeros(c),
            o_w=conv_weight(c, c, 1), o_b=zeros(c),
            ln_ff=ln(),
            ff_w1=conv_weight(ffn, c, 1), ff_b1=zeros(ffn),
            ff_w2=conv_weight(c, ffn, 1), ff_b2=zeros(c),
        )

    patch_w = conv_weight(c, 3, p)
    patch_b = zeros(c)
    levels = [[block(level) for _ in range(n)]
              for level, n in enumerate(config.blocks_per_layer)]
    transitions = [
        TransitionParams(conv_w=conv_weight(c, c, 3), conv_b=zeros(c), ln=ln())
        for _ in range(config.n_layers - 1)
    ]
    head_w = tensor((c, N_CLASSES), (c, N_CLASSES), True)
    head_b = zeros(N_CLASSES)
    return ModelParams(config=config, patch_w=patch_w, patch_b=patch_b,
                       levels=levels, transitions=transitions,
                       head_w=head_w, head_b=head_b)


# -- forward pieces -----------------------------------------------------------


def patch_embed(x: Tensor, params: ModelParams) -> Tensor:
    """Strided PxP convolution turning [B,3,H,W] into the patch grid [B,C,H/P,W/P]."""
    cfg = params.config
    if x.shape[1:] != (3, cfg.h_flow, cfg.h_flow):
        raise ValidationError(
            f"expected input [B, 3, {cfg.h_flow}, {cfg.h_flow}], got {x.shape}"
        )
    return conv2d(x, params.patch_w, params.patch_b, stride=cfg.patch_size)


def _mlp(x: np.ndarray, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor):
    """``linear(relu(linear(x, w1, b1)), w2, b2)`` on arrays: the output, and a
    backward giving fresh (input, w1, b1, w2, b2) gradients."""
    hr, rows, k1 = _project(x, w1.data, b1.data)
    np.maximum(hr, 0.0, out=hr)
    out, rows_hr, k2 = _project(hr, w2.data, b2.data)

    def backward(g):
        ghr, gw2, gb2 = _project_grads(g, rows_hr, k2, hr.shape, w2.shape)
        ghr *= hr > 0.0
        gx, gw1, gb1 = _project_grads(ghr, rows, k1, x.shape, w1.shape)
        return gx, gw1, gb1, gw2, gb2

    return out, backward


def msa_block(x: Tensor, blk: BlockParams, heads: int) -> Tensor:
    """Pre-norm residual block, recorded as one tape node.

    Takes and returns [B,C,H,W] and runs channels-last inside: channel
    attention (one MLP on the avg- and on the max-pooled channels gates
    them), multi-head softmax attention over the N = H*W positions, then the
    feed-forward pair.  A block without query/key (a 1x1 level) attends as
    ``z = v``, as a softmax over one position is exactly 1.  It runs the
    numpy operations of the composed sub-modules (``tests/reference.py``)
    in their order and adds each tensor's gradient contributions in the
    order the tape adds them there, so outputs and gradients keep their bytes.
    It departs from them only where no byte can differ: the pools read the
    normalized rows without a window copy, the max pool's backward finds
    each channel's first max by a reduce (``_first_max``) instead of
    argmax, and on one position, where both pools are that position's
    bytes, one MLP pass serves both.
    """
    b, c, hh, ww = x.shape
    n, d = hh * ww, c // heads
    ca_mlp = (blk.ca_w1, blk.ca_b1, blk.ca_w2, blk.ca_b2)
    x0 = np.transpose(x.data, (0, 2, 3, 1))  # [B,H,W,C]
    l1, *norm1 = _normalize(x0, blk.ln_ca, 3)
    l1_rows = l1.reshape(b, n, c)  # [B,N,C]: the pools reduce over the N positions
    if n == 1:
        # one position: both pools are l1's bytes, so one MLP pass serves both
        m, ca_backward = _mlp(l1_rows[:, 0], *ca_mlp)
        gate = _sigmoid(m + m)
    else:
        pooled_max = l1_rows.max(axis=1)
        mlps = [_mlp(l1_rows.mean(axis=1), *ca_mlp), _mlp(pooled_max, *ca_mlp)]
        gate = _sigmoid(mlps[0][0] + mlps[1][0])
    gate = gate.reshape(b, 1, 1, c)
    x1 = x0 + l1 * gate
    l2, *norm2 = _normalize(x1, blk.ln_sa, 3)
    attends = blk.q_w is not None
    qkv = [(blk.q_w, blk.q_b), (blk.k_w, blk.k_b)] if attends else []
    qkv.append((blk.v_w, blk.v_b))
    projected = [_project(l2, w.data, bias.data) for w, bias in qkv]
    zr = projected[-1][0]  # z = v
    if attends:
        q, k, v = (np.transpose(t.reshape(b, n, heads, d), (0, 2, 1, 3))  # [B,h,N,D]
                   for t, _, _ in projected)
        scale = np.asarray(1.0 / np.sqrt(d), dtype=x0.dtype)
        weights = _softmax(np.matmul(q, k.swapaxes(2, 3)) * scale, -1)  # [B,h,N,N]
        zr = np.transpose(np.matmul(weights, v), (0, 2, 1, 3)).reshape(x0.shape)
    o, rows_zr, k_o = _project(zr, blk.o_w.data, blk.o_b.data)
    x2 = x1 + o
    l3, *norm3 = _normalize(x2, blk.ln_ff, 3)
    f, ff_backward = _mlp(l3, blk.ff_w1, blk.ff_b1, blk.ff_w2, blk.ff_b2)
    parents = (x, *_tensors(blk).values())

    def backward(g):
        # each residual stream takes the add's term, then the norm's
        g3 = np.transpose(g, (0, 2, 3, 1))
        gl3, *ff_grads = ff_backward(g3)
        dx2, *ln3_grads = _normalize_grads(gl3, *norm3, 3)
        g2 = _accumulate(g3, dx2)
        gzr, gw_o, gb_o = _project_grads(g2, rows_zr, k_o, x0.shape, blk.o_w.shape)
        gprojected = [gzr]
        if attends:
            gz = np.transpose(gzr.reshape(b, n, heads, d), (0, 2, 1, 3))
            gscores = _softmax_grads(np.matmul(gz, v.swapaxes(2, 3)), weights, -1) * scale
            gprojected = [np.transpose(t, (0, 2, 1, 3)).reshape(x0.shape) for t in (
                np.matmul(gscores, k), np.matmul(q.swapaxes(2, 3), gscores).swapaxes(2, 3),
                np.matmul(weights.swapaxes(2, 3), gz))]
        # l2 takes the Q, K and V terms in that order
        gl2, sa_grads = None, []
        for gt, (_, rows, k2d), (w, _) in zip(gprojected, projected, qkv):
            gin, gw, gb = _project_grads(gt, rows, k2d, l2.shape, w.shape)
            gl2 = gin if gl2 is None else _accumulate(gl2, gin)
            sa_grads += (gw, gb)
        dx1, *ln2_grads = _normalize_grads(gl2, *norm2, 3)
        g1 = _accumulate(g2, dx1)
        # l1 takes the gate product's term, then the avg branch's, the max branch's
        gs = _unbroadcast(g1 * l1, gate.shape) * gate * (1.0 - gate)
        gl1 = g1 * gate
        if n == 1:
            gpooled, *grads = ca_backward(gs)
            gpooled = gpooled.reshape(gate.shape)
            gl1 += gpooled
            gl1 += gpooled
            ca_grads = [a + a for a in grads]
        else:
            (_, avg_backward), (_, max_backward) = mlps
            gavg, *avg_grads = avg_backward(gs)
            gl1 += (gavg / n).reshape(gate.shape)
            gmax, *max_grads = max_backward(gs)
            # the first max of each channel takes the gradient
            first = _first_max(l1_rows, pooled_max[:, None], (1,))
            scatter = np.zeros(l1_rows.shape, dtype=gmax.dtype)
            scatter.put((first + np.arange(0, b * n, n)[:, None]) * c + np.arange(c), gmax)
            gl1 += scatter.reshape(l1.shape)
            ca_grads = [a + m for a, m in zip(avg_grads, max_grads)]
        dx0, *ln1_grads = _normalize_grads(gl1, *norm1, 3)
        return (np.transpose(_accumulate(g1, dx0), (0, 3, 1, 2)), *ln1_grads,
                *ca_grads, *ln2_grads, *sa_grads, gw_o, gb_o, *ln3_grads, *ff_grads)

    return _make(np.transpose(x2 + f, (0, 3, 1, 2)), parents, backward, fresh=True)


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
            f"expected a [B, {config.h_flow}, {config.h_flow}, 3] batch, got {arr.shape}"
        )
    # a [B,3,H,W] view: patch_embed's im2col reads the channels-last memory
    return Tensor(arr.transpose(0, 3, 1, 2), dtype=dtype)


def forward(maps, params: ModelParams, trace: list | None = None) -> Tensor:
    """Run the full network on a batch of feature maps, returning [B, N_CLASSES] logits.

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
    """Magic + version + length-prefixed config JSON + f32 LE tensors in order,
    through ``files.replacing``: ``path`` never holds a partial file."""
    cfg_json = _config_to_json(params.config)
    with replacing(path) as partial, open(partial, "wb") as f:
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
    start = offset = 9 + cfg_len

    # every tensor holds at least one value, and each is checked against the
    # file before it is read, so a config naming a huge model allocates nothing
    def tensor(shape, init, kept):
        nonlocal offset
        if not kept:
            return None
        count = math.prod(shape)
        if offset + 4 * count > len(data):
            raise ValidationError(
                f"{path}: truncated: {len(data) - start} parameter bytes, "
                "fewer than the config needs")
        flat = np.frombuffer(data, dtype="<f4", count=count, offset=offset)
        offset += flat.nbytes
        return Tensor(flat.reshape(shape).copy(), requires_grad=True)

    params = _build_model(config, tensor)
    if offset != len(data):
        raise ValidationError(
            f"{path}: trailing bytes: {len(data) - start} parameter bytes, "
            f"the config needs {offset - start}")
    for name, tensor in params.named_parameters().items():
        if not np.isfinite(tensor.data).all():
            raise ValidationError(f"{path}: non-finite values in parameter {name!r}")
    return params


def tiny_config() -> ModelConfig:
    """Smallest config exercising every code path; used by gradient checks."""
    return replace(ModelConfig(), embed_channels=6, heads=3,
                   blocks_per_layer=(1, 1, 1), channel_reduction=2,
                   ffn_expansion=2)
