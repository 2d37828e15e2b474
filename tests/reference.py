"""Straightforward implementations that tests compare the fast paths against."""

import math
from dataclasses import replace

import numpy as np

from ahmsa.errors import DimensionError
from ahmsa.tensor import (
    Tensor,
    _make,
    _project,
    _project_grads,
    adaptive_pool,
    layer_norm,
    matmul,
    relu,
    reshape,
    sigmoid,
    softmax,
    transpose,
)


def per_tensor_adam_step(params, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam step ``t`` applied one parameter at a time, with the bias
    corrections folded into the step size and epsilon (Kingma & Ba 2015,
    section 2), as ``adam_step`` applies them.

    ``m`` and ``v`` map parameter names to same-shape moment arrays, updated
    in place together with every ``params[name].data``.
    """
    root_bc2 = math.sqrt(1.0 - beta2 ** t)
    step_size = lr * root_bc2 / (1.0 - beta1 ** t)
    for name, p in params.items():
        g = p.grad
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        step = m[name] / (np.sqrt(v[name]) + eps * root_bc2)
        p.data -= np.asarray(step * step_size, dtype=p.data.dtype)


def algorithm1_adam_step(params, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """``per_tensor_adam_step`` as Kingma & Ba's Algorithm 1 writes it: both
    moments divided by their bias corrections.  The reference path of
    ``fold_deviation``."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = p.grad
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        step = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
        p.data -= np.asarray(lr * step, dtype=p.data.dtype)


def reduce_normalize(x, params, axis):
    """``tensor._normalize`` with numpy's mean reduce in place of the GEMV
    means.  The reference path of ``fold_deviation``."""
    bshape = [1] * x.ndim
    bshape[axis] = x.shape[axis]
    gb = params.gamma.data.reshape(bshape)
    xhat = x - x.mean(axis=axis, keepdims=True)
    var = np.square(xhat).mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(params.epsilon, dtype=x.dtype))
    xhat *= inv
    return xhat * gb + params.beta.data.reshape(bshape), xhat, inv, gb


def reduce_normalize_grads(g, xhat, inv, gb, axis):
    """``tensor._normalize_grads`` with numpy's mean reduce."""
    reduce_axes = tuple(i for i in range(g.ndim) if i != axis)
    dxhat = g * gb
    dx = inv * (
        dxhat - dxhat.mean(axis=axis, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=axis, keepdims=True)
    )
    return dx, (g * xhat).sum(axis=reduce_axes), g.sum(axis=reduce_axes)


def argmax_pool_backward(x, out_h, out_w, g):
    """``tensor._pool_reshape``'s max backward by ``argmax`` on a transposed
    copy of the windows and ``np.put_along_axis``, and the memory layout
    that chain gives the result."""
    b, c, h, w = x.shape
    kh, kw = h // out_h, w // out_w
    flat = x.reshape(b, c, out_h, kh, out_w, kw).transpose(0, 1, 2, 4, 3, 5).reshape(
        b, c, out_h, out_w, kh * kw)
    gflat = np.zeros_like(flat)
    np.put_along_axis(gflat, flat.argmax(axis=-1)[..., None], g[..., None], axis=-1)
    return gflat.reshape(b, c, out_h, out_w, kh, kw).transpose(
        0, 1, 2, 4, 3, 5).reshape(b, c, h, w)


def with_stand_in_query_key(blk):
    """``blk``, given constant query/key projections if it has none (a 1x1
    level's block), so attention runs its full path.  The softmax over one
    position is exactly 1 whatever they are, and they receive no gradient."""
    if blk.q_w is not None:
        return blk
    w, b = Tensor(blk.v_w.data), Tensor(blk.v_b.data)
    return replace(blk, q_w=w, q_b=b, k_w=w, k_b=b)


# -- the attention block composed from tape ops: the oracle of model.msa_block --


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Pointwise projection of the last axis: [..., Cin] -> [..., Cout].

    ``weight`` is a [Cout,Cin,1,1] 1x1-conv kernel, so channels-last
    activations of any leading shape become one [rows,Cin] @ [Cin,Cout] GEMM.
    """
    c_out = weight.shape[0]
    c_in = x.shape[-1]
    if weight.ndim != 4 or weight.shape[1:] != (c_in, 1, 1):
        raise DimensionError(
            f"linear weight must be [Cout, {c_in}, 1, 1] for input {x.shape}, "
            f"got {weight.shape}"
        )
    if bias is not None and bias.shape != (c_out,):
        raise DimensionError(
            f"linear bias shape {bias.shape} does not match {c_out} output channels"
        )
    out, rows, k2d = _project(x.data, weight.data,
                              None if bias is None else bias.data)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        return _project_grads(g, rows, k2d, x.shape, weight.shape)[:len(parents)]

    return _make(out, parents, backward, fresh=True)


def channel_attention(x, blk):
    """Gate the channels of [B,H,W,C] by sigmoid(MLP(avgpool) + MLP(maxpool)).

    The MLP weights are shared by both branches.
    """

    def squeeze_mlp(pooled):
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


def spatial_attention(x, blk, heads, return_weights=False):
    """Multi-head scaled dot-product attention over the N = H*W positions of
    [B,H,W,C]."""
    b, h, w, c = x.shape
    d = c // heads
    n = h * w

    def split_heads(t):
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


def feed_forward(x, blk):
    """Position-wise expand/contract pair of projections over [B,H,W,C]."""
    return linear(relu(linear(x, blk.ff_w1, blk.ff_b1)), blk.ff_w2, blk.ff_b2)


def composed_block(x, blk, heads):
    """msa_block as a composition of its sub-modules on every grid size,
    one tape node per op; a 1x1 block attends through stand-in query/key."""
    blk = with_stand_in_query_key(blk)
    x = transpose(x, (0, 2, 3, 1))
    x = x + channel_attention(layer_norm(x, blk.ln_ca), blk)
    x = x + spatial_attention(layer_norm(x, blk.ln_sa), blk, heads)
    x = x + feed_forward(layer_norm(x, blk.ln_ff), blk)
    return transpose(x, (0, 3, 1, 2))


def reference_train_fold(maps, labels, model_config, train_config,
                         dtype=np.float32, adam_step=per_tensor_adam_step):
    """train_fold's loop at ``dtype`` with a per-tensor Adam step.  Returns
    the parameters and loss history."""
    from ahmsa.model import forward, init_model
    from ahmsa.tensor import cross_entropy, zero_grads

    params = init_model(model_config, seed=train_config.seed, dtype=dtype)
    named = params.named_parameters()
    m = {n: np.zeros_like(t.data) for n, t in named.items()}
    v = {n: np.zeros_like(t.data) for n, t in named.items()}
    order_rng = np.random.default_rng(train_config.seed)
    step, history = 0, []
    for _ in range(train_config.epochs):
        order = order_rng.permutation(len(labels))
        total = 0.0
        for start in range(0, len(labels), train_config.batch_size):
            idx = order[start:start + train_config.batch_size]
            loss = cross_entropy(forward(maps[idx], params), labels[idx])
            loss.backward()
            step += 1
            adam_step(named, m, v, step, lr=train_config.learning_rate)
            zero_grads(named)
            total += float(loss.data) * len(idx)
        history.append(total / len(labels))
    return params, history


def fold_deviation(dtype, monkeypatch):
    """How far training strays from the reference path at ``dtype``.

    The reference path is the program with each admitted fast path swapped
    back for the expression it replaced: numpy's mean reduce in every layer
    norm (the names ``model`` and ``tensor`` bind) and Algorithm 1's Adam.
    Both train one fixed split: 45 ``standard_normal`` maps (seed 27), the
    default model, batch 32, lr 1e-4, 8 epochs, seed 3; float32 runs
    ``train_fold`` itself, float64 the same loop in ``reference_train_fold``.
    Returns the max relative deviation of the per-epoch loss history, the max
    absolute deviation of the logits of 9 held-out maps, whether their argmax
    agrees, and the final parameter drift (max absolute difference).
    """
    from ahmsa import model, tensor
    from ahmsa.model import ModelConfig, forward
    from ahmsa.train import TrainConfig, train_fold

    rng = np.random.default_rng(27)
    maps = rng.standard_normal((54, 28, 28, 3)).astype(dtype)
    labels = rng.integers(0, 3, 54)
    train, held_out = slice(0, 45), slice(45, 54)
    args = (maps[train], labels[train], ModelConfig(),
            TrainConfig(epochs=8, learning_rate=1e-4, batch_size=32, seed=3))

    def logits(params):
        with tensor.no_grad():
            return forward(maps[held_out], params).data

    if dtype == np.float32:
        params, history = train_fold(*args)
    else:
        params, history = reference_train_fold(*args, dtype=dtype)
    out = logits(params)
    with monkeypatch.context() as patch:
        for module in (model, tensor):
            patch.setattr(module, "_normalize", reduce_normalize)
            patch.setattr(module, "_normalize_grads", reduce_normalize_grads)
        ref, ref_history = reference_train_fold(*args, dtype=dtype,
                                                adam_step=algorithm1_adam_step)
        ref_out = logits(ref)
    ref_named = ref.named_parameters()
    history, ref_history = np.array(history), np.array(ref_history)
    return {
        "loss": float(np.max(np.abs(history - ref_history) / np.abs(ref_history))),
        "logits": float(np.abs(out - ref_out).max()),
        "same_argmax": bool((out.argmax(axis=1) == ref_out.argmax(axis=1)).all()),
        "drift": max(float(np.abs(t.data - ref_named[name].data).max())
                     for name, t in params.named_parameters().items()),
    }
