"""Straightforward implementations that tests compare the fast paths against."""

from dataclasses import replace

import numpy as np


def per_tensor_adam_step(params, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam step ``t`` applied one parameter at a time.

    ``m`` and ``v`` map parameter names to same-shape moment arrays, updated
    in place together with every ``params[name].data``.
    """
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


def with_stand_in_query_key(blk):
    """``blk``, given constant query/key projections if it has none (a 1x1
    level's block), so attention runs its full path.  The softmax over one
    position is exactly 1 whatever they are, and they receive no gradient."""
    from ahmsa.tensor import Tensor

    if blk.q_w is not None:
        return blk
    w, b = Tensor(blk.v_w.data), Tensor(blk.v_b.data)
    return replace(blk, q_w=w, q_b=b, k_w=w, k_b=b)


def composed_block(x, blk, heads):
    """msa_block as a composition of its sub-modules on every grid size,
    the 1x1 grid included (one tape node per op, and no 1x1 shortcut)."""
    from ahmsa.model import channel_attention, feed_forward, spatial_attention
    from ahmsa.tensor import layer_norm, transpose

    blk = with_stand_in_query_key(blk)
    x = transpose(x, (0, 2, 3, 1))
    x = x + channel_attention(layer_norm(x, blk.ln_ca), blk)
    x = x + spatial_attention(layer_norm(x, blk.ln_sa), blk, heads)
    x = x + feed_forward(layer_norm(x, blk.ln_ff), blk)
    return transpose(x, (0, 3, 1, 2))


def reference_train_fold(maps, labels, model_config, train_config):
    """train_fold's loop with the per-tensor Adam step.  Returns the
    parameters and loss history."""
    from ahmsa.model import forward, init_model
    from ahmsa.tensor import cross_entropy, zero_grads

    params = init_model(model_config, seed=train_config.seed)
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
            per_tensor_adam_step(named, m, v, step, lr=train_config.learning_rate)
            zero_grads(named)
            total += float(loss.data) * len(idx)
        history.append(total / len(labels))
    return params, history
