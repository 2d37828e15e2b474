"""Straightforward implementations that tests compare the fast paths against."""

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
