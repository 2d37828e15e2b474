"""Dense-tensor numerics with reverse-mode automatic differentiation.

Tensors wrap numpy float buffers and record a dynamic tape: every operation
that touches a ``requires_grad`` tensor stores its parents and a closure
mapping the output gradient to per-parent gradients.  ``Tensor.backward()``
walks the tape in reverse topological order, accumulates the contributions of
all consumers of a tensor, and adds the result into its ``grad`` buffer, so
repeated backward passes without zeroing stack additively.

Two precisions are supported: float32 (the training default) and float64
(used by the finite-difference gradient checks, where float32 rounding would
drown the comparison).  Output dtype follows the inputs.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, UsageError, ValidationError

DEFAULT_DTYPE = np.float32

# One flag per process: the tape never runs in threads (LOSO folds run in
# forked processes, each with its own copy).
_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block; nests, and restores on exit."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """N-dimensional float array, optionally participating in the gradient tape.

    ``grad`` is a same-shape buffer present iff ``requires_grad``; it starts at
    zero, is allocated lazily, and accumulates across backward passes until
    explicitly zeroed.  Backward records gradient totals on tape leaves (the
    tensors you created directly, e.g. parameters and inputs).
    """

    __slots__ = ("data", "_grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self._grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def grad(self) -> np.ndarray | None:
        if self.requires_grad and self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value) -> None:
        self._grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        # drop the buffer; the lazy getter recreates zeros on demand
        self._grad = None

    def backward(self) -> None:
        """Populate ``grad`` of every requires_grad leaf feeding this scalar."""
        if self.data.size != 1:
            raise UsageError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        if not self.requires_grad:
            return
        order = self._topological_order()
        # Per-call accumulation buffers; leaf .grad receives the finished totals.
        # A first contribution is kept as returned: it may alias g, another
        # contribution or a closure's saved array, so it is never written.
        # The second becomes a fresh sum that later contributions add into.
        pending: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        owned: set[int] = set()
        for node in reversed(order):
            key = id(node)
            g = pending.pop(key, None)
            if g is None:
                continue
            if node._backward is None:
                if node._grad is None:
                    node._grad = g if key in owned else g.copy()
                else:
                    node._grad += g
                continue
            for parent, contribution in zip(node._parents, node._backward(g)):
                if contribution is None or not parent.requires_grad:
                    continue
                pkey = id(parent)
                existing = pending.get(pkey)
                if existing is None:
                    pending[pkey] = contribution
                elif pkey in owned:
                    existing += contribution
                else:
                    total = np.empty_like(existing)
                    np.add(existing, contribution, out=total)
                    pending[pkey] = total
                    owned.add(pkey)

    def _topological_order(self) -> list["Tensor"]:
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return order

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, _coerce(other, self.dtype))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _coerce(other, self.dtype))

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(_coerce(other, self.dtype), -1.0))

    def __neg__(self):
        return mul(self, -1.0)

    def __repr__(self) -> str:
        return (
            f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, "
            f"requires_grad={self.requires_grad})"
        )


def _coerce(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Wrap an op result, attaching tape bookkeeping when recording."""
    if _grad_enabled and any(p.requires_grad for p in parents):
        out = Tensor(data, requires_grad=True, dtype=data.dtype)
        out._parents = parents
        out._backward = backward
        return out
    return Tensor(data, dtype=data.dtype)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- elementwise and structural ops -----------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a.dtype)
    data = a.data * b.data

    def backward(g):
        # constants (e.g. scalar factors) get no gradient
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _make(data, (a, b), backward)


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    data = np.asarray(x.data.sum(), dtype=x.dtype)

    def backward(g):
        return (g * np.ones_like(x.data),)

    return _make(data, (x,), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = x.data.reshape(shape)

    def backward(g):
        return (g.reshape(x.shape),)

    return _make(data, (x,), backward)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    data = np.transpose(x.data, axes)
    inverse = np.argsort(axes)

    def backward(g):
        return (np.transpose(g, inverse),)

    return _make(data, (x,), backward)


# -- activations -------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)

    def backward(g):
        # subgradient at 0 defined as 0
        return (g * (x.data > 0.0),)

    return _make(data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    z = x.data
    # e = exp(-|z|) never overflows: 1/(1+e) for z >= 0, e/(1+e) below
    e = np.exp(-np.abs(z))
    denom = 1.0 + e
    out = np.where(z >= 0, 1.0 / denom, e / denom)

    def backward(g):
        return (g * out * (1.0 - out),)

    return _make(out, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with max-subtraction for overflow safety."""
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"softmax axis {axis} invalid for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _make(out, (x,), backward)


# -- matmul ------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product: trailing two dims contract, leading dims broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul operands must have at least 2 dims")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul contraction mismatch: {a.shape} @ {b.shape} "
            f"(axis -1 of left is {a.shape[-1]}, axis -2 of right is {b.shape[-2]})"
        )
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError as exc:
        raise DimensionError(
            f"matmul leading dims incompatible: {a.shape} @ {b.shape}"
        ) from exc
    data = np.matmul(a.data, b.data)

    def backward(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _make(data, (a, b), backward)


# -- linear and convolution ----------------------------------------------------


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
    rows = x.data.reshape(-1, c_in)
    k2d = weight.data.reshape(c_out, c_in)
    out = rows @ k2d.T
    if bias is not None:
        out += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        gx = gk = gb = None
        g2 = g.reshape(-1, c_out)
        if weight.requires_grad:
            gk = (g2.T @ rows).reshape(weight.shape)
        if bias is not None and bias.requires_grad:
            gb = g2.sum(axis=0)
        if x.requires_grad:
            gx = (g2 @ k2d).reshape(x.shape)
        return (gx, gk) if bias is None else (gx, gk, gb)

    return _make(out.reshape(x.shape[:-1] + (c_out,)), parents, backward)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation of [B,Cin,H,W] with [Cout,Cin,kh,kw] kernels.

    Output spatial size must come out exact: (H + 2*padding - kh) must be a
    non-negative multiple of stride (likewise W), otherwise a DimensionError
    names the offending axis.  im2col gathers one channels-last row per
    output position, [B*oh*ow, kh*kw*Cin], so forward and both gradients are
    single 2-D GEMMs; the result is a [B,Cout,oh,ow] view of channels-last
    memory.
    """
    if x.ndim != 4:
        raise DimensionError(f"conv2d input must be 4-D, got shape {x.shape}")
    if kernel.ndim != 4:
        raise DimensionError(f"conv2d kernel must be 4-D, got shape {kernel.shape}")
    if stride < 1 or padding < 0:
        raise ValidationError(f"conv2d stride must be >=1 and padding >=0, "
                              f"got stride={stride}, padding={padding}")
    b, c_in, h, w = x.shape
    c_out, kc, kh, kw = kernel.shape
    if kc != c_in:
        raise DimensionError(
            f"conv2d channel mismatch on axis 1: input has {c_in}, kernel expects {kc}"
        )
    if bias is not None and bias.shape != (c_out,):
        raise DimensionError(
            f"conv2d bias shape {bias.shape} does not match {c_out} output channels"
        )
    for name, dim, k in (("H", h, kh), ("W", w, kw)):
        span = dim + 2 * padding - k
        if span < 0 or span % stride != 0:
            raise DimensionError(
                f"conv2d output size on axis {name} is not a positive integer: "
                f"({dim} + 2*{padding} - {k}) / {stride} + 1"
            )
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1

    xt = x.data.transpose(0, 2, 3, 1)  # channels-last view
    if padding:
        xt = np.pad(xt, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    # [B,oh,ow,Cin,kh,kw] window view -> rows [B*oh*ow, kh*kw*Cin] (one copy)
    windows = np.lib.stride_tricks.sliding_window_view(xt, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(-1, kh * kw * c_in)
    k2d = kernel.data.transpose(0, 2, 3, 1).reshape(c_out, -1)
    out = cols @ k2d.T
    if bias is not None:
        out += bias.data
    data = out.reshape(b, out_h, out_w, c_out).transpose(0, 3, 1, 2)
    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def backward(g):
        gx = gk = gb = None
        g2 = g.transpose(0, 2, 3, 1).reshape(-1, c_out)
        if kernel.requires_grad:
            gk = (g2.T @ cols).reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2)
        if bias is not None and bias.requires_grad:
            gb = g2.sum(axis=0)
        if x.requires_grad:
            dcols = (g2 @ k2d).reshape(b, out_h, out_w, kh, kw, c_in)
            gxt = np.zeros(xt.shape, dtype=dcols.dtype)
            for i in range(kh):
                for j in range(kw):
                    gxt[:, i:i + stride * out_h:stride,
                        j:j + stride * out_w:stride] += dcols[:, :, :, i, j]
            gx = gxt[:, padding:padding + h, padding:padding + w].transpose(0, 3, 1, 2)
        return (gx, gk) if bias is None else (gx, gk, gb)

    return _make(data, parents, backward)


# -- layer normalization -------------------------------------------------------


@dataclass
class LayerNormParams:
    """Learnable per-feature scale/shift plus the stabilizing epsilon."""

    gamma: Tensor
    beta: Tensor
    epsilon: float = 1e-5

    def __post_init__(self):
        if self.gamma.shape != self.beta.shape or self.gamma.ndim != 1:
            raise DimensionError(
                f"gamma {self.gamma.shape} and beta {self.beta.shape} "
                "must be equal-length vectors"
            )
        if self.epsilon <= 0:
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")


def layer_norm(x: Tensor, params: LayerNormParams, axis: int = -1) -> Tensor:
    """Normalize ``axis`` to zero mean / unit population variance, then scale+shift."""
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"layer_norm axis {axis} invalid for shape {x.shape}")
    axis = axis % x.ndim
    n = x.shape[axis]
    if n == 0:
        raise DimensionError("layer_norm over a zero-length axis")
    if n != params.gamma.shape[0]:
        raise DimensionError(
            f"feature axis {axis} has length {n}, gamma has {params.gamma.shape[0]}"
        )
    gamma, beta = params.gamma, params.beta
    bshape = [1] * x.ndim
    bshape[axis] = n
    gb = gamma.data.reshape(bshape)
    xhat = x.data - x.data.mean(axis=axis, keepdims=True)
    # population variance by the operations np.var runs, on the centred copy
    var = np.square(xhat).mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(params.epsilon, dtype=x.dtype))
    xhat *= inv
    data = xhat * gb + beta.data.reshape(bshape)
    reduce_axes = tuple(i for i in range(x.ndim) if i != axis)

    def backward(g):
        dgamma = (g * xhat).sum(axis=reduce_axes) if gamma.requires_grad else None
        dbeta = g.sum(axis=reduce_axes) if beta.requires_grad else None
        dx = None
        if x.requires_grad:
            dxhat = g * gb
            dx = inv * (
                dxhat - dxhat.mean(axis=axis, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=axis, keepdims=True)
            )
        return dx, dgamma, dbeta

    return _make(data, (x, gamma, beta), backward)


# -- adaptive pooling ----------------------------------------------------------


def _pool_bounds(in_dim: int, out_dim: int) -> list[tuple[int, int]]:
    return [
        ((i * in_dim) // out_dim, -((-(i + 1) * in_dim) // out_dim))
        for i in range(out_dim)
    ]


def _pool_reshape(x: np.ndarray, out_h: int, out_w: int, mode: str):
    """Pool [B,C,H,W] over evenly dividing windows by a reshape.

    Returns the pooled array and its backward (output grad -> input grad).
    """
    b, c, h, w = x.shape
    kh, kw = h // out_h, w // out_w
    windows = x.reshape(b, c, out_h, kh, out_w, kw)
    if mode == "avg":
        def backward(g):
            spread = np.broadcast_to((g / (kh * kw))[:, :, :, None, :, None],
                                     windows.shape)
            return spread.reshape(b, c, h, w)

        return windows.mean(axis=(3, 5)), backward

    def backward(g):
        flat = windows.transpose(0, 1, 2, 4, 3, 5).reshape(b, c, out_h, out_w, kh * kw)
        gflat = np.zeros_like(flat)
        np.put_along_axis(gflat, flat.argmax(axis=-1)[..., None], g[..., None], axis=-1)
        return gflat.reshape(b, c, out_h, out_w, kh, kw).transpose(
            0, 1, 2, 4, 3, 5).reshape(b, c, h, w)

    return windows.max(axis=(3, 5)), backward


def _pool_loop(x: np.ndarray, out_h: int, out_w: int, mode: str):
    """Pool [B,C,H,W] by a loop over (possibly overlapping) derived windows."""
    b, c, h, w = x.shape
    rows = _pool_bounds(h, out_h)
    cols = _pool_bounds(w, out_w)
    data = np.empty((b, c, out_h, out_w), dtype=x.dtype)

    if mode == "max":
        arg_r = np.empty((b, c, out_h, out_w), dtype=np.intp)
        arg_c = np.empty((b, c, out_h, out_w), dtype=np.intp)
        for i, (r0, r1) in enumerate(rows):
            for j, (c0, c1) in enumerate(cols):
                window = x[:, :, r0:r1, c0:c1]
                flat = window.reshape(b, c, -1)
                idx = flat.argmax(axis=2)
                data[:, :, i, j] = np.take_along_axis(
                    flat, idx[:, :, None], axis=2
                )[:, :, 0]
                arg_r[:, :, i, j] = r0 + idx // (c1 - c0)
                arg_c[:, :, i, j] = c0 + idx % (c1 - c0)

        def backward(g):
            gx = np.zeros_like(x)
            bb, cc = np.meshgrid(np.arange(b), np.arange(c), indexing="ij")
            bb = bb[:, :, None, None]
            cc = cc[:, :, None, None]
            np.add.at(gx, (bb, cc, arg_r, arg_c), g)
            return gx

    else:
        for i, (r0, r1) in enumerate(rows):
            for j, (c0, c1) in enumerate(cols):
                data[:, :, i, j] = x[:, :, r0:r1, c0:c1].mean(axis=(2, 3))

        def backward(g):
            gx = np.zeros_like(x)
            for i, (r0, r1) in enumerate(rows):
                for j, (c0, c1) in enumerate(cols):
                    area = (r1 - r0) * (c1 - c0)
                    gx[:, :, r0:r1, c0:c1] += g[:, :, i:i + 1, j:j + 1] / area
            return gx

    return data, backward


def adaptive_pool(x: Tensor, out_h: int, out_w: int, mode: str = "max") -> Tensor:
    """Pool [B,C,H,W] to [B,C,out_h,out_w] over derived windows.

    Window i covers rows [floor(i*H/out_h), ceil((i+1)*H/out_h)).  Max mode
    backpropagates to the first (row-major) argmax of each window; avg mode
    spreads the gradient uniformly.  Evenly dividing windows are pooled by a
    reshape, others by a loop over the windows.
    """
    if mode not in ("max", "avg"):
        raise ValidationError(f"pool mode must be 'max' or 'avg', got {mode!r}")
    if x.ndim != 4:
        raise DimensionError(f"adaptive_pool input must be 4-D, got {x.shape}")
    h, w = x.shape[2:]
    if not (1 <= out_h <= h) or not (1 <= out_w <= w):
        raise DimensionError(
            f"output dims ({out_h}, {out_w}) must be within input dims ({h}, {w})"
        )
    pool = _pool_reshape if h % out_h == 0 and w % out_w == 0 else _pool_loop
    data, backward = pool(x.data, out_h, out_w, mode)
    return _make(data, (x,), lambda g: (backward(g),))


# -- loss ----------------------------------------------------------------------


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of [B,C] logits against integer class labels.

    Fused log-sum-exp formulation; never materializes probabilities in the
    forward pass, so large logits cannot overflow.
    """
    if logits.ndim != 2:
        raise DimensionError(f"logits must be [B, C], got shape {logits.shape}")
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.shape != (n,):
        raise DimensionError(
            f"labels must be a length-{n} vector, got shape {labels.shape}"
        )
    if labels.dtype.kind not in "iu":
        raise ValidationError("labels must be integer class indices")
    if labels.min() < 0 or labels.max() >= c:
        bad = labels[(labels < 0) | (labels >= c)][0]
        raise ValidationError(f"label {bad} out of range [0, {c})")
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    data = np.asarray((lse - z[np.arange(n), labels]).mean(), dtype=logits.dtype)

    def backward(g):
        e = np.exp(z - m)
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(n), labels] -= 1.0
        return (g * p / n,)

    return _make(data, (logits,), backward)


# -- Adam optimizer --------------------------------------------------------------


# Elements per Adam group: whole consecutive parameters are updated together
# so the ~14 elementwise passes of a group run on cache-resident buffers.
ADAM_GROUP_ELEMS = 1 << 16


@dataclass
class AdamState:
    """Moment buffers plus hyperparameters for one parameter set.

    ``init_adam`` moves every parameter into the flat ``data`` arena, in
    parameter order, and binds each ``Tensor.data`` to its view there
    (``views``).  ``m`` and ``v`` are laid out like ``data``.  ``groups``
    holds (start, stop, names) runs of whole consecutive parameters of at
    most ADAM_GROUP_ELEMS elements (a larger parameter runs alone).
    """

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    data: np.ndarray = field(default_factory=lambda: np.zeros(0))
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    views: dict[str, np.ndarray] = field(default_factory=dict)
    groups: list[tuple[int, int, tuple[str, ...]]] = field(default_factory=list)

    def __post_init__(self):
        if self.lr < 0:
            raise ValidationError(f"learning rate must be >= 0, got {self.lr}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValidationError(
                f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}"
            )


def init_adam(params: dict[str, Tensor], lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    """Zero moments for ``params``, whose ``data`` is rebound to arena views."""
    state = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    dtypes = {p.data.dtype for p in params.values()}
    if len(dtypes) > 1:
        raise UsageError(
            f"Adam needs one parameter dtype, got {sorted(d.name for d in dtypes)}")
    dtype = dtypes.pop() if dtypes else np.dtype(DEFAULT_DTYPE)
    total = sum(p.data.size for p in params.values())
    state.data = np.empty(total, dtype=dtype)
    state.m = np.zeros(total, dtype=dtype)
    state.v = np.zeros(total, dtype=dtype)
    offset = start = 0
    names: list[str] = []
    for name, p in params.items():
        stop = offset + p.data.size
        if names and stop - start > ADAM_GROUP_ELEMS:
            state.groups.append((start, offset, tuple(names)))
            start, names = offset, []
        names.append(name)
        view = state.data[offset:stop].reshape(p.data.shape)
        view[...] = p.data
        p.data = state.views[name] = view
        offset = stop
    if names:
        state.groups.append((start, offset, tuple(names)))
    return state


def adam_step(params: dict[str, Tensor], state: AdamState) -> None:
    """One in-place Adam update with bias correction. Gradients are left intact.

    Each element sees the per-tensor update's operations in the same order,
    so the result is bit-identical to updating one parameter at a time.
    """
    for name, p in params.items():
        if p.grad is None:
            raise UsageError(f"parameter {name!r} has no gradient buffer")
        view = state.views.get(name)
        if view is None:
            raise UsageError(f"optimizer state is missing buffers for {name!r}")
        if p.data is not view:
            raise UsageError(
                f"parameter {name!r} no longer views the optimizer arena "
                "(its data was rebound after init_adam)")
    if len(params) != len(state.views):
        missing = sorted(set(state.views) - set(params))
        raise UsageError(f"parameters {missing} of the optimizer state were not passed")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    widest = max((stop - start for start, stop, _ in state.groups), default=0)
    gathered = np.empty(widest, dtype=state.data.dtype)
    s1 = np.empty_like(gathered)
    s2 = np.empty_like(gathered)
    for start, stop, names in state.groups:
        n = stop - start
        if len(names) == 1:
            g = params[names[0]].grad.reshape(-1)
        else:
            g = np.concatenate([params[name].grad for name in names], axis=None,
                               out=gathered[:n])
        m = state.m[start:stop]
        v = state.v[start:stop]
        a, b = s1[:n], s2[:n]
        m *= state.beta1
        np.multiply(g, 1.0 - state.beta1, out=a)
        m += a
        v *= state.beta2
        np.multiply(g, 1.0 - state.beta2, out=a)
        a *= g
        v += a
        np.divide(m, bc1, out=a)
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += state.eps
        a /= b
        a *= state.lr
        state.data[start:stop] -= a


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.zero_grad()


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int, fan_out: int, dtype=DEFAULT_DTYPE) -> Tensor:
    """Weight tensor drawn from U(-a, a), a = sqrt(6 / (fan_in + fan_out))."""
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-a, a, size=shape).astype(dtype), requires_grad=True)
