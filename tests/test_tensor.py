import math

import numpy as np
import pytest

from ahmsa.errors import DimensionError, UsageError, ValidationError
from ahmsa.tensor import (
    ADAM_GROUP_ELEMS,
    AdamState,
    LayerNormParams,
    Tensor,
    adam_step,
    adaptive_pool,
    conv2d,
    cross_entropy,
    init_adam,
    layer_norm,
    linear,
    matmul,
    mul,
    no_grad,
    relu,
    reshape,
    sigmoid,
    softmax,
    transpose,
    tsum,
    zero_grads,
)

from gradcheck import numeric_gradient, relative_error
from reference import per_tensor_adam_step


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


# -- conv2d -------------------------------------------------------------------


def test_conv2d_identity_kernel():
    x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
    k = Tensor(np.ones((1, 1, 1, 1)))
    b = Tensor(np.zeros(1))
    out = conv2d(x, k, b)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_sum_of_ones():
    x = Tensor(np.ones((1, 1, 3, 3)))
    k = Tensor(np.ones((1, 1, 3, 3)))
    out = conv2d(x, k)
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == pytest.approx(9.0)


def test_conv2d_same_padding_preserves_dims():
    rng = np.random.default_rng(0)
    for k in (1, 3, 5):
        x = Tensor(rng.standard_normal((2, 3, 9, 9)))
        w = Tensor(rng.standard_normal((4, 3, k, k)))
        out = conv2d(x, w, padding=(k - 1) // 2)
        assert out.shape == (2, 4, 9, 9)


def test_conv2d_shape_errors_name_axis():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    k = Tensor(np.zeros((1, 3, 3, 3)))
    with pytest.raises(DimensionError, match="axis 1"):
        conv2d(x, k)
    k2 = Tensor(np.zeros((1, 2, 3, 3)))
    with pytest.raises(DimensionError, match="axis H"):
        conv2d(x, k2, stride=2)


def test_conv2d_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-1, 1, (2, 3, 5, 5))
    k0 = rng.uniform(-1, 1, (4, 3, 3, 3))
    b0 = rng.uniform(-1, 1, 4)

    def run(x_arr, k_arr, b_arr):
        x = t64(x_arr, requires_grad=True)
        k = t64(k_arr, requires_grad=True)
        b = t64(b_arr, requires_grad=True)
        loss = tsum(conv2d(x, k, b, stride=1, padding=1))
        loss.backward()
        return x, k, b

    x, k, b = run(x0, k0, b0)
    num_x = numeric_gradient(
        lambda a: float(tsum(conv2d(t64(a), t64(k0), t64(b0), padding=1)).data), x0)
    num_k = numeric_gradient(
        lambda a: float(tsum(conv2d(t64(x0), t64(a), t64(b0), padding=1)).data), k0)
    num_b = numeric_gradient(
        lambda a: float(tsum(conv2d(t64(x0), t64(k0), t64(a), padding=1)).data), b0)
    assert relative_error(x.grad, num_x) < 1e-4
    assert relative_error(k.grad, num_k) < 1e-4
    assert relative_error(b.grad, num_b) < 1e-4


def test_conv2d_strided_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    x0 = rng.uniform(-1, 1, (2, 2, 7, 7))
    k0 = rng.uniform(-1, 1, (3, 2, 3, 3))
    w = rng.uniform(0.5, 1.5, (2, 3, 4, 4))

    def loss_of(x_arr, k_arr):
        return tsum(mul(conv2d(x_arr, k_arr, stride=2, padding=1), t64(w)))

    x, k = t64(x0, requires_grad=True), t64(k0, requires_grad=True)
    loss_of(x, k).backward()
    num_x = numeric_gradient(lambda a: float(loss_of(t64(a), t64(k0)).data), x0)
    num_k = numeric_gradient(lambda a: float(loss_of(t64(x0), t64(a)).data), k0)
    assert relative_error(x.grad, num_x) < 1e-4
    assert relative_error(k.grad, num_k) < 1e-4


# -- linear -------------------------------------------------------------------


def test_linear_matches_pointwise_conv():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 3, 4, 5))  # channels-last
    k = rng.standard_normal((6, 5, 1, 1))
    b = rng.standard_normal(6)
    out = linear(t64(x), t64(k), t64(b)).data
    ref = conv2d(t64(x.transpose(0, 3, 1, 2)), t64(k), t64(b)).data
    np.testing.assert_allclose(out, ref.transpose(0, 2, 3, 1), rtol=1e-12)


def test_linear_rejects_mismatched_weight():
    x = Tensor(np.zeros((2, 5), dtype=np.float32))
    with pytest.raises(DimensionError, match="linear weight"):
        linear(x, Tensor(np.zeros((3, 4, 1, 1), dtype=np.float32)))
    with pytest.raises(DimensionError, match="linear weight"):
        linear(x, Tensor(np.zeros((3, 5, 3, 3), dtype=np.float32)))
    with pytest.raises(DimensionError, match="bias"):
        linear(x, Tensor(np.zeros((3, 5, 1, 1), dtype=np.float32)),
               Tensor(np.zeros(4, dtype=np.float32)))


def test_linear_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    x0 = rng.uniform(-1, 1, (2, 3, 3, 4))
    k0 = rng.uniform(-1, 1, (5, 4, 1, 1))
    b0 = rng.uniform(-1, 1, 5)
    w = rng.uniform(0.5, 1.5, (2, 3, 3, 5))

    def loss_of(x_arr, k_arr, b_arr):
        return tsum(mul(linear(x_arr, k_arr, b_arr), t64(w)))

    x, k, b = (t64(a, requires_grad=True) for a in (x0, k0, b0))
    loss_of(x, k, b).backward()
    num_x = numeric_gradient(lambda a: float(loss_of(t64(a), t64(k0), t64(b0)).data), x0)
    num_k = numeric_gradient(lambda a: float(loss_of(t64(x0), t64(a), t64(b0)).data), k0)
    num_b = numeric_gradient(lambda a: float(loss_of(t64(x0), t64(k0), t64(a)).data), b0)
    assert relative_error(x.grad, num_x) < 1e-4
    assert relative_error(k.grad, num_k) < 1e-4
    assert relative_error(b.grad, num_b) < 1e-4


# -- layer_norm ---------------------------------------------------------------


def _ln_params(n, dtype=np.float64, eps=1e-5, requires_grad=False):
    return LayerNormParams(
        gamma=Tensor(np.ones(n, dtype=dtype), requires_grad=requires_grad),
        beta=Tensor(np.zeros(n, dtype=dtype), requires_grad=requires_grad),
        epsilon=eps,
    )


def test_layer_norm_constant_input_returns_beta():
    p = LayerNormParams(gamma=Tensor(np.full(8, 2.0)), beta=Tensor(np.full(8, 0.25)))
    x = Tensor(np.full((3, 8), 7.0))
    out = layer_norm(x, p, axis=-1)
    np.testing.assert_allclose(out.data, 0.25, atol=1e-6)


def test_layer_norm_two_point_case():
    p = _ln_params(2, eps=1e-12)
    out = layer_norm(t64([[1.0, 3.0]]), p, axis=-1)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)


def test_layer_norm_standardizes():
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-2, 2, (6, 16)).astype(np.float64))
    out = layer_norm(x, _ln_params(16), axis=1)
    assert np.abs(out.data.mean(axis=1)).max() < 1e-5
    assert np.abs(out.data.var(axis=1) - 1.0).max() < 1e-4


def test_layer_norm_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    x0 = rng.uniform(-1, 1, (4, 16))
    g0 = rng.uniform(0.5, 1.5, 16)
    b0 = rng.uniform(-0.5, 0.5, 16)

    def make(xa, ga, ba, grad=()):
        x = t64(xa, requires_grad="x" in grad)
        p = LayerNormParams(t64(ga, requires_grad="g" in grad),
                            t64(ba, requires_grad="b" in grad))
        return x, p

    x, p = make(x0, g0, b0, grad="xgb")
    loss = tsum(mul(layer_norm(x, p, axis=-1), t64(np.cos(x0))))
    loss.backward()

    def f_of(which):
        def f(a):
            xa, ga, ba = (a if which == "x" else x0,
                          a if which == "g" else g0,
                          a if which == "b" else b0)
            xx, pp = make(xa, ga, ba)
            return float(tsum(mul(layer_norm(xx, pp, axis=-1), t64(np.cos(x0)))).data)
        return f

    assert relative_error(x.grad, numeric_gradient(f_of("x"), x0)) < 1e-4
    assert relative_error(p.gamma.grad, numeric_gradient(f_of("g"), g0)) < 1e-4
    assert relative_error(p.beta.grad, numeric_gradient(f_of("b"), b0)) < 1e-4


def test_layer_norm_axis_errors():
    x = Tensor(np.zeros((2, 4)))
    with pytest.raises(DimensionError):
        layer_norm(x, _ln_params(4, dtype=np.float32), axis=5)
    with pytest.raises(DimensionError):
        layer_norm(x, _ln_params(3, dtype=np.float32), axis=1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,axis", [((5, 7), -1), ((3, 4, 9), 1), ((6, 2, 3), 0)])
def test_layer_norm_matches_np_var_formula_bit_exact(dtype, shape, axis):
    rng = np.random.default_rng(12)
    x0 = (rng.standard_normal(shape) * 3 + 1).astype(dtype)
    n = shape[axis]
    params = LayerNormParams(Tensor(rng.uniform(0.5, 1.5, n).astype(dtype)),
                             Tensor(rng.uniform(-0.5, 0.5, n).astype(dtype)))
    bshape = [1] * len(shape)
    bshape[axis] = n
    mean = x0.mean(axis=axis, keepdims=True)
    var = x0.var(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(params.epsilon, dtype=dtype))
    xhat = (x0 - mean) * inv
    ref = xhat * params.gamma.data.reshape(bshape) + params.beta.data.reshape(bshape)
    out = layer_norm(Tensor(x0), params, axis=axis)
    assert out.data.dtype == dtype
    assert out.data.tobytes() == ref.tobytes()


# -- adaptive_pool --------------------------------------------------------------


def test_adaptive_pool_quadrant_maxima():
    x = Tensor(np.arange(1.0, 17.0).reshape(1, 1, 4, 4))
    out = adaptive_pool(x, 2, 2, "max")
    np.testing.assert_array_equal(out.data[0, 0], [[6, 8], [14, 16]])


def test_adaptive_pool_global_avg_is_mean():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((2, 3, 5, 7)))
    out = adaptive_pool(x, 1, 1, "avg")
    np.testing.assert_allclose(
        out.data[:, :, 0, 0], x.data.mean(axis=(2, 3)), rtol=1e-6)


@pytest.mark.parametrize("mode", ["max", "avg"])
def test_adaptive_pool_constant_input(mode):
    x = Tensor(np.full((1, 2, 6, 6), 3.5))
    out = adaptive_pool(x, 4, 3, mode)
    np.testing.assert_allclose(out.data, 3.5, rtol=1e-7)


def test_adaptive_pool_max_idempotent_at_full_size():
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((1, 2, 6, 5)))
    out = adaptive_pool(x, 6, 5, "max")
    np.testing.assert_array_equal(out.data, x.data)


def test_adaptive_pool_max_tie_breaks_to_first_rowmajor():
    x = Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
    out = adaptive_pool(x, 1, 1, "max")
    tsum(out).backward()
    np.testing.assert_array_equal(x.grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])


def test_adaptive_pool_avg_gradient_uniform():
    x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
    out = adaptive_pool(x, 2, 2, "avg")
    tsum(out).backward()
    np.testing.assert_allclose(x.grad, 0.25)


def test_adaptive_pool_rejects_upsampling():
    x = Tensor(np.zeros((1, 1, 2, 2)))
    with pytest.raises(DimensionError):
        adaptive_pool(x, 3, 2, "max")


def test_adaptive_pool_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    x0 = rng.uniform(-1, 1, (2, 2, 5, 5))
    for mode in ("max", "avg"):
        x = t64(x0, requires_grad=True)
        loss = tsum(mul(adaptive_pool(x, 2, 2, mode), t64(np.sin(np.arange(8.0)).reshape(2, 2, 2, 1))))
        loss.backward()
        num = numeric_gradient(
            lambda a, m=mode: float(
                tsum(mul(adaptive_pool(t64(a), 2, 2, m),
                         t64(np.sin(np.arange(8.0)).reshape(2, 2, 2, 1)))).data
            ), x0)
        assert relative_error(x.grad, num) < 1e-4


# -- activations -----------------------------------------------------------------


@pytest.mark.parametrize("mode", ["max", "avg"])
@pytest.mark.parametrize("in_hw,out_hw", [((4, 6), (2, 3)), ((4, 4), (1, 1)),
                                          ((1, 6), (1, 6)), ((6, 3), (2, 1))])
def test_adaptive_pool_reshape_path_matches_loop(mode, in_hw, out_hw):
    from ahmsa.tensor import _pool_loop, _pool_reshape

    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 3) + in_hw)
    x[0, 1, 0, :] = 5.0  # tied maxima: both must pick the first row-major cell
    g = rng.standard_normal((2, 3) + out_hw)
    data, backward = _pool_reshape(x, *out_hw, mode)
    ref_data, ref_backward = _pool_loop(x, *out_hw, mode)
    np.testing.assert_allclose(data, ref_data, rtol=1e-15, atol=0)
    np.testing.assert_allclose(backward(g), ref_backward(g), rtol=1e-15, atol=0)


def test_sigmoid_at_zero():
    assert sigmoid(Tensor(np.zeros(1))).data[0] == pytest.approx(0.5)


def test_sigmoid_extreme_inputs_finite():
    out = sigmoid(Tensor(np.array([-1e4, 1e4])))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)


def _masked_sigmoid(z):
    """The boolean-mask gather/scatter formulation of the stable sigmoid."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_masked_formula_bit_exact(dtype):
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, 1e-30, -1e-30, 88.0, -88.0, 750.0, -750.0, 1e30, -1e30,
               np.inf, -np.inf]
    for z in (np.array(special), rng.standard_normal(37) * 20,
              rng.standard_normal((3, 5, 7)) * 4):
        z = z.astype(dtype)
        with np.errstate(over="ignore"):
            ref = _masked_sigmoid(z)
        x = Tensor(z, requires_grad=True)
        out = sigmoid(x)
        assert out.data.tobytes() == ref.tobytes()
        g = rng.standard_normal(z.shape).astype(dtype)
        tsum(mul(out, Tensor(g))).backward()
        assert x.grad.tobytes() == (g * ref * (1.0 - ref)).tobytes()


def test_softmax_uniform_input():
    out = softmax(Tensor(np.zeros((1, 3))), axis=-1)
    np.testing.assert_allclose(out.data, 1.0 / 3.0, rtol=1e-6)


def test_relu_definition():
    out = relu(Tensor(np.array([-2.0, 0.0, 5.0])))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 5.0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_softmax_rows_are_distributions(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-50, 50, (8, 6)))
    out = softmax(x, axis=1)
    assert np.all(out.data >= 0.0) and np.all(out.data <= 1.0)
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)


def test_softmax_invalid_axis():
    with pytest.raises(DimensionError):
        softmax(Tensor(np.zeros((2, 2))), axis=2)


def test_activation_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    x0 = rng.uniform(-1, 1, (4, 5)) + 0.05  # nudge away from the relu kink
    weights = rng.uniform(0.5, 1.5, (4, 5))
    cases = {
        "relu": lambda x: tsum(mul(relu(x), t64(weights))),
        "sigmoid": lambda x: tsum(mul(sigmoid(x), t64(weights))),
        "softmax": lambda x: tsum(mul(softmax(x, axis=1), t64(weights))),
    }
    for name, build in cases.items():
        x = t64(x0, requires_grad=True)
        build(x).backward()
        num = numeric_gradient(lambda a: float(build(t64(a)).data), x0)
        assert relative_error(x.grad, num) < 1e-4, name


# -- matmul ----------------------------------------------------------------------


def test_matmul_identity():
    rng = np.random.default_rng(19)
    a = Tensor(rng.standard_normal((3, 4, 4)))
    eye = Tensor(np.eye(4))
    np.testing.assert_allclose(matmul(a, eye).data, a.data, rtol=1e-6)


def test_matmul_hand_product():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]))
    np.testing.assert_array_equal(matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_grad_of_sum_is_colsum_broadcast():
    rng = np.random.default_rng(23)
    a0 = rng.uniform(-1, 1, (3, 4))
    b0 = rng.uniform(-1, 1, (4, 5))
    a = t64(a0, requires_grad=True)
    tsum(matmul(a, t64(b0))).backward()
    expected = np.tile(b0.sum(axis=1), (3, 1))
    np.testing.assert_allclose(a.grad, expected, rtol=1e-10)
    num = numeric_gradient(lambda x: float(tsum(matmul(t64(x), t64(b0))).data), a0)
    assert relative_error(a.grad, num) < 1e-4


def test_matmul_batched_gradients():
    rng = np.random.default_rng(29)
    a0 = rng.uniform(-1, 1, (2, 3, 4, 5))
    b0 = rng.uniform(-1, 1, (2, 3, 5, 4))
    w = rng.uniform(0.5, 1.5, (2, 3, 4, 4))
    a = t64(a0, requires_grad=True)
    b = t64(b0, requires_grad=True)
    tsum(mul(matmul(a, b), t64(w))).backward()
    num_a = numeric_gradient(
        lambda x: float(tsum(mul(matmul(t64(x), t64(b0)), t64(w))).data), a0)
    num_b = numeric_gradient(
        lambda x: float(tsum(mul(matmul(t64(a0), t64(x)), t64(w))).data), b0)
    assert relative_error(a.grad, num_a) < 1e-4
    assert relative_error(b.grad, num_b) < 1e-4


def test_matmul_contraction_mismatch():
    with pytest.raises(DimensionError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


# -- cross_entropy -----------------------------------------------------------------


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((4, 3)))
    loss = cross_entropy(logits, np.array([0, 1, 2, 1]))
    assert float(loss.data) == pytest.approx(math.log(3.0), rel=1e-6)


def test_cross_entropy_saturated_correct():
    logits = np.zeros((2, 3))
    logits[0, 1] = 30.0
    logits[1, 0] = 30.0
    loss = cross_entropy(Tensor(logits), np.array([1, 0]))
    assert float(loss.data) < 1e-9


def test_cross_entropy_large_logits_finite():
    logits = Tensor(np.full((2, 3), 1e4))
    loss = cross_entropy(logits, np.array([0, 2]))
    assert np.isfinite(float(loss.data))


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValidationError, match="out of range"):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_cross_entropy_gradient():
    rng = np.random.default_rng(31)
    z0 = rng.uniform(-1, 1, (8, 3))
    labels = rng.integers(0, 3, 8)
    z = t64(z0, requires_grad=True)
    cross_entropy(z, labels).backward()
    # analytic: (softmax - onehot) / N
    e = np.exp(z0 - z0.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    p[np.arange(8), labels] -= 1.0
    np.testing.assert_allclose(z.grad, p / 8.0, rtol=1e-10)
    num = numeric_gradient(
        lambda a: float(cross_entropy(t64(a), labels).data), z0)
    assert relative_error(z.grad, num) < 1e-4


# -- backward mechanics --------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    tsum(x).backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_quadratic():
    x = Tensor(np.array([3.0]), requires_grad=True)
    tsum(mul(x, x)).backward()
    np.testing.assert_allclose(x.grad, [6.0])


def test_backward_accumulates_across_calls():
    x = Tensor(np.array([2.0]), requires_grad=True)
    loss = tsum(mul(x, x))
    loss.backward()
    loss.backward()
    np.testing.assert_allclose(x.grad, [8.0])


def test_backward_accumulates_across_uses():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    tsum(x + x).backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


@pytest.mark.parametrize("reverse", [False, True])
def test_backward_shared_consumers_get_exact_grads_without_mutation(reverse):
    # u = 2x reaches the loss through u + v (whose backward hands u and v the
    # same array), u + u, a reshape view, a transpose view and an avg pool
    # whose gradient is a read-only broadcast view; the leaves a and b share
    # one add.  Both term orders are run, so a shared array arrives both
    # first and later.  Dyadic values keep every sum exact, so any write into
    # a shared contribution shows.
    rng = np.random.default_rng(8)
    shape = (2, 3, 4, 4)
    ws = [rng.integers(1, 8, s) / 4.0
          for s in [shape, shape, (6, 16), (4, 4, 3, 2), shape, shape]]
    x, y, a, b = (t64(rng.integers(-8, 8, shape) / 8.0, requires_grad=True)
                  for _ in range(4))
    w = [t64(arr) for arr in ws]
    u, v = mul(x, 2.0), mul(y, 4.0)
    terms = [
        mul(u + v, w[0]),
        mul(u + u, w[1]),
        mul(reshape(u, (6, 16)), w[2]),
        mul(transpose(u, (3, 2, 1, 0)), w[3]),
        mul(adaptive_pool(u, 4, 4, "avg"), w[4]),
        mul(a + b, w[5]),
    ]
    if reverse:
        terms.reverse()
    loss = tsum(terms[0])
    for term in terms[1:]:
        loss = loss + tsum(term)
    snapshots = [(t, t.data.copy()) for t in [x, y, a, b, u, v, *w, *terms]]
    loss.backward()
    expected = 2 * (ws[0] + 2 * ws[1] + ws[2].reshape(shape)
                    + ws[3].transpose(3, 2, 1, 0) + ws[4])
    np.testing.assert_array_equal(x.grad, expected)
    np.testing.assert_array_equal(y.grad, 4 * ws[0])
    np.testing.assert_array_equal(a.grad, ws[5])
    np.testing.assert_array_equal(b.grad, ws[5])
    for tensor, before in snapshots:
        np.testing.assert_array_equal(tensor.data, before)
    a.grad[...] = 0.0  # leaf grads own their buffers
    np.testing.assert_array_equal(b.grad, ws[5])


def test_backward_rejects_non_scalar():
    x = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(UsageError):
        (x + x).backward()


def test_no_grad_suppresses_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = tsum(mul(x, x))
    assert not y.requires_grad
    assert y._parents == ()


def test_no_grad_nests_and_restores():
    x = Tensor(np.ones(3), requires_grad=True)

    def records() -> bool:
        return mul(x, x).requires_grad

    with no_grad():
        with no_grad():
            assert not records()
        assert not records()  # leaving the inner block keeps recording off
    assert records()
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError
    assert records()  # restored after an exception too


def test_reshape_transpose_gradients():
    rng = np.random.default_rng(37)
    x0 = rng.uniform(-1, 1, (2, 3, 4))
    w = rng.uniform(0.5, 1.5, (4, 6))
    x = t64(x0, requires_grad=True)
    y = reshape(transpose(x, (2, 0, 1)), (4, 6))
    tsum(mul(y, t64(w))).backward()
    num = numeric_gradient(
        lambda a: float(
            tsum(mul(reshape(transpose(t64(a), (2, 0, 1)), (4, 6)), t64(w))).data
        ), x0)
    assert relative_error(x.grad, num) < 1e-4


def test_forward_ops_stay_finite():
    rng = np.random.default_rng(41)
    x = Tensor(rng.uniform(-1, 1, (2, 4, 6, 6)))
    k = Tensor(rng.uniform(-1, 1, (4, 4, 3, 3)))
    out = adaptive_pool(relu(conv2d(x, k, padding=1)), 2, 2, "max")
    out = softmax(reshape(out, (2, 16)), axis=1)
    assert np.all(np.isfinite(out.data))


def test_op_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(43)
        x = Tensor(rng.uniform(-1, 1, (2, 3, 8, 8)).astype(np.float32))
        k = Tensor(rng.uniform(-1, 1, (5, 3, 3, 3)).astype(np.float32))
        out = softmax(reshape(adaptive_pool(conv2d(x, k, padding=1), 2, 2, "avg"),
                              (2, 20)), axis=1)
        return out.data.tobytes()

    assert run() == run()


# -- Adam ------------------------------------------------------------------------------


def test_adam_zero_gradient_is_noop():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    params = {"p": p}
    state = init_adam(params, lr=0.1)
    adam_step(params, state)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
    assert state.step_count == 1


def test_adam_first_step_matches_hand_recurrence():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad[:] = 0.5
    params = {"p": p}
    state = init_adam(params, lr=0.1)
    adam_step(params, state)
    # t=1: m_hat = g, v_hat = g^2, step = lr * g / (|g| + eps) ~= lr
    assert float(p.data[0]) == pytest.approx(0.9, abs=1e-6)


def test_adam_consistent_direction():
    p = Tensor(np.array([0.0]), requires_grad=True)
    params = {"p": p}
    state = init_adam(params, lr=0.05)
    previous = 0.0
    for _ in range(3):
        p.grad[:] = 2.0
        adam_step(params, state)
        assert float(p.data[0]) < previous
        previous = float(p.data[0])


def test_adam_missing_gradient_raises():
    p = Tensor(np.array([1.0]))  # requires_grad=False -> no grad buffer
    with pytest.raises(UsageError):
        adam_step({"p": p}, init_adam({"p": Tensor(np.array([1.0]), requires_grad=True)}, lr=0.1))


def test_adam_rejects_bad_hyperparameters():
    with pytest.raises(ValidationError):
        AdamState(lr=0.1, beta1=1.0)


def _adam_problem(dtype):
    """Parameters forming every group kind, and per-step gradients for them.

    Sizes straddle ADAM_GROUP_ELEMS: a lone small group, a parameter larger
    than a group, several small ones gathered together, and one whose
    gradient is never touched (a lazily zero buffer).  One gradient arrives
    as a transposed view, like conv2d's kernel gradient.
    """
    rng = np.random.default_rng(31)
    big = ADAM_GROUP_ELEMS
    shapes = {"a": (3,), "big": (big + 7,), "b": (5, 1), "c": (big // 4, 2),
              "d": (big // 2,), "idle": (4,), "e": (10, 10)}
    data = {n: rng.standard_normal(s).astype(dtype) for n, s in shapes.items()}

    def grads(step):
        g = {n: (rng.standard_normal(s) * 10.0 ** (step - 2)).astype(dtype)
             for n, s in shapes.items() if n != "idle"}
        g["e"] = np.ascontiguousarray(g["e"].T).T
        return g

    return data, [grads(step) for step in range(4)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_arena_matches_per_tensor_reference_bit_exact(dtype):
    data, steps = _adam_problem(dtype)
    params = {n: Tensor(a.copy(), requires_grad=True) for n, a in data.items()}
    ref = {n: Tensor(a.copy(), requires_grad=True) for n, a in data.items()}
    state = init_adam(params, lr=3e-3)
    assert [names for _, _, names in state.groups] == [
        ("a",), ("big",), ("b", "c"), ("d", "idle", "e")]
    ref_m = {n: np.zeros_like(a) for n, a in data.items()}
    ref_v = {n: np.zeros_like(a) for n, a in data.items()}
    for t, grads in enumerate(steps, start=1):
        for name, g in grads.items():
            params[name].grad = g.copy()
            ref[name].grad = g.copy()
        adam_step(params, state)
        per_tensor_adam_step(ref, ref_m, ref_v, t, lr=3e-3)
        zero_grads(params)
        zero_grads(ref)
        for name, p in params.items():
            assert p.data.dtype == dtype
            assert p.data.tobytes() == ref[name].data.tobytes(), (t, name)
        assert state.m.tobytes() == b"".join(m.tobytes() for m in ref_m.values())
        assert state.v.tobytes() == b"".join(v.tobytes() for v in ref_v.values())
    assert state.step_count == len(steps)


def test_init_adam_binds_parameters_to_arena_views():
    data, _ = _adam_problem(np.float32)
    params = {n: Tensor(a.copy(), requires_grad=True) for n, a in data.items()}
    state = init_adam(params, lr=0.1)
    assert state.data.size == sum(a.size for a in data.values())
    for name, p in params.items():
        assert p.data.base is state.data
        assert p.data.tobytes() == data[name].tobytes()


def test_adam_rejects_parameter_rebound_after_init():
    params = {"w": Tensor(np.ones(3), requires_grad=True),
              "b": Tensor(np.zeros(2), requires_grad=True)}
    state = init_adam(params, lr=0.1)
    adam_step(params, state)
    params["b"].data = np.zeros(2)
    with pytest.raises(UsageError, match="'b'.*arena"):
        adam_step(params, state)


def test_adam_rejects_mixed_dtypes_and_missing_parameters():
    with pytest.raises(UsageError, match="one parameter dtype"):
        init_adam({"a": Tensor(np.ones(2, np.float32), requires_grad=True),
                   "b": Tensor(np.ones(2, np.float64), requires_grad=True)}, lr=0.1)
    params = {"a": Tensor(np.ones(2), requires_grad=True),
              "b": Tensor(np.ones(2), requires_grad=True)}
    state = init_adam(params, lr=0.1)
    with pytest.raises(UsageError, match="'b'"):
        adam_step({"a": params["a"]}, state)


def test_zero_grads():
    p = Tensor(np.ones(3), requires_grad=True)
    p.grad[:] = 5.0
    zero_grads({"p": p})
    np.testing.assert_array_equal(p.grad, np.zeros(3))
