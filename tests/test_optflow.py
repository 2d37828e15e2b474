import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from ahmsa import optflow
from ahmsa.data import gen_synthetic
from ahmsa.errors import AhmsaError, ValidationError
from ahmsa.optflow import (
    FlowField,
    LandmarkSet,
    TVL1Params,
    compose_regions,
    extract_feature_map,
    optical_strain,
    read_flow_map,
    read_pgm,
    standardize_channels,
    tvl1_flow,
    write_flow_map,
    write_pgm,
)


def smooth_texture(seed: int, n: int = 64, sigma: float = 2.5) -> np.ndarray:
    """Band-limited periodic texture; Fourier shifts of it are exact."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n, n))
    ky = np.fft.fftfreq(n)[:, None]
    kx = np.fft.fftfreq(n)[None, :]
    envelope = np.exp(-(kx ** 2 + ky ** 2) * (2 * np.pi * sigma) ** 2 / 2)
    tex = np.real(np.fft.ifft2(np.fft.fft2(noise) * envelope))
    tex = (tex - tex.min()) / (tex.max() - tex.min())
    return 0.1 + 0.8 * tex


def fourier_shift(img: np.ndarray, dy: float, dx: float) -> np.ndarray:
    """Exact wrap-around shift of a periodic image."""
    n, m = img.shape
    ky = np.fft.fftfreq(n)[:, None]
    kx = np.fft.fftfreq(m)[None, :]
    shifted = np.fft.ifft2(np.fft.fft2(img) * np.exp(-2j * np.pi * (ky * dy + kx * dx)))
    return np.clip(np.real(shifted), 0.0, 1.0)


CENTRAL = slice(8, 56)  # central 75% of a 64x64 frame


# -- tvl1_flow -----------------------------------------------------------------


def test_tvl1_identical_frames_zero_flow():
    tex = smooth_texture(42)
    flow = tvl1_flow(tex, tex)
    assert max(np.abs(flow.u).max(), np.abs(flow.v).max()) < 0.05


def test_tvl1_recovers_integer_shift_x():
    tex = smooth_texture(42)
    apex = fourier_shift(tex, 0.0, 2.0)
    flow = tvl1_flow(tex, apex)
    assert abs(np.median(flow.u[CENTRAL, CENTRAL]) - 2.0) < 0.25
    assert abs(np.median(flow.v[CENTRAL, CENTRAL])) < 0.25


def test_tvl1_recovers_integer_shift_y():
    tex = smooth_texture(42)
    apex = fourier_shift(tex, -1.0, 0.0)
    flow = tvl1_flow(tex, apex)
    assert abs(np.median(flow.v[CENTRAL, CENTRAL]) + 1.0) < 0.25


@pytest.mark.parametrize("dx,dy", [(0.5, 0.0), (1.5, -2.5), (-3.0, 1.0), (0.3, 0.7)])
def test_tvl1_subpixel_shift_endpoint_error(dx, dy):
    tex = smooth_texture(7)
    apex = fourier_shift(tex, dy, dx)
    flow = tvl1_flow(tex, apex)
    epe = np.hypot(flow.u[CENTRAL, CENTRAL] - dx, flow.v[CENTRAL, CENTRAL] - dy)
    assert np.median(epe) < 0.3


def test_tvl1_constant_images_give_zero_flow():
    img = np.full((32, 32), 0.5)
    flow = tvl1_flow(img, img)
    np.testing.assert_allclose(flow.u, 0.0, atol=1e-9)
    np.testing.assert_allclose(flow.v, 0.0, atol=1e-9)


def test_tvl1_dim_mismatch():
    with pytest.raises(ValidationError):
        tvl1_flow(np.zeros((32, 32)), np.zeros((32, 48)))


def test_tvl1_too_small():
    with pytest.raises(ValidationError):
        tvl1_flow(np.zeros((8, 8)), np.zeros((8, 8)))


def test_tvl1_deterministic():
    tex = smooth_texture(3)
    apex = fourier_shift(tex, 1.0, -1.0)
    a = tvl1_flow(tex, apex)
    b = tvl1_flow(tex, apex)
    assert a.u.tobytes() == b.u.tobytes()
    assert a.v.tobytes() == b.v.tobytes()


# -- numpy blur and warp against scipy.ndimage ----------------------------------
# scipy is the oracle: the helpers must give its bytes, signs of zero included.

HELPER_SHAPES = [(1, 1), (1, 7), (7, 1), (2, 2), (5, 9), (16, 16), (31, 17), (70, 70)]
# 1e-3 gives radius 0; 0.625 gives 4 * sigma = 2.5, which rounds up to radius 3;
# 20.0 gives radius 80, wider than every image here
BLUR_SIGMAS = [1e-3, 0.625, 0.6 * np.sqrt(3.0), 2.0, 6.0, 20.0]
WARP_POINTS = ["random", "integer", "far edge", "negative zero", "far outside"]

PARITY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _scipy_blur(img, sigma):
    return ndimage.gaussian_filter(img, sigma, mode="nearest")


def _scipy_warp(img, ys, xs):
    return ndimage.map_coordinates(img, [ys, xs], order=1, mode="nearest")


def _helper_image(shape, seed):
    """Values of both signs, with some exact zeros of either sign."""
    rng = np.random.default_rng(seed)
    img = rng.uniform(-255.0, 255.0, shape)
    img[rng.random(shape) < 0.1] = 0.0
    img[rng.random(shape) < 0.1] = -0.0
    return img


def _warp_points(kind, h, w, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.uniform(-3.0, h + 2.0, (h, w)), rng.uniform(-3.0, w + 2.0, (h, w))
    if kind == "integer":
        return (rng.integers(-2, h + 2, (h, w)).astype(np.float64),
                rng.integers(-2, w + 2, (h, w)).astype(np.float64))
    if kind == "far edge":
        return np.full((h, w), h - 1.0), np.full((h, w), w - 1.0)
    if kind == "negative zero":
        return np.full((h, w), -0.0), np.full((h, w), -0.0)
    return (rng.choice([-200.5, -200.0, h + 199.25, h + 200.0], (h, w)),
            rng.choice([-201.75, -200.0, w + 199.5, w + 200.0], (h, w)))


@pytest.mark.parametrize("shape", HELPER_SHAPES)
@pytest.mark.parametrize("sigma", BLUR_SIGMAS)
def test_gaussian_blur_matches_scipy(shape, sigma):
    img = _helper_image(shape, seed=shape[0] * 100 + shape[1])
    got = optflow._gaussian_blur(img, sigma)
    assert _same_bits([got], [_scipy_blur(img, sigma)])
    assert got.flags.c_contiguous


@pytest.mark.parametrize("shape", HELPER_SHAPES)
@pytest.mark.parametrize("kind", WARP_POINTS)
def test_bilinear_sample_matches_scipy(shape, kind):
    h, w = shape
    img = _helper_image(shape, seed=h * 100 + w)
    ys, xs = _warp_points(kind, h, w, seed=h + w)
    assert _same_bits([optflow._bilinear_sample(img, ys, xs)], [_scipy_warp(img, ys, xs)])
    # one call over stacked images equals one scipy call per image
    images = np.stack([img, -img, 0.5 * img])
    got = optflow._bilinear_sample(images, ys, xs)
    assert _same_bits(got, [_scipy_warp(image, ys, xs) for image in images])


def test_bilinear_sample_of_negative_zeros_is_positive_zero():
    # scipy starts each sum at +0.0, so all -0.0 corners give +0.0
    img = np.full((4, 5), -0.0)
    ys, xs = _warp_points("random", 4, 5, seed=3)
    got = optflow._bilinear_sample(img, ys, xs)
    assert _same_bits([got], [_scipy_warp(img, ys, xs)])
    assert not np.signbit(got).any()


@PARITY
@given(h=st.integers(1, 24), w=st.integers(1, 24), seed=st.integers(0, 2 ** 32 - 1),
       sigma=st.floats(1e-4, 12.0))
def test_gaussian_blur_matches_scipy_on_random_cases(h, w, seed, sigma):
    img = _helper_image((h, w), seed)
    assert _same_bits([optflow._gaussian_blur(img, sigma)], [_scipy_blur(img, sigma)])


@PARITY
@given(h=st.integers(1, 24), w=st.integers(1, 24), seed=st.integers(0, 2 ** 32 - 1),
       points=st.lists(st.tuples(st.floats(-250.0, 250.0), st.floats(-250.0, 250.0)),
                       min_size=1, max_size=40))
def test_bilinear_sample_matches_scipy_on_random_cases(h, w, seed, points):
    img = _helper_image((h, w), seed)
    ys, xs = (np.array(c) for c in zip(*points))
    assert _same_bits([optflow._bilinear_sample(img, ys, xs)], [_scipy_warp(img, ys, xs)])


@pytest.mark.parametrize("size,n_levels", [(48, 3), (64, 4), (128, 5)])
def test_pyramid_matches_scipy_reference(size, n_levels):
    img = smooth_texture(5, n=size) * 255.0
    got = optflow._pyramid(img, 0.5, None)
    sigma = 0.6 * np.sqrt(1.0 / 0.5 ** 2 - 1.0)
    want = [img]
    for level in got[1:]:
        want.append(optflow._resize_bilinear(_scipy_blur(want[-1], sigma), *level.shape))
    assert len(got) == n_levels
    assert _same_bits(got, want)


@pytest.mark.parametrize("scale,sides", [(0.99, [32]), (1e-300, [32]),
                                         (0.98, list(range(32, 23, -1)))])
def test_pyramid_stops_where_a_level_would_not_shrink(scale, sides):
    # round(32 * 0.99) is 32 again, as is round(24 * 0.98) for 24; and
    # 1e-300 ** 2 underflows to 0, which the blur width divides by
    levels = optflow._pyramid(np.zeros((32, 32)), scale, None)
    assert [level.shape for level in levels] == [(side, side) for side in sides]


# -- stacked-field solver against the per-field scheme -------------------------


def _clip_step(rho, i1wx, i1wy, grad_sq, l_t, floor):
    """The solver's data step, ``grad * clip(rho / -max(grad_sq, floor), -l_t,
    l_t)``, in its op order."""
    coef = np.clip(rho / -np.maximum(grad_sq, floor), -l_t, l_t)
    return i1wx * coef, i1wy * coef


def _where_step(rho, i1wx, i1wy, grad_sq, l_t, floor):
    """The three-branch data step: clamp where ``|rho| > l_t * grad_sq``,
    else ``-rho * grad / max(grad_sq, floor)``."""
    return tuple(np.where(rho < -l_t * grad_sq, l_t * g,
                          np.where(rho > l_t * grad_sq, -l_t * g,
                                   -rho * g / np.maximum(grad_sq, floor)))
                 for g in (i1wx, i1wy))


def _reference_tvl1_level(i0, i1, u, v, params, data_step=_clip_step, stops=None):
    """Per-field TV-L1 level: separate u/v updates, four duals, computed in
    the dtype of ``u`` and ``v`` with a float64 warp.  A warp stops after the
    first inner iteration whose mean squared update of (u, v), taken in
    float64, is below ``optflow.STOP_EPSILON ** 2``; ``stops`` (a list) gets
    each warp's iteration count."""
    h, w = i0.shape
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    dtype = u.dtype
    i0 = i0.astype(dtype)

    def warp(img):
        return ndimage.map_coordinates(img, [yy + v, xx + u], order=1,
                                       mode="nearest").astype(dtype)

    def forward_gradient(a):
        gx = np.zeros_like(a)
        gy = np.zeros_like(a)
        gx[:, :-1] = a[:, 1:] - a[:, :-1]
        gy[:-1, :] = a[1:, :] - a[:-1, :]
        return gx, gy

    def divergence(px, py):
        div = np.empty_like(px)
        div[:, 0] = px[:, 0]
        div[:, 1:] = px[:, 1:] - px[:, :-1]
        div[0, :] += py[0, :]
        div[1:, :] += py[1:, :] - py[:-1, :]
        return div

    i1y, i1x = np.gradient(i1)
    p11, p12, p21, p22 = (np.zeros_like(u) for _ in range(4))
    l_t = params.lambda_weight * params.theta
    taut = params.tau / params.theta
    for _ in range(params.n_warps):
        i1w, i1wx, i1wy = warp(i1), warp(i1x), warp(i1y)
        grad_sq = i1wx ** 2 + i1wy ** 2
        rho_c = i1w - i1wx * u - i1wy * v - i0
        for count in range(1, params.n_inner_iters + 1):
            u_prev, v_prev = u, v
            rho = rho_c + i1wx * u + i1wy * v
            d1, d2 = data_step(rho, i1wx, i1wy, grad_sq, l_t, dtype.type(1e-12))
            u = u + d1 + params.theta * divergence(p11, p12)
            v = v + d2 + params.theta * divergence(p21, p22)
            ux, uy = forward_gradient(u)
            vx, vy = forward_gradient(v)
            norm1 = 1.0 + taut * np.sqrt(ux ** 2 + uy ** 2)
            norm2 = 1.0 + taut * np.sqrt(vx ** 2 + vy ** 2)
            p11 = (p11 + taut * ux) / norm1
            p12 = (p12 + taut * uy) / norm1
            p21 = (p21 + taut * vx) / norm2
            p22 = (p22 + taut * vy) / norm2
            du, dv = (a.astype(np.float64) - b for a, b in ((u, u_prev), (v, v_prev)))
            if np.mean(du ** 2 + dv ** 2) < optflow.STOP_EPSILON ** 2:
                break
        if stops is not None:
            stops.append(count)
    return u, v


def _reference_tvl1_flow(onset, apex, params, dtype):
    """Coarse to fine with every level solved in ``dtype``, as a float64 flow."""
    pyr0 = optflow._pyramid(onset * 255.0, params.pyramid_scale, params.pyramid_levels)
    pyr1 = optflow._pyramid(apex * 255.0, params.pyramid_scale, params.pyramid_levels)
    u = np.zeros(pyr0[-1].shape, dtype)
    v = np.zeros(pyr0[-1].shape, dtype)
    for i0, i1 in zip(reversed(pyr0), reversed(pyr1)):
        if u.shape != i0.shape:
            (h_new, w_new), (h_old, w_old) = i0.shape, u.shape
            u = (optflow._resize_bilinear(u, h_new, w_new) * (w_new / w_old)).astype(dtype)
            v = (optflow._resize_bilinear(v, h_new, w_new) * (h_new / h_old)).astype(dtype)
        u, v = _reference_tvl1_level(i0, i1, u, v, params)
    return u.astype(np.float64), v.astype(np.float64)


def _same_bits(got, want):
    """Equal values, signs of zero included."""
    return all(np.array_equal(g, w) and g.tobytes() == w.tobytes()
               for g, w in zip(got, want))


def _textured_pair(h, w, dy, dx):
    tex = smooth_texture(21, n=max(h, w))[:h, :w]
    apex = fourier_shift(smooth_texture(21, n=max(h, w)), dy, dx)[:h, :w]
    return tex, apex


# each per-field pin runs at both element types: float64, and float32, the
# solver's; the level computes in the dtype of its u and v
LEVEL_DTYPES = (np.float64, np.float32)


@pytest.mark.parametrize("dims,shift", [((64, 64), (1.5, -2.0)),
                                        ((40, 24), (-0.7, 1.2))])
def test_tvl1_level_matches_per_field_reference(monkeypatch, dims, shift):
    onset, apex = _textured_pair(*dims, *shift)
    params = TVL1Params()
    monkeypatch.setattr(optflow, "STOP_EPSILON", 0.0)  # pins the arithmetic, not the stop
    i0, i1 = onset * 255.0, apex * 255.0
    for dtype in LEVEL_DTYPES:
        zero = np.zeros(dims, dtype)
        want_u, want_v = _reference_tvl1_level(i0, i1, zero, zero, params)
        got_u, got_v = optflow._tvl1_level(i0, i1, zero, zero, params)
        assert got_u.dtype == dtype
        assert _same_bits((got_u, got_v), (want_u, want_v))


def test_tvl1_level_matches_reference_from_nonzero_start(monkeypatch):
    onset, apex = _textured_pair(32, 48, 0.8, -1.1)
    params = TVL1Params(pyramid_levels=1, n_warps=2)
    rng = np.random.default_rng(17)
    start = rng.uniform(-1.0, 1.0, (2, 32, 48))
    i0, i1 = onset * 255.0, apex * 255.0
    for dtype in LEVEL_DTYPES:
        u0, v0 = start.astype(dtype)
        want_u, want_v = _reference_tvl1_level(i0, i1, u0, v0, params)
        got_u, got_v = optflow._tvl1_level(i0, i1, u0, v0, params)
        assert _same_bits((got_u, got_v), (want_u, want_v))
        monkeypatch.setattr(optflow, "SOLVER_DTYPE", dtype)
        flow = tvl1_flow(onset, apex, params)
        zero = np.zeros((32, 48), dtype)
        want = _reference_tvl1_level(i0, i1, zero, zero, params)
        assert _same_bits((flow.u, flow.v), [w.astype(np.float64) for w in want])


@pytest.mark.parametrize("apex_level", [100.0, 103.0])
def test_tvl1_level_matches_reference_on_flat_image(apex_level):
    # grad_sq == 0 everywhere: the 1e-12 denominator floor (equal frames) or
    # the clamps (a brightness step) decide the data step
    i0 = np.full((20, 20), 100.0)
    i1 = np.full((20, 20), apex_level)
    params = TVL1Params(n_warps=2, n_inner_iters=5)
    for dtype in LEVEL_DTYPES:
        zero = np.zeros((20, 20), dtype)
        want_u, want_v = _reference_tvl1_level(i0, i1, zero, zero, params)
        got_u, got_v = optflow._tvl1_level(i0, i1, zero, zero, params)
        assert _same_bits((got_u, got_v), (want_u, want_v))


def _first_step(i0, i1, dtype):
    """The residual ``rho`` and the gradients of ``i1`` in ``dtype``, as one
    warp from a zero start computes them."""
    i1y, i1x = np.gradient(i1)
    return (i1.astype(dtype) - i0.astype(dtype), i1x.astype(dtype),
            i1y.astype(dtype))


def test_tvl1_level_from_zero_start_returns_the_data_step():
    # a zero-flow warp returns i1 and its gradients exactly and the duals
    # start at 0, so the first iteration's u and v are the data step d
    rng = np.random.default_rng(5)
    i0, i1 = rng.uniform(0.0, 255.0, (2, 12, 9))
    i1[:, :4] = 80.0  # flat columns, where grad is 0
    ys, xs = np.indices(i1.shape, dtype=np.float64)
    images = np.stack([i1, *np.gradient(i1)[::-1]])
    assert _same_bits(optflow._bilinear_sample(images, ys, xs), images)
    params = TVL1Params(n_warps=1, n_inner_iters=1)
    for dtype in LEVEL_DTYPES:
        zero = np.zeros(i1.shape, dtype)
        rho, gx, gy = _first_step(i0, i1, dtype)
        want = _clip_step(rho, gx, gy, gx ** 2 + gy ** 2,
                          params.lambda_weight * params.theta, dtype(1e-12))
        got = optflow._tvl1_level(i0, i1, zero, zero, params)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@st.composite
def _step_images(draw):
    """A frame pair whose gradients mix exact zeros, magnitudes below and
    above the 1e-6 floor, and whose residuals run from 0 to far past the
    clamp, at two intensity levels."""
    h, w = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = draw(st.sampled_from([0.0, 100.0]))
    scale = rng.choice([0.0, 0.0, 1e-9, 1e-7, 3e-6, 1e-3, 1.0, 40.0], (h, w))
    i1 = base + scale * rng.uniform(-1.0, 1.0, (h, w))
    residual = rng.choice([0.0, 1e-20, 1e-14, 1e-9, 1e-3, 1.0, 30.0], (h, w))
    return i1 - residual * rng.uniform(-1.0, 1.0, (h, w)), i1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pair=_step_images())
def test_clip_data_step_matches_the_three_branch_step(pair):
    i0, i1 = pair
    params = TVL1Params(n_warps=1, n_inner_iters=1)
    l_t = params.lambda_weight * params.theta
    rho, gx, gy = _first_step(i0, i1, np.float64)
    grad_sq = gx ** 2 + gy ** 2
    want = np.stack(_where_step(rho, gx, gy, grad_sq, l_t, 1e-12))
    zero = np.zeros(i1.shape)
    got = np.stack(optflow._tvl1_level(i0, i1, zero, zero, params))
    bound = l_t * np.sqrt(grad_sq)
    above = grad_sq >= 1e-12
    assert (np.abs(got - want)[:, above] <= 4 * np.spacing(bound[above])).all()
    assert (np.abs(got - want)[:, ~above] <= bound[~above]).all()
    flat = grad_sq == 0.0
    assert not got[:, flat].any() and not want[:, flat].any()


# 2..20 px grids include 2-wide and 2-tall ones, where the zeroed last
# x-column and the leading zeros of the flat dual buffer meet every edge
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(h=st.integers(2, 20), w=st.integers(2, 20), seed=st.integers(0, 2 ** 32 - 1),
       n_warps=st.integers(1, 2), n_inner_iters=st.integers(1, 4))
def test_tvl1_level_matches_reference_on_random_cases(h, w, seed, n_warps,
                                                      n_inner_iters):
    rng = np.random.default_rng(seed)
    i0, i1 = rng.uniform(0.0, 255.0, (2, h, w))
    magnitude = rng.uniform(0.01, 2.0, (2, h, w))
    start = np.where(rng.random((2, h, w)) < 0.5, -magnitude, magnitude)
    params = TVL1Params(n_warps=n_warps, n_inner_iters=n_inner_iters)
    for dtype in LEVEL_DTYPES:
        u0, v0 = start.astype(dtype)
        got = optflow._tvl1_level(i0, i1, u0, v0, params)
        assert _same_bits(got, _reference_tvl1_level(i0, i1, u0, v0, params))


@pytest.mark.parametrize("epsilon,counts", [(1e9, {1}), (0.0, {30}),
                                            (optflow.STOP_EPSILON, None)],
                         ids=["huge", "zero", "default"])
def test_tvl1_level_stops_each_warp_once_its_update_is_below_epsilon(monkeypatch,
                                                                    epsilon, counts):
    monkeypatch.setattr(optflow, "STOP_EPSILON", epsilon)
    params = TVL1Params()
    onset, apex = _textured_pair(32, 48, 0.8, -1.1)
    i0, i1 = onset * 255.0, apex * 255.0
    for dtype in LEVEL_DTYPES:
        zero = np.zeros((32, 48), dtype)
        stops = []
        want = _reference_tvl1_level(i0, i1, zero, zero, params, stops=stops)
        assert _same_bits(optflow._tvl1_level(i0, i1, zero, zero, params), want)
        assert len(stops) == params.n_warps
        # at the default some warps stop early, and not all at one count
        assert set(stops) == counts if counts else len(set(stops)) > 1 and min(stops) < 30


# every level of the 128x128 and the 96x64 pyramids
@pytest.mark.parametrize("dims", [(8, 8), (16, 16), (32, 32), (64, 64), (128, 128),
                                  (12, 8), (24, 16), (48, 32), (96, 64)],
                         ids=lambda dims: f"{dims[0]}x{dims[1]}")
def test_tvl1_level_arena_is_aligned_disjoint_and_staggered(monkeypatch, dims):
    # the layout is what makes the level fast; the bit-exact tests cannot see it
    arenas = []

    def recorded(*specs):
        arrays = arena(*specs)
        assert all(not a.any() for a in arrays)
        arenas.append(arrays)
        return arrays

    arena = optflow._arena
    monkeypatch.setattr(optflow, "_arena", recorded)
    i0, i1 = np.random.default_rng(1).uniform(0.0, 255.0, (2, *dims))
    for dtype in LEVEL_DTYPES:
        optflow._tvl1_level(i0, i1, np.zeros(dims, dtype), np.zeros(dims, dtype),
                            TVL1Params(n_warps=1, n_inner_iters=1))
    assert [{a.dtype for a in arrays} for arrays in arenas] == [
        {np.dtype(dtype)} for dtype in LEVEL_DTYPES]
    for arrays in arenas:
        assert len(arrays) == 7
        spans = sorted((a.ctypes.data, a.ctypes.data + a.nbytes) for a in arrays)
        assert all(start % 64 == 0 for start, _ in spans)
        assert all(stop <= start for (_, stop), (start, _) in zip(spans, spans[1:]))
        assert len({start % 4096 for start, _ in spans}) == len(spans)


@pytest.mark.parametrize("dims", [(64, 64), (128, 128), (96, 64)],
                         ids=lambda dims: f"{dims[0]}x{dims[1]}")
def test_tvl1_flow_file_bytes_match_reference(tmp_path, monkeypatch, dims):
    onset, apex = _textured_pair(*dims, -1.0, 0.5)
    params = TVL1Params()
    monkeypatch.setattr(optflow, "STOP_EPSILON", 0.0)  # pins the arithmetic, not the stop
    for dtype in LEVEL_DTYPES:
        monkeypatch.setattr(optflow, "SOLVER_DTYPE", dtype)
        flow = tvl1_flow(onset, apex, params)
        ref = FlowField(*_reference_tvl1_flow(onset, apex, params, dtype))
        for name, fl in (("got", flow), ("want", ref)):
            stacked = np.stack([fl.u, fl.v, optical_strain(fl)], axis=2)
            write_flow_map(tmp_path / f"{name}.flow", stacked)
        assert (tmp_path / "got.flow").read_bytes() == (tmp_path / "want.flow").read_bytes()


# -- float32 solver against the float64 one --------------------------------------
# The solver computes in optflow.SOLVER_DTYPE (float32); these bounds pin how
# far that may move the flow and the network's input from a float64 solve.

FLOAT32_EPE_MEDIAN_PX = 5e-7
FLOAT32_EPE_MAX_PX = 7.5e-4
FLOAT32_COMPOSITE_MAX = 2.5e-2


# the acceptance flow oracle's shifts (dx, dy) of a 64 px texture, identity first
ORACLE_SHIFTS = [(0.0, 0.0), (2.0, 0.0), (0.0, -1.0), (1.5, -2.5), (0.3, 0.7),
                 (-3.0, 1.0), (0.5, 0.5)]


def oracle_shift_epe(flows) -> float:
    """The worst median end-point error (central 75%) of the flows of the
    oracle's shifts against the known shifts."""
    return max(float(np.median(np.hypot(f.u[CENTRAL, CENTRAL] - dx,
                                        f.v[CENTRAL, CENTRAL] - dy)))
               for f, (dx, dy) in zip(flows, ORACLE_SHIFTS))


def float_tolerance_report(work_dir, reference=None, candidate=None) -> dict[str, float]:
    """Solve a fixed set twice, each time with some ``optflow`` attributes
    patched, and compare the two solves.

    ``reference`` and ``candidate`` map attribute names to the values they
    take while that side solves; by default the reference solves with
    ``SOLVER_DTYPE`` float64 and the candidate as the program does.  The set
    is the acceptance flow oracle's identity and shift cases on a 64 px
    texture, and the samples of two small ``gen_synthetic`` sets at 64 px and
    128 px, rendered under ``work_dir``.  Returns the median and max
    end-point error between the two solves over every pixel, each solve's
    worst median EPE against the known shifts (central 75%), and the max
    absolute difference of the standardised 28x28x3 composites of the
    synthetic samples.
    """
    tex = smooth_texture(42)
    frames = [(tex, fourier_shift(tex, dy, dx), None) for dx, dy in ORACLE_SHIFTS]
    for size in (64, 128):
        manifest, _ = gen_synthetic(work_dir / f"{size}px", seed=8, n_subjects=2,
                                    samples_per_subject=3, image_size=size)
        frames += [(read_pgm(s.onset_path), read_pgm(s.apex_path), s.landmarks)
                   for s in manifest.samples]

    def solve(patches):
        with pytest.MonkeyPatch.context() as patch:
            for name, value in patches.items():
                patch.setattr(optflow, name, value)
            return [tvl1_flow(onset, apex) for onset, apex, _ in frames]

    def composite(flow, landmarks):
        full = np.stack([flow.u, flow.v, optical_strain(flow)], axis=2)
        return standardize_channels(compose_regions(full, landmarks))

    wide = solve({"SOLVER_DTYPE": np.float64} if reference is None else reference)
    narrow = solve(candidate or {})
    epe = np.concatenate([np.hypot(a.u - b.u, a.v - b.v).ravel()
                          for a, b in zip(wide, narrow)])
    composite_diff = max(float(np.abs(composite(a, lm) - composite(b, lm)).max())
                         for a, b, (_, _, lm) in zip(wide, narrow, frames) if lm)
    return {"epe_median": float(np.median(epe)), "epe_max": float(epe.max()),
            "shift_epe_reference": oracle_shift_epe(wide),
            "shift_epe": oracle_shift_epe(narrow),
            "composite_max": composite_diff}


def test_float32_solver_stays_within_its_pinned_tolerance(tmp_path):
    # at a fixed count: solves ~1e-9 px apart may stop a warp at different
    # iterations, which would measure where they stop, not their rounding
    fixed = {"STOP_EPSILON": 0.0}
    report = float_tolerance_report(tmp_path, {**fixed, "SOLVER_DTYPE": np.float64}, fixed)
    assert report["epe_median"] <= FLOAT32_EPE_MEDIAN_PX, report
    assert report["epe_max"] <= FLOAT32_EPE_MAX_PX, report
    assert report["composite_max"] <= FLOAT32_COMPOSITE_MAX, report
    # both solves pass the acceptance flow oracle's bound on their own
    assert report["shift_epe_reference"] < 0.3 and report["shift_epe"] < 0.3, report
    # else the program solves in float64, and the gate compares a solve
    # with itself
    assert report["epe_max"] > 0.0, report


# -- the clip data step against the three-branch one ------------------------------
# The solver takes the data step as one clip; where |grad|^2 >= 1e-12 that is
# the three-branch step up to rounding, and below it the two differ by at
# most lambda * theta * |grad| < 4.5e-8 px.  These bounds pin how far the
# rewrite moves the flow: at float64 the solves of the two steps, at float32
# the program against the three-branch program.

CLIP_STEP_EPE_MAX_FLOAT64_PX = 1e-9
CLIP_STEP_EPE_MEDIAN_PX = 5e-7
CLIP_STEP_EPE_MAX_PX = 7.5e-4
CLIP_STEP_COMPOSITE_MAX = 2.5e-2


def test_clip_data_step_stays_within_its_pinned_tolerance(tmp_path):
    # at a fixed count: solves ~1e-9 px apart may stop a warp at different
    # iterations, which would hide the step's deviation
    three_branch = {"_tvl1_level": functools.partial(_reference_tvl1_level,
                                                     data_step=_where_step)}
    fixed = {"STOP_EPSILON": 0.0}
    wide = float_tolerance_report(tmp_path / "float64",
                                  {**three_branch, **fixed, "SOLVER_DTYPE": np.float64},
                                  {**fixed, "SOLVER_DTYPE": np.float64})
    assert wide["epe_max"] <= CLIP_STEP_EPE_MAX_FLOAT64_PX, wide
    narrow = float_tolerance_report(tmp_path / "float32", {**three_branch, **fixed}, fixed)
    assert narrow["epe_median"] <= CLIP_STEP_EPE_MEDIAN_PX, narrow
    assert narrow["epe_max"] <= CLIP_STEP_EPE_MAX_PX, narrow
    assert narrow["composite_max"] <= CLIP_STEP_COMPOSITE_MAX, narrow
    assert narrow["shift_epe_reference"] < 0.3 and narrow["shift_epe"] < 0.3, narrow
    # else the two steps take the same path, and the gate compares a solve
    # with itself
    assert wide["epe_max"] > 0.0 and narrow["epe_max"] > 0.0, (wide, narrow)


# -- the stopped solve against the truth ------------------------------------------
# A warp that stops once its update is below epsilon is a different estimate
# from the fixed-count solve, not a rounding of it: the standardised composite
# moves by several units.  So it is pinned against the known shifts of the
# acceptance flow oracle, whose own gate is < 0.3 px.

STOPPED_SHIFT_EPE_PX = 0.03


def test_stopped_solve_stays_within_its_pinned_truth_bound(monkeypatch):
    tex = smooth_texture(42)
    pairs = [(tex, fourier_shift(tex, dy, dx)) for dx, dy in ORACLE_SHIFTS]
    stopped = oracle_shift_epe([tvl1_flow(*pair) for pair in pairs])
    monkeypatch.setattr(optflow, "STOP_EPSILON", 0.0)
    fixed = oracle_shift_epe([tvl1_flow(*pair) for pair in pairs])
    assert stopped <= STOPPED_SHIFT_EPE_PX, (stopped, fixed)
    # else the default runs every iteration, and the pin judges nothing new
    assert stopped != fixed


def test_tvl1_param_validation():
    with pytest.raises(ValidationError, match="stability"):
        TVL1Params(tau=0.5, theta=0.3)
    with pytest.raises(ValidationError):
        TVL1Params(pyramid_scale=1.5)


@pytest.mark.parametrize("field,value,problem", [
    ("n_warps", 2.5, "n_warps must be an integer"),
    ("n_inner_iters", True, "n_inner_iters must be an integer"),
    ("pyramid_levels", 1.5, "pyramid_levels must be an integer"),
    ("pyramid_levels", "2", "pyramid_levels must be an integer"),
    ("lambda_weight", float("nan"), "lambda_weight must be a finite number"),
    ("theta", float("inf"), "theta must be a finite number"),
    ("tau", "0.25", "tau must be a finite number"),
    ("pyramid_scale", False, "pyramid_scale must be a finite number"),
])
def test_tvl1_params_reject_wrong_types(field, value, problem):
    with pytest.raises(ValidationError, match=problem):
        TVL1Params(**{field: value})


def test_tvl1_params_accept_integral_weights():
    params = TVL1Params(lambda_weight=1, pyramid_levels=None, n_warps=np.int64(2))
    assert params.lambda_weight == 1 and params.n_warps == 2


# -- optical_strain ---------------------------------------------------------------


def test_strain_of_constant_flow_is_zero():
    flow = FlowField(u=np.full((10, 12), 3.7), v=np.full((10, 12), -1.2))
    strain = optical_strain(flow)
    assert np.abs(strain).max() < 1e-12


def test_strain_unit_stretch():
    yy, xx = np.meshgrid(np.arange(9.0), np.arange(9.0), indexing="ij")
    flow = FlowField(u=xx.copy(), v=np.zeros_like(xx))
    strain = optical_strain(flow)
    np.testing.assert_allclose(strain[1:-1, 1:-1], 1.0, atol=1e-6)


def test_strain_pure_shear_is_sqrt2():
    yy, xx = np.meshgrid(np.arange(9.0), np.arange(9.0), indexing="ij")
    flow = FlowField(u=yy.copy(), v=xx.copy())
    strain = optical_strain(flow)
    np.testing.assert_allclose(strain[1:-1, 1:-1], np.sqrt(2.0), atol=1e-6)


def test_strain_translation_invariance():
    rng = np.random.default_rng(5)
    u = rng.standard_normal((12, 12))
    v = rng.standard_normal((12, 12))
    base = optical_strain(FlowField(u=u, v=v))
    shifted = optical_strain(FlowField(u=u + 10.0, v=v - 4.0))
    np.testing.assert_allclose(base, shifted, atol=1e-10)


def test_strain_nonnegative():
    rng = np.random.default_rng(6)
    strain = optical_strain(FlowField(u=rng.standard_normal((8, 8)),
                                      v=rng.standard_normal((8, 8))))
    assert np.all(strain >= 0.0)


def test_strain_rejects_tiny_fields():
    with pytest.raises(ValidationError):
        optical_strain(FlowField(u=np.zeros((2, 5)), v=np.zeros((2, 5))))


# -- standardize_channels ------------------------------------------------------------


def test_standardization_moments():
    rng = np.random.default_rng(2)
    fmap = np.stack([rng.standard_normal((28, 28)) * 3 + 1,
                     rng.standard_normal((28, 28)) * 0.5 - 2,
                     np.abs(rng.standard_normal((28, 28))),
                     # micro-motion scale: far above the zero-variance floor
                     rng.standard_normal((28, 28)) * 1e-6 + 0.3], axis=2)
    out = standardize_channels(fmap)
    for c in range(fmap.shape[2]):
        assert abs(out[:, :, c].mean()) < 1e-5
        assert abs(out[:, :, c].var() - 1.0) < 1e-4


# -- compose_regions ------------------------------------------------------------------


def _landmarks_all_at(x, y):
    return LandmarkSet(left_eye=(x, y), right_eye=(x, y), nose=(x, y),
                       left_lip=(x, y), right_lip=(x, y))


def test_compose_identical_regions_tile():
    rng = np.random.default_rng(3)
    full = rng.standard_normal((64, 64, 3))
    out = compose_regions(full, _landmarks_all_at(32, 32), region_px=28)
    assert out.shape == (28, 28, 3)
    np.testing.assert_array_equal(out[:14, :14], out[:14, 14:])
    np.testing.assert_array_equal(out[:14, :14], out[14:, :14])
    np.testing.assert_array_equal(out[:14, :14], out[14:, 14:])


def test_compose_clamps_near_border():
    rng = np.random.default_rng(4)
    full = rng.standard_normal((40, 40, 3))
    lm = LandmarkSet(left_eye=(1, 1), right_eye=(39, 1), nose=(20, 20),
                     left_lip=(1, 39), right_lip=(39, 39))
    out = compose_regions(full, lm, region_px=28)
    assert out.shape == (28, 28, 3)
    assert np.all(np.isfinite(out))
    # clamped left-eye window is exactly the top-left 28x28 corner
    from ahmsa.optflow import _resize_bilinear
    np.testing.assert_allclose(out[:14, :14],
                               _resize_bilinear(full[:28, :28, :], 14, 14))


def test_compose_hot_pixel_stays_in_left_eye_quadrant():
    full = np.zeros((64, 64, 3))
    full[20, 16, 0] = 100.0
    lm = LandmarkSet(left_eye=(16, 20), right_eye=(48, 20), nose=(32, 32),
                     left_lip=(16, 48), right_lip=(48, 48))
    out = compose_regions(full, lm, region_px=16)
    assert out[:14, :14, 0].max() > 0.0
    assert out[:14, 14:, 0].max() == 0.0
    assert out[14:, :, 0].max() == 0.0


def test_compose_rejects_out_of_bounds_landmark():
    full = np.zeros((32, 32, 3))
    lm = LandmarkSet(left_eye=(10, 10), right_eye=(40, 10), nose=(16, 16),
                     left_lip=(10, 25), right_lip=(25, 25))
    with pytest.raises(ValidationError, match="right_eye"):
        compose_regions(full, lm, region_px=16)


def test_compose_nose_overlay_changes_center_only():
    rng = np.random.default_rng(8)
    full = rng.standard_normal((64, 64, 3))
    lm = LandmarkSet(left_eye=(16, 16), right_eye=(48, 16), nose=(32, 32),
                     left_lip=(16, 48), right_lip=(48, 48))
    plain = compose_regions(full, lm, region_px=16)
    overlaid = compose_regions(full, lm, region_px=16, include_nose=True)
    diff = np.abs(plain - overlaid).sum(axis=2)
    assert diff[7:21, 7:21].max() > 0.0
    assert diff[:7, :].max() == 0.0 and diff[21:, :].max() == 0.0
    assert diff[:, :7].max() == 0.0 and diff[:, 21:].max() == 0.0


# -- extract_feature_map ----------------------------------------------------------------


def test_extract_feature_map_end_to_end():
    tex = smooth_texture(11)
    apex = fourier_shift(tex, 0.0, 1.5)
    lm = LandmarkSet(left_eye=(19, 22), right_eye=(45, 22), nose=(32, 35),
                     left_lip=(22, 48), right_lip=(42, 48))
    out = extract_feature_map(tex, apex, lm)
    assert out.shape == (28, 28, 3)
    assert np.all(np.isfinite(out))


def test_extract_feature_map_standardizes_the_raw_composite():
    tex = smooth_texture(11)
    apex = fourier_shift(tex, 0.0, 1.5)
    lm = LandmarkSet(left_eye=(19, 22), right_eye=(45, 22), nose=(32, 32),
                     left_lip=(22, 44), right_lip=(42, 44))
    motion = tvl1_flow(tex, apex)
    full = np.stack([motion.u, motion.v, optical_strain(motion)], axis=2)
    raw = compose_regions(full, lm, region_px=28, out_size=28)
    # a 1.5 px shift along x: raw u is near 1.5 before standardization
    assert abs(np.median(raw[:, :, 0]) - 1.5) < 0.3
    np.testing.assert_array_equal(standardize_channels(raw),
                                  extract_feature_map(tex, apex, lm))


# -- file formats --------------------------------------------------------------------------


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    img = rng.integers(0, 256, (24, 31)).astype(np.float64) / 255.0
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    np.testing.assert_allclose(back, img, atol=1e-12)


def test_pgm_with_comment(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes(range(16))
    path.write_bytes(b"P5\n# a comment\n4 4\n255\n" + payload)
    img = read_pgm(path)
    assert img.shape == (4, 4)
    np.testing.assert_allclose(img[0, 1], 1.0 / 255.0)


def test_pgm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n1 2 3 4\n")
    with pytest.raises(ValidationError):
        read_pgm(path)


@pytest.mark.parametrize("dims,problem", [(b"4 four", "non-integer"),
                                          (b"-4 -4", "non-positive")])
def test_pgm_rejects_bad_header_dims(tmp_path, dims, problem):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n" + dims + b"\n255\n" + bytes(16))
    with pytest.raises(ValidationError, match=f"bad.pgm.*{problem}"):
        read_pgm(path)


def test_pgm_rejects_truncated_pixel_data(tmp_path):
    path = tmp_path / "cut.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
    with pytest.raises(ValidationError, match="cut.pgm.*truncated pixel data"):
        read_pgm(path)


def test_flow_map_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    fmap = rng.standard_normal((28, 28, 3)).astype(np.float32)
    path = tmp_path / "a.flow"
    write_flow_map(path, fmap)
    back = read_flow_map(path)
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, fmap)


def test_flow_map_header_layout(tmp_path):
    path = tmp_path / "h.flow"
    write_flow_map(path, np.zeros((5, 7, 3), dtype=np.float32))
    raw = path.read_bytes()
    assert raw[:4] == b"AHMS"
    assert raw[4] == 1
    assert raw[5:8] == b"\x00\x00\x00"
    assert int.from_bytes(raw[8:12], "little") == 5
    assert int.from_bytes(raw[12:16], "little") == 7
    assert len(raw) == 16 + 5 * 7 * 3 * 4


class _FullDisk:
    """A file that takes writes of up to 8 bytes (a header's fields) whole,
    then half of the next one before that write fails."""

    def __init__(self, path, mode, **kwargs):
        self.file = open(path, mode, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def write(self, data):
        if len(data) <= 8:
            return self.file.write(data)
        self.file.write(data[:len(data) // 2])
        raise OSError(28, "No space left on device")


def test_failed_flow_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "a.flow"
    write_flow_map(path, np.ones((4, 4, 3), dtype=np.float32))
    before = path.read_bytes()
    monkeypatch.setattr(optflow, "open", _FullDisk, raising=False)
    with pytest.raises(OSError, match="No space left"):
        write_flow_map(path, np.zeros((4, 4, 3), dtype=np.float32))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.flow"]


def test_failed_pgm_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "a.pgm"
    write_pgm(path, np.full((4, 4), 0.25))
    before = path.read_bytes()
    monkeypatch.setattr(optflow, "open", _FullDisk, raising=False)
    with pytest.raises(OSError, match="No space left"):
        write_pgm(path, np.full((4, 4), 0.75))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.pgm"]


def test_flow_map_rejects_corrupt(tmp_path):
    path = tmp_path / "bad.flow"
    path.write_bytes(b"AHMS" + b"\x01\x00\x00\x00" + b"\x00" * 8)
    with pytest.raises(ValidationError):
        read_flow_map(path)
    path.write_bytes(b"XXXX" + b"\x00" * 12)
    with pytest.raises(ValidationError):
        read_flow_map(path)
    write_flow_map(path, np.zeros((4, 4, 3), dtype=np.float32))
    path.write_bytes(path.read_bytes() + b"\x00")  # a valid map plus one byte
    with pytest.raises(ValidationError, match="payload is 193 bytes, expected 192"):
        read_flow_map(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_flow_map_rejects_non_finite_payload(tmp_path, bad):
    fmap = np.zeros((4, 4, 3), dtype=np.float32)
    fmap[2, 1, 0] = bad
    path = tmp_path / "nf.flow"
    write_flow_map(path, fmap)
    with pytest.raises(ValidationError, match="nf.flow.*non-finite"):
        read_flow_map(path)


# -- parsers on arbitrary bytes ------------------------------------------------------------
# Any file content yields an array or an AhmsaError, never another exception.

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

@st.composite
def _pgm_like(draw):
    """Mostly-well-formed P5 files, so the fuzz reaches the pixel checks."""
    magic = draw(st.sampled_from([b"P5", b"P5", b"P2"]))
    w, h = draw(st.integers(-1, 6)), draw(st.integers(-1, 6))
    maxval = draw(st.sampled_from([b"255", b"255", b"65535", b"2x5"]))
    sep = draw(st.sampled_from([b" ", b"\n", b"\t", b"\n# note\n"]))
    header = sep.join([magic, str(w).encode(), str(h).encode(), maxval]) + b"\n"
    n = max(w, 0) * max(h, 0)
    return header + draw(st.one_of(st.binary(min_size=n, max_size=n + 3),
                                   st.binary(max_size=n)))


@FUZZ
@given(raw=st.one_of(st.binary(max_size=300), _pgm_like()))
def test_read_pgm_arbitrary_bytes(tmp_path, raw):
    path = tmp_path / "fuzz.pgm"
    path.write_bytes(raw)
    try:
        img = read_pgm(path)
    except AhmsaError:
        return
    assert isinstance(img, np.ndarray) and img.ndim == 2
    assert img.min() >= 0.0 and img.max() <= 1.0


@st.composite
def _flow_like(draw):
    """Valid magic and version mostly, with arbitrary dims and payload."""
    magic = draw(st.sampled_from([b"AHMS", b"AHMS", b"AHMX"]))
    version = draw(st.sampled_from([1, 1, 0, 2]))
    dims = draw(st.tuples(st.integers(0, 4), st.integers(0, 4)))
    header = magic + bytes([version, 0, 0, 0]) + np.array(dims, "<u4").tobytes()
    exact = dims[0] * dims[1] * 12
    return header + draw(st.one_of(st.binary(min_size=exact, max_size=exact),
                                   st.binary(max_size=200)))


@FUZZ
@given(raw=st.one_of(st.binary(max_size=300), _flow_like()))
def test_read_flow_map_arbitrary_bytes(tmp_path, raw):
    path = tmp_path / "fuzz.flow"
    path.write_bytes(raw)
    try:
        fmap = read_flow_map(path)
    except AhmsaError:
        return
    assert isinstance(fmap, np.ndarray) and fmap.dtype == np.float32
    assert fmap.ndim == 3 and fmap.shape[2] == 3 and np.isfinite(fmap).all()


def test_standardize_channels_zero_variance_fallback():
    fmap = np.ones((5, 5, 3))
    fmap[:, :, 1] = np.arange(25.0).reshape(5, 5)
    fmap[:, :, 2] += 4e-13 * (np.arange(25) % 2).reshape(5, 5)  # std 2e-13
    out = standardize_channels(fmap)
    np.testing.assert_array_equal(out[:, :, 0], 0.0)
    np.testing.assert_array_equal(out[:, :, 2], 0.0)
    assert abs(out[:, :, 1].mean()) < 1e-12
