"""Dense optical flow features from onset/apex frame pairs.

The three-channel input map for the recognition network is built here:
horizontal flow u, vertical flow v (TV-L1, coarse-to-fine primal-dual) and
the optical strain magnitude derived from them.  Facial-region composites are
assembled by cropping fixed-size windows around the five landmark points and
tiling them into one map.

Image convention: row-major arrays, y = row index (downward), x = column
index (rightward).  Flow u is displacement along x, v along y, both in
pixels, pointing from the onset frame to the apex frame.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import DimensionError, ValidationError, check_fields
from .files import replacing

FLOW_MAGIC = b"AHMS"
FLOW_FORMAT_VERSION = 1

# Shortest pyramid side; coarser levels would carry no usable structure.
MIN_PYRAMID_SIDE = 8

# Element type of the TV-L1 levels' fields, duals and linearization.  The
# inner loop is bound by memory traffic, so 4-byte elements make it ~1.8x
# faster at 128 px; the deviation from a float64 solve is pinned by
# test_float32_solver_stays_within_its_pinned_tolerance.
SOLVER_DTYPE = np.float32

# A warp stops after the first inner iteration whose mean squared update of
# (u, v) per pixel is below STOP_EPSILON ** 2, with n_inner_iters as the cap
# (Sanchez Perez, Meinhardt-Llopis & Facciolo, "TV-L1 Optical Flow
# Estimation", IPOL 2013, which uses 0.01); 0 runs every inner iteration.
STOP_EPSILON = 0.01


@dataclass(frozen=True)
class TVL1Params:
    """Solver knobs for the primal-dual TV-L1 estimator.

    Defaults are the standard parameterization of the method (data weight
    0.15 against intensities in 0..255, coupling 0.3, dual step 0.25, five
    warps of at most thirty inner iterations over a half-scale pyramid; see
    ``STOP_EPSILON``).
    """

    lambda_weight: float = field(default=0.15, metadata={"rule": "positive"})
    theta: float = field(default=0.3, metadata={"rule": "positive"})
    tau: float = field(default=0.25, metadata={"rule": "positive"})
    n_warps: int = field(default=5, metadata={"rule": "positive"})
    n_inner_iters: int = field(default=30, metadata={"rule": "positive"})
    # None = deepest pyramid allowed
    pyramid_levels: int | None = field(default=None, metadata={"rule": "positive"})
    pyramid_scale: float = field(default=0.5, metadata={"rule": "in (0, 1)"})

    def __post_init__(self):
        check_fields(self, "tvl1", lambda: [] if self.tau * self.theta <= 0.125 + 1e-12
                     else [f"tau*theta = {self.tau * self.theta:.4f} exceeds the "
                           "dual-step stability bound 0.125"])


@dataclass(frozen=True)
class FlowOptions:
    """Feature-extraction knobs that sit outside the TV-L1 solver."""

    region_px: int = field(default=28, metadata={"rule": "positive"})
    include_nose: bool = False
    norm: str = field(default="standardize", metadata={"rule": ("standardize", "none")})

    def __post_init__(self):
        check_fields(self, "flow")


@dataclass
class FlowField:
    """Per-pixel displacement (u along x, v along y), in pixels."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if self.u.shape != self.v.shape or self.u.ndim != 2:
            raise DimensionError(
                f"u {self.u.shape} and v {self.v.shape} must be equal 2-D fields"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.u.shape


@dataclass(frozen=True)
class LandmarkSet:
    """Five (x, y) pixel coordinates on the apex frame."""

    left_eye: tuple[int, int]
    right_eye: tuple[int, int]
    nose: tuple[int, int]
    left_lip: tuple[int, int]
    right_lip: tuple[int, int]

    def items(self):
        return tuple((f.name, getattr(self, f.name)) for f in fields(self))


def _validate_gray_image(img: np.ndarray, name: str) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise DimensionError(f"{name} must be a 2-D grayscale image, got {img.shape}")
    if not np.all(np.isfinite(img)):
        raise ValidationError(f"{name} contains non-finite pixels")
    if img.min() < 0.0 or img.max() > 1.0:
        raise ValidationError(f"{name} pixels must lie in [0, 1]")
    return img


# -- TV-L1 solver ------------------------------------------------------------


def _resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize sampling at pixel centers, edge-clamped."""
    h, w = img.shape[:2]
    if (h, w) == (out_h, out_w):
        return img.copy()
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    if img.ndim == 3:
        wy = wy[:, :, None]
        wx = wx[:, :, None]
    top = img[y0][:, x0] * (1 - wx) + img[y0][:, x1] * wx
    bottom = img[y1][:, x0] * (1 - wx) + img[y1][:, x1] * wx
    return top * (1 - wy) + bottom * wy


def _gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur (sigma > 0) of a 2-D float64 image, edges
    replicated.

    The result is bit-identical to ``scipy.ndimage.gaussian_filter(img, sigma,
    mode="nearest")``: the same kernel (truncated at 4 sigma), rows then
    columns, and each output summed as ``x[i]*w[c]`` plus
    ``(x[i-j] + x[i+j]) * w[c-j]`` for j from the radius down to 1.
    """
    radius = int(4.0 * float(sigma) + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    weights = (phi / phi.sum())[::-1]
    h, w = img.shape
    out = img
    for axis in (0, 1):
        # the columns pass runs on transposed views, so every array keeps the
        # row-major layout of the image
        if axis == 0:
            src, pad = out, np.empty((h + 2 * radius, w))
        else:
            src, pad = out.T, np.empty((h, w + 2 * radius)).T
        n = src.shape[0]
        pad[:radius] = src[0]
        pad[radius:radius + n] = src
        pad[radius + n:] = src[-1]
        # taps[k] holds x[i - radius + k] at output position i
        taps = [pad[k:k + n] for k in range(2 * radius + 1)]
        acc = taps[radius] * weights[radius]
        pair = np.empty_like(acc)
        for j in range(radius, 0, -1):
            np.add(taps[radius - j], taps[radius + j], out=pair)
            pair *= weights[radius - j]
            acc += pair
        out = acc if axis == 0 else acc.T
    return out


def _bilinear_sample(images: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sample images[..., H, W] at the points (ys, xs), bilinearly, with the
    coordinates clamped to the image.

    The result is bit-identical to ``scipy.ndimage.map_coordinates(image,
    [ys, xs], order=1, mode="nearest")`` for each image: weights
    ``w0 = 1 - t``, ``w1 = 1 - w0`` from the unclamped floor, corner indices
    clamped, and ``v00*wy0*wx0 + v01*wy0*wx1 + v10*wy1*wx0 + v11*wy1*wx1``
    summed left to right.  The indices and weights are computed once for all
    images.
    """
    h, w = images.shape[-2:]
    flat = images.reshape(*images.shape[:-2], h * w)
    corners, weights = [], []
    for coord, size in ((ys, h), (xs, w)):
        start = np.floor(coord)
        w0 = coord - start
        np.subtract(1.0, w0, out=w0)
        weights.append((w0, 1.0 - w0))
        corners.append((np.clip(start, 0, size - 1).astype(np.intp),
                        np.clip(start + 1.0, 0, size - 1).astype(np.intp)))
    (y0, y1), (x0, x1) = corners
    (wy0, wy1), (wx0, wx1) = weights
    y0 *= w
    y1 *= w
    out = term = None
    for row, wy in ((y0, wy0), (y1, wy1)):
        for col, wx in ((x0, wx0), (x1, wx1)):
            term = np.take(flat, row + col, axis=-1, out=term)
            term *= wy
            term *= wx
            if out is None:
                out, term = term, None
            else:
                out += term
    # scipy starts its sum at 0.0, which turns an all -0.0 sum into +0.0
    out += 0.0
    return out


def _pyramid(img: np.ndarray, scale: float, max_levels: int | None) -> list[np.ndarray]:
    """``img`` and its successive ``scale`` reductions, ``max_levels`` levels
    at most; it ends before a level with a side below ``MIN_PYRAMID_SIDE`` or
    of the same size as the level above."""
    levels = [img]
    while max_levels is None or len(levels) < max_levels:
        h, w = levels[-1].shape
        nh, nw = int(round(h * scale)), int(round(w * scale))
        if min(nh, nw) < MIN_PYRAMID_SIDE or (nh, nw) == (h, w):
            break
        # antialias strength tied to the decimation ratio
        sigma = 0.6 * np.sqrt(1.0 / scale ** 2 - 1.0)
        smoothed = _gaussian_blur(levels[-1], sigma)
        levels.append(_resize_bilinear(smoothed, nh, nw))
    return levels


def _arena(*specs: tuple[tuple[int, ...], type]) -> list[np.ndarray]:
    """Zeroed arrays of the given (shape, dtype), carved from one buffer.

    Array k starts at byte k * 576 (nine cache lines) modulo 4096 of a
    page-aligned base: 64-byte aligned, and no two at the same offset within a
    page, where a load can wait on a store to another of them (4K aliasing).
    """
    starts, end = [], 0
    for k, (shape, dtype) in enumerate(specs):
        starts.append(end + (k * 576 - end) % 4096)
        end = starts[-1] + math.prod(shape) * np.dtype(dtype).itemsize
    raw = np.zeros(end + 4096, dtype=np.uint8)
    base = -raw.ctypes.data % 4096
    return [np.frombuffer(raw, dtype, math.prod(shape), base + start).reshape(shape)
            for start, (shape, dtype) in zip(starts, specs)]


def _tvl1_level(i0: np.ndarray, i1: np.ndarray, u: np.ndarray, v: np.ndarray,
                params: TVL1Params) -> tuple[np.ndarray, np.ndarray]:
    """Warps and inner iterations of one pyramid level.

    u and v are solved as one stacked field uv[2, H*W], flattened row-major,
    with duals p = buf[:, :, W:] in a zeroed buf[2 (u, v), 2 (x, y), W + H*W];
    every element sees the same float operations in the same order as two
    separate per-field solves on 2-D slices.  The divergence's backward
    differences are flat shifts by 1 (x) and W (y): before a first-column
    x-dual sits a leading zero or the last-column x-dual of the row above,
    which never leaves +0.0, and before the first row of y-duals sit W
    leading zeros; ``a - 0.0`` is ``a``, bits included.

    The inner loop writes only into one ``_arena`` per level, through ``out``
    arguments (by keyword for maximum and minimum, which deprecate a
    positional one), and ``uv + d`` into the other of two primal buffers, so
    the shifted views of both are built once per level.

    The level computes in the dtype of ``u`` and ``v``: ``i0`` is cast to it
    once, and the warped image and gradients once per warp.  The warp itself,
    its coordinates and ``np.gradient(i1)`` stay float64.

    A warp ends after the iteration whose squared update, summed over both
    fields by ``np.add.reduce`` (no BLAS call, so the sum does not depend on
    thread settings), is below ``STOP_EPSILON**2 * H*W``.
    """
    h, w = i0.shape
    n = h * w
    dtype = u.dtype
    field, plane = ((2, n), dtype), ((n,), dtype)
    uv_a, uv_b, d, rho, norm, buf, g = _arena(
        field, field, field, plane, field, ((2, 2, w + n), dtype), ((2, 2, n), dtype))
    uv_a.reshape(2, h, w)[:] = u, v
    i0 = i0.reshape(n).astype(dtype)
    # 0-d operands of the level dtype, so no call converts a Python float
    floor, lt, neg_lt, theta, taut, one = (np.array(x, dtype) for x in (
        1e-12, params.lambda_weight * params.theta, -params.lambda_weight * params.theta,
        params.theta, params.tau / params.theta, 1.0))
    # each primal buffer with its x and y shifts: (uv, uv[1:], uv[:-1],
    # uv[w:], uv[:-w]) along the flat axis
    cur, nxt = ((uv, uv[:, 1:], uv[:, :-1], uv[:, w:], uv[:, :-w])
                for uv in (uv_a, uv_b))
    p = buf[:, :, w:]
    px, px_left = buf[:, 0, w:], buf[:, 0, w - 1:-1]
    py, py_up = buf[:, 1, w:], buf[:, 1, :-w]
    # forward differences of uv; the last column (x, zeroed after each flat
    # shift) and the last row (y, never written) are 0
    gx, gy = g[:, 0], g[:, 1]
    gx_head, gy_head, gx_last = gx[:, :-1], gy[:, :-w], gx[:, w - 1::w]
    d_u, d_v, norm_xy = d[0], d[1], norm[:, None]
    ys, xs = np.indices((h, w), dtype=np.float64).reshape(2, n)
    i1y, i1x = np.gradient(i1)
    images = np.stack([i1, i1x, i1y])
    del i1x, i1y
    add, sub, mul = np.add, np.subtract, np.multiply
    stop = STOP_EPSILON ** 2 * n  # 0: a sum of squares is never below it

    for _ in range(params.n_warps):
        uv = cur[0]
        warped = _bilinear_sample(images, ys + uv[1], xs + uv[0])
        warped = warped.astype(dtype, copy=False)
        rho_c, grad = warped[0], warped[1:]
        del warped  # the views keep it alive until the del at the end of the warp
        neg_denom = -np.maximum(grad[0] ** 2 + grad[1] ** 2, floor)
        # residual linearized at the warp point
        rho_c -= grad[0] * uv[0]
        rho_c -= grad[1] * uv[1]
        rho_c -= i0

        for _ in range(params.n_inner_iters):
            (uv, *_), (new, right, left, down, up) = cur, nxt
            mul(grad, uv, d)
            add(d_u, rho_c, rho)
            add(rho, d_v, rho)
            # pointwise data-term proximal step, d = grad * clip(rho /
            # -max(|grad|^2, floor), -l_t, l_t); rho holds the coefficient
            np.divide(rho, neg_denom, rho)
            np.maximum(rho, neg_lt, out=rho)
            np.minimum(rho, lt, out=rho)
            mul(grad, rho, d)
            # TV proximal via the dual variables
            add(uv, d, new)
            sub(px, px_left, d)  # d and norm are free here: div and a temporary
            sub(py, py_up, norm)
            add(d, norm, d)
            mul(d, theta, d)
            add(new, d, new)
            sub(new, uv, d)  # d is free until the dual step
            mul(d, d, d)
            moved = add.reduce(d, axis=None)
            sub(right, left, gx_head)
            gx_last.fill(0.0)
            sub(down, up, gy_head)
            mul(gx, gx, norm)
            mul(gy, gy, d)
            add(norm, d, norm)
            np.sqrt(norm, norm)
            mul(norm, taut, norm)
            add(norm, one, norm)
            mul(g, taut, g)  # the zero column and row stay +0.0
            add(p, g, p)
            np.divide(p, norm_xy, p)
            cur, nxt = nxt, cur
            if moved < stop:
                break
        # free this warp's linearization before the next one is built
        del grad, neg_denom, rho_c

    return tuple(cur[0].reshape(2, h, w).copy())


def tvl1_flow(onset: np.ndarray, apex: np.ndarray,
              params: TVL1Params | None = None) -> FlowField:
    """Estimate dense displacement from onset to apex by coarse-to-fine TV-L1.

    Parameters
    ----------
    onset, apex : ndarray, shape (H, W)
        Grayscale frames with intensities in [0, 1], at least 16x16.
    params : TVL1Params, optional
        Solver parameters; the defaults suit small facial displacements.

    Returns
    -------
    FlowField
        Per-pixel float64 (u, v) in pixels, solved in ``SOLVER_DTYPE``.
        Deterministic for fixed inputs/params.
    """
    params = params or TVL1Params()
    onset = _validate_gray_image(onset, "onset")
    apex = _validate_gray_image(apex, "apex")
    if onset.shape != apex.shape:
        raise ValidationError(
            f"onset {onset.shape} and apex {apex.shape} must have identical dims"
        )
    if min(onset.shape) < 16:
        raise ValidationError(f"images must be at least 16x16, got {onset.shape}")

    # solver operates on the classical 0..255 intensity scale that the default
    # lambda_weight is calibrated against
    pyr0 = _pyramid(onset * 255.0, params.pyramid_scale, params.pyramid_levels)
    pyr1 = _pyramid(apex * 255.0, params.pyramid_scale, params.pyramid_levels)

    u = np.zeros(pyr0[-1].shape, SOLVER_DTYPE)
    v = np.zeros(pyr0[-1].shape, SOLVER_DTYPE)
    for level in range(len(pyr0) - 1, -1, -1):
        i0, i1 = pyr0[level], pyr1[level]
        if u.shape != i0.shape:
            h_new, w_new = i0.shape
            h_old, w_old = u.shape
            u = (_resize_bilinear(u, h_new, w_new) * (w_new / w_old)).astype(SOLVER_DTYPE)
            v = (_resize_bilinear(v, h_new, w_new) * (h_new / h_old)).astype(SOLVER_DTYPE)
        u, v = _tvl1_level(i0, i1, u, v, params)
    return FlowField(u=u.astype(np.float64), v=v.astype(np.float64))


# -- optical strain ------------------------------------------------------------


def optical_strain(flow: FlowField) -> np.ndarray:
    """Strain magnitude of the flow field.

    The symmetric part of the flow Jacobian is computed with central
    differences (one-sided at borders) and reduced to its Frobenius norm
    sqrt(e_xx^2 + 2*e_xy^2 + e_yy^2); zero for any rigid translation.
    """
    h, w = flow.shape
    if h < 3 or w < 3:
        raise ValidationError(f"strain needs a field of at least 3x3, got {(h, w)}")
    du_dy, du_dx = np.gradient(flow.u)
    dv_dy, dv_dx = np.gradient(flow.v)
    e_xx = du_dx
    e_yy = dv_dy
    e_xy = 0.5 * (du_dy + dv_dx)
    return np.sqrt(e_xx ** 2 + 2.0 * e_xy ** 2 + e_yy ** 2)


# -- feature-map assembly ---------------------------------------------------------


def standardize_channels(feature_map: np.ndarray) -> np.ndarray:
    """Per-channel standardization to mean 0 / variance 1.

    A zero-variance channel maps to all-zeros instead of dividing by ~0.
    """
    out = np.empty_like(feature_map, dtype=np.float64)
    for c in range(feature_map.shape[2]):
        channel = feature_map[:, :, c]
        std = channel.std()
        if std < 1e-12:
            out[:, :, c] = 0.0
        else:
            out[:, :, c] = (channel - channel.mean()) / std
    return out


def compose_regions(full_map: np.ndarray, landmarks: LandmarkSet,
                    region_px: int = 28, out_size: int = 28,
                    include_nose: bool = False) -> np.ndarray:
    """Tile landmark-centered crops into one out_size x out_size x 3 composite.

    Layout: left eye | right eye on the top row, left lip | right lip on the
    bottom row, each crop resized to a quadrant.  Windows are clamped so they
    stay fully inside the source map.  With include_nose, a nose crop is
    alpha-blended (0.5) over the center.
    """
    if full_map.ndim != 3 or full_map.shape[2] != 3:
        raise DimensionError(f"full_map must be H x W x 3, got {full_map.shape}")
    if out_size % 2 != 0:
        raise ValidationError(f"out_size must be even, got {out_size}")
    h, w = full_map.shape[:2]
    if region_px < 1 or region_px > min(h, w):
        raise ValidationError(
            f"region_px={region_px} must lie in [1, {min(h, w)}] for a "
            f"{h}x{w} map"
        )

    def crop_at(name: str, point: tuple[int, int]) -> np.ndarray:
        x, y = point
        if not (0 <= x < w and 0 <= y < h):
            raise ValidationError(
                f"landmark {name} at ({x}, {y}) is outside the {h}x{w} map"
            )
        x0 = int(np.clip(x - region_px // 2, 0, w - region_px))
        y0 = int(np.clip(y - region_px // 2, 0, h - region_px))
        return full_map[y0:y0 + region_px, x0:x0 + region_px, :]

    half = out_size // 2
    tiles = {
        name: _resize_bilinear(crop_at(name, point), half, half)
        for name, point in landmarks.items()
    }
    composite = np.empty((out_size, out_size, 3), dtype=np.float64)
    composite[:half, :half] = tiles["left_eye"]
    composite[:half, half:] = tiles["right_eye"]
    composite[half:, :half] = tiles["left_lip"]
    composite[half:, half:] = tiles["right_lip"]
    if include_nose:
        start = out_size // 4
        center = composite[start:start + half, start:start + half]
        composite[start:start + half, start:start + half] = (
            0.5 * center + 0.5 * tiles["nose"]
        )
    return composite


def extract_feature_map(onset: np.ndarray, apex: np.ndarray, landmarks: LandmarkSet,
                        tvl1: TVL1Params | None = None, flow: FlowOptions | None = None,
                        out_size: int = 28) -> np.ndarray:
    """Full per-sample pipeline: flow, strain, region composite, normalization."""
    flow = flow or FlowOptions()
    motion = tvl1_flow(onset, apex, tvl1)
    full = np.stack([motion.u, motion.v, optical_strain(motion)], axis=2)
    composite = compose_regions(full, landmarks, region_px=flow.region_px,
                                out_size=out_size, include_nose=flow.include_nose)
    if flow.norm == "standardize":
        composite = standardize_channels(composite)
    return composite


# -- file formats -----------------------------------------------------------------


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM (P5) into floats in [0, 1]."""
    data = Path(path).read_bytes()

    tokens = []
    i = 0
    while len(tokens) < 4:
        if i >= len(data):
            raise ValidationError(f"{path}: truncated PGM header")
        ch = data[i:i + 1]
        if ch == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            start = i
            while i < len(data) and not data[i:i + 1].isspace():
                i += 1
            tokens.append(data[start:i])
    i += 1  # single whitespace after maxval

    if tokens[0] != b"P5":
        raise ValidationError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise ValidationError(
            f"{path}: non-integer PGM header field in {tokens[1:]}") from None
    if width < 1 or height < 1:
        raise ValidationError(f"{path}: non-positive PGM dims {width}x{height}")
    if maxval != 255:
        raise ValidationError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    if len(data) - i < width * height:
        raise ValidationError(
            f"{path}: truncated pixel data ({max(len(data) - i, 0)} of "
            f"{width * height} bytes)")
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=i)
    return pixels.reshape(height, width).astype(np.float64) / 255.0


def write_pgm(path, img: np.ndarray) -> None:
    """Write floats in [0, 1] as an 8-bit binary PGM, through
    ``files.replacing``: ``path`` never holds a partial file."""
    img = _validate_gray_image(img, "image")
    h, w = img.shape
    quantized = np.round(img * 255.0).astype(np.uint8)
    with replacing(path) as partial, open(partial, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(quantized.tobytes())


def write_flow_map(path, feature_map: np.ndarray) -> None:
    """Serialize an H x W x 3 feature map (16-byte header + f32 LE payload),
    through ``files.replacing``: ``path`` never holds a partial file."""
    if feature_map.ndim != 3 or feature_map.shape[2] != 3:
        raise DimensionError(f"feature map must be H x W x 3, got {feature_map.shape}")
    h, w = feature_map.shape[:2]
    if h < 1 or w < 1:
        raise DimensionError(f"feature map dims must be positive, got {h}x{w}")
    with replacing(path) as partial, open(partial, "wb") as f:
        f.write(FLOW_MAGIC)
        f.write(struct.pack("<B3x", FLOW_FORMAT_VERSION))
        f.write(struct.pack("<II", h, w))
        f.write(np.ascontiguousarray(feature_map, dtype="<f4").tobytes())


def read_flow_map(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < 16:
        raise ValidationError(f"{path}: shorter than the 16-byte header")
    if data[:4] != FLOW_MAGIC:
        raise ValidationError(f"{path}: bad magic {data[:4]!r}")
    version = data[4]
    if version != FLOW_FORMAT_VERSION:
        raise ValidationError(f"{path}: unsupported format version {version}")
    h, w = struct.unpack_from("<II", data, 8)
    if h < 1 or w < 1:
        raise ValidationError(f"{path}: non-positive dims {h}x{w} in header")
    expected = 16 + h * w * 3 * 4
    if len(data) != expected:
        raise ValidationError(
            f"{path}: payload is {len(data) - 16} bytes, expected {expected - 16}"
        )
    flat = np.frombuffer(data, dtype="<f4", count=h * w * 3, offset=16)
    if not np.isfinite(flat).all():
        raise ValidationError(f"{path}: non-finite values (NaN or Inf) in the payload")
    return flat.reshape(h, w, 3).astype(np.float32)
