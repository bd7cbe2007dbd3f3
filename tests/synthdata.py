"""Shared builders for the test suite: small specs, random batches, the
finite-difference gradient and the kernel references used as
independent oracles, the environment of a child interpreter, and the
traced allocation peak of one call."""

import os
import tracemalloc
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import nevo
from nevo.network import (Activation, Conv, Dense, Flatten, NetworkSpec,
                          Pool, init_params, loss)
from nevo.rng import RngStream
from nevo.tensor import _conv_chunk, _conv_tile_rows


def small_mlp() -> NetworkSpec:
    # 16*10+10 + 10*4+4 = 214 parameters
    return NetworkSpec((1, 4, 4), (
        Flatten(),
        Dense(16, 10),
        Activation("relu"),
        Dense(10, 4),
    ))


def small_conv() -> NetworkSpec:
    # one conv layer then a readout: 2*1*3*3+2 + 32*4+4 = 152 parameters
    return NetworkSpec((1, 6, 6), (
        Conv(1, 2, 3),
        Activation("relu"),
        Flatten(),
        Dense(32, 4),
    ))


def pooled_conv() -> NetworkSpec:
    return NetworkSpec((1, 8, 8), (
        Conv(1, 2, 3),
        Activation("relu"),
        Pool("max", 2, 2),
        Flatten(),
        Dense(18, 4),
    ))


# JSON nested far deeper than the decoder's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def with_header_json(buf: bytes, which: str, blob: bytes) -> bytes:
    """Checkpoint bytes `buf` with its "spec" or "meta" JSON blob and that
    blob's length replaced; the payload and its CRC are untouched."""
    off = 9
    if which == "meta":
        off += 4 + int.from_bytes(buf[9:13], "little")
    old_len = int.from_bytes(buf[off:off + 4], "little")
    return (buf[:off] + len(blob).to_bytes(4, "little") + blob +
            buf[off + 4 + old_len:])


def random_batch(spec: NetworkSpec, n: int, seed: int, dtype=np.float64):
    gen = np.random.default_rng(seed)
    x = gen.normal(0.0, 1.0, (n,) + spec.input_shape).astype(dtype)
    y = gen.integers(0, spec.n_classes, n).astype(np.int64)
    return x, y


def random_theta(spec: NetworkSpec, seed: int, dtype=np.float64) -> np.ndarray:
    return init_params(spec, RngStream(seed)).astype(dtype)


def fd_grad(spec, theta, x, y, lam, eps=1e-5) -> np.ndarray:
    """Central-difference gradient of the training loss, float64."""
    theta = theta.astype(np.float64)
    g = np.zeros_like(theta)
    for i in range(theta.shape[0]):
        step = eps * max(1.0, abs(float(theta[i])))
        up = theta.copy()
        up[i] += step
        dn = theta.copy()
        dn[i] -= step
        g[i] = (loss(spec, up, x, y, lam) - loss(spec, dn, x, y, lam)) / (2 * step)
    return g


def child_env() -> dict:
    """Environment for a child interpreter that imports the same nevo as
    this process, installed or not."""
    src = str(Path(nevo.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def traced_peak(fn):
    """(fn(), peak bytes that tracemalloc saw allocated during the call).

    Arrays made before the call are not counted, nor are ones the call
    frees before the peak."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    denom = np.maximum(np.abs(a) + np.abs(b), floor)
    return float(np.max(np.abs(a - b) / denom))


def affine_bilinear_reference(images, angles_deg, shifts, zooms,
                              chunk_elems=1 << 16):
    """Oracle for data._affine_bilinear: the same coordinate maths,
    weights and accumulation order, gathering each corner with a 3-D
    fancy index per chunk of samples."""
    n, c, h, w = images.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    theta = np.deg2rad(angles_deg).astype(np.float64)
    cos, sin = np.cos(theta)[:, None, None], np.sin(theta)[:, None, None]
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    out = np.zeros_like(images)
    step = max(1, chunk_elems // (c * h * w))
    for lo in range(0, n, step):
        k = slice(lo, lo + step)
        dy = yy[None] - cy - shifts[k, 0, None, None]
        dx = xx[None] - cx - shifts[k, 1, None, None]
        inv = 1.0 / zooms[k, None, None]
        sy = (cos[k] * dy - sin[k] * dx) * inv + cy
        sx = (sin[k] * dy + cos[k] * dx) * inv + cx

        y0 = np.floor(sy).astype(np.int64)
        x0 = np.floor(sx).astype(np.int64)
        wy = (sy - y0).astype(images.dtype)
        wx = (sx - x0).astype(images.dtype)

        src, dst = images[k], out[k]
        ni = np.arange(len(src))[:, None, None]
        for oy, ox, wgt in ((y0, x0, (1 - wy) * (1 - wx)),
                            (y0, x0 + 1, (1 - wy) * wx),
                            (y0 + 1, x0, wy * (1 - wx)),
                            (y0 + 1, x0 + 1, wy * wx)):
            inside = (oy >= 0) & (oy < h) & (ox >= 0) & (ox < w)
            yc = np.clip(oy, 0, h - 1)
            xc = np.clip(ox, 0, w - 1)
            vals = src[ni, :, yc, xc]          # [chunk, h, w, c]
            vals = vals.transpose(0, 3, 1, 2)
            dst += vals * (wgt * inside)[:, None, :, :].astype(images.dtype)
    return out


def conv2d_backward_reference(x, kernels, stride, pad, grad_out,
                              dw_order="tiles"):
    """Oracle for tensor.conv2d_backward: the kernel gradient is a sum of
    tensordots over window views, and the input gradient is kh*kw
    per-tap GEMMs added into the padded NCHW input in row-major (u, v)
    order.

    The kernel gradient contracts over (oy, ox, n), the order of the
    kernel's batch-innermost memory, one tensordot per _conv_tile_rows
    tile of output rows of each _conv_chunk block, last tile first, as
    the kernel adds its per-tile GEMMs.  Each tensordot is the kernel's
    (c, u, v)-rows-times-grad_out product, not its transpose: a tile can
    fall under OpenBLAS's small-matrix switch, where the two orientations
    round differently.  dw_order="oy,ox,n" contracts each whole block at
    once, and "n,oy,ox" gives the earlier NCHW contraction; both differ
    from the tiles in the last bits."""
    n, c, h, w = x.shape
    k, _, kh, kw = kernels.shape
    _, _, oh, ow = grad_out.shape
    db = grad_out.sum(axis=(0, 2, 3))

    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    dw = np.zeros_like(kernels)
    chunk = _conv_chunk(c, kh, kw, oh, ow)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        if dw_order == "n,oy,ox":
            win = sliding_window_view(xp[lo:hi], (kh, kw), axis=(2, 3))
            dw += np.tensordot(grad_out[lo:hi], win[:, :, ::stride, ::stride],
                               axes=([0, 2, 3], [0, 2, 3]))
            continue
        win = sliding_window_view(xp[lo:hi].transpose(1, 2, 3, 0),
                                  (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
        g = grad_out[lo:hi].transpose(1, 2, 3, 0)
        rows = (_conv_tile_rows(c, kh, kw, ow, hi - lo)
                if dw_order == "tiles" else oh)
        for y0 in reversed(range(0, oh, rows)):
            part = np.tensordot(win[:, y0:y0 + rows], g[:, y0:y0 + rows],
                                axes=([1, 2, 3], [1, 2, 3]))
            dw += part.transpose(3, 0, 1, 2)

    g2 = grad_out.transpose(0, 2, 3, 1).reshape(-1, k)
    dxp = np.zeros_like(xp)
    for u in range(kh):
        for v in range(kw):
            g = np.dot(g2, kernels[:, :, u, v])
            dxp[:, :, u:u + stride * oh:stride, v:v + stride * ow:stride] += \
                g.reshape(n, oh, ow, c).transpose(0, 3, 1, 2)
    dx = dxp[:, :, pad:pad + h, pad:pad + w] if pad else dxp
    return dx, dw, db


def conv2d_nchw_reference(x, kernels, bias, stride=1, pad=0):
    """Oracle for the float32 tensor.conv2d: the NCHW im2col GEMM the
    kernel ran before it kept activations batch-innermost.  The K-major
    matrix is filled from an NCHW block, so its columns run in
    (n, oy, ox) order, and the output is transposed back to NCHW."""
    n, c, h, w = x.shape
    k, _, kh, kw = kernels.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.empty((n, k, oh, ow), dtype=x.dtype)
    bt = np.ascontiguousarray(kernels.transpose(1, 2, 3, 0).reshape(c * kh * kw, k))
    chunk = _conv_chunk(c, kh, kw, oh, ow)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        xp = x[lo:hi]
        if pad:
            xp = np.pad(xp, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        cols = np.empty((c, kh, kw, hi - lo, oh, ow), dtype=x.dtype)
        for u in range(kh):
            for v in range(kw):
                cols[:, u, v] = xp[:, :, u:u + stride * oh:stride,
                                   v:v + stride * ow:stride].transpose(1, 0, 2, 3)
        blk = np.dot(bt.T, cols.reshape(c * kh * kw, -1))
        out[lo:hi] = blk.reshape(k, hi - lo, oh, ow).transpose(1, 0, 2, 3)
    out += bias[None, :, None, None]
    return out


def pool2d_nchw_reference(x, kind, size, stride, need_argmax=True):
    """Oracle for tensor.pool2d: the NCHW slice-by-slice max (a
    np.where per slice with the argmax, np.maximum without it) and the
    window-copy mean the kernel ran before it kept activations
    batch-innermost."""
    n, c, h, w = x.shape
    if kind == "avg":
        win = sliding_window_view(x, (size, size), axis=(2, 3))[:, :, ::stride, ::stride]
        flat = win.reshape(win.shape[:4] + (size * size,))
        return flat.mean(axis=4, dtype=x.dtype), None
    oh = (h - size) // stride + 1
    ow = (w - size) // stride + 1
    slices = [x[:, :, u:u + stride * oh:stride, v:v + stride * ow:stride]
              for u, v in (divmod(j, size) for j in range(size * size))]
    out = slices[0].copy()
    if not need_argmax:
        for s in slices[1:]:
            np.maximum(s, out, out=out)
        nan = np.isnan(out)
        if nan.any():
            for s in reversed(slices):
                np.copyto(out, s, where=nan & np.isnan(s))
        return out, None
    idx = np.zeros(out.shape, dtype=np.intp)
    for j in range(1, size * size):
        s = slices[j]
        take = ~(s <= out) & (out == out)
        out = np.where(take, s, out)
        np.maximum(idx, np.multiply(take, j, dtype=np.intp), out=idx)
    return out, idx
