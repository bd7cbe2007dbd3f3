"""Dense tensor kernels: matmul, 2-D convolution, pooling, activations,
softmax cross-entropy.

All functions are pure and total on finite inputs.  Two precision modes:

* float32 (training/evolution) — reductions go through BLAS.  Results are
  bitwise reproducible for a fixed BLAS thread count, which the package
  pins to 1 at import.
* float64 (verification) — matmul and conv2d use explicit ordered
  accumulation (ascending contraction index), so they match naive
  nested-loop oracles to the last ulp.

The kernels do no bookkeeping; operation counts for the cost model are
derived from layer shapes by ``evaluation.count_costs``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import LabelError, ShapeMismatchError

# im2col buffers are chunked over the batch axis to bound memory; the
# chunk size depends only on shapes, so results do not depend on N.
_CONV_CHUNK_ELEMS = 1 << 22


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C[i,j] = sum_t A[i,t]·B[t,j], summed in ascending t order (float64)."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(
            f"matmul: incompatible shapes {tuple(a.shape)} x {tuple(b.shape)}")
    if a.dtype == np.float64 or b.dtype == np.float64:
        out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float64)
        for t in range(a.shape[1]):
            out += np.multiply.outer(a[:, t], b[t, :])
        return out
    return a @ b


def _conv_out_dims(h, w, kh, kw, stride, pad):
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ShapeMismatchError(
            f"conv2d: kernel {kh}x{kw} stride {stride} pad {pad} yields "
            f"non-positive output for input {h}x{w}")
    return oh, ow


def conv2d(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray,
           stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlation (no kernel flip) of NCHW input with KCkhkw kernels.

    Bias is added after the full accumulation, one add per output element.
    """
    if x.ndim != 4 or kernels.ndim != 4:
        raise ShapeMismatchError(
            f"conv2d: expected 4-D input and kernels, got {tuple(x.shape)} "
            f"and {tuple(kernels.shape)}")
    n, c, h, w = x.shape
    k, kc, kh, kw = kernels.shape
    if kc != c:
        raise ShapeMismatchError(
            f"conv2d: input channels {c} != kernel channels {kc}")
    if stride < 1:
        raise ShapeMismatchError(f"conv2d: stride must be >= 1, got {stride}")
    oh, ow = _conv_out_dims(h, w, kh, kw, stride, pad)

    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    if x.dtype == np.float64:
        # ordered accumulation: ascending (c, u, v) per output element
        out = np.zeros((n, k, oh, ow), dtype=np.float64)
        for ci in range(c):
            for u in range(kh):
                for v in range(kw):
                    xs = xp[:, ci, u:u + stride * oh:stride, v:v + stride * ow:stride]
                    out += xs[:, None, :, :] * kernels[:, ci, u, v][None, :, None, None]
        out += bias[None, :, None, None]
        return out

    out = np.empty((n, k, oh, ow), dtype=x.dtype)
    chunk = max(1, _CONV_CHUNK_ELEMS // max(1, c * kh * kw * oh * ow))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        win = sliding_window_view(xp[lo:hi], (kh, kw), axis=(2, 3))
        win = win[:, :, ::stride, ::stride]
        blk = np.tensordot(win, kernels, axes=([1, 4, 5], [1, 2, 3]))
        out[lo:hi] = blk.transpose(0, 3, 1, 2)
    out += bias[None, :, None, None]
    return out


def conv2d_backward(x: np.ndarray, kernels: np.ndarray, stride: int, pad: int,
                    grad_out: np.ndarray):
    """Gradients of conv2d w.r.t. input, kernels, and bias."""
    n, c, h, w = x.shape
    _, _, kh, kw = kernels.shape
    _, _, oh, ow = grad_out.shape
    db = grad_out.sum(axis=(0, 2, 3))

    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    dw = np.zeros_like(kernels)
    chunk = max(1, _CONV_CHUNK_ELEMS // max(1, c * kh * kw * oh * ow))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        win = sliding_window_view(xp[lo:hi], (kh, kw), axis=(2, 3))
        win = win[:, :, ::stride, ::stride]
        dw += np.tensordot(grad_out[lo:hi], win, axes=([0, 2, 3], [0, 2, 3]))

    dxp = np.zeros_like(xp)
    for u in range(kh):
        for v in range(kw):
            g = np.tensordot(grad_out, kernels[:, :, u, v], axes=([1], [0]))
            dxp[:, :, u:u + stride * oh:stride, v:v + stride * ow:stride] += \
                g.transpose(0, 3, 1, 2)
    dx = dxp[:, :, pad:pad + h, pad:pad + w] if pad else dxp
    return dx, dw, db


def pool2d(x: np.ndarray, kind: str, size: int, stride: int):
    """Per-window max or mean.  Max pooling also returns flat argmax
    indices (row-major within the window) for backprop routing."""
    if kind not in ("max", "avg"):
        raise ShapeMismatchError(f"pool2d: unknown kind {kind!r}")
    if size < 1 or stride < 1:
        raise ShapeMismatchError(
            f"pool2d: size and stride must be >= 1, got {size}, {stride}")
    n, c, h, w = x.shape
    if size > h or size > w:
        raise ShapeMismatchError(
            f"pool2d: window {size} larger than input {h}x{w}")
    win = sliding_window_view(x, (size, size), axis=(2, 3))[:, :, ::stride, ::stride]
    flat = win.reshape(win.shape[:4] + (size * size,))
    if kind == "max":
        idx = flat.argmax(axis=4)
        out = np.take_along_axis(flat, idx[..., None], axis=4)[..., 0]
        return out, idx
    return flat.mean(axis=4, dtype=x.dtype), None


def pool2d_backward(grad_out: np.ndarray, x_shape, kind: str, size: int,
                    stride: int, argmax=None) -> np.ndarray:
    """Route pooled gradients back to input positions."""
    n, c, h, w = x_shape
    _, _, oh, ow = grad_out.shape
    dx = np.zeros(x_shape, dtype=grad_out.dtype)
    if kind == "avg":
        g = grad_out / (size * size)
        for u in range(size):
            for v in range(size):
                dx[:, :, u:u + stride * oh:stride, v:v + stride * ow:stride] += g
        return dx
    u, v = np.divmod(argmax, size)
    oy = np.arange(oh)[None, None, :, None] * stride + u
    ox = np.arange(ow)[None, None, None, :] * stride + v
    ni = np.arange(n)[:, None, None, None]
    ci = np.arange(c)[None, :, None, None]
    np.add.at(dx, (np.broadcast_to(ni, argmax.shape),
                   np.broadcast_to(ci, argmax.shape), oy, ox), grad_out)
    return dx


def activate(x: np.ndarray, kind: str, mode: str = "value") -> np.ndarray:
    """Elementwise activation or its derivative; relu'(0) is 0."""
    if kind not in ("relu", "tanh"):
        raise ShapeMismatchError(f"activate: unknown kind {kind!r}")
    if mode not in ("value", "derivative"):
        raise ValueError(f"activate: unknown mode {mode!r}")
    if kind == "relu":
        if mode == "value":
            return np.maximum(x, 0)
        return (x > 0).astype(x.dtype)
    t = np.tanh(x)
    if mode == "value":
        return t
    return (1 - t * t).astype(x.dtype, copy=False)


def softmax_ce(logits: np.ndarray, labels: np.ndarray):
    """Stabilized softmax + mean cross-entropy.

    Returns (loss, probs, dlogits) with dlogits = (probs - onehot)/N.
    """
    if logits.ndim != 2:
        raise ShapeMismatchError(
            f"softmax_ce: expected 2-D logits, got {tuple(logits.shape)}")
    n, c = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeMismatchError(
            f"softmax_ce: labels shape {tuple(labels.shape)} does not match "
            f"batch size {n}")
    bad = np.nonzero((labels < 0) | (labels >= c))[0]
    if bad.size:
        i = int(bad[0])
        raise LabelError(
            f"label {int(labels[i])} at index {i} outside [0, {c})")

    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=1, keepdims=True)
    logp = z - np.log(denom)
    rows = np.arange(n)
    per_sample = -logp[rows, labels]
    loss = float(per_sample.mean())
    probs = ez / denom
    dlogits = probs.copy()
    dlogits[rows, labels] -= 1
    dlogits /= n
    return loss, probs, dlogits
