"""Dense tensor kernels: matmul, 2-D convolution, pooling, activations,
softmax cross-entropy.

All functions are pure and total on finite inputs.  Two precision modes:

* float32 (training/evolution) — reductions go through BLAS.  Results are
  bitwise reproducible for a fixed BLAS thread count, which the package
  pins to 1 at import.
* float64 (verification) — matmul and conv2d use explicit ordered
  accumulation (ascending contraction index), so they match naive
  nested-loop oracles to the last ulp.

Memory layout.  Every 4-D argument and result has the NCHW shape
(batch, channel, row, column).  The conv and pool kernels and their
backwards compute on (C, H, W, N) memory, with the batch innermost,
and return their result as the NCHW-shaped view
``buf.transpose(3, 0, 1, 2)`` of that memory.  Each reads an input
through ``_chwn(x) = np.ascontiguousarray(x.transpose(1, 2, 3, 0))``,
which is a free view of any such result and of any elementwise ufunc
of one (ufuncs keep the operands' memory order), so the layout flows
from layer to layer at no cost.  A C-ordered NCHW array, such as a
network's input batch, costs one transposed copy, made per block of
samples where the kernel works in blocks.  With the batch innermost,
every window slice, im2col fill and col2im add moves contiguous runs
of at least n elements.  The one exception is the float64
ordered-accumulation conv forward (the oracle path), which computes
and returns NCHW memory.

The float32 conv forward pass is a GEMM over an im2col matrix
(Chellapilla, Puri & Simard, 2006).  The matrix is K-major: row
(c, u, v) holds input pixel (c, oy*stride+u, ox*stride+v) for every
output position (oy, ox, n), so it is one copy of the input's strided
(c, kh, kw, oh, ow, n) window view, and the GEMM's product is in the
output's (k, oh, ow, n) memory order.  Within each block of samples
the forward tiles the output rows: each tile is the im2col of a few
output rows, about _CONV_TILE_ELEMS elements, and one GEMM on it, so
the fill and the GEMM run in L2 (the cache blocking of Goto & van de
Geijn, 2008).  Every tile of a block is filled into the block's one
tile-sized buffer, and its GEMM writes straight into the tile's output
rows (through a second reused buffer when the block is only part of
the batch), so no tile allocates.  Each output element is the same
length-c*kh*kw dot product, in ascending (c, u, v) order, whatever the
order and number of the matrix's columns, so BLAS's blocked GEMM
kernels return the same bits as the whole-block NCHW
im2col (``tests/synthdata.conv2d_nchw_reference``).
OpenBLAS's small-matrix kernels (OpenBLAS 0.3.31 on x86-64 uses them
below about 1e6 multiply-adds) and its one-output-channel GEMV path are
the exception: they round the transposed operand differently in the
last bit, and the GEMV's bits also depend on the number of columns.  A
lenet1 layer-0 tile at 128 samples is about 921K multiply-adds and
keeps the blocked kernels' bits; the tests gate it.

The backward pass reuses that layout and the forward's tiles of output
rows, last tile first.  The kernel gradient adds, per tile, the tile's
im2col times its grad_out rows as a (k, rows*ow*n) matrix, contracted
in ascending (oy, ox, n) order; so it is a sum of per-tile GEMMs, and
its last bits depend on the tiling.  The input gradient is one GEMM per
tile to (c, kh, kw, oy, ox, n) columns, written over the tile's dead
im2col in the tile buffer, then a col2im that adds the kh*kw tap
slices into the rows the tile covers; taking the tiles last to first
adds every element's taps in row-major (u, v) order, so it has
the bits of a whole-block col2im.  Both return the bits of the
tensordot / per-tap reference ``tests/synthdata.conv2d_backward_reference``
on the zoo convs.  The GEMV exception above, which includes the input
gradient of a one-channel input in the reference, can differ from it in
the last bit, as can small strided or padded shapes and some float64
kernel gradients.

The kernels do no bookkeeping; operation counts for the cost model are
derived from layer shapes by ``evaluation.count_costs``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import LabelError, ShapeMismatchError

# im2col buffers are chunked over the batch axis to bound memory; the
# chunk size depends only on shapes, so results do not depend on N.
# Within each block the forward and the backward tile output rows, so
# that one tile's im2col holds about _CONV_TILE_ELEMS elements (1 MiB of
# float32) and its fill and GEMM run in L2.
_CONV_CHUNK_ELEMS = 1 << 22
_CONV_TILE_ELEMS = 1 << 18


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

    if x.dtype == np.float64:
        xp = _pad_hw(_chwn(x), pad).transpose(3, 0, 1, 2)
        # ordered accumulation: ascending (c, u, v) per output element
        out = np.zeros((n, k, oh, ow), dtype=np.float64)
        for ci in range(c):
            for u in range(kh):
                for v in range(kw):
                    xs = xp[:, ci, u:u + stride * oh:stride, v:v + stride * ow:stride]
                    out += xs[:, None, :, :] * kernels[:, ci, u, v][None, :, None, None]
        out += bias[None, :, None, None]
        return out

    out = np.empty((k, oh, ow, n), dtype=x.dtype)
    bt = np.ascontiguousarray(kernels.transpose(1, 2, 3, 0).reshape(c * kh * kw, k))
    chunk = _conv_chunk(c, kh, kw, oh, ow)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        _conv_forward_block(_pad_hw(_chwn(x[lo:hi]), pad), bt, bias, kh, kw,
                            stride, out[..., lo:hi])
    return out.transpose(3, 0, 1, 2)


def _chwn(x):
    """The (C, H, W, N) memory of an NCHW-shaped array: a free view when
    that is x's memory already, else one transposed copy."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0))


def _pad_hw(x, pad):
    """Zero-pad the two spatial axes of a (C, H, W, N) array by `pad`
    each side."""
    return np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else x


def _conv_chunk(c, kh, kw, oh, ow):
    """Samples per im2col block of at most _CONV_CHUNK_ELEMS elements."""
    return max(1, _CONV_CHUNK_ELEMS // max(1, c * kh * kw * oh * ow))


def _conv_tile_rows(c, kh, kw, ow, n):
    """Output rows per forward tile of a block of n samples: as many as
    keep the tile's im2col within _CONV_TILE_ELEMS elements, at least
    one."""
    return max(1, _CONV_TILE_ELEMS // max(1, c * kh * kw * ow * n))


def _conv_forward_block(xp, bt, bias, kh, kw, stride, out):
    """Write one block's (K, OH, OW, N) output, bias added, into out from
    the padded (C, H, W, N) input xp and the (c*kh*kw, k) kernel matrix
    bt.

    Each tile of output rows is one strided im2col copy of the input rows
    it reads and one GEMM, small enough to stay in L2 together.  Every
    tile's im2col goes into the one tile-sized buffer of the block.
    When out is the whole batch, C-ordered, each tile's output rows are
    one (k, rows*ow*n) matrix and the GEMM writes straight into them.
    A block of part of the batch is a strided slice of it, so there the
    GEMM writes into a second buffer, which is copied into place.  The
    bias is added to each tile's product while it is in cache.
    """
    c, n = xp.shape[0], xp.shape[3]
    k, oh, ow, _ = out.shape
    rows = _conv_tile_rows(c, kh, kw, ow, n)
    tile_cols = min(rows, oh) * ow * n
    tile = np.empty(c * kh * kw * tile_cols, dtype=xp.dtype)
    res = None if out.flags.c_contiguous else \
        np.empty(k * tile_cols, dtype=out.dtype)
    for y0 in range(0, oh, rows):
        y1 = min(oh, y0 + rows)
        dst = out[:, y0:y1]
        prod = (dst if res is None else res[:dst.size]).reshape(k, -1)
        cols = _cols(xp, y0 * stride, kh, kw, stride, y1 - y0, ow, tile)
        # bt.T must stay the transposed view of the C-ordered bt, so BLAS
        # takes the kernel operand transposed as the NCHW reference does:
        # a C-ordered copy of bt.T rounds lenet5's convs differently
        np.matmul(bt.T, cols, out=prod)
        prod += bias[:, None]
        if res is not None:
            dst[...] = prod.reshape(dst.shape)


def _cols(xp, top, kh, kw, stride, oh, ow, tile):
    """K-major im2col of the oh output rows that read the padded,
    C-ordered (C, H, W, N) block xp from its input row `top` on,
    written into the front of the flat buffer tile by one copy from the
    strided (c, kh, kw, oh, ow, n) window view of xp.  Returns that
    (c*kh*kw, oh*ow*n) matrix, a view of tile."""
    c, _, _, n = xp.shape
    sc, sh, sw, sn = xp.strides
    # a view of xp's buffer, which numpy checks lies inside it.  The
    # wrapper objects of as_strided shifted glibc's heap layout enough
    # to raise a lenet1 training run's peak RSS by about 3 MiB.
    window = np.ndarray((c, kh, kw, oh, ow, n), xp.dtype, buffer=xp,
                        offset=top * sh,
                        strides=(sc, sh, sw, sh * stride, sw * stride, sn))
    cols = tile[:window.size].reshape(window.shape)
    np.copyto(cols, window)
    return cols.reshape(c * kh * kw, oh * ow * n)


def conv2d_backward(x: np.ndarray, kernels: np.ndarray, stride: int, pad: int,
                    grad_out: np.ndarray, need_dx: bool = True):
    """Gradients of conv2d w.r.t. input, kernels, and bias.

    Returns (dx, dw, db); dx is None when need_dx is False, which saves
    the input-gradient work for a first layer whose dx nobody reads.
    Both gradients are GEMMs over the forward's output-row tiles within
    each _conv_chunk block of samples, so the scratch does not grow
    with N.
    """
    n, c, h, w = x.shape
    k, _, kh, kw = kernels.shape
    _, _, oh, ow = grad_out.shape
    db = grad_out.sum(axis=(0, 2, 3))

    dwt = np.zeros((c * kh * kw, k), dtype=kernels.dtype)
    dx = np.empty((c, h, w, n), dtype=x.dtype) if need_dx else None
    chunk = _conv_chunk(c, kh, kw, oh, ow)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        _conv_backward_block(_pad_hw(_chwn(x[lo:hi]), pad), kernels, stride,
                             pad, _chwn(grad_out[lo:hi]), dwt,
                             None if dx is None else dx[..., lo:hi])
    dw = np.ascontiguousarray(dwt.T).reshape(kernels.shape)
    return (None if dx is None else dx.transpose(3, 0, 1, 2)), dw, db


def _conv_backward_block(xp, kernels, stride, pad, g, dwt, dx):
    """Add one block's kernel gradient into the (c*kh*kw, k) matrix dwt,
    from the padded (C, H, W, N) input xp and the (K, OH, OW, N)
    grad_out g; write the block's (C, H, W, N) input gradient into dx
    unless dx is None.

    The block runs in the forward's tiles of output rows, last tile
    first.  Each tile's im2col, filled into the block's one tile-sized
    buffer, times its grad_out rows is added into dwt, so the kernel
    gradient is a sum of per-tile GEMMs.  With dx, the tile's W^T g
    columns overwrite that im2col, which is dead by then and has their
    (c*kh*kw, rows*ow*n) shape, and are added tap by tap into the padded
    buffer rows the tile covers.  A later tile's taps on a buffer row
    have smaller u, so taking the tiles last to first adds every
    element's taps in row-major (u, v) order, as one whole-block col2im
    does.  Each tap add moves contiguous runs of ow*n elements.  The
    scratch is the padded buffer, the tile buffer and a (c*kh*kw, k)
    product; no tile allocates.
    """
    k, c, kh, kw = kernels.shape
    _, oh, ow, n = g.shape
    wt = kernels.reshape(k, -1).T
    rows = _conv_tile_rows(c, kh, kw, ow, n)
    tile = np.empty(c * kh * kw * min(rows, oh) * ow * n, dtype=xp.dtype)
    part = np.empty_like(dwt)
    dxp = None if dx is None else np.zeros_like(xp)
    for y0 in reversed(range(0, oh, rows)):
        y1 = min(oh, y0 + rows)
        r, top = y1 - y0, y0 * stride
        gk = g[:, y0:y1].reshape(k, -1)
        cols = _cols(xp, top, kh, kw, stride, r, ow, tile)
        dwt += np.matmul(cols, gk.T, out=part)
        if dxp is not None:
            taps = np.matmul(wt, gk, out=cols).reshape(c, kh, kw, r, ow, n)
            for u in range(kh):
                for v in range(kw):
                    dxp[:, top + u:top + u + stride * r:stride,
                        v:v + stride * ow:stride] += taps[:, u, v]
    if dx is not None:
        dx[...] = dxp[:, pad:pad + dx.shape[1], pad:pad + dx.shape[2]]


def pool2d(x: np.ndarray, kind: str, size: int, stride: int,
           need_argmax: bool = True):
    """Per-window max or mean.  Returns (out, idx): for max pooling idx
    holds flat argmax indices (row-major within the window) for backprop
    routing; it is None for mean pooling and when need_argmax is False,
    which saves the index work for a pass that takes no gradient.

    Max pooling folds the size*size strided slices into the running
    maximum in row-major window order, as np.maximum(s, out), without
    copying the windows, and follows np.argmax's first-occurrence rule:
    ties and -0.0 keep the earlier element, the first NaN wins.  The
    argument order is the rule: on a tie np.maximum returns its second
    operand, so an earlier -0.0 stays against a later +0.0
    (np.maximum(out, s) would return the +0.0), and a NaN in either
    operand propagates.  When both are NaN it returns the first, the
    later NaN, whose bits may differ, so windows whose maximum is NaN
    get their first NaN written back.  The argmax is the last slice
    that was taken: strictly greater, or NaN where the running maximum
    is not.
    """
    if kind not in ("max", "avg"):
        raise ShapeMismatchError(f"pool2d: unknown kind {kind!r}")
    if size < 1 or stride < 1:
        raise ShapeMismatchError(
            f"pool2d: size and stride must be >= 1, got {size}, {stride}")
    n, c, h, w = x.shape
    if size > h or size > w:
        raise ShapeMismatchError(
            f"pool2d: window {size} larger than input {h}x{w}")
    xc = _chwn(x)
    if kind == "avg":
        win = sliding_window_view(xc, (size, size), axis=(1, 2))[:, ::stride, ::stride]
        flat = win.reshape(win.shape[:4] + (size * size,))
        return flat.mean(axis=4, dtype=x.dtype).transpose(3, 0, 1, 2), None
    oh = (h - size) // stride + 1
    ow = (w - size) // stride + 1
    # window slice j holds element (u, v) = divmod(j, size) of every window
    slices = [xc[:, u:u + stride * oh:stride, v:v + stride * ow:stride]
              for u, v in (divmod(j, size) for j in range(size * size))]
    out = slices[0].copy()
    idx = (np.zeros(out.shape, dtype=np.min_scalar_type(size * size - 1))
           if need_argmax else None)
    for j in range(1, size * size):
        s = slices[j]
        if idx is not None:
            # j grows, so the largest j * take is the last slice taken
            take = ~(s <= out) & (out == out)
            np.maximum(idx, np.multiply(take, j, dtype=idx.dtype), out=idx)
        np.maximum(s, out, out=out)
    nan = np.isnan(out)
    if nan.any():
        # write each window's NaNs back last to first, so the first stays
        for s in reversed(slices):
            np.copyto(out, s, where=nan & np.isnan(s))
    if idx is not None:
        idx = idx.astype(np.intp).transpose(3, 0, 1, 2)
    return out.transpose(3, 0, 1, 2), idx


def pool2d_backward(grad_out: np.ndarray, x_shape, kind: str, size: int,
                    stride: int, argmax=None) -> np.ndarray:
    """Route pooled gradients back to input positions.

    Each window tap adds its share into a strided slice of the input
    gradient.  For max pooling the share is grad_out where the tap is
    the window's argmax and +0.0 elsewhere, selected by an integer bit
    mask, so NaN and infinite gradients reach only their argmax.  The
    taps run last to first, which adds the windows covering an input
    position in ascending (oy, ox) order: the bits of np.add.at into
    zeros.
    """
    n, c, h, w = x_shape
    _, _, oh, ow = grad_out.shape
    g = _chwn(grad_out)
    dx = np.zeros((c, h, w, n), dtype=grad_out.dtype)
    if kind == "avg":
        g = g / (size * size)
        for u in range(size):
            for v in range(size):
                dx[:, u:u + stride * oh:stride, v:v + stride * ow:stride] += g
        return dx.transpose(3, 0, 1, 2)
    bits = np.dtype(f"u{g.itemsize}")
    gbits, am = g.view(bits), _chwn(argmax)
    for j in reversed(range(size * size)):
        u, v = divmod(j, size)
        share = np.bitwise_and(
            gbits, np.multiply(am == j, np.iinfo(bits).max, dtype=bits))
        dx[:, u:u + stride * oh:stride, v:v + stride * ow:stride] += \
            share.view(g.dtype)
    return dx.transpose(3, 0, 1, 2)


def activate(x: np.ndarray, kind: str, mode: str = "value",
             out=None) -> np.ndarray:
    """Elementwise activation or its derivative; relu'(0) is 0.  The
    value (mode "value" only) is written into `out` if given; x itself
    runs in place."""
    if kind not in ("relu", "tanh"):
        raise ShapeMismatchError(f"activate: unknown kind {kind!r}")
    if mode not in ("value", "derivative"):
        raise ValueError(f"activate: unknown mode {mode!r}")
    if mode == "value":
        return np.maximum(x, 0, out=out) if kind == "relu" else \
            np.tanh(x, out=out)
    if kind == "relu":
        return (x > 0).astype(x.dtype)
    t = np.tanh(x)
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
