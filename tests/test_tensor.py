"""Kernel-level checks against naive loop oracles.

The float64 kernels promise a fixed accumulation order, so the loop
oracles must agree to the last bit; float32 kernels only promise
closeness.  Gradients are checked against central differences.
"""

import numpy as np
import pytest

from numpy.lib.stride_tricks import sliding_window_view

from nevo import tensor
from nevo.errors import LabelError, ShapeMismatchError
from nevo.evaluation import count_costs
from nevo.network import Conv, Dense, Flatten, NetworkSpec, Pool
from nevo.tensor import (activate, conv2d, conv2d_backward, matmul, pool2d,
                         pool2d_backward, softmax_ce)

from synthdata import (conv2d_backward_reference, conv2d_nchw_reference,
                       traced_peak)


def matmul_loops(a, b):
    """Triple loop, ascending-t accumulation per output element."""
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def conv_loops(x, w, b, stride, pad):
    """Six nested loops over a zero-padded copy, (c, u, v) ascending,
    bias added after the contraction."""
    n, c, h, ww = x.shape
    oc, _, kh, kw = w.shape
    xp = np.zeros((n, c, h + 2 * pad, ww + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + ww] = x
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (ww + 2 * pad - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for o in range(oc):
            for oy in range(oh):
                for ox in range(ow):
                    acc = x.dtype.type(0)
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[ni, ci, oy * stride + u,
                                          ox * stride + v] * w[o, ci, u, v]
                    out[ni, o, oy, ox] = acc + b[o]
    return out


def test_matmul_f64_matches_loops_bitwise():
    gen = np.random.default_rng(11)
    for m, k, n in [(3, 4, 5), (1, 7, 2), (6, 1, 3), (5, 5, 5)]:
        a = gen.normal(size=(m, k))
        b = gen.normal(size=(k, n))
        got = matmul(a, b)
        want = matmul_loops(a, b)
        assert got.dtype == np.float64
        assert np.array_equal(got, want), "float64 matmul must be bit-exact"


def test_matmul_f32_close_and_counted():
    gen = np.random.default_rng(12)
    a = gen.normal(size=(8, 20)).astype(np.float32)
    b = gen.normal(size=(20, 6)).astype(np.float32)
    got = matmul(a, b)
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, matmul_loops(a.astype(np.float64),
                                                 b.astype(np.float64)),
                               rtol=1e-5, atol=1e-6)
    rep = count_costs(NetworkSpec((20,), (Dense(20, 6),)), n_g=8)
    assert rep.bp_madds == 8 * 20 * 6


def test_matmul_shape_errors():
    with pytest.raises(ShapeMismatchError):
        matmul(np.zeros((2, 3)), np.zeros((4, 2)))
    with pytest.raises(ShapeMismatchError):
        matmul(np.zeros(3), np.zeros((3, 2)))


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_conv2d_f64_matches_loops_bitwise(stride, pad):
    gen = np.random.default_rng(13)
    x = gen.normal(size=(2, 3, 6, 7))
    w = gen.normal(size=(4, 3, 3, 3))
    b = gen.normal(size=4)
    got = conv2d(x, w, b, stride, pad)
    want = conv_loops(x, w, b, stride, pad)
    assert np.array_equal(got, want)


def test_conv2d_f32_close_and_counted():
    gen = np.random.default_rng(14)
    x = gen.normal(size=(3, 2, 8, 8)).astype(np.float32)
    w = gen.normal(size=(5, 2, 3, 3)).astype(np.float32)
    b = gen.normal(size=5).astype(np.float32)
    got = conv2d(x, w, b, 1, 0)
    want = conv_loops(x.astype(np.float64), w.astype(np.float64),
                      b.astype(np.float64), 1, 0)
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)
    # per sample, madds: oc*oh*ow*c*kh*kw; bias adds: oc*oh*ow
    rep = count_costs(NetworkSpec((2, 8, 8), (Conv(2, 5, 3), Flatten())))
    assert 3 * rep.forward_madds == 3 * 5 * 6 * 6 * 2 * 3 * 3
    assert 3 * rep.bias_adds == 3 * 5 * 6 * 6


def test_conv2d_rejects_impossible_geometry():
    with pytest.raises(ShapeMismatchError):
        conv2d(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 5, 5)), np.zeros(1))


def test_conv2d_backward_matches_finite_differences():
    gen = np.random.default_rng(15)
    x = gen.normal(size=(2, 2, 5, 5))
    w = gen.normal(size=(3, 2, 3, 3))
    b = gen.normal(size=3)
    r = gen.normal(size=(2, 3, 3, 3))  # fixed projection, f = sum(conv * r)
    dx, dw, db = conv2d_backward(x, w, 1, 0, r)

    eps = 1e-6

    def f(xv, wv, bv):
        return float(np.sum(conv2d(xv, wv, bv, 1, 0) * r))

    for arr, grad, pick in ((x, dx, 9), (w, dw, 9), (b, db, 3)):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        idx = np.random.default_rng(16).choice(flat.size, size=pick,
                                               replace=False)
        for i in idx:
            up = flat.copy()
            up[i] += eps
            dn = flat.copy()
            dn[i] -= eps
            args_up = [x, w, b]
            args_dn = [x, w, b]
            slot = 0 if arr is x else (1 if arr is w else 2)
            args_up[slot] = up.reshape(arr.shape)
            args_dn[slot] = dn.reshape(arr.shape)
            fd = (f(*args_up) - f(*args_dn)) / (2 * eps)
            assert abs(fd - gflat[i]) <= 1e-5 * max(1.0, abs(fd))


def bits(a):
    """Integer view, so array_equal also tells -0.0 from +0.0 and NaNs
    compare equal to themselves."""
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv2d_backward_without_dx_keeps_dw_and_db(dtype):
    gen = np.random.default_rng(22)
    x = gen.normal(size=(5, 3, 9, 8)).astype(dtype)
    w = gen.normal(size=(4, 3, 3, 3)).astype(dtype)
    g = gen.normal(size=(5, 4, 5, 4)).astype(dtype)
    dx, dw, db = conv2d_backward(x, w, 2, 1, g)
    none, dw2, db2 = conv2d_backward(x, w, 2, 1, g, need_dx=False)
    assert dx.shape == x.shape and none is None
    assert np.array_equal(bits(dw), bits(dw2))
    assert np.array_equal(bits(db), bits(db2))


def test_conv2d_f32_strided_padded_close_to_loops():
    gen = np.random.default_rng(23)
    x = gen.normal(size=(3, 2, 9, 8)).astype(np.float32)
    w = gen.normal(size=(5, 2, 3, 3)).astype(np.float32)
    b = gen.normal(size=5).astype(np.float32)
    got = conv2d(x, w, b, 2, 1)
    want = conv_loops(x.astype(np.float64), w.astype(np.float64),
                      b.astype(np.float64), 2, 1)
    assert got.dtype == np.float32 and got.shape == want.shape == (3, 5, 5, 4)
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)


def test_conv2d_f32_batch_spanning_chunks_close_to_loops(monkeypatch):
    gen = np.random.default_rng(24)
    x = gen.normal(size=(7, 2, 8, 8)).astype(np.float32)
    w = gen.normal(size=(3, 2, 3, 3)).astype(np.float32)
    b = gen.normal(size=3).astype(np.float32)
    g = gen.normal(size=(7, 3, 6, 6)).astype(np.float32)
    _, dw_whole, db_whole = conv2d_backward(x, w, 1, 0, g)
    # 2*3*3*6*6 = 648 im2col elements per sample: blocks of 3, 3 and 1
    monkeypatch.setattr(tensor, "_CONV_CHUNK_ELEMS", 3 * 648)
    got = conv2d(x, w, b, 1, 0)
    want = conv_loops(x.astype(np.float64), w.astype(np.float64),
                      b.astype(np.float64), 1, 0)
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)
    _, dw, db = conv2d_backward(x, w, 1, 0, g)
    np.testing.assert_allclose(dw, dw_whole, rtol=1e-5, atol=1e-5)
    assert np.array_equal(db, db_whole)


@pytest.mark.parametrize("layer", [0, 3])
def test_conv2d_f32_chunked_equals_whole_batch(monkeypatch, layer):
    """Every output element is the same GEMM dot product whichever
    block of samples it is computed in, for lenet1's two convs at a
    batch of 300 cut into blocks of at least 100 samples."""
    shapes = {0: ((300, 1, 28, 28), (4, 1, 5, 5), 24),
              3: ((300, 4, 12, 12), (12, 4, 5, 5), 8)}
    xs, ws, side = shapes[layer]
    gen = np.random.default_rng(25 + layer)
    x = gen.normal(size=xs).astype(np.float32)
    w = gen.normal(size=ws).astype(np.float32)
    b = gen.normal(size=ws[0]).astype(np.float32)
    per_sample = ws[1] * ws[2] * ws[3] * side * side
    monkeypatch.setattr(tensor, "_CONV_CHUNK_ELEMS", 10 ** 9)
    whole = conv2d(x, w, b, 1, 0)
    for block in (100, 150, 299):
        monkeypatch.setattr(tensor, "_CONV_CHUNK_ELEMS", block * per_sample)
        assert np.array_equal(bits(conv2d(x, w, b, 1, 0)), bits(whole))


# (input CHW, kernels KCkhkw) of the convs of lenet1 and lenet5
ZOO_CONVS = {
    "lenet1.l0": ((1, 28, 28), (4, 1, 5, 5)),
    "lenet1.l3": ((4, 12, 12), (12, 4, 5, 5)),
    "lenet5.l0": ((3, 32, 32), (6, 3, 5, 5)),
    "lenet5.l3": ((6, 14, 14), (16, 6, 5, 5)),
}


def conv_forward_inputs(xs, ws, n, seed):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n,) + xs).astype(np.float32)
    w = gen.normal(size=ws).astype(np.float32)
    b = gen.normal(size=ws[0]).astype(np.float32)
    return x, w, b


def first_block_tiles(xs, ws, n, stride, pad):
    """(rows per tile, output rows, multiply-adds per tile) of the first
    _conv_chunk block of an n-sample conv2d."""
    c, kh, kw = ws[1:]
    oh, ow = tensor._conv_out_dims(xs[1], xs[2], kh, kw, stride, pad)
    nb = min(n, tensor._conv_chunk(c, kh, kw, oh, ow))
    rows = tensor._conv_tile_rows(c, kh, kw, ow, nb)
    return rows, oh, ws[0] * c * kh * kw * min(rows, oh) * ow * nb


@pytest.mark.parametrize("n", [1, 18, 128, 455])
@pytest.mark.parametrize("conv", sorted(ZOO_CONVS))
def test_conv2d_tiles_match_nchw_reference_bitwise_on_zoo_convs(conv, n):
    """Tiling the output rows of each block leaves every output element
    the same GEMM dot product: the bits of the whole-block NCHW im2col.
    At 128 and 455 samples every zoo conv runs in several tiles."""
    xs, ws = ZOO_CONVS[conv]
    x, w, b = conv_forward_inputs(xs, ws, n, seed=n)
    rows, oh, _ = first_block_tiles(xs, ws, n, 1, 0)
    assert rows < oh or n < 128
    assert np.array_equal(bits(conv2d(x, w, b)),
                          bits(conv2d_nchw_reference(x, w, b)))


@pytest.mark.parametrize("xs,ws,n,stride,pad", [
    # strided and padded: 14 output rows in tiles of 3, the last partial
    ((4, 28, 28), (8, 4, 3, 3), 150, 2, 1),
    # lenet1.l3's 8 output rows in tiles of 3, the last partial
    ((4, 12, 12), (12, 4, 5, 5), 100, 1, 0),
])
def test_conv2d_partial_last_tile_matches_nchw_reference_bitwise(
        xs, ws, n, stride, pad):
    x, w, b = conv_forward_inputs(xs, ws, n, seed=n)
    rows, oh, _ = first_block_tiles(xs, ws, n, stride, pad)
    assert rows < oh and oh % rows
    assert np.array_equal(bits(conv2d(x, w, b, stride, pad)),
                          bits(conv2d_nchw_reference(x, w, b, stride, pad)))


def test_conv2d_tile_below_small_matrix_switch_keeps_bits():
    """lenet1.l0 at a training batch of 128 tiles 3 output rows at a
    time, about 921K multiply-adds: under the 1e6 where OpenBLAS may
    switch to its small-matrix kernels, which round differently."""
    xs, ws = ZOO_CONVS["lenet1.l0"]
    rows, oh, macs = first_block_tiles(xs, ws, 128, 1, 0)
    assert rows < oh and macs < 10 ** 6
    for seed in range(3):
        x, w, b = conv_forward_inputs(xs, ws, 128, seed=seed)
        assert np.array_equal(bits(conv2d(x, w, b)),
                              bits(conv2d_nchw_reference(x, w, b)))


@pytest.mark.parametrize("c,n,kh,kw,stride,pad,dtype", [
    (3, 1, 3, 3, 2, 1, np.float32),  # stride 2, pad 1, one sample
    (3, 5, 3, 2, 2, 1, np.float32),  # and a kernel wider than tall
    (2, 4, 2, 3, 3, 2, np.float64),  # taller than wide, stride 3, pad 2
    (4, 6, 5, 5, 1, 0, np.float32),  # lenet1.l3's kernel
])
def test_cols_is_the_per_tap_slice_copy_im2col_bitwise(c, n, kh, kw,
                                                       stride, pad, dtype):
    """_cols' one strided copy is the kh*kw per-tap slice copies, for the
    whole padded block and for a tile of output rows from its middle,
    and writes only the front of the buffer it is given.  The block is
    read-only, as a caller's batch reaches the layers."""
    gen = np.random.default_rng(c * 100 + n)
    x = gen.normal(size=(n, c, 11, 9)).astype(dtype)
    xp = tensor._pad_hw(tensor._chwn(x), pad)
    xp.flags.writeable = False
    oh, ow = tensor._conv_out_dims(11, 9, kh, kw, stride, pad)
    assert oh > 2
    for y0, y1 in ((0, oh), (1, 3)):
        part = xp[:, y0 * stride:(y1 - 1) * stride + kh]
        r = y1 - y0
        want = np.empty((c, kh, kw, r, ow, n), dtype=dtype)
        for u in range(kh):
            for v in range(kw):
                want[:, u, v] = part[:, u:u + stride * r:stride,
                                     v:v + stride * ow:stride]
        tile = np.full(want.size + 7, np.nan, dtype=dtype)
        got = tensor._cols(xp, y0 * stride, kh, kw, stride, r, ow, tile)
        assert got.shape == (c * kh * kw, r * ow * n)
        assert np.shares_memory(got, tile)
        assert np.array_equal(bits(got), bits(want.reshape(got.shape)))
        assert np.isnan(tile[want.size:]).all()


@pytest.mark.parametrize("xs,ws,stride,pad,chunk,n", [
    # lenet1.l3 in blocks of 164, 109: 1-row tiles, then 3-row tiles
    ((4, 12, 12), (12, 4, 5, 5), 1, 0, 164, 273),
    # strided and padded in blocks of 40, 40, 20, the last one tile
    ((4, 28, 28), (8, 4, 3, 3), 2, 1, 40, 100),
    # lenet5.l3 in blocks of 30, 30, 15
    ((6, 14, 14), (16, 6, 5, 5), 1, 0, 30, 75),
])
def test_conv_multi_block_calls_match_references_bitwise(
        monkeypatch, xs, ws, stride, pad, chunk, n):
    """A call spanning several _conv_chunk blocks writes each block's
    output through a product buffer into a slice of out that is not
    C-contiguous, and runs its backward block by block into one dwt:
    forward, dx, dw and db keep the references' bits."""
    c, kh, kw = ws[1:]
    oh, ow = tensor._conv_out_dims(xs[1], xs[2], kh, kw, stride, pad)
    monkeypatch.setattr(tensor, "_CONV_CHUNK_ELEMS", chunk * c * kh * kw * oh * ow)
    assert tensor._conv_chunk(c, kh, kw, oh, ow) == chunk < n
    x, w, b = conv_forward_inputs(xs, ws, n, seed=n)
    assert np.array_equal(bits(conv2d(x, w, b, stride, pad)),
                          bits(conv2d_nchw_reference(x, w, b, stride, pad)))
    _, _, g = conv_backward_inputs(xs, ws, n, stride, pad, seed=n + 1)
    got = conv2d_backward(x, w, stride, pad, g)
    want = conv2d_backward_reference(x, w, stride, pad, g)
    for a, r in zip(got, want):
        assert np.array_equal(bits(a), bits(r))


def conv_backward_inputs(xs, ws, n, stride, pad, seed, dtype=np.float32):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n,) + xs).astype(dtype)
    w = gen.normal(size=ws).astype(dtype)
    oh, ow = tensor._conv_out_dims(xs[1], xs[2], ws[2], ws[3], stride, pad)
    g = gen.normal(size=(n, ws[0], oh, ow)).astype(dtype)
    return x, w, g


@pytest.mark.parametrize("n", [128, 112, 18])
@pytest.mark.parametrize("conv", sorted(ZOO_CONVS))
def test_conv2d_backward_matches_reference_bitwise_on_zoo_convs(conv, n):
    """The tiled two-GEMM backward returns the bits of the tensordot /
    per-tap formulation on every lenet conv.  lenet5.l0 at 128 spans two
    _conv_chunk blocks.  The input gradient of a one-channel input goes
    through BLAS's GEMV path in the reference, which rounds differently,
    and no network reads it (it is the first layer's dx).  The kernel
    gradient is a sum of per-tile contractions over (oy, ox, n); one
    contraction per block, and the earlier (n, oy, ox) order, differ
    only in the last bits."""
    xs, ws = ZOO_CONVS[conv]
    x, w, g = conv_backward_inputs(xs, ws, n, 1, 0, seed=n)
    dx, dw, db = conv2d_backward(x, w, 1, 0, g)
    rx, rw, rb = conv2d_backward_reference(x, w, 1, 0, g)
    assert np.array_equal(bits(dw), bits(rw))
    _, block_dw, _ = conv2d_backward_reference(x, w, 1, 0, g,
                                               dw_order="oy,ox,n")
    np.testing.assert_allclose(dw, block_dw, rtol=2e-6,
                               atol=2e-6 * np.abs(block_dw).max())
    _, nchw_dw, _ = conv2d_backward_reference(x, w, 1, 0, g,
                                              dw_order="n,oy,ox")
    np.testing.assert_allclose(dw, nchw_dw, rtol=2e-6,
                               atol=2e-6 * np.abs(nchw_dw).max())
    assert np.array_equal(bits(db), bits(rb))
    if xs[0] > 1:
        assert np.array_equal(bits(dx), bits(rx))
    else:
        np.testing.assert_allclose(dx, rx, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", [
    # (n, c, k, h, w, kernel, stride, pad)
    (9, 3, 4, 11, 10, 3, 2, 1),
    (7, 2, 5, 9, 12, 4, 2, 2),
    (5, 1, 3, 10, 10, 5, 1, 2),
    (6, 3, 1, 8, 9, 3, 1, 1),
    (1, 4, 6, 12, 12, 5, 1, 0),
    (1, 1, 1, 7, 7, 3, 2, 2),
])
def test_conv2d_backward_close_to_reference_off_the_zoo(case, dtype):
    """Strides, paddings, one channel, one kernel and one sample: the
    small-GEMM and GEMV cases where the last bit may differ."""
    n, c, k, h, w, kk, stride, pad = case
    x, wt, g = conv_backward_inputs((c, h, w), (k, c, kk, kk), n, stride,
                                    pad, seed=sum(case), dtype=dtype)
    got = conv2d_backward(x, wt, stride, pad, g)
    want = conv2d_backward_reference(x, wt, stride, pad, g)
    tol = 1e-5 if dtype == np.float32 else 1e-12
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype == dtype
        np.testing.assert_allclose(a, b, rtol=tol, atol=tol)


def conv_backward_scratch_bytes(n, need_dx):
    """Peak traced memory of one conv2d_backward, less its outputs."""
    x, w, g = conv_backward_inputs((4, 12, 12), (6, 4, 3, 3), n, 1, 1, seed=n)
    out, peak = traced_peak(
        lambda: conv2d_backward(x, w, 1, 1, g, need_dx=need_dx))
    return peak - sum(a.nbytes for a in out if a is not None)


@pytest.mark.parametrize("need_dx", [False, True])
def test_conv2d_backward_scratch_memory_is_flat_in_n(monkeypatch, need_dx):
    # 4*3*3*12*12 im2col elements per sample: blocks of 32 samples
    monkeypatch.setattr(tensor, "_CONV_CHUNK_ELEMS", 32 * 4 * 9 * 144)
    one = conv_backward_scratch_bytes(32, need_dx)
    four = conv_backward_scratch_bytes(128, need_dx)
    assert four <= 1.5 * one


def conv_forward_scratch_bytes(x, w, b, pad=1):
    """Peak traced memory of one conv2d, less its output."""
    out, peak = traced_peak(lambda: conv2d(x, w, b, 1, pad))
    return peak - out.nbytes


def test_conv2d_pads_per_block(monkeypatch):
    """A padded forward pads each block of samples, not the whole
    batch: the same bits as padding first, and scratch flat in N."""
    # 4*3*3*12*12 im2col elements per sample: blocks of 32 samples
    monkeypatch.setattr(tensor, "_CONV_CHUNK_ELEMS", 32 * 4 * 9 * 144)
    scratch = {}
    for n in (32, 512):
        gen = np.random.default_rng(n)
        x = gen.normal(size=(n, 4, 12, 12)).astype(np.float32)
        w = gen.normal(size=(6, 4, 3, 3)).astype(np.float32)
        b = gen.normal(size=6).astype(np.float32)
        padded_first = conv2d(np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1))),
                              w, b, 1, 0)
        assert np.array_equal(bits(conv2d(x, w, b, 1, 1)), bits(padded_first))
        scratch[n] = conv_forward_scratch_bytes(x, w, b)
    assert scratch[512] <= 1.5 * scratch[32]


# Python objects and the few small arrays a conv call makes
_SCRATCH_SLACK = 1 << 16


def block_sizes(xs, ws, n):
    """Sample counts of the _conv_chunk blocks of a stride-1 unpadded
    n-sample conv: a full block and the last one."""
    c, kh, kw = ws[1:]
    oh, ow = tensor._conv_out_dims(xs[1], xs[2], kh, kw, 1, 0)
    chunk = tensor._conv_chunk(c, kh, kw, oh, ow)
    return {min(n, chunk), (n - 1) % chunk + 1}


def tile_buffer_bytes(xs, ws, nb, product=False):
    """Bytes of the tile buffer of an nb-sample block of a stride-1
    unpadded conv, plus its tile product buffer when product is set."""
    k, c, kh, kw = ws
    oh, ow = tensor._conv_out_dims(xs[1], xs[2], kh, kw, 1, 0)
    tile_cols = min(oh, tensor._conv_tile_rows(c, kh, kw, ow, nb)) * ow * nb
    return (c * kh * kw + (k if product else 0)) * tile_cols * 4


def test_conv2d_scratch_is_one_block_copy_and_tiles():
    """On lenet1.l0 at a training batch of 128 and at an evaluate chunk
    of 455, the forward's scratch is the (C, H, W, N) copy of one
    _conv_chunk block and that block's tile buffer, and, where the block
    is part of the batch (455 runs in blocks of 291 and 164), its tile
    product buffer.  Every tile reuses them, so neither a fresh im2col
    nor a fresh GEMM product per tile adds to it, and it is far from the
    block's whole im2col (16 MiB at 455)."""
    xs, ws = ZOO_CONVS["lenet1.l0"]
    for n in (128, 455):
        x, w, b = conv_forward_inputs(xs, ws, n, seed=n)
        blocks = block_sizes(xs, ws, n)
        bound = max(nb * x[0].nbytes + tile_buffer_bytes(xs, ws, nb,
                                                         len(blocks) > 1)
                    for nb in blocks)
        assert conv_forward_scratch_bytes(x, w, b, pad=0) <= \
            bound + _SCRATCH_SLACK


@pytest.mark.parametrize("need_dx", [False, True])
@pytest.mark.parametrize("n", [128, 455])
def test_conv2d_backward_scratch_is_one_block_copy_and_tiles(n, need_dx):
    """On lenet1.l0 at a training batch of 128 and an evaluate chunk of
    455, the backward's scratch is one _conv_chunk block's copies of the
    input and grad_out (and, with dx, its padded input-gradient buffer)
    plus the block's one tile buffer, which holds each tile's im2col and
    then its input-gradient columns; not the block's whole im2col
    (7.4 MB at 128)."""
    xs, ws = ZOO_CONVS["lenet1.l0"]
    x, w, g = conv_backward_inputs(xs, ws, n, 1, 0, seed=n)
    per_sample = x[0].nbytes + g[0].nbytes + (x[0].nbytes if need_dx else 0)
    bound = max(nb * per_sample + tile_buffer_bytes(xs, ws, nb)
                for nb in block_sizes(xs, ws, n))
    out, peak = traced_peak(
        lambda: conv2d_backward(x, w, 1, 0, g, need_dx=need_dx))
    scratch = peak - sum(a.nbytes for a in out if a is not None)
    assert scratch <= bound + _SCRATCH_SLACK


def pool_loops(x, kind, size, stride):
    n, c, h, w = x.shape
    oh = (h - size) // stride + 1
    ow = (w - size) // stride + 1
    out = np.zeros((n, c, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    win = x[ni, ci, oy * stride:oy * stride + size,
                            ox * stride:ox * stride + size]
                    out[ni, ci, oy, ox] = win.max() if kind == "max" else win.mean()
    return out


@pytest.mark.parametrize("kind", ["max", "avg"])
def test_pool2d_matches_loops(kind):
    gen = np.random.default_rng(17)
    x = gen.normal(size=(2, 3, 6, 6))
    got, _ = pool2d(x, kind, 2, 2)
    np.testing.assert_allclose(got, pool_loops(x, kind, 2, 2), rtol=1e-12)


def test_pool2d_counts_and_rejects_bad_kind():
    out, _ = pool2d(np.zeros((1, 2, 4, 4)), "max", 2, 2)
    assert out.shape == (1, 2, 2, 2)
    rep = count_costs(NetworkSpec((2, 4, 4), (Pool("max", 2, 2), Flatten())))
    assert rep.pool_ops == 2 * 2 * 2 * 2 * 2  # windows * window elements
    assert rep.forward_madds == 0, "pooling must not count as contractions"
    with pytest.raises(ShapeMismatchError):
        pool2d(np.zeros((1, 1, 4, 4)), "median", 2, 2)


def test_max_pool_backward_routes_to_argmax():
    x = np.array([[[[1.0, 5.0], [2.0, 3.0]]]])
    out, argmax = pool2d(x, "max", 2, 2)
    assert out[0, 0, 0, 0] == 5.0
    g = pool2d_backward(np.ones((1, 1, 1, 1)), x.shape, "max", 2, 2, argmax)
    assert np.array_equal(g, np.array([[[[0.0, 1.0], [0.0, 0.0]]]]))


def test_avg_pool_backward_spreads_evenly():
    g = pool2d_backward(np.ones((1, 1, 1, 1)), (1, 1, 2, 2), "avg", 2, 2)
    assert np.array_equal(g, np.full((1, 1, 2, 2), 0.25))


def test_overlapping_max_pool_backward_accumulates():
    gen = np.random.default_rng(18)
    x = gen.normal(size=(1, 1, 4, 4))
    out, argmax = pool2d(x, "max", 3, 1)  # overlapping windows
    up = gen.normal(size=out.shape)
    g = pool2d_backward(up, x.shape, "max", 3, 1, argmax)
    # finite differences on f = sum(maxpool(x) * up)
    eps = 1e-7
    for i in range(16):
        xu = x.reshape(-1).copy()
        xd = xu.copy()
        xu[i] += eps
        xd[i] -= eps
        fu = float(np.sum(pool2d(xu.reshape(x.shape), "max", 3, 1)[0] * up))
        fd_ = float(np.sum(pool2d(xd.reshape(x.shape), "max", 3, 1)[0] * up))
        assert abs((fu - fd_) / (2 * eps) - g.reshape(-1)[i]) < 1e-6


def argmax_pool_reference(x, size, stride):
    """Reference max pool: np.argmax over a copy of every window."""
    win = sliding_window_view(x, (size, size), axis=(2, 3))[:, :, ::stride, ::stride]
    flat = win.reshape(win.shape[:4] + (size * size,))
    idx = flat.argmax(axis=4)
    return np.take_along_axis(flat, idx[..., None], axis=4)[..., 0], idx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_max_pool_matches_argmax_with_ties_signed_zero_and_nan(dtype):
    gen = np.random.default_rng(26)
    for size, stride in [(1, 1), (2, 2), (2, 1), (3, 2), (2, 3), (3, 3)]:
        # few distinct values, so windows hold ties, -0.0 next to +0.0,
        # and one or more NaNs
        x = gen.integers(-2, 3, size=(3, 2, 9, 10)).astype(dtype)
        r = gen.random(x.shape)
        x[r < 0.15] = -0.0
        x[r > 0.9] = np.nan
        want, want_idx = argmax_pool_reference(x, size, stride)
        got, idx = pool2d(x, "max", size, stride)
        assert np.array_equal(idx, want_idx), (size, stride)
        assert np.array_equal(bits(got), bits(want)), (size, stride)
        # the max-only path of no-gradient passes
        got, idx = pool2d(x, "max", size, stride, need_argmax=False)
        assert idx is None
        assert np.array_equal(bits(got), bits(want)), (size, stride)


@pytest.mark.parametrize("need_argmax", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_max_pool_keeps_the_first_nan_bits(dtype, need_argmax):
    # NaNs of both signs: in a window holding both, whichever comes
    # first must be the one returned, bit for bit
    gen = np.random.default_rng(28)
    x = gen.normal(size=(2, 3, 8, 8)).astype(dtype)
    r = gen.random(x.shape)
    x[r < 0.2] = -np.nan
    x[r > 0.8] = np.nan
    got, _ = pool2d(x, "max", 2, 2, need_argmax=need_argmax)
    want, _ = argmax_pool_reference(x, 2, 2)
    assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size,stride", [(2, 2), (2, 3), (1, 2), (3, 4)])
def test_disjoint_max_pool_backward_matches_add_at(dtype, size, stride):
    gen = np.random.default_rng(27)
    x = gen.normal(size=(2, 3, 11, 9)).astype(dtype)
    _, argmax = pool2d(x, "max", size, stride)
    g = gen.normal(size=argmax.shape).astype(dtype)
    g[gen.random(g.shape) < 0.3] = -0.0
    got = pool2d_backward(g, x.shape, "max", size, stride, argmax)
    want = np.zeros_like(x)
    u, v = np.divmod(argmax, size)
    n, c, oh, ow = argmax.shape
    np.add.at(want, (np.arange(n)[:, None, None, None],
                     np.arange(c)[None, :, None, None],
                     np.arange(oh)[None, None, :, None] * stride + u,
                     np.arange(ow)[None, None, None, :] * stride + v), g)
    assert got.dtype == dtype
    assert np.array_equal(bits(got), bits(want))


def test_activate_values_and_derivatives():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.array_equal(activate(x, "relu"), np.maximum(x, 0.0))
    assert np.array_equal(activate(x, "relu", "derivative"),
                          np.array([0.0, 0.0, 0.0, 1.0, 1.0]))
    np.testing.assert_allclose(activate(x, "tanh"), np.tanh(x), rtol=1e-15)
    np.testing.assert_allclose(activate(x, "tanh", "derivative"),
                               1.0 - np.tanh(x) ** 2, rtol=1e-12)
    with pytest.raises(ShapeMismatchError):
        activate(x, "sigmoid")


def test_softmax_rows_sum_to_one():
    gen = np.random.default_rng(19)
    for c in (2, 10, 100):
        logits = gen.normal(0.0, 10.0, size=(40, c))
        labels = gen.integers(0, c, 40)
        _, probs, _ = softmax_ce(logits, labels)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_uniform_logits_loss_is_log_c():
    for c in (2, 10, 100):
        logits = np.zeros((8, c))
        labels = np.arange(8) % c
        val, _, _ = softmax_ce(logits, labels)
        assert abs(val - np.log(c)) < 1e-6


def test_softmax_shift_invariance():
    gen = np.random.default_rng(20)
    logits = gen.normal(size=(5, 7))
    labels = gen.integers(0, 7, 5)
    l1, p1, _ = softmax_ce(logits, labels)
    l2, p2, _ = softmax_ce(logits + 1000.0, labels)
    np.testing.assert_allclose(p1, p2, atol=1e-12)
    assert abs(l1 - l2) < 1e-9


def test_softmax_ce_gradient_matches_finite_differences():
    gen = np.random.default_rng(21)
    logits = gen.normal(size=(4, 5))
    labels = gen.integers(0, 5, 4)
    _, _, dlogits = softmax_ce(logits, labels)
    eps = 1e-6
    for i in range(logits.size):
        up = logits.reshape(-1).copy()
        dn = up.copy()
        up[i] += eps
        dn[i] -= eps
        lu, _, _ = softmax_ce(up.reshape(logits.shape), labels)
        ld, _, _ = softmax_ce(dn.reshape(logits.shape), labels)
        fd = (lu - ld) / (2 * eps)
        assert abs(fd - dlogits.reshape(-1)[i]) < 1e-8


def test_softmax_ce_label_out_of_range():
    with pytest.raises(LabelError) as exc:
        softmax_ce(np.zeros((3, 4)), np.array([0, 9, 1]))
    assert "9" in str(exc.value) and "1" in str(exc.value)


def test_huge_logits_stay_finite():
    logits = np.array([[1e30, -1e30, 0.0]], dtype=np.float64)
    val, probs, _ = softmax_ce(logits, np.array([0]))
    assert np.isfinite(val)
    assert np.all(np.isfinite(probs))
