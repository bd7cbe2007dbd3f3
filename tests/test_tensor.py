"""Kernel-level checks against naive loop oracles.

The float64 kernels promise a fixed accumulation order, so the loop
oracles must agree to the last bit; float32 kernels only promise
closeness.  Gradients are checked against central differences.
"""

import numpy as np
import pytest

from nevo.errors import LabelError, ShapeMismatchError
from nevo.evaluation import count_costs
from nevo.network import Conv, Dense, Flatten, NetworkSpec, Pool
from nevo.tensor import (activate, conv2d, conv2d_backward, matmul, pool2d,
                         pool2d_backward, softmax_ce)


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
