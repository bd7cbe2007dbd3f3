"""Network-level checks: parameter layout arithmetic, initializer
bounds, the shared forward path behind loss/backward, and analytic
gradients against central finite differences."""

import numpy as np
import pytest

from nevo.errors import ConfigError, ShapeMismatchError
from nevo.network import (Activation, Conv, Dense, Flatten, NetworkSpec,
                          Pool, activation_sizes, backward, forward,
                          init_params, layout, loss, param_count, zoo_spec)
from nevo.persistence import parse_spec, spec_doc
from nevo.rng import RngStream
from nevo import tensor

from nevo.data import Dataset
from nevo.evaluation import evaluate
from synthdata import (conv2d_backward_reference, conv2d_nchw_reference,
                       fd_grad, max_rel_err, pool2d_nchw_reference,
                       pooled_conv, random_batch, random_theta, small_conv,
                       small_mlp, traced_peak)


def count_by_hand(spec):
    total = 0
    for layer in spec.layers:
        if isinstance(layer, Dense):
            total += layer.in_features * layer.out_features + layer.out_features
        elif isinstance(layer, Conv):
            total += (layer.out_channels * layer.in_channels
                      * layer.kernel * layer.kernel) + layer.out_channels
    return total


def test_zoo_param_counts():
    expected = {"mlp": 101770, "lenet1": 3246, "lenet5": 62006}
    for name, want in expected.items():
        spec = zoo_spec(name)
        assert param_count(spec) == want
        assert count_by_hand(spec) == want


def test_zoo_unknown_name():
    with pytest.raises(ConfigError) as exc:
        zoo_spec("resnet50")
    assert "/model/name" in str(exc.value)


def test_layout_slots_are_contiguous_and_ordered():
    spec = small_conv()
    slots = layout(spec)
    assert slots[0].start == 0
    for a, b in zip(slots, slots[1:]):
        assert a.stop == b.start
    assert slots[-1].stop == param_count(spec) == 152
    assert [s.name for s in slots] == ["w", "b", "w", "b"]


def test_activation_sizes_mlp():
    assert activation_sizes(zoo_spec("mlp")) == [784, 128, 10]


def test_init_params_bounds_and_determinism():
    spec = small_mlp()
    t1 = init_params(spec, RngStream(5))
    t2 = init_params(spec, RngStream(5))
    assert t1.dtype == np.float32
    assert np.array_equal(t1, t2)
    for slot in layout(spec):
        vals = t1[slot.start:slot.stop]
        if slot.name == "b":
            assert np.all(vals == 0.0)
        else:
            layer = spec.layers[slot.layer_index]
            limit = np.sqrt(6.0 / layer.in_features)
            assert np.all(np.abs(vals) <= limit)
            assert np.std(vals) > 0


def test_init_draws_do_not_depend_on_dtype():
    spec = small_mlp()
    a = init_params(spec, RngStream(6), dtype=np.float64)
    b = init_params(spec, RngStream(6), dtype=np.float32)
    assert np.array_equal(a.astype(np.float32), b)


def test_forward_shapes_and_theta_check():
    spec = small_conv()
    theta = random_theta(spec, 0, np.float32)
    x, _ = random_batch(spec, 3, 0)
    out = forward(spec, theta, x.astype(np.float32))
    assert out.shape == (3, 4)
    with pytest.raises(ShapeMismatchError):
        forward(spec, theta[:-1], x.astype(np.float32))
    with pytest.raises(ShapeMismatchError):
        forward(spec, theta, np.zeros((3, 1, 9, 9), dtype=np.float32))


def test_loss_equals_backward_loss_bitwise():
    for spec in (small_mlp(), small_conv(), pooled_conv()):
        for dtype in (np.float32, np.float64):
            theta = random_theta(spec, 1, dtype)
            x, y = random_batch(spec, 6, 2)
            x = x.astype(dtype)
            a = loss(spec, theta, x, y, 1e-4)
            b, _ = backward(spec, theta, x, y, 1e-4)
            assert a == b, f"{spec} {dtype}: loss paths disagree"


def relu_preact_margin(spec, theta, x):
    """Smallest |pre-activation| reaching a relu; guards the FD check
    against kink crossings."""
    from nevo.network import _run
    _, caches = _run(spec, theta, x, True)
    margins = []
    for layer, cache in zip(spec.layers, caches):
        if isinstance(layer, Activation) and layer.kind == "relu":
            margins.append(float(np.min(np.abs(cache))))
    return min(margins)


# seeds chosen so every relu pre-activation sits well away from the
# kink; the margin assertion documents that requirement
@pytest.mark.parametrize("lam", [0.0, 1e-2])
def test_gradients_match_finite_differences_mlp(lam):
    spec = small_mlp()
    theta = random_theta(spec, 20)
    x, y = random_batch(spec, 5, 30)
    assert relu_preact_margin(spec, theta, x) > 1e-3
    _, grad = backward(spec, theta, x, y, lam)
    fd = fd_grad(spec, theta, x, y, lam)
    assert max_rel_err(grad, fd) < 1e-4


def test_gradients_match_finite_differences_conv():
    spec = small_conv()
    theta = random_theta(spec, 17)
    x, y = random_batch(spec, 4, 29)
    assert relu_preact_margin(spec, theta, x) > 1e-3
    _, grad = backward(spec, theta, x, y, 0.0)
    fd = fd_grad(spec, theta, x, y, 0.0)
    assert max_rel_err(grad, fd) < 1e-4


def test_gradients_match_finite_differences_pooled():
    spec = pooled_conv()
    theta = random_theta(spec, 0)
    x, y = random_batch(spec, 4, 26)
    assert relu_preact_margin(spec, theta, x) > 1e-3
    _, grad = backward(spec, theta, x, y, 1e-3)
    fd = fd_grad(spec, theta, x, y, 1e-3)
    assert max_rel_err(grad, fd) < 1e-4


def backward_every_dx(spec, theta, x, y):
    """Reverse pass that still computes the input gradient of every
    layer, including the one below the first parameterized layer."""
    from nevo.network import _run, _views
    logits, caches = _run(spec, theta, x, True)
    ce, _, g = tensor.softmax_ce(logits, y)
    params = _views(spec, theta)
    grad = np.zeros_like(theta)
    gviews = _views(spec, grad)
    for i in range(len(spec.layers) - 1, -1, -1):
        layer, cache = spec.layers[i], caches[i]
        if isinstance(layer, Dense):
            gviews[i]["w"][...] = cache.T @ g
            gviews[i]["b"][...] = g.sum(axis=0)
            g = g @ params[i]["w"].T
        elif isinstance(layer, Conv):
            g, gviews[i]["w"][...], gviews[i]["b"][...] = \
                tensor.conv2d_backward(cache, params[i]["w"], layer.stride,
                                       layer.pad, g)
        elif isinstance(layer, Pool):
            shape, idx = cache
            g = tensor.pool2d_backward(g, shape, layer.kind, layer.size,
                                       layer.stride, idx)
        elif isinstance(layer, Activation):
            g = g * tensor.activate(cache, layer.kind, "derivative")
        else:
            g = g.reshape(cache)
    assert g.shape == x.shape
    return ce, grad


def pool_first():
    return NetworkSpec((1, 10, 10), (
        Pool("max", 2, 2),
        Conv(1, 3, 3, 1, 1),
        Activation("relu"),
        Flatten(),
        Dense(75, 4),
    ))


@pytest.mark.parametrize("name", ["lenet1", "mlp", "pool_first"])
def test_backward_skipping_first_dx_is_bitwise_unchanged(name):
    spec = pool_first() if name == "pool_first" else zoo_spec(name)
    theta = init_params(spec, RngStream(3))
    x, y = random_batch(spec, 37, 4, np.float32)
    ce, want = backward_every_dx(spec, theta, x, y)
    got_loss, got = backward(spec, theta, x, y, 0.0)
    assert got_loss == ce
    assert got.dtype == np.float32
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


@pytest.mark.parametrize("name", ["lenet1", "lenet5"])
def test_backward_gradient_equals_reference_conv_backward_bitwise(
        monkeypatch, name):
    """A training batch of 128 gets the gradient bits of the earlier
    tensordot / per-tap conv backward (tests/synthdata.py)."""
    spec = zoo_spec(name)
    theta = init_params(spec, RngStream(7))
    x, y = random_batch(spec, 128, 8, np.float32)
    got_loss, got = backward(spec, theta, x, y, 1e-4)

    def reference(x, kernels, stride, pad, grad_out, need_dx=True):
        dx, dw, db = conv2d_backward_reference(x, kernels, stride, pad,
                                               grad_out)
        return (dx if need_dx else None), dw, db

    monkeypatch.setattr(tensor, "conv2d_backward", reference)
    want_loss, want = backward(spec, theta, x, y, 1e-4)
    assert got_loss == want_loss
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


@pytest.mark.parametrize("name", ["lenet1", "lenet5"])
def test_forward_without_argmax_matches_the_recording_pass(name):
    from nevo.network import _run, _views
    spec = zoo_spec(name)
    theta = init_params(spec, RngStream(5))
    # piecewise-constant images in 4x4 blocks, so conv outputs repeat
    # inside a block and the max pools see exact ties after ReLU
    gen = np.random.default_rng(6)
    c, h, w = spec.input_shape
    blocks = gen.integers(-1, 2, size=(23, c, h // 4, w // 4))
    x = np.kron(blocks, np.ones((4, 4))).astype(np.float32)
    first = _views(spec, theta)[0]
    act = tensor.activate(tensor.conv2d(x, first["w"], first["b"]), "relu")
    n, k, oh, ow = act.shape
    win = act.reshape(n, k, oh // 2, 2, ow // 2, 2)
    top = win.max(axis=(3, 5), keepdims=True)
    assert ((win == top).sum(axis=(3, 5)) > 1)[top[:, :, :, 0, :, 0] > 0].any()
    want, _ = _run(spec, theta, x, True)
    got = forward(spec, theta, x)
    assert got.dtype == np.float32
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def input_activation_specs():
    """Activations that read the caller's batch or a view of it."""
    return {
        "flatten-relu": NetworkSpec((1, 4, 4), (
            Flatten(), Activation("relu"), Dense(16, 3))),
        "relu-first": NetworkSpec((1, 4, 4), (
            Activation("relu"), Flatten(), Dense(16, 3))),
        "flatten-tanh-tanh": NetworkSpec((1, 4, 4), (
            Flatten(), Activation("tanh"), Activation("tanh"),
            Dense(16, 8), Activation("tanh"), Dense(8, 3))),
        "small_conv": small_conv(),
        "lenet1": zoo_spec("lenet1"),
    }


@pytest.mark.parametrize("name", sorted(input_activation_specs()))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_never_writes_the_callers_batch(name, dtype):
    """A pass that keeps nothing runs its activations in place, on its
    own buffers only: the caller's batch keeps its bytes, and the logits
    are bitwise those of the pass that keeps every activation input."""
    from nevo.network import _run
    spec = input_activation_specs()[name]
    theta = init_params(spec, RngStream(3)).astype(dtype)
    x, y = random_batch(spec, 9, 4, dtype)  # about half of x is negative
    before = x.tobytes()
    got = forward(spec, theta, x)
    assert x.tobytes() == before
    loss(spec, theta, x, y)
    assert x.tobytes() == before
    want, _ = _run(spec, theta, x, True)
    assert got.tobytes() == want.tobytes()


def test_evaluate_runs_activations_in_place(monkeypatch):
    """lenet1's widest activation is its first conv's output, which the
    ReLU after it overwrites instead of copying: a forward-only
    evaluate peaks over 1 MiB below the same pass with every activation
    out of place (455-sample chunks, so a 4 MiB copy)."""
    spec = zoo_spec("lenet1")
    theta = init_params(spec, RngStream(0))
    x, y = random_batch(spec, 1000, 1, np.float32)
    data = Dataset(x, y)
    report, peak = traced_peak(lambda: evaluate(spec, theta, data))
    real = tensor.activate
    monkeypatch.setattr(tensor, "activate", lambda x, kind, mode="value",
                        out=None: real(x, kind, mode))
    copied, base = traced_peak(lambda: evaluate(spec, theta, data))
    assert report == copied
    assert peak < base - (1 << 20)


@pytest.mark.parametrize("name", ["lenet1", "lenet5"])
def test_forward_and_evaluate_match_the_nchw_kernels_bitwise(monkeypatch,
                                                             name):
    """The batch-innermost conv and pool kernels give the logits, mean
    CE and accuracy of the NCHW kernels they replaced
    (tests/synthdata.py).  The 500-sample batch spans several
    _conv_chunk blocks of the first conv (lenet5's splits at 71
    samples) and at least two evaluate chunks."""
    from nevo.network import _run
    spec = zoo_spec(name)
    theta = init_params(spec, RngStream(9))
    # biases start at zero; give them values the bias add can round
    theta += np.random.default_rng(9).normal(0.0, 0.1, theta.shape).astype(
        np.float32)
    x, y = random_batch(spec, 500, 10, np.float32)
    c, h, _ = spec.input_shape
    k = spec.layers[0].kernel
    assert tensor._conv_chunk(c, k, k, h - k + 1, h - k + 1) < 500

    def passes():
        return (forward(spec, theta, x), _run(spec, theta, x[:150], True)[0],
                evaluate(spec, theta, Dataset(x, y, "gate")))

    got = passes()
    monkeypatch.setattr(tensor, "conv2d", conv2d_nchw_reference)
    monkeypatch.setattr(tensor, "pool2d", pool2d_nchw_reference)
    want = passes()
    for a, b in zip(got[:2], want[:2]):
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))
    assert got[2] == want[2]
    assert got[2].mean_ce.hex() == want[2].mean_ce.hex()


def test_conv_stack_stays_batch_innermost(monkeypatch):
    """Every 4-D activation a lenet5 step caches, and every conv and
    pool input gradient, has the batch innermost in memory, so the
    kernels read each one through tensor._chwn as a free view.  Only
    the input batch is NCHW.  Bits cannot catch a kernel that returns
    C-ordered NCHW: it would only make backward multiply two layouts."""
    from nevo.network import _run
    spec = zoo_spec("lenet5")
    theta = init_params(spec, RngStream(12))
    x, y = random_batch(spec, 40, 13, np.float32)
    grads = []
    for op in ("conv2d_backward", "pool2d_backward"):
        def spy(*args, kernel=getattr(tensor, op), **kwargs):
            out = kernel(*args, **kwargs)
            grads.append(out[0] if isinstance(out, tuple) else out)
            return out
        monkeypatch.setattr(tensor, op, spy)

    _, caches = _run(spec, theta, x, True)
    backward(spec, theta, x, y)
    cached = [a for cache in caches
              for a in (cache if isinstance(cache, tuple) else (cache,))
              if isinstance(a, np.ndarray) and a.ndim == 4
              and not np.shares_memory(a, x)]
    # relu inputs, pool argmaxes and the second conv's input; the
    # first conv's dx is not computed
    assert len(cached) == 5
    assert sum(g is not None for g in grads) == 3
    for a in cached + [g for g in grads if g is not None]:
        assert a.strides[0] == a.itemsize
        assert np.shares_memory(tensor._chwn(a), a)


def test_l2_term_touches_weights_only():
    spec = small_mlp()
    theta = np.zeros(param_count(spec), dtype=np.float64)
    x, y = random_batch(spec, 3, 9)
    _, g0 = backward(spec, theta, x, y, 0.0)
    _, g1 = backward(spec, theta, x, y, 10.0)
    # at theta=0 the penalty gradient 2*lam*w vanishes entirely
    assert np.array_equal(g0, g1)

    theta2 = random_theta(spec, 10)
    _, ga = backward(spec, theta2, x, y, 0.0)
    _, gb = backward(spec, theta2, x, y, 0.5)
    delta = gb - ga
    for slot in layout(spec):
        seg = delta[slot.start:slot.stop]
        ref = theta2[slot.start:slot.stop]
        if slot.name == "w":
            np.testing.assert_allclose(seg, 2 * 0.5 * ref, rtol=1e-10,
                                       atol=1e-12)
        else:
            np.testing.assert_allclose(seg, 0.0, atol=1e-12)


def test_predict_zero_weights_picks_class_zero():
    spec = small_mlp()
    theta = np.zeros(param_count(spec), dtype=np.float32)
    x, _ = random_batch(spec, 10, 11)
    preds = forward(spec, theta, x.astype(np.float32)).argmax(axis=1)
    assert np.all(preds == 0), "argmax tie must resolve to lowest index"


def test_spec_json_round_trip():
    for spec in (small_mlp(), pooled_conv(), zoo_spec("lenet1")):
        doc = spec_doc(spec)
        back = parse_spec(doc)
        assert back == spec


def test_spec_json_rejects_unknown_layer_kind():
    doc = {"input_shape": [4], "layers": [{"kind": "dropout"}]}
    with pytest.raises(ConfigError) as exc:
        parse_spec(doc)
    assert "/model/layers/0/kind" in str(exc.value)


def test_spec_json_rejects_bad_wiring():
    doc = {"input_shape": [1, 4, 4],
           "layers": [{"kind": "dense", "in": 16, "out": 4}]}
    with pytest.raises(ConfigError):
        parse_spec(doc)


@pytest.mark.parametrize("build,message", [
    (lambda: Conv(1, 4, 3, stride=0), "conv stride must be >= 1, got 0"),
    (lambda: Conv(1, 4, 0), "conv kernel must be >= 1, got 0"),
    (lambda: Conv(1, 4, 3, pad=-1), "conv pad must be >= 0, got -1"),
    (lambda: Pool("max", 2, 0), "pool stride must be >= 1, got 0"),
    (lambda: Pool("max", 0, 1), "pool size must be >= 1, got 0"),
    (lambda: Pool("min", 2, 2), "unknown pool op 'min'"),
    (lambda: Dense(64, 0), "dense out_features must be >= 1, got 0"),
    (lambda: Activation("sigmoid"), "unknown activation 'sigmoid'"),
])
def test_layers_built_in_code_check_their_ranges(build, message):
    with pytest.raises(ShapeMismatchError) as info:
        build()
    assert str(info.value) == message


def test_spec_rejects_unflat_output():
    with pytest.raises(ShapeMismatchError):
        NetworkSpec((1, 6, 6), (Conv(1, 2, 3),))


def test_spec_rejects_feature_mismatch():
    with pytest.raises(ShapeMismatchError):
        NetworkSpec((1, 4, 4), (Flatten(), Dense(15, 4)))


def test_spec_rejects_a_non_layer():
    with pytest.raises(ShapeMismatchError) as info:
        NetworkSpec((1, 4, 4), (object(),))
    assert str(info.value) == "layer 0 (object): unsupported layer type"


def test_n_classes():
    assert small_mlp().n_classes == 4
    assert zoo_spec("lenet5").n_classes == 10


def test_pool_rejects_oversized_window():
    with pytest.raises(ShapeMismatchError):
        NetworkSpec((1, 4, 4), (Pool("max", 5, 1), Flatten(), Dense(16, 2)))
