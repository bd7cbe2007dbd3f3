"""Gradient-stage checks: Adam against a scalar reference loop, ring
FIFO semantics, stopping rules, determinism, divergence handling, and
what pretrain keeps alive."""

import sys
import weakref

import numpy as np
import pytest

from nevo import data as data_mod
from nevo.data import DataSection, Dataset, make_synthetic_pair
from nevo.errors import (ConfigError, NumericError, ShapeMismatchError,
                         TrainingDiverged)
from nevo.evaluation import evaluate
from nevo.network import backward, forward, init_params, param_count
from nevo.rng import RngStream
from nevo.training import (AdamState, CheckpointRing, TrainConfig, adam_step,
                           pretrain, train)

from synthdata import small_mlp


def adam_reference(grads, lr, b1, b2, eps):
    """Independent per-coordinate reference: plain Python floats."""
    theta = [0.0] * len(grads[0])
    m = [0.0] * len(theta)
    v = [0.0] * len(theta)
    for t, g in enumerate(grads, start=1):
        for i in range(len(theta)):
            m[i] = b1 * m[i] + (1 - b1) * g[i]
            v[i] = b2 * v[i] + (1 - b2) * g[i] * g[i]
            mhat = m[i] / (1 - b1 ** t)
            vhat = v[i] / (1 - b2 ** t)
            theta[i] -= lr * mhat / (vhat ** 0.5 + eps)
    return np.array(theta)


def test_adam_matches_reference_loop():
    cfg = TrainConfig(lr=0.01)
    gen = np.random.default_rng(0)
    grads = [gen.normal(size=3) for _ in range(10)]
    params = np.zeros(3, dtype=np.float64)
    state = AdamState.zeros(3, np.float64)
    for g in grads:
        params, state = adam_step(state, params, g, cfg)
    ref = adam_reference([list(g) for g in grads], 0.01, 0.9, 0.999, 1e-8)
    np.testing.assert_allclose(params, ref, rtol=1e-12)


def test_adam_first_step_magnitude_is_lr():
    # with constant gradient the first update is lr*g/(|g|+eps) ~ lr*sign(g)
    cfg = TrainConfig(lr=0.01)
    for g in (1.0, 1e-3, 1e3, -42.0):
        params, _ = adam_step(AdamState.zeros(1, np.float64),
                              np.zeros(1), np.array([g]), cfg)
        # deviation from lr is eps/(|g|+eps) relative, tiny for these g
        assert abs(abs(params[0]) - 0.01) < 1e-6
        assert np.sign(params[0]) == -np.sign(g)


def test_adam_zero_gradient_is_identity():
    cfg = TrainConfig()
    params = np.array([1.5, -2.0])
    out, state = adam_step(AdamState.zeros(2, np.float64), params,
                           np.zeros(2), cfg)
    assert np.array_equal(out, params)
    assert state.t == 1


def test_adam_rejects_nonfinite_and_mismatched():
    cfg = TrainConfig()
    with pytest.raises(NumericError):
        adam_step(AdamState.zeros(2, np.float64), np.zeros(2),
                  np.array([1.0, np.nan]), cfg)
    with pytest.raises(ShapeMismatchError):
        adam_step(AdamState.zeros(2, np.float64), np.zeros(3), np.zeros(3),
                  cfg)


def test_adam_returns_fresh_state():
    cfg = TrainConfig()
    s0 = AdamState.zeros(2, np.float64)
    p0 = np.zeros(2)
    p1, s1 = adam_step(s0, p0, np.ones(2), cfg)
    assert s0.t == 0 and s1.t == 1
    assert np.all(s0.m1 == 0.0)
    assert p1 is not p0


def test_ring_keeps_newest_m():
    ring = CheckpointRing(5)
    for epoch in range(1, 13):
        ring.push(epoch, np.full(2, float(epoch)), float(epoch))
    assert len(ring) == 5
    assert [e.epoch for e in ring.entries] == [8, 9, 10, 11, 12]
    assert ring.newest.epoch == 12
    assert ring.newest.params[0] == 12.0


def test_ring_rejects_nonincreasing_epochs():
    ring = CheckpointRing(3)
    ring.push(1, np.zeros(1), 0.5)
    with pytest.raises(ShapeMismatchError):
        ring.push(1, np.zeros(1), 0.4)


def test_ring_stores_copies():
    ring = CheckpointRing(2)
    params = np.zeros(3)
    ring.push(1, params, 0.0)
    params[:] = 99.0
    assert np.all(ring.newest.params == 0.0)


def tiny_dataset(seed=0, n=300):
    train, _ = make_synthetic_pair(n, 10, classes=4, shape=(1, 4, 4),
                                   noise=0.1, stream=RngStream(seed))
    return train


def test_train_is_deterministic():
    spec = small_mlp()
    data = tiny_dataset()
    cfg = TrainConfig(max_epochs=3, batch_size=32, ring_size=4, seed=9)
    t1, r1, h1 = train(spec, data, cfg)
    t2, r2, h2 = train(spec, data, cfg)
    assert np.array_equal(t1, t2)
    assert [m.train_loss for m in h1] == [m.train_loss for m in h2]
    for a, b in zip(r1.entries, r2.entries):
        assert a.epoch == b.epoch
        assert np.array_equal(a.params, b.params)


def test_train_loss_decreases_on_separable_data():
    spec = small_mlp()
    data = tiny_dataset()
    cfg = TrainConfig(max_epochs=6, batch_size=32, ring_size=6, seed=1)
    _, _, history = train(spec, data, cfg)
    assert history[-1].train_loss < history[0].train_loss * 0.5


def test_ring_losses_are_reevaluations():
    # every stored and reported epoch loss equals a replay of the
    # epoch's batches: the float64 mean of backward's losses weighted
    # by batch size, summed in batch order; 300 samples in batches of
    # 70 leave a short last batch
    spec = small_mlp()
    data = tiny_dataset()
    cfg = TrainConfig(max_epochs=3, batch_size=70, ring_size=4, seed=2)
    theta, ring, history = train(spec, data, cfg)
    stream = RngStream(cfg.seed)
    replay = init_params(spec, stream.child(0))
    state = AdamState.zeros(replay.shape[0], replay.dtype)
    want = []
    for epoch in range(1, cfg.max_epochs + 1):
        total = 0.0
        for xb, yb in data_mod.batches(
                data, cfg.batch_size, shuffle=True,
                rng=stream.child(1, epoch).generator()):
            batch_loss, grad = backward(spec, replay, xb, yb, cfg.lam)
            total += float(batch_loss) * len(yb)
            replay, state = adam_step(state, replay, grad, cfg)
        want.append(total / len(data))
    assert np.array_equal(theta, replay)
    assert [e.train_loss for e in ring.entries] == want
    assert [m.train_loss for m in history] == want


def test_train_zero_epochs_returns_init():
    spec = small_mlp()
    data = tiny_dataset()
    cfg = TrainConfig(max_epochs=0, seed=4)
    theta, ring, history = train(spec, data, cfg)
    assert np.array_equal(theta, init_params(spec, RngStream(4).child(0)))
    assert len(ring) == 0 and history == []


def test_train_final_params_equal_newest_ring_entry():
    spec = small_mlp()
    data = tiny_dataset()
    cfg = TrainConfig(max_epochs=4, batch_size=64, ring_size=4, seed=5)
    theta, ring, _ = train(spec, data, cfg)
    assert np.array_equal(theta, ring.newest.params)


def test_train_patience_stop():
    spec = small_mlp()
    data = tiny_dataset()
    cfg = TrainConfig(max_epochs=50, batch_size=64, min_improve=1e9,
                      patience=2, seed=6)
    _, _, history = train(spec, data, cfg)
    # epoch 1 sets best, epochs 2..3 stale; patience 2 ends it there
    assert len(history) == 3


def test_train_loss_floor_stop():
    spec = small_mlp()
    data = tiny_dataset()
    cfg = TrainConfig(max_epochs=50, batch_size=64, delta1=1e9, seed=7)
    _, _, history = train(spec, data, cfg)
    assert len(history) == 1


def test_train_reports_test_metrics():
    spec = small_mlp()
    train_ds, test_ds = make_synthetic_pair(200, 80, classes=4,
                                            shape=(1, 4, 4), noise=0.1,
                                            stream=RngStream(11))
    cfg = TrainConfig(max_epochs=2, batch_size=32, seed=8)
    seen = []
    theta, _, history = train(spec, train_ds, cfg, test_data=test_ds,
                              callback=seen.append)
    assert len(seen) == len(history) == 2
    for m in history:
        assert m.test_loss is not None and 0.0 <= m.test_acc <= 1.0
    # the epoch-end test metrics are evaluate's, and its accuracy is
    # the argmax of forward
    assert history[-1].test_loss == evaluate(spec, theta, test_ds).mean_ce
    assert history[-1].test_acc == float(np.mean(
        forward(spec, theta, test_ds.images).argmax(axis=1)
        == test_ds.labels))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_divergence_carries_partial_state():
    spec = small_mlp()
    data = tiny_dataset()
    cfg = TrainConfig(max_epochs=10, batch_size=32, lr=1e18, seed=3)
    with pytest.raises(TrainingDiverged) as exc:
        train(spec, data, cfg)
    assert exc.value.ring is not None
    assert exc.value.history is not None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_step_diverges_before_the_ring():
    # one batch per epoch: the first step's gradient is finite, but lr
    # 1e39 overflows float32 theta, and no later batch is left to see it
    spec = small_mlp()
    data = tiny_dataset()
    cfg = TrainConfig(max_epochs=3, batch_size=len(data), lr=1e39, seed=3)
    with pytest.raises(TrainingDiverged) as exc:
        train(spec, data, cfg)
    assert len(exc.value.ring) == 0 and exc.value.history == []
    assert "non-finite parameters" in str(exc.value)


def test_train_empty_dataset_rejected():
    spec = small_mlp()
    empty = Dataset(np.zeros((0, 1, 4, 4), dtype=np.float32),
                    np.zeros(0, dtype=np.int64))
    with pytest.raises(ShapeMismatchError):
        train(spec, empty, TrainConfig())


@pytest.mark.parametrize("field,value,path", [
    ("lr", 0.0, "/bp/lr"),
    ("beta1", 1.0, "/bp/beta1"),
    ("ring_size", 3, "/bp/ring_size"),
    ("batch_size", 0, "/bp/batch_size"),
    ("patience", 0, "/bp/patience"),
])
def test_train_config_validation(field, value, path):
    with pytest.raises(ConfigError) as exc:
        TrainConfig(**{field: value})
    assert path in str(exc.value)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="before 3.11 the "
                    "caller's stack holds a call's arguments until it returns")
def test_pretrain_frees_the_loaded_split_before_the_first_warp(monkeypatch):
    """pretrain hands augment the loader's result as its only reference,
    so the unaugmented images are gone before any copy is warped, and
    the grown split is the same as augmenting a split kept alive."""
    spec = small_mlp()
    cfg = TrainConfig(max_epochs=1, batch_size=32, ring_size=4, seed=2)
    section = DataSection(augment_multiplier=3)
    loaded, alive = [], []

    def load():
        split = tiny_dataset()
        loaded.append(weakref.ref(split.images))
        return split

    real_warp = data_mod._affine_bilinear

    def warp_spy(*args, **kwargs):
        alive.append(loaded[0]() is not None)
        return real_warp(*args, **kwargs)

    monkeypatch.setattr(data_mod, "_affine_bilinear", warp_spy)
    *_, grown = pretrain(spec, load, section, cfg)
    assert alive == [False, False]
    kept = tiny_dataset()
    _, _, _, want = pretrain(spec, lambda: kept, section, cfg)
    assert grown.images.tobytes() == want.images.tobytes()
    assert grown.labels.tobytes() == want.labels.tobytes()
