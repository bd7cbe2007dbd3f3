"""Gradient stage: minibatch Adam with a FIFO ring of end-of-epoch
parameter snapshots.

The ring is the bridge to the evolutionary stage; its newest entries
become the seed population.  An epoch's loss, stored in the ring and
seen by the stopping rules, is the sample-weighted mean of the losses
`network.backward` returned for that epoch's batches (cross-entropy
plus the weight penalty, each at the parameters its batch was stepped
from), so it costs no pass of its own and describes the epoch rather
than the snapshot.  DE rescores every snapshot on its own fitness
subset before comparing any.  The test metrics come from
`evaluation.evaluate`, the only epoch-end pass.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, NumericError, ShapeMismatchError, TrainingDiverged
from .network import NetworkSpec, backward, init_params
from .rng import RngStream
from .data import DataSection, augment, batches
from .evaluation import _EVAL_CHUNK_ELEMS, evaluate

# RNG namespaces under the training stream (the bp seed by default)
_NS_INIT = 0
_NS_SHUFFLE = 1
_NS_AUGMENT = 5  # `pretrain`'s augmentation


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lam: float = field(default=1e-4, metadata={"key": "lambda"})
    batch_size: int = 128
    max_epochs: int = 10
    delta1: float = 0.0
    min_improve: float = 1e-5
    patience: int = 5
    ring_size: int = 10
    seed: int = 0

    def __post_init__(self):
        ConfigError.check(
            (self.lr > 0, "/bp/lr", "must be > 0"),
            (0 <= self.beta1 < 1, "/bp/beta1", "must be in [0, 1)"),
            (0 <= self.beta2 < 1, "/bp/beta2", "must be in [0, 1)"),
            (self.eps > 0, "/bp/eps", "must be > 0"),
            (self.lam >= 0, "/bp/lambda", "must be >= 0"),
            (self.batch_size >= 1, "/bp/batch_size", "must be >= 1"),
            (self.max_epochs >= 0, "/bp/max_epochs", "must be >= 0"),
            (self.delta1 >= 0, "/bp/delta1", "must be >= 0"),
            (self.min_improve >= 0, "/bp/min_improve", "must be >= 0"),
            (self.patience >= 1, "/bp/patience", "must be >= 1"),
            (self.ring_size >= 4, "/bp/ring_size", "must be >= 4"),
            (self.seed >= 0, "/bp/seed", "must be >= 0"))


@dataclass
class AdamState:
    m1: np.ndarray
    m2: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, d: int, dtype=np.float32) -> "AdamState":
        return cls(np.zeros(d, dtype=dtype), np.zeros(d, dtype=dtype), 0)


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray,
              cfg: TrainConfig):
    """One bias-corrected Adam update; returns fresh (params, state)."""
    if params.shape != grad.shape or params.shape != state.m1.shape:
        raise ShapeMismatchError(
            f"adam_step: params {tuple(params.shape)}, grad {tuple(grad.shape)}, "
            f"state {tuple(state.m1.shape)} disagree")
    if not np.all(np.isfinite(grad)):
        raise NumericError("adam_step: non-finite gradient")
    t = state.t + 1
    m1 = cfg.beta1 * state.m1 + (1.0 - cfg.beta1) * grad
    m2 = cfg.beta2 * state.m2 + (1.0 - cfg.beta2) * (grad * grad)
    mhat = m1 / (1.0 - cfg.beta1 ** t)
    vhat = m2 / (1.0 - cfg.beta2 ** t)
    new_params = params - cfg.lr * (mhat / (np.sqrt(vhat) + cfg.eps))
    return new_params, AdamState(m1, m2, t)


@dataclass(frozen=True)
class RingEntry:
    epoch: int
    params: np.ndarray
    train_loss: float


class CheckpointRing:
    """FIFO of the most recent end-of-epoch (epoch, params, loss) triples."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError("/bp/ring_size", "must be >= 1")
        self.capacity = capacity
        self._slots: deque = deque(maxlen=capacity)

    def push(self, epoch: int, params: np.ndarray, train_loss: float):
        if self._slots and epoch <= self._slots[-1].epoch:
            raise ShapeMismatchError(
                f"ring epochs must increase: got {epoch} after "
                f"{self._slots[-1].epoch}")
        self._slots.append(RingEntry(epoch, params.copy(), float(train_loss)))

    def __len__(self):
        return len(self._slots)

    def __iter__(self):
        return iter(self._slots)

    @property
    def entries(self) -> list:
        return list(self._slots)

    @property
    def newest(self) -> RingEntry:
        if not self._slots:
            raise IndexError("ring is empty")
        return self._slots[-1]


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    train_loss: float
    test_loss: Optional[float] = None
    test_acc: Optional[float] = None
    wall_ms: float = 0.0


def train(spec: NetworkSpec, data, cfg: TrainConfig, test_data=None,
          stream: Optional[RngStream] = None, callback=None):
    """Minibatch Adam over shuffled epochs.

    Returns (final params, CheckpointRing, history).  An epoch's loss is
    the mean of its batch losses, weighted by batch size.  Stops at
    max_epochs, or when the epoch loss drops below delta1, or when the
    best epoch loss fails to improve by min_improve for `patience`
    consecutive epochs.  A non-finite loss, gradient or end-of-epoch
    parameter raises TrainingDiverged carrying the ring and history
    built so far.

    RNG paths: child(_NS_INIT) initializes parameters,
    child(_NS_SHUFFLE, epoch) orders each epoch's batches.
    """
    if len(data.images) == 0:
        raise ShapeMismatchError("train: empty dataset")
    if stream is None:
        stream = RngStream(cfg.seed)
    # glibc returns freed heap to the OS once its free top exceeds twice
    # the largest mmapped block freed so far.  With the conv backward in
    # tiles no block a step frees is that large, so every step's and
    # every evaluate chunk's scratch would be unmapped and faulted back
    # in.  The conv kernels reuse one tile buffer per block, but every
    # step still allocates its activations and gradients afresh: a fresh
    # one-epoch lenet1 train on 3000 samples takes about 39k page faults
    # without this block against 3k with it.  Freeing one untouched
    # block of two evaluate chunks first raises that trim threshold
    # above both; it costs no RSS, and other allocators ignore it.
    np.empty(2 * _EVAL_CHUNK_ELEMS, dtype=np.float32)
    theta = init_params(spec, stream.child(_NS_INIT))
    state = AdamState.zeros(theta.shape[0], theta.dtype)
    ring = CheckpointRing(cfg.ring_size)
    history: list = []
    best = float("inf")
    stale = 0

    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        shuffle_rng = stream.child(_NS_SHUFFLE, epoch).generator()
        loss_sum = 0.0
        try:
            for xb, yb in batches(data, cfg.batch_size, shuffle=True,
                                  rng=shuffle_rng):
                batch_loss, grad = backward(spec, theta, xb, yb, cfg.lam)
                if not np.isfinite(batch_loss):
                    raise NumericError(
                        f"epoch {epoch}: non-finite batch loss {batch_loss}")
                loss_sum += float(batch_loss) * len(yb)
                theta, state = adam_step(state, theta, grad, cfg)
            # a finite gradient can still step theta out of range, and
            # no batch of this epoch is left to see it
            if not np.all(np.isfinite(theta)):
                raise NumericError(f"epoch {epoch}: non-finite parameters")
        except NumericError as exc:
            raise TrainingDiverged(str(exc), ring=ring, history=history) from exc
        epoch_loss = loss_sum / len(data)
        ring.push(epoch, theta, epoch_loss)

        test_loss = test_acc = None
        if test_data is not None:
            rep = evaluate(spec, theta, test_data)
            test_loss, test_acc = rep.mean_ce, rep.accuracy
        wall_ms = (time.perf_counter() - t0) * 1000.0
        metrics = EpochMetrics(epoch, epoch_loss, test_loss, test_acc, wall_ms)
        history.append(metrics)
        if callback is not None:
            callback(metrics)

        if epoch_loss < cfg.delta1:
            break
        if epoch_loss < best - cfg.min_improve:
            best = epoch_loss
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    return theta, ring, history


def pretrain(spec: NetworkSpec, load_data, section: DataSection,
             cfg: TrainConfig, stream: Optional[RngStream] = None,
             **train_kwargs):
    """`train` on load_data() grown by the section's augmentation, drawn
    from stream.child(_NS_AUGMENT); returns train's triple and the grown
    data.

    load_data takes no arguments and returns the train split, so that
    pretrain holds no reference to it: when the loader's result is its
    only reference, augment frees it once it is copied into the grown
    array, before the first warp.  That hand-over needs CPython 3.11 or
    later, where a call's temporary argument belongs to the callee; on
    3.10 the split lives until augment returns."""
    if stream is None:
        stream = RngStream(cfg.seed)
    data = augment(load_data(), section.augment_multiplier,
                   section.max_shift_px, section.max_rotate_deg,
                   stream.child(_NS_AUGMENT))
    return (*train(spec, data, cfg, stream=stream, **train_kwargs), data)
