"""Network specification, flat parameter vectors, and the forward /
loss / backward triple.

A network is a pipeline of layers over NCHW-shaped (or flat) batches.
Between conv, pool and activation layers the batches are batch-innermost
in memory, as the ``tensor`` kernels return them.  All parameters live
in one flat vector ``theta``; the layout (per-layer slices, weights then
bias, in layer order) is a pure function of the spec, so optimizers that
only see flat vectors stay compatible with gradient training on the same
spec.

``loss`` and the loss value returned by ``backward`` share one code
path and are bitwise equal for identical inputs.

Each layer kind is one frozen dataclass with the whole layer contract:
``out_shape(shape)``, ``param_shapes`` ((weight, bias) or ()), ``fan_in``
if it has weights, ``forward(p, x, keep) -> (y, cache)`` on its {"w",
"b"} views ``p`` (None if it has none), and ``backward(p, gp, cache, g,
need_dx) -> g_in``, which writes its parameter gradients into ``gp``.
A layer with weights returns None for ``g_in`` unless ``need_dx``.

This module holds no JSON.  Each layer dataclass checks its own ranges
and names the JSON key of a field whose key differs from its name in
the field's ``key`` metadata; ``persistence`` parses and renders specs
from those fields.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeMismatchError
from .rng import RngStream
from . import tensor


def _at_least(layer, minimum, *names):
    """Raise for the first named field of `layer` below `minimum`."""
    for name in names:
        value = getattr(layer, name)
        if value < minimum:
            raise ShapeMismatchError(
                f"{type(layer).__name__.lower()} {name} must be >= "
                f"{minimum}, got {value}")


@dataclass(frozen=True)
class Dense:
    in_features: int = field(metadata={"key": "in"})
    out_features: int = field(metadata={"key": "out"})

    def __post_init__(self):
        _at_least(self, 1, "in_features", "out_features")

    def out_shape(self, shape):
        if len(shape) != 1:
            raise ShapeMismatchError(f"needs flat input, got {shape}")
        if shape[0] != self.in_features:
            raise ShapeMismatchError(
                f"expects {self.in_features} features, got {shape[0]}")
        return (self.out_features,)

    @property
    def param_shapes(self):
        return (self.in_features, self.out_features), (self.out_features,)

    @property
    def fan_in(self):
        return self.in_features

    def forward(self, p, x, keep):
        return tensor.matmul(x, p["w"]) + p["b"], x

    def backward(self, p, gp, cache, g, need_dx):
        gp["w"][...] = cache.T @ g
        gp["b"][...] = g.sum(axis=0)
        return g @ p["w"].T if need_dx else None


@dataclass(frozen=True)
class Conv:
    in_channels: int = field(metadata={"key": "in"})
    out_channels: int = field(metadata={"key": "out"})
    kernel: int
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        _at_least(self, 1, "in_channels", "out_channels", "kernel", "stride")
        _at_least(self, 0, "pad")

    def out_shape(self, shape):
        if len(shape) != 3:
            raise ShapeMismatchError(f"needs CHW input, got {shape}")
        c, h, w = shape
        if c != self.in_channels:
            raise ShapeMismatchError(
                f"expects {self.in_channels} channels, got {c}")
        oh, ow = tensor._conv_out_dims(h, w, self.kernel, self.kernel,
                                       self.stride, self.pad)
        return (self.out_channels, oh, ow)

    @property
    def param_shapes(self):
        return ((self.out_channels, self.in_channels, self.kernel,
                 self.kernel), (self.out_channels,))

    @property
    def fan_in(self):
        return self.in_channels * self.kernel * self.kernel

    def forward(self, p, x, keep):
        return tensor.conv2d(x, p["w"], p["b"], self.stride, self.pad), x

    def backward(self, p, gp, cache, g, need_dx):
        dx, gp["w"][...], gp["b"][...] = tensor.conv2d_backward(
            cache, p["w"], self.stride, self.pad, g, need_dx=need_dx)
        return dx


@dataclass(frozen=True)
class Pool:
    kind: str = field(metadata={"key": "op"})
    size: int
    stride: int

    param_shapes = ()

    def __post_init__(self):
        if self.kind not in ("max", "avg"):
            raise ShapeMismatchError(f"unknown pool op {self.kind!r}")
        _at_least(self, 1, "size", "stride")

    def out_shape(self, shape):
        if len(shape) != 3:
            raise ShapeMismatchError(f"needs CHW input, got {shape}")
        c, h, w = shape
        if self.size > h or self.size > w:
            raise ShapeMismatchError(
                f"window {self.size} larger than input {h}x{w}")
        return (c, (h - self.size) // self.stride + 1,
                (w - self.size) // self.stride + 1)

    def forward(self, p, x, keep):
        y, idx = tensor.pool2d(x, self.kind, self.size, self.stride,
                               need_argmax=keep)
        return y, (x.shape, idx)

    def backward(self, p, gp, cache, g, need_dx):
        shape, idx = cache
        return tensor.pool2d_backward(g, shape, self.kind, self.size,
                                      self.stride, idx)


@dataclass(frozen=True)
class Activation:
    kind: str = field(metadata={"key": "fn"})

    param_shapes = ()

    def __post_init__(self):
        if self.kind not in ("relu", "tanh"):
            raise ShapeMismatchError(f"unknown activation {self.kind!r}")

    def out_shape(self, shape):
        return shape

    def forward(self, p, x, keep):
        # a pass that keeps nothing overwrites its input, which no later
        # layer reads, unless that is the caller's batch or a view of it,
        # which `_run` makes read-only
        inplace = not keep and x.flags.writeable
        return tensor.activate(x, self.kind, "value",
                               out=x if inplace else None), x

    def backward(self, p, gp, cache, g, need_dx):
        return g * tensor.activate(cache, self.kind, "derivative")


@dataclass(frozen=True)
class Flatten:
    param_shapes = ()

    def out_shape(self, shape):
        return (math.prod(shape),)

    def forward(self, p, x, keep):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, p, gp, cache, g, need_dx):
        return g.reshape(cache)


@dataclass(frozen=True)
class NetworkSpec:
    """Immutable architecture description.

    input_shape is (channels, height, width) for image inputs or
    (features,) for flat inputs.  Construction validates the whole
    wiring, so a NetworkSpec that exists is runnable.
    """

    input_shape: tuple
    layers: tuple

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(v) for v in self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        self.shapes()

    def shapes(self) -> list:
        """Activation shape after the input and after every layer."""
        shape = self.input_shape
        if len(shape) not in (1, 3) or any(v < 1 for v in shape):
            raise ShapeMismatchError(f"bad input shape {shape}")
        out = [shape]
        for i, layer in enumerate(self.layers):
            where = f"layer {i} ({type(layer).__name__.lower()})"
            if not hasattr(layer, "out_shape"):
                raise ShapeMismatchError(f"{where}: unsupported layer type")
            try:
                shape = layer.out_shape(shape)
            except ShapeMismatchError as exc:
                raise ShapeMismatchError(f"{where}: {exc}") from exc
            out.append(shape)
        if len(shape) != 1:
            raise ShapeMismatchError(
                f"network must end with a flat logits layer, got {shape}")
        return out

    @property
    def n_classes(self) -> int:
        return self.shapes()[-1][0]


@dataclass(frozen=True)
class ParamSlot:
    layer_index: int
    name: str
    start: int
    stop: int
    shape: tuple


@functools.lru_cache(maxsize=64)
def layout(spec: NetworkSpec) -> tuple:
    """Flat-vector slots in layer order, weights before bias.

    Memoized on the frozen spec: forward, loss and backward ask for it
    several times per call, and the slots are immutable."""
    slots = []
    offset = 0
    for i, layer in enumerate(spec.layers):
        for name, shape in zip(("w", "b"), layer.param_shapes):
            size = math.prod(shape)
            slots.append(ParamSlot(i, name, offset, offset + size, shape))
            offset += size
    return tuple(slots)


def param_count(spec: NetworkSpec) -> int:
    slots = layout(spec)
    return slots[-1].stop if slots else 0


def activation_sizes(spec: NetworkSpec) -> list:
    """Element counts of the input and of the output of every
    parameterized layer; the flat-vector update cost scales with their
    sum while gradient training scales with products of neighbours."""
    shapes = spec.shapes()
    return [math.prod(shapes[0])] + [
        math.prod(shape) for layer, shape in zip(spec.layers, shapes[1:])
        if layer.param_shapes]


def _check_theta(spec, theta):
    d = param_count(spec)
    if theta.ndim != 1 or theta.shape[0] != d:
        raise ShapeMismatchError(
            f"parameter vector has shape {tuple(theta.shape)}, spec needs ({d},)")


def init_params(spec: NetworkSpec, stream: RngStream,
                dtype=np.float32) -> np.ndarray:
    """He-uniform fan-in weights (limit sqrt(6/fan_in)), zero biases.

    Draws are float64 and cast once at the end, so the draw sequence is
    independent of the requested dtype.
    """
    gen = stream.generator()
    theta = np.zeros(param_count(spec), dtype=np.float64)
    for slot in layout(spec):
        if slot.name != "w":
            continue
        limit = math.sqrt(6.0 / spec.layers[slot.layer_index].fan_in)
        theta[slot.start:slot.stop] = gen.uniform(-limit, limit, slot.stop - slot.start)
    return theta.astype(dtype)


def _views(spec, theta):
    """Per-layer {name: view} dicts; views alias theta."""
    out = {}
    for slot in layout(spec):
        out.setdefault(slot.layer_index, {})[slot.name] = \
            theta[slot.start:slot.stop].reshape(slot.shape)
    return out


def _run(spec, theta, x, keep):
    """Shared forward pass; optionally records per-layer caches.

    The layers get the caller's batch through a read-only view, so no
    layer writes it, nor any view of it (Flatten returns one).  When
    nothing is kept, every other activation input is a buffer this pass
    made and no later layer reads, and the activation runs in place on
    it: the same ufunc, so the same bits, with one activation-sized
    array less at the peak."""
    _check_theta(spec, theta)
    x = np.asarray(x).view()
    x.flags.writeable = False
    if x.shape[1:] != spec.input_shape:
        raise ShapeMismatchError(
            f"batch shape {tuple(x.shape)} does not match input shape "
            f"{spec.input_shape}")
    params = _views(spec, theta)
    caches = []
    for i, layer in enumerate(spec.layers):
        x, cache = layer.forward(params.get(i), x, keep)
        if keep:
            caches.append(cache)
        # a cache that is not kept must not hold this layer's input while
        # the next layer allocates (about 5% of lenet1 `evaluate` time)
        del cache
    return x, caches


def forward(spec: NetworkSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Logits for a batch."""
    logits, _ = _run(spec, theta, x, keep=False)
    return logits


def _l2_penalty(spec, theta):
    """Sum of squared weights (biases excluded), accumulated slot by slot."""
    total = 0.0
    for slot in layout(spec):
        if slot.name == "w":
            seg = theta[slot.start:slot.stop]
            total += float(np.dot(seg, seg))
    return total


def total_loss(spec: NetworkSpec, theta: np.ndarray, ce: float,
               lam: float) -> float:
    """Mean cross-entropy ce plus lam * sum(w^2) over weights only."""
    if lam == 0.0:
        return ce
    return ce + lam * _l2_penalty(spec, theta)


def loss(spec: NetworkSpec, theta: np.ndarray, x: np.ndarray, y: np.ndarray,
         lam: float = 0.0) -> float:
    """Mean cross-entropy plus lam * sum(w^2) over weights only; the
    reference that `backward`'s loss equals bitwise."""
    logits, _ = _run(spec, theta, x, keep=False)
    ce, _, _ = tensor.softmax_ce(logits, y)
    return total_loss(spec, theta, ce, lam)


def backward(spec: NetworkSpec, theta: np.ndarray, x: np.ndarray,
             y: np.ndarray, lam: float = 0.0):
    """(loss, dloss/dtheta) via reverse accumulation.

    The returned loss is bitwise identical to loss() on the same inputs.
    """
    logits, caches = _run(spec, theta, x, keep=True)
    ce, _, g = tensor.softmax_ce(logits, y)
    total = total_loss(spec, theta, ce, lam)

    params = _views(spec, theta)
    grad = np.zeros_like(theta)
    gviews = _views(spec, grad)
    # nothing below the first parameterized layer needs a gradient, so
    # that layer skips its input gradient and the loop stops there
    first = min((slot.layer_index for slot in layout(spec)),
                default=len(spec.layers))
    for i in range(len(spec.layers) - 1, first - 1, -1):
        g = spec.layers[i].backward(params.get(i), gviews.get(i), caches[i],
                                    g, i > first)
    if lam != 0.0:
        for slot in layout(spec):
            if slot.name == "w":
                seg = slice(slot.start, slot.stop)
                grad[seg] += (2.0 * lam) * theta[seg]
    return total, grad


def _mlp():
    return NetworkSpec((1, 28, 28), (
        Flatten(),
        Dense(784, 128),
        Activation("relu"),
        Dense(128, 10),
    ))


def _lenet1():
    return NetworkSpec((1, 28, 28), (
        Conv(1, 4, 5),
        Activation("relu"),
        Pool("max", 2, 2),
        Conv(4, 12, 5),
        Activation("relu"),
        Pool("max", 2, 2),
        Flatten(),
        Dense(192, 10),
    ))


def _lenet5():
    return NetworkSpec((3, 32, 32), (
        Conv(3, 6, 5),
        Activation("relu"),
        Pool("max", 2, 2),
        Conv(6, 16, 5),
        Activation("relu"),
        Pool("max", 2, 2),
        Flatten(),
        Dense(400, 120),
        Activation("relu"),
        Dense(120, 84),
        Activation("relu"),
        Dense(84, 10),
    ))


# Pinned architectures; parameter counts are load-bearing (3246 and
# 62006 for the two convolutional nets, 101770 for the MLP) and are
# locked by tests.
MODEL_ZOO = {
    "mlp": _mlp,
    "lenet1": _lenet1,
    "lenet5": _lenet5,
}


def zoo_spec(name: str) -> NetworkSpec:
    if name not in MODEL_ZOO:
        raise ConfigError("/model/name",
                          f"unknown model {name!r}; available: "
                          f"{', '.join(sorted(MODEL_ZOO))}")
    return MODEL_ZOO[name]()
