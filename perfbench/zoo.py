"""Zoo layer profile and closed-form MAC audit, for the traced run.

The profile times each layer of ``mlp``, ``lenet1`` and ``lenet5`` on
its own at batch 128, calling the same public kernels, with the same
arguments, that ``nevo.network`` calls for that layer.  Flatten layers
are only a reshape and are not reported.

The audit derives per-sample multiply-accumulates from layer shapes and
checks that their sum equals ``count_costs(spec).forward_madds``; the
same shape formulas give the GMAC counts of the traced run.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from nevo import tensor
from nevo.evaluation import count_costs
from nevo.network import (Conv, Dense, Flatten, Pool, init_params, layout,
                          zoo_spec)
from nevo.rng import RngStream

MODELS = ("mlp", "lenet1", "lenet5")
BATCH = 128
REPS = 7


def layer_macs(spec) -> list:
    """Per-sample multiply-accumulates of every layer's forward pass."""
    shapes = spec.shapes()
    macs = []
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, Dense):
            macs.append(layer.in_features * layer.out_features)
        elif isinstance(layer, Conv):
            k, oh, ow = shapes[i + 1]
            macs.append(k * oh * ow * layer.in_channels * layer.kernel ** 2)
        else:
            macs.append(0)
    return macs


def audit() -> dict:
    """{model: (closed-form MACs, count_costs MACs)} per sample."""
    return {name: (sum(layer_macs(zoo_spec(name))),
                   count_costs(zoo_spec(name)).forward_madds)
            for name in MODELS}


def conv_layer_index(name) -> dict:
    """Kernel shape -> layer index for the conv layers of a zoo model."""
    spec = zoo_spec(name)
    return {(l.out_channels, l.in_channels, l.kernel, l.kernel): i
            for i, l in enumerate(spec.layers) if isinstance(l, Conv)}


def _median_ms(fn) -> float:
    fn()  # warm-up, not timed
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000.0


def _layer_ops(layer, x, params):
    """(forward thunk, backward of the output gradient) for one layer,
    mirroring the dispatch in nevo.network's forward and backward."""
    if isinstance(layer, Dense):
        w, b = params["w"], params["b"]

        def bwd(g):
            x.T @ g
            g.sum(axis=0)
            return g @ w.T
        return (lambda: tensor.matmul(x, w) + b), bwd
    if isinstance(layer, Conv):
        w, b = params["w"], params["b"]
        return (lambda: tensor.conv2d(x, w, b, layer.stride, layer.pad),
                lambda g: tensor.conv2d_backward(x, w, layer.stride,
                                                 layer.pad, g))
    if isinstance(layer, Pool):
        _, idx = tensor.pool2d(x, layer.kind, layer.size, layer.stride)
        return (lambda: tensor.pool2d(x, layer.kind, layer.size, layer.stride),
                lambda g: tensor.pool2d_backward(g, x.shape, layer.kind,
                                                 layer.size, layer.stride, idx))
    return (lambda: tensor.activate(x, layer.kind),
            lambda g: g * tensor.activate(x, layer.kind, "derivative"))


def profile(seed: int) -> dict:
    """Per-layer metrics {name: (value, unit)} for the three zoo models."""
    out = {}
    gen = RngStream(seed).generator()
    for name in MODELS:
        spec = zoo_spec(name)
        theta = init_params(spec, RngStream(seed))
        params = {}
        for slot in layout(spec):
            params.setdefault(slot.layer_index, {})[slot.name] = \
                theta[slot.start:slot.stop].reshape(slot.shape)
        macs = layer_macs(spec)
        x = gen.random((BATCH,) + spec.input_shape, dtype=np.float32)
        for i, layer in enumerate(spec.layers):
            if isinstance(layer, Flatten):
                x = x.reshape(x.shape[0], -1)
                continue
            fwd, bwd = _layer_ops(layer, x, params.get(i))
            y = fwd()
            y = y[0] if isinstance(y, tuple) else y
            g = gen.standard_normal(y.shape, dtype=np.float32)
            key = f"profile.{name}.l{i}"
            fwd_ms, bwd_ms = _median_ms(fwd), _median_ms(lambda: bwd(g))
            out[f"{key}.fwd_ms"] = (fwd_ms, "ms")
            out[f"{key}.bwd_ms"] = (bwd_ms, "ms")
            if isinstance(layer, Conv):
                gmac = BATCH * macs[i] / 1e9
                out[f"{key}.fwd_gmac_per_s"] = (gmac / fwd_ms * 1000.0,
                                                "GMAC/s")
                out[f"{key}.bwd_gmac_per_s"] = (2 * gmac / bwd_ms * 1000.0,
                                                "GMAC/s")
            x = y
    return out
