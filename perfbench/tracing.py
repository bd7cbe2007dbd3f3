"""Span tracer for the traced run, and the per-layer metrics derived
from its spans.

The tracer wraps every public function of the nevo layer modules and
patches each wrapper into every nevo namespace that holds the original,
so a call is seen wherever its caller looks the name up
(``nevo.training.backward``, ``nevo.evolution.mutate``,
``nevo.tensor.conv2d``, ...).  Parent stacks are per thread, so spans
opened on the DE thread pool nest correctly.  Spans stay in memory as
``[id, name, start, end, parent, thread, attrs]`` lists and are written
out once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYER_MODULES = ("tensor", "network", "training", "evolution", "data",
                 "evaluation", "persistence", "cli")

# Top-level artifact writes and reads, reported as persistence.save and
# persistence.load; the value names the argument that holds the path.
_SAVES = {"save_checkpoint": 1, "save_population": 1, "save_ring": 1,
          "write_manifest": 0}
_LOADS = {"load_checkpoint": 0, "load_population": 0, "load_ring": 0,
          "load_manifest": 0}
_MANIFEST_OPS = {"write_manifest", "load_manifest"}


def path_bytes(path) -> int:
    """Size of a file, or of every file under a directory."""
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return 0


def conv_macs(x_shape, k_shape, out_hw) -> int:
    """Multiply-accumulates of one conv2d call, from shapes alone."""
    n, c = x_shape[0], x_shape[1]
    k, _, kh, kw = k_shape
    return n * k * out_hw[0] * out_hw[1] * c * kh * kw


class Tracer:
    """Records spans around wrapped calls.

    conv_layers maps a kernel shape to the network layer index that owns
    it, so conv spans can be split by layer (``tensor.conv2d.l0``).
    """

    def __init__(self, conv_layers: dict):
        self.conv_layers = conv_layers
        self.spans: list = []
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list = []

    # -- spans ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        span = [next(self._ids), name, time.perf_counter(), None,
                stack[-1] if stack else None, threading.get_ident(), None]
        stack.append(span[0])
        return span

    def _close(self, span, attrs=None):
        if span[3] is None:
            span[3] = time.perf_counter()
        self._stack().pop()
        span[6] = attrs or None
        self.spans.append(span)

    @contextmanager
    def span(self, name):
        s = self._open(name)
        try:
            yield
        finally:
            self._close(s)

    # -- patching ---------------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer module in place."""
        namespaces = [m for n, m in sys.modules.items()
                      if n == "nevo" or n.startswith("nevo.")]
        for short in LAYER_MODULES:
            module = sys.modules[f"nevo.{short}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(short, attr, fn)
                for ns in namespaces:
                    for alias, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, alias, wrapper)
                            self._patched.append((ns, alias, fn))

    def uninstall(self):
        for ns, alias, fn in reversed(self._patched):
            setattr(ns, alias, fn)
        self._patched.clear()

    def _wrap(self, short, attr, fn):
        name = f"{short}.{attr}"
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        before = getattr(self, f"_before_{short}_{attr}", None)
        after = getattr(self, f"_after_{short}_{attr}", None)
        if short == "persistence" and attr in {**_SAVES, **_LOADS}:
            after = self._persistence_bytes(attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            if before is not None:
                args, kwargs = before(args, kwargs, attrs)
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
                s[3] = time.perf_counter()
                if after is not None:
                    after(args, kwargs, result, attrs)
            finally:
                self._close(s, attrs)
            return result
        return wrapper

    def _wrap_generator(self, name, fn):
        """One span per item drawn, so only the generator's own work is
        timed, not the consumer's loop body."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                s = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(s)
                yield item
        return wrapper

    # -- counts recorded at the boundaries -------------------------------

    def _after_tensor_conv2d(self, args, kwargs, out, attrs):
        x, kernels = args[0], args[1]
        attrs["macs"] = conv_macs(x.shape, kernels.shape, out.shape[2:])
        attrs["layer"] = self.conv_layers.get(tuple(kernels.shape))

    def _after_tensor_conv2d_backward(self, args, kwargs, out, attrs):
        x, kernels = args[0], args[1]
        grad_out = args[4] if len(args) > 4 else kwargs["grad_out"]
        # kernel-gradient plus input-gradient contractions
        attrs["macs"] = 2 * conv_macs(x.shape, kernels.shape,
                                      grad_out.shape[2:])
        attrs["layer"] = self.conv_layers.get(tuple(kernels.shape))

    def _after_tensor_matmul(self, args, kwargs, out, attrs):
        a, b = args[0], args[1]
        attrs["macs"] = a.shape[0] * a.shape[1] * b.shape[1]

    def _after_network_forward(self, args, kwargs, out, attrs):
        attrs["samples"] = len(args[2])

    _after_network_loss = _after_network_forward
    _after_network_backward = _after_network_forward
    _after_evaluation_evaluate = _after_network_forward

    def _after_evolution_evolve_generation(self, args, kwargs, out, attrs):
        parent = args[0]
        attrs["trials"] = parent.m
        attrs["accepted"] = int((out.fitness < parent.fitness).sum())

    def _before_training_train(self, args, kwargs, attrs):
        ends = attrs["epoch_ends"] = []
        callback = kwargs.get("callback")

        def on_epoch(metrics):
            ends.append(time.perf_counter())
            if callback is not None:
                callback(metrics)
        return args, {**kwargs, "callback": on_epoch}

    def _after_data_save_npy(self, args, kwargs, out, attrs):
        attrs["bytes"] = path_bytes(args[0])

    _after_data_load_npy = _after_data_save_npy

    @staticmethod
    def _persistence_bytes(attr):
        index = {**_SAVES, **_LOADS}[attr]

        def after(args, kwargs, out, attrs):
            path = Path(args[index])
            if attr in _MANIFEST_OPS:
                path = path / "manifest.json"
            attrs["bytes"] = path_bytes(path)
        return after

    def dump(self, path):
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s[2]):
                fh.write(json.dumps({"id": s[0], "name": s[1], "start": s[2],
                                     "end": s[3], "parent": s[4],
                                     "thread": s[5], "attrs": s[6]}) + "\n")


# -- aggregation ----------------------------------------------------------

def _quantile(values, q):
    """Nearest-rank quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class _Agg:
    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.durations: list = []
        self.attrs = defaultdict(float)


def layer_metrics(tracer: Tracer, sequences: int, threads: int,
                  overhead_ratio: float) -> dict:
    """Per-layer metrics, as {name: (value, unit)}, each count and time
    given per command sequence."""
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    child_s = defaultdict(float)
    for s in spans:
        if s[4] is not None:
            child_s[s[4]] += s[3] - s[2]

    aggs = defaultdict(_Agg)
    conv_layer = defaultdict(float)
    pool_busy = pool_window = 0.0
    epochs: list = []
    epoch_eval = 0.0
    persist = {"save": [0.0, 0], "load": [0.0, 0]}
    for s in spans:
        sid, name, t0, t1, parent, thread, attrs = s
        dur = t1 - t0
        own = dur - child_s[sid]
        a = aggs[name]
        a.calls += 1
        a.self_s += own
        a.total_s += dur
        a.durations.append(dur)
        parent_name = by_id[parent][1] if parent in by_id else None
        for key, value in (attrs or {}).items():
            if key == "layer" and value is not None:
                conv_layer[f"{name}.l{value}"] += own
            elif key == "epoch_ends":
                marks = [t0] + value
                epochs += [end - start for start, end in zip(marks, marks[1:])]
            elif isinstance(value, (int, float)):
                a.attrs[key] += value
        if thread != tracer.main_thread and parent is None:
            pool_busy += dur
        if thread == tracer.main_thread and (
                name == "evolution.evolve_generation" or
                (name == "evolution.ensure_fitness" and
                 parent_name != "evolution.evolve_generation")):
            pool_window += dur
        if parent_name == "training.train" and name in ("network.loss",
                                                        "network.predict"):
            epoch_eval += dur
        short = name.partition(".")[2]
        if name.startswith("persistence.") and (
                parent_name is None or
                not parent_name.startswith("persistence.")):
            for kind, table in (("save", _SAVES), ("load", _LOADS)):
                if short in table:
                    persist[kind][0] += dur
                    persist[kind][1] += (attrs or {}).get("bytes", 0)

    per = 1.0 / sequences
    out = {}

    def ms(seconds):
        return seconds * 1000.0 * per

    for op in ("conv2d", "conv2d_backward", "pool2d", "pool2d_backward",
               "matmul", "activate", "softmax_ce"):
        a = aggs[f"tensor.{op}"]
        out[f"tensor.{op}.calls"] = (a.calls * per, "count")
        out[f"tensor.{op}.self_ms"] = (ms(a.self_s), "ms")
    for op in ("conv2d", "conv2d_backward", "matmul"):
        a = aggs[f"tensor.{op}"]
        gmacs = a.attrs["macs"] / 1e9
        out[f"tensor.{op}.gmacs"] = (gmacs * per, "GMAC")
        out[f"tensor.{op}.gmac_per_s"] = (
            gmacs / a.self_s if a.self_s else 0.0, "GMAC/s")
    for op in ("conv2d", "conv2d_backward"):
        for layer in (0, 3):
            key = f"tensor.{op}.l{layer}"
            out[f"{key}.self_ms"] = (ms(conv_layer[key]), "ms")

    for fn in ("forward", "loss", "backward"):
        a = aggs[f"network.{fn}"]
        out[f"network.{fn}.calls"] = (a.calls * per, "count")
        out[f"network.{fn}.samples"] = (a.attrs["samples"] * per, "count")
        out[f"network.{fn}.self_ms"] = (ms(a.self_s), "ms")
    bwd = [d * 1000.0 for d in aggs["network.backward"].durations]
    out["network.backward.ms.p50"] = (_quantile(bwd, 0.5), "ms")
    out["network.backward.ms.p90"] = (_quantile(bwd, 0.9), "ms")

    a = aggs["training.adam_step"]
    out["training.adam_step.calls"] = (a.calls * per, "count")
    out["training.adam_step.self_ms"] = (ms(a.self_s), "ms")
    out["training.epoch_ms.p50"] = (
        _quantile([e * 1000.0 for e in epochs], 0.5), "ms")
    out["training.epoch_eval_ms"] = (
        epoch_eval * 1000.0 / len(epochs) if epochs else 0.0, "ms")

    for fn in ("fitness", "mutate", "crossover"):
        a = aggs[f"evolution.{fn}"]
        out[f"evolution.{fn}.calls"] = (a.calls * per, "count")
        out[f"evolution.{fn}.self_ms"] = (ms(a.self_s), "ms")
    gen = aggs["evolution.evolve_generation"]
    gen_ms = [d * 1000.0 for d in gen.durations]
    out["evolution.generation_ms.p50"] = (_quantile(gen_ms, 0.5), "ms")
    out["evolution.generation_ms.p90"] = (_quantile(gen_ms, 0.9), "ms")
    out["evolution.generation_ms.n"] = (gen.calls * per, "count")
    trials = gen.attrs["trials"]
    out["evolution.accept_ratio"] = (
        gen.attrs["accepted"] / trials if trials else 0.0, "ratio")
    out["evolution.pool_busy_ratio"] = (
        pool_busy / (threads * pool_window) if pool_window else 0.0, "ratio")

    for fn in ("augment", "corrupt", "batches"):
        out[f"data.{fn}.self_ms"] = (ms(aggs[f"data.{fn}"].self_s), "ms")
    # the pair only delegates to make_synthetic, so its inclusive time
    # is the cost of rebuilding a synthetic split
    out["data.make_synthetic_pair.ms"] = (
        ms(aggs["data.make_synthetic_pair"].total_s), "ms")
    for fn in ("save_npy", "load_npy"):
        a = aggs[f"data.{fn}"]
        out[f"data.{fn}.ms"] = (ms(a.total_s), "ms")
        out[f"data.{fn}.bytes"] = (a.attrs["bytes"] * per, "B")

    a = aggs["evaluation.evaluate"]
    out["evaluation.evaluate.calls"] = (a.calls * per, "count")
    out["evaluation.evaluate.samples"] = (a.attrs["samples"] * per, "count")
    out["evaluation.evaluate.self_ms"] = (ms(a.self_s), "ms")

    for kind, (seconds, nbytes) in persist.items():
        out[f"persistence.{kind}.ms"] = (ms(seconds), "ms")
        out[f"persistence.{kind}.bytes"] = (nbytes * per, "B")

    for command in ("train", "evolve", "corrupt", "eval"):
        out[f"cli.{command}.ms"] = (ms(aggs[f"cli.{command}"].total_s), "ms")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
