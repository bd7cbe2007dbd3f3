"""Measurement: clean accuracy, corruption-error aggregation (mCE),
operation counts for the two training regimes, and run report
rendering.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import (ConfigError, LabelError, NevoError, NumericError,
                     ShapeMismatchError)
from .network import (Activation, NetworkSpec, Pool, activation_sizes,
                      forward, param_count)
from .data import Dataset
from .rng import RngStream

# elements of the widest activation that one evaluate chunk may hold
_EVAL_CHUNK_ELEMS = 1 << 20


@functools.lru_cache(maxsize=64)
def _widest_and_classes(spec: NetworkSpec) -> tuple:
    """(elements of the widest activation, class count) of a spec.

    Memoized on the frozen spec: DE calls evaluate once per fitness, and
    spec.shapes() re-runs every layer's shape rule."""
    shapes = spec.shapes()
    return max(math.prod(shape) for shape in shapes), shapes[-1][0]


@dataclass(frozen=True)
class EvalReport:
    dataset: str
    n_samples: int
    correct: int
    accuracy: float
    error: float
    mean_ce: float


def evaluate(spec: NetworkSpec, params: np.ndarray,
             data: Dataset) -> EvalReport:
    """Argmax classification accuracy plus mean cross-entropy: the one
    no-gradient pass over a split (held-out scores, `train`'s epoch-end
    test metrics, and DE fitness).

    The split runs in chunks of _EVAL_CHUNK_ELEMS // (widest activation
    in spec.shapes()) samples, so memory does not grow with N.  The
    forward keeps no activation, so each activation layer runs in place
    on a buffer the pass made, never on `data.images` (see
    network._run), and holds no second copy of its input.  Ties in the
    logits resolve to the lowest class index.  Per-sample terms are
    summed in float64 in one flat reduction, so the sum does not depend
    on how chunks are cut.  The float32 logits themselves can: OpenBLAS
    picks small-matrix or GEMV kernels by shape, and those round
    differently, so `mean_ce` bits and near-tie argmaxes may move with
    the chunk size (a last partial chunk included).  A split of no
    samples raises ShapeMismatchError: it has no accuracy.
    """
    correct = 0
    ce_parts = []
    n = len(data)
    if n == 0:
        raise ShapeMismatchError(f"evaluate: {data.name} has no samples")
    widest, n_classes = _widest_and_classes(spec)
    bad = np.nonzero((data.labels < 0) | (data.labels >= n_classes))[0]
    if bad.size:
        i = int(bad[0])
        raise LabelError(
            f"label {int(data.labels[i])} at index {i} outside "
            f"[0, {n_classes})")
    step = max(1, _EVAL_CHUNK_ELEMS // widest)
    for lo in range(0, n, step):
        # slices are views, so no chunk copies its images
        xb, yb = data.images[lo:lo + step], data.labels[lo:lo + step]
        logits = forward(spec, params, xb)
        preds = logits.argmax(axis=1)
        correct += int(np.sum(preds == yb))
        z = logits.astype(np.float64)
        z -= z.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        ce_parts.append(-logp[np.arange(len(yb)), yb])
    # one flat sum so the value cannot depend on how chunks were cut
    ce_sum = float(np.sum(np.concatenate(ce_parts)))
    accuracy = correct / n
    return EvalReport(data.name, n, correct, accuracy, 1.0 - accuracy,
                      ce_sum / n)


def mce(errors: dict, baseline: dict):
    """Per-corruption relative error and its arithmetic mean.

    mCE_c = error_c / baseline_c, reported in percent; the unit of the
    inputs cancels as long as both maps use the same one.
    Returns (per-corruption map, average).
    """
    if set(errors) != set(baseline):
        missing = sorted(set(baseline) - set(errors))
        extra = sorted(set(errors) - set(baseline))
        raise ShapeMismatchError(
            f"corruption keys disagree: missing {missing}, extra {extra}")
    if not errors:
        raise ShapeMismatchError("mce needs at least one corruption row")
    out = {}
    for key in errors:
        if baseline[key] <= 0:
            raise NumericError(
                f"baseline error for {key!r} is {baseline[key]}; mCE undefined")
        out[key] = 100.0 * errors[key] / baseline[key]
    return out, sum(out.values()) / len(out)


@dataclass(frozen=True)
class CostReport:
    """Operation counts for one sample / one update, plus the
    budget-scaled totals bp_madds = n_g * forward_madds and
    de_update_ops = n_e * d."""

    d: int
    layer_sizes: list
    forward_madds: int
    bias_adds: int
    activations: int
    pool_ops: int
    de_mutation_touches: int
    de_crossover_touches: int
    de_selections: int
    n_g: int
    n_e: int

    @property
    def bp_madds(self) -> int:
        return self.n_g * self.forward_madds

    @property
    def de_update_ops(self) -> int:
        return self.n_e * self.d

    @property
    def madds_per_neuron(self) -> float:
        return self.forward_madds / sum(self.layer_sizes)

    def as_dict(self) -> dict:
        return {**asdict(self), "bp_madds": self.bp_madds,
                "de_update_ops": self.de_update_ops,
                "madds_per_neuron": self.madds_per_neuron}


def count_costs(spec: NetworkSpec, n_g: int = 1, n_e: int = 1,
                F: float = 0.5, Cr: float = 0.5) -> CostReport:
    """Operation counts of a single-sample forward pass and of one
    member's evolutionary update; the one place that knows the cost
    model.

    Forward counts come from layer shapes.  Dense and Conv:
    out_elems*fan_in multiply-accumulates (in*out for Dense, out_elems*
    C_in*k^2 for Conv) and out_elems bias adds.  Pool: out_elems*size^2
    window visits.  Activation: out_elems queries.  The DE side replays
    one real mutation and crossover draw at the given F and Cr, so the
    crossover count is the number of slots that draw takes from the
    mutant."""
    from .evolution import Population, crossover, mutate

    madds = bias_adds = activations = pool_ops = 0
    for layer, shape in zip(spec.layers, spec.shapes()[1:]):
        out_elems = math.prod(shape)
        if layer.param_shapes:
            madds += out_elems * layer.fan_in
            bias_adds += out_elems
        elif isinstance(layer, Pool):
            pool_ops += out_elems * layer.size ** 2
        elif isinstance(layer, Activation):
            activations += out_elems

    d = param_count(spec)
    gen = RngStream(0).generator()
    pop = Population([np.zeros(d, dtype=np.float32) for _ in range(4)],
                     np.full(4, np.nan))
    mutate(pop, 0, F, gen)  # advances gen exactly as a real update does
    trial = crossover(np.zeros(d, dtype=np.float32),
                      np.ones(d, dtype=np.float32), Cr, False, gen)

    return CostReport(d, activation_sizes(spec), madds, bias_adds,
                      activations, pool_ops, d, int(trial.sum()), 1,
                      n_g, n_e)


def published_tables() -> dict:
    """Fixture of published corruption-benchmark tables (percentages)."""
    path = Path(__file__).with_name("robustness_tables.json")
    return json.loads(path.read_text())


def _load_run_rows(run_dir: Path, problems: list) -> list:
    from .persistence import load_summary

    try:
        summary = load_summary(run_dir)
    except NevoError as exc:
        problems.append(str(exc))
        return []
    rows = []
    for stage in summary["stages"]:
        rows.append({
            "run": run_dir.name,
            "model": summary.get("model", ""),
            "dataset": summary.get("dataset", ""),
            "stage": stage.get("stage", ""),
            "mode": stage.get("mode"),
            "params": summary.get("params", ""),
            "accuracy": stage.get("test_accuracy"),
        })
    return rows


_REPORT_COLUMNS = ("run", "model", "dataset", "stage", "mode", "params",
                   "accuracy")


def report(run_dirs, fmt: str = "csv"):
    """Merge run summaries into one table.

    Returns (document text, problem list).  Unreadable runs are
    reported in the problem list and skipped, never fatal.  CSV and
    JSON renderings carry identical row values.
    """
    problems: list = []
    rows: list = []
    for run_dir in run_dirs:
        rows.extend(_load_run_rows(Path(run_dir), problems))
    if fmt == "json":
        return json.dumps({"columns": list(_REPORT_COLUMNS), "rows": rows},
                          indent=2, sort_keys=True) + "\n", problems
    if fmt != "csv":
        raise ConfigError("/report/format", f"unknown format {fmt!r}")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_REPORT_COLUMNS)
    # csv writes None as an empty field and a float as its repr
    writer.writerows([row[c] for c in _REPORT_COLUMNS] for row in rows)
    return buf.getvalue(), problems
