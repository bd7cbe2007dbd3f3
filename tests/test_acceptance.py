"""Acceptance gate: one test per shipped criterion.

Each test prints a single CRITERION line with its verdict and the
measured numbers. Criteria 2, 4, and 7 need the real MNIST corpus;
this sandbox cannot download it (package-mirror network only), so they
skip with instructions, and a reduced synthetic-evidence twin of each
runs unconditionally right below it. The twins demonstrate the same
property; they do not claim the stated criterion.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from nevo.cli import cli_main
from nevo.data import cache_dir, load_idx_dir, make_synthetic_pair
from nevo.evaluation import count_costs, evaluate, mce, published_tables
from nevo.evolution import (_NS_SOUP, DeConfig, GridSection, Population,
                            ancestors, crossover, ensure_fitness,
                            evolve_generation, grid_search, mutate, run_de,
                            sample_context, soup)
from nevo.network import (Activation, Dense, Flatten, NetworkSpec, backward,
                          param_count, zoo_spec)
from nevo.persistence import Checkpoint, save_checkpoint, spec_doc
from nevo.rng import RngStream
from nevo.tensor import softmax_ce
from nevo.training import TrainConfig, train

from fuzzutil import fuzz_everything
from synthdata import (fd_grad, max_rel_err, pooled_conv, random_batch,
                       random_theta, small_conv, small_mlp)
from test_evaluation import PRINT_LIMITED, baseline_errors, rounding_interval
from test_network import relu_preact_margin


def verdict(n: int, label: str, detail: str):
    print(f"CRITERION {n:02d} {label}: PASS - {detail}")


_IDX_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
              "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def find_mnist():
    roots = []
    env = os.environ.get("NEVO_DATA_DIR")
    if env:
        roots += [Path(env) / "mnist", Path(env)]
    roots.append(cache_dir() / "mnist")
    for root in roots:
        if all((root / f).is_file() for f in _IDX_FILES):
            return root
    return None


MNIST_SKIP = ("requires the real MNIST corpus; this sandbox has no dataset "
              "network access and nothing is cached. Run "
              "`python3 -m nevo fetch --dataset mnist` on a networked "
              "machine (or set NEVO_DATA_DIR) and re-run. The synthetic "
              "evidence twin below runs unconditionally.")


# --- criterion 1: gradient correctness ---------------------------------------


def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    cases = ((small_mlp(), 20, 30), (small_conv(), 17, 29))
    assert param_count(cases[0][0]) == 214  # ~200-parameter dense net
    assert param_count(cases[1][0]) == 152  # one conv layer + readout
    for spec, theta_seed, batch_seed in cases:
        theta = random_theta(spec, theta_seed, np.float64)
        x, y = random_batch(spec, 12, batch_seed, np.float64)
        assert relu_preact_margin(spec, theta, x) > 1e-3
        for lam in (0.0, 1e-2):
            _, grad = backward(spec, theta, x, y, lam)
            numeric = fd_grad(spec, theta, x, y, lam)
            worst = max(worst, max_rel_err(grad, numeric))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4
    assert elapsed < 60.0
    verdict(1, "gradient-correctness",
            f"max rel err {worst:.2e} < 1e-4 over every coordinate of a "
            f"214-param MLP and a conv net, float64, {elapsed:.1f}s")


# --- criterion 2: DE monotonicity --------------------------------------------


def monotone_de_run(spec, train_ds, m, subset, generations, seed):
    stream = RngStream(seed)
    pop = soup(spec, m, stream.child(1, _NS_SOUP))
    ctx = sample_context(spec, train_ds, subset, stream.child(2))
    ensure_fitness(pop, ctx)
    cfg = DeConfig(F=0.5, Cr=0.5, max_generations=generations,
                   min_improve=0.0, window=generations + 1, seed=seed)
    prev = pop.fitness.copy()
    best = [float(pop.fitness.min())]
    de_stream = stream.child(3)
    for _ in range(generations):
        pop = evolve_generation(pop, cfg, ctx, stream=de_stream)
        assert np.all(pop.fitness <= prev)  # per-individual, exact
        prev = pop.fitness.copy()
        best.append(float(pop.fitness.min()))
    assert all(b <= a for a, b in zip(best, best[1:]))  # population best
    return best


@pytest.mark.skipif(find_mnist() is None, reason=MNIST_SKIP)
def test_criterion_02_de_monotonicity_mnist():
    t0 = time.perf_counter()
    train_ds, _ = load_idx_dir(find_mnist(), "mnist")
    best = monotone_de_run(zoo_spec("lenet1"), train_ds, m=6, subset=10000,
                           generations=100, seed=2026)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    verdict(2, "de-monotonicity-mnist",
            f"per-individual and best fitness non-increasing over 100 "
            f"generations on a 10k MNIST subset; best {best[0]:.4f} -> "
            f"{best[-1]:.4f}, {elapsed:.0f}s")


def test_criterion_02_evidence_synthetic():
    train_ds, _ = make_synthetic_pair(800, 10, classes=4, shape=(1, 8, 8),
                                      noise=0.2, stream=RngStream(12))
    best = monotone_de_run(pooled_conv(), train_ds, m=6, subset=400,
                           generations=100, seed=7)
    assert best[-1] < best[0]
    verdict(2, "de-monotonicity-evidence",
            f"same exact monotonicity on a synthetic stand-in, 100 "
            f"generations, best {best[0]:.4f} -> {best[-1]:.4f}")


# --- criterion 3: crossover bounds -------------------------------------------


class _SquaredDistance:
    def __init__(self, target):
        self.target = np.asarray(target, dtype=np.float64)

    def score(self, vectors, pool=None):
        return np.array([float(np.sum((np.asarray(v, dtype=np.float64)
                                       - self.target) ** 2))
                         for v in vectors])


def test_criterion_03_crossover_bounds():
    rng = np.random.default_rng(5)
    d = 5000
    parent = rng.normal(size=d).astype(np.float32)
    mutant = rng.normal(size=d).astype(np.float32)
    trial_hi = crossover(parent, mutant, 1.0, False, rng)
    assert trial_hi.tobytes() == mutant.tobytes()
    trial_lo = crossover(parent, mutant, 0.0, False, rng)
    assert trial_lo.tobytes() == parent.tobytes()

    members = [rng.normal(size=40).astype(np.float32) for _ in range(5)]
    pop = Population(members, np.full(5, np.nan), 0)
    ctx = _SquaredDistance(np.zeros(40))
    ensure_fitness(pop, ctx)
    before_fit = pop.fitness.copy()
    out = evolve_generation(pop, DeConfig(Cr=0.0, force_jrand=False, seed=1),
                            ctx, stream=RngStream(1))
    assert all(a is b for a, b in zip(out.members, members))
    assert np.array_equal(out.fitness, before_fit)
    assert out.generation == 1
    verdict(3, "crossover-bounds",
            "Cr=1 trial==mutant and Cr=0 trial==parent bitwise; a Cr=0 "
            "generation left every member object untouched")


# --- criterion 4: desk-scale pipeline gain ------------------------------------


@pytest.mark.skipif(find_mnist() is None, reason=MNIST_SKIP)
def test_criterion_04_pipeline_gain_mnist():
    t0 = time.perf_counter()
    train_ds, test_ds = load_idx_dir(find_mnist(), "mnist")
    spec = zoo_spec("mlp")
    rings, ancestor_acc = {}, {}
    for lr in (0.01, 0.02):
        cfg = TrainConfig(lr=lr, max_epochs=10, ring_size=10, seed=2026)
        params, ring, _ = train(spec, train_ds, cfg)
        rings[lr] = ring
        ancestor_acc[lr] = evaluate(spec, params, test_ds).accuracy
    best_ancestor = max(ancestor_acc.values())
    assert best_ancestor >= 0.97

    de_cfg = DeConfig(F=0.5, Cr=0.5, max_generations=200,
                      fitness_subset=10000, min_improve=0.0, window=201,
                      seed=2026)
    bp_cfg = TrainConfig(max_epochs=10, ring_size=10, seed=2026)
    rows = grid_search(spec, train_ds, test_ds, bp_cfg, de_cfg,
                       grid=GridSection(), master_seed=2026, rings=rings,
                       threads=4)
    improved = [r for r in rows if r.best_fitness < r.seed_fitness]
    assert improved, "no grid cell improved on its best ancestor"
    de_acc = max(r.test_accuracy for r in rows)
    delta_pp = (de_acc - best_ancestor) * 100
    assert -0.2 - 1e-9 <= delta_pp <= 0.5 + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    verdict(4, "pipeline-gain-mnist",
            f"ancestor {best_ancestor:.4f} (>=0.97), {len(improved)}/"
            f"{len(rows)} cells improved fitness, DE-best delta "
            f"{delta_pp:+.2f}pp in [-0.2, +0.5], {elapsed:.0f}s")


def test_criterion_04_evidence_synthetic():
    train_ds, test_ds = make_synthetic_pair(240, 240, classes=4,
                                            shape=(1, 8, 8), noise=0.35,
                                            stream=RngStream(4))
    spec = NetworkSpec((1, 8, 8), (Flatten(), Dense(64, 16),
                                   Activation("relu"), Dense(16, 4)))
    bp_cfg = TrainConfig(lr=0.05, batch_size=16, max_epochs=6, ring_size=4,
                         patience=10, seed=1)
    params, ring, _ = train(spec, train_ds, bp_cfg)
    ancestor_acc = evaluate(spec, params, test_ds).accuracy
    de_cfg = DeConfig(F=0.5, Cr=0.5, max_generations=40, fitness_subset=240,
                      min_improve=0.0, window=41, seed=3)
    rows = grid_search(spec, train_ds, test_ds, bp_cfg, de_cfg,
                       grid=GridSection(lr=(0.05,), F=(0.5, 1.0),
                                        Cr=(0.5, 1.0)),
                       master_seed=9, rings={0.05: ring})
    improved = [r for r in rows if r.best_fitness < r.seed_fitness]
    assert improved, "no cell improved fitness over the best ancestor"
    de_acc = max(r.test_accuracy for r in rows)
    # wider honest band for a 240-sample test split (1 sample = 0.42pp)
    assert abs(de_acc - ancestor_acc) <= 0.05
    verdict(4, "pipeline-gain-evidence",
            f"synthetic twin: {len(improved)}/4 cells strictly improved "
            f"fitness; accuracy {ancestor_acc:.3f} -> {de_acc:.3f}")


# --- criterion 5: mCE regression ----------------------------------------------


def test_criterion_05_mce_regression():
    t0 = time.perf_counter()
    tables = published_tables()
    cells = loose = 0
    worst = 0.0
    for name, table in tables.items():
        if not isinstance(table, dict):
            continue
        base = baseline_errors(tables, table)
        for model, published in table["mce"].items():
            errors = {c: table["error"][model][c]
                      for c in table["corruptions"]}
            per, average = mce(errors, base)
            for c, want in published.items():
                cells += 1
                diff = abs(per[c] - want)
                if diff <= 1.0:
                    worst = max(worst, diff)
                    continue
                # source table disagrees with its own printed inputs
                # here; the published integer must still fall in the
                # exact interval reachable under print rounding
                lo, hi = rounding_interval(errors[c], base[c])
                assert lo <= want <= hi, (name, model, c)
                assert (name, model, c) in PRINT_LIMITED
                loose += 1
            assert abs(average - table["average_mce"][model]) <= 1.0
    elapsed = time.perf_counter() - t0
    assert cells == 180 and loose == len(PRINT_LIMITED) == 4
    assert elapsed < 1.0
    verdict(5, "mce-regression",
            f"{cells - loose}/180 published cells within 1pp (worst "
            f"{worst:.2f}pp); 4 cells are self-inconsistent at print "
            f"precision and verified against exact rounding intervals; "
            f"all 12 averages within 1pp; {elapsed * 1000:.0f}ms")


# --- criterion 6: cost counters -----------------------------------------------


def test_criterion_06_cost_counters():
    spec = zoo_spec("mlp")
    sizes = [784, 128, 10]
    closed = sum(a * b for a, b in zip(sizes, sizes[1:]))
    rep = count_costs(spec, n_g=40)
    assert isinstance(rep.forward_madds, int)
    assert rep.forward_madds == closed == 101632
    assert rep.bp_madds == 40 * closed  # exact integer equality

    d = param_count(spec)
    assert rep.de_mutation_touches == d == 101770
    # replay the DE draw count_costs reports: mutate, then crossover
    gen = RngStream(0).generator()
    pop = Population([np.zeros(d, np.float32) for _ in range(4)],
                     np.full(4, np.nan), 0)
    mutant = mutate(pop, 0, 0.5, gen)
    trial = crossover(np.zeros(d, np.float32), np.ones(d, np.float32),
                      0.5, False, gen)
    assert rep.de_crossover_touches == int(trial.sum()) <= d
    assert mutant.shape == (d,)
    verdict(6, "cost-counters",
            f"madds 40x{closed} exact; DE mutation touches "
            f"{d} == d, crossover touches {rep.de_crossover_touches} <= d")


# --- criterion 7: primordial soup control -------------------------------------


def soup_vs_ancestors(spec, train_ds, test_ds, bp_cfg, de_cfg, m, seed):
    params, ring, _ = train(spec, train_ds, bp_cfg)
    stream = RngStream(seed)

    def factory(r):
        return sample_context(spec, train_ds, de_cfg.fitness_subset,
                              stream.child(3, r))

    accs = {}
    seeding = stream.child(1)
    for mode, pop in (("ancestors", ancestors(ring, m, 0.0, seeding)),
                      ("soup", soup(spec, m, seeding.child(_NS_SOUP)))):
        result = run_de(pop, de_cfg, factory, stream=stream.child(2))
        accs[mode] = evaluate(spec, result.best, test_ds).accuracy
    return accs


@pytest.mark.skipif(find_mnist() is None, reason=MNIST_SKIP)
def test_criterion_07_soup_control_mnist():
    train_ds, test_ds = load_idx_dir(find_mnist(), "mnist")
    accs = soup_vs_ancestors(
        zoo_spec("mlp"), train_ds, test_ds,
        TrainConfig(lr=0.01, max_epochs=10, ring_size=10, seed=2026),
        DeConfig(F=0.5, Cr=0.5, max_generations=200, fitness_subset=10000,
                 min_improve=0.0, window=201, seed=2026),
        m=10, seed=2026)
    gap = (accs["ancestors"] - accs["soup"]) * 100
    assert gap >= 20.0
    verdict(7, "soup-control-mnist",
            f"identical DE budget: ancestors {accs['ancestors']:.4f} vs "
            f"soup {accs['soup']:.4f}, gap {gap:.1f}pp >= 20pp")


def test_criterion_07_evidence_synthetic():
    train_ds, test_ds = make_synthetic_pair(300, 150, classes=6,
                                            shape=(1, 8, 8), noise=0.15,
                                            stream=RngStream(2))
    spec = NetworkSpec((1, 8, 8), (Flatten(), Dense(64, 16),
                                   Activation("relu"), Dense(16, 6)))
    accs = soup_vs_ancestors(
        spec, train_ds, test_ds,
        TrainConfig(lr=0.05, batch_size=16, max_epochs=6, ring_size=4,
                    patience=10, seed=1),
        DeConfig(F=0.5, Cr=0.5, max_generations=60, fitness_subset=300,
                 min_improve=0.0, window=61, seed=5),
        m=4, seed=11)
    gap = (accs["ancestors"] - accs["soup"]) * 100
    assert gap >= 20.0
    verdict(7, "soup-control-evidence",
            f"synthetic twin, same DE budget: ancestors "
            f"{accs['ancestors']:.3f} vs soup {accs['soup']:.3f}, gap "
            f"{gap:.1f}pp >= 20pp")


# --- criterion 8: determinism across --threads ---------------------------------


def test_criterion_08_thread_determinism(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "model": {"spec": spec_doc(NetworkSpec(
            (1, 8, 8), (Flatten(), Dense(64, 16), Activation("relu"),
                        Dense(16, 4))))},
        "data": {"name": "synthetic",
                 "synthetic": {"n_train": 96, "n_test": 48, "classes": 4,
                               "shape": [1, 8, 8], "noise": 0.1, "seed": 0}},
        "bp": {"lr": 0.05, "batch_size": 16, "max_epochs": 4, "ring_size": 4,
               "patience": 10, "seed": 0},
        "de": {"F": 0.5, "Cr": 0.5, "max_generations": 5,
               "fitness_subset": 500, "window": 50, "seed": 0},
    }))
    digests = []
    for name, threads in (("a", "1"), ("b", "3")):
        run = tmp_path / name
        assert cli_main(["train", "--config", str(cfg),
                         "--out", str(run)]) == 0
        assert cli_main(["evolve", "--run", str(run),
                         "--threads", threads]) == 0
        digests.append(tuple((run / rel).read_bytes() for rel in
                             ("metrics.jsonl", "final.ckpt", "de_best.ckpt")))
    assert digests[0] == digests[1]
    verdict(8, "thread-determinism",
            "train+evolve with --threads 1 vs 3: metrics.jsonl, "
            "final.ckpt, de_best.ckpt byte-identical")


# --- criterion 9: format robustness --------------------------------------------


def test_criterion_09_fuzz_corpus(tmp_path):
    n_run, n_typed, crashes = fuzz_everything(tmp_path, 10000, seed=1)
    assert crashes == [], crashes
    assert n_run >= 10000
    assert n_typed == n_run  # every case raised a typed error
    verdict(9, "format-robustness",
            f"{n_run} truncation/bit-flip cases over IDX/NPY/checkpoint "
            f"parsers: 0 crashes, {n_typed} typed errors")


# --- criterion 10: softmax/CE invariants ----------------------------------------


def test_criterion_10_softmax_invariants():
    rng = np.random.default_rng(0)
    worst_sum = 0.0
    worst_ln = 0.0
    for c in (2, 10, 100):
        for dtype in (np.float64, np.float32):
            logits = (rng.normal(size=(64, c)) * 20).astype(dtype)
            labels = rng.integers(0, c, size=64)
            _, probs, _ = softmax_ce(logits, labels)
            worst_sum = max(worst_sum, float(
                np.max(np.abs(probs.sum(axis=1) - 1.0))))
            loss, _, _ = softmax_ce(np.zeros((16, c), dtype=dtype),
                                    rng.integers(0, c, size=16))
            worst_ln = max(worst_ln, abs(loss - math.log(c)))
    assert worst_sum < 1e-6
    assert worst_ln < 1e-6
    verdict(10, "softmax-invariants",
            f"row sums off by at most {worst_sum:.1e}; uniform-logit loss "
            f"within {worst_ln:.1e} of ln C for C in {{2, 10, 100}}")


# checkpoint helper exercised here so the acceptance file stands alone
def test_acceptance_artifacts_round_trip(tmp_path):
    spec = small_mlp()
    theta = random_theta(spec, 0, np.float32)
    save_checkpoint(Checkpoint(spec, theta, {"stage": "bp"}),
                    tmp_path / "a.ckpt")
    assert (tmp_path / "a.ckpt").stat().st_size > 0
