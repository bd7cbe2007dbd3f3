"""Evolutionary stage: differential evolution (rand/1/bin) over flat
parameter vectors.

Generational scheme: every member of generation g is paired against one
trial vector built from generation-g members only, and the survivor is
chosen by strict fitness comparison (ties keep the parent).  The trials
are built on the thread pool, then scored by one `FitnessContext.score`
call on it, as are the stale members at priming and at each resample.
Per-individual RNG streams derive from (seed, generation, individual)
and each score lands at its member's index, so the bits do not depend
on the worker count.

`evolve` is the DE stage of `nevo evolve`: it seeds generation 0 with
`ancestors` or a `soup`, owns the worker pool, and calls run_de, which
primes generation 0 (scores it on subset round 0) and reports its best.

RNG namespaces under the config seed: child(2, g, i) drives member i of
generation g, child(3, r) draws fitness subset r, child(4, i) seeds soup
member i, and child(4) also seeds the ancestors' jitter top-up.  Under
its master seed `grid_search` pretrains lr li on child(0, li), augmenting
from child(0, li, 5), draws lr li's subsets from child(3, li), and seeds
and evolves grid cell (li, fi, ci) from child(1, li, fi, ci) and
child(2, li, fi, ci).
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .errors import (ConfigError, MissingArtifactError, PopulationError,
                     ShapeMismatchError)
from .data import DataSection, Dataset
from .evaluation import evaluate
from .network import NetworkSpec, init_params
from .rng import RngStream

_NS_GRID_PRETRAIN = 0
_NS_GRID_SEEDING = 1
_NS_DE = 2
_NS_SUBSET = 3
_NS_SOUP = 4

@dataclass(frozen=True)
class DeConfig:
    F: float = 0.5
    Cr: float = 0.5
    max_generations: int = 200
    delta2: float = 0.0
    min_improve: float = 1e-5
    window: int = 20
    fitness_subset: int = 10000
    resample_every: int = 0
    force_jrand: bool = False
    seed: int = 0

    def __post_init__(self):
        ConfigError.check(
            (math.isfinite(self.F), "/de/F", "must be finite"),
            (0.0 <= self.Cr <= 1.0, "/de/Cr", "must be in [0, 1]"),
            (self.max_generations >= 0, "/de/max_generations", "must be >= 0"),
            (self.delta2 >= 0, "/de/delta2", "must be >= 0"),
            (self.min_improve >= 0, "/de/min_improve", "must be >= 0"),
            (self.window >= 1, "/de/window", "must be >= 1"),
            (self.fitness_subset >= 1, "/de/fitness_subset", "must be >= 1"),
            (self.resample_every >= 0, "/de/resample_every", "must be >= 0"),
            (self.seed >= 0, "/de/seed", "must be >= 0"))


@dataclass(frozen=True)
class GridSection:
    """The {lr} x {F} x {Cr} sweep of `grid_search`: each axis a nonempty
    tuple of floats (a JSON integer becomes one)."""
    F: tuple[float, ...] = (0.01, 0.1, 1.0, 2.0)
    Cr: tuple[float, ...] = (0.0, 0.05, 0.5, 1.0)
    lr: tuple[float, ...] = (0.01, 0.02)

    def __post_init__(self):
        for axis in fields(self):
            values = tuple(float(v) for v in getattr(self, axis.name))
            ConfigError.check((values, f"/grid/{axis.name}",
                               "expected a nonempty list of numbers"))
            object.__setattr__(self, axis.name, values)


@dataclass
class Population:
    """Fixed-size set of candidate vectors with a fitness cache.

    fitness[i] is NaN while stale; members, at least 4 as a rand/1 mutant
    needs three besides its target, all share one length/dtype.
    """

    members: list
    fitness: np.ndarray
    generation: int = 0

    def __post_init__(self):
        self.members = list(self.members)
        if len(self.members) < 4:
            raise PopulationError(f"population needs at least 4 members, "
                                  f"got {len(self.members)}")
        d = self.members[0].shape
        for v in self.members:
            if v.ndim != 1 or v.shape != d:
                raise PopulationError(
                    f"members disagree on shape: {tuple(v.shape)} vs {tuple(d)}")
        self.fitness = np.asarray(self.fitness, dtype=np.float64)
        if self.fitness.shape != (len(self.members),):
            raise PopulationError(
                f"fitness cache length {self.fitness.shape} does not match "
                f"{len(self.members)} members")

    @property
    def m(self) -> int:
        return len(self.members)

    @property
    def best_index(self) -> int:
        if np.isnan(self.fitness).any():
            raise PopulationError("fitness cache is stale")
        return int(np.argmin(self.fitness))


@dataclass(frozen=True)
class FitnessContext:
    """Frozen evaluation data, shared by every comparison of a
    generation, so they are paired.  Fitness is the mean cross-entropy of
    `evaluation.evaluate` on `data`, with no penalty."""

    spec: NetworkSpec
    data: Dataset

    def score(self, vectors, pool=None) -> np.ndarray:
        """The fitness of each vector, in order: `fitness` mapped on
        pool, or serially when pool is None."""
        run = map if pool is None else pool.map
        return np.fromiter(run(lambda v: fitness(v, self), vectors),
                           np.float64, len(vectors))


def sample_context(spec: NetworkSpec, data, size: int,
                   stream: RngStream) -> FitnessContext:
    """Fixed evaluation subset drawn without replacement (all data if
    size >= N)."""
    n = len(data)
    if size >= n:
        return FitnessContext(spec, data)
    idx = np.sort(stream.generator().choice(n, size=size, replace=False))
    return FitnessContext(spec, Dataset(data.images[idx], data.labels[idx],
                                        data.name))


def subset_factory(spec: NetworkSpec, data, size: int,
                   stream: RngStream) -> Callable:
    """round r -> the context of fitness subset r, drawn from
    stream.child(r)."""
    return lambda r: sample_context(spec, data, size, stream.child(r))


def fitness(member: np.ndarray, ctx: FitnessContext) -> float:
    """Score one member on the context's data (lower is better)."""
    return evaluate(ctx.spec, member, ctx.data).mean_ce


def ancestors(ring, m: int, jitter_sigma: float,
              stream: RngStream) -> Population:
    """Generation 0 from the vectors of a CheckpointRing, newest last; a
    ring longer than m contributes its newest m.  A ring shorter than m
    is topped up with jittered copies of the newest vector (Gaussian, sd
    jitter_sigma, drawn from stream), or rejected when jitter is
    disabled."""
    members = [np.array(e.params) for e in list(ring)[-m:]]
    if not members:
        raise PopulationError("ancestor ring is empty")
    missing = m - len(members)
    if missing > 0:
        if jitter_sigma <= 0:
            raise PopulationError(
                f"ring holds {len(members)} < m={m} vectors; top it up with "
                f"--jitter > 0")
        newest = members[-1]
        gen = stream.generator()
        for _ in range(missing):
            noise = gen.normal(0.0, jitter_sigma, newest.shape[0])
            members.append(newest + noise.astype(newest.dtype))
    return Population(members, np.full(m, np.nan))


def soup(spec: NetworkSpec, m: int, stream: RngStream) -> Population:
    """Generation 0 of m fresh initializations of spec, member i drawn
    from stream.child(i): no pretraining signal at all."""
    return Population([init_params(spec, stream.child(i)) for i in range(m)],
                      np.full(m, np.nan))


def mutate(pop: Population, i: int, F: float,
           gen: np.random.Generator) -> np.ndarray:
    """theta_j + F (theta_k - theta_l) with j,k,l distinct and != i."""
    if not 0 <= i < pop.m:
        raise PopulationError(f"member index {i} out of range [0, {pop.m})")
    others = np.delete(np.arange(pop.m), i)
    j, k, l = gen.choice(others, size=3, replace=False)
    return pop.members[j] + F * (pop.members[k] - pop.members[l])


def crossover(parent: np.ndarray, mutant: np.ndarray, Cr: float,
              force_jrand: bool, gen: np.random.Generator) -> np.ndarray:
    """Per-coordinate: mutant where the draw lands inside probability
    mass Cr, parent otherwise.

    The draw is mapped to (0, 1], so Cr=0 never takes the mutant and
    Cr=1 always does, both exactly.  force_jrand additionally copies one
    uniformly chosen coordinate from the mutant (off by default).

    The mask is taken on the generator's raw 64-bit words.  Philox's
    random() is u = (raw >> 11) * 2**-53, and 1 - u <= Cr exactly when
    raw >= _crossover_cut(Cr), so this is the mask, and the generator
    state, of the float draw without its conversion and subtraction.

    The select works on the bits: with an all-ones or all-zeros word per
    coordinate, ((p ^ m) & word) ^ p is m or p, which is np.where's
    result without its branch on a random mask.
    """
    if parent.shape != mutant.shape:
        raise ShapeMismatchError(
            f"crossover: parent {tuple(parent.shape)} vs mutant "
            f"{tuple(mutant.shape)}")
    if parent.dtype != mutant.dtype:
        raise ShapeMismatchError(
            f"crossover: parent dtype {parent.dtype} vs mutant {mutant.dtype}")
    d = parent.shape[0]
    raw = gen.bit_generator.random_raw(d)
    cut = _crossover_cut(Cr)
    mask = (raw >= np.uint64(cut) if cut < 1 << 64
            else np.zeros(d, dtype=bool))
    if force_jrand:
        mask[int(gen.integers(d))] = True
    word = np.dtype(f"u{parent.dtype.itemsize}")
    p, m = parent.view(word), mutant.view(word)
    out = np.bitwise_xor(p, m)
    out &= np.negative(mask, dtype=word)
    out ^= p
    return out.view(parent.dtype)


def _crossover_cut(Cr: float) -> int:
    """The least raw word whose draw u = (raw >> 11) * 2**-53 has
    1 - u <= Cr: ceil((1 - Cr) * 2**53) << 11, in exact integers, and
    2**64 (no word) when no draw qualifies."""
    num, den = float(Cr).as_integer_ratio()
    k = -(((num - den) << 53) // den)
    return min(max(k, 0), 1 << 53) << 11


def ensure_fitness(pop: Population, ctx, pool=None):
    """Score the members whose cached fitness is stale (NaN), in place."""
    stale = np.flatnonzero(np.isnan(pop.fitness))
    pop.fitness[stale] = ctx.score([pop.members[i] for i in stale], pool)


def evolve_generation(pop: Population, cfg: DeConfig, ctx, stream: RngStream,
                      pool=None) -> Population:
    """One synchronous generation: build every member's trial (mutation +
    crossover from generation-g members), score them with one ctx.score
    call, and keep each only if strictly fitter than its parent."""
    ensure_fitness(pop, ctx, pool)

    def build(i):
        gen = stream.child(pop.generation, i).generator()
        mutant = mutate(pop, i, cfg.F, gen)
        return crossover(pop.members[i], mutant, cfg.Cr, cfg.force_jrand, gen)

    trials = list((map if pool is None else pool.map)(build, range(pop.m)))
    fit = ctx.score(trials, pool)
    won = fit < pop.fitness
    members = [t if w else p for t, p, w in zip(trials, pop.members, won)]
    return Population(members, np.where(won, fit, pop.fitness),
                      pop.generation + 1)


@dataclass(frozen=True)
class GenMetrics:
    generation: int
    best_fit: float
    mean_fit: float
    accepts: int
    wall_ms: float = 0.0


@dataclass(frozen=True)
class DeResult:
    best: np.ndarray
    best_fitness: float
    history: list
    seed: np.ndarray  # best member of the primed generation 0
    seed_fitness: float


def run_de(pop: Population, cfg: DeConfig, factory: Callable,
           stream: RngStream, pool=None, callback=None) -> DeResult:
    """Generation loop with stopping rules and optional subset renewal.

    factory maps a round to its fitness context (`subset_factory`); with
    resample_every > 0 the round advances at that cadence and all
    cached fitness is re-evaluated on the new context before any
    comparison.  Generation 0's stale fitness is evaluated on round 0
    first, and its best member is reported as seed; seed_fitness is its
    fitness on the last round's context, the one best_fitness is on.
    Stops at max_generations, when best fitness drops below delta2, or
    when the best fitness gained less than min_improve over the last
    `window` generations (windows never straddle a resample).
    """
    round_no = 0
    ctx = factory(round_no)
    ensure_fitness(pop, ctx, pool)
    i = pop.best_index
    seed, seed_fitness = pop.members[i], float(pop.fitness[i])
    history: list = []
    round_start = 0

    for g in range(cfg.max_generations):
        t0 = time.perf_counter()
        if cfg.resample_every > 0 and g > 0 and g % cfg.resample_every == 0:
            round_no += 1
            ctx = factory(round_no)
            pop.fitness[:] = np.nan
            ensure_fitness(pop, ctx, pool)
            round_start = g
        old_fit = pop.fitness.copy()
        pop = evolve_generation(pop, cfg, ctx, stream=stream, pool=pool)
        accepts = int(np.sum(pop.fitness < old_fit))
        best = float(np.min(pop.fitness))
        metrics = GenMetrics(pop.generation, best,
                             float(np.mean(pop.fitness)), accepts,
                             (time.perf_counter() - t0) * 1000.0)
        history.append(metrics)
        if callback is not None:
            callback(metrics)
        if best < cfg.delta2:
            break
        in_round = len(history) - round_start
        if in_round > cfg.window:
            gain = history[-cfg.window - 1].best_fit - best
            if gain < cfg.min_improve:
                break

    if round_no > 0:
        seed_fitness = float(ctx.score([seed], pool)[0])
    i = pop.best_index
    return DeResult(pop.members[i].copy(), float(pop.fitness[i]), history,
                    seed, seed_fitness)


def _pool(threads: int):
    """A pool of `threads` workers, or none (a serial map) for one."""
    if threads <= 1:
        return contextlib.nullcontext()
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(threads)


def evolve(spec: NetworkSpec, ring, m: int, load_data: Callable,
           cfg: DeConfig, jitter_sigma: float = 0.0, threads: int = 1,
           callback=None) -> DeResult:
    """The DE stage of `nevo evolve`: generation 0 is the `ancestors` of
    ring, or a `soup` of spec when ring is None, evolved by run_de on
    fitness subsets of load_data() with `threads` workers.  load_data is
    called once generation 0 is built, so a ring that cannot seed it is
    refused before any data loads.  Every draw derives from
    RngStream(cfg.seed), so the result is the same for any threads.
    """
    base = RngStream(cfg.seed)
    seeding = base.child(_NS_SOUP)
    pop = (soup(spec, m, seeding) if ring is None
           else ancestors(ring, m, jitter_sigma, seeding))
    factory = subset_factory(spec, load_data(), cfg.fitness_subset,
                             base.child(_NS_SUBSET))
    with _pool(threads) as pool:
        return run_de(pop, cfg, factory, base.child(_NS_DE), pool, callback)


@dataclass(frozen=True)
class GridResult:
    lr: float
    F: float
    Cr: float
    seed_fitness: float
    best_fitness: float
    test_accuracy: float


def grid_search(spec: NetworkSpec, train_data, test_data, bp_cfg, de_cfg,
                grid: GridSection = GridSection(), master_seed: int = 0,
                rings=None, jitter_sigma: float = 0.0, threads: int = 1,
                section: DataSection = DataSection()) -> list:
    """Cartesian sweep over {lr} x {F} x {Cr}.

    One `training.pretrain` per lr, as `nevo train` runs it (reused from
    `rings` when given: a missing lr there is an error, never a silent
    retrain), then one DE run per (F, Cr) seeded from that lr's ring and
    scored on the unaugmented train_data.  Rows come back ranked by
    held-out accuracy, ties broken by (lr, F, Cr); every stochastic piece
    derives from master_seed, so the rows are the same for any threads.
    A pretrained ring that can never hold m = bp_cfg.ring_size vectors,
    without jitter to top it up, is refused before any pretraining.
    """
    from .training import pretrain

    if (rings is None and bp_cfg.max_epochs < bp_cfg.ring_size
            and jitter_sigma <= 0):
        raise PopulationError(
            f"ring holds at most bp.max_epochs={bp_cfg.max_epochs} < "
            f"m={bp_cfg.ring_size} vectors; top it up with --jitter > 0")

    master = RngStream(master_seed)
    results = []
    with _pool(threads) as pool:
        for li, lr in enumerate(grid.lr):
            if rings is not None:
                if lr not in rings:
                    raise MissingArtifactError(
                        f"no pretrained run for lr={lr}; grid search does "
                        f"not retrain implicitly")
                ring = rings[lr]
            else:
                _, ring, _, _ = pretrain(
                    spec, lambda: train_data, section, replace(bp_cfg, lr=lr),
                    stream=master.child(_NS_GRID_PRETRAIN, li))
            factory = subset_factory(spec, train_data, de_cfg.fitness_subset,
                                     master.child(_NS_SUBSET, li))
            for fi, F in enumerate(grid.F):
                for ci, Cr in enumerate(grid.Cr):
                    pop = ancestors(ring, bp_cfg.ring_size, jitter_sigma,
                                    master.child(_NS_GRID_SEEDING, li, fi, ci))
                    out = run_de(pop, replace(de_cfg, F=F, Cr=Cr), factory,
                                 master.child(_NS_DE, li, fi, ci), pool)
                    acc = evaluate(spec, out.best, test_data).accuracy
                    results.append(GridResult(lr, F, Cr, out.seed_fitness,
                                              out.best_fitness, acc))
    return sorted(results,
                  key=lambda r: (-r.test_accuracy, r.lr, r.F, r.Cr))
