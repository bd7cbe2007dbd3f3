"""Evolution-stage checks.

The mutation test decodes (j, k, l) from the mutant value itself, so
index-distinctness is verified without trusting the implementation's
own sampling code.  Selection and crossover bounds are exact claims;
convergence checks run on a quadratic surrogate fitness.
"""

import ast
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nevo.data import DataSection
from nevo.errors import MissingArtifactError, PopulationError
from nevo.evaluation import count_costs
from nevo.evolution import (DeConfig, GridSection, Population, ancestors,
                            crossover, ensure_fitness, evolve,
                            evolve_generation, fitness, grid_search, mutate,
                            run_de, sample_context, soup)
from nevo import evolution
from nevo.network import Dense, NetworkSpec, init_params, param_count, zoo_spec
from nevo.rng import RngStream
from nevo.training import CheckpointRing, TrainConfig, pretrain, train

from synthdata import small_mlp, traced_peak

# one-dimensional members whose pairwise sums/differences are all
# distinct, so every (j,k,l) triple yields a unique mutant value
_PROBE = [1.0, 10.0, 200.0, 3000.0, 40000.0]


def decode_indices(value, members, i, F):
    """Invert theta_j + F*(theta_k - theta_l) over all admissible triples."""
    hits = []
    m = len(members)
    for j in range(m):
        for k in range(m):
            for l in range(m):
                if len({i, j, k, l}) != 4 or k == l or j in (k, l):
                    continue
                if value == members[j] + F * (members[k] - members[l]):
                    hits.append((j, k, l))
    return hits


def probe_population(m=5):
    members = [np.array([v]) for v in _PROBE[:m]]
    return Population(members, np.zeros(m))


def test_mutation_arithmetic_and_distinctness():
    pop = probe_population()
    gen = RngStream(0).generator()
    seen = set()
    for _ in range(2000):
        out = mutate(pop, 0, 0.5, gen)
        hits = decode_indices(float(out[0]), _PROBE, 0, 0.5)
        assert len(hits) == 1, "mutant value must identify a unique triple"
        seen.add(hits[0])
    # all 4*3*2 = 24 ordered triples avoiding i=0 appear
    assert len(seen) == 24


def test_mutation_never_uses_target_index():
    pop = probe_population()
    gen = RngStream(1).generator()
    for i in range(5):
        for _ in range(400):
            out = mutate(pop, i, 1.0, gen)
            hits = decode_indices(float(out[0]), _PROBE, i, 1.0)
            assert hits, f"value not explainable without index {i}"


def test_mutation_vector_form_is_elementwise():
    gen_pick = RngStream(2).generator()
    members = [np.arange(4, dtype=np.float64) + 10 ** e for e in range(4)]
    pop = Population(members, np.zeros(4))
    out = mutate(pop, 0, 0.25, gen_pick)
    # recover the triple from coordinate 0, then demand exact equality
    base = [float(m[0]) for m in members]
    hits = decode_indices(float(out[0]), base, 0, 0.25)
    assert len(hits) == 1
    j, k, l = hits[0]
    assert np.array_equal(out, members[j] + 0.25 * (members[k] - members[l]))


def test_mutation_needs_four_members():
    with pytest.raises(PopulationError, match="at least 4 members, got 3"):
        Population([np.zeros(2)] * 3, np.zeros(3))
    with pytest.raises(PopulationError):
        mutate(probe_population(), 9, 0.5, RngStream(0).generator())


def test_mutation_counter_counts_d():
    pop = Population([np.zeros(7)] * 4, np.zeros(4))
    assert mutate(pop, 0, 0.5, RngStream(0).generator()).shape == (7,)
    spec = NetworkSpec((6,), (Dense(6, 1),))  # d = 6 + 1
    assert count_costs(spec).de_mutation_touches == 7


def test_crossover_bounds_exact():
    gen = RngStream(3).generator()
    parent = np.arange(50, dtype=np.float64)
    mutant = -np.arange(50, dtype=np.float64) - 1
    all_mut = crossover(parent, mutant, 1.0, False, gen)
    assert np.array_equal(all_mut, mutant)
    all_par = crossover(parent, mutant, 0.0, False, gen)
    assert np.array_equal(all_par, parent)


def test_crossover_force_jrand_touches_exactly_one_at_cr0():
    gen = RngStream(4).generator()
    parent = np.zeros(30)
    mutant = np.ones(30)
    for _ in range(50):
        out = crossover(parent, mutant, 0.0, True, gen)
        assert int(out.sum()) == 1


CROSSOVER_RATES = [
    0.0, 0.05, 0.5, 1.0, 1 / 3, 0.1 + 0.2, 0.999, 2.0 ** -53, 2.0 ** -54,
    # the neighbours of 0 and 1, on both sides
    np.nextafter(0.0, 1.0), np.nextafter(0.0, -1.0),
    np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]


def float_draw_mask(raw, Cr):
    """Philox's random() of each raw word, u = (raw >> 11) * 2**-53, and
    the float mask 1 - u <= Cr."""
    return 1.0 - (raw >> np.uint64(11)) * (1.0 / 2 ** 53) <= Cr


@pytest.mark.parametrize("force_jrand", [False, True])
@pytest.mark.parametrize("Cr", CROSSOVER_RATES)
def test_crossover_bits_and_draws_match_reference(Cr, force_jrand):
    """The raw-word mask is the float draw's mask 1 - u <= Cr, bit for
    bit, and leaves the generator where the float draw leaves it."""
    d = 1000
    data = np.random.default_rng(0)
    parent = data.normal(size=d).astype(np.float32)
    mutant = data.normal(size=d).astype(np.float32)
    mutant[::7] = -0.0
    mutant[::11] = np.nan
    gen_ref = RngStream(7).generator()
    gen = RngStream(7).generator()
    for _ in range(3):
        mask = 1.0 - gen_ref.random(d) <= Cr
        if force_jrand:
            mask[int(gen_ref.integers(d))] = True
        want = np.where(mask, mutant, parent)
        got = crossover(parent, mutant, Cr, force_jrand, gen)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    np.testing.assert_equal(gen.bit_generator.state,
                            gen_ref.bit_generator.state)
    assert gen.random() == gen_ref.random(), "draw sequence must not change"


@pytest.mark.parametrize("Cr", CROSSOVER_RATES)
def test_crossover_mask_is_exact_at_the_cut(Cr):
    """Raw words on either side of the mask's cut take the float draw's
    side; random draws almost never land there, so a cut one word or
    one draw off would pass the test above."""
    near = int((1.0 - Cr) * 2 ** 53)
    ks = [k for k in range(near - 2, near + 3) if 0 <= k < 2 ** 53]
    raw = np.array([0, 2 ** 64 - 1, *(k << 11 for k in ks),
                    *((k << 11) | 0x7FF for k in ks)], dtype=np.uint64)
    words = SimpleNamespace(
        bit_generator=SimpleNamespace(random_raw=lambda d: raw[:d]))
    d = len(raw)
    got = crossover(np.zeros(d), np.ones(d), Cr, False, words)
    assert np.array_equal(got == 1.0, float_draw_mask(raw, Cr))


def test_crossover_rate_is_binomial():
    gen = RngStream(5).generator()
    d = 10000
    parent = np.zeros(d)
    mutant = np.ones(d)
    frac = crossover(parent, mutant, 0.5, False, gen).mean()
    assert 0.45 <= frac <= 0.55


def test_crossover_counter_bounded_by_d():
    # replay count_costs' own draw: mutate, then crossover, on RngStream(0)
    gen = RngStream(0).generator()
    mutate(Population([np.zeros(100)] * 4, np.zeros(4)), 0, 0.5, gen)
    out = crossover(np.zeros(100), np.ones(100), 0.5, False, gen)
    spec = NetworkSpec((99,), (Dense(99, 1),))  # d = 99 + 1
    assert count_costs(spec).de_crossover_touches == int(out.sum()) <= 100


class Quadratic:
    """Surrogate fitness: squared distance to a target vector."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=np.float64)
        self.calls = 0

    def score(self, vectors, pool=None):
        self.calls += len(vectors)
        diffs = [np.asarray(v, dtype=np.float64) - self.target
                 for v in vectors]
        return np.array([float(d @ d) for d in diffs])


class Constant:
    def __init__(self, value=1.0):
        self.value = value

    def score(self, vectors, pool=None):
        return np.full(len(vectors), float(self.value))


def rand_pop(m, d, seed, scale=1.0):
    gen = np.random.default_rng(seed)
    return Population([gen.normal(0.0, scale, d) for _ in range(m)],
                      np.full(m, np.nan))


def test_ensure_fitness_touches_only_stale():
    pop = rand_pop(4, 3, 0)
    pop.fitness[1] = 123.0
    ctx = Quadratic(np.zeros(3))
    ensure_fitness(pop, ctx)
    assert ctx.calls == 3
    assert pop.fitness[1] == 123.0
    assert not np.any(np.isnan(pop.fitness))


def test_selection_is_strict():
    # constant fitness: every trial ties its parent and must be rejected
    pop = rand_pop(5, 4, 1)
    cfg = DeConfig(F=0.5, Cr=0.9, seed=0)
    ctx = Constant(1.0)
    ensure_fitness(pop, ctx)
    out = evolve_generation(pop, cfg, ctx, stream=RngStream(0))
    for before, after in zip(pop.members, out.members):
        assert after is before, "tie must keep the parent object"
    assert out.generation == pop.generation + 1


def test_per_individual_fitness_never_worsens():
    pop = rand_pop(8, 12, 2, scale=2.0)
    cfg = DeConfig(F=0.6, Cr=0.5, seed=3)
    ctx = Quadratic(np.zeros(12))
    ensure_fitness(pop, ctx)
    start = float(pop.fitness.min())
    stream = RngStream(7)
    for _ in range(100):
        prev = pop.fitness.copy()
        pop = evolve_generation(pop, cfg, ctx, stream=stream)
        assert np.all(pop.fitness <= prev)
    assert float(pop.fitness.min()) < start * 0.1


def test_run_de_best_fitness_monotone_and_improves():
    wins = 0
    for seed in range(10):
        pop = rand_pop(10, 20, seed, scale=1.5)
        cfg = DeConfig(F=0.5, Cr=0.5, max_generations=120,
                       min_improve=0.0, seed=seed)
        ctx = Quadratic(np.zeros(20))
        ensure_fitness(pop, ctx)
        start = float(pop.fitness.min())
        res = run_de(pop, cfg, lambda r: ctx, stream=RngStream(seed + 50))
        bests = [m.best_fit for m in res.history]
        assert all(a >= b for a, b in zip(bests, bests[1:]))
        assert res.best_fitness == min(bests)
        if res.best_fitness < start * 0.5:
            wins += 1
    assert wins >= 8, f"mid-range F/Cr should usually converge, got {wins}/10"


def test_run_de_window_stall_stop():
    pop = rand_pop(5, 4, 4)
    cfg = DeConfig(max_generations=500, window=10, min_improve=1e-5, seed=0)
    res = run_de(pop, cfg, lambda r: Constant(7.0), stream=RngStream(1))
    assert len(res.history) == 11  # window gens with zero gain, then stop


def test_run_de_loss_floor_stop():
    pop = rand_pop(5, 4, 5)
    cfg = DeConfig(max_generations=500, delta2=1e9, seed=0)
    res = run_de(pop, cfg, lambda r: Quadratic(np.zeros(4)),
                 stream=RngStream(2))
    assert len(res.history) == 1


def test_run_de_resample_invalidates_fitness():
    rounds = []

    def factory(r):
        rounds.append(r)
        return Quadratic(np.full(4, float(r)))

    pop = rand_pop(6, 4, 6)
    cfg = DeConfig(max_generations=9, resample_every=3, min_improve=0.0,
                   window=50, seed=0)
    run_de(pop, cfg, factory, stream=RngStream(3))
    assert rounds == [0, 1, 2]


def test_run_de_primes_generation_zero_and_reports_the_seed():
    contexts = []

    def factory(r):
        contexts.append(Quadratic(np.full(5, float(r))))
        return contexts[-1]

    pop = rand_pop(6, 5, 8, scale=2.0)
    pop.fitness[2] = 1e-3  # a cached value is kept, not re-scored
    seed_members = list(pop.members)
    cfg = DeConfig(max_generations=6, resample_every=2, min_improve=0.0,
                   window=50, seed=0)
    res = run_de(pop, cfg, factory, stream=RngStream(9))
    assert len(contexts) == 3  # rounds 0, 1 and 2: one draw each
    # five stale, then six re-scored per new round, two generations per
    # round, and the seed once more on the last round
    assert [c.calls for c in contexts] == [5 + 12, 6 + 12, 6 + 12 + 1]
    # the cached 1e-3 picks the seed, and seed_fitness -> best_fitness
    # is a gain on one subset: the seed is reported on the last round's
    assert res.seed is seed_members[2]
    assert res.seed_fitness == contexts[-1].score([res.seed])[0]
    assert all(a is b for a, b in zip(pop.members, seed_members))
    assert pop.fitness.tolist() == [1e-3 if i == 2 else float(v @ v)
                                    for i, v in enumerate(seed_members)]


class Recording(Quadratic):
    """Quadratic that keeps a copy of every batch it scores and the
    scores it gave."""

    def __init__(self, target):
        super().__init__(target)
        self.batches = []

    def score(self, vectors, pool=None):
        scores = super().score(vectors, pool)
        self.batches.append(([np.array(v) for v in vectors], scores))
        return scores


def test_run_de_scores_priming_and_each_generation_in_one_call():
    """Generation 0 is primed by one score call, and each generation's m
    trials are scored by one more, in member order: replaying mutate and
    crossover on each generation's parents gives each batch exactly."""
    ctx = Recording(np.zeros(5))
    pop = rand_pop(6, 5, 12, scale=2.0)
    cfg = DeConfig(F=0.7, Cr=0.5, max_generations=3, min_improve=0.0,
                   window=50, seed=0)
    stream = RngStream(13)
    run_de(pop, cfg, lambda r: ctx, stream=stream)
    batches = [b for b in ctx.batches if b[0]]
    assert [len(vectors) for vectors, _ in batches] == [6, 6, 6, 6]
    parents, fit = batches[0]
    for g, (trials, scores) in enumerate(batches[1:]):
        gen_pop = Population(parents, fit, g)
        for i, trial in enumerate(trials):
            gen = stream.child(g, i).generator()
            mutant = mutate(gen_pop, i, cfg.F, gen)
            want = crossover(parents[i], mutant, cfg.Cr, False, gen)
            assert trial.tobytes() == want.tobytes()
        won = scores < fit
        parents = [t if w else p for t, p, w in zip(trials, parents, won)]
        fit = np.where(won, scores, fit)


def test_only_fitness_context_score_calls_fitness():
    """FitnessContext.score is the one place a population is scored, so
    later scoring work (reusing a parent's fitness, batching layer 0,
    counting samples) is an edit inside it; FitnessContext.evaluate, the
    per-member method it replaced, is gone."""
    callers = []
    for path in sorted(Path(evolution.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(f"{cls.name}.{fn.name}", fn)
                  for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for fn in cls.body if isinstance(fn, ast.FunctionDef)]
        scopes += [(fn.name, fn) for fn in tree.body
                   if isinstance(fn, ast.FunctionDef)]
        for scope, fn in scopes:
            for node in ast.walk(fn):
                func = node.func if isinstance(node, ast.Call) else None
                name = (func.id if isinstance(func, ast.Name) else
                        f".{func.attr}" if isinstance(func, ast.Attribute)
                        else None)
                if name in ("fitness", ".fitness", ".evaluate"):
                    callers.append((path.name, scope, name))
    assert callers == [("evolution.py", "FitnessContext.score", "fitness")]
    assert not hasattr(evolution.FitnessContext, "evaluate")


def test_run_de_seed_is_best_of_primed_population():
    pop = rand_pop(7, 3, 10, scale=3.0)
    cfg = DeConfig(max_generations=3, seed=0)
    res = run_de(pop, cfg, lambda r: Quadratic(np.zeros(3)),
                 stream=RngStream(11))
    norms = [float(v @ v) for v in pop.members]
    assert res.seed is pop.members[int(np.argmin(norms))]
    assert res.seed_fitness == min(norms)
    assert res.best_fitness <= res.seed_fitness


def test_subset_factory_draws_round_r_from_child_r():
    from nevo.data import make_synthetic_pair
    data, _ = make_synthetic_pair(100, 10, classes=4, shape=(1, 4, 4),
                                  noise=0.1, stream=RngStream(10))
    spec = small_mlp()
    factory = evolution.subset_factory(spec, data, 30, RngStream(5).child(3))
    for r in (0, 1, 4):
        got = factory(r)
        want = sample_context(spec, data, 30, RngStream(5, (3, r)))
        assert np.array_equal(got.data.images, want.data.images)
        assert np.array_equal(got.data.labels, want.data.labels)


def test_run_de_accept_counts_are_consistent():
    pop = rand_pop(8, 10, 7, scale=2.0)
    cfg = DeConfig(F=0.5, Cr=0.5, max_generations=30, min_improve=0.0, seed=1)
    ctx = Quadratic(np.zeros(10))
    res = run_de(pop, cfg, lambda r: ctx, stream=RngStream(4))
    for m in res.history:
        assert 0 <= m.accepts <= 8
    assert sum(m.accepts for m in res.history) > 0


def ring_of(vectors):
    ring = CheckpointRing(len(vectors))
    for e, v in enumerate(vectors, start=1):
        ring.push(e, np.asarray(v, dtype=np.float32), float(e))
    return ring


def test_ancestors_takes_newest():
    ring = ring_of([np.full(3, float(i)) for i in range(6)])
    pop = ancestors(ring, 4, 0.0, RngStream(0))
    assert pop.m == 4
    assert [m[0] for m in pop.members] == [2.0, 3.0, 4.0, 5.0]
    assert np.all(np.isnan(pop.fitness))
    assert pop.generation == 0


def test_ancestors_are_copies():
    ring = ring_of([np.zeros(3)] * 4)
    pop = ancestors(ring, 4, 0.0, RngStream(0))
    pop.members[0][:] = 42.0
    assert np.all(ring.entries[0].params == 0.0)


def test_ancestors_underfull_requires_jitter():
    ring = ring_of([np.zeros(4), np.ones(4)])
    with pytest.raises(PopulationError):
        ancestors(ring, 4, 0.0, RngStream(0))


def test_ancestors_jitter_statistics():
    d = 20000
    ring = ring_of([np.zeros(d), np.full(d, 5.0)])
    sigma = 0.02
    pop = ancestors(ring, 4, sigma, RngStream(8))
    assert np.array_equal(pop.members[1], np.full(d, 5.0, dtype=np.float32))
    for filled in pop.members[2:]:
        noise = filled.astype(np.float64) - 5.0
        assert abs(float(noise.mean())) < sigma
        assert 0.75 * sigma <= float(noise.std()) <= 1.25 * sigma


def test_soup_is_deterministic_and_diverse():
    spec = small_mlp()
    p1 = soup(spec, 5, RngStream(9))
    p2 = soup(spec, 5, RngStream(9))
    for i, (a, b) in enumerate(zip(p1.members, p2.members)):
        assert np.array_equal(a, b)
        assert np.array_equal(a, init_params(spec, RngStream(9).child(i)))
        assert a.shape == (param_count(spec),)
    for i in range(5):
        for j in range(i + 1, 5):
            assert not np.array_equal(p1.members[i], p1.members[j])


@pytest.mark.parametrize("mode", ["ancestors", "soup"])
def test_evolve_runs_de_on_the_config_seeds_streams(mode):
    """evolve seeds generation 0 from child(4), draws fitness subsets from
    child(3) and trials from child(2) of RngStream(cfg.seed), for any
    thread count."""
    from nevo.data import make_synthetic_pair
    data, _ = make_synthetic_pair(80, 0, classes=4, shape=(1, 4, 4),
                                  noise=0.1, stream=RngStream(20))
    spec = small_mlp()
    ring = None if mode == "soup" else ring_of(
        [init_params(spec, RngStream(21, (k,))) for k in range(3)])
    cfg = DeConfig(max_generations=4, fitness_subset=50, resample_every=2,
                   min_improve=0.0, seed=6)
    base = RngStream(6)
    pop = (soup(spec, 5, base.child(4)) if ring is None
           else ancestors(ring, 5, 0.01, base.child(4)))
    want = run_de(pop, cfg, evolution.subset_factory(spec, data, 50,
                                                     base.child(3)),
                  base.child(2))
    for threads in (1, 2):
        seen = []
        got = evolve(spec, ring, 5, lambda: data, cfg, 0.01, threads,
                     seen.append)
        assert got.best.tobytes() == want.best.tobytes()
        assert got.seed.tobytes() == want.seed.tobytes()
        assert (got.seed_fitness, got.best_fitness) == (want.seed_fitness,
                                                        want.best_fitness)
        assert [replace(g, wall_ms=0.0) for g in seen] == \
            [replace(g, wall_ms=0.0) for g in want.history]


def test_population_best_index_and_staleness():
    pop = Population([np.zeros(2)] * 4, np.array([3.0, 1.0, 2.0, 4.0]))
    assert pop.best_index == 1
    stale = Population([np.zeros(2)] * 4, np.full(4, np.nan))
    with pytest.raises(PopulationError):
        stale.best_index


def test_sample_context_fixed_subset():
    from nevo.data import make_synthetic_pair
    data, _ = make_synthetic_pair(100, 10, classes=4, shape=(1, 4, 4),
                                  noise=0.1, stream=RngStream(10))
    spec = small_mlp()
    c1 = sample_context(spec, data, 30, RngStream(11))
    c2 = sample_context(spec, data, 30, RngStream(11))
    assert np.array_equal(c1.data.images, c2.data.images)
    assert len(c1.data.labels) == 30
    full = sample_context(spec, data, 1000, RngStream(12))
    assert full.data.images is data.images


def test_fitness_has_no_penalty_term():
    from nevo.data import make_synthetic_pair
    from nevo.evaluation import evaluate
    data, _ = make_synthetic_pair(40, 10, classes=4, shape=(1, 4, 4),
                                  noise=0.1, stream=RngStream(13))
    spec = small_mlp()
    ctx = sample_context(spec, data, 40, RngStream(14))
    gen = np.random.default_rng(15)
    member = gen.normal(0.0, 0.3, param_count(spec)).astype(np.float32)
    assert fitness(member, ctx) == evaluate(spec, member, data).mean_ce


def fitness_peak_bytes(data, size):
    """Peak traced memory of one fitness call on a lenet1 context of
    `size` samples."""
    spec = zoo_spec("lenet1")
    ctx = sample_context(spec, data, size, RngStream(16))
    member = init_params(spec, RngStream(17))
    return traced_peak(lambda: fitness(member, ctx))[1]


def test_fitness_memory_is_flat_in_subset_size():
    from nevo.data import make_synthetic_pair
    data, _ = make_synthetic_pair(4000, 0, stream=RngStream(18))
    small, large = fitness_peak_bytes(data, 500), fitness_peak_bytes(data, 4000)
    assert large <= 1.5 * small


def test_default_grid_shape():
    assert GridSection() == GridSection(lr=(0.01, 0.02),
                                        F=(0.01, 0.1, 1.0, 2.0),
                                        Cr=(0.0, 0.05, 0.5, 1.0))


def grid_fixture():
    from nevo.data import make_synthetic_pair
    train, test = make_synthetic_pair(200, 80, classes=4, shape=(1, 4, 4),
                                      noise=0.1, stream=RngStream(16))
    spec = small_mlp()
    bp = TrainConfig(max_epochs=4, batch_size=32, ring_size=4, seed=0)
    de = DeConfig(max_generations=4, fitness_subset=200, seed=0)
    return spec, train, test, bp, de


def test_grid_search_cell_count_and_order():
    spec, train, test, bp, de = grid_fixture()
    grid = GridSection(lr=(0.01, 0.02), F=(0.3, 0.7), Cr=(0.2,))
    rows = grid_search(spec, train, test, bp, de, grid, master_seed=0)
    assert len(rows) == 4
    keys = [(-r.test_accuracy, r.lr, r.F, r.Cr) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert r.best_fitness <= r.seed_fitness


def test_grid_search_is_deterministic():
    spec, train, test, bp, de = grid_fixture()
    grid = GridSection(lr=(0.01,), F=(0.5,), Cr=(0.5,))
    r1 = grid_search(spec, train, test, bp, de, grid, master_seed=3)
    r2 = grid_search(spec, train, test, bp, de, grid, master_seed=3)
    assert r1 == r2


def spy_grid(monkeypatch):
    """Record the ancestor ring each grid cell seeds from and the data
    each lr's fitness subsets are drawn from."""
    seen = {"rings": [], "subset_data": []}
    real_seed, real_factory = evolution.ancestors, evolution.subset_factory

    def seed_spy(ring, *args):
        seen["rings"].append([e.params.tobytes() for e in ring])
        return real_seed(ring, *args)

    def factory_spy(spec, data, *args):
        seen["subset_data"].append(data)
        return real_factory(spec, data, *args)

    monkeypatch.setattr(evolution, "ancestors", seed_spy)
    monkeypatch.setattr(evolution, "subset_factory", factory_spy)
    return seen


def test_grid_search_pretrains_each_lr_as_pretrain_on_its_stream(
        monkeypatch):
    """With augmentation, lr li's ancestors are training.pretrain on
    master.child(0, li), the path `nevo train` takes, while DE scores
    fitness on the unaugmented split."""
    spec, train_ds, test, bp, de = grid_fixture()
    section = DataSection(augment_multiplier=2)
    grid = GridSection(lr=(0.01, 0.02), F=(0.5,), Cr=(0.5,))
    seen = spy_grid(monkeypatch)
    grid_search(spec, train_ds, test, bp, de, grid, master_seed=5,
                section=section)
    assert [d is train_ds for d in seen["subset_data"]] == [True, True]
    for li, lr in enumerate(grid.lr):
        stream = RngStream(5).child(0, li)
        _, ring, _, grown = pretrain(spec, lambda: train_ds, section,
                                     replace(bp, lr=lr), stream=stream)
        assert len(grown) == 2 * len(train_ds)
        assert seen["rings"][li] == [e.params.tobytes() for e in ring]
        _, plain, _ = train(spec, train_ds, replace(bp, lr=lr), stream=stream)
        assert seen["rings"][li] != [e.params.tobytes() for e in plain]


def test_grid_search_without_augmentation_pretrains_as_plain_train(
        monkeypatch):
    spec, train_ds, test, bp, de = grid_fixture()
    grid = GridSection(lr=(0.01, 0.02), F=(0.5,), Cr=(0.5,))
    seen = spy_grid(monkeypatch)
    grid_search(spec, train_ds, test, bp, de, grid, master_seed=5)
    for li, lr in enumerate(grid.lr):
        _, ring, _ = train(spec, train_ds, replace(bp, lr=lr),
                           stream=RngStream(5).child(0, li))
        assert seen["rings"][li] == [e.params.tobytes() for e in ring]


def test_grid_search_rings_must_cover_grid():
    spec, train, test, bp, de = grid_fixture()
    rings = {0.01: ring_of([np.zeros(param_count(spec))] * 4)}
    with pytest.raises(MissingArtifactError):
        grid_search(spec, train, test, bp, de,
                    GridSection(lr=(0.01, 0.05), F=(0.5,), Cr=(0.5,)),
                    master_seed=0, rings=rings)
