"""The three workloads: generated configs, fixture set-up, the timed
command sequence, and the checks on every command's outputs.

Every stopping rule is disabled (patience >= epochs, min_improve 0, DE
window >= generations) so each sequence does the same work whatever the
seed; the seed only changes the data and the random streams.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

KINDS = ("gaussian_noise", "shot_noise", "impulse_noise", "brightness",
         "contrast", "translate", "rotate", "scale", "pixelate", "stripe")
SEVERITIES = (1, 2, 3, 4, 5)

PRETRAIN_EPOCHS = 2
PRETRAIN_N = 3000
PRETRAIN_AUGMENT = 2
EVOLVE_M = 10
EVOLVE_GENERATIONS = 60
EVOLVE_THREADS = 2
TEST_N = 1000  # default synthetic test split, used by corrupt and eval


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _jsonl(path) -> list:
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


class Sequence:
    """One pass of a workload's commands and what it measured."""

    def __init__(self):
        self.wall_s = 0.0       # sum of command times
        self.stage_s = 0.0      # time of the commands doing the stage's work
        self.items = 0          # work units of that stage
        self.rates: dict = {}   # the workload's named throughputs
        self.quality: dict = {}
        self.hashes: dict = {}  # artifact -> (sha256, producing op)

    def add(self, op):
        self.wall_s += op.seconds
        return op


class Workload:
    name = ""
    model = ""  # zoo model whose conv layers the trace splits by layer

    def configs(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, ops, fixture: Path, seed: int):
        """Write the configs and build the fixture the timed part reads."""
        fixture.mkdir(parents=True, exist_ok=True)
        for name, doc in self.configs(seed).items():
            (fixture / name).write_text(json.dumps(doc, indent=2) + "\n")

    def fixture_hashes(self, fixture: Path) -> dict:
        return {}

    def sequence(self, ops, fixture: Path, work: Path, seed: int) -> Sequence:
        raise NotImplementedError


class _TrainedFixture(Workload):
    """Set-up also trains the run directory the timed part reads."""

    def setup(self, ops, fixture, seed):
        super().setup(ops, fixture, seed)
        ops.run(["train", "--config", str(fixture / "config.json"),
                 "--out", str(fixture / "run"), "--seed", str(seed)])

    def fixture_hashes(self, fixture):
        return {"final.ckpt": sha256(fixture / "run" / "final.ckpt")}


class Pretrain(Workload):
    """Gradient stage only: conv and pool backward, augment, and the
    full-set loss/predict at each epoch end; no DE."""

    name = "lenet1-pretrain"
    model = "lenet1"

    def configs(self, seed):
        return {"config.json": {
            "model": {"name": "lenet1"},
            "data": {"name": "synthetic",
                     "augment_multiplier": PRETRAIN_AUGMENT,
                     "synthetic": {"n_train": PRETRAIN_N, "n_test": TEST_N,
                                   "noise": 1.0, "seed": seed}},
            "bp": {"max_epochs": PRETRAIN_EPOCHS,
                   "patience": PRETRAIN_EPOCHS, "min_improve": 0,
                   "ring_size": 10, "seed": seed}}}

    def sequence(self, ops, fixture, work, seed):
        from nevo.persistence import load_checkpoint

        seq = Sequence()
        run = work / "run"
        op = seq.add(ops.run(["train", "--config", str(fixture / "config.json"),
                              "--out", str(run), "--seed", str(seed)]))
        samples = PRETRAIN_EPOCHS * PRETRAIN_N * PRETRAIN_AUGMENT
        seq.stage_s, seq.items = op.seconds, samples
        seq.rates["train_samples_per_s"] = samples / op.seconds
        if op.failed:
            return seq
        with ops.checking(op):
            bp = [r for r in _jsonl(run / "metrics.jsonl")
                  if r.get("stage") == "bp"]
            ops.expect(op, len(bp) == PRETRAIN_EPOCHS,
                       f"{len(bp)} bp records, expected {PRETRAIN_EPOCHS}")
            ring = json.loads((run / "ring" / "index.json").read_text())
            want = min(PRETRAIN_EPOCHS, 10)
            ops.expect(op, len(ring["entries"]) == want,
                       f"ring holds {len(ring['entries'])}, expected {want}")
            ckpt = load_checkpoint(run / "final.ckpt")
            ops.expect(op, ckpt.params.shape == (3246,),
                       f"final.ckpt has {ckpt.params.shape} parameters")
            stage = json.loads((run / "summary.json").read_text())["stages"][0]
            seq.quality["bp_test_ce"] = stage["test_ce"]
            seq.quality["bp_test_accuracy"] = stage["test_accuracy"]
            for f in ("metrics.jsonl", "final.ckpt"):
                seq.hashes[f] = (sha256(run / f), op)
        return seq


class Evolve(_TrainedFixture):
    """DE only, no conv: cheap dense fitness with d=101,770, so
    mutate/crossover/selection and the thread pool dominate.  Runs the
    paper's ancestors-vs-soup control at equal budget."""

    name = "mlp-evolve"
    model = "mlp"

    def configs(self, seed):
        return {"config.json": {
            "model": {"name": "mlp"},
            "data": {"name": "synthetic",
                     "synthetic": {"n_train": 3000, "n_test": TEST_N,
                                   "noise": 1.0, "seed": seed}},
            "bp": {"max_epochs": 10, "patience": 10, "min_improve": 0,
                   "ring_size": EVOLVE_M, "seed": seed},
            "de": {"F": 0.5, "Cr": 0.5, "fitness_subset": 1000,
                   "max_generations": EVOLVE_GENERATIONS,
                   "window": EVOLVE_GENERATIONS, "min_improve": 0,
                   "seed": seed}}}

    def sequence(self, ops, fixture, work, seed):
        seq = Sequence()
        run = work / "run"
        shutil.copytree(fixture / "run", run)
        base = ["evolve", "--run", str(run), "--threads", str(EVOLVE_THREADS),
                "--seed", str(seed)]
        anc = seq.add(ops.run(base))
        soup = seq.add(ops.run(base + ["--soup"]))
        evals = 2 * (EVOLVE_M + EVOLVE_M * EVOLVE_GENERATIONS)
        seq.stage_s, seq.items = anc.seconds + soup.seconds, evals
        seq.rates["de_evals_per_s"] = evals / seq.stage_s
        if anc.failed or soup.failed:
            return seq
        with ops.checking(soup):
            de = [r for r in _jsonl(run / "metrics.jsonl")
                  if r.get("stage") == "de"]
            for op, mode in ((anc, "ancestors"), (soup, "soup")):
                best = [r["best_fit"] for r in de if r["mode"] == mode]
                ops.expect(op, len(best) == EVOLVE_GENERATIONS,
                           f"{len(best)} {mode} generations recorded")
                ops.expect(op, all(b <= a for a, b in zip(best, best[1:])),
                           f"{mode} best_fit increased between generations")
            stages = {s.get("mode"): s for s in json.loads(
                (run / "summary.json").read_text())["stages"]}
            a, s = stages["ancestors"], stages["soup"]
            ops.expect(anc, a["best_fitness"] <= a["seed_best_fitness"],
                       "ancestors ended above their seed fitness")
            ops.expect(soup, a["best_fitness"] < s["best_fitness"],
                       "ancestors did not end fitter than soup")
            seq.quality["de_best_fitness"] = a["best_fitness"]
            seq.quality["soup_best_fitness"] = s["best_fitness"]
            seq.hashes["metrics.jsonl"] = (sha256(run / "metrics.jsonl"), soup)
            seq.hashes["de_best.ckpt"] = (sha256(run / "de_best.ckpt"), anc)
            seq.hashes["de_best_soup.ckpt"] = (
                sha256(run / "de_best_soup.ckpt"), soup)
        return seq


class Robustness(_TrainedFixture):
    """Forward-only batched inference, corruption kernels and NPY
    write/read; no backward, no DE."""

    name = "lenet1-robustness"
    model = "lenet1"

    def configs(self, seed):
        # corrupt and eval always rebuild the default synthetic split,
        # so the fixture trains on that split too
        return {"config.json": {"model": {"name": "lenet1"},
                                "bp": {"max_epochs": 1, "seed": seed}}}

    def sequence(self, ops, fixture, work, seed):
        seq = Sequence()
        corr = work / "corrupted"
        corrupt_s = 0.0
        digest = hashlib.sha256()
        made = []
        for kind in KINDS:
            for sev in SEVERITIES:
                out = corr / f"{kind}-{sev}"
                op = seq.add(ops.run(["corrupt", "--kind", kind,
                                      "--severity", str(sev),
                                      "--seed", str(seed), "--out", str(out)]))
                corrupt_s += op.seconds
                if not op.failed:
                    with ops.checking(op):
                        digest.update(sha256(out / "images.npy").encode())
                        made.append(op)
        ckpt = str(fixture / "run" / "final.ckpt")
        ev = seq.add(ops.run(["eval", "--ckpt", ckpt, "--corrupted", str(corr)]))
        clean = seq.add(ops.run(["eval", "--ckpt", ckpt]))
        n = len(KINDS) * len(SEVERITIES) * TEST_N
        seq.stage_s, seq.items = corrupt_s + ev.seconds, n
        seq.rates["corrupt_samples_per_s"] = n / corrupt_s
        seq.rates["eval_samples_per_s"] = (n + TEST_N) / (ev.seconds +
                                                          clean.seconds)
        if len(made) == len(KINDS) * len(SEVERITIES):
            seq.hashes["corrupted/*/images.npy"] = (digest.hexdigest(), made[-1])
        if not ev.failed:
            with ops.checking(ev):
                rows = json.loads(ev.stdout)
                want = len(KINDS) * len(SEVERITIES)
                ops.expect(ev, len(rows) == want,
                           f"{len(rows)} corrupted rows, expected {want}")
                for r in rows:
                    ops.expect(ev, r["n"] == TEST_N and 0 <= r["error"] <= 1,
                               f"row {r['dataset']}: n={r['n']} "
                               f"error={r['error']}")
                seq.quality["corruption_error"] = (
                    sum(r["error"] for r in rows) / len(rows))
        if not clean.failed:
            with ops.checking(clean):
                rows = json.loads(clean.stdout)
                ops.expect(clean, len(rows) == 1 and rows[0]["n"] == TEST_N
                           and 0 <= rows[0]["error"] <= 1,
                           f"clean eval returned {rows}")
                seq.quality["clean_error"] = rows[0]["error"]
        return seq


WORKLOADS = {w.name: w for w in (Pretrain(), Evolve(), Robustness())}
