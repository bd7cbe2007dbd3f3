"""Command-line front end.

Commands compose the pipeline: fetch -> train -> evolve -> eval /
corrupt -> report, plus gridsearch for the hyper-parameter sweep.

`train` and `evolve` write run directories through `persistence.RunDir`,
which owns their layout and lock; this module names no run-directory file.
`evolution.evolve` owns the DE stage's seeding, RNG streams and worker
pool, so this module names none of them.

Every command gets its data from `data.load_splits`, given the config's
data section or one built from `--dataset`/`--data-dir`; `data` also
owns the corrupted-set directory, and `training.pretrain` augmentation.
This module names no dataset and no dataset file.

Exit codes: 0 success, 1 usage error, 2 data/config/file-system error
or a run directory in use by another command, 3 numeric failure
(divergence).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

from . import data as datasets
from .data import SPLITS, DataSection, load_splits
from .errors import (ConfigError, MissingArtifactError, NevoError,
                     NumericError)
from .evaluation import count_costs, evaluate, report
from .evolution import evolve, grid_search
from .persistence import Checkpoint, RunDir, load_checkpoint, parse_config
from .rng import RngStream
from .store import atomic_write, read_bytes, write_json
from .training import TrainingDiverged, pretrain


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="nevo", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", metavar="command")
    sub.required = True

    f = sub.add_parser("fetch", help="download and verify a dataset")
    f.add_argument("--dataset", required=True,
                   choices=tuple(datasets.MANIFEST))
    f.add_argument("--out", default=None, help="cache directory")
    f.add_argument("--base-url", default=None)
    f.set_defaults(func=_cmd_fetch)

    t = sub.add_parser("train", help="gradient stage; writes a run directory")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True, help="run directory to create")
    t.add_argument("--seed", type=int, default=None)
    t.set_defaults(func=_cmd_train)

    e = sub.add_parser("evolve", help="evolution stage on an existing run")
    e.add_argument("--run", required=True)
    e.add_argument("--config", default=None,
                   help="override the run's stored config")
    e.add_argument("--soup", action="store_true",
                   help="seed from fresh random networks instead of the "
                        "last epochs' checkpoints")
    e.add_argument("--jitter", type=float, default=0.0,
                   help="sd of noise used to top up too few checkpoints")
    e.add_argument("--seed", type=int, default=None)
    e.add_argument("--threads", type=int, default=1)
    e.set_defaults(func=_cmd_evolve)

    v = sub.add_parser("eval", help="evaluate a checkpoint")
    v.add_argument("--ckpt", required=True)
    # --dataset, --data-dir and --split pick the clean split, so they
    # default to None and are rejected next to --corrupted
    v.add_argument("--dataset", default=None,
                   help=f"{', '.join(datasets.DATASET_NAMES)} "
                        f"(default {DataSection.name})")
    v.add_argument("--data-dir", default=None)
    v.add_argument("--split", default=None, choices=SPLITS,
                   help="(default test)")
    v.add_argument("--corrupted", default=None,
                   help="directory of precomputed NPY corruption sets; "
                        "takes no --dataset, --data-dir or --split")
    v.set_defaults(func=_cmd_eval)

    c = sub.add_parser("corrupt", help="synthesize a corrupted split")
    c.add_argument("--dataset", default=DataSection.name)
    c.add_argument("--data-dir", default=None)
    c.add_argument("--split", default="test", choices=SPLITS)
    c.add_argument("--kind", required=True)
    c.add_argument("--severity", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_corrupt)

    r = sub.add_parser("report", help="merge run summaries into a table")
    r.add_argument("--runs", nargs="+", required=True)
    r.add_argument("--format", default="csv", choices=("csv", "json"))
    r.add_argument("--out", default=None, help="write here instead of stdout")
    r.set_defaults(func=_cmd_report)

    g = sub.add_parser("gridsearch", help="hyper-parameter sweep")
    g.add_argument("--config", required=True)
    g.add_argument("--out", default=None,
                   help="directory for grid_results.json (stdout only if unset)")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--jitter", type=float, default=0.0,
                   help="sd of noise used to top up too few checkpoints")
    g.add_argument("--threads", type=int, default=1)
    g.set_defaults(func=_cmd_gridsearch)

    z = sub.add_parser("costs", help="operation-count report for a model")
    z.add_argument("--config", required=True)
    z.add_argument("--n-g", type=int, default=1)
    z.add_argument("--n-e", type=int, default=1)
    z.set_defaults(func=_cmd_costs)
    return p


def _read_config_arg(path) -> tuple:
    """The config file's bytes, which train copies, and their Config."""
    blob = read_bytes(path, "config")
    return blob, parse_config(blob)


def _cmd_fetch(args) -> int:
    paths = datasets.fetch(args.dataset, base_url=args.base_url,
                           out_dir=args.out)
    for logical, path in paths.items():
        print(f"{logical}: {path}")
    return 0


def _check_seed(args):
    """--seed, named as the user wrote it rather than as the config key
    it replaces."""
    ConfigError.check((args.seed is None or args.seed >= 0, "--seed",
                       "must be >= 0"))


def _cmd_train(args) -> int:
    _check_seed(args)
    blob, cfg = _read_config_arg(args.config)
    bp = cfg.bp if args.seed is None else replace(cfg.bp, seed=args.seed)
    with RunDir(args.out, new=True) as run:
        splits = list(load_splits(cfg.data))
        test_ds = splits.pop()
        run.start(cfg, cfg.spec, blob)
        try:
            # splits.pop hands augment the only reference to the
            # unaugmented split, so it is freed before the first warp
            theta, ring, history, train_ds = pretrain(
                cfg.spec, splits.pop, cfg.data, bp, test_data=test_ds,
                callback=lambda m: run.record(m, stage="bp"))
        except TrainingDiverged as exc:
            if exc.ring is not None and len(exc.ring):
                run.write_ring(exc.ring, cfg.spec, {"seed": bp.seed})
            raise
        run.write_ring(ring, cfg.spec, {"seed": bp.seed})
        last_epoch = history[-1].epoch if history else 0
        last_loss = history[-1].train_loss if history else None
        run.write_final(Checkpoint(cfg.spec, theta,
                                   {"stage": "bp", "epoch": last_epoch,
                                    "loss": last_loss, "seed": bp.seed}))

        # train scored the theta it returns on the test split at its last
        # epoch; only a run without epochs needs a pass of its own
        if history:
            test_accuracy, test_ce = history[-1].test_acc, history[-1].test_loss
        else:
            clean = evaluate(cfg.spec, theta, test_ds)
            test_accuracy, test_ce = clean.accuracy, clean.mean_ce
        run.finish({"stage": "bp", "epochs": last_epoch,
                    "train_loss": last_loss,
                    "test_accuracy": test_accuracy, "test_ce": test_ce},
                   seed=bp.seed, dataset=datasets.dataset_fingerprint(
                       cfg.data, train_ds, test_ds))
    print(f"trained {run.summary['model']} on {train_ds.name}: "
          f"test accuracy {test_accuracy:.4f} ({len(ring)} checkpoints kept)")
    return 0


def _check_de_flags(args):
    """--seed, --threads and --jitter of evolve and gridsearch, before any
    work."""
    _check_seed(args)
    ConfigError.check(
        (args.threads >= 1, "--threads", "must be >= 1"),
        (math.isfinite(args.jitter) and args.jitter >= 0, "--jitter",
         "must be finite and >= 0"))


def _cmd_evolve(args) -> int:
    _check_de_flags(args)
    with RunDir(args.run) as run:
        _, cfg = _read_config_arg(args.config or run.config)
        de = cfg.de if args.seed is None else replace(cfg.de, seed=args.seed)
        mode = "soup" if args.soup else "ancestors"

        ring, spec = (None, cfg.spec) if args.soup else run.load_ring()
        run.start(cfg, spec)
        splits = []

        def train_split():  # read once generation 0 is built
            splits.extend(load_splits(cfg.data))
            return splits[0]

        out = evolve(spec, ring, cfg.bp.ring_size, train_split, de,
                     args.jitter, args.threads, callback=lambda g: run.record(
                         g, stage="de", mode=mode))

        run.write_de(mode, out, spec, de.seed)
        test_ds = splits[1]
        seed_eval = evaluate(spec, out.seed, test_ds)
        best_eval = evaluate(spec, out.best, test_ds)
        run.finish({"stage": "de", "mode": mode,
                    "generations": len(out.history),
                    "seed_best_fitness": out.seed_fitness,
                    "seed_test_accuracy": seed_eval.accuracy,
                    "seed_test_ce": seed_eval.mean_ce,
                    "best_fitness": out.best_fitness,
                    "test_accuracy": best_eval.accuracy,
                    "test_ce": best_eval.mean_ce})
    print(f"evolved ({mode}) for {len(out.history)} generations: fitness "
          f"{out.seed_fitness:.6f} -> {out.best_fitness:.6f}, test accuracy "
          f"{seed_eval.accuracy:.4f} -> {best_eval.accuracy:.4f}")
    return 0


def _cmd_eval(args) -> int:
    given = [flag for flag, value in (("--dataset", args.dataset),
                                      ("--data-dir", args.data_dir),
                                      ("--split", args.split))
             if value is not None]
    if args.corrupted and given:
        raise ConfigError(", ".join(given), "not allowed with --corrupted, "
                          "whose NPY sets carry their own images and labels")
    if args.dataset is None:
        args.dataset = DataSection.name
    if args.split is None:
        args.split = "test"
    ckpt = load_checkpoint(args.ckpt)
    if args.corrupted:
        sets = datasets.load_corrupted(args.corrupted)
    else:
        sets = [load_splits(DataSection(name=args.dataset, dir=args.data_dir),
                            (args.split,))[SPLITS.index(args.split)]]
    # map holds no set while the next one loads, where a comprehension's
    # loop variable would hold the previous one
    rows = list(map(partial(evaluate, ckpt.spec, ckpt.params), sets))
    doc = [{"dataset": r.dataset, "n": r.n_samples, "accuracy": r.accuracy,
            "error": r.error, "mean_ce": r.mean_ce} for r in rows]
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _out_dir(path) -> Path:
    """--out as a directory to create or write into, refused before any
    work when it or its nearest existing parent is something else."""
    out = Path(path)
    existing = next((p for p in (out, *out.parents) if p.exists()), out)
    if not existing.is_dir():
        raise MissingArtifactError(f"--out: {existing} is not a directory")
    return out


def _cmd_corrupt(args) -> int:
    _check_seed(args)
    datasets.check_corruption(args.kind, args.severity,
                              ("--kind", "--severity"))
    out_dir = _out_dir(args.out)
    datasets.check_corrupted_out(out_dir)
    ds = load_splits(DataSection(name=args.dataset, dir=args.data_dir),
                     (args.split,))[SPLITS.index(args.split)]
    out = datasets.corrupt(ds, args.kind, args.severity,
                           RngStream(args.seed))
    datasets.save_corrupted(out_dir, out, {
        "source": ds.name, "kind": args.kind, "severity": args.severity,
        "seed": args.seed})
    print(f"wrote {len(out)} corrupted samples to {out_dir}")
    return 0


def _cmd_report(args) -> int:
    text, problems = report(args.runs, args.format)
    if args.out:
        out = Path(args.out)
        if out.is_dir() or not out.parent.is_dir():
            raise MissingArtifactError(f"{out}: not a file in a directory")
        atomic_write(out, text.encode())
    else:
        sys.stdout.write(text)
    for problem in problems:
        print(f"warning: {problem}", file=sys.stderr)
    return 0


def _cmd_gridsearch(args) -> int:
    _check_de_flags(args)
    _, cfg = _read_config_arg(args.config)
    de = cfg.de if args.seed is None else replace(cfg.de, seed=args.seed)
    results = _out_dir(args.out) / "grid_results.json" if args.out else None
    if results is not None and results.is_dir():
        raise MissingArtifactError(f"--out: {results} is a directory")
    train_ds, test_ds = load_splits(cfg.data)
    rows = grid_search(cfg.spec, train_ds, test_ds, cfg.bp, de, cfg.grid,
                       de.seed, jitter_sigma=args.jitter,
                       threads=args.threads, section=cfg.data)
    if results is not None:
        write_json(results, [asdict(r) for r in rows])
    print(f"{'lr':>8} {'F':>6} {'Cr':>6} {'fitness':>12} {'accuracy':>9}")
    for r in rows:
        print(f"{r.lr:>8g} {r.F:>6g} {r.Cr:>6g} {r.best_fitness:>12.6f} "
              f"{r.test_accuracy:>9.4f}")
    return 0


def _cmd_costs(args) -> int:
    ConfigError.check((args.n_g >= 0, "--n-g", "must be >= 0"),
                      (args.n_e >= 0, "--n-e", "must be >= 0"))
    _, cfg = _read_config_arg(args.config)
    rep = count_costs(cfg.spec, args.n_g, args.n_e, cfg.de.F, cfg.de.Cr)
    print(json.dumps(rep.as_dict(), indent=2, sort_keys=True))
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (NevoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(cli_main())
