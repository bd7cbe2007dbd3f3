"""End-to-end command-line tests driven through cli_main(argv).

Everything runs on tiny synthetic data or fabricated files inside
tmp_path; no network, no cached datasets."""

import ast
import fcntl
import gc
import gzip
import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nevo
from nevo.cli import cli_main
from nevo.data import DATASET_NAMES, MANIFEST, augment, load_splits
from nevo.network import Activation, Dense, Flatten, NetworkSpec
from nevo.persistence import (Checkpoint, RunDir, load_checkpoint,
                              parse_config, save_checkpoint, spec_doc)
from nevo.rng import RngStream
from nevo.training import train

from synthdata import DEEP_JSON, child_env, traced_peak, with_header_json


def tiny_spec() -> NetworkSpec:
    return NetworkSpec((1, 8, 8), (Flatten(), Dense(64, 16),
                                   Activation("relu"), Dense(16, 4)))


def tiny_config(**over) -> str:
    doc = {
        "model": {"spec": spec_doc(tiny_spec())},
        "data": {"name": "synthetic",
                 "synthetic": {"n_train": 96, "n_test": 48, "classes": 4,
                               "shape": [1, 8, 8], "noise": 0.1, "seed": 0}},
        "bp": {"lr": 0.05, "batch_size": 16, "max_epochs": 4, "ring_size": 4,
               "patience": 10, "seed": 0},
        "de": {"F": 0.5, "Cr": 0.5, "max_generations": 3,
               "fitness_subset": 500, "window": 50, "seed": 0},
        "grid": {"lr": [0.05], "F": [0.5], "Cr": [0.5, 1.0]},
    }
    for key, value in over.items():
        doc[key].update(value)
    return json.dumps(doc)


@pytest.fixture()
def trained_run(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(tiny_config())
    run = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    return run


def jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_train_creates_run_layout(trained_run, tmp_path):
    run = trained_run
    assert (run / "config.json").read_text() == (
        tmp_path / "config.json").read_text()
    rows = jsonl(run / "metrics.jsonl")
    assert [r["epoch"] for r in rows] == [1, 2, 3, 4]
    assert all(r["stage"] == "bp" for r in rows)
    assert rows[-1]["train_loss"] < rows[0]["train_loss"]
    timings = jsonl(run / "timings.jsonl")
    assert len(timings) == len(rows) and all(t["wall_ms"] >= 0
                                             for t in timings)
    ckpt = load_checkpoint(run / "final.ckpt")
    assert ckpt.meta["stage"] == "bp" and ckpt.meta["epoch"] == 4
    ring_index = json.loads((run / "ring" / "index.json").read_text())
    assert len(ring_index["entries"]) == 4
    summary = json.loads((run / "summary.json").read_text())
    assert summary["params"] == 64 * 16 + 16 + 16 * 4 + 4
    assert summary["stages"][0]["stage"] == "bp"
    assert summary["stages"][0]["test_accuracy"] > 0.5
    manifest = json.loads((run / "manifest.json").read_text())
    for rel in manifest["artifacts"].values():
        assert (run / rel).exists()


def test_train_refuses_existing_run(trained_run, tmp_path, capsys):
    code = cli_main(["train", "--config", str(tmp_path / "config.json"),
                     "--out", str(trained_run)])
    assert code == 2
    assert "already initialized" in capsys.readouterr().err


def test_train_failed_data_load_does_not_block_retry(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(tiny_config(data={"name": "mnist",
                                     "dir": str(tmp_path / "absent")}))
    run = tmp_path / "run"
    assert cli_main(["train", "--config", str(bad), "--out", str(run)]) == 2
    assert "not found" in capsys.readouterr().err
    good = tmp_path / "good.json"
    good.write_text(tiny_config())
    assert cli_main(["train", "--config", str(good), "--out", str(run)]) == 0
    assert (run / "config.json").read_text() == good.read_text()


def test_train_seed_changes_outcome(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(tiny_config())
    for seed in (0, 1):
        assert cli_main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / f"r{seed}"),
                         "--seed", str(seed)]) == 0
    a = (tmp_path / "r0" / "final.ckpt").read_bytes()
    b = (tmp_path / "r1" / "final.ckpt").read_bytes()
    assert a != b


def test_evolve_ancestors(trained_run, capsys, monkeypatch):
    results = []

    def spy(*args, **kwargs):
        results.append(nevo.evolution.evolve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(nevo.cli, "evolve", spy)
    assert cli_main(["evolve", "--run", str(trained_run)]) == 0
    capsys.readouterr()
    best = load_checkpoint(trained_run / "de_best.ckpt")
    assert best.meta["stage"] == "de" and best.meta["mode"] == "ancestors"
    assert best.meta["generation"] == 3
    summary = json.loads((trained_run / "summary.json").read_text())
    stages = summary["stages"]
    assert [s["stage"] for s in stages] == ["bp", "de"]
    de = stages[1]
    assert de["best_fitness"] <= de["seed_best_fitness"]
    cfg = parse_config((trained_run / "config.json").read_bytes())
    test = load_splits(cfg.data)[1]
    assert de["seed_test_ce"] == nevo.evaluation.evaluate(
        cfg.spec, results[0].seed, test).mean_ce
    de_rows = [r for r in jsonl(trained_run / "metrics.jsonl")
               if r["stage"] == "de"]
    assert [r["gen"] for r in de_rows] == [1, 2, 3]
    bests = [r["best_fit"] for r in de_rows]
    assert bests == sorted(bests, reverse=True)
    manifest = json.loads((trained_run / "manifest.json").read_text())
    assert "de_best" in manifest["artifacts"]


def test_evolve_soup(trained_run):
    assert cli_main(["evolve", "--run", str(trained_run), "--soup"]) == 0
    best = load_checkpoint(trained_run / "de_best_soup.ckpt")
    assert best.meta["mode"] == "soup" and best.meta["generation"] == 3
    assert not any(trained_run.glob("de_pop*"))
    summary = json.loads((trained_run / "summary.json").read_text())
    assert summary["stages"][-1]["mode"] == "soup"


def test_run_directory_holds_exactly_the_run_files(trained_run, capsys):
    """After train, evolve and evolve --soup a run directory holds every
    RunDir file plus manifest.json, which lists them all, and nothing
    else: no population directory."""
    for extra in ([], ["--soup"]):
        assert cli_main(["evolve", "--run", str(trained_run), *extra]) == 0
    assert sorted(p.name for p in trained_run.iterdir()) == sorted(
        [*RunDir._FILES, "manifest.json"])
    assert not any(trained_run.glob("de_pop*"))
    manifest = json.loads((trained_run / "manifest.json").read_text())
    assert manifest["artifacts"] == {Path(name).stem: name
                                     for name in RunDir._FILES}


def test_evolve_leaves_the_population_an_older_version_wrote(
        trained_run, tmp_path, capsys):
    """Older versions wrote de_pop/ and de_pop_soup/ and listed them in
    manifest.json.  evolve neither deletes nor lists the one still there,
    drops the entry of the one a user removed, and writes no population
    of its own; train still refuses the run, as de_best.ckpt is there."""
    old = trained_run / "de_pop"
    old.mkdir()
    (old / "index.json").write_text('{"members": []}\n')
    manifest_path = trained_run / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["artifacts"].update(de_pop="de_pop", de_pop_soup="de_pop_soup")
    manifest_path.write_text(json.dumps(manifest))
    before = files_under(old)
    for extra in ([], ["--soup"]):
        assert cli_main(["evolve", "--run", str(trained_run), *extra]) == 0
    assert files_under(old) == before
    assert list(trained_run.glob("de_pop*")) == [old]
    artifacts = json.loads(manifest_path.read_text())["artifacts"]
    assert sorted(artifacts) == sorted(Path(name).stem
                                       for name in RunDir._FILES)
    (trained_run / "final.ckpt").unlink()
    capsys.readouterr()
    assert cli_main(["train", "--config", str(tmp_path / "config.json"),
                     "--out", str(trained_run)]) == 2
    assert "already initialized" in capsys.readouterr().err
    assert files_under(old) == before


def test_byte_identical_across_threads_and_reruns(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(tiny_config())
    outs = []
    for name, threads in (("t1", "1"), ("t2", "2")):
        run = tmp_path / name
        assert cli_main(["train", "--config", str(cfg),
                         "--out", str(run)]) == 0
        assert cli_main(["evolve", "--run", str(run),
                         "--threads", threads]) == 0
        outs.append(run)
    a, b = outs
    for rel in ("metrics.jsonl", "final.ckpt", "de_best.ckpt",
                "summary.json"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def idx_dir(tmp_path):
    """Fake 8x8 4-class IDX split in the standard four files."""
    root = tmp_path / "idx"
    root.mkdir()
    rng = np.random.default_rng(7)
    for stem, n in (("train", 32), ("t10k", 16)):
        images = rng.integers(0, 256, size=(n, 8, 8), dtype=np.uint8)
        labels = (rng.integers(0, 4, size=n)).astype(np.uint8)
        (root / f"{stem}-images-idx3-ubyte").write_bytes(
            struct.pack(">IIII", 2051, n, 8, 8) + images.tobytes())
        (root / f"{stem}-labels-idx1-ubyte").write_bytes(
            struct.pack(">II", 2049, n) + labels.tobytes())
    return root


def test_eval_idx_checkpoint(trained_run, tmp_path, capsys):
    root = idx_dir(tmp_path)
    code = cli_main(["eval", "--ckpt", str(trained_run / "final.ckpt"),
                     "--dataset", "mnist", "--data-dir", str(root),
                     "--split", "test"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    row = rows[0]
    assert row["n"] == 16
    assert 0.0 <= row["accuracy"] <= 1.0
    assert row["error"] == 1.0 - row["accuracy"]


def test_corrupt_then_eval_corrupted(trained_run, tmp_path, capsys):
    root = idx_dir(tmp_path)
    base = tmp_path / "corrupted"
    for kind in ("gaussian_noise", "brightness"):
        code = cli_main(["corrupt", "--dataset", "mnist",
                         "--data-dir", str(root), "--split", "test",
                         "--kind", kind, "--severity", "3",
                         "--out", str(base / kind)])
        assert code == 0
        assert (base / kind / "images.npy").exists()
        meta = json.loads((base / kind / "meta.json").read_text())
        assert meta["kind"] == kind and meta["severity"] == 3
    capsys.readouterr()
    code = cli_main(["eval", "--ckpt", str(trained_run / "final.ckpt"),
                     "--corrupted", str(base)])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["dataset"] for r in rows] == ["brightness", "gaussian_noise"]
    assert all(r["n"] == 16 for r in rows)


def test_idx_test_files_alone_serve_corrupt_and_eval(trained_run, tmp_path,
                                                   capsys):
    root = idx_dir(tmp_path)
    for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"):
        (root / name).unlink()
    data = ["--dataset", "mnist", "--data-dir", str(root)]
    assert cli_main(["corrupt", *data, "--kind", "rotate", "--severity", "2",
                     "--out", str(tmp_path / "rot")]) == 0
    assert json.loads((tmp_path / "rot" / "meta.json").read_text())["n"] == 16
    capsys.readouterr()
    assert cli_main(["eval", "--ckpt", str(trained_run / "final.ckpt"),
                     *data]) == 0
    assert json.loads(capsys.readouterr().out)[0]["n"] == 16
    # the train split still needs its own files
    assert cli_main(["eval", "--ckpt", str(trained_run / "final.ckpt"),
                     *data, "--split", "train"]) == 2
    assert "train-images-idx3-ubyte" in capsys.readouterr().err


def test_eval_builds_the_test_split_train_scored(tmp_path, capsys):
    # no data section: train, eval and corrupt all use the default
    # synthetic split, which eval builds without the train split
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": {"name": "mlp"},
                               "bp": {"max_epochs": 1}}))
    run = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    capsys.readouterr()
    assert cli_main(["eval", "--ckpt", str(run / "final.ckpt")]) == 0
    row, = json.loads(capsys.readouterr().out)
    stage = json.loads((run / "summary.json").read_text())["stages"][0]
    assert row["n"] == 1000
    assert row["accuracy"] == stage["test_accuracy"]
    assert row["mean_ce"] == stage["test_ce"]


@pytest.mark.parametrize("epochs", [4, 0])
def test_train_scores_the_test_split_once_per_epoch(tmp_path, monkeypatch,
                                                     epochs):
    import nevo.cli
    import nevo.training

    calls = []

    def counting(spec, params, data):
        calls.append(data.name)
        return nevo.evaluation.evaluate(spec, params, data)

    monkeypatch.setattr(nevo.cli, "evaluate", counting)
    monkeypatch.setattr(nevo.training, "evaluate", counting)
    cfg = tmp_path / "c.json"
    cfg.write_text(tiny_config(bp={"max_epochs": epochs}))
    run = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    # each epoch scores only the test split (its training loss comes
    # from the epoch's batches), and a run without epochs scores the
    # test split once for its summary
    assert calls == ["synthetic/test"] * (epochs or 1)
    stage = json.loads((run / "summary.json").read_text())["stages"][0]
    if epochs:
        last = jsonl(run / "metrics.jsonl")[-1]
        assert last["epoch"] == epochs
        assert stage["test_ce"] == last["test_loss"]
        assert stage["test_accuracy"] == last["test_acc"]
    else:
        final = load_checkpoint(run / "final.ckpt")
        clean = nevo.evaluation.evaluate(
            final.spec, final.params,
            nevo.data.make_synthetic_pair(96, 48, 4, (1, 8, 8), 0.1,
                                          nevo.rng.RngStream(0))[1])
        assert stage["test_ce"] == clean.mean_ce
        assert stage["test_accuracy"] == clean.accuracy


def test_report_formats(trained_run, tmp_path, capsys):
    """The mode column tells the ancestors' de row from the soup's."""
    for extra in ([], ["--soup"]):
        assert cli_main(["evolve", "--run", str(trained_run), *extra]) == 0
    capsys.readouterr()
    assert cli_main(["report", "--runs", str(trained_run),
                     "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "run,model,dataset,stage,mode,params,accuracy"
    assert [line.split(",")[3:5] for line in lines[1:]] == [
        ["bp", ""], ["de", "ancestors"], ["de", "soup"]]

    missing = tmp_path / "ghost"
    assert cli_main(["report", "--runs", str(trained_run), str(missing),
                     "--format", "json", "--out",
                     str(tmp_path / "report.json")]) == 0
    err = capsys.readouterr().err
    assert "ghost" in err
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["columns"] == lines[0].split(",")
    assert [(r["stage"], r["mode"]) for r in doc["rows"]] == [
        ("bp", None), ("de", "ancestors"), ("de", "soup")]


def test_gridsearch_writes_rows(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(tiny_config(de={"max_generations": 2}))
    out = tmp_path / "grid"
    assert cli_main(["gridsearch", "--config", str(cfg),
                     "--out", str(out)]) == 0
    table = capsys.readouterr().out
    assert "lr" in table and "Cr" in table
    rows = json.loads((out / "grid_results.json").read_text())
    assert len(rows) == 2
    assert {r["Cr"] for r in rows} == {0.5, 1.0}
    for r in rows:
        assert r["best_fitness"] <= r["seed_fitness"]
        assert 0.0 <= r["test_accuracy"] <= 1.0
    accs = [r["test_accuracy"] for r in rows]
    assert accs == sorted(accs, reverse=True)


@pytest.mark.parametrize("command", ["train", "evolve", "gridsearch"])
def test_a_negative_seed_names_the_flag(trained_run, tmp_path, monkeypatch,
                                        capsys, command):
    """--seed overrides /bp/seed or /de/seed, but the user wrote --seed,
    so that is the key the refusal names, before any data loads."""
    def never(*args, **kwargs):
        raise AssertionError("data loaded before --seed was checked")

    monkeypatch.setattr(nevo.cli, "load_splits", never)
    cfg = str(trained_run / "config.json")
    out = str(tmp_path / "out")
    argv = {"train": ["train", "--config", cfg, "--out", out],
            "evolve": ["evolve", "--run", str(trained_run)],
            "gridsearch": ["gridsearch", "--config", cfg, "--out", out]}
    before = files_under(trained_run.parent)
    assert cli_main([*argv[command], "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed: must be >= 0\n"
    assert files_under(trained_run.parent) == before
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,value", [
    ("--threads", "0"), ("--threads", "-3"),
    ("--jitter", "-0.01"), ("--jitter", "nan"), ("--jitter", "inf")])
@pytest.mark.parametrize("command", ["evolve", "gridsearch"])
def test_de_flags_out_of_range_are_refused_before_any_data_loads(
        trained_run, monkeypatch, capsys, command, flag, value):
    def never(*args, **kwargs):
        raise AssertionError("data loaded before the flags were checked")

    monkeypatch.setattr(nevo.cli, "load_splits", never)
    argv = {"evolve": ["evolve", "--run", str(trained_run)],
            "gridsearch": ["gridsearch", "--config",
                           str(trained_run / "config.json")]}[command]
    before = files_under(trained_run.parent)
    assert cli_main([*argv, flag, value]) == 2
    one_error_line(capsys, f"error: {flag}: must be ")
    assert files_under(trained_run.parent) == before


def test_short_ring_without_jitter_is_refused_before_any_data_loads(
        trained_run, tmp_path, monkeypatch, capsys):
    """A ring shorter than bp.ring_size cannot seed generation 0 without
    --jitter, so evolve says so before it reads either split."""
    loaded = []
    real = nevo.cli.load_splits

    def spy(section, *args):
        loaded.append(section)
        return real(section, *args)

    monkeypatch.setattr(nevo.cli, "load_splits", spy)
    big = tmp_path / "big.json"
    big.write_text(tiny_config(bp={"ring_size": 6}))
    argv = ["evolve", "--run", str(trained_run), "--config", str(big)]
    before = files_under(trained_run.parent)
    capsys.readouterr()
    assert cli_main(argv) == 2
    one_error_line(capsys, "ring holds 4 < m=6", "--jitter")
    assert loaded == []
    assert files_under(trained_run.parent) == before
    assert cli_main([*argv, "--jitter", "0.01"]) == 0
    assert len(loaded) == 1


def test_gridsearch_refuses_a_short_ring_before_any_pretraining(
        tmp_path, monkeypatch, capsys):
    """bp.max_epochs < bp.ring_size leaves every lr's ring short of m, so
    without --jitter gridsearch says so before it pretrains."""
    def never(*args, **kwargs):
        raise AssertionError("pretrained a ring too short to seed DE")

    monkeypatch.setattr(nevo.training, "pretrain", never)
    cfg = tmp_path / "c.json"
    cfg.write_text(tiny_config(bp={"max_epochs": 2, "ring_size": 4}))
    argv = ["gridsearch", "--config", str(cfg)]
    assert cli_main(argv) == 2
    one_error_line(capsys, "ring holds at most bp.max_epochs=2 < m=4",
                   "--jitter")
    monkeypatch.undo()
    assert cli_main([*argv, "--jitter", "0.01"]) == 0


@pytest.mark.parametrize("grid, error", [
    ({"Cr": [0.5, 2.0]}, "error: /grid/Cr: must be in [0, 1]\n"),
    ({"lr": [0.05, -1]}, "error: /grid/lr: must be > 0\n")])
def test_gridsearch_range_checks_the_grid_before_any_pretraining(
        tmp_path, monkeypatch, capsys, grid, error):
    """A grid value that its cell's de or bp section would refuse is
    refused when the config is parsed, under its own /grid pointer."""
    def never(*args, **kwargs):
        raise AssertionError("pretrained before checking the grid")

    monkeypatch.setattr(nevo.training, "pretrain", never)
    cfg = tmp_path / "c.json"
    cfg.write_text(tiny_config(grid=grid))
    assert cli_main(["gridsearch", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == error


def test_corrupt_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "corrupted"
    assert cli_main(["corrupt", "--kind", "brightness", "--severity", "3",
                     "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --seed: must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("kind,severity,flag", [
    ("rotate", "7", "--severity"), ("rotate", "0", "--severity"),
    ("fog", "1", "--kind"), ("no_such_kind", "3", "--kind")])
def test_corrupt_checks_kind_and_severity_before_any_data_loads(
        tmp_path, monkeypatch, capsys, kind, severity, flag):
    """The refusal names the flag the user wrote, and comes before the
    split loads: an uncached dataset's error no longer masks it."""
    def never(*args, **kwargs):
        raise AssertionError("data loaded before --kind and --severity "
                             "were checked")

    monkeypatch.setattr(nevo.cli, "load_splits", never)
    out = tmp_path / "set"
    assert cli_main(["corrupt", "--dataset", "mnist", "--kind", kind,
                     "--severity", severity, "--out", str(out)]) == 2
    one_error_line(capsys, f"error: {flag}: ")
    assert not out.exists()


def test_costs_command(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": {"name": "mlp"}}))
    assert cli_main(["costs", "--config", str(cfg), "--n-g", "2",
                     "--n-e", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["d"] == 101770
    assert doc["forward_madds"] == 101632
    assert doc["bp_madds"] == 2 * 101632
    assert doc["de_update_ops"] == 5 * 101770
    assert abs(doc["madds_per_neuron"] - 101632 / 922) < 1e-12


def test_costs_command_honours_de_section(tmp_path, capsys):
    touches = {}
    for cr in (1.0, 0.05):
        cfg = tmp_path / f"c{cr}.json"
        cfg.write_text(json.dumps({"model": {"name": "mlp"},
                                   "de": {"F": 0.8, "Cr": cr}}))
        assert cli_main(["costs", "--config", str(cfg)]) == 0
        touches[cr] = json.loads(capsys.readouterr().out)[
            "de_crossover_touches"]
    assert touches[1.0] == 101770
    # binomial(101770, 0.05): mean 5088.5, sd 69.5
    assert abs(touches[0.05] - 5088.5) < 5 * 69.5


@pytest.mark.parametrize("flag", ["--n-g", "--n-e"])
def test_costs_rejects_a_negative_count(tmp_path, capsys, flag):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": {"name": "mlp"}}))
    assert cli_main(["costs", "--config", str(cfg), flag, "-5"]) == 2
    one_error_line(capsys, f"error: {flag}: must be >= 0")


def test_fetch_trust_on_first_use(tmp_path, capsys):
    site = tmp_path / "site"
    site.mkdir()
    rng = np.random.default_rng(0)
    for stem, magic, n in (("train-images-idx3-ubyte", 2051, 8),
                           ("train-labels-idx1-ubyte", 2049, 8),
                           ("t10k-images-idx3-ubyte", 2051, 4),
                           ("t10k-labels-idx1-ubyte", 2049, 4)):
        if magic == 2051:
            payload = struct.pack(">IIII", magic, n, 5, 5) + \
                rng.integers(0, 256, size=n * 25, dtype=np.uint8).tobytes()
        else:
            payload = struct.pack(">II", magic, n) + \
                rng.integers(0, 10, size=n, dtype=np.uint8).tobytes()
        (site / f"{stem}.gz").write_bytes(gzip.compress(payload))
    cache = tmp_path / "cache"
    argv = ["fetch", "--dataset", "fashion_mnist",
            "--base-url", site.as_uri() + "/", "--out", str(cache)]
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    assert "train-images-idx3-ubyte" in out
    digests = json.loads((cache / "digests.json").read_text())
    assert len(digests) == 4
    for entry in digests.values():
        assert len(entry["gz_sha256"]) == 64
    # warm cache: a second fetch succeeds without the site
    for f in site.iterdir():
        f.unlink()
    assert cli_main(argv) == 0


def test_exit_codes(tmp_path, capsys):
    assert cli_main(["no-such-command"]) == 1
    assert cli_main(["train", "--out", str(tmp_path / "r")]) == 1
    assert cli_main(["train", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "r")]) == 2
    # training runs on one thread, so train takes no --threads
    assert cli_main(["train", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "r"), "--threads", "2"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"bp": {"lr": -1}}')
    assert cli_main(["train", "--config", str(bad),
                     "--out", str(tmp_path / "r")]) == 2
    assert cli_main(["eval", "--ckpt", str(tmp_path / "no.ckpt"),
                     "--dataset", "synthetic"]) == 2
    assert cli_main(["--help"]) == 0
    err = capsys.readouterr().err
    assert "usage" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exits_numeric(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(tiny_config(bp={"lr": 1e18, "max_epochs": 2,
                                   "ring_size": 4}))
    code = cli_main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "r")])
    assert code == 3
    assert "finite" in capsys.readouterr().err.lower()


def run_files(run: Path) -> dict:
    """Bytes of every deterministic file a train writes."""
    files = {p.relative_to(run).as_posix(): p.read_bytes()
             for p in sorted(run.rglob("*")) if p.is_file()}
    for volatile in ("timings.jsonl", "manifest.json"):
        assert volatile in files
        del files[volatile]
    return files


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_retry_after_divergence_matches_fresh_run(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(tiny_config(bp={"lr": 1e18, "max_epochs": 2,
                                   "ring_size": 4}))
    good = tmp_path / "good.json"
    good.write_text(tiny_config())
    fresh = tmp_path / "fresh"
    assert cli_main(["train", "--config", str(good), "--out", str(fresh)]) == 0
    run = tmp_path / "run"
    assert cli_main(["train", "--config", str(bad), "--out", str(run)]) == 3
    assert cli_main(["train", "--config", str(good), "--out", str(run)]) == 0
    assert run_files(run) == run_files(fresh)
    assert "already initialized" not in capsys.readouterr().err
    # a longer train killed before final.ckpt left records and ring
    # entries behind; the retry must neither append to nor keep them
    longer = tmp_path / "longer.json"
    longer.write_text(tiny_config(bp={"max_epochs": 6}))
    killed = tmp_path / "killed"
    assert cli_main(["train", "--config", str(longer),
                     "--out", str(killed)]) == 0
    for name in ("final.ckpt", "summary.json", "manifest.json"):
        (killed / name).unlink()
    assert cli_main(["train", "--config", str(good),
                     "--out", str(killed)]) == 0
    assert run_files(killed) == run_files(fresh)
    # one killed after final.ckpt, before summary.json, is refused
    (killed / "summary.json").unlink()
    capsys.readouterr()
    assert cli_main(["train", "--config", str(good),
                     "--out", str(killed)]) == 2
    assert "already initialized" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_retry_that_diverges_at_once_drops_the_earlier_ring(tmp_path,
                                                                  capsys):
    """A retry that diverges before its first ring entry writes no ring,
    so the one an earlier, unfinished train left must go first."""
    good = tmp_path / "good.json"
    good.write_text(tiny_config())
    run = tmp_path / "run"
    assert cli_main(["train", "--config", str(good), "--out", str(run)]) == 0
    for name in ("final.ckpt", "summary.json", "manifest.json"):
        (run / name).unlink()  # as if killed before final.ckpt
    bad = tmp_path / "bad.json"
    bad.write_text(tiny_config(bp={"lr": 1e18, "max_epochs": 2}))
    assert cli_main(["train", "--config", str(bad), "--out", str(run)]) == 3
    assert not (run / "ring").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_manifest_lists_every_run_file_present(tmp_path, capsys):
    """An evolve on a diverged train, which wrote no manifest, lists the
    run files the train left as well as its own."""
    cfg = tmp_path / "bad.json"
    cfg.write_text(tiny_config(bp={"lr": 1e18, "max_epochs": 2}))
    run = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--out", str(run)]) == 3
    assert not (run / "manifest.json").exists()
    assert cli_main(["evolve", "--run", str(run), "--soup"]) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["artifacts"] == {
        "config": "config.json", "metrics": "metrics.jsonl",
        "timings": "timings.jsonl", "summary": "summary.json",
        "de_best_soup": "de_best_soup.ckpt"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_retry_refused_after_evolve_on_diverged_run(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(tiny_config(bp={"lr": 1e18, "max_epochs": 2,
                                   "ring_size": 4}))
    good = tmp_path / "good.json"
    good.write_text(tiny_config())
    run = tmp_path / "run"
    assert cli_main(["train", "--config", str(bad), "--out", str(run)]) == 3
    assert cli_main(["evolve", "--run", str(run), "--soup"]) == 0
    assert not (run / "final.ckpt").exists()
    before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
    assert any(p.name.startswith("de_best") for p in before)
    capsys.readouterr()
    assert cli_main(["train", "--config", str(good), "--out", str(run)]) == 2
    assert "already initialized" in capsys.readouterr().err
    after = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
    assert after == before
    # an evolve killed after saving de_* has not written summary.json yet
    (run / "summary.json").unlink()
    assert cli_main(["train", "--config", str(good), "--out", str(run)]) == 2
    assert (run / "metrics.jsonl").read_bytes() == before[run / "metrics.jsonl"]


def files_under(root):
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


def drop_first_ring_file(doc):
    del doc["entries"][0]["file"]
    return doc


def ring_file_escapes(doc):
    # names the run's own final.ckpt, a valid checkpoint of the same spec
    doc["entries"][0]["file"] = "../final.ckpt"
    return doc


MALFORMED_RUN_FILES = {
    "summary_stages_not_a_list": ("summary.json", '{"stages": 5}'),
    "summary_invalid_json": ("summary.json", "{bad"),
    "manifest_not_an_object": ("manifest.json", "[1]"),
    "manifest_invalid_json": ("manifest.json", "{bad"),
    "ring_entry_without_file": ("ring/index.json", drop_first_ring_file),
    "ring_file_escapes": ("ring/index.json", ring_file_escapes),
}


@pytest.mark.parametrize("case,soup", [
    (case, soup) for case in sorted(MALFORMED_RUN_FILES)
    for soup in (False, True)
    # soup seeding does not read the ring
    if not (soup and MALFORMED_RUN_FILES[case][0].startswith("ring/"))])
def test_evolve_malformed_run_file_exits_2_and_writes_nothing(
        trained_run, capsys, case, soup):
    rel, content = MALFORMED_RUN_FILES[case]
    path = trained_run / rel
    if callable(content):
        content = json.dumps(content(json.loads(path.read_text())))
    path.write_text(content)
    before = files_under(trained_run)
    capsys.readouterr()
    argv = ["evolve", "--run", str(trained_run)] + (["--soup"] if soup else [])
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert files_under(trained_run) == before


def test_evolve_refuses_a_directory_in_place_of_summary(trained_run, capsys):
    (trained_run / "summary.json").unlink()
    (trained_run / "summary.json").mkdir()
    before = files_under(trained_run)
    capsys.readouterr()
    assert cli_main(["evolve", "--run", str(trained_run)]) == 2
    assert "summary.json: unreadable" in capsys.readouterr().err
    assert files_under(trained_run) == before
    assert not (trained_run / "de_best.ckpt").exists()


class Killed(BaseException):
    pass


def kill_replace_of(monkeypatch, name):
    """Make the rename that would put `name` in place die like a kill."""
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst).name == name:
            raise Killed
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)


def test_killed_summary_write_keeps_the_previous_summary(trained_run,
                                                         monkeypatch, capsys):
    before = (trained_run / "summary.json").read_bytes()
    kill_replace_of(monkeypatch, "summary.json")
    with pytest.raises(Killed):
        cli_main(["evolve", "--run", str(trained_run)])
    assert (trained_run / "summary.json").read_bytes() == before
    monkeypatch.undo()
    capsys.readouterr()
    assert cli_main(["evolve", "--run", str(trained_run)]) == 0
    stages = json.loads((trained_run / "summary.json").read_text())["stages"]
    assert [s["stage"] for s in stages] == ["bp", "de"]


@pytest.mark.parametrize("name,argv", [
    ("meta.json", ["corrupt", "--kind", "gaussian_noise", "--severity", "1",
                   "--out", "out"]),
    ("grid_results.json", ["gridsearch", "--config", "c.json", "--out", "out"]),
    ("report.csv", ["report", "--runs", "out", "--out", "out/report.csv"]),
])
def test_killed_artifact_write_keeps_the_previous_file(tmp_path, monkeypatch,
                                                       name, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(tiny_config(de={"max_generations": 1}))
    out = tmp_path / "out"
    out.mkdir()
    (out / name).write_bytes(b"previous\n")
    kill_replace_of(monkeypatch, name)
    with pytest.raises(Killed):
        cli_main(argv)
    assert (out / name).read_bytes() == b"previous\n"


@pytest.mark.parametrize("command,kind", [
    ("evolve", "missing"), ("evolve", "file"), ("train", "file"),
    ("gridsearch", "file"), ("corrupt", "file"), ("report", "missing"),
    ("report", "dir")])
def test_output_path_mistakes_exit_2_and_write_nothing(tmp_path, capsys,
                                                       command, kind):
    """A run directory that is missing or a file is refused before any
    work; an output path the OS rejects is one error line, not a
    traceback."""
    cfg = tmp_path / "c.json"
    cfg.write_text(tiny_config(de={"max_generations": 1}))
    path = tmp_path / "target"
    if kind == "file":
        path.write_bytes(b"a file\n")
    elif kind == "dir":
        path.mkdir()
    before = sorted(tmp_path.rglob("*")), files_under(tmp_path)
    argv = {"evolve": ["evolve", "--run", str(path), "--soup",
                       "--config", str(cfg)],
            "train": ["train", "--config", str(cfg), "--out", str(path)],
            "gridsearch": ["gridsearch", "--config", str(cfg),
                           "--out", str(path)],
            "corrupt": ["corrupt", "--kind", "gaussian_noise",
                        "--severity", "1", "--out", str(path)],
            "report": ["report", "--runs", str(tmp_path), "--out",
                       str(path / "report.csv" if kind == "missing"
                           else path)]}[command]
    assert cli_main(argv) == 2
    one_error_line(capsys)
    assert (sorted(tmp_path.rglob("*")), files_under(tmp_path)) == before


@pytest.mark.parametrize("where", ["file", "under-a-file"])
@pytest.mark.parametrize("command", ["gridsearch", "corrupt"])
def test_out_that_is_no_directory_is_refused_before_any_work(
        tmp_path, monkeypatch, capsys, command, where):
    """gridsearch and corrupt check --out before loading data, so a bad
    path costs no sweep and no corruption pass."""
    def never(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(nevo.cli, "load_splits", never)
    monkeypatch.setattr(nevo.cli, "grid_search", never)
    monkeypatch.setattr(nevo.data, "corrupt", never)
    cfg = tmp_path / "c.json"
    cfg.write_text(tiny_config())
    (tmp_path / "target").write_bytes(b"a file\n")
    path = tmp_path / "target" / ("sub" if where == "under-a-file" else "")
    before = files_under(tmp_path)
    argv = {"gridsearch": ["gridsearch", "--config", str(cfg)],
            "corrupt": ["corrupt", "--kind", "gaussian_noise",
                        "--severity", "1"]}[command]
    assert cli_main([*argv, "--out", str(path)]) == 2
    one_error_line(capsys, "is not a directory")
    assert files_under(tmp_path) == before


def test_gridsearch_refuses_a_results_path_that_is_a_directory(
        tmp_path, monkeypatch, capsys):
    """--out/grid_results.json as a directory is refused before the sweep,
    whose rows could never be written there."""
    def never(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(nevo.cli, "load_splits", never)
    monkeypatch.setattr(nevo.cli, "grid_search", never)
    cfg = tmp_path / "c.json"
    cfg.write_text(tiny_config())
    out = tmp_path / "out"
    (out / "grid_results.json").mkdir(parents=True)
    assert cli_main(["gridsearch", "--config", str(cfg),
                     "--out", str(out)]) == 2
    one_error_line(capsys, "grid_results.json is a directory")
    assert [p.name for p in out.iterdir()] == ["grid_results.json"]


def test_refused_rename_leaves_no_tmp_file(tmp_path, capsys):
    """A write the OS refuses removes its <name>.tmp before exiting 2."""
    cfg = tmp_path / "c.json"
    cfg.write_text(tiny_config(de={"max_generations": 1}))
    out = tmp_path / "out"
    (out / "grid_results.json").mkdir(parents=True)
    assert cli_main(["gridsearch", "--config", str(cfg),
                     "--out", str(out)]) == 2
    one_error_line(capsys)
    assert [p.name for p in out.iterdir()] == ["grid_results.json"]


CORRUPT = ["corrupt", "--kind", "gaussian_noise", "--severity", "1"]


@pytest.mark.parametrize("entry", ["notes.txt", "meta.json/", "sub/",
                                   "images.npy.old"])
def test_corrupt_refuses_an_out_with_foreign_entries_before_any_work(
        tmp_path, monkeypatch, capsys, entry):
    """The set replaces --out whole, so an --out holding anything but a
    set's files is refused before the corruption pass, and kept."""
    def never(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(nevo.data, "corrupt", never)
    out = tmp_path / "set"
    out.mkdir()
    (out / "images.npy.tmp").write_bytes(b"a killed write's leftover\n")
    if entry.endswith("/"):
        (out / entry).mkdir()
    else:
        (out / entry).write_bytes(b"keep me\n")
    before = sorted(tmp_path.rglob("*")), files_under(tmp_path)
    assert cli_main([*CORRUPT, "--out", str(out)]) == 2
    one_error_line(capsys, f"holds {entry.rstrip('/')}, which replacing")
    assert (sorted(tmp_path.rglob("*")), files_under(tmp_path)) == before


@pytest.mark.parametrize("name", ["set.tmp", "set.old"])
def test_corrupt_refuses_an_out_named_like_a_swap_leftover(tmp_path, capsys,
                                                           name):
    """load_corrupted skips such directories, so no set may be one."""
    assert cli_main([*CORRUPT, "--out", str(tmp_path / name)]) == 2
    one_error_line(capsys, "marks a killed write's leftover")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", [".", ".."])
def test_corrupt_refuses_an_out_that_holds_the_working_directory(
        tmp_path, monkeypatch, capsys, out):
    """Replacing it would leave the shell in a deleted directory."""
    here = tmp_path / "set"
    here.mkdir()
    monkeypatch.chdir(here)
    assert cli_main([*CORRUPT, "--out", out]) == 2
    one_error_line(capsys, "holds the working directory")
    assert list(tmp_path.rglob("*")) == [here]


def test_corrupt_rerun_killed_mid_set_keeps_the_previous_set(
        tmp_path, monkeypatch, capsys):
    """A set is written whole into a sibling set.tmp/ and swapped in, so a
    rerun killed at its last file leaves the previous set as it was, and
    the next rerun clears what the kill left."""
    out = tmp_path / "sets" / "set"
    assert cli_main([*CORRUPT, "--out", str(out)]) == 0
    before = files_under(out)
    rerun = ["corrupt", "--kind", "rotate", "--severity", "5",
             "--out", str(out)]
    kill_replace_of(monkeypatch, "meta.json")
    with pytest.raises(Killed):
        cli_main(rerun)
    assert files_under(out) == before
    monkeypatch.undo()
    assert cli_main(rerun) == 0
    assert sorted(p.name for p in out.parent.iterdir()) == ["set", "set.lock"]
    meta = json.loads((out / "meta.json").read_text())
    assert (meta["kind"], meta["severity"]) == ("rotate", 5)


@pytest.mark.parametrize("leftover", ["set.tmp", "set.old"])
def test_corrupt_clears_a_file_named_like_a_swap_sibling(tmp_path, leftover):
    (tmp_path / leftover).write_bytes(b"a stray file\n")
    assert cli_main([*CORRUPT, "--out", str(tmp_path / "set")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["set", "set.lock"]


def test_corrupt_into_a_set_in_use_exits_2_and_keeps_the_old_set(tmp_path,
                                                                 capsys):
    """A set's swap holds an flock on the sibling <set>.lock, so a second
    corrupt into the same --out exits 2 at once instead of clearing the
    first one's half-built set.tmp/."""
    out = tmp_path / "set"
    rerun = ["corrupt", "--kind", "rotate", "--severity", "5",
             "--out", str(out)]
    assert cli_main([*CORRUPT, "--out", str(out)]) == 0
    before = files_under(tmp_path)
    fd = os.open(tmp_path / "set.lock", os.O_CREAT | os.O_RDWR, 0o644)
    fcntl.flock(fd, fcntl.LOCK_EX)
    try:
        capsys.readouterr()
        start = time.monotonic()
        assert cli_main(rerun) == 2
        assert time.monotonic() - start < 5.0
        one_error_line(capsys, "is in use by another nevo command")
        assert files_under(tmp_path) == before
    finally:
        os.close(fd)
    assert cli_main(rerun) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert (meta["kind"], meta["severity"]) == ("rotate", 5)


def test_corrupt_refuses_an_out_named_like_a_lock(tmp_path, capsys):
    """set.lock/ would take the place of the lock file of a set set/, and
    eval --corrupted skips it."""
    assert cli_main([*CORRUPT, "--out", str(tmp_path / "set.lock")]) == 2
    one_error_line(capsys, "marks a killed write's leftover or a lock")
    assert list(tmp_path.iterdir()) == []


def test_corrupt_refuses_a_lock_path_that_is_a_directory_before_any_work(
        tmp_path, monkeypatch, capsys):
    """The set's swap could never lock set.lock/, so the corruption pass
    does not run."""
    def never(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(nevo.data, "corrupt", never)
    (tmp_path / "set.lock").mkdir()
    assert cli_main([*CORRUPT, "--out", str(tmp_path / "set")]) == 2
    one_error_line(capsys, "set.lock is a directory, not a lock file")
    assert list(tmp_path.iterdir()) == [tmp_path / "set.lock"]


def test_eval_corrupted_skips_what_a_killed_write_left(trained_run, tmp_path,
                                                       capsys):
    """A kill in a set's write leaves <name>.tmp/; one between the swap's
    renames leaves <name>.old/ and <name>.tmp/ and no <name>/.  Neither
    is scored as a set."""
    data = ["--dataset", "mnist", "--data-dir", str(idx_dir(tmp_path))]
    base = tmp_path / "sets"
    for name in ("a", "b"):
        assert cli_main([*CORRUPT, *data, "--out", str(base / name)]) == 0
    shutil.copytree(base / "a", base / "a.tmp")
    shutil.copytree(base / "b", base / "b.tmp")
    (base / "b").rename(base / "b.old")
    capsys.readouterr()
    assert cli_main(["eval", "--ckpt", str(trained_run / "final.ckpt"),
                     "--corrupted", str(base)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["dataset"] for r in rows] == ["a"]


def test_manifest_run_id_names_the_directory_of_out_dot(tmp_path,
                                                         monkeypatch):
    cfg = tmp_path / "c.json"
    cfg.write_text(tiny_config())
    run = tmp_path / "myrun"
    run.mkdir()
    monkeypatch.chdir(run)
    assert cli_main(["train", "--config", str(cfg), "--out", "."]) == 0
    assert json.loads((run / "manifest.json").read_text())["run_id"] == "myrun"


def test_train_pretrains_on_the_augmented_split(tmp_path, capsys):
    """`nevo train` at augment_multiplier 2 is training.train on the split
    grown by data.augment from RngStream(seed).child(5)."""
    text = tiny_config(data={"augment_multiplier": 2})
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    run = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--out", str(run),
                     "--seed", "3"]) == 0
    assert " on synthetic/train/aug2: " in capsys.readouterr().out
    parsed = parse_config(text)
    split, _ = load_splits(parsed.data)
    grown = augment(split, 2, parsed.data.max_shift_px,
                    parsed.data.max_rotate_deg, RngStream(3).child(5))
    theta, _, _ = train(parsed.spec, grown, replace(parsed.bp, seed=3))
    assert load_checkpoint(run / "final.ckpt").params.tobytes() == \
        theta.tobytes()
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["dataset"]["n_train"] == 2 * len(split)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="before 3.11 the "
                    "caller's stack holds a call's arguments until it returns")
def test_train_frees_the_unaugmented_split_before_training(tmp_path,
                                                           monkeypatch):
    """`nevo train` hands pretrain its only reference to the loaded train
    split, so only the grown copy is alive while training runs."""
    real_load, real_train = nevo.cli.load_splits, nevo.training.train
    loaded, alive = [], []

    def load_splits_spy(*args):
        splits = real_load(*args)
        loaded.append(weakref.ref(splits[0]))
        return splits

    def train_spy(*args, **kwargs):
        gc.collect()
        alive.append(loaded[0]() is not None)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(nevo.cli, "load_splits", load_splits_spy)
    monkeypatch.setattr(nevo.training, "train", train_spy)
    cfg = tmp_path / "c.json"
    cfg.write_text(tiny_config(data={"augment_multiplier": 2}))
    assert cli_main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 0
    assert alive == [False]


def test_busy_run_exits_2_at_once_and_writes_nothing(trained_run, tmp_path,
                                                     capsys):
    """Each train or evolve holds an flock on the sibling <run>.lock; a
    second command on the run exits 2 without waiting for it."""
    train_argv = ["train", "--config", str(tmp_path / "config.json"),
                  "--out", str(trained_run)]
    fd = os.open(tmp_path / "run.lock", os.O_CREAT | os.O_RDWR, 0o644)
    fcntl.flock(fd, fcntl.LOCK_EX)
    try:
        before = files_under(trained_run)
        for argv in (train_argv, ["evolve", "--run", str(trained_run)]):
            capsys.readouterr()
            start = time.monotonic()
            assert cli_main(argv) == 2
            assert time.monotonic() - start < 2.0
            one_error_line(capsys, "is in use by another nevo command")
            assert files_under(trained_run) == before
    finally:
        os.close(fd)
    # a train refused as finished releases the lock it took
    assert cli_main(train_argv) == 2
    one_error_line(capsys, "already initialized")
    assert cli_main(["evolve", "--run", str(trained_run)]) == 0


def test_train_into_a_run_whose_lock_path_is_a_directory_exits_2(
        tmp_path, capsys):
    (tmp_path / "run.lock").mkdir()
    cfg = tmp_path / "c.json"
    cfg.write_text(tiny_config())
    assert cli_main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
    one_error_line(capsys, "run.lock is a directory, not a lock file")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json",
                                                          "run.lock"]


def test_evolve_on_the_root_exits_2_with_one_line(capsys):
    """The root has no name to put the run's lock file beside."""
    assert cli_main(["evolve", "--run", "/"]) == 2
    one_error_line(capsys, "has no name to put a .lock beside")


# takes an flock on the file named in argv[1], says so, and waits
_HOLD_FLOCK = """
import fcntl, os, sys, time
fcntl.flock(os.open(sys.argv[1], os.O_CREAT | os.O_RDWR), fcntl.LOCK_EX)
print("held", flush=True)
time.sleep(600)
"""


def test_killed_lock_holder_does_not_block_the_next_train(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(tiny_config())
    run = tmp_path / "run"
    argv = ["train", "--config", str(cfg), "--out", str(run)]
    holder = subprocess.Popen([sys.executable, "-c", _HOLD_FLOCK,
                               str(tmp_path / "run.lock")],
                              stdout=subprocess.PIPE, text=True)
    try:
        assert holder.stdout.readline().strip() == "held"
        assert cli_main(argv) == 2
        one_error_line(capsys, "is in use by another nevo command")
        assert not run.exists()
    finally:
        holder.kill()  # SIGKILL: the holder runs no cleanup
        holder.wait(timeout=60)
        holder.stdout.close()
    assert cli_main(argv) == 0


def test_unknown_dataset_flag_exits_2_and_writes_nothing(trained_run, tmp_path,
                                                          capsys):
    out = tmp_path / "X"
    for argv in (["eval", "--ckpt", str(trained_run / "final.ckpt")],
                 ["corrupt", "--kind", "gaussian_noise", "--severity", "1",
                  "--out", str(out)]):
        assert cli_main([*argv, "--dataset", "imagenet"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "unknown dataset 'imagenet'" in err
        assert "synthetic, mnist, fashion_mnist, cifar10" in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--dataset", "imagenet"],
    ["--split", "train"],
    ["--data-dir", "elsewhere", "--dataset", "mnist"],
])
def test_eval_corrupted_rejects_clean_split_flags(trained_run, tmp_path,
                                                  capsys, flags):
    """--dataset, --data-dir and --split choose a clean split, which
    --corrupted does not read: naming one with it is an error, not a
    silently ignored flag."""
    sets = tmp_path / "sets"
    assert cli_main(["corrupt", "--dataset", "mnist",
                     "--data-dir", str(idx_dir(tmp_path)),
                     "--kind", "gaussian_noise", "--severity", "1",
                     "--out", str(sets / "gn1")]) == 0
    capsys.readouterr()
    argv = ["eval", "--ckpt", str(trained_run / "final.ckpt"),
            "--corrupted", str(sets)]
    assert cli_main([*argv, *flags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: --") and "--corrupted" in err
    for flag in flags[::2]:
        assert flag in err
    assert cli_main(argv) == 0
    assert json.loads(capsys.readouterr().out)[0]["dataset"] == "gn1"


@pytest.mark.parametrize("text", ["[1]", '{"stages": 5}', "{bad"])
def test_report_warns_on_malformed_summary(trained_run, capsys, text):
    (trained_run / "summary.json").write_text(text)
    capsys.readouterr()
    assert cli_main(["report", "--runs", str(trained_run)]) == 0
    out, err = capsys.readouterr()
    assert out.strip().splitlines() == [
        "run,model,dataset,stage,mode,params,accuracy"]
    assert err.startswith("warning:") and "summary.json" in err


def one_error_line(capsys, *needles):
    out, err = capsys.readouterr()
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err


@pytest.mark.parametrize("command", ["costs", "train"])
def test_list_layer_kind_in_config_exits_2(tmp_path, capsys, command):
    doc = json.loads(tiny_config())
    doc["model"]["spec"]["layers"][1]["kind"] = ["dense"]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    argv = {"costs": ["costs", "--config", str(cfg)],
            "train": ["train", "--config", str(cfg),
                      "--out", str(tmp_path / "run")]}[command]
    assert cli_main(argv) == 2
    one_error_line(capsys, "/model/spec/layers/1/kind: unknown layer kind")
    assert not (tmp_path / "run").exists()


def test_list_layer_kind_in_checkpoint_header_exits_2(trained_run, tmp_path,
                                                      capsys):
    buf = (trained_run / "final.ckpt").read_bytes()
    doc = spec_doc(tiny_spec())
    doc["layers"][0]["kind"] = ["flatten"]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(with_header_json(buf, "spec", json.dumps(doc).encode()))
    capsys.readouterr()
    assert cli_main(["eval", "--ckpt", str(bad)]) == 2
    one_error_line(capsys, "embedded spec invalid", "/spec/layers/0/kind")


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"model": {"spec": %s}}' % DEEP_JSON)
    assert cli_main(["costs", "--config", str(cfg)]) == 2
    one_error_line(capsys, "invalid JSON")


@pytest.mark.parametrize("command", ["costs", "train"])
def test_config_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(b'{"bp": {"lr": 0.05}, "\xff": 1}')
    out = tmp_path / "run"
    argv = {"costs": ["costs", "--config", str(cfg)],
            "train": ["train", "--config", str(cfg), "--out", str(out)]}
    assert cli_main(argv[command]) == 2
    one_error_line(capsys, "invalid JSON")
    assert not out.exists()


def test_train_copies_the_config_bytes_as_given(tmp_path):
    """config.json and its manifest digest are of the input's bytes, CRLF
    line ends included."""
    blob = tiny_config().replace(", ", ",\r\n").encode()
    cfg = tmp_path / "c.json"
    cfg.write_bytes(blob)
    run = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    assert (run / "config.json").read_bytes() == blob
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["config_sha256"] == hashlib.sha256(blob).hexdigest()


def test_deeply_nested_checkpoint_metadata_exits_2(trained_run, tmp_path,
                                                   capsys):
    buf = (trained_run / "final.ckpt").read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(with_header_json(buf, "meta", DEEP_JSON.encode()))
    capsys.readouterr()
    assert cli_main(["eval", "--ckpt", str(bad)]) == 2
    one_error_line(capsys, "metadata invalid")


def test_report_lists_a_deeply_nested_summary(trained_run, capsys):
    (trained_run / "summary.json").write_text(DEEP_JSON)
    capsys.readouterr()
    assert cli_main(["report", "--runs", str(trained_run)]) == 0
    out, err = capsys.readouterr()
    assert out.strip().splitlines() == [
        "run,model,dataset,stage,mode,params,accuracy"]
    assert err.startswith("warning:") and "summary.json" in err


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "nevo", "--help"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "train" in proc.stdout and "evolve" in proc.stdout


# prints the thread count of numpy's bundled OpenBLAS after importing
# numpy and then nevo, or "none" when that library cannot be read
_BLAS_THREADS_AFTER_NUMPY_FIRST = """
import ctypes, glob, os
import numpy
import nevo
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                    "numpy.libs")
count = "none"
for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
    lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None and count == "none":
            fn.argtypes = []
            fn.restype = ctypes.c_int
            count = str(fn())
print(count)
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="OpenBLAS starts with one thread on one CPU")
def test_blas_is_pinned_when_numpy_is_imported_first():
    # this process has imported nevo, which set the variables; the child
    # must start without them, as a user's interpreter does
    env = {k: v for k, v in child_env().items()
           if k not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "OMP_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    proc = subprocess.run([sys.executable, "-c",
                           _BLAS_THREADS_AFTER_NUMPY_FIRST],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "none":
        pytest.skip("numpy bundles no readable OpenBLAS here")
    assert proc.stdout.strip() == "1"


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="OpenBLAS starts with one thread on one CPU")
def test_manifest_records_blas_threads(trained_run):
    manifest = json.loads((trained_run / "manifest.json").read_text())
    if manifest["blas_threads"] is None:
        pytest.skip("numpy bundles no readable OpenBLAS here")
    assert manifest["blas_threads"] == 1
    assert cli_main(["evolve", "--run", str(trained_run)]) == 0
    manifest = json.loads((trained_run / "manifest.json").read_text())
    assert manifest["blas_threads"] == 1


def test_evolve_rerun_replaces_that_modes_summary_stage(trained_run, capsys):
    """summary.json keeps one de stage per mode, the latest, as de_best
    is replaced; metrics.jsonl and timings.jsonl stay append-only logs
    of every run."""
    for extra in ([], ["--soup"], ["--seed", "5"]):
        assert cli_main(["evolve", "--run", str(trained_run), *extra]) == 0
    capsys.readouterr()
    stages = json.loads((trained_run / "summary.json").read_text())["stages"]
    assert [(s["stage"], s.get("mode")) for s in stages] == [
        ("bp", None), ("de", "soup"), ("de", "ancestors")]
    best = load_checkpoint(trained_run / "de_best.ckpt")
    assert best.meta["seed"] == 5
    assert stages[-1]["best_fitness"] == best.meta["fitness"]
    rows = jsonl(trained_run / "metrics.jsonl")
    assert [r["mode"] for r in rows if r["stage"] == "de"] == (
        ["ancestors"] * 3 + ["soup"] * 3 + ["ancestors"] * 3)
    assert len(jsonl(trained_run / "timings.jsonl")) == len(rows)


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_eval_corrupted_path_that_is_no_directory_exits_2(trained_run,
                                                          tmp_path, capsys,
                                                          kind):
    path = tmp_path / "sets"
    if kind == "file":
        path.write_bytes(b"")
    capsys.readouterr()
    assert cli_main(["eval", "--ckpt", str(trained_run / "final.ckpt"),
                     "--corrupted", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "Traceback" not in err
    assert f"{path}: no such directory" in err


def test_eval_corrupted_set_whose_shape_overflows_int64_exits_2(
        trained_run, tmp_path, capsys):
    """2**64 elements wrapped to 0 in an int64 count, so an empty
    payload passed the size check and a traceback followed."""
    head = (b"{'descr': '<f4', 'fortran_order': False, "
            b"'shape': (4294967296, 4294967296)}")
    (tmp_path / "set").mkdir()
    (tmp_path / "set" / "images.npy").write_bytes(
        b"\x93NUMPY\x01\x00" + len(head).to_bytes(2, "little") + head)
    np.save(tmp_path / "set" / "labels.npy", np.zeros(1, np.int64))
    capsys.readouterr()
    assert cli_main(["eval", "--ckpt", str(trained_run / "final.ckpt"),
                     "--corrupted", str(tmp_path / "set")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "Traceback" not in err
    assert "truncated payload" in err


@pytest.mark.parametrize("source", ["corrupted", "idx"])
def test_eval_on_an_empty_split_exits_2(trained_run, tmp_path, capsys,
                                        source):
    """A split of no samples has no accuracy: a typed error, where the
    chunk loop used to end in np.concatenate of nothing (a traceback,
    exit 1)."""
    ckpt = str(trained_run / "final.ckpt")
    if source == "corrupted":
        (tmp_path / "set").mkdir()
        np.save(tmp_path / "set" / "images.npy",
                np.zeros((0, 1, 8, 8), np.float32))
        np.save(tmp_path / "set" / "labels.npy", np.zeros(0, np.int64))
        argv = ["eval", "--ckpt", ckpt, "--corrupted", str(tmp_path / "set")]
    else:
        root = idx_dir(tmp_path)
        (root / "t10k-images-idx3-ubyte").write_bytes(
            struct.pack(">IIII", 2051, 0, 8, 8))
        (root / "t10k-labels-idx1-ubyte").write_bytes(
            struct.pack(">II", 2049, 0))
        argv = ["eval", "--ckpt", ckpt, "--dataset", "mnist", "--data-dir",
                str(root), "--split", "test"]
    capsys.readouterr()
    assert cli_main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "Traceback" not in err
    assert "no samples" in err


def test_eval_corrupted_holds_one_set_at_a_time(trained_run, tmp_path,
                                                capsys):
    """Three 4 MiB sets peak as high as one: neither the set generator
    nor eval's loop holds the previous set while the next one loads."""
    images = np.random.default_rng(0).random((16384, 1, 8, 8), np.float32)
    for name in ("a", "b", "c"):
        (tmp_path / "sets" / name).mkdir(parents=True)
        np.save(tmp_path / "sets" / name / "images.npy", images)
        np.save(tmp_path / "sets" / name / "labels.npy",
                np.zeros(len(images), np.int64))
    ckpt = str(trained_run / "final.ckpt")

    def peak(root, n_sets):
        capsys.readouterr()
        code, peak = traced_peak(lambda: cli_main(
            ["eval", "--ckpt", ckpt, "--corrupted", str(root)]))
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)) == n_sets
        return peak

    one, three = peak(tmp_path / "sets" / "a", 1), peak(tmp_path / "sets", 3)
    assert three < one + (1 << 16)


@pytest.mark.parametrize("command", ["eval", "corrupt", "train"])
def test_a_data_dir_on_the_synthetic_dataset_exits_2(tmp_path, capsys,
                                                     command):
    """The synthetic dataset is generated, so a data directory next to
    it would be silently ignored: --data-dir on eval and corrupt, and a
    config's data.dir, are rejected instead."""
    data = idx_dir(tmp_path)
    out = tmp_path / "out"
    cfg = tmp_path / "dir.json"
    cfg.write_text(tiny_config(data={"dir": str(data)}))
    # a model of the default synthetic split, which eval would score
    ckpt = tmp_path / "default.ckpt"
    spec = NetworkSpec((1, 28, 28), (Flatten(), Dense(784, 10)))
    save_checkpoint(Checkpoint(spec, np.zeros(7850, np.float32)), ckpt)
    argv = {"eval": ["eval", "--ckpt", str(ckpt), "--data-dir", str(data)],
            "corrupt": ["corrupt", "--data-dir", str(data), "--kind",
                        "brightness", "--severity", "1", "--out", str(out)],
            "train": ["train", "--config", str(cfg), "--out", str(out)]}
    capsys.readouterr()
    assert cli_main(argv[command]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: /data/dir: the synthetic dataset")
    assert not out.exists()


def test_fetch_choices_are_the_manifest(capsys):
    assert cli_main(["fetch", "--help"]) == 0
    usage = capsys.readouterr().out
    listed = re.search(r"--dataset \{([^}]*)\}", usage).group(1).split(",")
    assert sorted(listed) == sorted(MANIFEST)


def test_cli_names_no_run_directory_file():
    """persistence.RunDir owns the run directory's layout; a file name
    written in cli.py would be a second owner that drifts from it."""
    banned = {"metrics.jsonl", "timings.jsonl", "summary.json",
              "manifest.json", "config.json", "final.ckpt", "de_best",
              "de_pop", "ring"}
    tree = ast.parse(Path(nevo.cli.__file__).read_text())
    found = [(node.lineno, node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and any(name in node.value for name in banned)]
    assert found == []


def test_cli_names_no_rng_namespace_and_no_pool():
    """evolution.evolve owns the DE stage's RNG streams and worker pool;
    a namespace, pool or DE step named in cli.py would be a second owner
    that drifts from it."""
    banned = ("ThreadPoolExecutor", "concurrent", "run_de", "subset_factory",
              "seed_population")
    tree = ast.parse(Path(nevo.cli.__file__).read_text())
    found = [(node.lineno, name) for node in ast.walk(tree)
             for name in (getattr(node, key, None)
                          for key in ("id", "attr", "name", "asname",
                                      "module"))
             if isinstance(name, str) and (
                 name.startswith("_NS_") or
                 any(word in name for word in banned))]
    assert found == []


def test_importing_the_cli_loads_no_pool_logging_or_decimal_module():
    """`import nevo.cli` loads no module that only some commands need:
    the worker pool's concurrent.futures (which pulls in logging) is
    imported when a pool starts, and decimal and fractions belong to no
    command.  Each import adds to every command's heap, and one more
    module-level import has moved the benchmark's peak RSS by 4 MiB."""
    banned = ("concurrent.futures", "logging", "decimal", "fractions")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, nevo.cli; print(' '.join("
         f"m for m in {banned!r} if m in sys.modules))"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_cli_names_no_dataset_and_no_dataset_file():
    """nevo.data owns the dataset sources and load_splits dispatches on
    their names; a dataset or dataset-file name written in cli.py would
    be a second dispatch that drifts from it."""
    banned = {"synthetic", "mnist", "fashion_mnist", "cifar10",
              *DATASET_NAMES, "data_batch_", "test_batch.bin", "t10k",
              "-ubyte", ".npy", "meta.json"}
    tree = ast.parse(Path(nevo.cli.__file__).read_text())
    found = [(node.lineno, node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and any(name in node.value for name in banned)]
    assert found == []
