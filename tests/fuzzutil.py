"""Shared fuzz engine: seeded truncation/bit-flip corpora over the
binary formats and the run-directory JSON files, with a bytes-in parse
adapter per format.

Two corpus flavours:
  structural_corpus -- every generated case is invalid by construction
    (truncations, plus flips confined to regions the format validates),
    so a correct parser must raise a typed error for each one.
  payload_corpus -- flips may land in free-form regions (pixels,
    checkpoint metadata), so clean parses are allowed; the only
    requirement is no crash.
"""

import json
import struct

import numpy as np

from nevo.data import load_idx, load_npy, save_npy
from nevo.errors import NevoError
from nevo.network import param_count
from nevo.persistence import (Checkpoint, checkpoint_bytes, load_manifest,
                              load_ring, load_summary, parse_checkpoint,
                              save_ring, write_manifest)
from nevo.training import CheckpointRing

from synthdata import random_theta, small_conv, small_mlp


def idx_images_bytes(n=10, h=8, w=8, seed=0):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(n, h, w), dtype=np.uint8)
    return struct.pack(">IIII", 2051, n, h, w) + pixels.tobytes()


def idx_labels_bytes(n=10, seed=1):
    rng = np.random.default_rng(seed)
    return struct.pack(">II", 2049, n) + \
        rng.integers(0, 10, size=n, dtype=np.uint8).tobytes()


def npy_bytes(tmp_path, arr):
    path = tmp_path / "seed.npy"
    save_npy(path, arr)
    return path.read_bytes()


def npy_header_len(buf):
    return 10 + int.from_bytes(buf[8:10], "little")


def npy_structural_regions(buf):
    """Header bytes whose single-bit corruption must be detected.

    Two spots are excluded because flipping them yields an equally
    valid encoding of the same array, not a corrupted file: the minor
    version byte (v1.x headers all parse identically) and the header
    dict's optional trailing comma (its 0x20 flip is form feed, still
    whitespace inside the literal)."""
    hlen = npy_header_len(buf)
    trailing_comma = buf.rindex(b",", 0, hlen)
    out = []
    for a, b in ((0, 7), (8, trailing_comma), (trailing_comma + 1, hlen)):
        if a < b:
            out.append((a, b))
    return out


def checkpoint_regions(buf):
    """Byte ranges whose corruption a parser must detect: everything
    except the free-form metadata JSON."""
    spec_len = int.from_bytes(buf[9:13], "little")
    meta_start = 17 + spec_len
    meta_len = int.from_bytes(buf[13 + spec_len:meta_start], "little")
    return [(0, meta_start), (meta_start + meta_len, len(buf))]


class Corpus:
    def __init__(self, name, base, parse, structural_regions):
        self.name = name
        self.base = base
        self.parse = parse
        self.regions = structural_regions

    def cases(self, n, seed, regions):
        """Yields n corrupted buffers: ~40% truncations, rest single
        bit flips at offsets drawn from the given regions."""
        rng = np.random.default_rng(seed)
        offsets = np.concatenate(
            [np.arange(a, b) for a, b in regions]) if regions else None
        n_trunc = (2 * n) // 5
        for _ in range(n_trunc):
            yield self.base[:int(rng.integers(0, len(self.base)))]
        for _ in range(n - n_trunc):
            buf = bytearray(self.base)
            off = int(offsets[rng.integers(len(offsets))])
            buf[off] ^= 1 << int(rng.integers(8))
            yield bytes(buf)


def run_corpus(corpus, n, seed, structural=True):
    """Returns (ok, typed, crashes); crashes is a list of repr strings."""
    regions = corpus.regions if structural else [(0, len(corpus.base))]
    ok = typed = 0
    crashes = []
    for i, blob in enumerate(corpus.cases(n, seed, regions)):
        try:
            corpus.parse(blob)
            ok += 1
        except NevoError:
            typed += 1
        except Exception as exc:  # anything else is a real defect
            crashes.append(f"{corpus.name}[{i}]: {exc!r}")
            if len(crashes) >= 5:
                break
    return ok, typed, crashes


def build_corpora(tmp_path):
    """The formats named by the robustness requirement: IDX, NPY, and
    checkpoints, several payload shapes each."""
    img = idx_images_bytes()
    lab = idx_labels_bytes()
    img_path = tmp_path / "fuzz-images-idx3-ubyte"
    lab_path = tmp_path / "fuzz-labels-idx1-ubyte"
    lab_path.write_bytes(lab)
    img_path.write_bytes(img)
    npy_path = tmp_path / "fuzz.npy"

    def parse_images(blob):
        img_path.write_bytes(blob)
        return load_idx(img_path, lab_path)

    def parse_labels(blob):
        img_path.write_bytes(img)
        lab_path.write_bytes(blob)
        try:
            return load_idx(img_path, lab_path)
        finally:
            lab_path.write_bytes(lab)

    def parse_npy(blob):
        npy_path.write_bytes(blob)
        return load_npy(npy_path)

    rng = np.random.default_rng(3)
    npy_u8 = npy_bytes(tmp_path, rng.integers(0, 256, (4, 3, 3)).astype(np.uint8))
    npy_f32 = npy_bytes(tmp_path, rng.normal(size=(2, 5, 5)).astype(np.float32))
    npy_f64 = npy_bytes(tmp_path, rng.normal(size=7))

    spec_a, spec_b = small_mlp(), small_conv()
    ck_a = checkpoint_bytes(Checkpoint(
        spec_a, random_theta(spec_a, 0, np.float32), {"seed": 0, "epoch": 3}))
    ck_b = checkpoint_bytes(Checkpoint(
        spec_b, random_theta(spec_b, 1, np.float64), {"stage": "de"}))
    assert param_count(spec_a) == 214 and param_count(spec_b) == 152

    return [
        Corpus("idx-images", img, parse_images, [(0, 16)]),
        Corpus("idx-labels", lab, parse_labels, [(0, 8)]),
        Corpus("npy-u8", npy_u8, parse_npy, npy_structural_regions(npy_u8)),
        Corpus("npy-f32", npy_f32, parse_npy, npy_structural_regions(npy_f32)),
        Corpus("npy-f64", npy_f64, parse_npy, npy_structural_regions(npy_f64)),
        Corpus("ckpt-f32", ck_a, parse_checkpoint, checkpoint_regions(ck_a)),
        Corpus("ckpt-f64", ck_b, parse_checkpoint, checkpoint_regions(ck_b)),
    ]


def json_structural_regions(buf, keys):
    """Bytes of a JSON document whose single-bit corruption must be
    detected: punctuation, whitespace, quotes, and the names of the keys
    a reader requires.  String values, numbers, literals and the names of
    keys nobody checks are free: a flip there may still parse."""
    free = bytearray(len(buf))
    i = 0
    while i < len(buf):
        c = buf[i:i + 1]
        if c == b'"':
            end = buf.index(b'"', i + 1)
            assert b"\\" not in buf[i:end], "escapes are not handled"
            is_key = buf[end + 1:].lstrip()[:1] == b":"
            if not (is_key and buf[i + 1:end].decode() in keys):
                free[i + 1:end] = b"\x01" * (end - i - 1)
            i = end + 1
        elif c.isalnum() or c in b"-+.":
            free[i] = 1
            i += 1
        else:
            i += 1
    out, start = [], None
    for k, flag in enumerate(list(free) + [1]):
        if not flag and start is None:
            start = k
        elif flag and start is not None:
            out.append((start, k))
            start = None
    return out


def build_json_corpora(tmp_path):
    """The JSON files a run directory holds: the ring's index.json,
    manifest.json and summary.json, each as written by the
    package.  The trailing newline is dropped so that every proper
    prefix is invalid JSON."""
    spec = small_mlp()
    ring = CheckpointRing(4)
    for epoch in range(1, 4):
        ring.push(epoch, random_theta(spec, epoch, np.float32), 1.0 / epoch)
    ring_dir = tmp_path / "ring"
    save_ring(ring, ring_dir, spec, {"seed": 0})
    run_dir = tmp_path
    (run_dir / "final.ckpt").write_bytes(b"x")
    write_manifest(run_dir, {
        "run_id": "fuzz", "created": "2024-01-01T00:00:00+0000",
        "config_sha256": "ab" * 32, "seed": 3,
        "dataset": {"name": "synthetic", "n_train": 96, "n_test": 48},
        "artifacts": {"final": "final.ckpt", "ring": "ring"}})
    (run_dir / "summary.json").write_text(json.dumps({
        "model": "mlp", "dataset": "synthetic", "params": 214,
        "stages": [{"stage": "bp", "epochs": 3, "train_loss": 0.25,
                    "test_accuracy": 0.75, "test_ce": 0.5},
                   {"stage": "de", "mode": "ancestors", "generations": 2,
                    "best_fitness": 0.125, "test_accuracy": 0.8}]},
        indent=2, sort_keys=True) + "\n")

    def adapter(path, load):
        def parse(blob):
            path.write_bytes(blob)
            return load(path.parent)
        return parse

    specs = [
        ("ring-index", ring_dir / "index.json", load_ring,
         {"capacity", "entries", "file", "epoch", "train_loss"}),
        ("manifest", run_dir / "manifest.json", load_manifest,
         {"artifacts"}),
        ("summary", run_dir / "summary.json", load_summary, {"stages"}),
    ]
    corpora = []
    for name, path, load, keys in specs:
        base = path.read_bytes().rstrip(b"\n")
        corpora.append(Corpus(name, base, adapter(path, load),
                              json_structural_regions(base, keys)))
    return corpora


def fuzz_everything(tmp_path, total, seed=0):
    """Splits `total` cases across the corpora. Returns aggregate
    (n_run, n_typed, crashes) for the structural flavour."""
    corpora = build_corpora(tmp_path)
    per = -(-total // len(corpora))
    n_run = n_typed = 0
    crashes = []
    for k, corpus in enumerate(corpora):
        n = min(per, total - n_run)
        ok, typed, bad = run_corpus(corpus, n, seed + k)
        n_run += ok + typed + len(bad)
        n_typed += typed
        crashes += bad
    return n_run, n_typed, crashes
