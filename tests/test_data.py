"""Dataset plumbing: binary format parsers against hand-built byte
fixtures, verified fetching with a fake transport, augmentation
identities, and corruption synthesis statistics."""

import gzip
import hashlib
import json
import math
import struct
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nevo import data as data_mod
from nevo import store
from nevo.data import (DATASET_NAMES, MANIFEST, SPLITS, DataSection, Dataset,
                       SEVERITY_TABLES, SynthSection, augment, batches,
                       corrupt, fetch, load_cifar10, load_idx, load_idx_dir,
                       load_corrupted, load_npy, load_splits,
                       make_synthetic_pair, save_corrupted, save_npy)
from nevo.errors import (ChecksumError, ConfigError, DataFormatError,
                         MissingArtifactError, NevoError,
                         UnsupportedCorruptionError)
from nevo.rng import RngStream

from synthdata import (DEEP_JSON, affine_bilinear_reference, child_env,
                       traced_peak)
from test_cli import idx_dir


def idx_images_bytes(arr):
    arr = np.asarray(arr, dtype=np.uint8)
    head = struct.pack(">I", 2051)
    dims = b"".join(struct.pack(">I", d) for d in arr.shape)
    return head + dims + arr.tobytes()


def idx_labels_bytes(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">I", 2049) + struct.pack(">I", len(labels)) + labels.tobytes()


@pytest.fixture
def idx_pair(tmp_path):
    images = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    labels = np.array([1, 0], dtype=np.uint8)
    ip = tmp_path / "imgs"
    lp = tmp_path / "labs"
    ip.write_bytes(idx_images_bytes(images))
    lp.write_bytes(idx_labels_bytes(labels))
    return ip, lp, images, labels


def test_load_idx_values_and_scaling(idx_pair):
    ip, lp, images, labels = idx_pair
    ds = load_idx(ip, lp, "fix")
    assert ds.images.shape == (2, 1, 3, 4)
    assert ds.images.dtype == np.float32
    np.testing.assert_allclose(ds.images[:, 0], images / 255.0, atol=1e-7)
    assert np.array_equal(ds.labels, labels.astype(np.int64))
    assert ds.name == "fix"


def test_load_idx_bad_magic(idx_pair, tmp_path):
    ip, lp, *_ = idx_pair
    bad = tmp_path / "bad"
    bad.write_bytes(b"\x00\x00\x09\x03" + ip.read_bytes()[4:])
    with pytest.raises(DataFormatError) as exc:
        load_idx(bad, lp)
    assert "magic" in str(exc.value)


def test_load_idx_truncated_and_trailing(idx_pair, tmp_path):
    ip, lp, *_ = idx_pair
    blob = ip.read_bytes()
    short = tmp_path / "short"
    short.write_bytes(blob[:-3])
    with pytest.raises(DataFormatError) as exc:
        load_idx(short, lp)
    assert "truncated" in str(exc.value)
    longer = tmp_path / "long"
    longer.write_bytes(blob + b"\x00\x00")
    with pytest.raises(DataFormatError) as exc:
        load_idx(longer, lp)
    assert "trailing" in str(exc.value)


def test_load_idx_count_mismatch(idx_pair, tmp_path):
    ip, _, _, _ = idx_pair
    lp3 = tmp_path / "labs3"
    lp3.write_bytes(idx_labels_bytes([0, 1, 2]))
    with pytest.raises(DataFormatError) as exc:
        load_idx(ip, lp3)
    assert "N=2" in str(exc.value) and "N=3" in str(exc.value)


def test_load_idx_missing_file(tmp_path):
    with pytest.raises(MissingArtifactError):
        load_idx(tmp_path / "nope", tmp_path / "nope2")


@pytest.mark.parametrize("dtype", [np.uint8, np.float32, np.float64,
                                   np.int32, np.int64])
def test_npy_round_trip_bitwise(tmp_path, dtype):
    gen = np.random.default_rng(0)
    arr = (gen.integers(0, 200, (3, 4, 5)) if np.issubdtype(dtype, np.integer)
           else gen.normal(size=(3, 4, 5)) * 100).astype(dtype)
    p = tmp_path / "a.npy"
    save_npy(p, arr)
    back = load_npy(p, scale_u8=False)
    assert back.dtype == arr.dtype
    assert np.array_equal(back, arr)


def test_npy_interchange_with_numpy_writer(tmp_path):
    arr = np.array([[1, 2], [3, 4]], dtype=np.int64)
    p = tmp_path / "np.npy"
    np.save(p, arr)
    assert np.array_equal(load_npy(p), arr)
    q = tmp_path / "ours.npy"
    save_npy(q, arr)
    assert np.array_equal(np.load(q), arr)


def test_npy_u8_scaling_toggle(tmp_path):
    arr = np.array([0, 51, 255], dtype=np.uint8)
    p = tmp_path / "u8.npy"
    save_npy(p, arr)
    scaled = load_npy(p)
    assert scaled.dtype == np.float32
    np.testing.assert_allclose(scaled, [0.0, 0.2, 1.0])
    raw = load_npy(p, scale_u8=False)
    assert np.array_equal(raw, arr)


@pytest.mark.parametrize("shape", [(0,), (3, 0, 2), (7,), (2, 3, 4, 5)])
@pytest.mark.parametrize("dtype", [np.uint8, np.float32, np.float64,
                                   np.int32, np.int64])
def test_save_npy_writes_exactly_numpys_bytes(tmp_path, dtype, shape):
    arr = np.arange(math.prod(shape), dtype=dtype).reshape(shape)
    save_npy(tmp_path / "ours.npy", arr)
    np.save(tmp_path / "numpy.npy", arr)
    assert ((tmp_path / "ours.npy").read_bytes() ==
            (tmp_path / "numpy.npy").read_bytes())


def npy_v1_bytes(header, payload):
    head = header.encode("latin1")
    return b"\x93NUMPY\x01\x00" + len(head).to_bytes(2, "little") + head + payload


def test_npy_rejects_malformed(tmp_path):
    cases = {
        "fortran": ("{'descr': '<f4', 'fortran_order': True, 'shape': (1,)}",
                    b"\x00" * 4),
        "dtype": ("{'descr': '>f8', 'fortran_order': False, 'shape': (1,)}",
                  b"\x00" * 8),
        "extrakey": ("{'descr': '<f4', 'fortran_order': False, 'shape': (1,),"
                     " 'x': 1}", b"\x00" * 4),
        "shape": ("{'descr': '<f4', 'fortran_order': False, 'shape': [1]}",
                  b"\x00" * 4),
        "short": ("{'descr': '<f4', 'fortran_order': False, 'shape': (9,)}",
                  b"\x00" * 4),
        "trailing": ("{'descr': '<f4', 'fortran_order': False, 'shape': (1,)}",
                     b"\x00" * 9),
        "syntax": ("{'descr': ", b""),
    }
    for name, (header, payload) in cases.items():
        p = tmp_path / f"{name}.npy"
        p.write_bytes(npy_v1_bytes(header, payload))
        with pytest.raises(DataFormatError):
            load_npy(p)
    bad_magic = tmp_path / "magic.npy"
    bad_magic.write_bytes(b"NOTNPY\x01\x00" + b"\x00" * 16)
    with pytest.raises(DataFormatError):
        load_npy(bad_magic)
    bad_ver = tmp_path / "ver.npy"
    bad_ver.write_bytes(b"\x93NUMPY\x09\x00" + b"\x00" * 16)
    with pytest.raises(DataFormatError):
        load_npy(bad_ver)


@pytest.mark.parametrize("shape", [(2**32, 2**32), (2**62, 4), (2**64,)])
def test_load_npy_counts_a_huge_shape_in_python_ints(tmp_path, shape):
    """An element count past int64 wraps in np.prod (to 0 for 2**64
    elements), so the empty payload passed the size check and reshape
    raised an untyped ValueError."""
    p = tmp_path / "huge.npy"
    p.write_bytes(npy_v1_bytes(
        "{'descr': '<f4', 'fortran_order': False, 'shape': %r}" % (shape,),
        b""))
    with pytest.raises(DataFormatError, match="truncated payload"):
        load_npy(p)


def npy_peaks(tmp_path, arr, scale_u8=True):
    """(save_npy's, load_npy's) traced peak for arr."""
    path = tmp_path / "a.npy"
    _, save_peak = traced_peak(lambda: save_npy(path, arr))
    back, load_peak = traced_peak(lambda: load_npy(path, scale_u8))
    assert back.tobytes() == (arr.astype(np.float32) / 255.0 if
                              arr.dtype == np.uint8 and scale_u8 else
                              arr).tobytes()
    return save_peak, load_peak


@pytest.mark.parametrize("dtype", [np.float32, np.int64])
def test_npy_save_and_load_hold_at_most_one_array(tmp_path, dtype):
    """save_npy writes the payload from the array itself, and load_npy
    reads it straight into the array it returns: neither holds the
    file's bytes, nor a copy of the array."""
    arr = np.arange(1 << 20, dtype=dtype).reshape(1024, 1, 32, 32)
    save_peak, load_peak = npy_peaks(tmp_path, arr)
    assert save_peak < 1 << 16
    assert load_peak < arr.nbytes + (1 << 16)


def test_npy_load_scales_u8_into_its_one_float_array(tmp_path):
    arr = (np.arange(1 << 20) % 251).astype(np.uint8).reshape(-1, 32, 32)
    _, load_peak = npy_peaks(tmp_path, arr)
    # the float32 output and the u8 payload it is scaled from
    assert load_peak < 5 * arr.nbytes + (1 << 16)


def test_cifar10_parsing(tmp_path):
    gen = np.random.default_rng(1)
    pixels = gen.integers(0, 256, (2, 3072), dtype=np.uint8)
    rec = np.concatenate([np.array([[3], [9]], dtype=np.uint8), pixels],
                         axis=1)
    p = tmp_path / "batch.bin"
    p.write_bytes(rec.tobytes())
    ds = load_cifar10(p)
    assert ds.images.shape == (2, 3, 32, 32)
    assert np.array_equal(ds.labels, [3, 9])
    np.testing.assert_allclose(ds.images.reshape(2, -1),
                               pixels / 255.0, atol=1e-7)


def test_cifar10_rejects_bad_label_and_size(tmp_path):
    bad = tmp_path / "bad.bin"
    rec = bytearray(3073)
    rec[0] = 11
    bad.write_bytes(bytes(rec))
    with pytest.raises(DataFormatError) as exc:
        load_cifar10(bad)
    assert "11" in str(exc.value)
    odd = tmp_path / "odd.bin"
    odd.write_bytes(b"\x00" * 100)
    with pytest.raises(DataFormatError):
        load_cifar10(odd)


def fake_dataset_files():
    images = idx_images_bytes(np.zeros((2, 4, 4), dtype=np.uint8))
    labels = idx_labels_bytes([0, 1])
    return {
        "train-images-idx3-ubyte": images,
        "train-labels-idx1-ubyte": labels,
        "t10k-images-idx3-ubyte": images,
        "t10k-labels-idx1-ubyte": labels,
    }


def fake_manifest(files, pin=True):
    entries = {}
    for logical, payload in files.items():
        gz = gzip.compress(payload, mtime=0)
        entries[logical] = {
            "gz": logical + ".gz",
            "sha256": hashlib.sha256(gz).hexdigest() if pin else None,
        }
    return {"tiny": {"base_url": "http://example.invalid/", "files": entries}}


class CountingOpener:
    def __init__(self, files, corrupt_urls=()):
        self.files = files
        self.corrupt_urls = set(corrupt_urls)
        self.calls = []

    def __call__(self, url):
        self.calls.append(url)
        name = url.rsplit("/", 1)[1][:-3]
        blob = gzip.compress(self.files[name], mtime=0)
        if url in self.corrupt_urls:
            blob = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        return blob


def test_fetch_downloads_verifies_and_caches(tmp_path):
    files = fake_dataset_files()
    manifest = fake_manifest(files)
    opener = CountingOpener(files)
    out = fetch("tiny", out_dir=tmp_path / "tiny", opener=opener,
                manifest=manifest)
    assert len(out) == 4
    assert len(opener.calls) == 4
    for logical, path in out.items():
        assert path.read_bytes() == files[logical]
    sidecar = json.loads((tmp_path / "tiny" / "digests.json").read_text())
    assert set(sidecar) == set(files)

    # warm cache: no further transport activity
    fetch("tiny", out_dir=tmp_path / "tiny", opener=opener, manifest=manifest)
    assert len(opener.calls) == 4

    train, test = load_idx_dir(tmp_path / "tiny", "tiny")
    assert len(train) == 2 and len(test) == 2


def test_fetch_writes_a_key_sorted_sidecar_and_reads_the_unsorted_one(
        tmp_path):
    files = fake_dataset_files()
    manifest = fake_manifest(files)
    ds_dir = tmp_path / "tiny"
    fetch("tiny", out_dir=ds_dir, opener=CountingOpener(files),
          manifest=manifest)
    doc = {name: {"gz_sha256": hashlib.sha256(
                      gzip.compress(payload, mtime=0)).hexdigest(),
                  "sha256": hashlib.sha256(payload).hexdigest()}
           for name, payload in files.items()}
    sidecar = ds_dir / "digests.json"
    assert sidecar.read_bytes() == (
        json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    # the encoding of earlier versions: manifest order, no final newline
    sidecar.write_text(json.dumps(doc, indent=2))
    opener = CountingOpener(files)
    fetch("tiny", out_dir=ds_dir, opener=opener, manifest=manifest)
    assert opener.calls == []
    # files found without a sidecar are adopted, and so written too
    sidecar.unlink()
    fetch("tiny", out_dir=ds_dir, opener=opener, manifest=manifest)
    assert opener.calls == []
    adopted = {name: {"sha256": entry["sha256"]} for name, entry in doc.items()}
    assert sidecar.read_bytes() == (
        json.dumps(adopted, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("sidecar", [DEEP_JSON.encode(), b"{\xff}"])
def test_fetch_treats_an_undecodable_sidecar_as_unreadable(tmp_path, sidecar):
    files = fake_dataset_files()
    opener = CountingOpener(files)
    (tmp_path / "tiny").mkdir()
    (tmp_path / "tiny" / "digests.json").write_bytes(sidecar)
    out = fetch("tiny", out_dir=tmp_path / "tiny", opener=opener,
                manifest=fake_manifest(files))
    assert len(opener.calls) == 4
    for logical, path in out.items():
        assert path.read_bytes() == files[logical]


@pytest.mark.parametrize("sidecar", ["[1]", '{"train-labels-idx1-ubyte": 5}'])
def test_fetch_treats_a_misshapen_sidecar_as_unreadable(tmp_path, sidecar):
    # valid JSON but not an object of objects: the cached file is
    # adopted, the rest are downloaded, and the sidecar is rewritten
    files = fake_dataset_files()
    opener = CountingOpener(files)
    ds_dir = tmp_path / "tiny"
    ds_dir.mkdir()
    (ds_dir / "train-labels-idx1-ubyte").write_bytes(
        files["train-labels-idx1-ubyte"])
    (ds_dir / "digests.json").write_text(sidecar)
    out = fetch("tiny", out_dir=ds_dir, opener=opener,
                manifest=fake_manifest(files))
    assert len(opener.calls) == 3
    for logical, path in out.items():
        assert path.read_bytes() == files[logical]
    assert set(json.loads((ds_dir / "digests.json").read_text())) == set(files)


@pytest.mark.parametrize("digest", [5, "not a digest", ["a"]])
def test_fetch_treats_a_sidecar_digest_that_is_no_hex_string_as_unreadable(
        tmp_path, digest):
    # the good cached file is adopted and its digest pinned again, not
    # quarantined against a digest that no file can have
    files = fake_dataset_files()
    opener = CountingOpener(files)
    ds_dir = tmp_path / "tiny"
    ds_dir.mkdir()
    cached = ds_dir / "train-labels-idx1-ubyte"
    cached.write_bytes(files[cached.name])
    (ds_dir / "digests.json").write_text(
        json.dumps({cached.name: {"sha256": digest}}))
    out = fetch("tiny", out_dir=ds_dir, opener=opener,
                manifest=fake_manifest(files))
    assert len(opener.calls) == 3
    for logical, path in out.items():
        assert path.read_bytes() == files[logical]
    assert not list(ds_dir.glob("*.quarantine"))
    pinned = json.loads((ds_dir / "digests.json").read_text())
    assert pinned[cached.name]["sha256"] == hashlib.sha256(
        files[cached.name]).hexdigest()


def test_fetch_checksum_mismatch_quarantines(tmp_path):
    files = fake_dataset_files()
    manifest = fake_manifest(files)
    url = "http://example.invalid/train-images-idx3-ubyte.gz"
    opener = CountingOpener(files, corrupt_urls=[url])
    with pytest.raises(ChecksumError):
        fetch("tiny", out_dir=tmp_path / "t", opener=opener,
              manifest=manifest)
    assert not (tmp_path / "t" / "train-images-idx3-ubyte").exists()
    assert list((tmp_path / "t").glob("*.quarantine"))


def test_fetch_detects_cache_tampering(tmp_path):
    files = fake_dataset_files()
    manifest = fake_manifest(files)
    opener = CountingOpener(files)
    out = fetch("tiny", out_dir=tmp_path / "c", opener=opener,
                manifest=manifest)
    victim = out["train-labels-idx1-ubyte"]
    victim.write_bytes(b"evil")
    with pytest.raises(ChecksumError):
        fetch("tiny", out_dir=tmp_path / "c", opener=opener,
              manifest=manifest)
    assert victim.with_name(victim.name + ".quarantine").exists()


def test_fetch_trust_on_first_use_pins_digest(tmp_path):
    files = fake_dataset_files()
    manifest = fake_manifest(files, pin=False)  # sha256: null
    opener = CountingOpener(files)
    out = fetch("tiny", out_dir=tmp_path / "tofu", opener=opener,
                manifest=manifest)
    out["t10k-labels-idx1-ubyte"].write_bytes(b"swapped")
    with pytest.raises(ChecksumError):
        fetch("tiny", out_dir=tmp_path / "tofu", opener=opener,
              manifest=manifest)


def test_fetch_retries_once_then_fails(tmp_path):
    files = fake_dataset_files()
    manifest = fake_manifest(files)
    attempts = []

    def flaky(url):
        attempts.append(url)
        raise OSError("connection reset")

    with pytest.raises(MissingArtifactError):
        fetch("tiny", out_dir=tmp_path / "r", opener=flaky,
              manifest=manifest)
    assert len(attempts) == 2


# takes the fetch lock of the file named in argv[1], says so, and waits
_HOLD_FETCH_LOCK = """
import sys, time
from pathlib import Path
from nevo.store import FileLock
FileLock(Path(sys.argv[1])).__enter__()
print("held", flush=True)
time.sleep(600)
"""


def test_fetch_is_not_blocked_by_a_killed_lock_holder(tmp_path):
    files = fake_dataset_files()
    manifest = fake_manifest(files)
    target = tmp_path / "k" / "train-images-idx3-ubyte"
    holder = subprocess.Popen([sys.executable, "-c", _HOLD_FETCH_LOCK,
                               str(target)],
                              stdout=subprocess.PIPE, text=True,
                              env=child_env())
    try:
        assert holder.stdout.readline().strip() == "held"
        # while its holder lives, the lock excludes
        with pytest.raises(NevoError):
            with store.FileLock(target, timeout=0.2):
                pass
    finally:
        holder.kill()  # SIGKILL: the holder runs no cleanup
        holder.wait()
        holder.stdout.close()
    start = time.monotonic()
    out = fetch("tiny", out_dir=tmp_path / "k", opener=CountingOpener(files),
                manifest=manifest)
    assert time.monotonic() - start < 5.0
    assert out["train-images-idx3-ubyte"].read_bytes() == \
        files["train-images-idx3-ubyte"]


def test_fetch_unknown_dataset():
    with pytest.raises(ConfigError):
        fetch("imagenet", manifest={"tiny": {}})


def cifar_dir(root):
    """Fake CIFAR-10 directory: five data batches of 3 records and a
    test batch of 4."""
    gen = np.random.default_rng(5)
    root.mkdir()
    for name, n in [(f"data_batch_{i}.bin", 3) for i in range(1, 6)] + [
            ("test_batch.bin", 4)]:
        records = np.concatenate(
            [gen.integers(0, 10, (n, 1), dtype=np.uint8),
             gen.integers(0, 256, (n, 3072), dtype=np.uint8)], axis=1)
        (root / name).write_bytes(records.tobytes())
    return root


def source(tmp_path, name) -> tuple:
    """(data section, (train, test) from the direct loader calls) of a
    small fake source of dataset `name`."""
    if name == "synthetic":
        synth = SynthSection(n_train=40, n_test=20, classes=3,
                             shape=(1, 6, 6), seed=4)
        return DataSection(synthetic=synth), make_synthetic_pair(
            40, 20, 3, (1, 6, 6), 0.15, RngStream(4))
    if name in MANIFEST:
        root = idx_dir(tmp_path)
        return DataSection(name=name, dir=str(root)), tuple(
            load_idx(root / f"{stem}-images-idx3-ubyte",
                     root / f"{stem}-labels-idx1-ubyte", f"{name}/{split}")
            for split, stem in zip(SPLITS, ("train", "t10k")))
    root = cifar_dir(tmp_path / "cifar")
    return DataSection(name=name, dir=str(root)), (
        load_cifar10([root / f"data_batch_{i}.bin" for i in range(1, 6)],
                     f"{name}/train"),
        load_cifar10(root / "test_batch.bin", f"{name}/test"))


@pytest.mark.parametrize("limits", [(0, 0), (7, 3)])
@pytest.mark.parametrize("splits", [SPLITS, ("train",), ("test",)])
@pytest.mark.parametrize("name", DATASET_NAMES)
def test_load_splits_serves_every_dataset_as_its_direct_loader(
        tmp_path, name, splits, limits):
    """Every listed name is a valid data section, and load_splits returns
    bitwise what the direct loader returns, cut to the limits; a split
    not asked for is None."""
    section, direct = source(tmp_path, name)
    got = load_splits(replace(section, train_limit=limits[0],
                              test_limit=limits[1]), splits)
    for split, ds, want, limit in zip(SPLITS, got, direct, limits):
        if split not in splits:
            assert ds is None
            continue
        n = limit or len(want)
        assert ds.name == want.name == f"{name}/{split}"
        assert len(ds) == n
        for got_arr, want_arr in ((ds.images, want.images[:n]),
                                  (ds.labels, want.labels[:n])):
            assert got_arr.dtype == want_arr.dtype
            assert got_arr.shape == want_arr.shape
            assert got_arr.tobytes() == want_arr.tobytes()


def blob_dataset(n=40, seed=0, shape=(1, 8, 8)):
    train, _ = make_synthetic_pair(n, 0, classes=4, shape=shape, noise=0.1,
                                   stream=RngStream(seed))
    return train


def test_augment_multiplier_and_label_tiling():
    ds = blob_dataset(10)
    out = augment(ds, 3, stream=RngStream(1))
    assert len(out) == 30
    assert np.array_equal(out.images[:10], ds.images)
    assert np.array_equal(out.labels, np.tile(ds.labels, 3))
    assert not np.array_equal(out.images[10:20], ds.images)


def test_augment_zero_transform_is_identity():
    ds = blob_dataset(6)
    out = augment(ds, 2, max_shift_px=0, max_rotate_deg=0.0,
                  stream=RngStream(2))
    assert np.array_equal(out.images[6:], ds.images)


def test_augment_multiplier_one_is_noop():
    ds = blob_dataset(5)
    assert augment(ds, 1) is ds
    with pytest.raises(ConfigError):
        augment(ds, 0)


def augment_oracle(data, multiplier, stream):
    """augment built with a concatenate: the originals, then one
    separately warped copy per extra multiple, on the same draws."""
    gen = stream.generator()
    n = len(data)
    parts = [data.images]
    for _ in range(multiplier - 1):
        shifts = gen.integers(-2, 3, size=(n, 2)).astype(np.float64)
        angles = gen.uniform(-15.0, 15.0, n)
        parts.append(data_mod._affine_bilinear(data.images, angles, shifts,
                                               np.ones(n)))
    return np.concatenate(parts)


@pytest.mark.parametrize("m", [2, 3])
def test_augment_bytes_equal_the_concatenated_copies(m):
    # a partial last warp chunk in every copy
    ds = blob_dataset(2 * (data_mod._WARP_CHUNK_ELEMS // (28 * 28)) + 5,
                      shape=(1, 28, 28))
    out = augment(ds, m, stream=RngStream(7))
    want = augment_oracle(ds, m, RngStream(7))
    assert out.images.dtype == want.dtype and out.images.shape == want.shape
    assert out.images.tobytes() == want.tobytes()
    assert out.labels.tobytes() == np.tile(ds.labels, m).tobytes()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="before 3.11 the "
                    "caller's stack holds a call's arguments until it returns")
@pytest.mark.parametrize("m", [2, 3])
def test_augment_peak_is_its_output_plus_one_warp(monkeypatch, m):
    """Handed the only reference to its input, augment frees the N
    originals once they are copied into its m*N-row output, so from the
    first warp on it holds that output and one warp's flat scratch:
    warping from the originals would keep N more rows alive."""
    monkeypatch.setattr(data_mod, "_WARP_CHUNK_ELEMS", 1 << 12)
    ds = blob_dataset(1000, shape=(1, 28, 28))
    n = len(ds)

    def one_warp():
        # augment's draws for one copy and its warp
        gen = RngStream(1).generator()
        shifts = gen.integers(-2, 3, size=(n, 2)).astype(np.float64)
        angles = gen.uniform(-15.0, 15.0, n)
        return data_mod._affine_bilinear(ds.images, angles, shifts,
                                         np.ones(n))

    warp, peak = traced_peak(one_warp)
    scratch = peak - warp.nbytes
    real_warp, warps = data_mod._affine_bilinear, []

    def warp_from_here(*args, **kwargs):
        if not warps:
            tracemalloc.reset_peak()
        warps.append(1)
        return real_warp(*args, **kwargs)

    monkeypatch.setattr(data_mod, "_affine_bilinear", warp_from_here)
    out, peak = traced_peak(lambda: augment(
        Dataset(ds.images.copy(), ds.labels), m, stream=RngStream(1)))
    assert len(out) == m * n and len(warps) == m - 1
    # 64 KiB of room for small Python objects; the N originals are 3 MiB
    assert peak <= m * ds.images.nbytes + scratch + (1 << 16)


def warp_inputs(n, seed=0):
    """n random 28x28 images with per-sample rotations, integer shifts
    and zooms."""
    gen = np.random.default_rng(seed)
    images = gen.random((n, 1, 28, 28), dtype=np.float32)
    return (images, gen.uniform(-35.0, 35.0, n),
            gen.integers(-3, 4, (n, 2)).astype(np.float64),
            gen.uniform(0.8, 1.5, n))


def warp_scratch_bytes(n):
    """Peak traced memory of one warp of n images, less its output."""
    args = warp_inputs(n)
    out, peak = traced_peak(lambda: data_mod._affine_bilinear(*args))
    return peak - out.nbytes


def test_affine_bilinear_scratch_memory_is_flat_in_n():
    small, large = warp_scratch_bytes(250), warp_scratch_bytes(2000)
    assert large <= 1.5 * small


def test_affine_bilinear_writes_into_out_and_returns_it():
    n = 7
    args = warp_inputs(n, seed=2)
    buf = np.full((2 * n, 1, 28, 28), np.nan, dtype=np.float32)
    view = buf[n:]
    assert data_mod._affine_bilinear(*args, out=view) is view
    assert view.tobytes() == data_mod._affine_bilinear(*args).tobytes()
    assert np.isnan(buf[:n]).all()


def test_affine_bilinear_chunks_equal_per_sample_warps():
    n = data_mod._WARP_CHUNK_ELEMS // (28 * 28) + 3
    images, angles, shifts, zooms = warp_inputs(n, seed=1)
    out = data_mod._affine_bilinear(images, angles, shifts, zooms)
    for i in range(n):
        one = data_mod._affine_bilinear(images[i:i + 1], angles[i:i + 1],
                                        shifts[i:i + 1], zooms[i:i + 1])
        assert np.array_equal(out[i], one[0]), i


@pytest.mark.parametrize("c", [1, 3])
def test_affine_bilinear_matches_fancy_index_oracle(c):
    # a partial last chunk, shifts past the canvas edge, zooms in and
    # out, negative pixels (so -0.0 products) and a few non-finite ones
    n = 2 * (data_mod._WARP_CHUNK_ELEMS // (c * 28 * 28)) + 5
    gen = np.random.default_rng(30 + c)
    images = gen.normal(size=(n, c, 28, 28)).astype(np.float32)
    flat = images.reshape(-1)
    flat[gen.integers(0, flat.size, 6)] = [np.nan, np.inf, -np.inf] * 2
    args = (images, gen.uniform(-180.0, 180.0, n),
            gen.uniform(-40.0, 40.0, (n, 2)), gen.choice([0.5, 1.0, 1.52], n))
    got = data_mod._affine_bilinear(*args)
    want = affine_bilinear_reference(*args, data_mod._WARP_CHUNK_ELEMS)
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("c", [1, 3])
def test_affine_bilinear_shared_transforms_match_the_oracle(c):
    """Each transform's map applied to every sample that shares it:
    more transforms than one chunk of maps, one transform on more
    samples than one group, transforms that differ only in the sign of
    a zero shift, a NaN angle, and negative, NaN and inf pixels."""
    step = data_mod._WARP_CHUNK_ELEMS // (c * 28 * 28)
    gen = np.random.default_rng(50 + c)
    table = [(15.0, 0.0, 0.0, 1.0), (-15.0, 0.0, 0.0, 1.0),
             (0.0, 0.0, 1.0, 1.0), (0.0, -0.0, 1.0, 1.0),
             (np.nan, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.52)]
    table += [(a, y, x, 1.0) for a, y, x in
              zip(gen.uniform(-35.0, 35.0, step), gen.integers(-3, 4, step),
                  gen.integers(-3, 4, step))]
    table = np.array(table)
    pick = np.concatenate([np.zeros(2 * step + 1, dtype=int),
                           gen.integers(0, len(table), 3 * step)])
    gen.shuffle(pick)
    n = len(pick)
    images = gen.normal(size=(n, c, 28, 28)).astype(np.float32)
    flat = images.reshape(-1)
    flat[gen.integers(0, flat.size, 6)] = [np.nan, np.inf, -np.inf] * 2
    args = (images, table[pick, 0], table[pick, 1:3], table[pick, 3])
    transforms, key = data_mod._transform_keys(*args[1:])
    # one transform per table row drawn, numbered by first occurrence
    pairs = set(zip(pick.tolist(), key.tolist()))
    assert len(pairs) == len(transforms) == len(np.unique(pick)) > step
    assert np.all(np.diff(np.unique(key, return_index=True)[1]) > 0)
    with np.errstate(invalid="ignore"):  # the NaN angle's integer casts
        got = data_mod._affine_bilinear(*args)
        want = affine_bilinear_reference(*args, data_mod._WARP_CHUNK_ELEMS)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind,most", [("rotate", 2), ("scale", 1)])
def test_corrupt_builds_one_map_per_distinct_transform(monkeypatch, kind,
                                                       most):
    """rotate turns every sample by +-magnitude and scale zooms all by
    one factor, so a 1000-sample set needs at most 2 maps and 1."""
    real_maps, built = data_mod._bilinear_maps, []

    def maps_spy(transforms, *args):
        built.append(len(transforms))
        return real_maps(transforms, *args)

    monkeypatch.setattr(data_mod, "_bilinear_maps", maps_spy)
    ds = make_synthetic_pair(1, 1000, splits=("test",))[1]
    corrupt(ds, kind, 3, RngStream(5))
    assert 1 <= sum(built) <= most


def test_translate_shifts_content():
    img = np.zeros((1, 1, 9, 9), dtype=np.float32)
    img[0, 0, 4, 4] = 1.0
    ds = Dataset(img, np.zeros(1, dtype=np.int64))
    out = corrupt(ds, "translate", 2, RngStream(3))
    assert out.images.sum() > 0.99  # mass preserved inside the canvas
    assert out.images[0, 0, 4, 4] != 1.0  # and moved somewhere else


def test_all_native_corruptions_run_and_stay_bounded():
    ds = blob_dataset(12)
    for kind in SEVERITY_TABLES:
        for severity in (1, 5):
            out = corrupt(ds, kind, severity, RngStream(4))
            assert out.images.shape == ds.images.shape
            assert out.images.min() >= 0.0 and out.images.max() <= 1.0
            assert np.array_equal(out.labels, ds.labels)
            assert f"{kind}:{severity}" in out.name


# sha256 prefixes of corrupt(split, kind, severity, RngStream(5)).images
# for severities 1..5, taken from the whole-split implementation
# (NumPy 2.4, x86-64 Linux); chunking the passes must move no bit
CORRUPT_DIGESTS = {
    "synthetic": {
        "gaussian_noise": ("d057151939141a4b", "106dda6a886c7623",
                           "ad6e4c93fa68ab8e", "83fdb5417f6288aa",
                           "5457b390ee692612"),
        "shot_noise": ("27cdec307a33cf23", "1b0250af1709534a",
                       "901a9ea7f2c5c025", "1023431803ec0036",
                       "c66cdd099f509cce"),
        "impulse_noise": ("653baee0cb021891", "73ccbfa1d75dd671",
                          "62bf0762cce34b97", "dbf9456294ac55a8",
                          "5ee5f1fc49709d03"),
        "brightness": ("c3b7a2f5f5ec82d4", "9039f85ee8dd6489",
                       "5268a27b6e6d72e1", "16a66a5778af4ce9",
                       "e1682db8ce093fd2"),
        "contrast": ("3b6fdd2246837c45", "cad9010316df0b82",
                     "f81d352ae91f9302", "2c433ebd0f5c2c88",
                     "e89390ad7a35b698"),
        "translate": ("d13152919eed0c91", "838ce706c8fb9f0a",
                      "2d6046e75acb8cdb", "1e15ec0cb8e4054a",
                      "0baab3b4cec3a4e9"),
        "rotate": ("d6393ea9a27d19fd", "710b8aa00e10eb5c",
                   "94f465c93cea6410", "b6f44ed9a6f2cd55",
                   "ba817120efad8410"),
        "scale": ("201dc02e96980989", "417d434ba3136112",
                  "74e19a6cdae631db", "1f7c6532119cd390",
                  "2ee57c2a83a4b20c"),
        "pixelate": ("8319f4f1bfe14e6a", "e103a8f4fe296b5b",
                     "b61e6f7f40fe9a06", "65c560d57c168283",
                     "31484c1e7776bff2"),
        "stripe": ("689bb4ee0d5f3180", "dc644cef6781044d",
                   "430bf1f3322b983f", "9b3fee35f2896ad0",
                   "a54d698e1423e1e4"),
    },
    "rgb": {
        "gaussian_noise": ("098ba4ee14f01fc4", "9d04fec9bf8cf47f",
                           "ac10d4ef29b5bf35", "1c9ccf8a2dc80cad",
                           "41914aada291da6e"),
        "shot_noise": ("9a2ea7febde8f6d7", "4290aa4306b3c4c4",
                       "28988a5e34af4f67", "244424d2c0f3a5c1",
                       "0eb1af2fcf0f4902"),
        "impulse_noise": ("e8c854242e16c091", "df5444f670b59762",
                          "9bbbfe93ffaaa946", "9172b6403ae103d9",
                          "34d6bee8e8034618"),
        "brightness": ("1fa2c0d83b50d0fc", "32007170b63854ed",
                       "07246376fc9e6e57", "d2343807b9bfd05d",
                       "0409fcf1225bbee9"),
        "contrast": ("c2bc105d83628b84", "78ddd604f370d482",
                     "dfa8e7c76f76278e", "16cfc8899f5e5461",
                     "5985c99bd5746460"),
        "translate": ("49f28614b456f29e", "1f3dab057fbbc963",
                      "589d28f066e2e91d", "aaced387e3cc4089",
                      "b30551aaffba567f"),
        "rotate": ("f5e3b72d179ebbb6", "0339573fd82d1899",
                   "ded0ee94b3eda0c4", "275a903197413cad",
                   "0a4d44ac91036ca2"),
        "scale": ("31c2f8dbce11ecf0", "30130a849cc23efb",
                  "61d521fb5a32feab", "f277cd7733ffdfab",
                  "573f6aac43edb036"),
        "pixelate": ("821603c36f3ebb9a", "4d75414932187531",
                     "96bec02d9c4bca98", "8ca192aebfb41de1",
                     "8ad26c3c573eabee"),
        "stripe": ("5c56474d15280273", "f21cdf03774c4e16",
                   "bc7cbb2557d8301b", "050c8d17a2faf161",
                   "0f4fbfa3c0bd3192"),
    },
}


def digest_split(name):
    """The 300-sample default synthetic test split, or 101 random RGB
    32x32 images: odd N, so chunks of either end mid-split."""
    if name == "synthetic":
        return make_synthetic_pair(1, 300, splits=("test",))[1]
    gen = np.random.default_rng(11)
    return Dataset(gen.random((101, 3, 32, 32), dtype=np.float32),
                   gen.integers(0, 10, 101), "rgb")


@pytest.mark.parametrize("chunk_elems", [None, 1000])
@pytest.mark.parametrize("kind", sorted(SEVERITY_TABLES))
@pytest.mark.parametrize("split", sorted(CORRUPT_DIGESTS))
def test_corrupt_bytes_match_the_pinned_digests(monkeypatch, split, kind,
                                                chunk_elems):
    """The default chunks, and chunks of one or a few samples."""
    if chunk_elems:
        for name in ("_CORRUPT_CHUNK_ELEMS", "_WARP_CHUNK_ELEMS"):
            monkeypatch.setattr(data_mod, name, chunk_elems)
    ds = digest_split(split)
    got = tuple(hashlib.sha256(corrupt(ds, kind, severity, RngStream(5))
                               .images.tobytes()).hexdigest()[:16]
                for severity in range(1, 6))
    assert got == CORRUPT_DIGESTS[split][kind]


def test_native_corruptions_raise_no_runtime_warning():
    """No kind at any severity overflows, divides by zero or casts an
    invalid value on the digest splits."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for split in sorted(CORRUPT_DIGESTS):
            ds = digest_split(split)
            for kind in sorted(SEVERITY_TABLES):
                for severity in range(1, 6):
                    corrupt(ds, kind, severity, RngStream(5))


class NoDraws:
    """A stream whose generator must never be made."""

    def generator(self):
        raise AssertionError("corrupt drew before checking its magnitude")


@pytest.mark.parametrize("kind,magnitude", [
    ("scale", 0.0), ("scale", -1.2), ("scale", math.inf),
    ("rotate", math.nan), ("translate", -math.inf), ("brightness", math.nan),
    ("gaussian_noise", -0.1)])
def test_corrupt_refuses_a_magnitude_outside_its_domain(kind, magnitude):
    """A zero zoom or a non-finite geometric magnitude made all-NaN
    images, and a negative sigma numpy's untyped ValueError; none of
    them keeps the output in [0, 1]."""
    with pytest.raises(ConfigError, match="^/corrupt/magnitude: "):
        corrupt(blob_dataset(3), kind, 1, NoDraws(), magnitude=magnitude)


def test_corrupt_peak_is_its_output_plus_fixed_scratch():
    """Every kind writes one output array and draws its noise chunk by
    chunk: on 4096 MNIST-shaped samples (12.25 MiB) the peak is the
    output, impulse_noise's one-byte flip mask, and at most 3 MiB of
    chunk scratch (a warp's, and the per-sample warp parameters, are
    the largest).  A whole-split float64 draw alone is 24.5 MiB."""
    ds = make_synthetic_pair(1, 4096, splits=("test",))[1]
    for kind in SEVERITY_TABLES:
        out, peak = traced_peak(lambda: corrupt(ds, kind, 5, RngStream(1)))
        mask = ds.images.size if kind == "impulse_noise" else 0
        assert peak < out.images.nbytes + mask + (3 << 20), kind


def test_corrupt_never_writes_its_input_and_clips_like_a_copy(monkeypatch):
    """corrupt clips its own fresh array in place: the caller's images
    keep their bytes, and the output is the out-of-place clip of what
    the corruption made."""
    ds = blob_dataset(12)
    before = ds.images.tobytes()
    real_clip = np.clip
    unclipped = []

    def clip_spy(a, *args, **kwargs):
        unclipped.append(np.array(a, copy=True))
        return real_clip(a, *args, **kwargs)

    monkeypatch.setattr(np, "clip", clip_spy)
    for kind in SEVERITY_TABLES:
        for severity in (1, 5):
            out = corrupt(ds, kind, severity, RngStream(4))
            assert ds.images.tobytes() == before, (kind, severity)
            want = real_clip(unclipped[-1], 0.0, 1.0)
            assert out.images.dtype == want.dtype
            assert out.images.tobytes() == want.tobytes(), (kind, severity)


def test_corruption_zero_magnitude_identities():
    ds = blob_dataset(8)
    for kind, mag in [("gaussian_noise", 0.0), ("impulse_noise", 0.0),
                      ("brightness", 0.0), ("translate", 0.0),
                      ("rotate", 0.0), ("scale", 1.0), ("pixelate", 1.0)]:
        out = corrupt(ds, kind, 3, RngStream(5), magnitude=mag)
        assert np.array_equal(out.images, ds.images), kind
    # unit contrast gain only round-trips to float precision: (x-c)+c
    out = corrupt(ds, "contrast", 3, RngStream(5), magnitude=1.0)
    np.testing.assert_allclose(out.images, ds.images, atol=1e-7)


def test_gaussian_noise_statistics():
    flat = Dataset(np.full((50, 1, 20, 20), 0.5, dtype=np.float32),
                   np.zeros(50, dtype=np.int64))
    out = corrupt(flat, "gaussian_noise", 3, RngStream(6))
    sigma = SEVERITY_TABLES["gaussian_noise"][2]
    assert sigma == 0.10
    delta = out.images.astype(np.float64) - 0.5
    assert abs(delta.mean()) < 0.01
    assert abs(delta.std() - sigma) < 0.01


def test_shot_noise_severity_monotone():
    ds = blob_dataset(30, seed=7)
    spreads = []
    for severity in range(1, 6):
        out = corrupt(ds, "shot_noise", severity, RngStream(8))
        spreads.append(float(np.mean((out.images - ds.images) ** 2)))
    assert all(a < b for a, b in zip(spreads, spreads[1:]))


def test_stripe_inverts_middle_band():
    ds = blob_dataset(4)
    out = corrupt(ds, "stripe", 5, RngStream(9))
    h = ds.images.shape[2]
    band = max(1, int(round(h * SEVERITY_TABLES["stripe"][4])))
    lo = (h - band) // 2
    np.testing.assert_allclose(out.images[:, :, lo:lo + band],
                               1.0 - ds.images[:, :, lo:lo + band], atol=1e-6)
    assert np.array_equal(out.images[:, :, :lo], ds.images[:, :, :lo])


def test_precomputed_only_corruptions_rejected():
    ds = blob_dataset(3)
    with pytest.raises(UnsupportedCorruptionError):
        corrupt(ds, "fog", 1)
    with pytest.raises(UnsupportedCorruptionError):
        corrupt(ds, "nonexistent_kind", 1)
    with pytest.raises(ConfigError):
        corrupt(ds, "gaussian_noise", 6)


def test_a_second_set_written_mid_write_is_refused(tmp_path, monkeypatch):
    """Two writes into one set directory: the one that starts while the
    other is between its images and its labels is refused, and the first
    set is swapped in whole."""
    ds = blob_dataset(6)
    out, real_save, second = tmp_path / "set", data_mod.save_npy, []

    def save_npy_spy(path, arr):
        if Path(path).name == "labels.npy" and not second:
            second.append(path)
            with pytest.raises(NevoError, match="in use by another nevo"):
                save_corrupted(out, ds, {"kind": "second"})
        real_save(path, arr)

    monkeypatch.setattr(data_mod, "save_npy", save_npy_spy)
    save_corrupted(out, ds, {"kind": "first"})
    assert len(second) == 1
    assert sorted(p.name for p in out.iterdir()) == [
        "images.npy", "labels.npy", "meta.json"]
    (got,) = load_corrupted(out)
    assert np.array_equal(got.images, ds.images)
    assert json.loads((out / "meta.json").read_text())["kind"] == "first"


def test_corrupted_set_round_trip(tmp_path):
    ds = corrupt(blob_dataset(6), "gaussian_noise", 2, RngStream(4))
    save_corrupted(tmp_path / "set", ds, {"kind": "gaussian_noise"})
    assert sorted(p.name for p in (tmp_path / "set").iterdir()) == [
        "images.npy", "labels.npy", "meta.json"]
    meta = json.loads((tmp_path / "set" / "meta.json").read_text())
    assert meta == {"kind": "gaussian_noise", "n": 6}
    for root in (tmp_path / "set", tmp_path):  # one set, or a directory
        (got,) = load_corrupted(root)
        assert got.name == "set" and got.images.dtype == np.float32
        assert np.array_equal(got.images, ds.images)
        assert np.array_equal(got.labels, ds.labels)


def test_load_corrupted_reads_archive_layouts_one_set_at_a_time(tmp_path):
    """A published archive's test_images.npy may be uint8 NHWC or NHW with
    (N, 1) labels; sets load lazily, in name order."""
    rng = np.random.default_rng(0)
    nhwc = rng.integers(0, 256, (5, 6, 6, 3), dtype=np.uint8)
    nhw = rng.integers(0, 256, (5, 6, 6), dtype=np.uint8)
    labels = rng.integers(0, 10, (5, 1)).astype(np.int64)
    for name, images in (("a_color", nhwc), ("b_gray", nhw)):
        save_npy(tmp_path / name / "test_images.npy", images)
        save_npy(tmp_path / name / "test_labels.npy", labels)
    (tmp_path / "c_empty").mkdir()
    sets = load_corrupted(tmp_path)
    color = next(sets)
    assert color.name == "a_color" and color.images.shape == (5, 3, 6, 6)
    assert np.array_equal(color.images,
                          nhwc.transpose(0, 3, 1, 2).astype(np.float32) / 255)
    assert color.labels.dtype == np.int64 and color.labels.shape == (5,)
    # the next set is read only when asked for
    (tmp_path / "b_gray" / "test_images.npy").write_bytes(b"not npy")
    with pytest.raises(DataFormatError):
        next(sets)
    with pytest.raises(MissingArtifactError, match="no images.npy"):
        list(load_corrupted(tmp_path / "c_empty"))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_load_corrupted_rejects_labels_that_are_no_integers(tmp_path, dtype):
    """A float label would be truncated to the class below it."""
    save_npy(tmp_path / "set" / "images.npy", np.zeros((3, 1, 4, 4),
                                                       np.float32))
    save_npy(tmp_path / "set" / "labels.npy",
             np.array([1.7, 2.2, 0.9], dtype=dtype))
    with pytest.raises(DataFormatError, match="labels must be integers"):
        list(load_corrupted(tmp_path))


def test_batches_sizes_and_order():
    ds = blob_dataset(10)
    got = list(batches(ds, 3))
    assert [len(y) for _, y in got] == [3, 3, 3, 1]
    assert np.array_equal(np.concatenate([y for _, y in got]), ds.labels)


def test_batches_shuffle_is_permutation_and_needs_rng():
    ds = blob_dataset(20)
    rng = RngStream(10).generator()
    got = np.concatenate([y for _, y in batches(ds, 7, shuffle=True, rng=rng)])
    assert not np.array_equal(got, ds.labels)
    assert np.array_equal(np.sort(got), np.sort(ds.labels))
    with pytest.raises(ConfigError):
        list(batches(ds, 7, shuffle=True))


def test_make_synthetic_pair_shares_templates():
    train, test = make_synthetic_pair(60, 30, classes=3, shape=(1, 6, 6),
                                      noise=0.05, stream=RngStream(11))
    assert len(train) == 60 and len(test) == 30
    # same-label images across splits are near-identical up to noise
    for label in range(3):
        a = train.images[train.labels == label]
        b = test.images[test.labels == label]
        if len(a) and len(b):
            assert float(np.abs(a.mean(axis=0) - b.mean(axis=0)).mean()) < 0.1


@pytest.mark.parametrize("split", ["train", "test"])
def test_make_synthetic_pair_builds_a_split_alone_bitwise(split):
    kw = dict(classes=3, shape=(1, 6, 6), noise=0.2, stream=RngStream(4))
    both = dict(zip(("train", "test"), make_synthetic_pair(50, 20, **kw)))
    alone = dict(zip(("train", "test"),
                     make_synthetic_pair(50, 20, splits=(split,), **kw)))
    assert [k for k, ds in alone.items() if ds is None] == [
        k for k in ("train", "test") if k != split]
    assert alone[split].name == both[split].name
    assert alone[split].images.dtype == np.float32
    assert alone[split].images.tobytes() == both[split].images.tobytes()
    assert alone[split].labels.tobytes() == both[split].labels.tobytes()


def synthetic_scratch_bytes(n):
    """Peak traced memory of building an n-sample synthetic train split,
    less the split."""
    (train, _), peak = traced_peak(
        lambda: make_synthetic_pair(n, 0, splits=("train",)))
    return peak - train.images.nbytes - train.labels.nbytes


def test_make_synthetic_pair_scratch_memory_is_flat_in_n():
    small, large = synthetic_scratch_bytes(250), synthetic_scratch_bytes(2000)
    assert large <= 1.5 * small


def test_dataset_take():
    ds = blob_dataset(10)
    assert ds.take(0) is ds
    assert ds.take(99) is ds
    cut = ds.take(4)
    assert len(cut) == 4
    assert np.array_equal(cut.images, ds.images[:4])


def test_dataset_shape_validation():
    with pytest.raises(NevoError):
        Dataset(np.zeros((3, 1, 4, 4), dtype=np.float32),
                np.zeros(2, dtype=np.int64))
