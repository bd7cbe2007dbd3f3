"""Dataset ingestion and transformation.

File formats are parsed by hand with explicit bounds checks (IDX, NPY
v1/v2, CIFAR-10 binary records); nothing is ever read past a declared
length, and every malformed-input path raises a typed error instead of
crashing.  Also provides checksum-verified fetching, affine
augmentation, native corruption synthesis and corrupted-set directories,
minibatching, and a synthetic blob dataset for network-free runs.

This module owns the dataset sources: `DATASET_NAMES` lists every name
a config's data section (`DataSection`, `SynthSection`) may give, and
`load_splits` is the one place where a data section becomes a (train,
test) pair of Datasets.
"""

from __future__ import annotations

import ast
import gzip
import hashlib
import math
import os
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (ChecksumError, ConfigError, DataFormatError,
                     MissingArtifactError, NevoError, ShapeMismatchError,
                     UnsupportedCorruptionError)
from .rng import RngStream
from .store import (LEFTOVERS, LOCK, TMP, FileLock, atomic_write,
                    read_bytes, read_json, sibling, write_dir, write_json)


# The two splits every source provides, in the order loaders return them.
SPLITS = ("train", "test")


@dataclass(frozen=True)
class Dataset:
    """Immutable image-classification split.

    images: float32 [N, C, H, W] in [0, 1]; labels: int64 [N].
    """

    images: np.ndarray
    labels: np.ndarray
    name: str = "unnamed"

    def __post_init__(self):
        if self.images.ndim != 4:
            raise ShapeMismatchError(
                f"dataset images must be NCHW, got {tuple(self.images.shape)}")
        if self.labels.ndim != 1 or len(self.labels) != len(self.images):
            raise ShapeMismatchError(
                f"{len(self.images)} images vs labels shape "
                f"{tuple(self.labels.shape)}")

    def __len__(self):
        return len(self.labels)

    def take(self, n: int, name: Optional[str] = None) -> "Dataset":
        """First n samples (all, if n is 0 or exceeds N)."""
        if n <= 0 or n >= len(self):
            return self
        return Dataset(self.images[:n], self.labels[:n], name or self.name)


def _be_u32(buf: bytes, offset: int, what: str) -> int:
    if offset + 4 > len(buf):
        raise DataFormatError(f"truncated header: no room for {what}")
    return int.from_bytes(buf[offset:offset + 4], "big")


_IDX_IMAGES_MAGIC = 2051
_IDX_LABELS_MAGIC = 2049


def _parse_idx(buf: bytes, expect_magic: int, source: str) -> np.ndarray:
    magic = _be_u32(buf, 0, "magic")
    if magic != expect_magic:
        raise DataFormatError(
            f"{source}: bad magic {magic:#010x} (expected {expect_magic:#010x})")
    ndim = magic & 0xFF
    dims = [_be_u32(buf, 4 + 4 * i, f"dimension {i}") for i in range(ndim)]
    if any(d < 0 for d in dims):
        raise DataFormatError(f"{source}: negative dimension")
    need = 1
    for d in dims:
        need *= d
    start = 4 + 4 * ndim
    have = len(buf) - start
    if have < need:
        raise DataFormatError(
            f"{source}: truncated payload, need {need} bytes, have {have}")
    if have > need:
        raise DataFormatError(
            f"{source}: {have - need} trailing bytes after payload")
    return np.frombuffer(buf, dtype=np.uint8, count=need,
                         offset=start).reshape(dims)


def load_idx(images_path, labels_path, name: Optional[str] = None) -> Dataset:
    """Big-endian IDX pair: u8 image tensor (magic 2051) + u8 labels
    (magic 2049).  Pixels come back as float32 in [0, 1]."""
    raw_images = _parse_idx(read_bytes(images_path, "file"),
                            _IDX_IMAGES_MAGIC, str(images_path))
    raw_labels = _parse_idx(read_bytes(labels_path, "file"),
                            _IDX_LABELS_MAGIC, str(labels_path))
    if raw_images.shape[0] != raw_labels.shape[0]:
        raise DataFormatError(
            f"images file has N={raw_images.shape[0]}, labels file has "
            f"N={raw_labels.shape[0]}")
    images = (raw_images.astype(np.float32) / 255.0)[:, None, :, :]
    return Dataset(images, raw_labels.astype(np.int64),
                   name or Path(images_path).stem)


_NPY_MAGIC = b"\x93NUMPY"
_NPY_DTYPES = {"|u1": np.uint8, "<f4": np.float32, "<f8": np.float64,
               "<i4": np.int32, "<i8": np.int64}
_MAX_NPY_HEADER = 1 << 20


def load_npy(path, scale_u8: bool = True) -> np.ndarray:
    """NPY v1/v2 reader (C-order, little-endian payloads only).

    Only the header is read before the payload's size is checked
    against the file's, in Python ints (a shape's element count may
    exceed int64); the payload is then read straight into the returned
    array, so the peak is that array.  u8 payloads are scaled to
    float32 [0, 1] unless scale_u8 is False.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingArtifactError(f"no such file: {path}")
    src = str(path)
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        pre = f.read(12)
        if len(pre) < 10 or pre[:6] != _NPY_MAGIC:
            raise DataFormatError(f"{src}: not an NPY file")
        major, minor = pre[6], pre[7]
        if major == 1:
            hlen, start = int.from_bytes(pre[8:10], "little"), 10
        elif major == 2:
            if len(pre) < 12:
                raise DataFormatError(
                    f"{src}: truncated NPY v2 header length")
            hlen, start = int.from_bytes(pre[8:12], "little"), 12
        else:
            raise DataFormatError(
                f"{src}: unsupported NPY version {major}.{minor}")
        if hlen > _MAX_NPY_HEADER:
            raise DataFormatError(f"{src}: header length {hlen} exceeds limit")
        f.seek(start)
        raw = f.read(hlen)
        if len(raw) < hlen:
            raise DataFormatError(f"{src}: truncated header")
        try:
            header = ast.literal_eval(raw.decode("latin1"))
        except (ValueError, SyntaxError) as exc:
            raise DataFormatError(f"{src}: unparseable NPY header") from exc
        if (not isinstance(header, dict) or
                set(header) != {"descr", "fortran_order", "shape"}):
            raise DataFormatError(f"{src}: malformed NPY header dict")
        if header["fortran_order"] is not False:
            raise DataFormatError(f"{src}: Fortran-order arrays unsupported")
        descr = header["descr"]
        if descr not in _NPY_DTYPES:
            raise DataFormatError(f"{src}: unsupported dtype {descr!r}")
        shape = header["shape"]
        if (not isinstance(shape, tuple) or
                not all(isinstance(v, int) and v >= 0 for v in shape)):
            raise DataFormatError(f"{src}: malformed shape {shape!r}")
        dtype = np.dtype(_NPY_DTYPES[descr])
        need = math.prod(shape) * dtype.itemsize
        have = size - start - hlen
        if have < need:
            raise DataFormatError(
                f"{src}: truncated payload, need {need} bytes, have {have}")
        if have > need:
            raise DataFormatError(f"{src}: {have - need} trailing bytes")
        arr = np.empty(shape, dtype)
        if f.readinto(arr) != need:
            raise DataFormatError(f"{src}: payload shrank while being read")
    if dtype == np.uint8 and scale_u8:
        scaled = arr.astype(np.float32)
        del arr
        scaled /= 255.0
        return scaled
    return arr


_DESCR_OF = {np.dtype(t): descr for descr, t in _NPY_DTYPES.items()}


def save_npy(path, arr: np.ndarray):
    """NPY v1 writer for the dtypes load_npy accepts: np.save's bytes.
    The payload is written from the array's own memory, not a copy."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _DESCR_OF:
        raise DataFormatError(f"save_npy: unsupported dtype {arr.dtype}")
    header = ("{'descr': %r, 'fortran_order': False, 'shape': %r, }"
              % (_DESCR_OF[arr.dtype], tuple(int(v) for v in arr.shape)))
    pad = -(len(_NPY_MAGIC) + 4 + len(header) + 1) % 64
    header = header + " " * pad + "\n"
    atomic_write(path, _NPY_MAGIC + bytes([1, 0]) +
                 len(header).to_bytes(2, "little") + header.encode("latin1"),
                 memoryview(arr))


_CIFAR_RECORD = 3073


def load_cifar10(paths, name: str = "cifar10") -> Dataset:
    """CIFAR-10 binary batches: records of 1 label byte + 3072 pixel
    bytes (RGB planes, 32x32 each)."""
    if isinstance(paths, (str, Path)):
        paths = [paths]
    chunks, labels = [], []
    for path in paths:
        buf = read_bytes(path, "file")
        if len(buf) == 0 or len(buf) % _CIFAR_RECORD != 0:
            raise DataFormatError(
                f"{path}: size {len(buf)} is not a positive multiple of "
                f"{_CIFAR_RECORD}")
        rec = np.frombuffer(buf, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)
        lab = rec[:, 0]
        bad = np.nonzero(lab > 9)[0]
        if bad.size:
            raise DataFormatError(
                f"{path}: label byte {int(lab[bad[0]])} at record "
                f"{int(bad[0])} out of range 0..9")
        labels.append(lab.astype(np.int64))
        chunks.append(rec[:, 1:].reshape(-1, 3, 32, 32))
    images = np.concatenate(chunks).astype(np.float32) / 255.0
    return Dataset(images, np.concatenate(labels), name)


def load_cifar10_dir(ds_dir, name: str, splits=SPLITS) -> tuple:
    """load_idx_dir for a directory of CIFAR-10 binary batches: the five
    `data_batch_*.bin` files are the train split, `test_batch.bin` the test."""
    ds_dir = Path(ds_dir)
    files = {"train": [ds_dir / f"data_batch_{i}.bin" for i in range(1, 6)],
             "test": [ds_dir / "test_batch.bin"]}
    return tuple(load_cifar10(files[split], f"{name}/{split}")
                 if split in splits else None for split in SPLITS)


# --- fetching -------------------------------------------------------------

# sha256 digests cover the gzip archives exactly as served.  The
# fashion split digests are trust-on-first-use (null): the observed
# digest is recorded in the cache sidecar on first fetch and enforced
# from then on.
MANIFEST = {
    "mnist": {
        "base_url": "https://ossci-datasets.s3.amazonaws.com/mnist/",
        "files": {
            "train-images-idx3-ubyte": {
                "gz": "train-images-idx3-ubyte.gz",
                "sha256": "440fcabf73cc546fa21475e81ea370265605f56be210a4024d2ca8f203523609"},
            "train-labels-idx1-ubyte": {
                "gz": "train-labels-idx1-ubyte.gz",
                "sha256": "3552534a0a558bbed6aed32b30c495cca23d567ec52cac8be1a0730e8010255c"},
            "t10k-images-idx3-ubyte": {
                "gz": "t10k-images-idx3-ubyte.gz",
                "sha256": "8d422c7b0a1c1c79245a5bcf07fe86e33eeafee792b84584aec276f5a2dbc4e6"},
            "t10k-labels-idx1-ubyte": {
                "gz": "t10k-labels-idx1-ubyte.gz",
                "sha256": "f7ae60f92e00ec6debd23a6088c31dbd2371eca3ffa0defaefb259924204aec6"},
        },
    },
    "fashion_mnist": {
        "base_url": "http://fashion-mnist.s3-website.eu-central-1.amazonaws.com/",
        "files": {
            "train-images-idx3-ubyte": {"gz": "train-images-idx3-ubyte.gz",
                                        "sha256": None},
            "train-labels-idx1-ubyte": {"gz": "train-labels-idx1-ubyte.gz",
                                        "sha256": None},
            "t10k-images-idx3-ubyte": {"gz": "t10k-images-idx3-ubyte.gz",
                                       "sha256": None},
            "t10k-labels-idx1-ubyte": {"gz": "t10k-labels-idx1-ubyte.gz",
                                       "sha256": None},
        },
    },
}


def cache_dir() -> Path:
    env = os.environ.get("NEVO_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "nevo"


def _default_opener(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=60) as resp:
        return resp.read()


def _load_sidecar(path: Path) -> dict:
    try:
        doc = read_json(path, "digest sidecar")
    except NevoError:
        return {}
    # a JSON object that is not {name: {"sha256": <hex digest>, ...}} is
    # as unreadable as bad bytes
    ok = all(isinstance(v, dict) and _is_digest(v.get("sha256"))
             for v in doc.values())
    return doc if ok else {}


def _is_digest(value) -> bool:
    """value is absent (None) or a sha256 hex digest."""
    return value is None or (isinstance(value, str) and len(value) == 64
                             and all(c in "0123456789abcdef" for c in value))


def fetch(name: str, base_url: Optional[str] = None, out_dir=None,
          opener=None, manifest=None) -> dict:
    """Download-and-verify the four IDX files of a dataset.

    Returns {logical name: decompressed path}.  The gz payload is
    checked against the pinned sha256 before anything lands in the
    cache; mismatches are quarantined.  A warm cache (sidecar digest
    match) performs zero network requests.  One retry per file on
    transport failure.
    """
    manifest = manifest if manifest is not None else MANIFEST
    if name not in manifest:
        raise ConfigError("/fetch/dataset",
                          f"unknown dataset {name!r}; available: "
                          f"{', '.join(sorted(manifest))}")
    entry = manifest[name]
    base = base_url or entry["base_url"]
    opener = opener or _default_opener
    ds_dir = Path(out_dir) if out_dir is not None else cache_dir() / name
    sidecar_path = ds_dir / "digests.json"

    out = {}
    for logical, info in entry["files"].items():
        target = ds_dir / logical
        with FileLock(target):
            sidecar = _load_sidecar(sidecar_path)
            if target.is_file():
                digest = hashlib.sha256(target.read_bytes()).hexdigest()
                known = sidecar.get(logical, {}).get("sha256")
                if known is None:
                    # preexisting file: adopt it and pin its digest
                    sidecar.setdefault(logical, {})["sha256"] = digest
                    write_json(sidecar_path, sidecar)
                    out[logical] = target
                    continue
                if digest == known:
                    out[logical] = target
                    continue
                quarantine = target.with_name(target.name + ".quarantine")
                os.replace(target, quarantine)
                raise ChecksumError(
                    f"{target}: cached file sha256 {digest} != recorded "
                    f"{known}; quarantined at {quarantine}")

            url = base + info["gz"]
            blob = None
            last = None
            for _ in range(2):
                try:
                    blob = opener(url)
                    break
                except Exception as exc:  # transport errors are opener-defined
                    last = exc
            if blob is None:
                raise MissingArtifactError(
                    f"failed to download {url}: {last}")
            gz_digest = hashlib.sha256(blob).hexdigest()
            pinned = info["sha256"]
            if pinned is not None and gz_digest != pinned:
                quarantine = target.with_name(target.name + ".gz.quarantine")
                atomic_write(quarantine, blob)
                raise ChecksumError(
                    f"{info['gz']}: sha256 {gz_digest} != pinned {pinned}; "
                    f"quarantined at {quarantine}")
            try:
                payload = gzip.decompress(blob)
            except (OSError, EOFError) as exc:
                raise DataFormatError(
                    f"{info['gz']}: not a valid gzip stream: {exc}") from exc
            atomic_write(target, payload)
            sidecar.setdefault(logical, {})
            sidecar[logical]["gz_sha256"] = gz_digest
            sidecar[logical]["sha256"] = hashlib.sha256(payload).hexdigest()
            write_json(sidecar_path, sidecar)
            out[logical] = target
    return out


def load_idx_dir(ds_dir, name: str, splits=SPLITS) -> tuple:
    """(train, test) Dataset pair from a directory of the conventionally
    named IDX files.  Only the `train-*` or `t10k-*` pair of a split
    named in `splits` is read; the other split comes back None."""
    ds_dir = Path(ds_dir)
    return tuple(
        load_idx(ds_dir / f"{stem}-images-idx3-ubyte",
                 ds_dir / f"{stem}-labels-idx1-ubyte", f"{name}/{split}")
        if split in splits else None
        for split, stem in zip(SPLITS, ("train", "t10k")))


# Every dataset a data section can name: synthetic blobs drawn from a
# seed, the IDX sets that `fetch` downloads, and CIFAR-10 binary batches.
DATASET_NAMES = ("synthetic", *MANIFEST, "cifar10")


# --- geometry -------------------------------------------------------------


# _affine_bilinear builds the sampling maps of _WARP_CHUNK_ELEMS //
# (C*H*W) transforms at a time and applies a map to that many samples at
# a time; the sizes depend only on the image shape, so memory does not
# grow with N.  A chunk of maps' float64/int64 coordinate and weight
# scratch is over a hundred bytes per pixel, about 2 MiB here (8 MiB at
# 2^16).
_WARP_CHUNK_ELEMS = 1 << 14


def _transform_keys(angles_deg, shifts, zooms) -> tuple:
    """The distinct transforms among the samples, and each sample's.

    A transform is the float64 row (cos, sin, shift y, shift x, 1/zoom)
    the sampling map is computed from, each value made as the per-sample
    warp made it.  Rows are told apart by bit pattern, so -0.0 and +0.0
    differ and a NaN matches only a NaN with its bits.  Returns the
    (k, 5) distinct rows in order of first occurrence and each sample's
    index into them: when no two samples share a transform, those are
    the samples' own rows and arange(n)."""
    theta = np.deg2rad(angles_deg).astype(np.float64)
    rows = np.column_stack([np.cos(theta), np.sin(theta), shifts,
                            1.0 / zooms])
    bits = rows.view(np.uint64)
    # a stable sort keeps equal rows in sample order, so each run of
    # equal rows starts at its first occurrence
    order = np.lexsort(bits.T)
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (bits[order[1:]] != bits[order[:-1]]).any(axis=1)
    first = order[new]
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    key = np.empty_like(order)
    key[order] = rank[np.cumsum(new) - 1]
    return rows[np.sort(first)], key


def _bilinear_maps(transforms: np.ndarray, h: int, w: int, dtype) -> tuple:
    """Sampling maps of k transforms (rows of _transform_keys) on an
    h x w canvas: for each of the four bilinear corners, in the order
    (y0, x0), (y0, x0+1), (y0+1, x0), (y0+1, x0+1), a (k, h*w) array of
    source pixel indices and one of `dtype` weights.  Map j indexes the
    j-th of k stacked canvases (j*h*w plus the clipped pixel), and its
    weight is 0 where the corner falls outside the canvas."""
    k = len(transforms)
    cos, sin, shy, shx, inv = (t[:, None, None] for t in transforms.T)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    # destination -> source mapping (inverse transform); dy varies along
    # rows only and dx along columns only, so they stay (k, h, 1) and
    # (k, 1, w) until the rotation combines them
    dy = np.arange(h, dtype=np.float64)[None, :, None] - cy - shy
    dx = np.arange(w, dtype=np.float64)[None, None, :] - cx - shx
    sy = (cos * dy - sin * dx) * inv + cy
    sx = (sin * dy + cos * dx) * inv + cx

    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    wy = (sy - y0).astype(dtype)
    wx = (sx - x0).astype(dtype)
    del sy, sx
    # per axis and offset: (inside the canvas, clipped flat index, weight
    # factor); a negative int64 viewed as uint64 is >= 2**63, so one
    # unsigned compare tests 0 <= o < size.  The indices are int32: a
    # chunk's k*h*w is at most max(h*w, _WARP_CHUNK_ELEMS)
    base = (np.arange(k, dtype=np.int32) * (h * w))[:, None, None]
    rows = [(oy.view(np.uint64) < h,
             np.clip(oy, 0, h - 1).astype(np.int32) * w + base, f)
            for oy, f in ((y0, 1 - wy), (y0 + 1, wy))]
    cols = [(ox.view(np.uint64) < w,
             np.clip(ox, 0, w - 1).astype(np.int32), f)
            for ox, f in ((x0, 1 - wx), (x0 + 1, wx))]
    index, weight = [], []
    for yin, yi, fy in rows:
        for xin, xi, fx in cols:
            index.append((yi + xi).reshape(k, h * w))
            weight.append((fy * fx * (yin & xin)).reshape(k, h * w))
    return index, weight


def _affine_bilinear(images: np.ndarray, angles_deg: np.ndarray,
                     shifts: np.ndarray, zooms: np.ndarray,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-sample rotate/zoom about the center plus translate, bilinear
    sampling, zero fill outside the canvas.

    With angle 0, shift (0,0), zoom 1 the output is bitwise the input.
    Each output pixel is 0 + v00*w00 + v01*w01 + v10*w10 + v11*w11 in
    the images' dtype, from its four corner pixels and their weights; a
    corner outside the canvas reads a clipped pixel and gets weight 0.

    The sampling map (corner indices and weights) depends only on the
    sample's transform, so it is built once per distinct transform
    (_transform_keys: compared by bit pattern, in order of first
    occurrence), _WARP_CHUNK_ELEMS // (c*h*w) transforms at a time.
    When every sample has its own transform (augment's draws), chunk j
    of maps is chunk j of samples and each corner is one np.take over
    the chunk's (m*h*w, c) pixel rows.  Otherwise each map is applied
    to the samples that share it, in groups of the same size, one
    np.take per corner along the groups' flattened pixels.  Every
    sample is computed on its own with the same operations either way,
    so neither the grouping nor the chunking moves a bit.  Beyond the
    output, the scratch is one chunk of maps, one group of samples and
    a few float64 and index values per sample.

    The warp is written into `out` (a fresh array if None), which must
    have the images' shape and not overlap them; it is returned.
    """
    n, c, h, w = images.shape
    hw = h * w
    transforms, key = _transform_keys(angles_deg, shifts, zooms)
    if out is None:
        out = np.empty_like(images)
    step = max(1, _WARP_CHUNK_ELEMS // (c * hw))
    distinct = len(transforms) == n
    if not distinct:
        order = np.argsort(key, kind="stable")
        bounds = np.searchsorted(key[order], np.arange(len(transforms) + 1))
    for lo in range(0, len(transforms), step):
        index, weight = _bilinear_maps(transforms[lo:lo + step], h, w,
                                       images.dtype)
        m = len(index[0])
        if distinct:
            # the chunk's m samples are its m transforms, in order
            pixels = images[lo:lo + m].transpose(0, 2, 3, 1).reshape(m * hw, c)
            acc = np.zeros((m, hw, c), dtype=images.dtype)
            for idx, wgt in zip(index, weight):
                vals = np.take(pixels, idx, axis=0)          # [m, h*w, c]
                vals *= wgt[..., None]
                acc += vals
            out[lo:lo + m] = acc.reshape(m, h, w, c).transpose(0, 3, 1, 2)
            continue
        for j in range(m):
            local = [idx[j] - j * hw for idx in index]
            members = order[bounds[lo + j]:bounds[lo + j + 1]]
            for g in range(0, len(members), step):
                group = members[g:g + step]
                src = images[group].reshape(len(group), c, hw)
                acc = np.zeros_like(src)
                for idx, wgt in zip(local, weight):
                    vals = np.take(src, idx, axis=2)         # [g, c, h*w]
                    vals *= wgt[j]
                    acc += vals
                out[group] = acc.reshape(len(group), c, h, w)
    return out


def augment(data: Dataset, multiplier: int, max_shift_px: int = 2,
            max_rotate_deg: float = 15.0,
            stream: Optional[RngStream] = None) -> Dataset:
    """Grow a dataset to multiplier*N samples: the originals first,
    then randomly shifted/rotated copies with labels preserved.

    The grown split is one (multiplier*N, C, H, W) array, allocated once.
    The originals are copied into its first N rows, and augment then
    drops its reference to `data` and warps every copy from that first
    block straight into its own N-row block.  When the caller hands
    augment the only reference to `data` (a call's temporary argument,
    on CPython 3.11 or later), the originals are freed before the first
    warp, so the peak is the grown array plus the warp's flat scratch."""
    if multiplier < 1:
        raise ConfigError("/augment/multiplier", "must be >= 1")
    if multiplier == 1:
        return data
    if stream is None:
        stream = RngStream(0)
    gen = stream.generator()
    n = len(data)
    images = np.empty((multiplier * n, *data.images.shape[1:]),
                      dtype=data.images.dtype)
    images[:n] = data.images
    labels = np.tile(data.labels, multiplier)
    name = f"{data.name}/aug{multiplier}"
    del data
    for i in range(1, multiplier):
        shifts = gen.integers(-max_shift_px, max_shift_px + 1,
                              size=(n, 2)).astype(np.float64)
        angles = gen.uniform(-max_rotate_deg, max_rotate_deg, n)
        _affine_bilinear(images[:n], angles, shifts, np.ones(n),
                         out=images[i * n:(i + 1) * n])
    return Dataset(images, labels, name)


# --- corruption -----------------------------------------------------------

# Magnitude per severity 1..5; each row is monotone in distortion
# strength.  These constants are the single source of truth for native
# corruption synthesis.
SEVERITY_TABLES = {
    "gaussian_noise": (0.02, 0.05, 0.10, 0.15, 0.20),   # additive sigma
    "shot_noise": (200.0, 60.0, 25.0, 12.0, 6.0),       # photons/unit
    "impulse_noise": (0.01, 0.03, 0.06, 0.10, 0.17),    # flip probability
    "brightness": (0.05, 0.12, 0.20, 0.30, 0.42),       # additive offset
    "contrast": (0.75, 0.55, 0.40, 0.28, 0.18),         # gain toward 0.5
    "translate": (1.0, 2.0, 3.0, 5.0, 7.0),             # offset px
    "rotate": (5.0, 10.0, 15.0, 25.0, 35.0),            # degrees
    "scale": (1.08, 1.16, 1.26, 1.38, 1.52),            # zoom factor
    "pixelate": (0.7, 0.55, 0.45, 0.35, 0.25),          # kept resolution
    "stripe": (0.08, 0.14, 0.20, 0.28, 0.36),           # inverted band frac
}

# Kernel- or rendering-based corruptions are consumed from published
# NPY archives rather than re-synthesized.
PRECOMPUTED_ONLY = frozenset({
    "gaussian_blur", "glass_blur", "motion_blur", "zoom_blur",
    "defocus_blur", "fog", "frost", "snow", "spatter", "elastic_transform",
    "jpeg_compression", "canny_edges", "dotted_line", "zigzag",
})


# corrupt runs its elementwise kinds over this many elements at a time;
# the chunk size depends only on the image shape, so the noise draws'
# float64 scratch does not grow with N.
_CORRUPT_CHUNK_ELEMS = 1 << 16


def check_corruption(kind: str, severity: int,
                     names: tuple = ("/corrupt/kind", "/corrupt/severity")):
    """Refuse a kind that corrupt does not synthesize and a severity
    outside 1..5, naming them as `names` (the CLI names its flags)."""
    if kind in PRECOMPUTED_ONLY:
        raise UnsupportedCorruptionError(
            f"{names[0]}: corruption {kind!r} is not generated natively; "
            f"load a precomputed NPY archive instead")
    if kind not in SEVERITY_TABLES:
        raise UnsupportedCorruptionError(
            f"{names[0]}: unknown corruption {kind!r}; native kinds: "
            f"{', '.join(sorted(SEVERITY_TABLES))}")
    ConfigError.check((1 <= severity <= 5, names[1], "must be in 1..5"))


def corrupt(data: Dataset, kind: str, severity: int,
            stream: Optional[RngStream] = None,
            magnitude: Optional[float] = None) -> Dataset:
    """Apply one native corruption at the given severity.

    `magnitude` overrides the severity table entry (useful for
    identity checks at zero distortion); one that is not finite, a
    scale zoom <= 0 and a negative gaussian_noise sigma raise
    ConfigError before any draw.  Labels are untouched; output pixels
    are clamped to [0, 1].

    The output is one array, allocated once and clipped in place at the
    end.  Each elementwise kind fills it over chunks of
    _CORRUPT_CHUNK_ELEMS // (C*H*W) samples, drawing from the one
    generator in sample order, so the bytes are those of one pass over
    the whole split: impulse_noise draws every flip before any salt, as
    that pass did.  The geometric kinds draw their per-sample
    transforms whole and warp with _affine_bilinear, which builds one
    sampling map per distinct transform: at most 2 for rotate
    (+-magnitude), 1 for scale, one per rounded shift for translate.
    The peak is the output plus chunk-sized scratch, and for
    impulse_noise a one-byte flip mask per element.
    """
    check_corruption(kind, severity)
    mag = SEVERITY_TABLES[kind][severity - 1] if magnitude is None else magnitude
    ConfigError.check(
        (math.isfinite(mag), "/corrupt/magnitude", "must be finite"),
        (kind != "scale" or mag > 0, "/corrupt/magnitude",
         "a scale zoom must be > 0"),
        (kind != "gaussian_noise" or mag >= 0, "/corrupt/magnitude",
         "a gaussian_noise sigma must be >= 0"))
    if stream is None:
        stream = RngStream(0)
    gen = stream.generator()
    x = data.images
    n, c, h, w = x.shape
    out = np.empty(x.shape, dtype=x.dtype)
    step = max(1, _CORRUPT_CHUNK_ELEMS // (c * h * w))
    chunks = [slice(lo, lo + step) for lo in range(0, n, step)]

    if kind == "translate":
        phi = gen.uniform(0.0, 2.0 * np.pi, n)
        shifts = np.stack([np.round(mag * np.sin(phi)),
                           np.round(mag * np.cos(phi))], axis=1)
        _affine_bilinear(x, np.zeros(n), shifts, np.ones(n), out=out)
    elif kind == "rotate":
        signs = gen.integers(0, 2, n) * 2 - 1
        _affine_bilinear(x, signs * mag, np.zeros((n, 2)), np.ones(n),
                         out=out)
    elif kind == "scale":
        _affine_bilinear(x, np.zeros(n), np.zeros((n, 2)), np.full(n, mag),
                         out=out)
    elif kind == "impulse_noise":
        flip = np.empty(x.shape, dtype=bool)
        for k in chunks:
            np.less(gen.random(flip[k].shape), mag, out=flip[k])
        for k in chunks:
            salt = gen.integers(0, 2, flip[k].shape).astype(x.dtype)
            out[k] = np.where(flip[k], salt, x[k])
    elif kind == "pixelate":
        sh = max(1, int(round(h * mag)))
        sw = max(1, int(round(w * mag)))
        # each output pixel reads the kept source pixel of its block
        rows = ((np.arange(h) * sh) // h * h) // sh
        cols = ((np.arange(w) * sw) // w * w) // sw
        for k in chunks:
            out[k] = x[k][:, :, rows[:, None], cols]
    else:
        band = max(1, int(round(h * mag)))
        top = (h - band) // 2
        gain = np.asarray(mag, dtype=x.dtype)
        for k in chunks:
            xk, ok = x[k], out[k]
            if kind == "gaussian_noise":
                np.add(xk, gen.normal(0.0, mag, xk.shape).astype(x.dtype),
                       out=ok)
            elif kind == "shot_noise":
                # the float64 quotient is cast on assignment, as astype would
                ok[...] = xk if mag <= 0 else \
                    gen.poisson(xk.astype(np.float64) * mag) / mag
            elif kind == "brightness":
                np.add(xk, gain, out=ok)
            elif kind == "contrast":
                np.subtract(xk, 0.5, out=ok)
                np.multiply(ok, gain, out=ok)
                np.add(ok, 0.5, out=ok)
            else:  # stripe
                ok[...] = xk
                np.subtract(1.0, xk[:, :, top:top + band],
                            out=ok[:, :, top:top + band])

    # `out` is corrupt's own array, so clipping it in place never writes
    # the caller's images
    np.clip(out, 0.0, 1.0, out=out)
    return Dataset(out, data.labels, f"{data.name}/{kind}:{severity}")


_SET_FILES = ("images.npy", "labels.npy", "meta.json")


def check_corrupted_out(out_dir):
    """Refuse an out_dir whose swap by save_corrupted would delete what is
    no set's (the working directory, or an entry other than a set's files
    and their .tmp leftovers), or named like a write's leftover or lock
    (`store.LEFTOVERS`), which load_corrupted skips, or whose lock path
    is a directory, which save_corrupted could not lock."""
    out_dir = Path(out_dir).resolve()
    keep = {*_SET_FILES, *(name + TMP for name in _SET_FILES)}
    foreign = ", ".join(p.name for p in sorted(out_dir.iterdir())
                        if p.name not in keep or not p.is_file()) \
        if out_dir.is_dir() else ""
    ConfigError.check(
        (not Path.cwd().is_relative_to(out_dir), "--out", f"{out_dir} holds "
         f"the working directory, which the set would replace"),
        (out_dir.suffix not in LEFTOVERS, "--out", f"{out_dir}: a name "
         f"ending in {', '.join(LEFTOVERS)} marks a killed write's "
         f"leftover or a lock, which eval --corrupted skips"),
        (not foreign, "--out", f"{out_dir} holds {foreign}, which replacing "
         f"it with the set would delete"))
    lock = sibling(out_dir, LOCK)  # out_dir is not the root, checked above
    ConfigError.check((not lock.is_dir(), "--out",
                       f"{lock} is a directory, not a lock file"))


def save_corrupted(out_dir, data: Dataset, meta: dict):
    """Write data as a corrupted-set directory, swapped in whole
    (`store.write_dir`): images.npy, labels.npy, and meta.json holding
    meta plus the sample count n.  The swap holds the set's
    `store.FileLock`, so a second write into out_dir is refused at once
    instead of clearing this one's half-built <name>.tmp/."""
    def fill(tmp: Path):
        save_npy(tmp / "images.npy", data.images)
        save_npy(tmp / "labels.npy", data.labels)
        write_json(tmp / "meta.json", {**meta, "n": len(data)})
    with FileLock(out_dir, timeout=0):
        write_dir(out_dir, fill)


def _load_set(name: str, img_path: Path, lab_path: Path) -> Dataset:
    images = load_npy(img_path).astype(np.float32, copy=False)
    if images.ndim == 3:
        images = images[:, None, :, :]
    elif (images.ndim == 4 and images.shape[1] not in (1, 3)
          and images.shape[3] in (1, 3)):
        images = images.transpose(0, 3, 1, 2)
    labels = load_npy(lab_path, scale_u8=False)
    if labels.dtype.kind not in "iu":
        raise DataFormatError(
            f"{lab_path}: labels must be integers, not {labels.dtype}")
    return Dataset(images, labels.astype(np.int64).ravel(), name)


def load_corrupted(root):
    """Yield the corrupted sets under root one Dataset at a time: root
    itself when it holds images.npy/labels.npy (or test_images.npy/
    test_labels.npy), else each subdirectory that does, by its name,
    skipping the names a killed write leaves (`store.LEFTOVERS`).

    The generator keeps no reference to a set it yielded, so a caller
    that drops its own holds one set while the next one loads."""
    def pair_in(d: Path):
        for img in (d / "images.npy", d / "test_images.npy"):
            lab = img.with_name(img.name.replace("images", "labels"))
            if img.is_file() and lab.is_file():
                return img, lab
        return None

    root = Path(root)
    if not root.is_dir():
        raise MissingArtifactError(f"{root}: no such directory")
    dirs = [root] if pair_in(root) else sorted(
        p for p in root.iterdir()
        if p.is_dir() and p.suffix not in LEFTOVERS)
    sets = [(d.name, pair) for d in dirs if (pair := pair_in(d))]
    if not sets:
        raise MissingArtifactError(
            f"{root}: no images.npy/labels.npy pairs found")
    for name, (img_path, lab_path) in sets:
        yield _load_set(name, img_path, lab_path)


def batches(data: Dataset, batch_size: int, shuffle: bool = False, rng=None):
    """Yield (images, labels) covering every sample exactly once; the
    last batch may be short."""
    if batch_size < 1:
        raise ConfigError("/bp/batch_size", "must be >= 1")
    n = len(data)
    if shuffle:
        if rng is None:
            raise ConfigError("/bp/seed", "shuffling requires an RNG")
        order = rng.permutation(n)
    else:
        order = np.arange(n)
    for lo in range(0, n, batch_size):
        idx = order[lo:lo + batch_size]
        yield data.images[idx], data.labels[idx]


# Named child streams of a synthetic data seed.  The class templates and
# each split draw from their own stream, so a split built alone is
# bitwise the one built together with the other.
_NS_SYNTH_TEMPLATES = 0
_NS_SYNTH_TRAIN = 1
_NS_SYNTH_TEST = 2

# make_synthetic_pair adds the class templates to this many elements at
# a time; the chunk size depends only on the image shape, so the
# gathered templates never grow with N.
_SYNTH_CHUNK_ELEMS = 1 << 16


def make_synthetic_pair(n_train: int, n_test: int, classes: int = 10,
                        shape=(1, 28, 28), noise: float = 0.15,
                        stream: Optional[RngStream] = None,
                        name: str = "synthetic", splits=SPLITS) -> tuple:
    """(train, test) blob datasets: one coarse random template per class
    plus pixel noise.  Linearly separable enough that small networks
    train on it in seconds, which makes it the stand-in for integration
    runs.

    The templates, the train split and the test split draw from the
    child streams _NS_SYNTH_TEMPLATES, _NS_SYNTH_TRAIN and _NS_SYNTH_TEST
    of `stream`.  Both splits share the templates (independent draws
    would invent disjoint classes and make held-out accuracy
    meaningless), and only the splits named in `splits` are built; the
    other comes back None, so a command pays only for the split it
    reads.
    """
    if stream is None:
        stream = RngStream(0)
    c, h, w = shape
    gen = stream.child(_NS_SYNTH_TEMPLATES).generator()
    coarse = gen.random((classes, c, 7, 7))
    reps_h = -(-h // 7)
    reps_w = -(-w // 7)
    templates = np.kron(coarse, np.ones((1, 1, reps_h, reps_w)))[:, :, :h, :w]
    templates = (0.1 + 0.8 * templates).astype(np.float32)

    def build(split: str, n: int, tag: int) -> Optional[Dataset]:
        if split not in splits:
            return None
        gen = stream.child(tag).generator()
        labels = gen.integers(0, classes, n, dtype=np.int64)
        images = gen.standard_normal((n, c, h, w), dtype=np.float32)
        images *= np.float32(noise)
        step = max(1, _SYNTH_CHUNK_ELEMS // (c * h * w))
        for lo in range(0, n, step):
            images[lo:lo + step] += templates[labels[lo:lo + step]]
        np.clip(images, 0.0, 1.0, out=images)
        return Dataset(images, labels, f"{name}/{split}")

    return (build("train", n_train, _NS_SYNTH_TRAIN),
            build("test", n_test, _NS_SYNTH_TEST))


# --- data sections ---------------------------------------------------------


@dataclass(frozen=True)
class SynthSection:
    n_train: int = 3000
    n_test: int = 1000
    classes: int = 10
    shape: tuple[int, int, int] = (1, 28, 28)
    noise: float = 0.15
    seed: int = 0

    def __post_init__(self):
        ConfigError.check(
            (len(self.shape) == 3 and all(v >= 1 for v in self.shape),
             "/data/synthetic/shape",
             "expected [channels, height, width]"),
            (self.n_train >= 1, "/data/synthetic/n_train", "out of range"),
            (self.n_test >= 1, "/data/synthetic/n_test", "out of range"),
            (self.classes >= 2, "/data/synthetic/classes", "out of range"),
            (self.noise >= 0, "/data/synthetic/noise", "out of range"),
            (self.seed >= 0, "/data/synthetic/seed", "out of range"))


@dataclass(frozen=True)
class DataSection:
    name: str = "synthetic"
    dir: Optional[str] = None
    train_limit: int = 0
    test_limit: int = 0
    augment_multiplier: int = 1
    max_shift_px: int = 2
    max_rotate_deg: float = 15.0
    synthetic: SynthSection = field(default_factory=SynthSection)

    def __post_init__(self):
        ConfigError.check(
            (self.name in DATASET_NAMES, "/data/name",
             f"unknown dataset {self.name!r}; one of "
             f"{', '.join(DATASET_NAMES)}"),
            (self.dir is None or self.name != "synthetic", "/data/dir",
             "the synthetic dataset is generated, not read from a "
             "directory; name the dataset stored there"),
            (self.train_limit >= 0, "/data/train_limit", "out of range"),
            (self.test_limit >= 0, "/data/test_limit", "out of range"),
            (self.augment_multiplier >= 1, "/data/augment_multiplier",
             "out of range"),
            (self.max_shift_px >= 0, "/data/max_shift_px", "out of range"),
            (self.max_rotate_deg >= 0, "/data/max_rotate_deg", "out of range"))


def load_splits(section: DataSection, splits=SPLITS) -> tuple:
    """(train, test) datasets of a data section, cut to its limits and
    read from `section.dir` or the cache.  A split not named in `splits`
    is neither read nor built, and comes back None."""
    if section.name == "synthetic":
        s = section.synthetic
        pair = make_synthetic_pair(s.n_train, s.n_test, s.classes, s.shape,
                                   s.noise, RngStream(s.seed), splits=splits)
    else:
        ds_dir = Path(section.dir or cache_dir() / section.name)
        idx = section.name in MANIFEST
        if idx and not ds_dir.is_dir():
            raise MissingArtifactError(
                f"dataset directory {ds_dir} not found; run "
                f"`nevo fetch --dataset {section.name}` first")
        load_dir = load_idx_dir if idx else load_cifar10_dir
        pair = load_dir(ds_dir, section.name, splits)
    limits = (section.train_limit, section.test_limit)
    return tuple(None if ds is None else ds.take(limit)
                 for ds, limit in zip(pair, limits))


def dataset_fingerprint(section: DataSection, train: Dataset,
                        test: Dataset) -> dict:
    """The manifest's record of the data a run trained and tested on."""
    fp = {"name": section.name, "n_train": len(train), "n_test": len(test)}
    if section.name == "synthetic":
        fp["seed"] = section.synthetic.seed
    return fp
