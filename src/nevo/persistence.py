"""Durable state: binary checkpoints, checkpoint rings, run directories
(`RunDir`), config parsing, and the model-spec JSON format.

Checkpoint layout (all integers little-endian):

    offset  size  field
    0       4     magic b"NEVO"
    4       4     u32 format version (currently 1)
    8       1     u8 dtype tag (0 = float32, 1 = float64)
    9       4     u32 spec JSON length, then that many UTF-8 bytes
    ...     4     u32 metadata JSON length, then that many UTF-8 bytes
    ...     8     u64 d (parameter count)
    ...     d*sz  parameter payload, little-endian
    ...     4     u32 CRC-32 of the payload

Every length is bounds-checked against the file before use; a
checkpoint is self-describing via the embedded spec, so downstream
stages never need the original config to consume one.  Files and
directories are renamed into place whole (`store`).

Config sections and model specs share one JSON schema: a dataclass is
parsed and rendered field by field (`_parse_section`, `_section_doc`),
with a field's ``key`` metadata naming its JSON key.  A spec is an
``input_shape`` list plus one such object per layer, tagged by its
``kind`` (`_LAYER_KINDS`).  Each section dataclass lives next to the
code that consumes it (`data.DataSection`, `training.TrainConfig`,
`evolution.DeConfig`, `evolution.GridSection`); this module defines none
of them and lists them by JSON key in `_SECTIONS`.
"""

from __future__ import annotations

import json
import sys
import zlib
from dataclasses import (MISSING, dataclass, field, fields, is_dataclass,
                         replace)
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from .data import DataSection
from .errors import (CheckpointFormatError, ChecksumError, ConfigError,
                     MissingArtifactError, ShapeMismatchError)
from .network import (Activation, Conv, Dense, Flatten, NetworkSpec, Pool,
                      param_count, zoo_spec)
from .training import CheckpointRing, TrainConfig
from .evolution import DeConfig, DeResult, GridSection
from .store import (FileLock, atomic_write, loads, read_bytes, read_json,
                    remove_path, require, write_dir, write_json)

_MAGIC = b"NEVO"
_VERSION = 1
_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_MAX_JSON = 1 << 24


@dataclass(frozen=True)
class Checkpoint:
    spec: NetworkSpec
    params: np.ndarray
    meta: dict = field(default_factory=dict)


def _canon_json(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    params = ckpt.params
    if params.ndim != 1:
        raise CheckpointFormatError(
            f"checkpoint params must be 1-D, got {tuple(params.shape)}")
    dtype = np.dtype(params.dtype)
    if dtype not in _DTYPE_TAGS:
        raise CheckpointFormatError(f"unsupported parameter dtype {dtype}")
    d = param_count(ckpt.spec)
    if params.shape[0] != d:
        raise CheckpointFormatError(
            f"parameter count {params.shape[0]} does not match spec's {d}")
    payload = np.ascontiguousarray(params, dtype=dtype.newbyteorder("<")).tobytes()
    spec_blob = _canon_json(spec_doc(ckpt.spec))
    meta_blob = _canon_json(ckpt.meta)
    out = bytearray()
    out += _MAGIC
    out += _VERSION.to_bytes(4, "little")
    out.append(_DTYPE_TAGS[dtype])
    out += len(spec_blob).to_bytes(4, "little") + spec_blob
    out += len(meta_blob).to_bytes(4, "little") + meta_blob
    out += params.shape[0].to_bytes(8, "little")
    out += payload
    out += zlib.crc32(payload).to_bytes(4, "little")
    return bytes(out)


def save_checkpoint(ckpt: Checkpoint, path):
    atomic_write(path, checkpoint_bytes(ckpt))


class _Reader:
    def __init__(self, buf: bytes, source: str):
        self.buf = buf
        self.off = 0
        self.source = source

    def take(self, n: int, what: str) -> bytes:
        if n < 0 or self.off + n > len(self.buf):
            raise CheckpointFormatError(
                f"{self.source}: truncated, {what} needs {n} bytes at offset "
                f"{self.off}, file has {len(self.buf)}")
        out = self.buf[self.off:self.off + n]
        self.off += n
        return out

    def u32(self, what: str) -> int:
        return int.from_bytes(self.take(4, what), "little")

    def u64(self, what: str) -> int:
        return int.from_bytes(self.take(8, what), "little")


def parse_checkpoint(buf: bytes, source: str = "<bytes>") -> Checkpoint:
    r = _Reader(buf, source)
    magic = r.take(4, "magic")
    if magic != _MAGIC:
        raise CheckpointFormatError(
            f"{source}: bad magic {magic!r} (expected {_MAGIC!r})")
    version = r.u32("version")
    if version > _VERSION:
        raise CheckpointFormatError(
            f"{source}: format version {version} newer than supported "
            f"{_VERSION}")
    if version < 1:
        raise CheckpointFormatError(f"{source}: bad format version {version}")
    tag = r.take(1, "dtype tag")[0]
    if tag not in _TAG_DTYPES:
        raise CheckpointFormatError(f"{source}: unknown dtype tag {tag}")
    dtype = _TAG_DTYPES[tag]

    spec_len = r.u32("spec length")
    if spec_len > _MAX_JSON:
        raise CheckpointFormatError(
            f"{source}: spec length {spec_len} exceeds limit")
    spec_blob = r.take(spec_len, "spec JSON")
    try:
        spec = parse_spec(loads(spec_blob.decode()), "/spec")
    except (ValueError, ConfigError) as exc:
        raise CheckpointFormatError(
            f"{source}: embedded spec invalid: {exc}") from exc

    meta_len = r.u32("meta length")
    if meta_len > _MAX_JSON:
        raise CheckpointFormatError(
            f"{source}: meta length {meta_len} exceeds limit")
    meta_blob = r.take(meta_len, "meta JSON")
    try:
        meta = loads(meta_blob.decode())
    except ValueError as exc:
        raise CheckpointFormatError(
            f"{source}: metadata invalid: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointFormatError(f"{source}: metadata must be an object")

    d = r.u64("parameter count")
    expected = param_count(spec)
    if d != expected:
        raise CheckpointFormatError(
            f"{source}: parameter count {d} does not match spec's {expected}")
    payload = r.take(d * dtype.itemsize, "parameter payload")
    crc = r.u32("checksum")
    if r.off != len(buf):
        raise CheckpointFormatError(
            f"{source}: {len(buf) - r.off} trailing bytes")
    actual = zlib.crc32(payload)
    if crc != actual:
        raise ChecksumError(
            f"{source}: payload CRC {actual:#010x} != stored {crc:#010x}")
    params = np.frombuffer(payload, dtype=dtype).copy()
    return Checkpoint(spec, params, meta)


def load_checkpoint(path) -> Checkpoint:
    return parse_checkpoint(read_bytes(path, "checkpoint"), str(path))


# --- run-directory JSON ------------------------------------------------------

_INDEX_NAME = "index.json"


def _number(value, where: str, integral: bool = False):
    """value if it is a JSON number (an integer when integral)."""
    if isinstance(value, bool) or not isinstance(
            value, int if integral else (int, float)):
        raise CheckpointFormatError(
            f"{where}: expected {'an integer' if integral else 'a number'}, "
            f"got {value!r}")
    return value


# --- checkpoint rings ---------------------------------------------------------


def save_ring(ring: CheckpointRing, out_dir, spec: NetworkSpec,
              meta: Optional[dict] = None):
    """One checkpoint per retained epoch plus an index with losses."""
    entries = [{"file": f"epoch-{e.epoch:04d}.ckpt", "epoch": e.epoch,
                "train_loss": e.train_loss} for e in ring]

    def fill(tmp: Path):
        for row, e in zip(entries, ring):
            save_checkpoint(Checkpoint(spec, e.params, {
                **(meta or {}), "stage": "bp", "epoch": e.epoch,
                "loss": e.train_loss}), tmp / row["file"])
        write_json(tmp / _INDEX_NAME, {"version": 1, "capacity": ring.capacity,
                                       "entries": entries})
    write_dir(out_dir, fill)


def load_ring(in_dir):
    """Returns (CheckpointRing, NetworkSpec).  Each entry's file must be a
    plain file name inside in_dir, and every entry must share the first
    entry's spec."""
    in_dir = Path(in_dir)
    index_path = in_dir / _INDEX_NAME
    index = read_json(index_path, "ring index", ("capacity", "entries"))
    capacity = _number(index["capacity"], f"{index_path}: capacity",
                       integral=True)
    rows = index["entries"]
    if not isinstance(rows, list) or not rows:
        raise CheckpointFormatError(f"{index_path}: ring has no entries")
    if not len(rows) <= capacity <= sys.maxsize:
        raise CheckpointFormatError(
            f"{index_path}: capacity {capacity} cannot hold {len(rows)} "
            f"entries")
    ring, spec = CheckpointRing(capacity), None
    for i, row in enumerate(rows):
        where = f"{index_path}: entries[{i}]"
        require(row, ("file", "epoch", "train_loss"), where)
        _number(row["epoch"], f"{where}.epoch", integral=True)
        _number(row["train_loss"], f"{where}.train_loss")
        name = row["file"]
        if (not isinstance(name, str) or name in ("", "..") or "\0" in name
                or Path(name).name != name):
            raise CheckpointFormatError(
                f"{index_path}: ring entry {name!r} is not a file name "
                f"inside {in_dir}")
        path = in_dir / name
        if not path.is_file():
            raise MissingArtifactError(
                f"ring entry {name} listed in {index_path} is missing")
        ckpt = load_checkpoint(path)
        if spec is None:
            spec = ckpt.spec
        elif ckpt.spec != spec:
            raise CheckpointFormatError(
                f"{path}: spec differs from the first ring entry's")
        ring.push(row["epoch"], ckpt.params, row["train_loss"])
    return ring, spec


# --- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class Config:
    model_name: Optional[str]
    spec: NetworkSpec
    data: DataSection
    bp: TrainConfig
    de: DeConfig
    grid: GridSection
    document: dict


def _expect_obj(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(path, "expected an object")
    return value


def _reject_unknown(doc: dict, allowed, path: str):
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{path}/{key}", "unknown key")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# field annotation -> the (accepts, message) checks of a JSON value, in order
_TYPE_CHECKS = {
    int: ((_is_number, "expected a number"),
          (lambda v: isinstance(v, int), "expected an integer")),
    float: ((_is_number, "expected a number"),),
    bool: ((lambda v: isinstance(v, bool), "expected a boolean"),),
    str: ((lambda v: isinstance(v, str), "expected a string"),),
    Optional[str]: ((lambda v: v is None or isinstance(v, str),
                     "expected a string"),),
    tuple[int, int, int]: ((lambda v: isinstance(v, list) and len(v) == 3 and
                            all(isinstance(i, int) and not isinstance(i, bool)
                                for i in v),
                            "expected [channels, height, width]"),),
    tuple[float, ...]: ((lambda v: isinstance(v, list) and
                         all(_is_number(x) for x in v),
                         "expected a nonempty list of numbers"),),
}


def _typed(tp, value, path: str):
    """`value` checked against annotation `tp`; a JSON list becomes a tuple
    and an object the dataclass `tp`."""
    if is_dataclass(tp):
        return _parse_section(tp, value, path)
    for accepts, message in _TYPE_CHECKS[tp]:
        if not accepts(value):
            raise ConfigError(path, message)
    return tuple(value) if isinstance(value, list) else value


def _json_key(f) -> str:
    return f.metadata.get("key", f.name)


def _parse_section(cls, doc, path: str):
    """A `cls` from JSON object `doc`, one key per dataclass field; an
    absent key takes the field's default, a field without one is
    required, and the dataclass checks ranges."""
    doc = _expect_obj(doc, path)
    by_key = {_json_key(f): f for f in fields(cls)}
    _reject_unknown(doc, by_key, path)
    hints = get_type_hints(cls)
    values = {}
    for key, f in by_key.items():
        if key in doc:
            values[f.name] = _typed(hints[f.name], doc[key], f"{path}/{key}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}/{key}", "missing required key")
    return cls(**values)


def _section_doc(section) -> dict:
    """The JSON object of a parsed section; the inverse of _parse_section."""
    doc = {}
    for f in fields(section):
        v = getattr(section, f.name)
        doc[_json_key(f)] = (_section_doc(v) if is_dataclass(v) else
                             list(v) if isinstance(v, tuple) else v)
    return doc


_LAYER_KINDS = {"dense": Dense, "conv": Conv, "pool": Pool, "act": Activation,
                "flatten": Flatten}
_KIND_OF = {cls: kind for kind, cls in _LAYER_KINDS.items()}


def _parse_layer(doc, path: str):
    """One layer from its JSON object: the section walk over the fields
    of the class its "kind" names."""
    if not isinstance(doc, dict):
        raise ConfigError(path, "expected an object")
    if "kind" not in doc:
        raise ConfigError(f"{path}/kind", "missing required key")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _LAYER_KINDS:
        raise ConfigError(f"{path}/kind", f"unknown layer kind {kind!r}")
    try:
        return _parse_section(_LAYER_KINDS[kind],
                              {k: v for k, v in doc.items() if k != "kind"},
                              path)
    except ShapeMismatchError as exc:
        raise ConfigError(path, str(exc)) from exc


def parse_spec(doc, base: str = "/model") -> NetworkSpec:
    """A NetworkSpec from its JSON object; diagnostics carry JSON
    pointers under `base`."""
    if not isinstance(doc, dict):
        raise ConfigError(base, "model spec must be an object")
    _reject_unknown(doc, ("input_shape", "layers"), base)
    shape = doc.get("input_shape")
    if (not isinstance(shape, list) or
            not all(isinstance(v, int) and not isinstance(v, bool) for v in shape)):
        raise ConfigError(f"{base}/input_shape", "expected a list of ints")
    layers = doc.get("layers")
    if not isinstance(layers, list):
        raise ConfigError(f"{base}/layers", "expected a list")
    layers = [_parse_layer(entry, f"{base}/layers/{i}")
              for i, entry in enumerate(layers)]
    try:
        return NetworkSpec(tuple(shape), tuple(layers))
    except ShapeMismatchError as exc:
        raise ConfigError(base, str(exc)) from exc


def spec_doc(spec: NetworkSpec) -> dict:
    """The JSON object of a spec; the inverse of parse_spec."""
    return {"input_shape": list(spec.input_shape),
            "layers": [{"kind": _KIND_OF[type(layer)], **_section_doc(layer)}
                       for layer in spec.layers]}


def _parse_model(doc) -> tuple:
    doc = _expect_obj(doc, "/model")
    _reject_unknown(doc, {"name", "spec"}, "/model")
    if "name" in doc and "spec" in doc:
        raise ConfigError("/model", "give either 'name' or 'spec', not both")
    if "spec" in doc:
        return None, parse_spec(doc["spec"], "/model/spec")
    name = _typed(str, doc.get("name", "mlp"), "/model/name")
    return name, zoo_spec(name)


# the JSON key of each config section after "model", in parse order
_SECTIONS = {"data": DataSection, "bp": TrainConfig, "de": DeConfig,
             "grid": GridSection}


def _check_grid(grid: GridSection, bp: TrainConfig, de: DeConfig):
    """Build each axis value into the config it sweeps, so its range is
    checked where it is written, and report a bad one at /grid/<axis>."""
    for axis, base in (("F", de), ("Cr", de), ("lr", bp)):
        for value in getattr(grid, axis):
            try:
                replace(base, **{axis: value})
            except ConfigError as exc:
                message = str(exc).removeprefix(f"{exc.path}: ")
                raise ConfigError(f"/grid/{axis}", message) from None


def parse_config(text) -> Config:
    """Validate a JSON config, str or bytes, and fill in every default.

    Unknown keys anywhere are rejected; all diagnostics carry the
    JSON-pointer path of the offending value.
    """
    try:
        doc = loads(text)
    except ValueError as exc:
        raise ConfigError("/", f"invalid JSON: {exc}") from exc
    doc = _expect_obj(doc, "/")
    _reject_unknown(doc, {"model", *_SECTIONS}, "")

    model_name, spec = _parse_model(doc.get("model"))
    sections = {key: _parse_section(cls, doc.get(key), f"/{key}")
                for key, cls in _SECTIONS.items()}
    _check_grid(sections["grid"], sections["bp"], sections["de"])
    document = {
        "model": ({"name": model_name} if model_name is not None
                  else {"spec": spec_doc(spec)}),
        **{key: _section_doc(section) for key, section in sections.items()},
    }
    return Config(model_name, spec, **sections, document=document)


# --- run directories ----------------------------------------------------------


def write_manifest(run_dir, manifest: dict):
    """Persist manifest.json after checking that every artifact path it
    references exists under the run directory."""
    run_dir = Path(run_dir)
    for label, rel in manifest.get("artifacts", {}).items():
        if not (run_dir / rel).exists():
            raise MissingArtifactError(
                f"manifest references {label} at {rel}, which does not exist")
    write_json(run_dir / "manifest.json", manifest)


def load_manifest(run_dir) -> dict:
    """manifest.json of a run; its `artifacts` maps labels to paths."""
    path = Path(run_dir) / "manifest.json"
    manifest = read_json(path, "manifest", ("artifacts",))
    artifacts = manifest["artifacts"]
    if not isinstance(artifacts, dict) or not all(
            isinstance(rel, str) for rel in artifacts.values()):
        raise CheckpointFormatError(
            f"{path}: 'artifacts' must map labels to relative paths")
    return manifest


def load_summary(run_dir) -> dict:
    """summary.json of a run; its `stages` is a list of objects."""
    path = Path(run_dir) / "summary.json"
    summary = read_json(path, "summary", ("stages",))
    stages = summary["stages"]
    if not isinstance(stages, list) or not all(
            isinstance(stage, dict) for stage in stages):
        raise CheckpointFormatError(
            f"{path}: 'stages' must be a list of objects")
    return summary


class RunDir(FileLock):
    """The run directory that `train` creates and `evolve` extends:

        config.json     byte-identical copy of the input config
        manifest.json   run id, config digest, dataset fingerprint, BLAS
                        thread count, artifacts
        metrics.jsonl   one record per epoch/generation (deterministic fields)
        timings.jsonl   wall-clock per epoch/generation (kept out of metrics
                        so metrics files are comparable across machines)
        summary.json    the bp stage and the latest de stage of each mode
        ring/           end-of-epoch checkpoint ring
        final.ckpt      last gradient-stage parameters
        de_best.ckpt    best evolved parameters (de_best_soup.ckpt for soup)

    As a context manager it holds the `store.FileLock` on the sibling
    <run>.lock, and another command on the run fails at once.  ring/ is
    replaced whole (`store.write_dir`).  A `new` run (`train`) refuses
    final.ckpt or de_*, written before summary.json and manifest.json, as
    a finished train; `evolve` needs an existing run.
    """

    _FILES = ("config.json", "metrics.jsonl", "timings.jsonl", "summary.json",
              "ring", "final.ckpt", "de_best.ckpt", "de_best_soup.ckpt")

    def __init__(self, path, new: bool = False):
        self.path, self.new = Path(path), new
        self.config = self.path / "config.json"
        super().__init__(self.path.resolve(), timeout=0)

    def __enter__(self):
        path = self.path
        if not path.is_dir() and (path.exists() or not self.new):
            raise MissingArtifactError(f"{path} is not a run directory")
        super().__enter__()
        if self.new and ((path / "final.ckpt").exists()
                         or any(path.glob("de_*"))):
            super().__exit__()
            raise MissingArtifactError(f"run directory {path} is already "
                                       f"initialized; pick a new --out")
        return self

    def start(self, cfg: Config, spec: NetworkSpec,
              config_blob: Optional[bytes] = None):
        """Create a new run, with config_blob as its config, now that its
        data has loaded, dropping an unfinished train's records and ring;
        or read an existing run's summary and manifest before any write."""
        self.summary = {"model": cfg.model_name or "custom",
                        "dataset": cfg.data.name,
                        "params": param_count(spec), "stages": []}
        self.manifest = {"run_id": self.path.resolve().name}
        if not self.new:  # an absent file keeps the default
            if (self.path / "summary.json").exists():
                self.summary = load_summary(self.path)
            if (self.path / "manifest.json").exists():
                self.manifest = load_manifest(self.path)
            return
        import hashlib
        import time
        self.path.mkdir(parents=True, exist_ok=True)
        remove_path(self.path / "ring")
        for name in ("metrics.jsonl", "timings.jsonl"):
            open(self.path / name, "w").close()
        atomic_write(self.config, config_blob)
        self.manifest.update(
            created=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            config_sha256=hashlib.sha256(config_blob).hexdigest())

    def record(self, metrics, **tags):
        """Append tags and the fields of an EpochMetrics or GenMetrics to
        metrics.jsonl; its wall_ms, stage and epoch or gen to timings.jsonl."""
        fields = {**tags, **{"gen" if k == "generation" else k: v
                             for k, v in vars(metrics).items()}}
        wall = {k: fields[k] for k in ("stage", "epoch", "gen") if k in fields}
        wall["wall_ms"] = fields.pop("wall_ms")
        for name, doc in (("metrics.jsonl", fields), ("timings.jsonl", wall)):
            with open(self.path / name, "a") as f:
                f.write(json.dumps(doc, sort_keys=True) + "\n")

    def load_ring(self) -> tuple:
        return load_ring(self.path / "ring")

    def write_ring(self, ring: CheckpointRing, spec: NetworkSpec, meta: dict):
        save_ring(ring, self.path / "ring", spec, meta)

    def write_final(self, ckpt: Checkpoint):
        save_checkpoint(ckpt, self.path / "final.ckpt")

    def write_de(self, mode: str, out: DeResult, spec: NetworkSpec, seed: int):
        """The best member of a DE run."""
        suffix = "_soup" if mode == "soup" else ""
        save_checkpoint(Checkpoint(spec, out.best, {
            "stage": "de", "mode": mode, "seed": seed,
            "generation": len(out.history), "fitness": out.best_fitness}),
            self.path / f"de_best{suffix}.ckpt")

    def finish(self, stage: dict, **manifest_fields):
        """Write summary.json with stage in place of the one with its
        (stage, mode), as a rerun in one mode replaces that mode's de_best;
        then manifest.json, listing exactly the run files present, so an
        entry an older version listed goes."""
        from . import blas_threads
        key = (stage["stage"], stage.get("mode"))
        self.summary["stages"] = [
            s for s in self.summary["stages"]
            if (s.get("stage"), s.get("mode")) != key] + [stage]
        write_json(self.path / "summary.json", self.summary)
        self.manifest["artifacts"] = {
            Path(name).stem: name for name in self._FILES
            if (self.path / name).exists()}
        self.manifest.update(manifest_fields, blas_threads=blas_threads())
        write_manifest(self.path, self.manifest)
