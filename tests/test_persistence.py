"""Round-trip and corruption tests for the binary checkpoint format,
ring directories and the population seeded from one, config parsing,
and run manifests."""

import json
from pathlib import Path

import numpy as np
import pytest

from nevo.errors import (CheckpointFormatError, ChecksumError, ConfigError,
                         MissingArtifactError, PopulationError)
from nevo.evolution import GridSection, ancestors
from nevo.network import (Activation, Conv, Dense, Flatten, NetworkSpec,
                          Pool, param_count, zoo_spec)
from nevo.persistence import (Checkpoint, Config, checkpoint_bytes,
                              load_checkpoint, load_manifest, load_ring,
                              parse_checkpoint, parse_config, parse_spec,
                              save_checkpoint, save_ring, spec_doc,
                              write_json, write_manifest)
from nevo.rng import RngStream
from nevo.training import CheckpointRing

from synthdata import (DEEP_JSON, pooled_conv, random_theta, small_conv,
                       small_mlp, with_header_json)


SPECS = {"mlp16": small_mlp, "conv": small_conv, "pooled": pooled_conv,
         "lenet1": lambda: zoo_spec("lenet1")}


def make_ckpt(spec_name="mlp16", dtype=np.float32, seed=0, meta=None):
    spec = SPECS[spec_name]()
    theta = random_theta(spec, seed, dtype)
    return Checkpoint(spec, theta, meta if meta is not None else {"seed": seed})


def test_checkpoint_round_trip_is_bitwise():
    for seed, name in enumerate(SPECS):
        for dtype in (np.float32, np.float64):
            ckpt = make_ckpt(name, dtype, seed,
                             meta={"stage": "bp", "epoch": seed,
                                   "loss": 0.25 * seed, "tags": ["a", "b"]})
            back = parse_checkpoint(checkpoint_bytes(ckpt))
            assert back.spec == ckpt.spec
            assert back.params.dtype == np.dtype(dtype)
            assert back.params.tobytes() == ckpt.params.tobytes()
            assert back.meta == ckpt.meta


def test_checkpoint_file_round_trip(tmp_path):
    ckpt = make_ckpt("conv", np.float64, 3)
    path = tmp_path / "a.ckpt"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.params.tobytes() == ckpt.params.tobytes()
    assert back.meta == {"seed": 3}


def test_checkpoint_rejects_bad_inputs():
    spec = small_mlp()
    good = random_theta(spec, 0, np.float32)
    with pytest.raises(CheckpointFormatError, match="1-D"):
        checkpoint_bytes(Checkpoint(spec, good.reshape(2, -1)))
    with pytest.raises(CheckpointFormatError, match="dtype"):
        checkpoint_bytes(Checkpoint(spec, good.astype(np.int32)))
    with pytest.raises(CheckpointFormatError, match="does not match"):
        checkpoint_bytes(Checkpoint(spec, good[:-1]))


def test_load_checkpoint_missing_file(tmp_path):
    with pytest.raises(MissingArtifactError):
        load_checkpoint(tmp_path / "nope.ckpt")


def corrupt_cases(buf):
    """Name -> corrupted buffer, each hitting a different validator."""
    spec_len = int.from_bytes(buf[9:13], "little")
    meta_off = 13 + spec_len
    cases = {
        "magic": b"EVIL" + buf[4:],
        "version_newer": buf[:4] + (99).to_bytes(4, "little") + buf[8:],
        "version_zero": buf[:4] + (0).to_bytes(4, "little") + buf[8:],
        "dtype_tag": buf[:8] + b"\x07" + buf[9:],
        "spec_len_huge": buf[:9] + (1 << 30).to_bytes(4, "little") + buf[13:],
        "spec_json": buf[:13] + b"{" * spec_len + buf[meta_off:],
        "trailing": buf + b"x",
        "empty": b"",
        "header_only": buf[:9],
    }
    for cut in (3, 12, meta_off - 1, len(buf) // 2, len(buf) - 1):
        cases[f"truncate_{cut}"] = buf[:cut]
    return cases


def test_checkpoint_corruption_diagnostics():
    buf = checkpoint_bytes(make_ckpt("mlp16", np.float32, 5))
    expects = {"magic": "bad magic", "version_newer": "newer than supported",
               "version_zero": "bad format version",
               "dtype_tag": "unknown dtype tag",
               "spec_len_huge": "exceeds limit",
               "spec_json": "embedded spec invalid",
               "trailing": "trailing bytes"}
    for name, bad in corrupt_cases(buf).items():
        with pytest.raises(CheckpointFormatError) as info:
            parse_checkpoint(bad, name)
        if name in expects:
            assert expects[name] in str(info.value), name
        else:
            assert "truncated" in str(info.value), name


def test_checkpoint_payload_bit_flip_is_caught():
    buf = checkpoint_bytes(make_ckpt("conv", np.float64, 1))
    # params occupy everything between the count field and the CRC
    payload_start = len(buf) - 4 - 152 * 8
    for offset in (payload_start, payload_start + 77, len(buf) - 5):
        bad = bytearray(buf)
        bad[offset] ^= 0x10
        with pytest.raises(ChecksumError, match="CRC"):
            parse_checkpoint(bytes(bad))


def test_checkpoint_count_spec_mismatch():
    ckpt = make_ckpt("mlp16", np.float32, 2)
    buf = bytearray(checkpoint_bytes(ckpt))
    spec_len = int.from_bytes(buf[9:13], "little")
    meta_len = int.from_bytes(buf[13 + spec_len:17 + spec_len], "little")
    count_off = 17 + spec_len + meta_len
    buf[count_off:count_off + 8] = (999).to_bytes(8, "little")
    with pytest.raises(CheckpointFormatError, match="does not match spec"):
        parse_checkpoint(bytes(buf))


def test_ring_round_trip(tmp_path):
    spec = small_conv()
    ring = CheckpointRing(3)
    for epoch in range(1, 6):
        ring.push(epoch, random_theta(spec, epoch, np.float32), 1.0 / epoch)
    save_ring(ring, tmp_path / "ring", spec, {"seed": 0})
    back, back_spec = load_ring(tmp_path / "ring")
    assert back_spec == spec
    assert back.capacity == 3
    got = list(back)
    want = list(ring)
    assert [e.epoch for e in got] == [e.epoch for e in want] == [3, 4, 5]
    for g, w in zip(got, want):
        assert g.params.tobytes() == w.params.tobytes()
        assert g.train_loss == w.train_loss


def test_ring_written_over_a_larger_one_keeps_only_listed_files(tmp_path):
    spec = small_mlp()
    for epochs in ((1, 2, 3), (5, 6)):
        ring = CheckpointRing(3)
        for epoch in epochs:
            ring.push(epoch, random_theta(spec, epoch, np.float32), 1.0)
        save_ring(ring, tmp_path / "ring", spec)
    assert sorted(p.name for p in (tmp_path / "ring").iterdir()) == [
        "epoch-0005.ckpt", "epoch-0006.ckpt", "index.json"]
    back, _ = load_ring(tmp_path / "ring")
    assert [e.epoch for e in back] == [5, 6]


def test_ring_spec_mismatch_between_entries(tmp_path):
    spec_a, spec_b = small_mlp(), small_conv()
    ring = CheckpointRing(3)
    for epoch in (1, 2, 3):
        ring.push(epoch, random_theta(spec_a, epoch, np.float32), 1.0)
    save_ring(ring, tmp_path / "ring", spec_a)
    save_checkpoint(Checkpoint(spec_b, random_theta(spec_b, 9, np.float32)),
                    tmp_path / "ring" / "epoch-0002.ckpt")
    with pytest.raises(CheckpointFormatError, match="differs"):
        load_ring(tmp_path / "ring")


def test_ring_requires_entries(tmp_path):
    ring_dir = tmp_path / "ring"
    ring_dir.mkdir()
    (ring_dir / "index.json").write_text(json.dumps(
        {"version": 1, "capacity": 3, "entries": []}))
    with pytest.raises(CheckpointFormatError, match="no entries"):
        load_ring(ring_dir)
    with pytest.raises(MissingArtifactError):
        load_ring(tmp_path / "absent")


def test_ring_missing_entry_file(tmp_path):
    spec = small_mlp()
    ring = CheckpointRing(2)
    ring.push(1, random_theta(spec, 1, np.float32), 0.5)
    ring.push(2, random_theta(spec, 2, np.float32), 0.4)
    save_ring(ring, tmp_path / "ring", spec)
    (tmp_path / "ring" / "epoch-0001.ckpt").unlink()
    with pytest.raises(MissingArtifactError,
                       match="epoch-0001.ckpt listed in"):
        load_ring(tmp_path / "ring")


# The population `nevo evolve` starts from is no file of its own: it is
# seeded from the run's ring/, so the ring directory is what must hold it.


def population_ring(tmp_path, epochs=(1, 2, 3, 4)):
    spec = small_mlp()
    ring = CheckpointRing(len(epochs))
    for epoch in epochs:
        ring.push(epoch, random_theta(spec, epoch, np.float32), 1.0 / epoch)
    save_ring(ring, tmp_path / "ring", spec)
    return tmp_path / "ring", ring


def seed_population(ring_dir, m):
    return ancestors(load_ring(ring_dir)[0], m, 0.0, RngStream(0))


def test_population_missing_member(tmp_path):
    ring_dir, ring = population_ring(tmp_path)
    pop = seed_population(ring_dir, 4)
    assert [v.tobytes() for v in pop.members] == [
        e.params.tobytes() for e in ring]
    (ring_dir / "epoch-0003.ckpt").unlink()
    with pytest.raises(MissingArtifactError, match="epoch-0003"):
        seed_population(ring_dir, 4)


def test_population_of_fewer_than_four_members_is_refused(tmp_path):
    ring_dir, _ = population_ring(tmp_path, epochs=(1, 2, 3))
    with pytest.raises(PopulationError, match="at least 4 members, got 3"):
        seed_population(ring_dir, 3)
    with pytest.raises(PopulationError, match="--jitter"):
        seed_population(ring_dir, 4)


def default_text():
    return (Path(__file__).resolve().parents[1] / "src" / "nevo" /
            "default_config.json").read_text()


def rendered(cfg) -> str:
    return json.dumps(cfg.document, indent=2, sort_keys=True) + "\n"


def test_empty_config_matches_packaged_defaults():
    assert rendered(parse_config("{}")) == default_text()


def test_canonical_is_idempotent():
    text = json.dumps({"model": {"name": "lenet1"},
                       "bp": {"lr": 0.02, "lambda": 0.001},
                       "de": {"F": 0.9, "Cr": 1.0},
                       "grid": {"lr": [0.1]}})
    once = rendered(parse_config(text))
    assert rendered(parse_config(once)) == once


def test_config_lambda_maps_to_lam():
    cfg = parse_config('{"bp": {"lambda": 0.125}}')
    assert cfg.bp.lam == 0.125
    assert json.loads(rendered(cfg))["bp"]["lambda"] == 0.125
    with pytest.raises(ConfigError, match="/bp/lam"):
        parse_config('{"bp": {"lam": 0.125}}')


def test_config_model_name_xor_spec():
    spec = small_mlp()
    both = json.dumps({"model": {"name": "mlp", "spec": spec_doc(spec)}})
    with pytest.raises(ConfigError, match="/model"):
        parse_config(both)
    cfg = parse_config(json.dumps({"model": {"spec": spec_doc(spec)}}))
    assert cfg.model_name is None
    assert cfg.spec == spec
    assert param_count(cfg.spec) == 214
    assert parse_config("{}").model_name == "mlp"


# every single-error diagnostic, with its exact message
CONFIG_DIAGNOSTICS = {
    '{"de": {"Cr": -0.1}}': "/de/Cr: must be in [0, 1]",
    '{"de": {"F": "hot"}}': "/de/F: expected a number",
    '{"bp": {"lr": 0}}': "/bp/lr: must be > 0",
    '{"bp": {"batch_size": 2.5}}': "/bp/batch_size: expected an integer",
    '{"bp": {"bogus": 1}}': "/bp/bogus: unknown key",
    '{"turbo": true}': "/turbo: unknown key",
    '{"data": {"name": "imagenet"}}':
        "/data/name: unknown dataset 'imagenet'; "
        "one of synthetic, mnist, fashion_mnist, cifar10",
    '{"data": {"synthetic": {"shape": [28, 28]}}}':
        "/data/synthetic/shape: expected [channels, height, width]",
    '{"data": {"synthetic": {"classes": 1}}}':
        "/data/synthetic/classes: out of range",
    '{"data": {"augment_multiplier": 0}}':
        "/data/augment_multiplier: out of range",
    '{"eval": {}}': "/eval: unknown key",
    '{"grid": {"F": []}}': "/grid/F: expected a nonempty list of numbers",
    '{"grid": {"Cr": "all"}}': "/grid/Cr: expected a nonempty list of numbers",
    '{"grid": {"gamma": [1]}}': "/grid/gamma: unknown key",
    '{"model": {"name": "alexnet"}}':
        "/model/name: unknown model 'alexnet'; available: lenet1, lenet5, mlp",
    '{"de": {"force_jrand": 1}}': "/de/force_jrand: expected a boolean",
    '[1, 2]': "/: expected an object",
    '{"bp": 7}': "/bp: expected an object",
    '{"data": {"dir": 5}}': "/data/dir: expected a string",
    '{"data": {"train_limit": 1.5}}': "/data/train_limit: expected an integer",
    '{"data": {"max_rotate_deg": true}}':
        "/data/max_rotate_deg: expected a number",
    '{"data": {"synthetic": 3}}': "/data/synthetic: expected an object",
    '{"data": {"synthetic": {"bogus": 1}}}':
        "/data/synthetic/bogus: unknown key",
    '{"data": {"synthetic": {"shape": [1, 0, 28]}}}':
        "/data/synthetic/shape: expected [channels, height, width]",
    '{"data": {"synthetic": {"noise": -1}}}':
        "/data/synthetic/noise: out of range",
    '{"bp": {"lambda": -1}}': "/bp/lambda: must be >= 0",
    '{"bp": {"seed": true}}': "/bp/seed: expected a number",
    '{"de": {"seed": -1}}': "/de/seed: must be >= 0",
}


@pytest.mark.parametrize("text,path", [
    (text, message.split(": ", 1)[0])
    for text, message in CONFIG_DIAGNOSTICS.items()])
def test_config_diagnostics_carry_json_pointer(text, path):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.path == path
    assert str(info.value) == CONFIG_DIAGNOSTICS[text]


# the model spec goes through the same section walk: a layer is one more
# section, and the range checks on the layer dataclasses report at the
# layer's pointer
SPEC_LAYERS = [{"kind": "conv", "in": 1, "out": 2, "kernel": 3, "pad": 1},
               {"kind": "act", "fn": "relu"},
               {"kind": "pool", "op": "max", "size": 2, "stride": 2},
               {"kind": "flatten"},
               {"kind": "dense", "in": 32, "out": 3}]


def spec_config(layers, input_shape=(1, 8, 8)) -> str:
    return json.dumps({"model": {"spec": {"input_shape": list(input_shape),
                                          "layers": layers}}})


def with_layer(i, layer):
    return SPEC_LAYERS[:i] + [layer] + SPEC_LAYERS[i + 1:]


# (layer index, that layer's JSON) -> the one diagnostic it gets
SPEC_DIAGNOSTICS = {
    (0, '{"kind": "conv", "in": 1, "out": 2, "kernel": 0, "pad": 1}'):
        "/model/spec/layers/0: conv kernel must be >= 1, got 0",
    (0, '{"kind": "conv", "in": 1, "out": 2, "kernel": "5", "pad": 1}'):
        "/model/spec/layers/0/kernel: expected a number",
    (0, '{"kind": "conv", "in": 1, "out": 2, "kernel": true, "pad": 1}'):
        "/model/spec/layers/0/kernel: expected a number",
    (0, '{"kind": "conv", "in": 1, "out": 2, "kernel": 2.5, "pad": 1}'):
        "/model/spec/layers/0/kernel: expected an integer",
    (0, '{"kind": "conv", "in": 1, "out": 2, "kernel": 3, "stride": 0}'):
        "/model/spec/layers/0: conv stride must be >= 1, got 0",
    (0, '{"kind": "conv", "in": 1, "out": 2, "kernel": 3, "pad": -1}'):
        "/model/spec/layers/0: conv pad must be >= 0, got -1",
    (2, '{"kind": "pool", "op": "min", "size": 2, "stride": 2}'):
        "/model/spec/layers/2: unknown pool op 'min'",
    (2, '{"kind": "pool", "op": 5, "size": 2, "stride": 2}'):
        "/model/spec/layers/2/op: expected a string",
    (2, '{"kind": "pool", "size": 2, "stride": 2}'):
        "/model/spec/layers/2/op: missing required key",
    (1, '{"kind": "act", "fn": "sigmoid"}'):
        "/model/spec/layers/1: unknown activation 'sigmoid'",
    (0, '{"kind": ["dense"], "in": 1, "out": 2}'):
        "/model/spec/layers/0/kind: unknown layer kind ['dense']",
    (0, '{"in": 1, "out": 2}'): "/model/spec/layers/0/kind: missing required key",
    (0, '5'): "/model/spec/layers/0: expected an object",
    (4, '{"kind": "dense", "in": 32, "out": 3, "zeta": 1, "alpha": 2}'):
        "/model/spec/layers/4/zeta: unknown key",
    (4, '{"kind": "dense", "in": 32, "out": 0}'):
        "/model/spec/layers/4: dense out_features must be >= 1, got 0",
    (4, '{"kind": "dense", "in": 31, "out": 3}'):
        "/model/spec: layer 4 (dense): expects 31 features, got 32",
}


@pytest.mark.parametrize("i,layer", list(SPEC_DIAGNOSTICS))
def test_spec_diagnostics_carry_json_pointer(i, layer):
    message = SPEC_DIAGNOSTICS[i, layer]
    with pytest.raises(ConfigError) as info:
        parse_config(spec_config(with_layer(i, json.loads(layer))))
    assert info.value.path == message.split(": ", 1)[0]
    assert str(info.value) == message


def test_spec_layers_parse_to_their_dataclasses():
    cfg = parse_config(spec_config(SPEC_LAYERS))
    assert cfg.spec.layers == (Conv(1, 2, 3, pad=1), Activation("relu"),
                               Pool("max", 2, 2), Flatten(), Dense(32, 3))
    assert cfg.document["model"]["spec"]["layers"][0] == {
        "kind": "conv", "in": 1, "out": 2, "kernel": 3, "stride": 1, "pad": 1}


_JSON_VALUES = [None, True, 0, -1, 2.5, "x", [1], {}, 1e30]
_DROP = object()


def bad_layer_cases():
    """(layer index, key, value): every key of every layer, plus the
    conv's defaulted stride, set to each JSON value or deleted."""
    for i, layer in enumerate(SPEC_LAYERS):
        for key in [*layer, "stride"] if i == 0 else layer:
            for value in _JSON_VALUES + ([_DROP] if key in layer else []):
                name = "drop" if value is _DROP else json.dumps(value)
                yield pytest.param(i, key, value, id=f"{i}-{key}-{name}")


@pytest.mark.parametrize("i,key,value", bad_layer_cases())
def test_every_bad_layer_field_is_a_config_error(i, key, value):
    layer = {k: v for k, v in SPEC_LAYERS[i].items() if k != key}
    if value is not _DROP:
        layer[key] = value
    with pytest.raises(ConfigError) as info:
        parse_config(spec_config(with_layer(i, layer)))
    assert info.value.path.startswith("/model/spec")


@pytest.mark.parametrize("spec", [
    None, [], "lenet1", {"input_shape": [1, 8, 8]}, {"layers": []},
    {"input_shape": "x", "layers": []}, {"input_shape": [1, True, 8],
                                         "layers": []},
    {"input_shape": [1, 8, 8], "layers": {}},
    {"input_shape": [1, 8, 8], "layers": [], "name": "x"},
    {"input_shape": [0, 8, 8], "layers": SPEC_LAYERS},
    {"input_shape": [1, 8], "layers": SPEC_LAYERS},
    {"input_shape": [1, 8, 8], "layers": SPEC_LAYERS + [{"kind": "flatten",
                                                         "x": 1}]}])
def test_bad_spec_documents_are_config_errors(spec):
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps({"model": {"spec": spec}}))
    assert info.value.path.startswith("/model/spec")


# the canonical spec JSON every checkpoint header embeds, as written
# before the spec format moved onto the section walk
SPEC_GOLDEN = {
    "mlp": '{"input_shape":[1,28,28],"layers":[{"kind":"flatten"},'
           '{"in":784,"kind":"dense","out":128},{"fn":"relu","kind":"act"},'
           '{"in":128,"kind":"dense","out":10}]}',
    "lenet1": '{"input_shape":[1,28,28],"layers":[{"in":1,"kernel":5,'
              '"kind":"conv","out":4,"pad":0,"stride":1},'
              '{"fn":"relu","kind":"act"},'
              '{"kind":"pool","op":"max","size":2,"stride":2},'
              '{"in":4,"kernel":5,"kind":"conv","out":12,"pad":0,"stride":1},'
              '{"fn":"relu","kind":"act"},'
              '{"kind":"pool","op":"max","size":2,"stride":2},'
              '{"kind":"flatten"},{"in":192,"kind":"dense","out":10}]}',
    "lenet5": '{"input_shape":[3,32,32],"layers":[{"in":3,"kernel":5,'
              '"kind":"conv","out":6,"pad":0,"stride":1},'
              '{"fn":"relu","kind":"act"},'
              '{"kind":"pool","op":"max","size":2,"stride":2},'
              '{"in":6,"kernel":5,"kind":"conv","out":16,"pad":0,"stride":1},'
              '{"fn":"relu","kind":"act"},'
              '{"kind":"pool","op":"max","size":2,"stride":2},'
              '{"kind":"flatten"},{"in":400,"kind":"dense","out":120},'
              '{"fn":"relu","kind":"act"},{"in":120,"kind":"dense","out":84},'
              '{"fn":"relu","kind":"act"},{"in":84,"kind":"dense","out":10}]}',
    "strided": '{"input_shape":[1,8,8],"layers":[{"in":1,"kernel":3,'
               '"kind":"conv","out":2,"pad":1,"stride":2},'
               '{"fn":"tanh","kind":"act"},'
               '{"kind":"pool","op":"avg","size":2,"stride":2},'
               '{"kind":"flatten"},{"in":8,"kind":"dense","out":3}]}',
}


def golden_spec(name):
    if name == "strided":
        return NetworkSpec((1, 8, 8), (Conv(1, 2, 3, stride=2, pad=1),
                                       Activation("tanh"), Pool("avg", 2, 2),
                                       Flatten(), Dense(8, 3)))
    return zoo_spec(name)


@pytest.mark.parametrize("name", list(SPEC_GOLDEN))
def test_checkpoint_header_spec_json_is_pinned(name):
    spec = golden_spec(name)
    golden = SPEC_GOLDEN[name].encode()
    buf = checkpoint_bytes(Checkpoint(spec, np.zeros(param_count(spec),
                                                     np.float32)))
    assert buf[9:13] == len(golden).to_bytes(4, "little")
    assert buf[13:13 + len(golden)] == golden
    assert parse_spec(json.loads(golden), "/spec") == spec


def test_checkpoint_with_a_list_layer_kind_is_a_format_error():
    buf = checkpoint_bytes(make_ckpt("mlp16"))
    doc = spec_doc(small_mlp())
    doc["layers"][0]["kind"] = ["flatten"]
    bad = with_header_json(buf, "spec", json.dumps(doc).encode())
    with pytest.raises(CheckpointFormatError,
                       match="embedded spec invalid: /spec/layers/0/kind"):
        parse_checkpoint(bad, "x.ckpt")


@pytest.mark.parametrize("which", ["spec", "meta"])
def test_deeply_nested_checkpoint_json_is_a_format_error(which):
    buf = checkpoint_bytes(make_ckpt("mlp16"))
    bad = with_header_json(buf, which, DEEP_JSON.encode())
    with pytest.raises(CheckpointFormatError, match="nested too deeply"):
        parse_checkpoint(bad, "x.ckpt")


def test_deeply_nested_config_is_a_config_error():
    with pytest.raises(ConfigError, match="^/: invalid JSON"):
        parse_config('{"model": {"spec": %s}}' % DEEP_JSON)


def test_write_json_bytes(tmp_path):
    write_json(tmp_path / "a.json", {"b": 1, "a": [1, 2.5], "c": None})
    assert (tmp_path / "a.json").read_bytes() == (
        b'{\n  "a": [\n    1,\n    2.5\n  ],\n  "b": 1,\n  "c": null\n}\n')


def test_config_integral_float_stays_integral_in_document():
    cfg = parse_config('{"bp": {"lr": 1}}')
    assert cfg.document["bp"]["lr"] == 1
    assert isinstance(cfg.document["bp"]["lr"], int)
    once = rendered(cfg)
    assert '"lr": 1,' in once
    assert rendered(parse_config(once)) == once


def test_config_invalid_json():
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config("{nope")


def test_config_grid_values_become_floats():
    cfg = parse_config('{"grid": {"F": [1, 2], "Cr": [0], "lr": [0.01]}}')
    assert cfg.grid == GridSection(F=(1.0, 2.0), Cr=(0.0,), lr=(0.01,))
    assert all(isinstance(v, float) for v in cfg.grid.F)


def test_config_is_config_instance():
    cfg = parse_config("{}")
    assert isinstance(cfg, Config)
    assert cfg.data.synthetic.shape == (1, 28, 28)
    assert cfg.de.fitness_subset == 10000


def test_manifest_round_trip(tmp_path):
    (tmp_path / "final.ckpt").write_bytes(b"x")
    doc = {"seed": 3, "artifacts": {"final": "final.ckpt"},
           "config_sha256": "ab" * 32}
    write_manifest(tmp_path, doc)
    assert load_manifest(tmp_path) == doc


def test_manifest_refuses_dangling_artifacts(tmp_path):
    with pytest.raises(MissingArtifactError, match="ghost"):
        write_manifest(tmp_path, {"artifacts": {"ghost": "ghost.ckpt"}})
    with pytest.raises(MissingArtifactError):
        load_manifest(tmp_path)
    (tmp_path / "manifest.json").write_text("{broken")
    with pytest.raises(CheckpointFormatError):
        load_manifest(tmp_path)


def saved_ring(tmp_path):
    spec = small_mlp()
    ring = CheckpointRing(4)
    for epoch in (1, 2):
        ring.push(epoch, random_theta(spec, epoch, np.float32), 1.0 / epoch)
    save_ring(ring, tmp_path / "ring", spec)
    return tmp_path / "ring"


def edit_index(directory, edit):
    path = directory / "index.json"
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(edit(doc)))


def escaping_names(tmp_path, inside):
    """A valid checkpoint outside `inside` and in a subdirectory of it,
    with the index names that would reach each one."""
    spec = small_mlp()
    outside = tmp_path / "outside.ckpt"
    save_checkpoint(Checkpoint(spec, random_theta(spec, 7, np.float32)),
                    outside)
    (inside / "sub").mkdir()
    save_checkpoint(Checkpoint(spec, random_theta(spec, 8, np.float32)),
                    inside / "sub" / "x.ckpt")
    return {"parent": "../outside.ckpt", "absolute": str(outside),
            "subdir": "sub/x.ckpt"}


def set_entry(i, **fields):
    def edit(doc):
        doc["entries"][i].update(fields)
        return doc
    return edit


def drop_entry_key(key):
    def edit(doc):
        del doc["entries"][0][key]
        return doc
    return edit


RING_INDEX_DEFECTS = {
    "not_an_object": lambda doc: ["capacity", "entries"],
    "entry_not_an_object": lambda doc: {**doc, "entries": [5]},
    "entries_not_a_list": lambda doc: {**doc, "entries": 5},
    "file_missing": drop_entry_key("file"),
    "file_not_a_string": set_entry(0, file=7),
    "capacity_not_numeric": lambda doc: {**doc, "capacity": "four"},
    "capacity_too_large": lambda doc: {**doc, "capacity": 10 ** 30},
    "epoch_not_numeric": set_entry(1, epoch="two"),
    "epoch_missing": drop_entry_key("epoch"),
    "train_loss_string": set_entry(0, train_loss="0.5"),
    "train_loss_list": set_entry(0, train_loss=[1]),
}


@pytest.mark.parametrize("defect", sorted(RING_INDEX_DEFECTS))
def test_ring_index_defects_raise_typed(tmp_path, defect):
    ring_dir = saved_ring(tmp_path)
    edit_index(ring_dir, RING_INDEX_DEFECTS[defect])
    with pytest.raises(CheckpointFormatError):
        load_ring(ring_dir)


@pytest.mark.parametrize("where", ["parent", "absolute", "subdir"])
def test_ring_index_file_must_stay_inside_the_ring(tmp_path, where):
    ring_dir = saved_ring(tmp_path)
    name = escaping_names(tmp_path, ring_dir)[where]
    edit_index(ring_dir, set_entry(0, file=name))
    with pytest.raises(CheckpointFormatError, match="not a file name"):
        load_ring(ring_dir)


@pytest.mark.parametrize("where", ["parent", "absolute", "subdir"])
def test_population_member_must_stay_inside_the_directory(tmp_path, where):
    ring_dir, _ = population_ring(tmp_path)
    name = escaping_names(tmp_path, ring_dir)[where]
    edit_index(ring_dir, set_entry(2, file=name))
    with pytest.raises(CheckpointFormatError, match="not a file name"):
        seed_population(ring_dir, 4)


@pytest.mark.parametrize("text", ["[1]", '"run"',
                                  '{"artifacts": [1]}',
                                  '{"artifacts": {"final": 5}}',
                                  '{"run_id": "x"}'])
def test_manifest_structure_is_checked(tmp_path, text):
    (tmp_path / "manifest.json").write_text(text)
    with pytest.raises(CheckpointFormatError):
        load_manifest(tmp_path)


@pytest.mark.parametrize("text", ["{bad", "[1]", '{"stages": 5}',
                                  '{"stages": [1]}', '{"model": "mlp"}',
                                  b'{"stages": []}\xff'])
def test_summary_reader_raises_typed(tmp_path, text):
    from nevo.persistence import load_summary

    with pytest.raises(MissingArtifactError):
        load_summary(tmp_path)
    path = tmp_path / "summary.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(CheckpointFormatError):
        load_summary(tmp_path)


def test_summary_reader_round_trip(tmp_path):
    from nevo.persistence import load_summary

    doc = {"model": "mlp", "stages": [{"stage": "bp", "test_accuracy": 0.5}]}
    (tmp_path / "summary.json").write_text(json.dumps(doc))
    assert load_summary(tmp_path) == doc
