"""Parser robustness under random corruption.

The full 10k-case run lives in the acceptance suite; here each corpus
gets a quicker pass plus the looser free-region variant that the
structural corpus deliberately avoids."""

import struct

import numpy as np
import pytest

from nevo.data import load_cifar10
from nevo.errors import NevoError
from nevo.persistence import parse_config

from fuzzutil import build_corpora, build_json_corpora, run_corpus


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    return build_corpora(tmp_path_factory.mktemp("fuzz"))


@pytest.fixture(scope="module")
def json_corpora(tmp_path_factory):
    return build_json_corpora(tmp_path_factory.mktemp("fuzz-json"))


def by_name(corpora, name):
    return next(c for c in corpora if c.name == name)


def test_baselines_parse_cleanly(corpora):
    for corpus in corpora:
        corpus.parse(corpus.base)


def test_structural_corruption_always_raises_typed(corpora):
    for corpus in corpora:
        ok, typed, crashes = run_corpus(corpus, 300, seed=11)
        assert crashes == [], crashes
        assert ok == 0, f"{corpus.name}: {ok} corrupted cases parsed"
        assert typed == 300


def test_free_region_flips_never_crash(corpora):
    # flips across the whole buffer: pixel/metadata flips may parse
    for corpus in corpora:
        ok, typed, crashes = run_corpus(corpus, 300, seed=23,
                                        structural=False)
        assert crashes == [], crashes
        assert ok + typed == 300
    # an IDX pixel flip is benign by design, so some cases must succeed
    ok, _, _ = run_corpus(by_name(corpora, "idx-images"), 300, seed=23,
                          structural=False)
    assert ok > 0


def test_truncation_alone_always_raises(corpora):
    for corpus in corpora:
        for cut in range(0, len(corpus.base),
                         max(1, len(corpus.base) // 97)):
            with pytest.raises(NevoError):
                corpus.parse(corpus.base[:cut])


def test_cifar_fuzz_never_crashes(tmp_path):
    rng = np.random.default_rng(5)
    record = lambda label: bytes([label]) + \
        rng.integers(0, 256, 3072, dtype=np.uint8).tobytes()
    base = record(3) + record(9) + record(0)
    path = tmp_path / "data_batch_1.bin"
    for i in range(400):
        buf = bytearray(base)
        if i % 2:
            buf = buf[:int(rng.integers(0, len(base)))]
        else:
            buf[int(rng.integers(len(base)))] ^= 1 << int(rng.integers(8))
        path.write_bytes(bytes(buf))
        try:
            ds = load_cifar10([path])
            assert len(ds) in (1, 2, 3)
        except NevoError:
            pass


def test_config_text_fuzz_never_crashes():
    base = ('{"model": {"name": "lenet1"}, "bp": {"lr": 0.02}, '
            '"de": {"F": 0.5, "Cr": 0.9}, "grid": {"lr": [0.01]}}')
    rng = np.random.default_rng(9)
    for i in range(600):
        text = base
        if i % 3 == 0:
            text = base[:int(rng.integers(0, len(base)))]
        else:
            pos = int(rng.integers(len(base)))
            text = base[:pos] + chr(int(rng.integers(32, 127))) + \
                base[pos + 1:]
        try:
            parse_config(text)
        except NevoError:
            pass


def test_idx_all_single_byte_header_values(corpora):
    # exhaustive first-byte sweep: magic must be enforced exactly
    corpus = by_name(corpora, "idx-labels")
    for value in range(256):
        buf = bytearray(corpus.base)
        if buf[3] == value:
            continue
        buf[3] = value
        with pytest.raises(NevoError):
            corpus.parse(bytes(buf))


def test_engine_is_deterministic(corpora):
    corpus = by_name(corpora, "ckpt-f32")
    a = list(corpus.cases(50, 7, corpus.regions))
    b = list(corpus.cases(50, 7, corpus.regions))
    assert a == b
    assert struct.unpack("<I", corpus.base[4:8])[0] == 1


def test_run_directory_json_structural_flips_raise_typed(json_corpora):
    # ring index.json, manifest.json and summary.json
    for corpus in json_corpora:
        corpus.parse(corpus.base)
        ok, typed, crashes = run_corpus(corpus, 300, seed=31)
        assert crashes == [], crashes
        assert ok == 0, f"{corpus.name}: {ok} corrupted cases parsed"
        assert typed == 300


def test_run_directory_json_free_region_flips_never_crash(json_corpora):
    for corpus in json_corpora:
        ok, typed, crashes = run_corpus(corpus, 300, seed=37,
                                        structural=False)
        assert crashes == [], crashes
        assert ok + typed == 300
        assert ok > 0, f"{corpus.name}: no flip landed in a free region"
