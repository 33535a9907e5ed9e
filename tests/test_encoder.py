import hashlib
import os
import re

import numpy as np
import pytest

from causalkg import encoder
from causalkg.encoder import (
    EncoderConfig,
    base_vector,
    encode_tokens,
    load_embedding_file,
)
from causalkg.errors import (
    DimensionMismatchError,
    EmptyInputError,
    EncoderError,
    OutOfVocabularyError,
)

# Frozen output of the reference seeded-hash oracle below for ("cat", 7, 8).
CAT_SEED7_D8 = [
    0.03513283981415346, 0.058134439890168754, 0.48723030668762346,
    -0.3102951823354438, 0.5009228846568179, 0.13237602513390978,
    0.019679739419186573, -0.6267975414621368,
]


def reference_base_vector(token, seed, dimension):
    # independent re-implementation of the definition: SHA-256 of
    # "<seed>\x00<token>", first 16 bytes seeding PCG64, unit-normalized
    # standard-normal draw
    digest = hashlib.sha256(f"{seed}\x00{token}".encode("utf-8")).digest()
    gen = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:16], "big")))
    v = gen.standard_normal(dimension)
    return v / np.linalg.norm(v)


def test_config_validation():
    with pytest.raises(EncoderError):
        EncoderConfig(kind="bert")
    with pytest.raises(EncoderError):
        EncoderConfig(dimension=1)
    with pytest.raises(EncoderError):
        EncoderConfig(context_window=-1)
    with pytest.raises(EncoderError):
        EncoderConfig(kind="file")  # needs embedding_path
    cfg = EncoderConfig(dimension=16, seed=3, context_window=1)
    assert EncoderConfig.from_dict(cfg.to_dict()) == cfg


def test_from_dict_loads_every_key_to_dict_writes():
    for cfg in (EncoderConfig(), EncoderConfig(kind="file", dimension=3, seed=-2, embedding_path="v.txt")):
        assert set(cfg.to_dict()) == set(EncoderConfig.__dataclass_fields__)
        assert EncoderConfig.from_dict(cfg.to_dict()) == cfg
    assert EncoderConfig.from_dict({}) == EncoderConfig()


@pytest.mark.parametrize("data, message", [
    ({"dimensoin": 16}, "unknown encoder config field(s): dimensoin"),
    ({"dimension": 16.9}, "'dimension' must be an integer"),
    ({"dimension": 16.0}, "'dimension' must be an integer"),
    ({"dimension": "16"}, "'dimension' must be an integer"),
    ({"context_window": True}, "'context_window' must be an integer"),
    ({"seed": False}, "'seed' must be an integer"),
    ({"seed": None}, "'seed' must be an integer"),
    ({"kind": 5}, "'kind' must be a string"),
    ({"kind": "file", "embedding_path": 5}, "'embedding_path' must be a string"),
    ([("dimension", 16)], "must be an object"),
])
def test_from_dict_rejects_unknown_and_mistyped_fields(data, message):
    with pytest.raises(ValueError) as exc:
        EncoderConfig.from_dict(data)
    assert message in str(exc.value)


def test_determinism_bitwise():
    cfg = EncoderConfig(dimension=32, seed=9)
    a = encode_tokens(["the", "baby", "cries"], cfg)
    b = encode_tokens(["the", "baby", "cries"], cfg)
    assert np.array_equal(a.token_vectors, b.token_vectors)
    assert np.array_equal(a.passage_vector, b.passage_vector)


def test_base_vector_matches_reference_oracle():
    got = base_vector("cat", 7, 8)
    assert np.allclose(got, reference_base_vector("cat", 7, 8), atol=0, rtol=0)
    assert np.allclose(got, CAT_SEED7_D8, atol=1e-15)


def test_base_vectors_come_from_the_cache_bit_for_bit_and_owned_by_the_caller():
    tokens = [f"w{i}" for i in range(40)] + ["cat", "cat"]
    for seed, dimension in ((7, 8), (0, 64), (True, 8)):
        for token in tokens:
            first = base_vector(token, seed, dimension)
            assert first.tobytes() == reference_base_vector(token, seed, dimension).tobytes()
            first[:] = 99.0  # the caller owns what it gets
            again = base_vector(token, seed, dimension)
            assert again.tobytes() == reference_base_vector(token, seed, dimension).tobytes()
    # a seed of True hashes as "True", not as 1
    assert base_vector("cat", True, 8).tobytes() != base_vector("cat", 1, 8).tobytes()
    cfg = EncoderConfig(dimension=8, seed=7, context_window=0)
    encoded = encode_tokens(["cat", "dog"], cfg)
    encoded.token_vectors[:] = 99.0
    assert encode_tokens(["cat", "dog"], cfg).token_vectors.tobytes() == np.stack(
        [reference_base_vector(t, 7, 8) for t in ("cat", "dog")]
    ).tobytes()


def test_window_zero_is_unit_base_vectors():
    cfg = EncoderConfig(dimension=16, seed=0, context_window=0)
    enc = encode_tokens(["alpha", "beta"], cfg)
    for i, tok in enumerate(["alpha", "beta"]):
        assert abs(np.linalg.norm(enc.token_vectors[i]) - 1.0) < 1e-9
        assert np.array_equal(enc.token_vectors[i], base_vector(tok, 0, 16))


def test_context_sensitivity():
    cfg = EncoderConfig(dimension=16, seed=0, context_window=2)
    a = encode_tokens(["cat", "sat", "here"], cfg)
    b = encode_tokens(["cat", "ran", "away"], cfg)
    assert not np.allclose(a.token_vectors[0], b.token_vectors[0])


def test_contextual_weighting_hand_computed():
    cfg = EncoderConfig(dimension=8, seed=4, context_window=1)
    tokens = ["x", "y", "z"]
    enc = encode_tokens(tokens, cfg)
    base = np.stack([base_vector(t, 4, 8) for t in tokens])
    mid = base[1] + 0.5 * base[0] + 0.5 * base[2]
    mid /= np.linalg.norm(mid)
    assert np.allclose(enc.token_vectors[1], mid, atol=1e-12)
    assert np.allclose(enc.passage_vector, enc.token_vectors.mean(axis=0), atol=1e-12)


def test_passage_vector_is_mean():
    enc = encode_tokens(["a", "b", "c", "d"], EncoderConfig(dimension=12, seed=2))
    assert enc.passage_vector.tobytes() == enc.token_vectors.mean(axis=0).tobytes()


def test_row_mean_is_mean_bit_for_bit():
    # the premise of _row_mean: for float64, np.mean is np.add.reduce over
    # the axis and a true divide by the count
    rng = np.random.default_rng(0)
    for n in range(1, 60):
        x = rng.standard_normal((n, 64)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
        start = int(rng.integers(0, n))
        for rows in (x, x[start : start + int(rng.integers(1, n + 1))]):
            assert encoder._row_mean(rows).tobytes() == rows.mean(axis=0).tobytes()


def test_a_token_utf8_cannot_encode_raises_encoder_error():
    # a lone surrogate has no UTF-8 bytes for the hash
    with pytest.raises(EncoderError, match=r"^cannot encode token 'a\\ud800': surrogates not allowed$"):
        encode_tokens(["b", "a\ud800"], EncoderConfig(dimension=8))


def test_empty_input_rejected():
    with pytest.raises(EmptyInputError):
        encode_tokens([], EncoderConfig())


def test_file_encoder_round_trip(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("cat 1.0 0.0 0.0\ndog 0.0 2.0 0.5\n")
    cfg = EncoderConfig(kind="file", dimension=3, embedding_path=str(path))
    enc = encode_tokens(["dog", "cat"], cfg)
    assert np.array_equal(enc.token_vectors, [[0.0, 2.0, 0.5], [1.0, 0.0, 0.0]])
    assert np.allclose(enc.passage_vector, [0.5, 1.0, 0.25])
    with pytest.raises(OutOfVocabularyError):
        encode_tokens(["bird"], cfg)


def test_embedding_file_errors(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("cat 1.0 nope\n")
    with pytest.raises(EncoderError):
        load_embedding_file(str(path))
    path.write_text("cat 1.0 2.0\n")
    with pytest.raises(DimensionMismatchError):
        load_embedding_file(str(path), dimension=3)


@pytest.mark.parametrize("name, reason", [
    ("missing.txt", "No such file or directory"),
    (".", "Is a directory"),
    ("latin1.txt", "can't decode byte 0xe9"),
])
def test_embedding_file_read_errors_are_encoder_errors(tmp_path, name, reason):
    (tmp_path / "latin1.txt").write_bytes("caf\xe9 1.0 2.0\n".encode("latin-1"))
    path = str(tmp_path / name)
    message = re.escape(f"cannot read embedding file {path}: ") + ".*" + re.escape(reason)
    with pytest.raises(EncoderError, match=message):
        load_embedding_file(path)


def test_embedding_file_skips_blank_lines(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("\ncat 1.0 2.0\n   \ndog 0.0 1.0\n\n")
    table = load_embedding_file(str(path), dimension=2)
    assert list(table) == ["cat", "dog"] and np.array_equal(table["dog"], [0.0, 1.0])


def file_config(path, dimension=2):
    return EncoderConfig(kind="file", dimension=dimension, embedding_path=str(path))


def test_file_encoder_rereads_a_file_rewritten_with_a_new_size(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("cat 1.0 0.0\n")
    assert np.array_equal(encode_tokens(["cat"], file_config(path)).token_vectors, [[1.0, 0.0]])
    path.write_text("cat 1.5 0.25\n")
    assert np.array_equal(encode_tokens(["cat"], file_config(path)).token_vectors, [[1.5, 0.25]])


def test_file_encoder_rereads_a_same_size_file_with_a_new_mtime(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("cat 1.0 0.0\n")
    before = os.stat(path)
    assert np.array_equal(encode_tokens(["cat"], file_config(path)).token_vectors, [[1.0, 0.0]])
    path.write_text("cat 2.0 0.0\n")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))
    after = os.stat(path)
    assert (after.st_size, after.st_ino) == (before.st_size, before.st_ino)
    assert np.array_equal(encode_tokens(["cat"], file_config(path)).token_vectors, [[2.0, 0.0]])


def test_file_encoder_output_does_not_alias_the_cache(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("cat 1.0 0.0\ndog 0.0 1.0\n")
    cfg = file_config(path)
    first = encode_tokens(["cat", "dog"], cfg)
    first.token_vectors[:] = 99.0
    second = encode_tokens(["cat", "dog"], cfg)
    assert np.array_equal(second.token_vectors, [[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(second.passage_vector, [0.5, 0.5])


def test_file_encoder_does_not_cache_a_failed_load(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("cat 1.0 nope\n")
    broken = os.stat(path)
    with pytest.raises(EncoderError):
        encode_tokens(["cat"], file_config(path))
    # fixed in place with the same size and mtime: the same cache key
    path.write_text("cat 1.0 2.50\n")
    os.utime(path, ns=(broken.st_atime_ns, broken.st_mtime_ns))
    fixed = os.stat(path)
    assert (fixed.st_size, fixed.st_mtime_ns) == (broken.st_size, broken.st_mtime_ns)
    assert np.array_equal(encode_tokens(["cat"], file_config(path)).token_vectors, [[1.0, 2.5]])


def test_file_encoder_checks_dimension_on_load(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("cat 1.0 2.0\n")
    assert np.array_equal(encode_tokens(["cat"], file_config(path)).token_vectors, [[1.0, 2.0]])
    # the version parsed above is cached, but not for another dimension
    with pytest.raises(DimensionMismatchError):
        encode_tokens(["cat"], file_config(path, dimension=3))


def test_file_encoder_parses_each_file_version_once(tmp_path, monkeypatch):
    calls = []

    def counting(path, dimension=None):
        calls.append(path)
        return load_embedding_file(path, dimension)

    monkeypatch.setattr(encoder, "load_embedding_file", counting)
    path = tmp_path / "emb.txt"
    path.write_text("cat 1.0 0.0\ndog 0.0 1.0\n")
    cfg = file_config(path)
    for _ in range(50):
        encode_tokens(["dog", "cat", "dog"], cfg)
    with pytest.raises(OutOfVocabularyError):
        encode_tokens(["bird"], cfg)
    assert calls == [str(path)]
    path.write_text("cat 1.0 0.0\ndog 0.0 1.0\nbird 1.0 1.0\n")
    assert np.array_equal(encode_tokens(["bird"], cfg).token_vectors, [[1.0, 1.0]])
    assert calls == [str(path)] * 2
