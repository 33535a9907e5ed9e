"""Pluggable contextual token encoders.

Produces a passage vector and one contextual vector per token.  Two kinds:

* synthetic  - hermetic, deterministic encoder: each token's base vector is
  a seeded-hash unit vector, its contextual vector a normalized weighted sum
  of the base vectors in a +/- context_window neighborhood (weight 1 at the
  center, 1/2^|offset| at each offset), and the passage vector the mean of
  the contextual vectors.
* file       - reads precomputed per-token vectors from a text file, one
  record per line: token followed by d whitespace-separated floats.  The
  file is parsed once per (path, stat signature) into a read-only
  vocabulary matrix and reused across calls; rewriting the file changes its
  size or modification time, so the next call parses it again.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    EncoderError,
    InputError,
    OutOfVocabularyError,
)
from .readers import cannot, integer, obj, string

__all__ = ["EncoderConfig", "TokenEncoding", "encode_tokens", "load_embedding_file"]

# The largest vector an encoder may produce, 512 KiB of float64: far above
# any real encoder's, and a cap that refuses a size read from a config or a
# model file before a vector of it is drawn or read.
MAX_DIMENSION = 2**16


@dataclass(frozen=True)
class EncoderConfig:
    kind: str = "synthetic"
    dimension: int = 64
    seed: int = 0
    context_window: int = 2
    embedding_path: str | None = None

    def __post_init__(self) -> None:
        for name in ("dimension", "seed", "context_window"):
            integer(getattr(self, name), f"encoder config {name!r}", InputError)
        string(self.kind, "encoder config 'kind'", InputError)
        if self.embedding_path is not None:
            string(self.embedding_path, "encoder config 'embedding_path'", InputError)
        if self.kind not in ("synthetic", "file"):
            raise EncoderError(f"unknown encoder kind {self.kind!r}")
        if not 2 <= self.dimension <= MAX_DIMENSION:
            raise EncoderError(f"dimension must be >= 2 and <= {MAX_DIMENSION}, got {self.dimension}")
        if self.context_window < 0:
            raise EncoderError("context_window must be >= 0")
        if self.kind == "file" and not self.embedding_path:
            raise EncoderError("file encoder requires embedding_path")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "dimension": self.dimension,
            "seed": self.seed,
            "context_window": self.context_window,
            "embedding_path": self.embedding_path,
        }

    @staticmethod
    def from_dict(data: Mapping) -> "EncoderConfig":
        """Build from a JSON object; raises InputError on unknown or mistyped fields."""
        return EncoderConfig(**obj(data, "encoder config", InputError, EncoderConfig.__dataclass_fields__))


@dataclass(frozen=True)
class TokenEncoding:
    """Passage vector plus one contextual vector per token."""

    passage_vector: np.ndarray  # (d,)
    token_vectors: np.ndarray  # (n, d)


def base_vector(token: str, seed: int, dimension: int) -> np.ndarray:
    """Deterministic unit vector for a token, independent of position.

    The token and seed are hashed (SHA-256) into the state of a PCG64
    generator, which then draws a standard-normal vector that is normalized.
    The caller owns the array it gets.
    """
    return _base_vector(token, seed, dimension).copy()


@functools.lru_cache(maxsize=1024, typed=True)
def _base_vector(token: str, seed: int, dimension: int) -> np.ndarray:
    """`base_vector`'s draw, read-only, as the cache hands it to every caller
    of the same (token, seed, dimension).  typed keeps a seed of True apart
    from 1: the two hash to different vectors.  A token that UTF-8 cannot
    encode (a lone surrogate) has no bytes to hash and raises EncoderError."""
    try:
        key = f"{seed}\x00{token}".encode("utf-8")
    except UnicodeEncodeError as exc:
        raise EncoderError(f"cannot encode token {token!r}: {exc.reason}") from None
    digest = hashlib.sha256(key).digest()
    rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:16], "big")))
    v = rng.standard_normal(dimension)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:  # unreachable for a Gaussian draw, kept for safety
        raise EncoderError(f"degenerate base vector for {token!r}")
    v /= norm
    v.flags.writeable = False
    return v


def _row_mean(x: np.ndarray) -> np.ndarray:
    """x.mean(axis=0), bit for bit: for float64 that is the same add.reduce
    and division by the count, without np.mean's Python wrapper."""
    return np.add.reduce(x, axis=0) / len(x)


def _encode_synthetic(tokens: Sequence[str], config: EncoderConfig) -> TokenEncoding:
    n = len(tokens)
    d = config.dimension
    base = np.stack([_base_vector(t, config.seed, d) for t in tokens])  # stack copies the cached vectors
    window = config.context_window
    if window == 0:
        contextual = base.copy()
    else:
        # row i sums base[j] / 2**|j - i| over its neighbours j, left to right
        # from zero: one shifted block per offset, in ascending order
        contextual = np.zeros((n, d))
        reach = min(window, n - 1)
        for offset in range(-reach, reach + 1):
            lo, hi = max(0, -offset), n - max(0, offset)  # the rows that have a neighbour at this offset
            contextual[lo:hi] += base[lo + offset : hi + offset] / (2.0 ** abs(offset))
        norms = [math.sqrt(row @ row) for row in contextual]  # np.linalg.norm's arithmetic for a 1-D row
        if 0.0 in norms:
            raise EncoderError(f"degenerate contextual vector at position {norms.index(0.0)}")
        contextual /= np.array(norms)[:, None]
    return TokenEncoding(passage_vector=_row_mean(contextual), token_vectors=contextual)


def load_embedding_file(path: str, dimension: int | None = None) -> dict[str, np.ndarray]:
    """Parse an embedding file into a token -> vector mapping.  A file that
    cannot be opened or read as UTF-8, or a path that cannot name a file,
    raises EncoderError."""
    table: dict[str, np.ndarray] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                parts = line.split()
                if not parts:
                    continue
                token, values = parts[0], parts[1:]
                try:
                    vec = np.array([float(x) for x in values])
                except ValueError as exc:
                    raise EncoderError(f"{path}:{line_no}: bad float: {exc}") from exc
                if dimension is not None and vec.shape[0] != dimension:
                    raise DimensionMismatchError(
                        f"{path}:{line_no}: expected {dimension} floats, got {vec.shape[0]}"
                    )
                table[token] = vec
    except (OSError, ValueError) as exc:  # ValueError: a path with a NUL or a lone surrogate, or bytes not UTF-8
        raise cannot("read embedding file", path, exc, EncoderError) from exc
    return table


@functools.lru_cache(maxsize=4)
def _load_vocabulary(
    path: str, dimension: int, st_dev: int, st_ino: int, st_size: int, st_mtime_ns: int
) -> tuple[dict[str, int], np.ndarray]:
    """Token -> row index and the read-only (V, d) matrix of one file version.

    The stat fields only key the cache, as in linecache: a rewritten file
    misses it and is parsed (and checked) again.  A load that raises is not
    cached.
    """
    table = load_embedding_file(path, dimension)
    matrix = np.stack(list(table.values())) if table else np.empty((0, dimension))
    matrix.setflags(write=False)
    return {token: row for row, token in enumerate(table)}, matrix


def _encode_file(tokens: Sequence[str], config: EncoderConfig) -> TokenEncoding:
    path = config.embedding_path
    try:
        st = os.stat(path)
    except (OSError, ValueError) as exc:  # ValueError: a path with a NUL or a lone surrogate
        raise cannot("read embedding file", path, exc, EncoderError) from exc
    index, matrix = _load_vocabulary(path, config.dimension, st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
    rows = []
    for t in tokens:
        row = index.get(t)
        if row is None:
            raise OutOfVocabularyError(f"token {t!r} not in {path}")
        rows.append(row)
    contextual = matrix[rows]  # fancy indexing copies: callers never see the cache
    return TokenEncoding(passage_vector=_row_mean(contextual), token_vectors=contextual)


def encode_tokens(tokens: Sequence[str], config: EncoderConfig) -> TokenEncoding:
    """Encode a token sequence; deterministic for fixed (tokens, config)."""
    if len(tokens) == 0:
        raise EmptyInputError("cannot encode an empty token sequence")
    if config.kind == "synthetic":
        return _encode_synthetic(tokens, config)
    return _encode_file(tokens, config)
