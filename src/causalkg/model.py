"""Span-classification model: span enumeration, attention pooling, and the
entity / attribute / relation classifier heads, plus decoding into a graph.

Extraction and training share one span forward: a `SpanTable` lists every
span of a sentence by width and owns the arrays of its pooling passes,
`table_reps` pools the whole table with one stacked matmul per width,
and `table_backward` is its exact backward, which only training calls.
Training lays out the relation head's rows with `pair_rows`; extraction
scores the head factored, per span and per token gap, with `relation_scores`.

The model's parameters are one `Params`, a float64 buffer that holds nine
named groups back to back, over a frozen token encoder:

* attention scorer (w, b) that pools each candidate span's token vectors,
* a width-embedding table indexed by span length,
* a linear+softmax entity head over [span ; passage ; width] (null class 0),
* a linear+sigmoid attribute head over the same representation,
* a linear+sigmoid relation head over
  [head span ; head width ; between-context maxpool ; tail span ; tail width].
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .encoder import EncoderConfig, TokenEncoding, encode_tokens
from .errors import DimensionMismatchError, GraphError, InputError
from .graphs import KnowledgeGraph, Span, _texts
from .graphs import assemble_columns as assemble_graph  # the name bench/tracing.py wraps
from .readers import integer, load_json, obj, real, required, within, write_text
from .schema import Schema, schema_from_dict, schema_to_dict

__all__ = [
    "PARAM_GROUPS",
    "Params",
    "Model",
    "check_thresholds",
    "enumerate_spans",
    "span_attention",
    "span_representations",
    "between_contexts",
    "pair_contexts",
    "classify_entities",
    "classify_attributes",
    "classify_relations",
    "relation_scores",
    "extract",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 1

# The most parameters a model may hold, 16 GiB of float64: orders above any
# real model, and a cap that refuses a size read from a file or a config
# before numpy is asked for the buffer.
MAX_PARAMETERS = 2**31

PARAM_GROUPS = ("attn_w", "attn_b", "width", "ent_w", "ent_b", "attr_w", "attr_b", "rel_w", "rel_b")


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    e = np.exp(z - np.maximum.reduce(z, axis=axis, keepdims=True))
    e /= np.add.reduce(e, axis=axis, keepdims=True)
    return e


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) where z >= 0 and exp(z) / (1 + exp(z)) elsewhere, so
    exp never overflows.  Both are e = exp(-|z|) <= 1 over 1 + e, with the
    numerator max(e, z >= 0) being 1 or e; -|z| is taken as min(z, -z),
    which keeps a NaN's sign, so every bit is the two-branch form's."""
    e = np.exp(np.minimum(z, -z))
    return np.maximum(e, z >= 0) / (1.0 + e)


def check_thresholds(theta_r: float, theta_a: float) -> None:
    """Raise InputError unless both decision thresholds are numbers in (0, 1)."""
    r, a = real(theta_r, "theta_r", InputError), real(theta_a, "theta_a", InputError)
    if not (0.0 < r < 1.0 and 0.0 < a < 1.0):
        raise InputError(
            f"thresholds must lie in (0, 1), got relation {theta_r} and attribute {theta_a}"
        )


class Params(Mapping):
    """The parameter groups by name, in PARAM_GROUPS order: views of one
    float64 buffer, `flat` (zeroed if not given), that holds them back to back.
    A group changes in place.  `Params(p.shapes)` is p's zeroed twin.

    A group that were rebound or removed would leave `flat`, which copy,
    save and every training step read, so Params has no method that
    removes a group, and storing one raises InputError unless it stores a
    group's own view back, as `params[name] += x` does.
    """

    def __init__(self, shapes: Sequence[tuple[int, ...]], flat: np.ndarray | None = None):
        self.shapes = tuple(shapes)
        ends = list(itertools.accumulate(map(math.prod, self.shapes), initial=0))
        self.flat = np.zeros(ends[-1]) if flat is None else flat
        views = (self.flat[lo:hi].reshape(shape) for lo, hi, shape in zip(ends, ends[1:], self.shapes))
        self._groups = dict(zip(PARAM_GROUPS, views))

    def __getitem__(self, name: str) -> np.ndarray:
        return self._groups[name]

    def __iter__(self):
        return iter(self._groups)

    def __len__(self) -> int:
        return len(self._groups)

    def __setitem__(self, name: str, value) -> None:
        if name not in self._groups or value is not self._groups[name]:
            raise InputError(
                f"cannot rebind or add parameter group {name!r}: each group is a view of"
                " Params.flat, so write into it in place, params[name][...] = value"
            )

    def copy(self) -> "Params":
        """This layout over a copy of flat."""
        return Params(self.shapes, self.flat.copy())

    def __reduce__(self):
        # pickle and deepcopy build the layout afresh and copy flat into it,
        # so the groups stay views of a buffer of its own: restoring each
        # group apart would part it from flat, and an unpickled flat may
        # hold its data in a bytes object
        return Params, (self.shapes,), self.flat

    def __setstate__(self, flat: np.ndarray) -> None:
        self.flat[...] = flat


def _group(name: str) -> property:
    """Model.<name>: that group's view in the model's params, read-only as an attribute."""
    return property(lambda model: model.params[name])


@dataclass(frozen=True)
class Model:
    """Parameter set for one schema + encoder configuration.

    Entity classes are [null] + schema.entity_types, in that order.  A field
    changes only through `dataclasses.replace`, which `__post_init__` checks;
    each PARAM_GROUPS name reads its group's view in `params` (attn_b is 0-d).
    """

    schema: Schema
    encoder: EncoderConfig
    params: Params
    max_span_len: int = 10
    width_dim: int = 8
    theta_r: float = 0.4
    theta_a: float = 0.5
    attn_w, attn_b, width, ent_w, ent_b, attr_w, attr_b, rel_w, rel_b = map(_group, PARAM_GROUPS)

    def __post_init__(self) -> None:
        """Raise InputError unless params has the layout that the schema and
        sizes give and the thresholds lie in (0, 1): a bad replace fails here."""
        want = tuple(_shapes(self.schema, self.dimension, self.max_span_len, self.width_dim))
        have = getattr(self.params, "shapes", None)
        if have != want:
            raise InputError(
                f"parameters of shapes {have} do not fit schema {self.schema.name!r}, dimension {self.dimension},"
                f" max_span_len {self.max_span_len} and width_dim {self.width_dim}, which give shapes {want}"
            )
        check_thresholds(self.theta_r, self.theta_a)

    @property
    def dimension(self) -> int:
        return self.encoder.dimension

    @property
    def rep_dim(self) -> int:
        return 2 * self.dimension + self.width_dim

    @property
    def pair_dim(self) -> int:
        return 3 * self.dimension + 2 * self.width_dim

    @property
    def entity_classes(self) -> tuple[str, ...]:
        return (None,) + self.schema.entity_types  # class 0 is null

    @staticmethod
    def initialize(
        schema: Schema,
        encoder: EncoderConfig,
        max_span_len: int = 10,
        width_dim: int = 8,
        theta_r: float = 0.4,
        theta_a: float = 0.5,
        seed: int = 0,
    ) -> "Model":
        """Seeded init: zero biases, uniform(+/- 1/sqrt(fan_in)) weights,
        whose fan_in is the length of a weight's last axis.  A size or seed
        that is not an integer, or a negative seed, raises InputError."""
        params = Params(_shapes(schema, encoder.dimension, max_span_len, width_dim))
        if integer(seed, "seed", InputError) < 0:
            raise InputError(f"seed must be >= 0, got {seed}")
        rng = np.random.default_rng(seed)
        for name, group in params.items():  # the weights are drawn in PARAM_GROUPS order
            if not name.endswith("_b"):
                bound = 1.0 / np.sqrt(group.shape[-1])
                group[...] = rng.uniform(-bound, bound, size=group.shape)
        return Model(schema, encoder, params, max_span_len, width_dim, theta_r, theta_a)

    def copy(self) -> "Model":
        return replace(self, params=self.params.copy())


def _shapes(schema: Schema, d: int, max_span_len: int, width_dim: int) -> list[tuple[int, ...]]:
    """Each parameter group's shape, in PARAM_GROUPS order.  A size that is
    not an integer >= 1, or sizes that give more than MAX_PARAMETERS
    parameters, raise InputError, before anything is allocated."""
    if integer(max_span_len, "max_span_len", InputError) < 1 or integer(width_dim, "width_dim", InputError) < 1:
        raise InputError(f"max_span_len and width_dim must be >= 1, got {max_span_len} and {width_dim}")
    rep, pair = 2 * d + width_dim, 3 * d + 2 * width_dim
    ents, attrs = len(schema.entity_types) + 1, len(schema.attribute_types)
    rels = len(schema.relation_types)
    shapes = [(d,), (), (max_span_len, width_dim), (ents, rep), (ents,), (attrs, rep), (attrs,), (rels, pair), (rels,)]
    total = sum(map(math.prod, shapes))
    if total > MAX_PARAMETERS:
        raise InputError(
            f"dimension {d}, max_span_len {max_span_len} and width_dim {width_dim} give {total} parameters,"
            f" more than the {MAX_PARAMETERS} a model may hold"
        )
    return shapes


def enumerate_spans(n: int, max_len: int) -> list[Span]:
    """All spans of length 1..max_len over n tokens, in (start, length) order;
    an n or max_len that is not an integer, or a max_len < 1, raises InputError."""
    integer(n, "n", InputError)
    if integer(max_len, "max_len", InputError) < 1:
        raise InputError("max_len must be >= 1")
    return [
        Span(start, start + length)
        for start in range(n)
        for length in range(1, min(max_len, n - start) + 1)
    ]


def span_attention(
    token_vectors: np.ndarray, span: Span, w: np.ndarray, b: float
) -> tuple[np.ndarray, np.ndarray]:
    """Attention-pooled span vector.

    Returns (alpha, pooled) where alpha is the softmax over the span of
    w . h_t + b and pooled the alpha-weighted sum of the token vectors.
    """
    h = token_vectors[span.start : span.end]
    alpha = softmax(h @ w + b)
    return alpha, alpha @ h


@dataclass(frozen=True)
class SpanTable:
    """Every span of 1..max_len of n tokens, by width and then by start: the
    span of width w at start s is row offsets[w - 1] + s, and widths[row] its
    width-table row.  Built over token vectors, the table owns the arrays
    that `table_reps` and its exact backward `table_backward` write, which
    each call overwrites: alpha, the rows' weights padded to the widest span,
    and sums, their sums, with groups holding (w, windows, lo, hi, scores,
    sums, weights) for each width w: rows lo:hi, their token windows (a (c,
    w, d) read-only view whose every item has the strides of its token
    slice) and their views into alpha and sums; and the backward arrays,
    made on the first backward call."""

    n: int
    max_len: int
    offsets: tuple[int, ...]
    widths: np.ndarray
    groups: tuple[tuple, ...] | None = None
    alpha: np.ndarray | None = None
    sums: np.ndarray | None = None

    def rows(self, spans: Sequence[Span], where: str) -> np.ndarray:
        """The spans' rows; a span past the n tokens or over max_len tokens
        raises GraphError naming it, after where."""
        for span in spans:  # a few dozen spans: Python's scalar work is faster than numpy's calls
            if span.end > self.n or span.end - span.start > self.max_len:
                why = f"beyond {self.n} tokens" if span.end > self.n else f"longer than max_span_len {self.max_len}"
                raise GraphError(f"{where}: span [{span.start}, {span.end}) {why}")
        return np.array([self.offsets[span.end - span.start - 1] + span.start for span in spans], dtype=np.intp)

    @cached_property
    def backward_arrays(self) -> tuple:
        """`table_backward`'s arrays (dz, centre, d_attn_w, d_attn_b), then
        each width's views for its two passes."""
        rows, d = len(self.widths), self.groups[0][1].shape[2] if self.groups else 0
        dz = np.zeros(self.alpha.shape)  # d_alpha, then dz; no call reads past a row's width
        centre, d_attn_w, d_attn_b = np.empty((rows, 1)), np.empty((rows, d)), np.empty(rows)  # centre: alpha . d_alpha
        # (windows, lo, hi, weights, d_alpha, centre) and (windows, dz as rows, dz, d_attn_w, d_attn_b)
        first = tuple((win, lo, hi, weights, dz[lo:hi, :w, None], centre[lo:hi, :, None])
                      for w, win, lo, hi, _, _, weights in self.groups)
        second = tuple((win, dz[lo:hi, None, :w], dz[lo:hi, :w], d_attn_w[lo:hi, None, :], d_attn_b[lo:hi])
                       for w, win, lo, hi, _, _, _ in self.groups)
        return dz, centre, d_attn_w, d_attn_b, first, second


def _windows(H: np.ndarray, w: int) -> np.ndarray:
    shape, strides = (len(H) - w + 1, w, H.shape[1]), (H.strides[0], *H.strides)
    if H.flags.forc:  # the constructor takes a contiguous buffer only, at an eighth of as_strided's cost
        return np.ndarray(shape, H.dtype, memoryview(H).toreadonly(), 0, strides)
    return as_strided(H, shape, strides, writeable=False)


def span_table(n: int, max_len: int, token_vectors: np.ndarray | None = None) -> SpanTable:
    """The SpanTable of n tokens, with the windows of their token vectors and
    the forward arrays when given."""
    counts = list(range(n, n - min(n, max_len), -1))  # n - w + 1 spans of width w
    offsets = tuple(itertools.accumulate(counts, initial=0))
    widths = np.repeat(np.arange(len(counts)), counts)
    widths.flags.writeable = False  # training steps share it
    if token_vectors is None:
        return SpanTable(n, max_len, offsets, widths)
    alpha, sums = np.empty((len(widths), len(counts))), np.empty((len(widths), 1))
    groups = tuple(
        (w, _windows(token_vectors, w), lo, hi, alpha[lo:hi, :w], sums[lo:hi], alpha[lo:hi, None, :w])
        for w, lo, hi in zip(range(1, len(offsets)), offsets, offsets[1:])
    )
    return SpanTable(n, max_len, offsets, widths, groups, alpha, sums)


def table_reps(model: Model, table: SpanTable, passage: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every table span's attention weights, padded with zeros to the widest
    span, and its [pooled ; passage ; width] row.  Each item of a width's
    stacked matmul makes the BLAS call of that span's `span_attention`, so
    both equal its results bit for bit.  The -inf padding of the scores turns
    into zero weights through the max, the shift and the exp, which run on
    the whole table; the matmuls and the row sums run per width, so each
    sum adds the span's own weights.  The weights are the table's alpha,
    which the next call over the table overwrites."""
    params, d = model.params, model.dimension
    reps = np.empty((len(table.widths), model.rep_dim))
    reps[:, d : 2 * d] = passage
    reps[:, 2 * d :] = params["width"].take(table.widths, axis=0)
    alpha = table.alpha
    alpha.fill(-np.inf)
    attn_w = params["attn_w"]
    for _, win, _, _, scores, _, _ in table.groups:
        np.matmul(win, attn_w, out=scores)
    alpha += params["attn_b"]
    alpha -= np.maximum.reduce(alpha, axis=1, keepdims=True, initial=-np.inf)
    np.exp(alpha, out=alpha)
    for _, _, _, _, scores, sums, _ in table.groups:
        np.add.reduce(scores, axis=1, keepdims=True, out=sums)
    alpha /= table.sums
    for _, win, lo, hi, _, _, weights in table.groups:
        np.matmul(weights, win, out=reps[lo:hi, None, :d])
    return alpha, reps


def table_backward(table: SpanTable, d_pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each table row's term of attn_w's gradient and of attn_b's, given the
    rows' pooled-vector gradients and the weights of the last `table_reps`
    over the table: its exact backward, stacked by width the same way.  The
    terms are the table's backward arrays, which the next call overwrites."""
    dz, centre, d_attn_w, d_attn_b, first, second = table.backward_arrays
    for win, lo, hi, weights, d_alpha, centre_rows in first:
        np.matmul(win, d_pooled[lo:hi, :, None], out=d_alpha)
        np.matmul(weights, d_alpha, out=centre_rows)
    dz -= centre
    dz *= table.alpha  # alpha * (d_alpha - centre); the padding's weights are 0
    for win, dz_rows, dz_w, d_attn_w_rows, d_attn_b_rows in second:
        np.matmul(dz_rows, win, out=d_attn_w_rows)
        np.add.reduce(dz_w, axis=1, out=d_attn_b_rows)
    return d_attn_w, d_attn_b


def between_contexts(token_vectors: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Row i is the maxpool of token_vectors[lo[i]:hi[i]], or a zero vector
    where hi[i] <= lo[i] (spans that are adjacent or overlap).

    Maxima come from a sparse table: level j holds the maxima of the
    windows of 2**j tokens, and a range is covered by two windows of its
    level.  A maximum is one of its inputs however they are grouped, so
    each row equals `token_vectors[lo:hi].max(axis=0)` bit for bit.
    """
    n, d = token_vectors.shape
    length = hi - lo
    out = np.zeros((len(lo), d))
    rows = np.flatnonzero(length > 0)
    if len(rows):
        lo, length = lo[rows], length[rows]
        level = np.frexp(length)[1] - 1  # floor(log2(length))
        table = np.empty((int(level.max()) + 1, n, d))
        table[0] = token_vectors
        for j in range(1, len(table)):
            half, windows = 1 << (j - 1), n - (1 << j) + 1
            np.maximum(table[j - 1, :windows], table[j - 1, half : half + windows], out=table[j, :windows])
        out[rows] = np.maximum(table[level, lo], table[level, lo + length - (1 << level)])
    return out


def _pair_gaps(spans: Sequence[Span], heads: np.ndarray, tails: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The token gap [lo, hi) of each pair (spans[heads[i]], spans[tails[i]]):
    after the first span to end and before the last to start, empty where
    hi <= lo."""
    starts, ends = np.array([(s.start, s.end) for s in spans], dtype=np.intp).reshape(-1, 2).T
    return np.minimum(ends[heads], ends[tails]), np.maximum(starts[heads], starts[tails])


def pair_contexts(
    token_vectors: np.ndarray, spans: Sequence[Span], heads: np.ndarray, tails: np.ndarray
) -> np.ndarray:
    """Row i is the between-context maxpool of the pair (spans[heads[i]],
    spans[tails[i]]) over its token gap, or a zero vector if that is empty."""
    return between_contexts(token_vectors, *_pair_gaps(spans, heads, tails))


def pair_rows(reps: np.ndarray, heads: np.ndarray, tails: np.ndarray, between: np.ndarray) -> np.ndarray:
    """Relation-head inputs of the span-rep pairs (reps[heads[i]],
    reps[tails[i]]), given their between-context rows: row i is [head ; head
    width ; between[i] ; tail ; tail width], copied part by part."""
    d = between.shape[1]
    ends = np.concatenate([reps[:, :d], reps[:, 2 * d :]], axis=1)  # each span's [pooled ; width]
    e = ends.shape[1]
    rows = np.empty((len(heads), 2 * e + d))
    # one gather at a time: the allocator reuses a large temporary freed
    # before the next is made, where ones alive together fault in new pages
    rows[:, :e] = ends.take(heads, axis=0)
    rows[:, e:-e] = between
    rows[:, -e:] = ends.take(tails, axis=0)
    return rows


def relation_scores(
    model: Model, token_vectors: np.ndarray, spans: Sequence[Span], reps: np.ndarray, heads: np.ndarray,
    tails: np.ndarray,
) -> np.ndarray:
    """Relation-head scores of the pairs (spans[heads[i]], spans[tails[i]]),
    whose reps are given, as an (m, relation types) array.  The head is
    linear before its sigmoid, so a logit is a term of the head's [pooled ;
    width], one of the pair's token gap and one of the tail's, over `rel_w`'s
    blocks at `pair_rows`' offsets; each distinct gap is pooled once.  The
    sums run in another order than a pair row's dot product, so scores agree
    with `classify_relations` over `pair_rows` to the last few bits only."""
    n, d = token_vectors.shape
    ends = np.concatenate([reps[:, :d], reps[:, 2 * d :]], axis=1)  # each span's [pooled ; width]
    e, w = ends.shape[1], model.rel_w
    # a slot per (lo, hi): the used slots are the distinct gaps, numbered in
    # slot order with no sort, and each pair reads its gap's number back
    gap = np.ravel_multi_index(_pair_gaps(spans, heads, tails), (n + 1, n + 1))
    slots = np.zeros((n + 1) ** 2, dtype=np.intp)
    slots[gap] = 1
    distinct = np.flatnonzero(slots)
    slots[distinct] = np.arange(len(distinct))
    between = between_contexts(token_vectors, *np.unravel_index(distinct, (n + 1, n + 1)))
    logits = (ends @ w[:, :e].T).take(heads, axis=0)
    logits += (between @ w[:, e : e + d].T).take(slots[gap], axis=0)
    logits += (ends @ w[:, e + d :].T).take(tails, axis=0)
    logits += model.rel_b
    return sigmoid(logits)


pair_rep = relation_scores  # the name bench/tracing.py wraps; extract calls it by this name


def classify_entities(model: Model, reps: np.ndarray) -> np.ndarray:
    """Per-span class distribution over [null] + entity types."""
    if reps.shape[-1] != model.rep_dim:
        raise DimensionMismatchError(f"expected rep dim {model.rep_dim}, got {reps.shape[-1]}")
    return softmax(reps @ model.ent_w.T + model.ent_b, axis=-1)


def classify_attributes(model: Model, reps: np.ndarray) -> np.ndarray:
    """Independent sigmoid score per attribute type for identified entities."""
    if reps.shape[-1] != model.rep_dim:
        raise DimensionMismatchError(f"expected rep dim {model.rep_dim}, got {reps.shape[-1]}")
    return sigmoid(reps @ model.attr_w.T + model.attr_b)


def classify_relations(model: Model, reps: np.ndarray) -> np.ndarray:
    """Independent sigmoid score per relation type for ordered entity pairs."""
    if reps.shape[-1] != model.pair_dim:
        raise DimensionMismatchError(f"expected pair dim {model.pair_dim}, got {reps.shape[-1]}")
    return sigmoid(reps @ model.rel_w.T + model.rel_b)


def span_representations(
    model: Model, encoding: TokenEncoding, spans: Sequence[Span]
) -> tuple[np.ndarray, np.ndarray]:
    """The spans' attention weights and their stacked entity reps, in the
    order given, gathered from the `table_reps` of the encoding.  Row i of
    the weights holds span i's and then zeros up to the widest span of the
    table; row i of reps is [pooled ; passage ; width].  A span past the
    encoding or over max_span_len raises GraphError naming it."""
    H = encoding.token_vectors
    table = span_table(len(H), model.max_span_len, H)
    rows = table.rows(spans, "span_representations")
    alpha, reps = table_reps(model, table, encoding.passage_vector)
    return alpha.take(rows, axis=0), reps.take(rows, axis=0)


def extract(
    tokens: Sequence[str],
    lemmas: Sequence[str] | None,
    model: Model,
    provenance: str = "",
) -> KnowledgeGraph:
    """Run the full pipeline on one sentence and decode a KnowledgeGraph.

    Spans whose entity argmax is non-null become entities (confidence =
    argmax probability); attributes with score >= theta_a attach to them;
    ordered entity pairs receive every relation scoring >= theta_r.
    Tokens and lemmas that are not sequences of strings raise GraphError
    before any is encoded.
    """
    tokens = _texts(tokens, "token")
    lemmas = None if lemmas is None else _texts(lemmas, "lemma")
    relation_types = model.schema.relation_types
    if len(tokens) == 0:
        no_rows = np.zeros(0, dtype=np.intp)
        return assemble_graph(
            tokens, lemmas, [], [], relation_types, no_rows, no_rows, no_rows, np.zeros(0), provenance
        )
    encoding = encode_tokens(tokens, model.encoder)
    spans = enumerate_spans(len(tokens), model.max_span_len)
    _, reps = span_representations(model, encoding, spans)
    probs = classify_entities(model, reps)
    classes = probs.argmax(axis=1)

    entities = []
    kept: list[int] = []  # the rows of the spans kept as entities
    for row, cls in enumerate(classes.tolist()):
        if cls:
            ent_type, conf = model.entity_classes[cls], float(probs[row, cls])
            entities.append((f"e{len(kept)}", spans[row], ent_type, conf))
            kept.append(row)

    attributes = []
    kept_reps = reps[kept]
    if kept:
        attribute_types = model.schema.attribute_types
        for (ent_id, _, _, _), scores in zip(entities, classify_attributes(model, kept_reps).tolist()):
            for attr, score in zip(attribute_types, scores):
                if score >= model.theta_a:
                    attributes.append((ent_id, attr, score))

    # all k(k-1) ordered pairs, by head and then by tail; a lone entity has none
    k = len(kept)
    head = tail = np.zeros(0, dtype=np.intp)
    scores = np.zeros((0, len(relation_types)))
    if k > 1:
        head, tail = np.divmod(np.arange(k * (k - 1)), k - 1)
        tail += tail >= head
        scores = pair_rep(model, encoding.token_vectors, [spans[i] for i in kept], kept_reps, head, tail)
    # row-major order: by pair, then by relation type
    rows, code = np.nonzero(scores >= model.theta_r)
    return assemble_graph(
        tokens, lemmas, entities, attributes, relation_types,
        head[rows], tail[rows], code, scores[rows, code], provenance,
    )


def save_model(model: Model, path: str) -> None:
    """Persist the model as a versioned JSON container.  A parameter group
    that is not finite, which `load_model` would refuse, raises InputError
    naming the file before it is opened."""
    for name, group in model.params.items():
        within(f"cannot save model {path!r}", _check_finite, name, group)
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "schema": schema_to_dict(model.schema),
        "encoder": model.encoder.to_dict(),
        "max_span_len": model.max_span_len,
        "width_dim": model.width_dim,
        "theta_r": model.theta_r,
        "theta_a": model.theta_a,
        # a 0-d group (attn_b) is written as a plain number
        "parameters": {name: group.tolist() for name, group in model.params.items()},
    }
    write_text(path, json.dumps(doc) + "\n")


_MODEL_KEYS = (
    "format_version", "schema", "encoder", "max_span_len", "width_dim", "theta_r", "theta_a", "parameters"
)


def load_model(path: str) -> Model:
    """Read a model saved by `save_model`, its fields by `readers`' rules.

    Raises InputError (SchemaError for the stored schema) naming the file
    when a field is missing, unknown or mistyped, a threshold lies outside
    (0, 1), or a parameter group is non-finite or not of the shape
    `Model.initialize` builds for the stored schema and sizes.
    """
    return within(f"malformed model file {path!r}", _model_from_dict, load_json(path))


def _check_finite(name: str, group: np.ndarray) -> None:
    if not np.all(np.isfinite(group)):
        raise InputError(f"model parameter {name!r} has non-finite values")


def _model_from_dict(doc) -> Model:
    obj(doc, "document", InputError, _MODEL_KEYS, expected="a JSON object")

    def field(key: str, read=None):
        return required(doc, key, repr(key), InputError, read)

    if field("format_version", integer) != MODEL_FORMAT_VERSION:
        raise InputError(f"unsupported model format {doc['format_version']!r}")
    groups = obj(field("parameters"), "'parameters'", InputError, PARAM_GROUPS)
    schema, encoder = schema_from_dict(field("schema")), EncoderConfig.from_dict(field("encoder"))
    max_span_len, width_dim = field("max_span_len", integer), field("width_dim", integer)
    theta_r, theta_a = field("theta_r", real), field("theta_a", real)
    shapes = _shapes(schema, encoder.dimension, max_span_len, width_dim)
    # each group is checked against the rows the file holds, and only then
    # is the buffer that the sizes give allocated
    values = []
    for name, shape in zip(PARAM_GROUPS, shapes):
        # one np.array call per group; dtype=object keeps each JSON value as
        # it is, so a bool, a string or a ragged row shows in the types
        value = np.array(required(groups, name, f"model parameter {name!r}", InputError), dtype=object)
        if not set(map(type, value.ravel())) <= {int, float}:
            raise InputError(f"model parameter {name!r} must hold JSON numbers only")
        # a group of no rows, for a schema with no attribute or relation types, is written as []
        if value.shape != shape and not (value.shape == (0,) and math.prod(shape) == 0):
            raise InputError(f"model parameter {name!r} has shape {value.shape}, expected {shape}")
        try:
            value = value.astype(np.float64)
        except OverflowError:
            raise InputError(f"model parameter {name!r} holds a number a float cannot hold") from None
        _check_finite(name, value)
        values.append(value.ravel())
    params = Params(shapes, np.concatenate(values))
    return Model(schema, encoder, params, max_span_len, width_dim, theta_r, theta_a)
