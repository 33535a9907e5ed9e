"""Span-classification model: span enumeration, attention pooling, and the
entity / attribute / relation classifier heads, plus decoding into a graph.

The model is a set of numpy parameter arrays over a frozen token encoder:

* attention scorer (w, b) that pools each candidate span's token vectors,
* a width-embedding table indexed by span length,
* a linear+softmax entity head over [span ; passage ; width] (null class 0),
* a linear+sigmoid attribute head over the same representation,
* a linear+sigmoid relation head over
  [head span ; head width ; between-context maxpool ; tail span ; tail width].
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .encoder import EncoderConfig, TokenEncoding, encode_tokens
from .errors import DimensionMismatchError, InputError
from .graphs import KnowledgeGraph, Span
from .graphs import assemble_columns as assemble_graph  # the name bench/tracing.py wraps
from .readers import integer, load_json, obj, real, required, within, write_text
from .schema import Schema, schema_from_dict, schema_to_dict

__all__ = [
    "PARAM_GROUPS",
    "Model",
    "check_thresholds",
    "enumerate_spans",
    "span_attention",
    "span_representations",
    "between_contexts",
    "pair_block",
    "classify_entities",
    "classify_attributes",
    "classify_relations",
    "extract",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 1

PARAM_GROUPS = ("attn_w", "attn_b", "width", "ent_w", "ent_b", "attr_w", "attr_b", "rel_w", "rel_b")


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = z - z.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def check_thresholds(theta_r: float, theta_a: float) -> None:
    """Raise InputError unless both decision thresholds lie in (0, 1)."""
    if not (0.0 < theta_r < 1.0 and 0.0 < theta_a < 1.0):
        raise InputError(
            f"thresholds must lie in (0, 1), got relation {theta_r} and attribute {theta_a}"
        )


@dataclass
class Model:
    """Parameter set for one schema + encoder configuration.

    Entity classes are [null] + schema.entity_types, in that order.
    The PARAM_GROUPS fields are float64 arrays (attn_b is 0-d), treated as
    immutable during inference.
    """

    schema: Schema
    encoder: EncoderConfig
    max_span_len: int = 10
    width_dim: int = 8
    theta_r: float = 0.4
    theta_a: float = 0.5
    attn_w: np.ndarray = field(default=None)  # (d,)
    attn_b: np.ndarray = field(default=None)  # ()
    width: np.ndarray = field(default=None)  # (max_span_len, width_dim)
    ent_w: np.ndarray = field(default=None)  # (|Te|+1, 2d + dw)
    ent_b: np.ndarray = field(default=None)
    attr_w: np.ndarray = field(default=None)  # (|Ta|, 2d + dw)
    attr_b: np.ndarray = field(default=None)
    rel_w: np.ndarray = field(default=None)  # (|Tr|, 3d + 2dw)
    rel_b: np.ndarray = field(default=None)

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
        whose fan_in is the length of a weight's last axis."""
        shapes = _shapes(schema, encoder.dimension, max_span_len, width_dim)
        check_thresholds(theta_r, theta_a)
        rng = np.random.default_rng(seed)

        def uniform(shape):
            bound = 1.0 / np.sqrt(shape[-1])
            return rng.uniform(-bound, bound, size=shape)

        # the weights are drawn in PARAM_GROUPS order
        params = {name: np.zeros(s) if name.endswith("_b") else uniform(s) for name, s in shapes.items()}
        return Model(schema, encoder, max_span_len, width_dim, theta_r, theta_a, **params)

    def copy(self) -> "Model":
        return replace(self, **{name: getattr(self, name).copy() for name in PARAM_GROUPS})


def _shapes(schema: Schema, d: int, max_span_len: int, width_dim: int) -> dict[str, tuple[int, ...]]:
    """Each parameter group's shape, in PARAM_GROUPS order, without building it."""
    if max_span_len < 1 or width_dim < 1:
        raise InputError(f"max_span_len and width_dim must be >= 1, got {max_span_len} and {width_dim}")
    rep, pair = 2 * d + width_dim, 3 * d + 2 * width_dim
    ents, attrs = len(schema.entity_types) + 1, len(schema.attribute_types)
    rels = len(schema.relation_types)
    shapes = [(d,), (), (max_span_len, width_dim), (ents, rep), (ents,), (attrs, rep), (attrs,)]
    return dict(zip(PARAM_GROUPS, shapes + [(rels, pair), (rels,)]))


def enumerate_spans(n: int, max_len: int) -> list[Span]:
    """All spans of length 1..max_len over n tokens, in (start, length) order."""
    if max_len < 1:
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


def pair_block(
    token_vectors: np.ndarray,
    spans: Sequence[Span],
    pooled: np.ndarray,
    width_table: np.ndarray,
    heads: np.ndarray,
    tails: np.ndarray,
) -> np.ndarray:
    """Relation-head inputs of the pairs (spans[heads[i]], spans[tails[i]]),
    as an (m, 1, pair_dim) block; pooled holds one row per span.

    Row i is [head ; head width ; between maxpool ; tail ; tail width], each
    part copied from its source, so it equals the pair's row built alone.
    """
    starts, ends = np.array([(s.start, s.end) for s in spans], dtype=np.intp).reshape(-1, 2).T
    span_rows = np.concatenate([pooled, width_table[ends - starts - 1]], axis=1)  # [pooled ; width]
    span_dim = span_rows.shape[1]  # d + d_w
    block = np.empty((len(heads), 1, 2 * span_dim + pooled.shape[1]))
    rows = block[:, 0]
    rows[:, :span_dim] = span_rows[heads]
    rows[:, span_dim:-span_dim] = between_contexts(
        token_vectors,
        np.minimum(ends[heads], ends[tails]),
        np.maximum(starts[heads], starts[tails]),
    )
    rows[:, -span_dim:] = span_rows[tails]
    return block


pair_rep = pair_block  # the name bench/tracing.py wraps; extract calls it by this name


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
) -> tuple[list[np.ndarray], np.ndarray]:
    """Attention weights per span plus the stacked entity reps (same order).

    Row i of reps is [pooled ; passage ; width], so reps[:, :d] holds the
    pooled span vectors.
    """
    alphas = []
    pooled = np.empty((len(spans), model.dimension))
    for i, span in enumerate(spans):
        alpha, pooled[i] = span_attention(encoding.token_vectors, span, model.attn_w, model.attn_b)
        alphas.append(alpha)
    passage = np.broadcast_to(encoding.passage_vector, pooled.shape)
    widths = model.width[[len(span) - 1 for span in spans]]
    return alphas, np.concatenate([pooled, passage, widths], axis=1)


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
    """
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
    if kept:
        attribute_types = model.schema.attribute_types
        for (ent_id, _, _, _), scores in zip(entities, classify_attributes(model, reps[kept]).tolist()):
            for attr, score in zip(attribute_types, scores):
                if score >= model.theta_a:
                    attributes.append((ent_id, attr, score))

    # All k(k-1) ordered pairs, by head and then by tail, as one (m, 1,
    # pair_dim) stack.  matmul runs one gemv per stacked row, the call a
    # single 1-D pair row makes, so the scores are bit-identical to scoring
    # pair by pair; one 2-D gemm over all pairs sums in another order and
    # changes the extract-trained seed-7 digest.  A lone entity has no pairs
    # and makes no call.
    k = len(kept)
    head = tail = np.zeros(0, dtype=np.intp)
    scores = np.zeros((0, len(relation_types)))
    if k > 1:
        head, tail = np.divmod(np.arange(k * (k - 1)), k - 1)
        tail += tail >= head
        pooled = reps[kept, : model.dimension]
        block = pair_rep(encoding.token_vectors, [spans[i] for i in kept], pooled, model.width, head, tail)
        scores = classify_relations(model, block)[:, 0]
    # row-major order: by pair, then by relation type
    rows, code = np.nonzero(scores >= model.theta_r)
    return assemble_graph(
        tokens, lemmas, entities, attributes, relation_types,
        head[rows], tail[rows], code, scores[rows, code], provenance,
    )


def save_model(model: Model, path: str) -> None:
    """Persist the model as a versioned JSON container."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "schema": schema_to_dict(model.schema),
        "encoder": model.encoder.to_dict(),
        "max_span_len": model.max_span_len,
        "width_dim": model.width_dim,
        "theta_r": model.theta_r,
        "theta_a": model.theta_a,
        # a 0-d group (attn_b) is written as a plain number
        "parameters": {name: getattr(model, name).tolist() for name in PARAM_GROUPS},
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
    check_thresholds(theta_r, theta_a)
    params = {}
    for name, shape in _shapes(schema, encoder.dimension, max_span_len, width_dim).items():
        # one np.array call per group; dtype=object keeps each JSON value as
        # it is, so a bool, a string or a ragged row shows in the types
        value = np.array(required(groups, name, f"model parameter {name!r}", InputError), dtype=object)
        if not set(map(type, value.ravel())) <= {int, float}:
            raise InputError(f"model parameter {name!r} must hold JSON numbers only")
        if value.shape != shape:
            raise InputError(f"model parameter {name!r} has shape {value.shape}, expected {shape}")
        try:
            params[name] = value = value.astype(float)
        except OverflowError:
            raise InputError(f"model parameter {name!r} holds a number a float cannot hold") from None
        if not np.all(np.isfinite(value)):
            raise InputError(f"model parameter {name!r} has non-finite values")
    return Model(schema, encoder, max_span_len, width_dim, theta_r, theta_a, **params)
