"""Joint training: negative sampling, the three-part loss, analytic
gradients with finite-difference verification, and plain gradient descent.

The loss is the sum of three means:

* entity loss    - categorical cross-entropy over gold spans plus sampled
  non-gold spans (labeled null),
* relation loss  - binary cross-entropy over gold relation pairs plus
  sampled gold-entity pairs that carry no relation (teacher forcing),
* attribute loss - binary cross-entropy over the gold entity spans.

The encoder is frozen; gradients flow to the attention scorer, the width
embeddings, and the three classifier heads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping, Sequence

import numpy as np

from .encoder import EncoderConfig, TokenEncoding, encode_tokens
from .errors import AlignmentError, GraphError, InputError, NonFiniteGradientError, SchemaMismatchError
from .graphs import KnowledgeGraph, Span, assemble_graph
from .model import (
    PARAM_GROUPS,
    Model,
    classify_attributes,
    classify_entities,
    classify_relations,
    enumerate_spans,
    pair_block,
    span_representations,
)
from .readers import array, integer, obj, parse_json, real, required, string, strings, within
from .schema import Schema

__all__ = [
    "TrainConfig",
    "Example",
    "Negatives",
    "LossBreakdown",
    "load_dataset",
    "gold_graph",
    "sample_negatives",
    "entity_loss",
    "binary_loss",
    "joint_loss",
    "example_loss",
    "example_loss_and_grads",
    "grad_check",
    "train",
]

_CLAMP = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 1e-3
    batch_size: int = 1
    neg_entity_count: int = 100
    neg_relation_count: int = 50
    seed: int = 0
    max_span_len: int = 10
    theta_r: float = 0.4
    theta_a: float = 0.5

    def __post_init__(self) -> None:
        for f in fields(self):
            read = integer if f.type == "int" else real
            read(getattr(self, f.name), f"train config {f.name!r}", InputError)
        if self.epochs < 0 or self.batch_size < 1:
            raise InputError("epochs must be >= 0 and batch_size >= 1")
        if self.neg_entity_count < 0 or self.neg_relation_count < 0:
            raise InputError("negative sample counts must be >= 0")
        if not 0 < self.learning_rate < math.inf:
            raise InputError("learning rate must be > 0 and finite")

    @staticmethod
    def from_dict(data: Mapping) -> "TrainConfig":
        """Build from a JSON object; raises InputError on unknown or mistyped fields."""
        return TrainConfig(**obj(data, "train config", InputError, TrainConfig.__dataclass_fields__))


@dataclass(frozen=True)
class Example:
    """One gold-annotated sentence."""

    tokens: tuple[str, ...]
    lemmas: tuple[str, ...]
    entities: tuple[tuple[Span, str], ...]
    attributes: tuple[tuple[int, str], ...]  # (entity index, attribute type)
    relations: tuple[tuple[int, int, str], ...]  # (head index, tail index, type)
    provenance: str = ""


@dataclass(frozen=True)
class Negatives:
    spans: tuple[Span, ...]
    pairs: tuple[tuple[int, int], ...]  # gold-entity index pairs with no relation


@dataclass(frozen=True)
class LossBreakdown:
    entity: float
    relation: float
    attribute: float
    total: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "total", self.entity + self.relation + self.attribute)


# each record list of an example, with its fields and their readers
_RECORDS = {
    "entities": (("start", integer), ("end", integer), ("type", string)),
    "attributes": (("entity", integer), ("type", string)),
    "relations": (("head", integer), ("tail", integer), ("type", string)),
}


def load_dataset(text: str) -> list[Example]:
    """Parse the dataset JSON format into Examples.

    Fields are read by `readers`' rules and keys the format does not define
    are rejected; a GraphError names the example and the field.  Absent or
    null lemmas default to the lowercased tokens.
    """
    out = []
    for i, ex in enumerate(array(parse_json(text, "a dataset", GraphError), "a dataset", GraphError)):
        where = f"dataset example {i}"
        obj(ex, where, GraphError, Example.__dataclass_fields__)
        out.append(within(where, _example, ex, f"ex{i}"))
    return out


def _field(message: str) -> GraphError:
    return GraphError("field " + message)


def _example(ex: Mapping, provenance: str) -> Example:
    """One example of a dataset; `load_dataset` names it in an error."""
    tokens = required(ex, "tokens", "'tokens'", _field, strings)
    lemmas = ex.get("lemmas")
    rows: dict[str, list[tuple]] = {}
    for key, readers in _RECORDS.items():
        records = required(ex, key, f"{key!r}", _field) if key == "entities" else ex.get(key, [])
        rows[key] = []
        for j, rec in enumerate(array(records, f"{key!r}", _field)):
            obj(rec, f"'{key}[{j}]'", _field, [name for name, _ in readers])
            rows[key].append(tuple(
                required(rec, name, f"'{key}[{j}].{name}'", _field, read) for name, read in readers
            ))
    return Example(
        tokens=tokens,
        lemmas=tuple(map(str.lower, tokens)) if lemmas is None else strings(lemmas, "'lemmas'", _field),
        entities=tuple(
            (within(f"entity {j}", Span, s, e), t) for j, (s, e, t) in enumerate(rows["entities"])
        ),
        attributes=tuple(rows["attributes"]),
        relations=tuple(rows["relations"]),
        provenance=string(ex.get("provenance", provenance), "'provenance'", _field),
    )


def gold_graph(example: Example) -> KnowledgeGraph:
    """The gold annotations as a KnowledgeGraph (all confidences 1.0)."""
    entities = [
        (f"e{i}", span, etype, 1.0) for i, (span, etype) in enumerate(example.entities)
    ]
    attributes = [(f"e{i}", attr, 1.0) for i, attr in example.attributes]
    relations = [(f"e{h}", f"e{t}", rtype, 1.0) for h, t, rtype in example.relations]
    return assemble_graph(
        example.tokens, example.lemmas, entities, attributes, relations,
        provenance=example.provenance,
    )


def check_dataset(dataset: Sequence[Example], schema: Schema, max_span_len: int) -> None:
    """Raise a CausalKgError for the first example that cannot be trained on.

    gold_graph rejects spans past the sentence end, entity indices out of
    range, self-loops and duplicate spans, attributes or relations.
    """
    declared = {
        "entity": set(schema.entity_types),
        "attribute": set(schema.attribute_types),
        "relation": set(schema.relation_types),
    }
    for ex in dataset:
        typed = [("entity", t) for _, t in ex.entities] + [("attribute", t) for _, t in ex.attributes]
        for kind, name in typed + [("relation", t) for _, _, t in ex.relations]:
            if name not in declared[kind]:
                raise SchemaMismatchError(
                    f"{ex.provenance}: {kind} type {name!r} not in schema {schema.name!r}"
                )
        for span, _ in ex.entities:
            if len(span) > max_span_len:
                raise GraphError(
                    f"{ex.provenance}: span [{span.start}, {span.end}) is longer than "
                    f"max_span_len {max_span_len}"
                )
        within(ex.provenance, gold_graph, ex)


def sample_negatives(
    example: Example,
    neg_entity_count: int,
    neg_relation_count: int,
    max_span_len: int,
    seed: int | np.random.SeedSequence = 0,
) -> Negatives:
    """Sample non-gold spans and relation-free gold-entity pairs.

    Uniform without replacement, deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    gold_spans = {span for span, _ in example.entities}
    candidates = [s for s in enumerate_spans(len(example.tokens), max_span_len) if s not in gold_spans]
    k = min(neg_entity_count, len(candidates))
    spans = tuple(candidates[i] for i in rng.choice(len(candidates), size=k, replace=False)) if k else ()

    linked = {(h, t) for h, t, _ in example.relations}
    pair_candidates = [
        (i, j)
        for i in range(len(example.entities))
        for j in range(len(example.entities))
        if i != j and (i, j) not in linked
    ]
    k = min(neg_relation_count, len(pair_candidates))
    pairs = (
        tuple(pair_candidates[i] for i in rng.choice(len(pair_candidates), size=k, replace=False))
        if k
        else ()
    )
    return Negatives(spans=spans, pairs=pairs)


def entity_loss(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean categorical cross-entropy; probabilities clamped away from 0/1."""
    if len(targets) == 0:
        return 0.0
    if probs.shape[0] != targets.shape[0]:
        raise AlignmentError(f"{probs.shape[0]} predictions vs {targets.shape[0]} targets")
    picked = np.clip(probs[np.arange(len(targets)), targets], _CLAMP, 1.0 - _CLAMP)
    return float(-np.log(picked).mean())


def binary_loss(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy over all score/label cells, clamped."""
    if scores.size == 0:
        return 0.0
    if scores.shape != labels.shape:
        raise AlignmentError(f"score shape {scores.shape} vs label shape {labels.shape}")
    p = np.clip(scores, _CLAMP, 1.0 - _CLAMP)
    return float(-(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)).mean())


def joint_loss(
    entity_probs: np.ndarray,
    entity_targets: np.ndarray,
    relation_scores: np.ndarray,
    relation_labels: np.ndarray,
    attribute_scores: np.ndarray,
    attribute_labels: np.ndarray,
) -> LossBreakdown:
    """Combine the three loss components; total is their exact sum."""
    return LossBreakdown(
        entity=entity_loss(entity_probs, entity_targets),
        relation=binary_loss(relation_scores, relation_labels),
        attribute=binary_loss(attribute_scores, attribute_labels),
    )


def _prepare(model: Model, example: Example, negatives: Negatives):
    """Index spans, targets, labels, and pair structure for one example."""
    schema = model.schema
    class_of = {t: i + 1 for i, t in enumerate(schema.entity_types)}
    attr_of = {t: i for i, t in enumerate(schema.attribute_types)}
    rel_of = {t: i for i, t in enumerate(schema.relation_types)}

    gold_spans = [span for span, _ in example.entities]
    ent_spans = gold_spans + list(negatives.spans)
    ent_targets = np.array(
        [class_of[etype] for _, etype in example.entities] + [0] * len(negatives.spans),
        dtype=int,
    )

    attr_labels = np.zeros((len(gold_spans), len(schema.attribute_types)))
    for idx, atype in example.attributes:
        attr_labels[idx, attr_of[atype]] = 1.0

    pair_labels_map: dict[tuple[int, int], np.ndarray] = {}
    pair_order: list[tuple[int, int]] = []
    for h, t, rtype in example.relations:
        key = (h, t)
        if key not in pair_labels_map:
            pair_labels_map[key] = np.zeros(len(schema.relation_types))
            pair_order.append(key)
        pair_labels_map[key][rel_of[rtype]] = 1.0
    for key in negatives.pairs:
        if key not in pair_labels_map:
            pair_labels_map[key] = np.zeros(len(schema.relation_types))
            pair_order.append(key)
    pair_labels = (
        np.stack([pair_labels_map[k] for k in pair_order])
        if pair_order
        else np.zeros((0, len(schema.relation_types)))
    )

    unique_spans: list[Span] = []
    span_index: dict[Span, int] = {}
    for span in ent_spans + [gold_spans[h] for h, _ in pair_order] + [gold_spans[t] for _, t in pair_order]:
        if span not in span_index:
            span_index[span] = len(unique_spans)
            unique_spans.append(span)

    return ent_spans, ent_targets, attr_labels, pair_order, pair_labels, unique_spans, span_index


def example_loss(
    model: Model,
    example: Example,
    negatives: Negatives,
    encoding: TokenEncoding | None = None,
) -> LossBreakdown:
    loss, _ = _loss_impl(model, example, negatives, encoding, with_grads=False)
    return loss


def example_loss_and_grads(
    model: Model,
    example: Example,
    negatives: Negatives,
    encoding: TokenEncoding | None = None,
) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    return _loss_impl(model, example, negatives, encoding, with_grads=True)


def _loss_impl(model, example, negatives, encoding, with_grads):
    if encoding is None:
        encoding = encode_tokens(example.tokens, model.encoder)
    (
        ent_spans, ent_targets, attr_labels, pair_order, pair_labels, unique_spans, span_index
    ) = _prepare(model, example, negatives)
    gold_spans = [span for span, _ in example.entities]
    d, dw = model.dimension, model.width_dim
    H = encoding.token_vectors

    alphas, reps = span_representations(model, encoding, unique_spans)
    pooled = reps[:, :d]

    ent_rows = np.array([span_index[s] for s in ent_spans], dtype=int)
    ent_reps = reps[ent_rows]
    ent_probs = classify_entities(model, ent_reps)

    attr_rows = np.array([span_index[s] for s in gold_spans], dtype=int)
    attr_reps = reps[attr_rows]
    attr_scores = classify_attributes(model, attr_reps)

    # each pair's (head, tail) as gold entity indexes, and as unique-span rows
    pair_ends = np.array(pair_order, dtype=np.intp).reshape(-1, 2)
    pair_rows = attr_rows[pair_ends]
    pair_reps = pair_block(H, gold_spans, pooled[attr_rows], model.width, pair_ends[:, 0], pair_ends[:, 1])[:, 0]
    rel_scores = classify_relations(model, pair_reps)

    loss = joint_loss(ent_probs, ent_targets, rel_scores, pair_labels, attr_scores, attr_labels)
    if not with_grads:
        return loss, None

    grads = {name: np.zeros_like(getattr(model, name)) for name in PARAM_GROUPS}
    d_reps = np.zeros_like(reps)

    if len(ent_rows):
        g = ent_probs.copy()
        g[np.arange(len(ent_targets)), ent_targets] -= 1.0
        g /= len(ent_targets)
        grads["ent_w"] += g.T @ ent_reps
        grads["ent_b"] += g.sum(axis=0)
        dx = g @ model.ent_w
        np.add.at(d_reps, ent_rows, dx)

    if attr_scores.size:
        g = (attr_scores - attr_labels) / attr_scores.size
        grads["attr_w"] += g.T @ attr_reps
        grads["attr_b"] += g.sum(axis=0)
        dx = g @ model.attr_w
        np.add.at(d_reps, attr_rows, dx)

    # np.add.at adds rows in index order: pairs in pair_order, each head
    # before its tail, then spans in unique_spans order.  Changing that order
    # changes the rounding of the trained parameters.
    d_pooled = np.zeros_like(pooled)
    if rel_scores.size:
        g = (rel_scores - pair_labels) / rel_scores.size
        grads["rel_w"] += g.T @ pair_reps
        grads["rel_b"] += g.sum(axis=0)
        dr = g @ model.rel_w
        pair_widths = np.array([len(span) - 1 for span in gold_spans], dtype=int)[pair_ends]
        np.add.at(d_pooled, pair_rows, np.stack([dr[:, :d], dr[:, 2 * d + dw : 3 * d + dw]], axis=1))
        np.add.at(grads["width"], pair_widths, np.stack([dr[:, d : d + dw], dr[:, 3 * d + dw :]], axis=1))

    # entity-rep gradient: pooled segment and width segment (passage frozen)
    d_pooled += d_reps[:, :d]
    span_widths = np.array([len(span) - 1 for span in unique_spans], dtype=int)
    np.add.at(grads["width"], span_widths, d_reps[:, 2 * d :])

    # attention backward per span; attn_b's gradient is summed in a float,
    # which costs less per span than adding into the 0-d array
    d_attn_b = 0.0
    for i, span in enumerate(unique_spans):
        h = H[span.start : span.end]
        alpha = alphas[i]
        d_alpha = h @ d_pooled[i]
        dz = alpha * (d_alpha - float(alpha @ d_alpha))
        grads["attn_w"] += h.T @ dz
        d_attn_b += float(dz.sum())
    grads["attn_b"] += d_attn_b

    return loss, grads


def grad_check(
    model: Model,
    example: Example,
    epsilon: float = 1e-5,
    negatives: Negatives | None = None,
) -> dict[str, float]:
    """Compare analytic gradients against central finite differences.

    Returns a relative error per parameter group plus a "max" entry.  The
    per-group error is ||analytic - numeric|| / (||analytic|| + ||numeric||),
    which sits at the finite-difference noise floor when the two agree.
    """
    if not (1e-6 <= epsilon <= 1e-3):
        raise ValueError("epsilon must lie in [1e-6, 1e-3]")
    if negatives is None:
        negatives = sample_negatives(example, 20, 10, model.max_span_len, seed=0)
    encoding = encode_tokens(example.tokens, model.encoder)
    _, grads = example_loss_and_grads(model, example, negatives, encoding)

    errors: dict[str, float] = {}
    probe = model.copy()
    for name in PARAM_GROUPS:
        analytic = np.ravel(grads[name])
        if not np.all(np.isfinite(analytic)):
            raise NonFiniteGradientError(f"non-finite analytic gradient in {name}")
        flat = getattr(probe, name).reshape(-1)  # a view: bumps edit the probe in place
        numeric = np.empty_like(flat)
        for i in range(flat.size):
            value = flat[i]
            flat[i] = value + epsilon
            hi = example_loss(probe, example, negatives, encoding).total
            flat[i] = value - epsilon
            lo = example_loss(probe, example, negatives, encoding).total
            flat[i] = value
            numeric[i] = (hi - lo) / (2.0 * epsilon)
        # attn_b is softmax-shift-invariant, so both gradients can be ~0;
        # fall back to absolute error when the norms vanish
        denom = np.linalg.norm(analytic) + np.linalg.norm(numeric)
        diff = float(np.linalg.norm(analytic - numeric))
        errors[name] = diff / denom if denom > 1e-8 else diff
    errors["max"] = max(errors.values())
    return errors


def train(
    dataset: Sequence[Example],
    schema: Schema,
    config: TrainConfig,
    encoder_config: EncoderConfig | None = None,
    width_dim: int = 8,
    on_epoch: Callable[[int, float], None] | None = None,
) -> Model:
    """Plain gradient descent over the joint loss; deterministic per seed.

    Negatives are resampled each epoch from a seed derived from
    (config.seed, epoch, example index); example order is reshuffled each
    epoch from the same master seed.
    """
    if not dataset:
        raise InputError("dataset is empty")
    check_dataset(dataset, schema, config.max_span_len)
    if encoder_config is None:
        encoder_config = EncoderConfig()
    model = Model.initialize(
        schema,
        encoder_config,
        max_span_len=config.max_span_len,
        width_dim=width_dim,
        theta_r=config.theta_r,
        theta_a=config.theta_a,
        seed=config.seed,
    )
    encodings = [encode_tokens(ex.tokens, encoder_config) for ex in dataset]
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xC0FFEE]))

    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(dataset))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            batch_grads = None
            for idx in batch:
                ex = dataset[idx]
                negatives = sample_negatives(
                    ex,
                    config.neg_entity_count,
                    config.neg_relation_count,
                    config.max_span_len,
                    seed=np.random.SeedSequence([config.seed, epoch, int(idx)]),
                )
                loss, grads = example_loss_and_grads(model, ex, negatives, encodings[idx])
                epoch_loss += loss.total
                if batch_grads is None:
                    batch_grads = grads
                else:
                    for k in grads:
                        batch_grads[k] = batch_grads[k] + grads[k]
            scale = config.learning_rate / len(batch)
            for name in PARAM_GROUPS:
                param = getattr(model, name)
                param -= scale * batch_grads[name]
        if on_epoch is not None:
            on_epoch(epoch, epoch_loss / len(dataset))
    return model
