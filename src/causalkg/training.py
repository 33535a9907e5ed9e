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
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .encoder import EncoderConfig, TokenEncoding, encode_tokens
from .errors import (
    AlignmentError,
    DanglingReferenceError,
    DuplicateSpanTypeError,
    GraphError,
    InputError,
    NonFiniteGradientError,
    SchemaMismatchError,
    SelfLoopError,
)
from .graphs import KnowledgeGraph, Span, assemble_graph
from .model import PARAM_GROUPS  # noqa: F401 -- bench/workloads.py imports it from here
from .model import (
    Model,
    Params,
    SpanTable,
    check_thresholds,
    classify_attributes,
    classify_entities,
    classify_relations,
    enumerate_spans,
    pair_contexts,
    pair_rows,
    span_table,
    table_backward,
    table_reps,
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

# The most epochs a config may ask for: far above any real run, and a cap
# that refuses a count no run could finish.
MAX_EPOCHS = 100_000


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
        if self.epochs > MAX_EPOCHS:
            raise InputError(f"train config 'epochs' must be <= {MAX_EPOCHS}, got {self.epochs}")
        if self.neg_entity_count < 0 or self.neg_relation_count < 0:
            raise InputError("negative sample counts must be >= 0")
        if self.max_span_len < 1:
            raise InputError(f"train config 'max_span_len' must be >= 1, got {self.max_span_len}")
        check_thresholds(self.theta_r, self.theta_a)
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


def check_dataset(dataset: Sequence[Example], schema: Schema, max_span_len: int) -> list[_Plan]:
    """Raise a CausalKgError for the first example that cannot be trained on,
    or return each example's `_plan`, which makes every check of an example.
    """
    return [_plan(schema, max_span_len, ex) for ex in dataset]


@dataclass(frozen=True)
class _Plan:
    """What training reads of one example and no step changes, under one
    schema and max_span_len: `sample_negatives`' candidates, the gold half of
    `_prepare`, the span table, which holds every span a step can see (the
    gold spans and the candidates), with each such span's row, and, once
    `over` the token vectors, the table built over them (whose arrays serve
    one step at a time) and each gold pair's between-context row.  `train`
    builds one per example and hands it to every step; a call given none
    builds its own.  Its own arrays are read-only."""

    span_candidates: tuple[Span, ...]  # every enumerable span that is not gold
    pair_candidates: tuple[tuple[int, int], ...]  # ordered gold-entity pairs with no relation
    spans: tuple[Span, ...]  # the gold spans, in entity order
    rows: np.ndarray  # each gold span's span-table row
    targets: list[int]  # each gold entity's class
    attr_labels: np.ndarray  # (k, |Ta|)
    pairs: list[tuple[int, int]]  # the gold relation pairs, each at its first place
    pair_labels: np.ndarray  # one row per gold pair, then zero rows: k(k - 1) rows, one per ordered pair
    table: SpanTable
    row_of: dict[Span, int]  # every span of the table (the gold spans and the candidates) and its row
    between: np.ndarray | None = None  # row h * k + t: gold pair (h, t)'s between context

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def over(self, token_vectors: np.ndarray) -> "_Plan":
        """This plan completed with the example's token vectors."""
        heads, tails = np.divmod(np.arange(len(self.spans) ** 2), len(self.spans))
        table = span_table(self.table.n, self.table.max_len, token_vectors)
        between = pair_contexts(token_vectors, self.spans, heads, tails)
        return replace(self, table=table, between=between)


def _candidates(example: Example, max_span_len: int):
    """Every span of up to max_span_len tokens that is not gold, and every
    ordered pair of distinct gold entities that no relation links."""
    gold_spans = {span for span, _ in example.entities}
    spans = tuple(s for s in enumerate_spans(len(example.tokens), max_span_len) if s not in gold_spans)
    linked = {(h, t) for h, t, _ in example.relations}
    k = len(example.entities)
    pairs = tuple((i, j) for i in range(k) for j in range(k) if i != j and (i, j) not in linked)
    return spans, pairs


def _plan(schema: Schema, max_span_len: int, example: Example) -> _Plan:
    """Check an example and build its `_Plan`, not yet `over` its token
    vectors.  `gold_graph`'s checks come first, each error with the
    provenance before its message: lemmas of another count than the tokens,
    a span past the sentence, a span, attribute or relation named twice, an
    index outside the entities, a relation that joins an entity to itself.
    Then a span over max_span_len or an unknown type raises."""
    where = example.provenance
    within(where, gold_graph, example)
    spans = tuple(span for span, _ in example.entities)
    k, n = len(spans), len(example.tokens)
    pairs = list(dict.fromkeys((h, t) for h, t, _ in example.relations))
    table = span_table(n, max_span_len)
    rows = table.rows(spans, where)
    span_candidates, pair_candidates = _candidates(example, max_span_len)
    try:
        # class 0 is null, so an entity type's class is its code + 1
        targets = [schema.entity_codes[etype] + 1 for _, etype in example.entities]

        attr_labels = np.zeros((k, len(schema.attribute_types)))
        for idx, atype in example.attributes:
            attr_labels[idx, schema.attribute_codes[atype]] = 1.0

        pair_row = {pair: row for row, pair in enumerate(pairs)}
        pair_labels = np.zeros((k * (k - 1), len(schema.relation_types)))
        for h, t, rtype in example.relations:
            pair_labels[pair_row[h, t], schema.relation_codes[rtype]] = 1.0
    except KeyError as key:
        # the types are read kind by kind, so the first kind that names an unknown one raised
        kind = next(kind for kind, codes, records in (
            ("entity", schema.entity_codes, example.entities),
            ("attribute", schema.attribute_codes, example.attributes),
            ("relation", schema.relation_codes, example.relations),
        ) if any(record[-1] not in codes for record in records))
        raise SchemaMismatchError(f"{where}: {kind} type {key.args[0]!r} not in schema {schema.name!r}") from None
    # every span of the table, keyed by the objects that sample_negatives
    # draws, so that a step's lookup finds its key by identity
    every = (*spans, *span_candidates)
    return _Plan(
        span_candidates,
        pair_candidates,
        spans=spans,
        rows=rows,
        targets=targets,
        attr_labels=attr_labels,
        pairs=pairs,
        pair_labels=pair_labels,
        table=table,
        row_of=dict(zip(every, table.rows(every, where).tolist())),
    )


def sample_negatives(
    example: Example,
    neg_entity_count: int,
    neg_relation_count: int,
    max_span_len: int,
    seed: int | np.random.SeedSequence = 0,
    *,
    plan: _Plan | None = None,
) -> Negatives:
    """Sample non-gold spans and relation-free gold-entity pairs.

    Uniform without replacement, deterministic for a fixed seed (an int >= 0
    or a SeedSequence).  `train` passes the example's plan, which holds the candidates.
    """
    integer(neg_entity_count, "neg_entity_count", InputError)
    integer(neg_relation_count, "neg_relation_count", InputError)
    integer(max_span_len, "max_span_len", InputError)
    if neg_entity_count < 0 or neg_relation_count < 0:
        raise InputError("negative sample counts must be >= 0")
    if not isinstance(seed, np.random.SeedSequence) and integer(seed, "seed", InputError) < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    if plan is None:
        span_candidates, pair_candidates = _candidates(example, max_span_len)
    else:
        span_candidates, pair_candidates = plan.span_candidates, plan.pair_candidates
    rng = np.random.default_rng(seed)
    return Negatives(
        spans=_draw(rng, span_candidates, neg_entity_count),
        pairs=_draw(rng, pair_candidates, neg_relation_count),
    )


def _draw(rng: np.random.Generator, candidates: tuple, count: int) -> tuple:
    """Up to count candidates, uniform without replacement; no draw for none."""
    k = min(count, len(candidates))
    if not k:
        return ()
    return tuple(map(candidates.__getitem__, rng.choice(len(candidates), size=k, replace=False).tolist()))


def entity_loss(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean categorical cross-entropy; probabilities clamped away from 0/1."""
    if len(targets) == 0:
        return 0.0
    if probs.shape[0] != targets.shape[0]:
        raise AlignmentError(f"{probs.shape[0]} predictions vs {targets.shape[0]} targets")
    return _mean_nll(probs[np.arange(len(targets)), targets])


def _mean_nll(picked: np.ndarray) -> float:
    """-mean(log(picked)), each probability clamped away from 0 and 1.
    np.minimum(np.maximum()) and np.add.reduce / size are np.clip's and
    mean()'s arithmetic without their Python wrappers."""
    log_p = np.log(np.minimum(np.maximum(picked, _CLAMP), 1.0 - _CLAMP))
    return float(-(np.add.reduce(log_p, axis=None) / log_p.size))


def binary_loss(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy over all score/label cells, clamped."""
    if scores.size == 0:
        return 0.0
    if scores.shape != labels.shape:
        raise AlignmentError(f"score shape {scores.shape} vs label shape {labels.shape}")
    p = np.minimum(np.maximum(scores, _CLAMP), 1.0 - _CLAMP)
    cells = labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)
    return float(-(cells.sum() / cells.size))


def _binary_loss01(scores: np.ndarray, labels: np.ndarray) -> float:
    """binary_loss for labels that are all 0 or 1, with one log per cell.

    There the other term of a cell is 0 * log(...) = -0.0, and x + (-0.0)
    is x, so each cell, and the mean, rounds as in binary_loss.
    """
    if scores.size == 0:
        return 0.0
    p = np.minimum(np.maximum(scores, _CLAMP), 1.0 - _CLAMP)
    cells = np.log(np.where(labels, p, 1.0 - p))
    return float(-(np.add.reduce(cells, axis=None) / cells.size))


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


def _prepare(example: Example, negatives: Negatives, plan: _Plan):
    """One step's entity rows (the gold, then the negative spans' span-table
    rows), their targets and its pairs (the gold, then the negative pairs);
    its labels are the plan's.  The negatives must be ones `sample_negatives`
    could draw: a pair that is not a tuple of two ints or a span that is not
    a `Span` raises GraphError before any row is built; a span or pair that
    names no row or entity, or a pair that joins an entity to itself,
    raises `check_dataset`'s error; a span equal to a gold or an earlier
    negative span, DuplicateSpanTypeError; a pair equal to a gold relation
    pair or an earlier negative, GraphError.  So no entity row repeats."""
    where, k = example.provenance, len(plan.spans)
    for pair in negatives.pairs:
        # a float or bool index would be cast to a row and score another pair
        if type(pair) is not tuple or tuple(map(type, pair)) != (int, int):
            raise GraphError(f"{where}: negative pair {pair!r} is not a tuple of two ints")
        h, t = pair
        if not (0 <= h < k and 0 <= t < k and h != t):
            if h == t:
                raise SelfLoopError(f"{where}: pair ({h}, {t}) joins an entity to itself")
            raise DanglingReferenceError(f"{where}: pair ({h}, {t}) names an entity index outside {k} entities")
    for span in negatives.spans:
        if not isinstance(span, Span):
            raise GraphError(f"{where}: negative span {span!r} is not a Span")
    try:
        negative_rows = list(map(plan.row_of.__getitem__, negatives.spans))
    except KeyError:  # a span outside the table, which SpanTable.rows refuses naming it
        negative_rows = plan.table.rows(negatives.spans, where).tolist()
    listed = plan.rows.tolist() + negative_rows
    if len(set(listed)) < len(listed):
        s = next(s for i, s in enumerate(negatives.spans) if s in plan.spans or s in negatives.spans[:i])
        raise DuplicateSpanTypeError(f"{where}: negative span [{s.start}, {s.end}) repeats a gold or earlier span")
    pairs = plan.pairs + list(negatives.pairs)
    if len(set(pairs)) < len(pairs):
        h, t = next(p for i, p in enumerate(negatives.pairs) if p in plan.pairs or p in negatives.pairs[:i])
        raise GraphError(f"{where}: negative pair ({h}, {t}) repeats a gold relation pair or earlier pair")
    return np.array(listed, dtype=np.intp), np.array(plan.targets + [0] * len(negative_rows), dtype=int), pairs


def example_loss(
    model: Model,
    example: Example,
    negatives: Negatives,
    encoding: TokenEncoding | None = None,
    *,
    plan: _Plan | None = None,
) -> LossBreakdown:
    loss, _ = _loss_impl(model, example, negatives, encoding, plan, None)
    return loss


def example_loss_and_grads(
    model: Model,
    example: Example,
    negatives: Negatives,
    encoding: TokenEncoding | None = None,
    *,
    plan: _Plan | None = None,
    out: Params | None = None,
) -> tuple[LossBreakdown, Params]:
    """The example's loss and its gradient, a `Params` of the model's
    layout: out, when given, which the call overwrites (and so does the
    next call given the same out), or else a fresh one.  An out of another
    layout, or the model's own params, raises InputError before any work.  `train` passes the example's
    plan, built with the model's schema and max_span_len and the encoding's
    token vectors, and one out for every step."""
    if out is None:
        out = Params(model.params.shapes)
    elif not isinstance(out, Params) or out.shapes != model.params.shapes:
        got = getattr(out, "shapes", type(out).__name__)
        raise InputError(f"out must be a Params of shapes {model.params.shapes}, got {got}")
    elif out.flat is model.params.flat:
        raise InputError("out must not be the model's own params, which the gradient would overwrite")
    return _loss_impl(model, example, negatives, encoding, plan, out)


def _loss_impl(model, example, negatives, encoding, plan, grads):
    """The example's loss and, given grads, a `Params` of the model's
    layout, its gradient, written over whatever grads held and returned in
    it.  The loss comes from the `table_reps` of the plan's span table, and
    the attention gradient from its `table_backward`.

    Sums that add one term per span or pair keep the order of the per-span
    loops in tests/training_reference.py; another order changes the
    rounding of the trained parameters.  A span's rep gradient adds its
    entity row's term and then its attribute row's; a span's pooled
    gradient adds its pairs' terms in pair order, each head before its
    tail, and then its rep gradient's; the width table's gradient adds the
    pairs' terms and then the entity rows', in entity order, and so do
    attn_w's and attn_b's.  Each sum starts from zero, and each group's
    gradient is added into zeros, as into a fresh Params.  `_prepare`
    refuses a span named twice, so the entity rows are distinct; the pairs'
    rows repeat, and `_add_rows` adds them in index order.
    """
    if encoding is None:
        encoding = encode_tokens(example.tokens, model.encoder)
    H, n = encoding.token_vectors, len(example.tokens)
    if len(H) != n:
        raise AlignmentError(f"{example.provenance}: an encoding of {len(H)} tokens for an example of {n} tokens")
    if plan is None:
        plan = _plan(model.schema, model.max_span_len, example).over(H)
    ent_rows, ent_targets, pair_order = _prepare(example, negatives, plan)
    attr_labels, pair_labels = plan.attr_labels, plan.pair_labels[: len(pair_order)]
    params, d, dw, k = model.params, model.dimension, model.width_dim, len(plan.spans)

    _, reps = table_reps(model, plan.table, encoding.passage_vector)
    ent_reps = reps.take(ent_rows, axis=0)
    ent_probs = classify_entities(model, ent_reps)
    attr_reps = ent_reps[:k]  # the gold spans come first
    attr_scores = classify_attributes(model, attr_reps)

    # each pair's (h, t), an (m, 2) index even with no pair, picks its head
    # and tail span-table rows and its row h * k + t of plan.between
    pairs = np.array(pair_order, dtype=np.intp).reshape(-1, 2)
    ends = plan.rows.take(pairs)
    pair_reps = pair_rows(reps, ends[:, 0], ends[:, 1], plan.between.take(pairs[:, 0] * k + pairs[:, 1], axis=0))
    rel_scores = classify_relations(model, pair_reps)

    ent_index = np.arange(len(ent_targets))
    picked = ent_probs[ent_index, ent_targets]
    loss = LossBreakdown(
        entity=_mean_nll(picked) if len(picked) else 0.0,
        relation=_binary_loss01(rel_scores, pair_labels),
        attribute=_binary_loss01(attr_scores, attr_labels),
    )
    if grads is None:
        return loss, None

    grads.flat.fill(0.0)
    if not len(ent_rows):
        return loss, grads  # no span and so no pair: every gradient is zero
    # each head's scores become its gradient in place, now that the loss is taken
    g = ent_probs
    g[ent_index, ent_targets] = picked - 1.0
    g /= len(ent_targets)
    grads["ent_w"][...] += g.T @ ent_reps
    np.add.reduce(g, axis=0, out=grads["ent_b"], initial=0.0)
    # each entity row's rep gradient: its entity term, and a gold row's
    # attribute term after it.  (0 + e) + a, the per-span loop's sum, differs
    # from e + a at most in the sign of a zero, which every later sum, each
    # from zero, ignores.
    d_reps = g @ params["ent_w"]
    if attr_scores.size:
        g = attr_scores
        g -= attr_labels
        g /= g.size
        grads["attr_w"][...] += g.T @ attr_reps
        np.add.reduce(g, axis=0, out=grads["attr_b"], initial=0.0)
        d_reps[:k] += g @ params["attr_w"]

    # the width terms: the pairs' heads' and tails', then the entity rows'
    widths = plan.table.widths
    width_rows, width_terms = [widths.take(ent_rows)], [d_reps[:, 2 * d :]]
    if rel_scores.size:
        g = rel_scores
        g -= pair_labels
        g /= g.size
        grads["rel_w"][...] += g.T @ pair_reps
        np.add.reduce(g, axis=0, out=grads["rel_b"], initial=0.0)
        dr = g @ params["rel_w"]
        # an (m, 2, d + dw) view of dr: each pair's head and tail [pooled ; width] slices
        d_ends = np.ndarray((len(dr), 2, d + dw), dr.dtype, dr, 0, (dr.strides[0], (2 * d + dw) * dr.itemsize, dr.itemsize))
        d_pooled = _add_rows(len(reps), ends, d_ends[:, :, :d])
        width_rows.insert(0, widths.take(ends).ravel())
        width_terms.insert(0, d_ends[:, :, d:].reshape(-1, dw))
    else:
        d_pooled = np.zeros((len(reps), d))
    grads["width"][...] = _add_rows(len(grads["width"]), np.concatenate(width_rows), np.concatenate(width_terms))

    # an entity row's pooled gradient: its pair terms, then its rep term's
    # pooled segment (the passage segment is frozen).  The rows are
    # distinct, and take costs half of fancy indexing.
    pooled = d_pooled.take(ent_rows, axis=0)
    pooled += d_reps[:, :d]
    d_pooled[ent_rows] = pooled
    d_attn_w, d_attn_b = table_backward(plan.table, d_pooled)
    np.add.reduce(d_attn_w.take(ent_rows, axis=0), axis=0, out=grads["attn_w"], initial=0.0)
    total = 0.0  # attn_b's terms are added one by one, as floats
    for term in d_attn_b.take(ent_rows).tolist():
        total += term
    grads["attn_b"][...] += total

    return loss, grads


def _add_rows(n_rows: int, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """An (n_rows, w) array whose row r sums, from zero and in index order,
    each values[i] with rows[i] == r, as np.add.at into zeros adds; values
    has the shape rows.shape + (w,).  np.bincount over the flattened cells
    adds in that order too, at a fraction of np.add.at's cost."""
    w = values.shape[-1]
    cells = (rows[..., None] * w + np.arange(w)).ravel()
    return np.bincount(cells, values.ravel(), n_rows * w).reshape(n_rows, w)


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
    if not (1e-6 <= real(epsilon, "epsilon", InputError) <= 1e-3):
        raise InputError("epsilon must lie in [1e-6, 1e-3]")
    if negatives is None:
        negatives = sample_negatives(example, 20, 10, model.max_span_len, seed=0)
    encoding = encode_tokens(example.tokens, model.encoder)
    _, grads = example_loss_and_grads(model, example, negatives, encoding)
    # that call checked the example and its encoding; the probes share one plan
    plan = _plan(model.schema, model.max_span_len, example).over(encoding.token_vectors)

    errors: dict[str, float] = {}
    probe = model.copy()
    for name, group in probe.params.items():
        analytic = grads[name].ravel()
        if not np.all(np.isfinite(analytic)):
            raise NonFiniteGradientError(f"non-finite analytic gradient in {name}")
        flat = group.reshape(-1)  # a view: bumps edit the probe in place
        numeric = np.empty_like(flat)
        for i in range(flat.size):
            value = flat[i]
            flat[i] = value + epsilon
            hi = example_loss(probe, example, negatives, encoding, plan=plan).total
            flat[i] = value - epsilon
            lo = example_loss(probe, example, negatives, encoding, plan=plan).total
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
    epoch from the same master seed.  Each example's invariants (its
    `_Plan`) are computed once, before the first epoch, and so is the one
    gradient `Params` that every step writes into.  An epoch that leaves a
    parameter not finite raises NonFiniteGradientError before on_epoch sees it.
    """
    if not dataset:
        raise InputError("dataset is empty")
    plans = check_dataset(dataset, schema, config.max_span_len)
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
    plans = [plan.over(enc.token_vectors) for plan, enc in zip(plans, encodings)]
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xC0FFEE]))

    grads = Params(model.params.shapes)  # each step writes its gradient over the last one's
    # a batch of one updates with its step's gradient; a larger one sums its
    # steps' gradients, in batch order, into a buffer of its own
    batch_sum = grads.flat if config.batch_size == 1 else np.empty(grads.flat.shape)
    # a diverging run overflows; the check after each epoch stops it, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = shuffle_rng.permutation(len(dataset)).tolist()
            epoch_loss = 0.0
            for start in range(0, len(order), config.batch_size):
                batch = order[start : start + config.batch_size]
                for i, idx in enumerate(batch):
                    ex, plan = dataset[idx], plans[idx]
                    negatives = sample_negatives(
                        ex,
                        config.neg_entity_count,
                        config.neg_relation_count,
                        config.max_span_len,
                        seed=np.random.SeedSequence([config.seed, epoch, idx]),
                        plan=plan,
                    )
                    loss, _ = example_loss_and_grads(model, ex, negatives, encodings[idx], plan=plan, out=grads)
                    epoch_loss += loss.total
                    if batch_sum is not grads.flat:
                        if i:
                            batch_sum += grads.flat
                        else:
                            batch_sum[...] = grads.flat
                # one buffer holds every parameter group, so an update is one operation
                batch_sum *= config.learning_rate / len(batch)
                model.params.flat -= batch_sum
            if not np.isfinite(model.params.flat).all():
                raise NonFiniteGradientError(f"training diverged in epoch {epoch + 1}: a parameter is not finite")
            if on_epoch is not None:
                on_epoch(epoch, epoch_loss / len(dataset))
    return model
