"""Reference example preparation, forward, backward, update and extraction
for the tests: `reference_prepare`, which builds its own type tables per
example and lists each pair's head and tail spans again; the original
per-span and per-pair loops that assembled span, entity and pair
representations by hand, the per-pair `pair_rep` and `between_context`
that built one relation-head row at a time, the gradient step written
out group by group, and the original masked `sigmoid` and out-of-place
`softmax`.

causalkg.training and causalkg.model must reproduce these bit for bit: the
same prepared examples, losses, gradients, trained parameters and
extracted graphs.
"""

import numpy as np

from causalkg.encoder import encode_tokens
from causalkg.graphs import Span, assemble_graph
from causalkg.model import (
    Model,
    classify_attributes,
    classify_entities,
    classify_relations,
    enumerate_spans,
    span_attention,
)
from causalkg.training import Example, Negatives, joint_loss, sample_negatives


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


def between_context(token_vectors: np.ndarray, a: Span, b: Span) -> np.ndarray:
    """Maxpool of the token vectors strictly between two spans.

    Zero vector when the spans are adjacent or overlap.
    """
    lo, hi = min(a.end, b.end), max(a.start, b.start)
    if hi <= lo:
        return np.zeros(token_vectors.shape[1])
    return token_vectors[lo:hi].max(axis=0)


def pair_rep(
    token_vectors: np.ndarray,
    head: Span,
    head_pooled: np.ndarray,
    tail: Span,
    tail_pooled: np.ndarray,
    width_table: np.ndarray,
) -> np.ndarray:
    """Relation-head input: [head ; head width ; between maxpool ; tail ; tail width]."""
    return np.concatenate(
        [
            head_pooled,
            width_table[len(head) - 1],
            between_context(token_vectors, head, tail),
            tail_pooled,
            width_table[len(tail) - 1],
        ]
    )


def reference_prepare(model: Model, example: Example, negatives: Negatives):
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


def _forward(model, encoding, unique_spans):
    """Attention pooling and entity reps for each unique span."""
    H = encoding.token_vectors
    d = model.dimension
    alphas = []
    pooled = np.empty((len(unique_spans), d))
    for i, span in enumerate(unique_spans):
        h = H[span.start : span.end]
        alpha = softmax(h @ model.attn_w + model.attn_b)
        alphas.append(alpha)
        pooled[i] = alpha @ h
    reps = np.empty((len(unique_spans), model.rep_dim))
    for i, span in enumerate(unique_spans):
        reps[i, :d] = pooled[i]
        reps[i, d : 2 * d] = encoding.passage_vector
        reps[i, 2 * d :] = model.width[len(span) - 1]
    return alphas, pooled, reps


def reference_loss_and_grads(model, example, negatives, encoding=None):
    """LossBreakdown and gradient dict, computed with the per-pair loops."""
    if encoding is None:
        encoding = encode_tokens(example.tokens, model.encoder)
    (
        ent_spans, ent_targets, attr_labels, pair_order, pair_labels, unique_spans, span_index
    ) = reference_prepare(model, example, negatives)
    gold_spans = [span for span, _ in example.entities]
    d, dw = model.dimension, model.width_dim
    H = encoding.token_vectors

    alphas, pooled, reps = _forward(model, encoding, unique_spans)

    ent_rows = np.array([span_index[s] for s in ent_spans], dtype=int)
    ent_reps = reps[ent_rows] if len(ent_rows) else np.zeros((0, model.rep_dim))
    ent_probs = softmax(ent_reps @ model.ent_w.T + model.ent_b, axis=-1)

    attr_rows = np.array([span_index[s] for s in gold_spans], dtype=int)
    attr_reps = reps[attr_rows] if len(attr_rows) else np.zeros((0, model.rep_dim))
    attr_scores = sigmoid(attr_reps @ model.attr_w.T + model.attr_b)

    pair_reps = np.empty((len(pair_order), model.pair_dim))
    for i, (h, t) in enumerate(pair_order):
        hs, ts = gold_spans[h], gold_spans[t]
        pair_reps[i, :d] = pooled[span_index[hs]]
        pair_reps[i, d : d + dw] = model.width[len(hs) - 1]
        pair_reps[i, d + dw : 2 * d + dw] = between_context(H, hs, ts)
        pair_reps[i, 2 * d + dw : 3 * d + dw] = pooled[span_index[ts]]
        pair_reps[i, 3 * d + dw :] = model.width[len(ts) - 1]
    rel_scores = sigmoid(pair_reps @ model.rel_w.T + model.rel_b)

    loss = joint_loss(ent_probs, ent_targets, rel_scores, pair_labels, attr_scores, attr_labels)

    grads = {
        "attn_w": np.zeros_like(model.attn_w),
        "attn_b": 0.0,
        "width": np.zeros_like(model.width),
        "ent_w": np.zeros_like(model.ent_w),
        "ent_b": np.zeros_like(model.ent_b),
        "attr_w": np.zeros_like(model.attr_w),
        "attr_b": np.zeros_like(model.attr_b),
        "rel_w": np.zeros_like(model.rel_w),
        "rel_b": np.zeros_like(model.rel_b),
    }
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

    d_pooled = np.zeros_like(pooled)
    if rel_scores.size:
        g = (rel_scores - pair_labels) / rel_scores.size
        grads["rel_w"] += g.T @ pair_reps
        grads["rel_b"] += g.sum(axis=0)
        dr = g @ model.rel_w
        for i, (h, t) in enumerate(pair_order):
            hs, ts = gold_spans[h], gold_spans[t]
            d_pooled[span_index[hs]] += dr[i, :d]
            grads["width"][len(hs) - 1] += dr[i, d : d + dw]
            d_pooled[span_index[ts]] += dr[i, 2 * d + dw : 3 * d + dw]
            grads["width"][len(ts) - 1] += dr[i, 3 * d + dw :]

    for i, span in enumerate(unique_spans):
        d_pooled[i] += d_reps[i, :d]
        grads["width"][len(span) - 1] += d_reps[i, 2 * d :]

    for i, span in enumerate(unique_spans):
        h = H[span.start : span.end]
        alpha = alphas[i]
        d_alpha = h @ d_pooled[i]
        dz = alpha * (d_alpha - float(alpha @ d_alpha))
        grads["attn_w"] += h.T @ dz
        grads["attn_b"] += float(dz.sum())

    return loss, grads


def reference_train(dataset, schema, config, encoder_config, width_dim=8):
    """Gradient descent with the reference gradients and a per-group update."""
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
                _, grads = reference_loss_and_grads(model, ex, negatives, encodings[idx])
                if batch_grads is None:
                    batch_grads = grads
                else:
                    for k in grads:
                        batch_grads[k] = batch_grads[k] + grads[k]
            scale = config.learning_rate / len(batch)
            model.attn_w[...] -= scale * batch_grads["attn_w"]
            model.attn_b[...] -= scale * batch_grads["attn_b"]
            model.width[...] -= scale * batch_grads["width"]
            model.ent_w[...] -= scale * batch_grads["ent_w"]
            model.ent_b[...] -= scale * batch_grads["ent_b"]
            model.attr_w[...] -= scale * batch_grads["attr_w"]
            model.attr_b[...] -= scale * batch_grads["attr_b"]
            model.rel_w[...] -= scale * batch_grads["rel_w"]
            model.rel_b[...] -= scale * batch_grads["rel_b"]
    return model


def reference_extract(tokens, lemmas, model, provenance=""):
    """Decode one sentence with a pooled-vector dict and per-span entity reps."""
    if len(tokens) == 0:
        return assemble_graph(tokens, lemmas, [], [], [], provenance=provenance)
    encoding = encode_tokens(tokens, model.encoder)
    spans = enumerate_spans(len(tokens), model.max_span_len)
    pooled = {}
    reps = np.empty((len(spans), model.rep_dim))
    for i, span in enumerate(spans):
        _, hhat = span_attention(encoding.token_vectors, span, model.attn_w, model.attn_b)
        pooled[span] = hhat
        reps[i] = np.concatenate([hhat, encoding.passage_vector, model.width[len(span) - 1]])
    probs = classify_entities(model, reps)
    classes = probs.argmax(axis=1)

    entities = []
    kept = []
    for i, span in enumerate(spans):
        cls = int(classes[i])
        if cls == 0:
            continue
        entities.append((f"e{len(entities)}", span, model.entity_classes[cls], float(probs[i, cls])))
        kept.append((span, i))

    attributes = []
    relations = []
    if kept:
        attr_scores = classify_attributes(model, reps[[i for _, i in kept]])
        for (ent_id, _, _, _), scores in zip(entities, attr_scores):
            for j, attr in enumerate(model.schema.attribute_types):
                if scores[j] >= model.theta_a:
                    attributes.append((ent_id, attr, float(scores[j])))
        for hi, (head_span, _) in enumerate(kept):
            for ti, (tail_span, _) in enumerate(kept):
                if hi == ti:
                    continue
                rep = pair_rep(
                    encoding.token_vectors, head_span, pooled[head_span],
                    tail_span, pooled[tail_span], model.width,
                )
                scores = classify_relations(model, rep)
                for j, rel in enumerate(model.schema.relation_types):
                    if scores[j] >= model.theta_r:
                        relations.append((entities[hi][0], entities[ti][0], rel, float(scores[j])))
    return assemble_graph(tokens, lemmas, entities, attributes, relations, provenance=provenance)
