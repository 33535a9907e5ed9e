import json
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalkg import model as model_module
from causalkg.encoder import EncoderConfig, TokenEncoding, encode_tokens
from causalkg.errors import CausalKgError, DimensionMismatchError, GraphError, InputError
from causalkg.graphs import Span
from causalkg.model import (
    PARAM_GROUPS,
    Model,
    between_contexts,
    classify_attributes,
    classify_entities,
    classify_relations,
    enumerate_spans,
    extract,
    load_model,
    pair_block,
    save_model,
    sigmoid,
    softmax,
    span_attention,
    span_representations,
)
from causalkg.schema import load_schema, schema_from_dict, schema_to_dict
from training_reference import pair_rep
from training_reference import sigmoid as reference_sigmoid
from training_reference import softmax as reference_softmax


def small_model(seed=0, d=8, width_dim=2, max_span_len=3, schema="sciclaim"):
    return Model.initialize(
        load_schema(schema),
        EncoderConfig(dimension=d, seed=seed, context_window=1),
        max_span_len=max_span_len,
        width_dim=width_dim,
        seed=seed,
    )


def test_enumerate_spans_counts():
    assert len(enumerate_spans(3, 2)) == 5
    assert enumerate_spans(0, 4) == []
    assert len(enumerate_spans(5, 10)) == 15  # n(n+1)/2 when L >= n
    assert enumerate_spans(3, 2) == [
        Span(0, 1), Span(0, 2), Span(1, 2), Span(1, 3), Span(2, 3)
    ]
    with pytest.raises(ValueError):
        enumerate_spans(3, 0)
    # each used to raise a bare TypeError from range, or to count True as 1
    for n, max_len, message in [
        (4, 2.5, "max_len must be an integer, got 2.5"), (4, True, "max_len must be an integer, got True"),
        (2.5, 4, "n must be an integer, got 2.5"), ("3", 2, "n must be an integer, got '3'"),
    ]:
        with pytest.raises(InputError, match=re.escape(message)):
            enumerate_spans(n, max_len)


def test_attention_single_token():
    H = np.array([[1.0, 2.0], [3.0, 4.0]])
    alpha, pooled = span_attention(H, Span(1, 2), np.array([0.3, -0.2]), 0.5)
    assert np.array_equal(alpha, [1.0])
    assert np.array_equal(pooled, H[1])


def test_attention_identical_tokens_symmetric():
    H = np.array([[0.5, -1.0], [0.5, -1.0]])
    alpha, pooled = span_attention(H, Span(0, 2), np.array([2.0, 1.0]), -0.3)
    assert np.allclose(alpha, [0.5, 0.5])
    assert np.allclose(pooled, H[0])


def test_attention_three_token_hand_softmax():
    # scalar oracle: scores z_t = w.h_t, weights exp(z)/sum(exp(z))
    H = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    w = np.array([0.2, -0.4])
    z = [0.2, -0.4, -0.2]
    denom = sum(math.exp(v) for v in z)
    expected = np.array([math.exp(v) / denom for v in z])
    alpha, pooled = span_attention(H, Span(0, 3), w, 0.0)
    assert np.allclose(alpha, expected, atol=1e-12)
    assert np.allclose(pooled, expected @ H, atol=1e-12)


def test_attention_bias_shift_invariant():
    H = np.random.default_rng(0).standard_normal((4, 3))
    w = np.array([0.1, 0.2, 0.3])
    a1, _ = span_attention(H, Span(0, 4), w, 0.0)
    a2, _ = span_attention(H, Span(0, 4), w, 5.0)
    assert np.allclose(a1, a2)


def test_attention_normalized_over_random_spans():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n, d = int(rng.integers(1, 9)), int(rng.integers(2, 10))
        H = rng.standard_normal((n, d))
        w = rng.standard_normal(d)
        start = int(rng.integers(n))
        end = int(rng.integers(start + 1, n + 1))
        alpha, _ = span_attention(H, Span(start, end), w, float(rng.standard_normal()))
        assert np.all(alpha >= 0)
        assert abs(alpha.sum() - 1.0) < 1e-9


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    data=st.data(),
    n=st.integers(1, 40),
    max_span_len=st.integers(1, 10),
    d=st.sampled_from((2, 8, 64)),
    layout=st.sampled_from(("C", "F", "strided")),
    seed=st.integers(0, 2**16),
)
def test_span_representations_layout(data, n, max_span_len, d, layout, seed):
    # the span table pools every span of the sentence once and gathers the
    # asked-for spans, in any order and with repeats, from it; token vectors
    # that are not C-contiguous are pooled through windows of their own strides
    everything = enumerate_spans(n, max_span_len)
    spans = data.draw(st.one_of(
        st.permutations(everything), st.lists(st.sampled_from(everything), max_size=2 * len(everything))
    ))
    rng = np.random.default_rng(seed)
    H = {
        "C": lambda: rng.standard_normal((n, d)),
        "F": lambda: np.asfortranarray(rng.standard_normal((n, d))),
        "strided": lambda: rng.standard_normal((2 * n, d))[::2],
    }[layout]()
    m = small_model(seed=seed % 97, d=d, max_span_len=max_span_len)
    m.attn_w[...] = 3.0 * rng.standard_normal(d)
    encoding = TokenEncoding(H.mean(axis=0), H)
    alphas, reps = span_representations(m, encoding, spans)
    widest = min(n, max_span_len)
    assert alphas.shape == (len(spans), widest) and reps.shape == (len(spans), m.rep_dim)
    for i, span in enumerate(spans):
        alpha, pooled = span_attention(H, span, m.attn_w, m.attn_b)
        # each row holds the span's weights and then zeros up to the widest span
        assert alphas[i, : len(span)].tobytes() == alpha.tobytes()
        assert alphas[i, len(span) :].tobytes() == np.zeros(widest - len(span)).tobytes()
        assert reps[i, :d].tobytes() == pooled.tobytes()
        assert reps[i, d:].tobytes() == np.concatenate([encoding.passage_vector, m.width[len(span) - 1]]).tobytes()
    alphas, reps = span_representations(m, encoding, [])
    assert alphas.shape == (0, widest) and reps.shape == (0, m.rep_dim)


def test_extraction_never_builds_the_backward_arrays(monkeypatch):
    # the span table makes the arrays of its backward pass on the first
    # backward call, which only training makes
    tables = []
    real_span_table = model_module.span_table

    def span_table(*args):
        tables.append(real_span_table(*args))
        return tables[-1]

    monkeypatch.setattr(model_module, "span_table", span_table)
    m = small_model(seed=4, max_span_len=3)
    tokens = ["smoking", "causes", "cancer", "in", "mice"]
    span_representations(m, encode_tokens(tokens, m.encoder), enumerate_spans(5, 3))
    extract(tokens, None, m)
    assert len(tables) == 2 and tables[0].alpha is not None
    assert all("backward_arrays" not in vars(table) for table in tables)


@pytest.mark.parametrize("max_span_len, span, message", [
    # each of these used to pool a clipped window, or to fail with a bare
    # ValueError or IndexError
    (10, Span(2, 5), "span [2, 5) beyond 3 tokens"),
    (10, Span(5, 9), "span [5, 9) beyond 3 tokens"),
    (2, Span(0, 3), "span [0, 3) longer than max_span_len 2"),
])
def test_span_representations_refuse_a_span_they_cannot_pool(max_span_len, span, message):
    m = small_model(max_span_len=max_span_len)
    encoding = encode_tokens(["a", "b", "c"], m.encoder)
    with pytest.raises(CausalKgError, match=re.escape(message)):
        span_representations(m, encoding, [Span(0, 1), span])


def test_between_context():
    H = np.array([[1.0, -1.0], [5.0, 2.0], [3.0, 4.0], [0.0, 0.0]])
    # (lo, hi) is (min of the ends, max of the starts) of a span pair:
    # adjacent spans [0, 1) and [1, 2), then [0, 1) and [3, 4) either way
    # round, then overlapping spans
    lo, hi = np.array([1, 1, 1, 2]), np.array([1, 3, 3, 1])
    out = between_contexts(H, lo, hi)
    assert np.array_equal(out, [[0.0, 0.0], [5.0, 4.0], [5.0, 4.0], [0.0, 0.0]])
    assert between_contexts(H, np.zeros(0, dtype=int), np.zeros(0, dtype=int)).shape == (0, 2)
    # every range of a 9-token sentence, as a sparse table covers it
    H = np.random.default_rng(5).standard_normal((9, 3))
    lo, hi = np.divmod(np.arange(100), 10)
    out = between_contexts(H, lo, hi)
    for row, a, b in zip(out, lo, hi):
        assert np.array_equal(row, H[a:b].max(axis=0) if b > a else np.zeros(3))


def test_pair_rep_layout():
    H = np.arange(8.0).reshape(4, 2)
    widths = np.array([[7.0], [8.0]])
    spans = [Span(0, 1), Span(3, 4), Span(1, 3)]
    reps = np.column_stack([H[[0, 3, 1]], np.full((3, 2), -1.0), widths[[0, 0, 1]]])  # [pooled ; passage ; width]
    block = pair_block(H, spans, reps, np.array([0, 2]), np.array([1, 0]))
    assert block.shape == (2, 1, 8)  # (pairs, 1, 3d + 2 d_w)
    rep = block[0, 0]
    assert np.array_equal(rep[:2], H[0])
    assert rep[2] == 7.0
    assert np.array_equal(rep[3:5], np.maximum(H[1], H[2]))
    assert np.array_equal(rep[5:7], H[3])
    assert rep[7] == 7.0
    # [1, 3) after [0, 1): adjacent, so a zero between-context, width 2
    assert np.array_equal(block[1, 0], [2.0, 3.0, 8.0, 0.0, 0.0, 0.0, 1.0, 7.0])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    data=st.data(),
    n=st.integers(1, 40),
    max_span_len=st.integers(1, 10),
    d=st.sampled_from((4, 16, 64)),
    seed=st.integers(0, 2**16),
)
def test_pair_block_rows_are_the_per_pair_rows(data, n, max_span_len, d, seed):
    # spans drawn freely over the sentence are nested, adjacent, overlapping,
    # repeated or apart; every ordered pair of them is one block row
    starts = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
    spans = [Span(s, min(n, s + data.draw(st.integers(1, max_span_len)))) for s in starts]
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((n, d))
    pooled = rng.standard_normal((len(spans), d))
    widths = rng.standard_normal((max_span_len, 3))
    passage = rng.standard_normal((len(spans), d))  # not part of a pair row
    reps = np.concatenate([pooled, passage, widths[[len(span) - 1 for span in spans]]], axis=1)
    pairs = [(h, t) for h in range(len(spans)) for t in range(len(spans)) if h != t]
    heads = np.array([h for h, _ in pairs], dtype=np.intp)
    tails = np.array([t for _, t in pairs], dtype=np.intp)
    block = pair_block(H, spans, reps, heads, tails)
    assert block.shape == (len(pairs), 1, 3 * d + 6)
    expected = [pair_rep(H, spans[h], pooled[h], spans[t], pooled[t], widths) for h, t in pairs]
    assert block.tobytes() == np.array(expected).reshape(block.shape).tobytes()


def test_zero_weights_give_uniform_and_half():
    m = small_model()
    m.ent_w[:] = 0.0
    m.ent_b[:] = 0.0
    m.attr_w[:] = 0.0
    m.attr_b[:] = 0.0
    m.rel_w[:] = 0.0
    m.rel_b[:] = 0.0
    reps = np.random.default_rng(1).standard_normal((3, m.rep_dim))
    probs = classify_entities(m, reps)
    assert probs.shape == (3, 7)  # 6 sciclaim types + null
    assert np.allclose(probs, 1.0 / 7.0)
    assert np.allclose(classify_attributes(m, reps), 0.5)
    pair = np.random.default_rng(2).standard_normal((2, m.pair_dim))
    assert np.allclose(classify_relations(m, pair), 0.5)


def test_entity_softmax_normalized():
    m = small_model(seed=3)
    reps = np.random.default_rng(4).standard_normal((20, m.rep_dim))
    probs = classify_entities(m, reps)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(probs >= 0)


def test_classifier_hand_sigmoid():
    m = small_model()
    m.attr_w[:] = 0.0
    m.attr_b[:] = 0.0
    m.attr_w[0, 0] = 1.0
    m.attr_b[1] = -2.0
    rep = np.zeros(m.rep_dim)
    rep[0] = 3.0
    scores = classify_attributes(m, rep[None, :])[0]
    assert abs(scores[0] - 1.0 / (1.0 + math.exp(-3.0))) < 1e-12
    assert abs(scores[1] - 1.0 / (1.0 + math.exp(2.0))) < 1e-12


SPECIAL = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 36.7, -36.7, 709.8, -709.8, 745.2, -745.2,
                    1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan])


def test_sigmoid_and_softmax_round_as_the_originals():
    # the heads compute these with fewer numpy calls; each value must stay
    # the original's bit for bit, sign of zero and NaN included
    rng = np.random.default_rng(11)
    z = np.concatenate([SPECIAL, rng.standard_normal(4000) * 10.0 ** rng.integers(-8, 4, 4000)])[:4011]
    with np.errstate(invalid="ignore", over="ignore"):
        for batch in (z, z.reshape(-1, 7), z[:10].reshape(2, 5)):
            got, want = sigmoid(batch), reference_sigmoid(batch)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            for axis in range(-batch.ndim, batch.ndim):
                got, want = softmax(batch, axis=axis), reference_softmax(batch, axis=axis)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_dimension_mismatch_raises():
    m = small_model()
    bad = np.zeros((1, m.rep_dim + 1))
    with pytest.raises(DimensionMismatchError):
        classify_entities(m, bad)
    with pytest.raises(DimensionMismatchError):
        classify_attributes(m, bad)
    with pytest.raises(DimensionMismatchError):
        classify_relations(m, np.zeros((1, m.pair_dim - 1)))


def test_null_biased_model_extracts_nothing():
    m = small_model()
    m.ent_w[:] = 0.0
    m.ent_b[:] = 0.0
    m.ent_b[0] = 50.0  # null class dominates every span
    g = extract(["a", "b", "c"], None, m)
    assert g.entities == ()
    assert g.relations == ()


def test_extract_empty_sentence():
    g = extract([], None, small_model(), provenance="empty")
    assert g.entities == () and g.provenance == "empty"


@pytest.mark.parametrize("tokens, lemmas, message", [
    (None, None, "tokens None are not a sequence of strings"),
    ([["a"]], None, "token ['a'] is not a string"),
    ([5], None, "token 5 is not a string"),
    (["a", "b"], [["a"], "b"], "lemma ['a'] is not a string"),
])
def test_extract_checks_tokens_and_lemmas_before_encoding(tokens, lemmas, message, monkeypatch):
    def encode(*args):
        raise AssertionError("encoded before the tokens were checked")

    monkeypatch.setattr(model_module, "encode_tokens", encode)
    with pytest.raises(GraphError, match=re.escape(message)):
        extract(tokens, lemmas, small_model())


def test_extract_output_is_valid_and_confident():
    m = small_model(seed=7)
    m.ent_b[1:] += 2.0  # force plenty of non-null predictions
    g = extract(["alpha", "beta", "gamma", "delta"], None, m, provenance="x")
    ids = set(g.entity_by_id())
    for e in g.entities:
        assert 0.0 < e.confidence <= 1.0
        assert e.entity_type in m.schema.entity_types
        for t, c in e.attributes:
            assert c >= m.theta_a
    for r in g.relations:
        assert r.head in ids and r.tail in ids
        assert r.confidence >= m.theta_r


def test_threshold_monotonicity():
    # raising thresholds never adds attributes or relations
    m = small_model(seed=9)
    m.ent_b[1:] += 2.0
    tokens = ["p", "q", "r"]

    def decode(theta_r, theta_a):
        mm = replace(m.copy(), theta_r=theta_r, theta_a=theta_a)
        g = extract(tokens, None, mm)
        rels = {(r.head, r.tail, r.relation_type) for r in g.relations}
        attrs = {(e.id, t) for e in g.entities for t, _ in e.attributes}
        return rels, attrs

    lo_r, lo_a = decode(0.3, 0.4)
    hi_r, hi_a = decode(0.6, 0.7)
    assert hi_r <= lo_r
    assert hi_a <= lo_a


def test_save_load_round_trip(tmp_path):
    m = small_model(seed=5)
    path = tmp_path / "model.json"
    save_model(m, str(path))
    back = load_model(str(path))
    assert np.array_equal(back.attn_w, m.attn_w)
    assert back.attn_b == m.attn_b
    assert np.array_equal(back.width, m.width)
    assert np.array_equal(back.ent_w, m.ent_w)
    assert np.array_equal(back.rel_w, m.rel_w)
    assert back.schema.name == m.schema.name
    assert back.encoder == m.encoder
    assert (back.max_span_len, back.width_dim) == (m.max_span_len, m.width_dim)


def test_copy_owns_every_parameter_group():
    m = small_model(seed=5)
    before = {name: getattr(m, name).copy() for name in PARAM_GROUPS}
    c = m.copy()
    for name in PARAM_GROUPS:
        getattr(c, name)[...] += 1.0
    for name in PARAM_GROUPS:
        assert np.array_equal(getattr(m, name), before[name]), name
        assert np.array_equal(getattr(c, name), before[name] + 1.0), name
    assert np.shape(c.attn_b) == ()
    # the edits through the groups reached all of the copy's own buffer,
    # which holds the groups back to back in PARAM_GROUPS order
    assert c.params.shapes == m.params.shapes and not np.shares_memory(c.params.flat, m.params.flat)
    assert c.params.flat.tobytes() == (m.params.flat + 1.0).tobytes()
    assert c.params.flat.tobytes() == b"".join(getattr(c, name).tobytes() for name in PARAM_GROUPS)


def test_save_load_save_is_byte_identical(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_model(small_model(seed=5), str(first))
    back = load_model(str(first))
    assert np.shape(back.attn_b) == ()
    save_model(back, str(second))
    assert first.read_bytes() == second.read_bytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    types=st.tuples(st.integers(1, 4), st.integers(0, 3), st.integers(0, 3)),
    d=st.integers(2, 12),
    max_span_len=st.integers(1, 10),
    width_dim=st.integers(1, 6),
    data=st.data(),
)
def test_save_load_save_keeps_every_layout(types, d, max_span_len, width_dim, data):
    # any schema's sizes, with no attribute or relation types too, and any
    # finite values: reloading fills a buffer of the same layout and bytes
    entities, attributes, relations = types
    schema = schema_from_dict({
        "name": "sized",
        "entity_types": [f"e{i}" for i in range(entities)],
        "attribute_types": [f"a{i}" for i in range(attributes)],
        "relation_types": [f"r{i}" for i in range(relations)],
    })
    m = Model.initialize(schema, EncoderConfig(dimension=d, seed=0, context_window=1), max_span_len, width_dim)
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
    m.params.flat[:] = np.resize(values, m.params.flat.size)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.json"), Path(tmp, "b.json")
        save_model(m, str(first))
        back = load_model(str(first))
        save_model(back, str(second))
        assert first.read_bytes() == second.read_bytes()
    assert back.params.shapes == m.params.shapes
    assert back.params.flat.tobytes() == m.params.flat.tobytes()


def test_loads_the_float_attn_b_format(tmp_path):
    # the file as it was written while attn_b was a Python float
    m = small_model(seed=5)
    params = {name: getattr(m, name).tolist() for name in PARAM_GROUPS}
    params["attn_b"] = float(m.attn_b) + 0.25
    doc = {
        "format_version": 1,
        "schema": schema_to_dict(m.schema),
        "encoder": m.encoder.to_dict(),
        "max_span_len": m.max_span_len,
        "width_dim": m.width_dim,
        "theta_r": m.theta_r,
        "theta_a": m.theta_a,
        "parameters": params,
    }
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(doc) + "\n")
    back = load_model(str(old))
    assert back.attn_b == 0.25 and np.shape(back.attn_b) == ()
    save_model(back, str(new))
    assert new.read_bytes() == old.read_bytes()


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format_version": 99}')
    with pytest.raises(ValueError):
        load_model(str(path))


def saved_model_doc(tmp_path):
    path = tmp_path / "model.json"
    save_model(small_model(seed=5), str(path))
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("key, value", [("theta_r", 1.5), ("theta_a", 0.0), ("theta_r", float("nan"))])
def test_load_rejects_thresholds_outside_unit_interval(tmp_path, key, value):
    path, doc = saved_model_doc(tmp_path)
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"thresholds must lie in \(0, 1\)"):
        load_model(str(path))


@pytest.mark.parametrize("group, edit", [
    ("rel_w", lambda a: [row[:-1] for row in a]),  # truncated rows
    ("rel_w", lambda a: a[:-1]),  # a relation type missing
    ("ent_b", lambda a: a + [0.0]),
    ("attn_w", lambda a: [a]),
    ("width", lambda a: a[:2]),  # fewer rows than max_span_len
    ("attn_b", lambda b: [b]),
])
def test_load_rejects_parameter_shape_mismatch(tmp_path, group, edit):
    path, doc = saved_model_doc(tmp_path)
    doc["parameters"][group] = edit(doc["parameters"][group])
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"model parameter '{group}' has shape"):
        load_model(str(path))


@pytest.mark.parametrize("group", ["attn_b", "rel_w"])
def test_load_rejects_non_finite_parameters(tmp_path, group):
    path, doc = saved_model_doc(tmp_path)
    value = doc["parameters"][group]
    doc["parameters"][group] = float("nan") if group == "attn_b" else [[float("inf")] * len(r) for r in value]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"model parameter '{group}' has non-finite values"):
        load_model(str(path))


def test_load_rejects_shapes_that_disagree_with_stored_dimensions(tmp_path):
    path, doc = saved_model_doc(tmp_path)
    doc["encoder"]["dimension"] += 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="model parameter 'attn_w' has shape"):
        load_model(str(path))


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(theta_r=[0.4]),
    lambda doc: doc.update(width_dim=[2]),
    lambda doc: doc["parameters"].update(ent_b={"0": 0.0}),
    lambda doc: doc["parameters"].update(rel_w=[{"row": 1.0}]),
])
def test_load_rejects_mistyped_fields(tmp_path, edit):
    path, doc = saved_model_doc(tmp_path)
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="malformed model file"):
        load_model(str(path))


def test_initialize_validates():
    schema = load_schema("sciclaim")
    with pytest.raises(ValueError):
        Model.initialize(schema, EncoderConfig(dimension=8), max_span_len=0)
    with pytest.raises(ValueError):
        Model.initialize(schema, EncoderConfig(dimension=8), theta_r=1.5)
    with pytest.raises(ValueError):
        Model.initialize(schema, EncoderConfig(dimension=8), width_dim=0)
    # a size, seed or threshold of the wrong type is an InputError too, as
    # is a numpy integer, which the model file could not hold
    for name, value in [
        ("width_dim", 2.5), ("width_dim", np.int64(2)), ("max_span_len", "3"), ("max_span_len", True),
        ("theta_r", "0.4"), ("theta_a", None), ("seed", 1.5), ("seed", -1), ("seed", np.int64(1)),
    ]:
        with pytest.raises(InputError, match=name):
            Model.initialize(schema, EncoderConfig(dimension=8), **{name: value})
    # a size that disagrees with the parameters is refused with both layouts;
    # extract used to fail with a bare IndexError or matmul's ValueError
    model = Model.initialize(schema, EncoderConfig(dimension=8), max_span_len=3, width_dim=1)
    for name, value in [("max_span_len", 5), ("width_dim", 2)]:
        wanted = Model.initialize(schema, EncoderConfig(dimension=8), **{"max_span_len": 3, "width_dim": 1, name: value})
        with pytest.raises(InputError, match=re.escape(str(model.params.shapes))) as exc:
            replace(model, **{name: value})
        assert str(wanted.params.shapes) in str(exc.value)
    # a threshold is checked where the shapes are: a string one used to
    # construct and then fail in extract with numpy's UFuncTypeError, and
    # one outside (0, 1) to extract nothing
    for name, value, message in [
        ("theta_r", "0.4", "theta_r must be a number, got '0.4'"), ("theta_a", True, "theta_a must be a number"),
        ("theta_r", 2.0, "thresholds must lie in (0, 1)"), ("theta_a", float("nan"), "thresholds must lie in (0, 1)"),
    ]:
        with pytest.raises(InputError, match=re.escape(message)):
            replace(model, **{name: value})


STACKED_GEMV_BROKEN = (
    "numpy's matmul dispatch changed: a (n, 1, k) stack no longer scores each row "
    "bit for bit like a 1-D row, so extract's stacked pair scoring is no longer "
    "byte-identical to scoring pair by pair"
)


def test_stacked_rows_score_like_single_rows():
    # extract scores each head's pairs as one (k-1, 1, pair_dim) stack; its
    # graphs and the bench digests stay byte-identical only while matmul runs
    # one gemv per stacked row, exactly as for a single 1-D row
    default = Model.initialize(load_schema("sciclaim"), EncoderConfig())
    rng = np.random.default_rng(2024)
    shapes = [(1, default.pair_dim, 7), (2, default.pair_dim, 7), (300, default.pair_dim, 7)]
    shapes += [tuple(int(x) for x in rng.integers(1, [400, 300, 12])) for _ in range(30)]
    for n, k, t in shapes:
        B = rng.standard_normal((n, k))
        W = rng.standard_normal((t, k))
        stacked = (np.ascontiguousarray(B[:, None, :]) @ W.T)[:, 0]
        single = np.array([B[i] @ W.T for i in range(n)])
        assert np.array_equal(stacked, single), f"{STACKED_GEMV_BROKEN} (shape {(n, k, t)})"
        z = 4 * rng.standard_normal((n, t))
        assert np.array_equal(
            sigmoid(z), np.array([sigmoid(row) for row in z])
        ), f"{STACKED_GEMV_BROKEN}: sigmoid of a batch differs from sigmoid of its rows"

    m = small_model(seed=3, d=16, width_dim=4)
    block = rng.standard_normal((9, 1, m.pair_dim))
    scores = classify_relations(m, block)
    assert scores.shape == (9, 1, len(m.schema.relation_types))
    for i in range(9):
        assert np.array_equal(scores[i, 0], classify_relations(m, block[i, 0])), STACKED_GEMV_BROKEN
