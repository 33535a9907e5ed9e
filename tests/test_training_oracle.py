"""Training and extraction against the per-pair reference loops: losses,
gradients, trained parameters and extracted graphs must be bit-identical,
with and without the per-example plan that `train` builds once."""

import importlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synth
from causalkg.encoder import EncoderConfig, TokenEncoding, encode_tokens
from causalkg.errors import SelfLoopError
from causalkg.graphs import Span, graph_to_json
from causalkg.model import (
    PARAM_GROUPS,
    Model,
    Params,
    classify_relations,
    enumerate_spans,
    extract,
    span_attention,
    span_table,
    table_reps,
)
from causalkg.schema import load_schema
from causalkg.training import (
    Example,
    Negatives,
    TrainConfig,
    _plan,
    _prepare,
    example_loss,
    example_loss_and_grads,
    sample_negatives,
    train,
)
from training_reference import (
    reference_extract,
    reference_loss_and_grads,
    reference_prepare,
    reference_train,
)

SCICLAIM = load_schema("sciclaim")
CRITERION_3_ENCODER = EncoderConfig(dimension=64, seed=0, context_window=1)


def training_plan(model, ex):
    """The encoding and plan `train` would build for ex."""
    encoding = encode_tokens(ex.tokens, model.encoder)
    return encoding, _plan(model.schema, model.max_span_len, ex).over(encoding.token_vectors)


def assert_matches_reference(model, ex, negatives, planned=None):
    """Losses and gradients equal the reference's, both when the call
    builds its own plan and when given planned, an (encoding, plan) pair
    (by default `training_plan`'s)."""
    ref_loss, ref_grads = reference_loss_and_grads(model, ex, negatives)
    encoding, plan = planned or training_plan(model, ex)
    for kwargs in ({}, {"encoding": encoding, "plan": plan}):
        loss, grads = example_loss_and_grads(model, ex, negatives, **kwargs)
        assert loss == ref_loss
        assert example_loss(model, ex, negatives, **kwargs) == ref_loss
        assert set(grads) == set(PARAM_GROUPS)
        for name in PARAM_GROUPS:
            assert np.array_equal(grads[name], ref_grads[name]), name


def parameter_bytes(model):
    return {name: np.asarray(getattr(model, name), dtype=float).tobytes() for name in PARAM_GROUPS}


def test_criterion_3_corpus_matches_reference():
    dataset = synth.build_corpus()
    untrained = Model.initialize(SCICLAIM, CRITERION_3_ENCODER, seed=0)
    trained = train(dataset, SCICLAIM, TrainConfig(epochs=5, learning_rate=2.5, seed=0),
                    encoder_config=CRITERION_3_ENCODER)
    for i, ex in enumerate(dataset):
        negatives = sample_negatives(ex, 50, 20, untrained.max_span_len, seed=i)
        assert negatives.spans and negatives.pairs
        planned = training_plan(untrained, ex)  # one plan serves both models, as in train
        assert_matches_reference(untrained, ex, negatives, planned)
        assert_matches_reference(trained, ex, negatives, planned)


def assert_out_matches_a_fresh_gradient(model, ex, negatives, planned, out):
    """example_loss_and_grads given out returns out, holding bit for bit the
    gradient that a call without out returns, whatever out held before."""
    encoding, plan = planned
    for kwargs in ({}, {"encoding": encoding, "plan": plan}):
        loss, fresh = example_loss_and_grads(model, ex, negatives, **kwargs)
        out.flat[:] = np.nan  # a step before left its gradient: every group must be written over
        into_loss, into = example_loss_and_grads(model, ex, negatives, **kwargs, out=out)
        assert into is out and into_loss == loss
        assert out.flat.tobytes() == fresh.flat.tobytes()


def test_gradients_into_out_match_fresh_ones_on_the_criterion_3_corpus():
    dataset = synth.build_corpus()
    untrained = Model.initialize(SCICLAIM, CRITERION_3_ENCODER, seed=0)
    trained = train(dataset, SCICLAIM, TrainConfig(epochs=5, learning_rate=2.5, seed=0),
                    encoder_config=CRITERION_3_ENCODER)
    out = Params(untrained.params.shapes)  # one buffer for every call, as in train
    for i, ex in enumerate(dataset):
        negatives = sample_negatives(ex, 50, 20, untrained.max_span_len, seed=i)
        planned = training_plan(untrained, ex)
        assert_out_matches_a_fresh_gradient(untrained, ex, negatives, planned, out)
        assert_out_matches_a_fresh_gradient(trained, ex, negatives, planned, out)


@st.composite
def examples_and_negatives(draw):
    n = draw(st.integers(1, 6))
    candidates = enumerate_spans(n, 3)
    spans = draw(st.lists(st.sampled_from(candidates), max_size=4))
    k = len(spans)
    entities = tuple((span, draw(st.sampled_from(SCICLAIM.entity_types))) for span in spans)
    indices = st.integers(0, k - 1) if k else st.nothing()
    attributes = draw(st.lists(
        st.tuples(indices, st.sampled_from(SCICLAIM.attribute_types)), max_size=4 if k else 0
    ))
    relations = draw(st.lists(
        st.tuples(indices, indices, st.sampled_from(SCICLAIM.relation_types)), max_size=5 if k else 0
    ))
    negatives = Negatives(
        spans=tuple(draw(st.lists(st.sampled_from(candidates), max_size=6))),
        pairs=tuple(draw(st.lists(st.tuples(indices, indices), max_size=4 if k else 0))),
    )
    tokens = tuple(f"w{draw(st.integers(0, 30))}" for _ in range(n))
    ex = Example(tokens, tokens, entities, tuple(attributes), tuple(relations), "h")
    return ex, negatives, draw(st.integers(0, 3))


def refuse_self_loops(ex, negatives):
    """Check that a case with a pair from an entity to itself is refused,
    and return the case without such pairs, which the reference can take."""
    if any(h == t for h, t, _ in ex.relations) or any(h == t for h, t in negatives.pairs):
        with pytest.raises(SelfLoopError):
            _prepare(SCICLAIM, 3, ex, negatives)
    ex = replace(ex, relations=tuple(r for r in ex.relations if r[0] != r[1]))
    return ex, Negatives(negatives.spans, tuple(p for p in negatives.pairs if p[0] != p[1]))


NO_ENTITIES = (Example(("a", "b"), ("a", "b"), (), (), (), "none"), Negatives((Span(0, 2),), ()), 0)
NO_PAIRS = (
    Example(("a", "b", "c"), ("a", "b", "c"), ((Span(1, 3), "factor"),), ((0, "causation"),), (), "one"),
    Negatives((), ()),
    1,
)
DUPLICATE_SPANS = (
    Example(
        ("a", "b", "c"), ("a", "b", "c"),
        ((Span(0, 2), "factor"), (Span(0, 2), "association"), (Span(2, 3), "factor")),
        ((1, "causation"), (1, "causation")),
        ((0, 1, "arg0"), (1, 0, "arg0"), (1, 2, "arg1"), (1, 2, "arg1")),
        "dup",
    ),
    Negatives((Span(0, 2), Span(1, 2)), ((0, 1), (2, 0))),
    2,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(examples_and_negatives())
@example(NO_ENTITIES)
@example(NO_PAIRS)
@example(DUPLICATE_SPANS)
def test_random_examples_match_reference(case):
    ex, negatives, seed = case
    ex, negatives = refuse_self_loops(ex, negatives)
    model = Model.initialize(
        SCICLAIM, EncoderConfig(dimension=8, seed=seed, context_window=1),
        max_span_len=3, width_dim=2, seed=seed,
    )
    assert_matches_reference(model, ex, negatives)


@st.composite
def wide_examples_and_negatives(draw):
    """Sentences of 1-12 tokens and max_span_len 1-10, with the cases whose
    sums must keep their order: a gold span named twice, negatives equal to
    gold spans or to each other, and fewer negatives than candidates, so
    the step's span table holds spans the step never uses."""
    n, max_span_len = draw(st.integers(1, 12)), draw(st.integers(1, 10))
    candidates = enumerate_spans(n, max_span_len)
    spans = draw(st.lists(st.sampled_from(candidates), max_size=5))
    if spans and draw(st.booleans()):
        spans.append(draw(st.sampled_from(spans)))
    k = len(spans)
    entities = tuple((span, draw(st.sampled_from(SCICLAIM.entity_types))) for span in spans)
    indices = st.integers(0, k - 1) if k else st.nothing()
    attributes = draw(st.lists(
        st.tuples(indices, st.sampled_from(SCICLAIM.attribute_types)), max_size=4 if k else 0
    ))
    distinct = st.tuples(indices, indices).filter(lambda p: p[0] != p[1]) if k > 1 else st.nothing()
    relations = draw(st.lists(
        st.tuples(distinct, st.sampled_from(SCICLAIM.relation_types)).map(lambda r: (*r[0], r[1])),
        max_size=5 if k > 1 else 0,
    ))
    negatives = Negatives(
        spans=tuple(draw(st.lists(st.sampled_from(candidates + spans), max_size=len(candidates) // 2 + 1))),
        pairs=tuple(draw(st.lists(distinct, max_size=4 if k > 1 else 0))),
    )
    tokens = tuple(f"w{draw(st.integers(0, 30))}" for _ in range(n))
    ex = Example(tokens, tokens, entities, tuple(attributes), tuple(relations), "w")
    return ex, negatives, max_span_len, draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(wide_examples_and_negatives())
def test_wide_random_examples_match_reference(case):
    ex, negatives, max_span_len, seed = case
    model = Model.initialize(
        SCICLAIM, EncoderConfig(dimension=8, seed=seed, context_window=1),
        max_span_len=max_span_len, width_dim=2, seed=seed,
    )
    assert_matches_reference(model, ex, negatives)


def test_an_empty_sentence_matches_reference():
    # the encoders refuse no tokens, but a caller may pass its own encoding;
    # the step's span table then has no rows
    model = Model.initialize(SCICLAIM, EncoderConfig(dimension=8), max_span_len=3, width_dim=2)
    ex, negatives = Example((), (), (), (), (), "empty"), Negatives((), ())
    encoding = TokenEncoding(passage_vector=np.zeros(8), token_vectors=np.zeros((0, 8)))
    loss, grads = example_loss_and_grads(model, ex, negatives, encoding)
    ref_loss, ref_grads = reference_loss_and_grads(model, ex, negatives, encoding)
    assert loss == ref_loss == example_loss(model, ex, negatives, encoding)
    for name in PARAM_GROUPS:
        assert np.array_equal(grads[name], ref_grads[name]), name


@settings(max_examples=100, deadline=None, derandomize=True)
@given(wide_examples_and_negatives())
def test_random_gradients_into_out_match_fresh_ones(case):
    ex, negatives, max_span_len, seed = case
    model = Model.initialize(
        SCICLAIM, EncoderConfig(dimension=8, seed=seed, context_window=1),
        max_span_len=max_span_len, width_dim=2, seed=seed,
    )
    assert_out_matches_a_fresh_gradient(model, ex, negatives, training_plan(model, ex), Params(model.params.shapes))


@st.composite
def trainable_datasets(draw):
    """Datasets that check_dataset accepts, of 1-3 sentences of 1-12 tokens
    under one max_span_len of 1-10, and training settings that draw fewer
    negative spans than there are candidates."""
    max_span_len = draw(st.integers(1, 10))
    dataset = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 12))
        spans = draw(st.lists(st.sampled_from(enumerate_spans(n, max_span_len)), min_size=1, max_size=4, unique=True))
        k = len(spans)
        entities = tuple((span, draw(st.sampled_from(SCICLAIM.entity_types))) for span in spans)
        attributes = draw(st.lists(
            st.tuples(st.integers(0, k - 1), st.sampled_from(SCICLAIM.attribute_types)), max_size=3, unique=True
        ))
        relations = draw(st.lists(
            st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), st.sampled_from(SCICLAIM.relation_types))
            .filter(lambda r: r[0] != r[1]),
            max_size=4 if k > 1 else 0, unique=True,
        ))
        tokens = tuple(f"w{draw(st.integers(0, 30))}" for _ in range(n))
        dataset.append(Example(tokens, tokens, entities, tuple(attributes), tuple(relations), f"t{i}"))
    config = TrainConfig(
        epochs=2, learning_rate=2.5, batch_size=draw(st.sampled_from((1, 4))), seed=draw(st.integers(0, 3)),
        neg_entity_count=draw(st.integers(0, 3)), neg_relation_count=draw(st.integers(0, 3)),
        max_span_len=max_span_len,
    )
    return dataset, config


@settings(max_examples=40, deadline=None, derandomize=True)
@given(trainable_datasets())
def test_random_training_matches_reference(case):
    dataset, config = case
    encoder = EncoderConfig(dimension=8, seed=config.seed, context_window=1)
    model = train(dataset, SCICLAIM, config, encoder_config=encoder, width_dim=2)
    ref = reference_train(dataset, SCICLAIM, config, encoder, width_dim=2)
    for name in PARAM_GROUPS:
        assert np.array_equal(getattr(model, name), getattr(ref, name)), name
    assert parameter_bytes(model) == parameter_bytes(ref)


SPAN_TABLE_BROKEN = (
    "numpy's matmul dispatch changed: a stacked (c, w, d) token-window matmul no longer makes "
    "each span's own BLAS call, so training's span table no longer pools like span_attention"
)


def test_span_table_pools_each_span_as_span_attention():
    # table_reps pools every span of a width with one stacked matmul; the
    # trained parameters and the extracted graphs stay bit-identical only
    # while each stacked item gives what span_attention gives for that span
    # alone
    rng = np.random.default_rng(19)
    for d in (2, 8, 64, 150):
        for n in (1, 2, 5, 9, 12):
            max_span_len = int(rng.integers(1, 11))
            model = Model.initialize(SCICLAIM, EncoderConfig(dimension=d), max_span_len=max_span_len, seed=int(rng.integers(99)))
            model.attn_w[...] = 3.0 * rng.standard_normal(d)
            H = rng.standard_normal((n, d))
            alpha, reps = table_reps(model, span_table(n, max_span_len, H), H.mean(axis=0))
            table = sorted(enumerate_spans(n, max_span_len), key=lambda s: (len(s), s.start))
            for row, span in enumerate(table):
                want_alpha, want_pooled = span_attention(H, span, model.attn_w, model.attn_b)
                assert np.array_equal(reps[row, :d], want_pooled), SPAN_TABLE_BROKEN
                assert np.array_equal(alpha[row, : len(span)], want_alpha), SPAN_TABLE_BROKEN
                assert not alpha[row, len(span) :].any()


def test_sample_negatives_draws_alike_with_the_plan():
    examples = synth.build_corpus() + [NO_ENTITIES[0], NO_PAIRS[0], DUPLICATE_SPANS[0]]
    for ex in examples:
        plan = _plan(SCICLAIM, 10, ex)
        for seed in range(50):
            for counts in ((50, 20), (2, 1)):
                negatives = sample_negatives(ex, *counts, 10, seed=seed)
                assert sample_negatives(ex, *counts, 10, seed=seed, plan=plan) == negatives


def assert_prepared_like_reference(model, ex, negatives):
    """_prepare's six values equal the reference's seven: arrays by dtype,
    shape and bytes, the rest by value, and the entity and step rows as the
    reference's entity spans and distinct spans, in order, through the
    span table (every span, by width and then by start)."""
    ent_rows, *labels, step_rows = _prepare(model.schema, model.max_span_len, ex, negatives)
    ent_spans, *want, unique_spans, span_index = reference_prepare(model, ex, negatives)
    table = sorted(enumerate_spans(len(ex.tokens), model.max_span_len), key=lambda s: (len(s), s.start))
    for rows, spans in ((ent_rows, ent_spans), (step_rows, unique_spans)):
        assert rows.dtype == np.intp
        assert [table[r] for r in rows] == spans
    assert list(span_index) == unique_spans
    for a, b in zip(labels, want, strict=True):
        assert type(a) is type(b)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        else:
            assert a == b


PREPARE_MODEL = Model.initialize(SCICLAIM, EncoderConfig(dimension=4), max_span_len=3, width_dim=2)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(examples_and_negatives())
@example(NO_ENTITIES)
@example(NO_PAIRS)
@example(DUPLICATE_SPANS)
def test_random_examples_prepare_like_reference(case):
    ex, negatives, _ = case
    ex, negatives = refuse_self_loops(ex, negatives)
    assert_prepared_like_reference(PREPARE_MODEL, ex, negatives)


def test_criterion_3_corpus_prepares_like_reference():
    # the negatives criterion 3's training draws in its first epochs
    model = Model.initialize(SCICLAIM, CRITERION_3_ENCODER, seed=0)
    for epoch in range(3):
        for i, ex in enumerate(synth.build_corpus()):
            negatives = sample_negatives(ex, 50, 20, model.max_span_len, seed=np.random.SeedSequence([0, epoch, i]))
            assert negatives.spans and negatives.pairs
            assert_prepared_like_reference(model, ex, negatives)


def test_train_parameters_match_reference_update():
    dataset = synth.build_corpus()[::3]
    for batch_size in (1, 4):
        config = TrainConfig(epochs=4, learning_rate=2.5, batch_size=batch_size, seed=3,
                             neg_entity_count=50, neg_relation_count=20)
        model = train(dataset, SCICLAIM, config, encoder_config=CRITERION_3_ENCODER)
        ref = reference_train(dataset, SCICLAIM, config, CRITERION_3_ENCODER)
        assert parameter_bytes(model) == parameter_bytes(ref)


def test_train_batches_of_two_and_three_match_reference():
    # a batch sums its steps' gradients in a buffer of its own, as every step
    # writes into the one gradient buffer; ten examples end in a short batch
    dataset = synth.build_corpus()[::3]
    for batch_size in (2, 3):
        config = TrainConfig(epochs=4, learning_rate=2.5, batch_size=batch_size, seed=3,
                             neg_entity_count=50, neg_relation_count=20)
        model = train(dataset, SCICLAIM, config, encoder_config=CRITERION_3_ENCODER)
        ref = reference_train(dataset, SCICLAIM, config, CRITERION_3_ENCODER)
        assert parameter_bytes(model) == parameter_bytes(ref)


def dense_sentences():
    for length in (4, 5, 6):
        for offset in (0, 17):
            yield tuple(synth.FACTORS[offset + length * k] for k in range(length))


def test_untrained_extraction_matches_reference():
    model = Model.initialize(SCICLAIM, CRITERION_3_ENCODER, seed=16)
    for tokens in dense_sentences():
        graph = extract(tokens, tokens, model, provenance="d")
        assert len(graph.relations) > 100
        assert graph == reference_extract(tokens, tokens, model, provenance="d")


def test_trained_extraction_matches_reference():
    dataset = synth.build_corpus()
    model = train(dataset, SCICLAIM, TrainConfig(epochs=40, learning_rate=2.5, seed=0,
                                                 neg_entity_count=50, neg_relation_count=20),
                  encoder_config=CRITERION_3_ENCODER)
    sentences = [ex.tokens for ex in dataset] + list(dense_sentences())
    relations = 0
    for tokens in sentences:
        graph = extract(tokens, None, model, provenance="t")
        relations += len(graph.relations)
        assert graph == reference_extract(tokens, None, model, provenance="t")
    assert relations > 0


def assert_extract_matches_reference(tokens, model):
    graph = extract(tokens, None, model, provenance="o")
    ref = reference_extract(tokens, None, model, provenance="o")
    assert graph == ref
    assert graph_to_json(graph) == graph_to_json(ref)  # every float bit for bit
    return graph


def test_dense_extraction_matches_reference_across_sentence_lengths():
    # untrained models keep most spans; seed 0 keeps 0, 1 and 2 of them at
    # lengths 8, 9 and 10, which covers the empty and one-row stacks
    kept = set()
    for seed in (0, 3):
        model = Model.initialize(SCICLAIM, EncoderConfig(), seed=seed)
        for n in range(1, 13):
            tokens = tuple(synth.FACTORS[(7 * seed + 3 * n + j) % len(synth.FACTORS)] for j in range(n))
            kept.add(len(assert_extract_matches_reference(tokens, model).entities))
    assert {0, 1, 2} <= kept and max(kept) >= 70


def test_relation_threshold_on_an_observed_score_keeps_the_tie():
    model = Model.initialize(SCICLAIM, EncoderConfig(), seed=3)
    tokens = tuple(synth.FACTORS[:5])
    scores = sorted({r.confidence for r in extract(tokens, None, model).relations})
    model = replace(model, theta_r=scores[len(scores) // 2])
    graph = assert_extract_matches_reference(tokens, model)
    assert any(r.confidence == model.theta_r for r in graph.relations)
    assert all(r.confidence >= model.theta_r for r in graph.relations)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    dimension=st.sampled_from((4, 16, 64)),
    words=st.lists(st.integers(0, len(synth.FACTORS) - 1), max_size=7),
    theta_r=st.floats(0.05, 0.95),
)
def test_random_dense_extractions_match_reference(seed, dimension, words, theta_r):
    model = Model.initialize(
        SCICLAIM, EncoderConfig(dimension=dimension, seed=seed), theta_r=theta_r, seed=seed
    )
    assert_extract_matches_reference(tuple(synth.FACTORS[w] for w in words), model)


def test_extract_scores_each_pair_once(monkeypatch):
    # one classify_relations call scores a block of all k(k-1) ordered pairs
    model_module = importlib.import_module("causalkg.model")
    blocks = []

    def recording_classify_relations(model, reps):
        blocks.append(reps.shape)
        return classify_relations(model, reps)

    monkeypatch.setattr(model_module, "classify_relations", recording_classify_relations)
    model = Model.initialize(SCICLAIM, EncoderConfig(), seed=3)
    graph = extract(tuple(synth.FACTORS[:6]), None, model)
    k = len(graph.entities)
    assert k == 21
    assert blocks == [(k * (k - 1), 1, model.pair_dim)]
