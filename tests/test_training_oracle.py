"""Training and extraction against the per-pair reference loops: losses,
gradients, trained parameters and extracted graphs must be bit-identical."""

import importlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synth
from causalkg.encoder import EncoderConfig
from causalkg.graphs import Span, graph_to_json
from causalkg.model import PARAM_GROUPS, Model, classify_relations, enumerate_spans, extract
from causalkg.schema import load_schema
from causalkg.training import (
    Example,
    Negatives,
    TrainConfig,
    example_loss,
    example_loss_and_grads,
    sample_negatives,
    train,
)
from training_reference import (
    reference_extract,
    reference_loss_and_grads,
    reference_train,
)

SCICLAIM = load_schema("sciclaim")
CRITERION_3_ENCODER = EncoderConfig(dimension=64, seed=0, context_window=1)


def assert_matches_reference(model, ex, negatives):
    loss, grads = example_loss_and_grads(model, ex, negatives)
    ref_loss, ref_grads = reference_loss_and_grads(model, ex, negatives)
    assert loss == ref_loss
    assert example_loss(model, ex, negatives) == ref_loss
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
        assert_matches_reference(untrained, ex, negatives)
        assert_matches_reference(trained, ex, negatives)


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
    model = Model.initialize(
        SCICLAIM, EncoderConfig(dimension=8, seed=seed, context_window=1),
        max_span_len=3, width_dim=2, seed=seed,
    )
    assert_matches_reference(model, ex, negatives)


def test_train_parameters_match_reference_update():
    dataset = synth.build_corpus()[::3]
    for batch_size in (1, 4):
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
    model.theta_r = scores[len(scores) // 2]
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
