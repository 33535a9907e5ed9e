"""The one-scan rectifier against the original re-scanning loop: both must
return the same graph and the same removal log, record for record."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import synth
from causalkg.encoder import EncoderConfig
from causalkg.graphs import Span, assemble_graph
from causalkg.model import Model, extract
from causalkg.rectify import rectify
from causalkg.schema import load_schema
from rectify_reference import reference_rectify

SCICLAIM = load_schema("sciclaim")


def assert_matches_reference(graph):
    fixed, log = rectify(graph, SCICLAIM)
    ref_fixed, ref_log = reference_rectify(graph, SCICLAIM)
    assert fixed == ref_fixed
    assert log == ref_log


def test_criterion_4_graphs_match_reference():
    # the same draws as criterion 4, which takes a gold graph after every fifth
    rng = np.random.default_rng(404)
    for i in range(500):
        assert_matches_reference(synth.random_sciclaim_graph(rng, provenance=f"a{i}"))
        if i % 5 == 0:
            synth.random_sciclaim_graph(rng, provenance=f"a{i}")


def test_untrained_extractions_match_reference():
    # an untrained model keeps most spans, so these graphs hold hundreds to
    # thousands of relations and removals cascade widely
    model = Model.initialize(SCICLAIM, EncoderConfig(dimension=64, seed=0, context_window=1), seed=16)
    for length in (4, 5, 6):
        for offset in (0, 17):
            tokens = tuple(synth.FACTORS[offset + length * k] for k in range(length))
            graph = extract(tokens, tokens, model, provenance=f"d{length}_{offset}")
            assert len(graph.relations) > 100
            assert_matches_reference(graph)


# Confidences from a small set make ties between participants common, so the
# kind order and the id tie-breaks decide the outcome.
CONFIDENCES = st.sampled_from((0.25, 0.5, 0.75))


@st.composite
def tied_sciclaim_graphs(draw):
    n = draw(st.integers(2, 6))
    entities = [
        (f"e{i}", Span(i, i + 1), draw(st.sampled_from(synth.SCICLAIM_ENTITY_TYPES)), draw(CONFIDENCES))
        for i in range(n)
    ]
    attributes = [
        (f"e{i}", attr, draw(CONFIDENCES))
        for i in range(n)
        for attr in draw(st.lists(st.sampled_from(synth.SCICLAIM_ATTR_TYPES), max_size=3, unique=True))
    ]
    triples = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(synth.SCICLAIM_REL_TYPES)),
        max_size=12, unique=True,
    ))
    relations = [(f"e{h}", f"e{t}", rel, draw(CONFIDENCES)) for h, t, rel in triples if h != t]
    return assemble_graph([f"t{i}" for i in range(n)], None, entities, attributes, relations)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tied_sciclaim_graphs())
def test_tied_confidence_graphs_match_reference(graph):
    assert_matches_reference(graph)
