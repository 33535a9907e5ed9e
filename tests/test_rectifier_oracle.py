"""The one-scan rectifier against the original re-scanning loop: both must
return the same graph and the same removal log, record for record."""

import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import causalkg.rectify as rectify_module
import synth
from causalkg.encoder import EncoderConfig
from causalkg.graphs import Span, assemble_graph
from causalkg.model import Model, extract
from causalkg.rectify import rectify
from causalkg.schema import check_constraints, load_schema
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


def relations_scaled(graph, factor):
    """The graph with every relation confidence multiplied by factor."""
    return assemble_graph(
        graph.tokens, graph.lemmas,
        [(e.id, e.span, e.entity_type, e.confidence) for e in graph.entities],
        [(e.id, attr, conf) for e in graph.entities for attr, conf in e.attributes],
        [(r.head, r.tail, r.relation_type, r.confidence * factor) for r in graph.relations],
        provenance=graph.provenance,
    )


def relations_removed_before_an_endpoint(log):
    """Relations removed on their own, then cascaded past when an endpoint entity goes."""
    removed_entities = {rec.element_id: i for i, rec in enumerate(log) if rec.kind == "entity"}
    return [
        rec.element_id
        for i, rec in enumerate(log)
        if rec.kind == "relation" and not rec.cascade
        and any(removed_entities.get(end, -1) > i for end in re.split("->|:", rec.element_id)[:2])
    ]


def test_longer_untrained_extractions_match_reference():
    # 7-8 tokens keep 28-36 spans: 5-9k relations, nearly all removed by cascade.
    # With relation confidences scaled below the entities', some relations are
    # removed on their own before an endpoint entity is.
    model = Model.initialize(SCICLAIM, EncoderConfig(dimension=64, seed=0, context_window=1), seed=16)
    explicit_first = []
    for length in (7, 8):
        tokens = tuple(synth.FACTORS[(17 + length * k) % len(synth.FACTORS)] for k in range(length))
        graph = extract(tokens, tokens, model, provenance=f"d{length}")
        assert len(graph.relations) > 5000
        assert_matches_reference(graph)
        scaled = relations_scaled(graph, 0.35)
        assert_matches_reference(scaled)
        explicit_first += relations_removed_before_an_endpoint(rectify(scaled, SCICLAIM)[1])
    assert len(explicit_first) >= 10


def test_a_relation_removed_before_its_entity_is_not_cascaded_again():
    graph = assemble_graph(
        ["a", "b"], None,
        [("e0", Span(0, 1), "factor", 0.2), ("e1", Span(1, 2), "factor", 0.95)],
        attributes=[("e0", "causation", 0.9)],  # causation only decorates associations
        relations=[("e0", "e1", "q+", 0.1), ("e0", "e1", "q-", 0.15)],  # exclusive pair
    )
    fixed, log = rectify(graph, SCICLAIM)
    assert [(rec.element_id, rec.violation_kind, rec.cascade) for rec in log] == [
        ("e0->e1:q+", "ExclusiveRelations", False),
        ("e0", "AttributeDomain", False),
        ("e0#causation", "AttributeDomain", True),
        ("e0->e1:q-", "AttributeDomain", True),
    ]
    assert [e.id for e in fixed.entities] == ["e1"] and fixed.relations == ()
    assert_matches_reference(graph)


def test_rectify_scans_the_constraints_once(monkeypatch):
    calls = []

    def counting_check_constraints(graph, schema):
        calls.append(graph)
        return check_constraints(graph, schema)

    monkeypatch.setattr(rectify_module, "check_constraints", counting_check_constraints)
    model = Model.initialize(SCICLAIM, EncoderConfig(dimension=64, seed=0, context_window=1), seed=16)
    tokens = tuple(synth.FACTORS[:6])
    graph = extract(tokens, tokens, model)
    _, log = rectify(graph, SCICLAIM)
    assert len(log) > 1000
    assert calls == [graph]


def test_the_rectify_module_is_patchable_by_dotted_path(monkeypatch):
    # the package does not re-export the function under its module's name
    graph = synth.separator_id_graphs()["hash_in_id"]
    assert rectify(graph, SCICLAIM)[1]
    monkeypatch.setattr("causalkg.rectify.check_constraints", lambda graph, schema: [])
    assert rectify(graph, SCICLAIM) == (graph, [])


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
