"""The rank-based rectifier against the reference rectifiers: the original
re-scanning loop and the sorted-violation walk must return the same graph
and the same removal log, record for record, and check_constraints the same
violations as the reference checker."""

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
from causalkg.schema import Schema, check_constraints, load_schema
from rectify_reference import reference_check_constraints, reference_rectify, sorted_violation_rectify

SCICLAIM = load_schema("sciclaim")


def assert_matches_sorted_violations(graph, schema=SCICLAIM):
    assert check_constraints(graph, schema) == reference_check_constraints(graph, schema)
    fixed, log = rectify(graph, schema)
    ref_fixed, ref_log = sorted_violation_rectify(graph, schema)
    assert fixed == ref_fixed
    assert log == ref_log
    assert repr(log) == repr(ref_log)


def assert_matches_reference(graph):
    assert_matches_sorted_violations(graph)
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
    scan = rectify_module.check_constraints

    def counting_check_constraints(graph, schema):
        calls.append(graph)
        return scan(graph, schema)

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
    scan = rectify_module.check_constraints
    monkeypatch.setattr("causalkg.rectify.check_constraints", lambda graph, schema: scan(graph, schema)[:0])
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


# Parts that hold every character the id codec escapes, so rendered ids can
# sort apart from raw ones: "a" < "~" raw, but "\~" < "a" rendered.
ESCAPED_PARTS = st.text(alphabet="a\\>:#/~", min_size=1, max_size=3)
# Exact ties everywhere, 0.0 against -0.0 among them.
TIED_CONFIDENCES = st.sampled_from((0.0, -0.0, 0.5, 1.0))
ESCAPED_SCHEMA = Schema(
    name="escaped",
    entity_types=("a", "b"),
    attribute_types=("x#", "y/", "z:", "~w"),
    relation_types=("r>", "s\\", "t"),
    attribute_domains={"x#": frozenset({"a"}), "y/": frozenset({"b"})},
    relation_signatures={"r>": (frozenset({"a"}), frozenset({"b"})), "s\\": (frozenset({"b"}), frozenset({"b"}))},
    exclusive_attribute_pairs=frozenset({frozenset({"z:", "~w"}), frozenset({"x#", "y/"})}),
    exclusive_relation_pairs=frozenset({frozenset({"r>", "t"})}),
)


@st.composite
def escaped_id_graphs(draw):
    ids = draw(st.lists(ESCAPED_PARTS, min_size=2, max_size=6, unique=True))
    entities = [
        (eid, Span(i, i + 1), draw(st.sampled_from(ESCAPED_SCHEMA.entity_types)), draw(TIED_CONFIDENCES))
        for i, eid in enumerate(ids)
    ]
    attributes = [
        (eid, attr, draw(TIED_CONFIDENCES))
        for eid in ids
        for attr in draw(st.lists(st.sampled_from(ESCAPED_SCHEMA.attribute_types), max_size=3, unique=True))
    ]
    triples = draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(ids), st.sampled_from(ESCAPED_SCHEMA.relation_types)),
        max_size=14, unique=True,
    ))
    relations = [(h, t, rel, draw(TIED_CONFIDENCES)) for h, t, rel in triples if h != t]
    return assemble_graph([f"t{i}" for i in range(len(ids))], None, entities, attributes, relations)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(escaped_id_graphs())
def test_tied_escaped_id_graphs_match_sorted_violations(graph):
    assert_matches_sorted_violations(graph, ESCAPED_SCHEMA)
