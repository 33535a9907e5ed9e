"""graph_to_json against the stdlib indenting encoder kept as the oracle:
the text of a graph, and of a graph with `rectify`'s log appended as
"rectification", must be identical byte for byte.  A graph holds only
values the two write alike, and a log holds `RemovalRecord`s, whose dict
form the oracle writes."""

import gc
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth
from causalkg.encoder import EncoderConfig, encode_tokens
from causalkg.errors import BadConfidenceError, GraphError
from causalkg.graphs import (
    Entity,
    KnowledgeGraph,
    Relations,
    Span,
    _float_texts,
    assemble_graph,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
)
from causalkg.model import Model, extract
from causalkg.rectify import RemovalRecord, rectify
from causalkg.schema import load_schema
from causalkg.senses import link_senses, load_inventory
from causalkg.training import TrainConfig, train

SCICLAIM = load_schema("sciclaim")


def oracle(graph, log=None):
    doc = graph_to_dict(graph)
    if log is not None:
        doc["rectification"] = [rec.to_dict() for rec in log]
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def assert_identical(graph, log=None):
    assert graph_to_json(graph, log) == oracle(graph, log)


def inventory_for(encoder, vocabulary, rng):
    lines = []
    for i, token in enumerate(vocabulary):
        vector = rng.standard_normal(encoder.dimension) * 0.3
        lines.append(f"{token}.n.0{i % 3}\t{token}\t-\t" + "\t".join(repr(float(x)) for x in vector))
    return load_inventory("\n".join(lines) + "\n")


def dense_linked_graphs():
    """For sentences of 4-6 tokens: the dense untrained extraction, its
    rectified graph with senses linked, the rectifier's log, and the raw
    extraction with senses linked."""
    model = Model.initialize(SCICLAIM, EncoderConfig(dimension=64, seed=0, context_window=1), seed=16)
    inventory = inventory_for(model.encoder, synth.FACTORS[:30], np.random.default_rng(8))
    for length in (4, 5, 6):
        tokens = tuple(synth.FACTORS[length * k] for k in range(length))
        encoding = encode_tokens(tokens, model.encoder)
        raw = extract(tokens, tokens, model, provenance=f"d{length}")
        fixed, log = rectify(raw, SCICLAIM)
        linked = link_senses(fixed, encoding, inventory, threshold=0.0)
        # rectify leaves these graphs nearly empty, so senses are linked on the raw graph too
        linked_raw = link_senses(raw, encoding, inventory, threshold=0.0)
        yield raw, linked, log, linked_raw


def test_dense_extraction_raw_and_rectified_linked():
    senses = relations = 0
    for raw, linked, log, linked_raw in dense_linked_graphs():
        assert_identical(raw)
        assert_identical(linked)
        assert_identical(linked, log)
        assert_identical(linked_raw)
        relations += len(raw.relations)
        senses += sum(len(e.senses) for e in linked_raw.entities)
    assert relations > 300 and senses


def test_trained_extraction():
    dataset = synth.build_corpus()
    encoder = EncoderConfig(dimension=64, seed=0, context_window=1)
    model = train(dataset, SCICLAIM, TrainConfig(epochs=10, learning_rate=2.5, seed=0,
                                                 neg_entity_count=50, neg_relation_count=20),
                  encoder_config=encoder)
    elements = 0
    for ex in dataset:
        graph = extract(ex.tokens, ex.lemmas, model, provenance=ex.provenance)
        assert_identical(graph)
        elements += len(graph.relations) + sum(len(e.attributes) for e in graph.entities)
    assert elements


def test_criterion_4_graphs():
    # the graphs and rectified graphs of criterion 4 (same seed and count)
    rng = np.random.default_rng(404)
    for i in range(500):
        g = synth.random_sciclaim_graph(rng, provenance=f"a{i}")
        fixed, log = rectify(g, SCICLAIM)
        assert_identical(g)
        assert_identical(fixed, log)


def test_empty_graph_and_empty_extras():
    empty = assemble_graph([], None, [])
    assert graph_to_json(empty) == oracle(empty)
    assert '"tokens": []' in graph_to_json(empty)
    assert_identical(empty, [])


# Two entities, and relation columns of rows e->f built by hand.
E_F = (Entity("e", Span(0, 1), "t", 0.5), Entity("f", Span(1, 2), "t", 0.5))


def e_to_f(types, code, confidence):
    """Raw columns of rows e->f, row j of type types[code[j]] and confidence confidence[j]."""
    return Relations(("e", "f"), types, [0] * len(code), [1] * len(code), code, confidence)


def by_hand(e=E_F[0], relations=(), tokens=("x", "y")):
    return KnowledgeGraph(tokens, tokens, (e, E_F[1]), relations)


def with_confidences(value):
    """Per element kind, a construction whose one confidence of that kind is `value`."""
    return {
        "entity": lambda: by_hand(Entity("e", Span(0, 1), "t", value)),
        "attribute": lambda: by_hand(Entity("e", Span(0, 1), "t", 0.5, attributes=(("a", value),))),
        "sense": lambda: by_hand(Entity("e", Span(0, 1), "t", 0.5, senses=(("s", value),))),
        "relation": lambda: by_hand(relations=e_to_f(("q",), [0], [value])),
        "assembled relation": lambda: assemble_graph(["x", "y"], None, [("e", Span(0, 1), "t", 0.5),
                                                                       ("f", Span(1, 2), "t", 0.5)],
                                                     relations=[("e", "f", "q", value)]),
    }


# Confidences that are not real numbers.  Each raised a bare TypeError or
# ValueError, or loaded as a float ("0.5" and True); an int no float holds
# raised a bare OverflowError.
NOT_NUMBERS = [True, False, "0.5", "x", None, [0.5], (0.5,), {}]
CONFIDENCE_LABELS = {
    "entity": ("entity 'e' confidence", BadConfidenceError),
    "attribute": ("attribute 'a' confidence", BadConfidenceError),
    "sense": ("sense 's' on 'e' confidence", GraphError),
    "relation": ("relation 'q' confidence", BadConfidenceError),
    "assembled relation": ("relation 'q' confidence", BadConfidenceError),
}


# Each value the stdlib would write as no assembled graph holds it (false,
# NaN, Infinity, a list or a number for a string) or refuse with TypeError
# (a frozenset): a graph holding it cannot be built.
@pytest.mark.parametrize("make, error, message", [
    (lambda: Span(False, True), GraphError, "span bound False is not an integer"),
    (lambda: by_hand(Entity("e", Span(0, 1), "t", math.nan)), BadConfidenceError, "entity 'e' confidence nan"),
    (lambda: by_hand(Entity("e", Span(0, 1), "t", 0.5, attributes=(("a", math.inf),))), BadConfidenceError,
     "attribute 'a' confidence inf"),
    (lambda: by_hand(Entity("e", Span(0, 1), "t", 0.5, senses=(("s", -math.inf),))), GraphError,
     "sense 's' on 'e' has confidence -inf"),
    (lambda: by_hand(relations=e_to_f(("q", "r"), [0, 1], [0.5, math.inf])), BadConfidenceError,
     "relation 'r' confidence inf"),
    (lambda: by_hand(relations=e_to_f(("q", "r"), [0, 1], [0.5, -math.inf])), BadConfidenceError,
     "relation 'r' confidence -inf"),
    (lambda: by_hand(relations=e_to_f(("q", "r"), [0, 1], [0.5, math.nan])), BadConfidenceError,
     "relation 'r' confidence nan"),
    *((with_confidences(value)[kind], error, f"{label} {value!r} is not a number")
      for value in NOT_NUMBERS for kind, (label, error) in CONFIDENCE_LABELS.items()),
    *((with_confidences(10**400)[kind], error, f"{label} is an integer of 1329 bits, beyond a float")
      for kind, (label, error) in CONFIDENCE_LABELS.items()),
    (lambda: by_hand(Entity(5, Span(0, 1), "t", 0.5)), GraphError, "entity id 5 is not a string"),
    (lambda: by_hand(Entity(frozenset(), Span(0, 1), "t", 0.5)), GraphError, "entity id frozenset() is not a string"),
    (lambda: by_hand(tokens=(None, "y")), GraphError, "token None is not a string"),
    (lambda: by_hand(Entity("e", (0, 1), "t", 0.5)), GraphError, "entity 'e' span (0, 1) is not a Span"),
    (lambda: assemble_graph(["x", "y"], None, [("e", (0, 1), "t", 0.5)]), GraphError,
     "entity 'e' span (0, 1) is not a Span"),
    (lambda: assemble_graph(["x", "y"], "xy", []), GraphError, "lemmas 'xy' are a string, not a sequence of strings"),
    (lambda: assemble_graph("xy", None, []), GraphError, "tokens 'xy' are a string, not a sequence of strings"),
    (lambda: KnowledgeGraph("xy", "xy", (), ()), GraphError, "tokens 'xy' are a string, not a sequence of strings"),
    (lambda: KnowledgeGraph(("x", "y"), "xy", (), ()), GraphError,
     "lemmas 'xy' are a string, not a sequence of strings"),
])
def test_construction_refuses_values_no_assembled_graph_holds(make, error, message):
    with pytest.raises(error, match=re.escape(message)):
        make()


@pytest.mark.parametrize("make", [
    lambda: assemble_graph(["a", "b"], None, [("e", Span(np.int64(0), np.int64(1)), "t", 1.0)]),
    lambda: assemble_graph(["a", "b"], None, [("e", Span(0, np.int64(2)), "t", 1.0)]),
    lambda: by_hand(Entity("e", Span(0, 1), "t", 1, senses=(("s", np.int32(1)), ("r", 1)))),
    lambda: by_hand(relations=e_to_f(("q", "r", "s", "u"), [0, 1, 2, 3], [np.float64(0.25), 1, np.int64(1), -0.0])),
])
def test_numpy_and_int_numbers_are_stored_as_python_numbers(make):
    # these raised TypeError in graph_to_json or reached it as ints
    graph = make()
    numbers = list(graph.relations.confidence)
    for e in graph.entities:
        numbers += [e.confidence, *(c for _, c in e.attributes + e.senses)]
        assert type(e.span.start) is int and type(e.span.end) is int
    assert {type(x) for x in numbers} == {float}
    assert_identical(graph)


def test_extras_leave_no_cyclic_garbage():
    # a command runs with the collector paused, so a writer that left a
    # reference cycle per graph would hold memory that grows with the corpus
    g = by_hand(relations=e_to_f(("q",), [0], [0.5]))
    log = [RemovalRecord("e->f:q", "relation", 0.5, "RelationSignature"),
           RemovalRecord("e#a", "attribute", 0.25, "AttributeDomain", cascade=True)]
    graph_to_json(g, log)
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            graph_to_json(g, log)
        assert gc.collect() == 0
    finally:
        gc.enable()


TRICKY = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "\u2029",
          "\ud800", "\udfff", "\U0001f600", "\U00010348", "\u00e9", "/", "-", ">", "#"]
TEXT = st.text(st.sampled_from(TRICKY) | st.characters(blacklist_categories=()), max_size=5)
EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e-07, 0.1, 1 / 3, 1.0]
CONFIDENCE = st.sampled_from(EDGE_FLOATS) | st.floats(0.0, 1.0)
SENSE_CONFIDENCE = (
    st.sampled_from(EDGE_FLOATS + [1e16, -1e16, 1.7976931348623157e308])
    | st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 5))
    tokens = draw(st.lists(TEXT, min_size=n, max_size=n))
    lemmas = draw(st.none() | st.lists(TEXT, min_size=n, max_size=n))
    all_spans = [Span(s, e) for s in range(n) for e in range(s + 1, n + 1)]
    spans = draw(st.lists(st.sampled_from(all_spans), unique=True, max_size=5)) if all_spans else []
    ids = draw(st.lists(TEXT, min_size=len(spans), max_size=len(spans), unique=True))
    entities = [(i, span, draw(TEXT), draw(CONFIDENCE)) for i, span in zip(ids, spans)]
    attributes = [(i, t, draw(CONFIDENCE)) for i in ids for t in draw(st.lists(TEXT, unique=True, max_size=2))]
    senses = [(i, s, draw(SENSE_CONFIDENCE)) for i in ids for s in draw(st.lists(TEXT, max_size=2))]
    pairs = [(h, t) for h in ids for t in ids if h != t]
    triples = draw(st.lists(st.tuples(st.sampled_from(pairs), TEXT), unique=True, max_size=8)) if pairs else []
    relations = [(h, t, rel_type, draw(CONFIDENCE)) for (h, t), rel_type in triples]
    return assemble_graph(tokens, lemmas, entities, attributes, relations,
                          provenance=draw(TEXT), senses=senses)


def test_random_graphs_match_the_stdlib_and_round_trip():
    chars, numbers, parts = set(), set(), set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(graphs())
    def check(graph):
        text = graph_to_json(graph)
        assert text == oracle(graph)
        assert graph_from_json(text) == graph
        # what the drawn graphs hold, to check below that they reach the hard cases
        strings = [*graph.tokens, *graph.lemmas, graph.provenance]
        for e in graph.entities:
            strings += [e.id, e.entity_type, *(t for t, _ in e.attributes), *(s for s, _ in e.senses)]
        strings += [r.relation_type for r in graph.relations]
        chars.update(c for c in TRICKY if any(c in s for s in strings))
        numbers.update(x for x in ("-0.0", "5e-324", "1e-07", "1e+16") if x in text)
        parts.update(["relation"] if graph.relations else [])
        parts.update(["sense"] if any(e.senses for e in graph.entities) else [])

    check()
    assert {'"', "\\", "\x00", "\x1f", "\u2028", "\ud800", "\U0001f600"} <= chars
    assert numbers == {"-0.0", "5e-324", "1e-07", "1e+16"}
    assert parts == {"relation", "sense"}


# any finite float, as for a sense: the writer takes a record's confidence as it is
RECORD = st.builds(RemovalRecord, TEXT, TEXT, SENSE_CONFIDENCE, TEXT, st.booleans())


def test_random_logs_match_the_stdlib():
    chars, numbers, cascades = set(), set(), set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(graphs(), st.lists(RECORD, max_size=4))
    def check(graph, log):
        text = graph_to_json(graph, log)
        assert text == oracle(graph, log)
        # what the drawn logs hold, to check below that they reach the hard cases
        strings = [s for rec in log for s in (rec.element_id, rec.kind, rec.violation_kind)]
        chars.update(c for c in TRICKY if any(c in s for s in strings))
        numbers.update({"-0.0", "5e-324", "1e-07", "1e+16"} & {repr(rec.confidence) for rec in log})
        cascades.update(rec.cascade for rec in log)

    check()
    assert {'"', "\\", "\x00", "\x1f", "\u2028", "\ud800", "\U0001f600"} <= chars
    assert numbers == {"-0.0", "5e-324", "1e-07", "1e+16"}
    assert cascades == {False, True}


@pytest.mark.parametrize("field", ["element_id", "kind", "violation_kind"])
def test_each_string_of_a_record_is_escaped_as_the_stdlib_escapes_it(field):
    # every tricky character in one field and plain text in the others, so
    # a field written unquoted, or by another escaper, shows on its own
    rec = RemovalRecord("e", "entity", 0.5, "EntityType")._replace(**{field: "".join(TRICKY)})
    assert_identical(by_hand(), [rec])
    assert json.loads(graph_to_json(by_hand(), [rec]))["rectification"] == [rec.to_dict()]


@pytest.mark.parametrize("confidence", EDGE_FLOATS + [1e16, -1e16, 1.7976931348623157e308])
def test_a_record_confidence_is_written_as_the_stdlib_writes_it(confidence):
    log = [RemovalRecord("e", "entity", confidence, "EntityType", cascade) for cascade in (False, True)]
    assert_identical(by_hand(), log)
    read = json.loads(graph_to_json(by_hand(), log))["rectification"]
    assert [(repr(r["confidence"]), r["cascade"]) for r in read] == [(repr(confidence), False), (repr(confidence), True)]


# -- floats are written through one orjson call a column, as repr writes them --

# Where orjson's layout meets repr's and where it leaves it: 1e-4 and its
# neighbours, the last float below 1e16 and 1e16, and values between 1e-5
# and 1e-4 or between 1e16 and 1e17, which a range widened to either fails.
RANGE_EDGES = [
    1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0), 1e-5, 5.5e-5,
    9999999999999998.0, 1e16, math.nextafter(1e16, math.inf), 5.5e16,
    5e-324, 2.2250738585072014e-308, 0.0, -0.0, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan,
    *(2.0 ** k for k in range(-13, 54)),
]


@pytest.mark.parametrize("x", RANGE_EDGES + [-x for x in RANGE_EDGES], ids=repr)
def test_a_float_is_written_as_repr_writes_it(x):
    # among in-range values, which a column check that only looks at the
    # ends of the range must not wave through, and in a column of its own
    assert _float_texts([0.5, x, 0.25, 0.125]) == ["0.5", repr(x), "0.25", "0.125"]
    assert _float_texts([x, x, x]) == [repr(x)] * 3


def test_short_columns_are_written_as_repr_writes_them():
    assert _float_texts([]) == []
    assert _float_texts([1e-05, 0.5]) == ["1e-05", "0.5"]


def test_random_float_columns_are_written_as_repr_writes_them():
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(RANGE_EDGES) | st.floats(), max_size=8))
    def check(xs):
        assert _float_texts(xs) == list(map(repr, xs))

    check()


def test_confidences_either_side_of_1e_4_are_written_as_the_stdlib_writes_them():
    # each column of confidences straddles the lower end of orjson's range
    low, edge, high = math.nextafter(1e-4, 0.0), 1e-4, 1.5e-4
    graph = assemble_graph(
        ["x", "y", "z"], None,
        [("e", Span(0, 1), "t", low), ("f", Span(1, 2), "t", edge), ("g", Span(2, 3), "t", 0.5)],
        attributes=[("e", "a", edge), ("f", "a", low), ("g", "a", 5e-324)],
        relations=[("e", "f", "q", high), ("f", "g", "q", low), ("g", "e", "q", 0.0)],
        senses=[("e", "s", 1e-5), ("f", "s", high), ("g", "s", 1.0)],
    )
    log = [RemovalRecord(e, "entity", c, "EntityType") for e, c in (("e", low), ("f", high), ("g", 1e16))]
    assert_identical(graph)
    assert_identical(graph, log)
    text = graph_to_json(graph, log)
    assert all(f'"confidence": {x!r}' in text for x in (low, edge, high, 1e-5, 5e-324, 1e16))
