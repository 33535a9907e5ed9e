"""The relation store: a graph keeps its relations as columns and reads them
as a tuple of Relations only when asked."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth
from causalkg.encoder import EncoderConfig, encode_tokens
from causalkg.errors import (
    BadConfidenceError,
    DanglingReferenceError,
    DuplicateSpanTypeError,
    GraphError,
    SelfLoopError,
)
from causalkg.graphs import (
    Entity,
    KnowledgeGraph,
    Relation,
    Relations,
    Span,
    _GraphBuilder,
    assemble_columns,
    assemble_graph,
    graph_from_dict,
    graph_to_dict,
    graph_to_json,
    merge_corpus,
    subgraph,
    with_senses,
)
from causalkg.dot import emit_dot
from causalkg.evaluation import score
from causalkg.model import Model, extract
from causalkg.reasoning import NodePattern, compute_valence, find_paths
from causalkg.rectify import rectify
from causalkg.schema import load_schema
from causalkg.senses import link_senses, load_inventory

SCICLAIM = load_schema("sciclaim")
TYPES = ("q+", "q-", "arg0")


def columns(*rows):
    """head, tail, code and confidence arrays of (head, tail, code, confidence) rows."""
    head, tail, code, conf = zip(*rows) if rows else ((), (), (), ())
    ints = [np.array(c, dtype=np.intp) for c in (head, tail, code)]
    return (*ints, np.array(conf, dtype=float))


def bulk(*rows, lemmas=None):
    entities = [("a", Span(0, 1), "factor", 0.9), ("b", Span(1, 2), "factor", 0.8), ("c", Span(2, 3), "factor", 0.7)]
    return assemble_columns(
        ["x", "y", "z"], lemmas, entities, [("b", "sign+", 0.6)], TYPES, *columns(*rows), provenance="p"
    )


def test_bulk_graphs_equal_hash_and_repr_like_round_trips_and_hand_built_graphs():
    g = bulk((0, 1, 0, 0.5), (0, 2, 2, 0.25), (2, 1, 1, 1.0))
    loaded = graph_from_dict(json.loads(json.dumps(graph_to_dict(g))))
    by_hand = KnowledgeGraph(
        g.tokens, g.lemmas, g.entities,
        (Relation("a", "b", "q+", 0.5), Relation("a", "c", "arg0", 0.25), Relation("c", "b", "q-", 1.0)),
        provenance="p",
    )
    for other in (loaded, by_hand):
        assert other == g and g == other
        assert hash(other) == hash(g)
        assert repr(other) == repr(g)
        assert graph_to_json(other) == graph_to_json(g)
    # the loader numbers types as they come, the bulk path by the table given
    assert loaded.relations.types != g.relations.types
    assert g.relations == by_hand.relations.rows and by_hand.relations.rows == g.relations
    assert g != bulk((0, 1, 0, 0.5), (0, 2, 2, 0.25), (2, 1, 1, 0.75))
    assert bulk() == KnowledgeGraph(g.tokens, g.lemmas, g.entities, (), provenance="p")
    assert bulk().relations == ()


def test_len_reads_the_columns():
    g = bulk((0, 1, 0, 0.5), (1, 0, 0, 0.5))
    assert len(g.relations) == 2 and g.relations._rows is None
    assert [r.id for r in g.relations] == ["a->b:q+", "b->a:q+"]
    assert g.relations[1] == Relation("b", "a", "q+", 0.5)


@pytest.mark.parametrize("rows, error, message", [
    ([(0, 0, 0, 0.5)], SelfLoopError, "self-loop on 'a' via 'q+'"),
    ([(0, 3, 0, 0.5)], DanglingReferenceError, "unknown entity index 3"),
    ([(-1, 1, 0, 0.5)], DanglingReferenceError, "unknown entity index -1"),
    ([(0, 1, 3, 0.5)], GraphError, "relation type code"),
    ([(0, 1, 0, 0.5), (1, 2, 0, 0.5), (0, 1, 0, 0.25)], GraphError, "duplicate relation ('a', 'b', 'q+')"),
    ([(0, 1, 0, 1.5)], BadConfidenceError, "relation 'q+' confidence 1.5"),
    ([(0, 1, 0, np.nan)], BadConfidenceError, "relation 'q+' confidence nan"),
])
def test_bulk_path_checks_relations_as_arrays(rows, error, message):
    with pytest.raises(error, match=re.escape(message)):
        bulk(*rows)


@pytest.mark.parametrize("bad, error, message", [
    ((3, 3, 0, 0.5), SelfLoopError, "self-loop on 'e3' via 'q+'"),
    ((0, 10, 0, 0.5), DanglingReferenceError, "unknown entity index 10"),
    ((0, 1, 3, 0.5), GraphError, "relation type code 3"),
    ((0, 1, 0, 0.25), GraphError, "duplicate relation ('e0', 'e1', 'q+')"),
    ((9, 8, 1, -0.5), BadConfidenceError, "relation 'q-' confidence -0.5"),
    ((9, 8, 1, np.nan), BadConfidenceError, "relation 'q-' confidence nan"),
])
def test_many_rows_are_checked_as_arrays(bad, error, message):
    # 90 sound rows and a faulty last one: the arrays show that a row is
    # faulty, and the row-by-row check names it
    entities = [(f"e{i}", Span(i, i + 1), "factor", 0.5) for i in range(10)]
    rows = [(h, t, 0, 0.5) for h in range(10) for t in range(10) if h != t]
    good = assemble_columns(["x"] * 10, None, entities, [], TYPES, *columns(*rows))
    assert len(good.relations) == 90
    with pytest.raises(error, match=re.escape(message)):
        assemble_columns(["x"] * 10, None, entities, [], TYPES, *columns(*rows, bad))


def many(confidences=(0.5,), dtypes=(np.intp, float)):
    """A 10-entity graph over the 90 rows that join every two entities,
    each with the next of the confidences in turn, from columns of the dtypes."""
    entities = [(f"e{i}", Span(i, i + 1), "factor", 0.5) for i in range(10)]
    rows = [(h, t, (h + t) % 3) for h in range(10) for t in range(10) if h != t]
    head, tail, code = (np.array(c, dtype=dtypes[0]) for c in zip(*rows))
    conf = np.resize(np.array(confidences, dtype=dtypes[1]), len(rows))
    return assemble_columns(["x"] * 10, None, entities, [], TYPES, head, tail, code, conf)


def assert_arrays_match_the_lists(relations):
    arrays = relations.arrays()
    assert arrays is relations.arrays()  # made once
    assert [a.dtype for a in arrays] == [np.dtype(np.intp)] * 3 + [np.dtype(np.float64)]
    assert all(not a.flags.writeable for a in arrays)
    columns = (relations.head, relations.tail, relations.code, relations.confidence)
    assert [a.tolist() for a in arrays] == list(columns)
    assert all(type(i) is int for column in columns[:3] for i in column)
    assert all(type(c) is float for c in relations.confidence)


def test_the_array_view_equals_the_columns_however_the_graph_was_built():
    few = bulk((0, 1, 0, 0.5), (0, 2, 2, 0.25), (2, 1, 1, 1.0))
    dense = many((0.25, 0.5, 0.75))
    assert few.relations._arrays is None  # few rows are checked one by one and build no arrays
    assert dense.relations._arrays is not None  # many are checked as arrays, which the graph keeps
    kept = [j % 4 != 0 for j in range(len(dense.relations))]
    graphs = [
        few, dense, bulk(),
        graph_from_dict(graph_to_dict(dense)),
        subgraph(dense, [i != 3 for i in range(10)], [], kept),
        replace(dense, provenance="other"),
        replace(few, entities=few.entities[:2], relations=few.relations[:1]),
    ]
    for g in graphs[3:]:
        assert g.relations._arrays is None  # derived and loaded graphs make arrays only when asked
    for g in graphs:
        assert_arrays_match_the_lists(g.relations)


def test_the_array_view_is_a_copy_of_the_callers_arrays():
    entities = [(f"e{i}", Span(i, i + 1), "factor", 0.5) for i in range(10)]
    rows = [(h, t, 0, 0.5) for h in range(10) for t in range(10) if h != t]
    head, tail, code, conf = columns(*rows)
    g = assemble_columns(["x"] * 10, None, entities, [], TYPES, head, tail, code, conf)
    view = [a.copy() for a in g.relations.arrays()]
    for array in (head, tail, code, conf):
        assert array.flags.writeable
        assert not any(np.shares_memory(array, a) for a in g.relations.arrays())
        array[:] = 1
    assert all(np.array_equal(a, b) for a, b in zip(g.relations.arrays(), view))
    assert_arrays_match_the_lists(g.relations)


@pytest.mark.parametrize("dtypes", [(np.int32, np.float32), (np.uint16, np.int64), (np.int64, np.float16)])
def test_many_rows_of_other_numeric_dtypes_are_stored_as_few_rows_are(dtypes):
    # the array path stored an int confidence column as ints, where the
    # row path stores floats
    g = many((0.0, 1.0) if dtypes[1] == np.int64 else (0.5, 0.25), dtypes)
    assert g.relations._arrays is not None
    assert_arrays_match_the_lists(g.relations)
    assert graph_to_json(g) == json.dumps(graph_to_dict(g), indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("dtype", [float, bool])
def test_many_rows_with_float_or_bool_indexes_are_refused_as_few_are(dtype):
    # the array path stored float entity indexes, which the rows then
    # could not index with
    def few():
        entities = [("a", Span(0, 1), "factor", 0.5), ("b", Span(1, 2), "factor", 0.5)]
        head, tail, code = (np.array([i], dtype=dtype) for i in (0, 1, 0))
        return assemble_columns(["x", "y"], None, entities, [], TYPES, head, tail, code, np.array([0.5]))

    for build in (few, lambda: many(dtypes=(dtype, float))):
        with pytest.raises(DanglingReferenceError, match="relation references unknown entity index"):
            build()


def test_relation_confidences_are_written_as_json_dumps_writes_them():
    confidences = (5e-324, 1e-05, 0.1 + 0.2, 0.0, 1.0)
    few = bulk(*[(0, 1 + j % 2, j // 2, c) for j, c in enumerate(confidences)])
    for g in (few, many(confidences)):
        assert set(g.relations.confidence) == set(confidences)
        assert graph_to_json(g) == json.dumps(graph_to_dict(g), indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("types", [("q+", "q+", "arg0"), ("q+", "arg0", "q+")])
def test_bulk_path_rejects_a_repeated_type_name(types):
    # a repeated name used to collapse the table: code 1 of ("q+", "q+",
    # "arg0") was written as "arg0"
    entities = [("a", Span(0, 1), "factor", 0.9), ("b", Span(1, 2), "factor", 0.8)]
    with pytest.raises(GraphError, match=re.escape("relation type 'q+' is named more than once")):
        assemble_columns(["x", "y"], None, entities, [], types, *columns((0, 1, 1, 0.5)))


def test_bulk_path_checks_the_lemma_count():
    with pytest.raises(GraphError, match="2 lemmas for 3 tokens"):
        bulk((0, 1, 0, 0.5), lemmas=["x", "y"])


@pytest.mark.parametrize("confidence, error", [
    (np.float64(0.25), None), (1, None), ([0.5], BadConfidenceError), (np.int64(1), None),
])
def test_hand_built_confidences_are_checked_like_assemble_graph(confidence, error):
    entities = (Entity("e", Span(0, 1), "t", 0.5), Entity("f", Span(1, 2), "t", 0.5))

    def by_hand():
        return KnowledgeGraph(("a", "b"), ("a", "b"), entities, (Relation("e", "f", "q", confidence),))

    def assembled():
        ents = [(e.id, e.span, e.entity_type, e.confidence) for e in entities]
        return assemble_graph(["a", "b"], None, ents, relations=[("e", "f", "q", confidence)])

    if error:
        for build in (by_hand, assembled):
            with pytest.raises(error):
                build()
        return
    g = by_hand()
    assert g == assembled() and type(g.relations.confidence[0]) is float
    assert graph_to_json(g) == json.dumps(graph_to_dict(g), indent=2, ensure_ascii=False) + "\n"


def test_relations_over_other_entities_are_renumbered():
    g = bulk((1, 2, 0, 0.5), (2, 1, 1, 0.5))
    fewer = KnowledgeGraph(g.tokens, g.lemmas, g.entities[1:], g.relations, "p")
    assert fewer.relations.ids == ("b", "c") and fewer.relations.head == [0, 1]
    assert fewer.relations == g.relations
    # columns over the graph's own ids are checked too, into equal columns
    same = KnowledgeGraph(g.tokens, g.lemmas, g.entities, g.relations, "q")
    assert same.relations == g.relations and same.relations.types == g.relations.types
    # a relation that names a dropped entity has no place in the graph
    touching = bulk((1, 2, 0, 0.5), (2, 0, 1, 0.5))
    with pytest.raises(DanglingReferenceError, match=re.escape("relation references unknown entity 'a'")):
        replace(touching, entities=touching.entities[1:])


ABC = [("a", Span(0, 1), "factor", 0.9), ("b", Span(1, 2), "factor", 0.8), ("c", Span(2, 3), "factor", 0.7)]


def with_b(*fields):
    """ABC with entity b's fields after its id: (span, type, confidence[, attributes[, senses]])."""
    return [ABC[0], ("b", *fields), ABC[2]]


# Entities are (id, span, type, confidence[, attributes[, senses]]) tuples.
@pytest.mark.parametrize("entities, relations, error, message", [
    (ABC, [("a", "zz", "q+", 0.5)], DanglingReferenceError, "relation references unknown entity 'zz'"),
    # on such a one-entity graph score raised KeyError, compute_valence
    # KeyError (with an intent+ edge) or [], and rectify IndexError
    (ABC[:1], [("a", "zz", "intent+", 0.5)], DanglingReferenceError, "relation references unknown entity 'zz'"),
    (ABC, [("a", "a", "q+", 0.5)], SelfLoopError, "self-loop on 'a' via 'q+'"),
    (ABC, [("a", "b", "q+", 0.5), ("a", "b", "q+", 0.25)], GraphError, "duplicate relation ('a', 'b', 'q+')"),
    (ABC, [("a", "b", "q+", 1.5)], BadConfidenceError, "relation 'q+' confidence 1.5 outside [0, 1]"),
    (ABC, [("a", "b", "q+", math.nan)], BadConfidenceError, "relation 'q+' confidence nan outside [0, 1]"),
    (ABC[:2] + [("a", Span(2, 3), "factor", 0.7)], [], GraphError, "duplicate entity id 'a'"),
    (ABC[1:], [("b", "c", "q+", 0.5), ("c", "a", "q-", 0.5)], DanglingReferenceError,
     "relation references unknown entity 'a'"),
    # a replace of entities kept relation columns over the same ids and
    # skipped every check; rectify then removed nothing from such a graph
    # and score counted the entity as a true positive
    (with_b(Span(5, 9), "factor", 7.0), [("a", "b", "q+", 0.5)], GraphError, "span [5, 9) beyond 3 tokens"),
    (with_b(Span(1, 4), "factor", 0.8), [], GraphError, "span [1, 4) beyond 3 tokens"),
    (with_b(Span(1, 2), "factor", 7), [], BadConfidenceError, "entity 'b' confidence 7.0 outside [0, 1]"),
    (with_b(Span(1, 2), "factor", math.nan), [], BadConfidenceError, "entity 'b' confidence nan outside [0, 1]"),
    (with_b(Span(1, 2), "factor", 0.8, (("sign+", 7.0),)), [], BadConfidenceError,
     "attribute 'sign+' confidence 7.0 outside [0, 1]"),
    (with_b(Span(1, 2), "factor", 0.8, (("sign+", math.nan),)), [], BadConfidenceError,
     "attribute 'sign+' confidence nan outside [0, 1]"),
    (with_b(Span(1, 2), "factor", 0.8, (("sign+", 0.5), ("sign+", 0.25))), [], GraphError,
     "duplicate attribute 'sign+' on 'b'"),
    (with_b(Span(1, 2), "factor", 0.8, (), (("s.n.01", math.nan),)), [], GraphError,
     "sense 's.n.01' on 'b' has confidence nan"),
    (with_b(Span(0, 1), "factor", 0.8), [], DuplicateSpanTypeError, "entities 'a' and 'b' share span [0, 1)"),
    ([(5, Span(0, 1), "factor", 0.9)] + ABC[1:], [], GraphError, "entity id 5 is not a string"),
    (with_b(Span(1, 2), None, 0.8), [], GraphError, "entity type None is not a string"),
    (with_b(Span(1, 2), "factor", 0.8, ((1, 0.5),)), [], GraphError, "attribute type 1 is not a string"),
    (ABC, [("a", "b", None, 0.5)], GraphError, "relation type None is not a string"),
])
def test_hand_built_relations_raise_what_assemble_graph_raises(entities, relations, error, message):
    sound = assemble_graph(["x", "y", "z"], None, ABC, relations=[("a", "b", "q+", 0.5)])
    ents = tuple(Entity(*e) for e in entities)
    rels = tuple(Relation(*r) for r in relations)
    attributes = [(e[0], t, c) for e in entities if len(e) > 4 for t, c in e[4]]
    senses = [(e[0], s, c) for e in entities if len(e) > 5 for s, c in e[5]]
    for build in (
        lambda: assemble_graph(["x", "y", "z"], None, [e[:4] for e in entities], attributes, relations, senses=senses),
        lambda: KnowledgeGraph(sound.tokens, sound.lemmas, ents, rels),
        lambda: replace(sound, entities=ents, relations=rels),
    ):
        with pytest.raises(error, match=re.escape(message)):
            build()


def test_hand_built_relations_check_the_lemma_count():
    with pytest.raises(GraphError, match="2 lemmas for 3 tokens"):
        KnowledgeGraph(("x", "y", "z"), ("x", "y"), tuple(Entity(*e) for e in ABC), ())
    sound = assemble_graph(["x", "y", "z"], None, ABC, relations=[("a", "b", "q+", 0.5)])
    with pytest.raises(GraphError, match="1 lemmas for 3 tokens"):
        replace(sound, lemmas=("a",))


E_F = (Entity("e", Span(0, 1), "t", 0.5), Entity("f", Span(1, 2), "t", 0.5))


@pytest.mark.parametrize("types, rows, error, message", [
    # all of these at once built a graph whose relations, rectify and JSON
    # round trip raised IndexError
    (("q+", "q+"), [(0, 0, 0, 7.0), (0, 0, 1, math.nan), (5, 1, 0, 0.5)], GraphError,
     "relation type 'q+' is named more than once"),
    (("q+", "q-"), [(0, 0, 0, 0.5)], SelfLoopError, "self-loop on 'e' via 'q+'"),
    (("q+", "q-"), [(5, 1, 0, 0.5)], DanglingReferenceError, "unknown entity index 5"),
    (("q+", "q-"), [(0, 1, 2, 0.5)], GraphError, "relation type code 2 outside the 2 relation types"),
    (("q+", "q-"), [(0, 1, 0, 7.0)], BadConfidenceError, "relation 'q+' confidence 7.0 outside [0, 1]"),
    (("q+", "q-"), [(0, 1, 1, math.nan)], BadConfidenceError, "relation 'q-' confidence nan outside [0, 1]"),
    (("q+", 5), [(0, 1, 0, 0.5)], GraphError, "relation type 5 is not a string"),
])
def test_raw_relation_columns_raise_what_assemble_columns_raises(types, rows, error, message):
    head, tail, code, conf = (list(c) for c in zip(*rows))
    for build in (
        lambda: assemble_columns(["a", "b"], None, [(e.id, e.span, e.entity_type, e.confidence) for e in E_F], [],
                                 types, *columns(*rows)),
        lambda: KnowledgeGraph(("a", "b"), ("a", "b"), E_F, Relations(("e", "f"), types, head, tail, code, conf)),
    ):
        with pytest.raises(error, match=re.escape(message)):
            build()


@pytest.mark.parametrize("head, tail, code, confidence, message", [
    ([0.0], [1], [0], [0.5], "relation references unknown entity index 0.0"),
    ([0], [1], [True], [0.5], "relation type code True outside the 1 relation types"),
    ([0, 1], [1], [0], [0.5], "relation columns differ in length"),
])
def test_raw_relation_columns_hold_int_indexes_in_columns_of_one_length(head, tail, code, confidence, message):
    with pytest.raises(GraphError, match=re.escape(message)):
        KnowledgeGraph(("a", "b"), ("a", "b"), E_F, Relations(("e", "f"), ("q",), head, tail, code, confidence))


@pytest.mark.parametrize("integer", [int, np.int64, np.int32, np.uint8, np.intp])
def test_raw_relation_columns_take_numpy_integer_indexes(integer):
    head, tail, code = [integer(0)], [integer(1)], [integer(1)]
    g = KnowledgeGraph(("a", "b"), ("a", "b"), E_F, Relations(("e", "f"), ("q+", "q-"), head, tail, code, [0.5]))
    want = assemble_graph(["a", "b"], None, [(e.id, e.span, e.entity_type, e.confidence) for e in E_F],
                          [], [("e", "f", "q-", 0.5)])
    assert g == want
    assert list(map(type, (g.relations.head[0], g.relations.tail[0], g.relations.code[0]))) == [int, int, int]


@pytest.mark.parametrize("head, tail, code, error, message", [
    ([np.int64(2)], [1], [0], DanglingReferenceError, "relation references unknown entity index np.int64(2)"),
    ([0], [np.int8(-1)], [0], DanglingReferenceError, "relation references unknown entity index np.int8(-1)"),
    ([0], [1], [np.int64(1)], GraphError, "relation type code np.int64(1) outside the 1 relation types"),
    ([False], [1], [0], DanglingReferenceError, "relation references unknown entity index False"),
    ([0], [np.True_], [0], DanglingReferenceError, "relation references unknown entity index np.True_"),
    ([0], [1], [np.float64(0.0)], GraphError, "relation type code np.float64(0.0) outside the 1 relation types"),
])
def test_raw_relation_columns_refuse_numpy_values_that_index_nothing(head, tail, code, error, message):
    with pytest.raises(error, match=re.escape(message)):
        KnowledgeGraph(("a", "b"), ("a", "b"), E_F, Relations(("e", "f"), ("q",), head, tail, code, [0.5]))


@pytest.mark.parametrize("entities, relations, message", [
    ((("e", Span(0, 1), "t", 0.5),) + E_F[1:], (), "entity ('e', Span(start=0, end=1), 't', 0.5) is of type tuple, not Entity"),
    (E_F, (("e", "f", "q", 0.5),), "relation ('e', 'f', 'q', 0.5) is of type tuple, not Relation"),
    (E_F, "ef", "relation list 'ef' is not a sequence of Relation objects"),
    (E_F, None, "relation list None is not a sequence of Relation objects"),
    ("ef", (), "entity list 'ef' is not a sequence of Entity objects"),
])
def test_hand_built_graphs_name_an_element_of_the_wrong_class(entities, relations, message):
    sound = KnowledgeGraph(("a", "b"), ("a", "b"), E_F, ())
    for build in (
        lambda: KnowledgeGraph(("a", "b"), ("a", "b"), entities, relations),
        lambda: replace(sound, entities=entities, relations=relations),
    ):
        with pytest.raises(GraphError, match=re.escape(message)):
            build()


EF_TUPLES = [("e", Span(0, 1), "t", 0.5), ("f", Span(1, 2), "t", 0.5)]


@pytest.mark.parametrize("entities, attributes, relations, senses, message", [
    ([("e", Span(0, 1), "t")], [], [], [], "entity ('e', Span(start=0, end=1), 't') is not a (id, span, type, confidence) tuple"),
    ([("e", Span(0, 1), "t", 0.5, ())], [], [], [], "entity ('e', Span(start=0, end=1), 't', 0.5, ()) is not a (id, span, type, confidence) tuple"),
    ([5], [], [], [], "entity 5 is not a (id, span, type, confidence) tuple"),
    (None, [], [], [], "entity list None is not a sequence of tuples"),
    (EF_TUPLES, [("e", "sign+")], [], [], "attribute ('e', 'sign+') is not a (entity id, type, confidence) tuple"),
    (EF_TUPLES, [("e", "sign+", 0.5, 0.5)], [], [], "attribute ('e', 'sign+', 0.5, 0.5) is not a (entity id, type, confidence) tuple"),
    (EF_TUPLES, [], [("e", "f", "q+")], [], "relation ('e', 'f', 'q+') is not a (head id, tail id, type, confidence) tuple"),
    (EF_TUPLES, [], [("e", "f", "q+", 0.5, 1)], [], "relation ('e', 'f', 'q+', 0.5, 1) is not a (head id, tail id, type, confidence) tuple"),
    (EF_TUPLES, [], 7, [], "relation list 7 is not a sequence of tuples"),
    (EF_TUPLES, [], [], [("e", "s.n.01")], "sense ('e', 's.n.01') is not a (entity id, sense id, confidence) tuple"),
])
def test_assemble_graph_names_a_tuple_of_the_wrong_length(entities, attributes, relations, senses, message):
    with pytest.raises(GraphError, match=re.escape(message)):
        assemble_graph(["a", "b"], None, entities, attributes, relations, senses=senses)


# One field of a graph and the values it is set to: each value is sound in
# some fields and a fault in others.
FIELD_VALUES = st.sampled_from([
    None, 5, True, "e0", "zz", "cause", 0.25, 1, 7.0, -0.5, math.nan, math.inf, Span(0, 1), Span(1, 40),
])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), choice=st.integers(0, 2**16), value=FIELD_VALUES)
def test_one_field_changed_builds_alike_by_hand_and_by_assemble_graph(seed, choice, value):
    g = synth.random_sciclaim_graph(np.random.default_rng(seed))
    # the graph as nested lists: one record per entity and relation
    doc = {
        "tokens": list(g.tokens),
        "lemmas": list(g.lemmas),
        "entities": [[e.id, e.span, e.entity_type, e.confidence, [list(a) for a in e.attributes],
                      [["s.n.01", 0.5], ["t.n.01", -2.0]]] for e in g.entities],
        "relations": [[r.head, r.tail, r.relation_type, r.confidence] for r in g.relations],
        "provenance": [g.provenance],
    }
    # every settable place: a token or lemma, a field of an entity, of one
    # of its attributes or senses or of a relation, or the provenance
    places = [(doc[k], i) for k in ("tokens", "lemmas", "provenance") for i in range(len(doc[k]))]
    for record in doc["entities"] + doc["relations"]:
        places += [(record, i) for i in range(4)]
    for record in doc["entities"]:
        places += [(pair, i) for pair in record[4] + record[5] for i in range(2)]
    where, i = places[choice % len(places)]
    where[i] = value

    def by_hand():
        entities = tuple(Entity(*e[:4], tuple(map(tuple, e[4])), tuple(map(tuple, e[5]))) for e in doc["entities"])
        relations = tuple(Relation(*r) for r in doc["relations"])
        return KnowledgeGraph(tuple(doc["tokens"]), tuple(doc["lemmas"]), entities, relations, doc["provenance"][0])

    def assembled():
        return assemble_graph(
            doc["tokens"], doc["lemmas"], [e[:4] for e in doc["entities"]],
            [(e[0], t, c) for e in doc["entities"] for t, c in e[4]], doc["relations"], doc["provenance"][0],
            senses=[(e[0], s, c) for e in doc["entities"] for s, c in e[5]],
        )

    outcomes = []
    for build in (by_hand, assembled):
        try:
            outcomes.append(build())
        except Exception as exc:  # noqa: BLE001 - the two must fail alike, whatever the class
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]


def test_dense_extraction_json_and_rectify_build_no_relation(monkeypatch):
    model = Model.initialize(SCICLAIM, EncoderConfig(dimension=64, seed=0, context_window=1), seed=16)
    tokens = tuple(synth.FACTORS[:6])

    def no_relation(self, *args):
        raise AssertionError("a Relation was built")

    monkeypatch.setattr(Relation, "__init__", no_relation)
    raw = extract(tokens, tokens, model, provenance="d")
    text = graph_to_json(raw)
    fixed, log = rectify(raw, SCICLAIM)
    dot = emit_dot(raw, SCICLAIM)
    assert len(raw.relations) > 2000 and raw.relations._rows is None
    assert len(log) > len(raw.relations) // 2 and fixed.relations._rows is None
    monkeypatch.undo()
    assert json.loads(text)["relations"] == graph_to_dict(raw)["relations"]
    edges = [line for line in dot.splitlines() if " -> " in line]
    assert len(edges) == len(raw.relations)
    assert edges == [
        f'  "{r.head}" -> "{r.tail}" [label="{r.relation_type}", '
        f'style={"bold" if r.relation_type in SCICLAIM.causal_relation_types else "solid"}];'
        for r in sorted(raw.relations, key=lambda r: r.id)
    ]


def test_rectify_and_link_senses_check_no_element_again(monkeypatch):
    model = Model.initialize(SCICLAIM, EncoderConfig(dimension=64, seed=0, context_window=1), seed=16)
    tokens = tuple(synth.FACTORS[:6])
    encoding = encode_tokens(tokens, model.encoder)
    inventory = load_inventory("".join(
        f"{t}.n.01\t{t}\t-\t" + "\t".join(map(repr, encoding.token_vectors[i].tolist())) + "\n"
        for i, t in enumerate(tokens)
    ))
    raw = extract(tokens, tokens, model, provenance="d")

    def checked(*args):
        raise AssertionError("an element was checked again")

    monkeypatch.setattr(_GraphBuilder, "entity", checked)
    monkeypatch.setattr(_GraphBuilder, "relation", checked)
    fixed, log = rectify(raw, SCICLAIM)
    linked = link_senses(raw, encoding, inventory, threshold=0.0)
    linked_fixed = link_senses(fixed, encoding, inventory, threshold=0.0)
    monkeypatch.undo()
    assert len(raw.relations) > 2000 and len(log) > len(raw.relations) // 2
    assert linked.relations is raw.relations and all(e.senses for e in linked.entities)
    # a full check of each derived graph builds the same graph
    for g in (fixed, linked, linked_fixed):
        assert KnowledgeGraph(g.tokens, g.lemmas, g.entities, g.relations, g.provenance) == g


def test_subgraph_drops_what_goes_with_a_dropped_entity():
    g = assemble_graph(
        ["x", "y", "z"], None, ABC, [("a", "sign+", 0.5), ("b", "sign+", 0.5), ("b", "sign-", 0.5)],
        [("a", "b", "q+", 0.5), ("b", "c", "q-", 0.25), ("c", "a", "arg0", 0.75)], provenance="p",
    )
    # b goes, so its attributes and relations go whatever their flags
    kept = subgraph(g, [True, False, True], [False, True, True], [True, True, True])
    want = assemble_graph(["x", "y", "z"], None, ABC[::2], [], [("c", "a", "arg0", 0.75)], provenance="p")
    assert kept == want and kept.relations.types == g.relations.types
    with pytest.raises(ValueError):
        subgraph(g, [True, True], [], [])


def test_with_senses_checks_only_the_new_senses():
    g = bulk((0, 1, 0, 0.5))
    linked = with_senses(g, [[("s.n.01", 2.5)], [], [("t.n.01", -1.0), ("s.n.01", 0.5)]])
    assert linked.relations is g.relations and [e.senses for e in linked.entities] == [
        (("s.n.01", 2.5),), (), (("t.n.01", -1.0), ("s.n.01", 0.5)),
    ]
    assert replace(linked, provenance="p") == linked
    with pytest.raises(GraphError, match=re.escape("sense 's.n.01' on 'b' has confidence inf")):
        with_senses(g, [[], [("s.n.01", math.inf)], []])
    with pytest.raises(GraphError, match=re.escape("sense id 5 on 'a' is not a string")):
        with_senses(g, [[(5, 0.5)], [], []])
    with pytest.raises(ValueError):
        with_senses(g, [[], []])


def ethno_document(provenance, tokens, relations, negated=()):
    """A graph document over the ethno schema with one element per token."""
    return {
        "tokens": tokens,
        "entities": [
            {"id": f"e{i}", "start": i, "end": i + 1, "type": "element", "confidence": 0.9,
             "attributes": [{"type": "negated", "confidence": 0.8}] if i in negated else []}
            for i in range(len(tokens))
        ],
        "relations": [
            {"head": f"e{h}", "tail": f"e{t}", "type": rel_type, "confidence": 0.7}
            for h, t, rel_type in relations
        ],
        "provenance": provenance,
    }


def test_every_library_stage_builds_no_relation(monkeypatch):
    ethno = load_schema("ethno")
    encoder = EncoderConfig(dimension=8, seed=0, context_window=1)
    inventory = load_inventory("rain.n.01\train\t-\t" + "\t".join(["1.0"] * 8) + "\n")
    docs = [
        ethno_document(
            "s1", ["woman", "pray", "rain", "farm", "baby"],
            [(1, 0, "agent"), (1, 2, "intent+"), (2, 3, "q-"), (3, 4, "recipient"), (4, 3, "modifier")],
            negated={3},
        ),
        ethno_document("s2", ["mother", "pray", "rain"], [(1, 0, "agent"), (1, 2, "function+")]),
    ]
    pray = NodePattern(
        lemma_any_of=frozenset({"pray"}),
        role_constraints=(("agent", NodePattern(lemma_any_of=frozenset({"woman", "mother"}))),),
    )

    def no_relation(self, *args):
        raise AssertionError("a Relation was built")

    monkeypatch.setattr(Relation, "__init__", no_relation)
    graphs = [graph_from_dict(doc) for doc in docs]
    texts = [graph_to_json(g) for g in graphs]
    fixed = [rectify(g, ethno)[0] for g in graphs]
    linked = [link_senses(g, encode_tokens(g.tokens, encoder), inventory, threshold=-1.0) for g in graphs]
    dots = [emit_dot(g, ethno) for g in graphs]
    valence = [compute_valence(g, ethno) for g in graphs]
    result = find_paths(merge_corpus(graphs, lemma_link=True), pray, NodePattern(lemma_any_of=frozenset({"rain"})))
    report = score(linked, fixed)
    assert all(g.relations._rows is None for g in graphs + fixed + linked)
    monkeypatch.undo()

    assert [json.loads(text) for text in texts] == [graph_to_dict(g) for g in graphs]
    assert all(e.senses for g in linked for e in g.entities)
    assert all(dot.count(" -> ") == len(g.relations) for dot, g in zip(dots, graphs))
    # pray's agent holds pray and what it reaches; q- and the negated farm cancel
    assert [a.to_dict() for a in valence[0]] == [
        {"holder": "e0", "target": target, "sign": "+"} for target in ("e1", "e2", "e3", "e4")
    ]
    assert ("s1/e1", "s1/e1->e2:intent+", "s1/e2") in result.paths
    assert ("s2/e1", "s2/e1->e2:function+", "s2/e2") in result.paths
    assert report.micro["relations"].tp == 7 and report.micro["relations"].fp == 0
