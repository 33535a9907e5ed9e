"""The relation store: a graph keeps its relations as columns and reads them
as a tuple of Relations only when asked."""

import json
import re

import numpy as np
import pytest

import synth
from causalkg.encoder import EncoderConfig
from causalkg.errors import BadConfidenceError, DanglingReferenceError, GraphError, SelfLoopError
from causalkg.graphs import (
    Entity,
    KnowledgeGraph,
    Relation,
    Span,
    assemble_columns,
    graph_from_dict,
    graph_to_dict,
    graph_to_json,
)
from causalkg.model import Model, extract
from causalkg.rectify import rectify
from causalkg.schema import load_schema

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


def test_bulk_path_checks_the_lemma_count():
    with pytest.raises(GraphError, match="2 lemmas for 3 tokens"):
        bulk((0, 1, 0, 0.5), lemmas=["x", "y"])


@pytest.mark.parametrize("confidence, writes", [
    (np.float64(0.25), True), (1, True), ([0.5], False), (np.int64(1), False),
])
def test_hand_built_confidences_are_kept_as_given(confidence, writes):
    entities = (Entity("e", Span(0, 1), "t", 0.5), Entity("f", Span(1, 2), "t", 0.5))
    g = KnowledgeGraph(("a", "b"), ("a", "b"), entities, (Relation("e", "f", "q", confidence),))
    assert g.relations.confidence[0] is confidence
    if writes:
        assert graph_to_json(g) == json.dumps(graph_to_dict(g), indent=2, ensure_ascii=False) + "\n"
    else:
        with pytest.raises(TypeError):
            graph_to_json(g)


def test_relations_over_other_entities_are_renumbered():
    g = bulk((1, 2, 0, 0.5), (2, 0, 1, 0.5))
    fewer = KnowledgeGraph(g.tokens, g.lemmas, g.entities[1:], g.relations, "p")
    assert fewer.relations.ids == ("b", "c", "a")  # "a" is named, but no entity has it
    assert fewer.relations == g.relations
    same = KnowledgeGraph(g.tokens, g.lemmas, g.entities, g.relations, "q")
    assert same.relations is g.relations


def test_dense_extraction_json_and_rectify_build_no_relation(monkeypatch):
    model = Model.initialize(SCICLAIM, EncoderConfig(dimension=64, seed=0, context_window=1), seed=16)
    tokens = tuple(synth.FACTORS[:6])

    def no_relation(self, *args):
        raise AssertionError("a Relation was built")

    monkeypatch.setattr(Relation, "__init__", no_relation)
    raw = extract(tokens, tokens, model, provenance="d")
    text = graph_to_json(raw)
    fixed, log = rectify(raw, SCICLAIM)
    assert len(raw.relations) > 2000 and raw.relations._rows is None
    assert len(log) > len(raw.relations) // 2 and fixed.relations._rows is None
    monkeypatch.undo()
    assert json.loads(text)["relations"] == graph_to_dict(raw)["relations"]
