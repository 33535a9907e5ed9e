import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from causalkg.errors import (
    BadConfidenceError,
    DanglingReferenceError,
    DuplicateProvenanceError,
    DuplicateSpanTypeError,
    GraphError,
    SelfLoopError,
)
from causalkg.graphs import (
    CorpusGraph,
    Entity,
    Span,
    assemble_graph,
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
    merge_corpus,
    _confidence,
    _number,
    _text,
)

from synth import random_ethno_corpus, random_hub_corpus, random_sciclaim_corpus, random_sciclaim_graph


def test_empty_inputs_give_empty_graph():
    g = assemble_graph([], None, [], [], [])
    assert g.tokens == ()
    assert g.entities == ()
    assert g.relations == ()


def test_span_validation():
    assert len(Span(2, 5)) == 3
    assert list(Span(1, 3).indices()) == [1, 2]
    with pytest.raises(GraphError):
        Span(3, 3)
    with pytest.raises(GraphError):
        Span(-1, 2)


@pytest.mark.parametrize("start, end", [(0.5, 2), (0, 2.0), (False, True), (0, True), ("0", 1), (np.bool_(0), 1)])
def test_span_bounds_are_integers(start, end):
    with pytest.raises(GraphError, match="span bound .* is not an integer"):
        Span(start, end)


def test_numpy_span_bounds_are_stored_as_ints():
    span = Span(np.int64(1), np.int32(3))
    assert (type(span.start), type(span.end)) == (int, int) and span == Span(1, 3) and hash(span) == hash(Span(1, 3))
    with pytest.raises(GraphError, match=re.escape("invalid span [3, 1)")):
        Span(np.int64(3), np.uint8(1))


def test_loaded_entities_hold_what_a_constructed_entity_holds():
    # the builder stores an entity's fields itself, skipping Entity's __init__
    graph = random_sciclaim_graph(np.random.default_rng(3))
    for e in graph.entities + graph_from_dict(graph_to_dict(graph)).entities:
        direct = Entity(e.id, e.span, e.entity_type, e.confidence, e.attributes, e.senses)
        assert list(vars(e).items()) == list(vars(direct).items())
        assert e == direct and hash(e) == hash(direct) and repr(e) == repr(direct)


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        assemble_graph(
            ["a", "b"], None,
            [("e0", Span(0, 1), "element", 1.0)],
            relations=[("e0", "e0", "q+", 0.9)],
        )


def test_duplicate_span_rejected():
    with pytest.raises(DuplicateSpanTypeError):
        assemble_graph(
            ["a", "b"], None,
            [("e0", Span(0, 1), "element", 1.0), ("e1", Span(0, 1), "qualifier", 1.0)],
        )


def test_bad_confidence_rejected():
    with pytest.raises(BadConfidenceError):
        assemble_graph(["a"], None, [("e0", Span(0, 1), "element", 1.5)])
    with pytest.raises(BadConfidenceError):
        assemble_graph(
            ["a"], None,
            [("e0", Span(0, 1), "element", 1.0)],
            attributes=[("e0", "negated", -0.1)],
        )


def test_dangling_references_rejected():
    with pytest.raises(DanglingReferenceError):
        assemble_graph(
            ["a"], None,
            [("e0", Span(0, 1), "element", 1.0)],
            attributes=[("e9", "negated", 0.5)],
        )
    with pytest.raises(DanglingReferenceError):
        assemble_graph(
            ["a", "b"], None,
            [("e0", Span(0, 1), "element", 1.0)],
            relations=[("e0", "e9", "q+", 0.5)],
        )


def test_span_out_of_bounds_rejected():
    with pytest.raises(GraphError):
        assemble_graph(["a"], None, [("e0", Span(0, 2), "element", 1.0)])


def test_lemmas_default_to_lowercased_tokens():
    g = assemble_graph(["The", "Baby"], None, [])
    assert g.lemmas == ("the", "baby")


def test_duplicate_relation_triple_rejected():
    with pytest.raises(GraphError):
        assemble_graph(
            ["a", "b"], None,
            [("e0", Span(0, 1), "element", 1.0), ("e1", Span(1, 2), "element", 1.0)],
            relations=[("e0", "e1", "q+", 0.5), ("e0", "e1", "q+", 0.7)],
        )


def test_parallel_edges_with_distinct_types_allowed():
    g = assemble_graph(
        ["a", "b"], None,
        [("e0", Span(0, 1), "element", 1.0), ("e1", Span(1, 2), "element", 1.0)],
        relations=[("e0", "e1", "q+", 0.5), ("e0", "e1", "q-", 0.7)],
    )
    assert len(g.relations) == 2


def test_round_trip_identity_random_graphs():
    rng = np.random.default_rng(11)
    for i in range(25):
        g = random_sciclaim_graph(rng, provenance=f"rt{i}")
        back = graph_from_json(graph_to_json(g))
        assert back == g


def test_round_trip_preserves_senses():
    g = assemble_graph(["cat"], None, [("e0", Span(0, 1), "element", 0.9)])
    doc = graph_to_dict(g)
    doc["entities"][0]["senses"] = [{"sense": "cat.n.01", "confidence": 0.8}]
    back = graph_from_dict(doc)
    assert back.entities[0].senses == (("cat.n.01", 0.8),)
    assert graph_from_dict(graph_to_dict(back)) == back


def test_merge_single_graph_no_links():
    g = assemble_graph(["baby"], None, [("e0", Span(0, 1), "element", 1.0)], provenance="a")
    corpus = merge_corpus([g], lemma_link=True)
    assert corpus.lemma_links == frozenset()
    assert set(corpus.nodes) == {"a/e0"}


def test_merge_links_shared_lemma():
    g1 = assemble_graph(
        ["the", "baby"], None, [("e0", Span(1, 2), "element", 1.0)], provenance="s1"
    )
    g2 = assemble_graph(
        ["baby", "cries"], None,
        [("e0", Span(0, 1), "element", 1.0), ("e1", Span(1, 2), "element", 1.0)],
        provenance="s2",
    )
    corpus = merge_corpus([g1, g2], lemma_link=True)
    assert corpus.lemma_links == frozenset({("s1/e0", "s2/e0")})


def test_merge_links_match_brute_force():
    # oracle: quadratic comparison over every entity pair
    rng = np.random.default_rng(23)
    for trial in range(20):
        graphs = [random_sciclaim_graph(rng, provenance=f"p{i}") for i in range(3)]
        corpus = merge_corpus(graphs, lemma_link=True)
        expected = set()
        for gi, ga in enumerate(graphs):
            for gb in graphs[gi + 1 :]:
                for ea in ga.entities:
                    for eb in gb.entities:
                        if ga.entity_lemmas(ea) & gb.entity_lemmas(eb):
                            pair = (f"{ga.provenance}/{ea.id}", f"{gb.provenance}/{eb.id}")
                            expected.add(tuple(sorted(pair)))
        assert corpus.lemma_links == frozenset(expected)


def test_by_lemma_files_each_node_lemma_once():
    rng = np.random.default_rng(31)
    for trial in range(40):
        if trial % 2:
            graphs = [random_sciclaim_graph(rng, provenance=f"p{i}") for i in range(3)]
            corpus = merge_corpus(graphs, lemma_link=True)
        else:
            corpus = random_hub_corpus(rng)
        occurrences = sum(len(g.entity_lemmas(e)) for g in corpus.graphs for e in g.entities)
        assert sum(len(members) for members in corpus.by_lemma.values()) == occurrences
        nodes = corpus.nodes
        for lemma, members in corpus.by_lemma.items():
            assert len(members) == len(set(members))
            assert all(lemma in nodes[m][0].entity_lemmas(nodes[m][1]) for m in members)


@pytest.mark.parametrize("lemma_link", [False, True])
def test_merge_keeps_slashed_global_ids_apart(lemma_link):
    # unescaped, "a/b" + "/" + "c" and "a" + "/" + "b/c" would both be "a/b/c"
    g1 = assemble_graph(["x"], None, [("c", Span(0, 1), "element", 1.0)], provenance="a/b")
    g2 = assemble_graph(["x"], None, [("b/c", Span(0, 1), "element", 1.0)], provenance="a")
    corpus = merge_corpus([g1, g2], lemma_link=lemma_link)
    assert corpus.nodes == {"a\\/b/c": (g1, g1.entities[0]), "a/b\\/c": (g2, g2.entities[0])}
    assert corpus.by_lemma == {"x": ["a\\/b/c", "a/b\\/c"]}
    assert corpus.lemma_links == (frozenset({("a/b\\/c", "a\\/b/c")}) if lemma_link else frozenset())


def test_merge_without_links_is_plain_union():
    rng = np.random.default_rng(5)
    graphs = [random_sciclaim_graph(rng, provenance=f"u{i}") for i in range(4)]
    corpus = merge_corpus(graphs, lemma_link=False)
    assert corpus.lemma_links == frozenset()
    assert len(corpus.nodes) == sum(len(g.entities) for g in graphs)
    assert corpus.by_lemma == merge_corpus(graphs, lemma_link=True).by_lemma


def test_merge_duplicate_provenance_rejected():
    g = assemble_graph(["a"], None, [], provenance="x")
    with pytest.raises(DuplicateProvenanceError):
        merge_corpus([g, g])


def test_corpus_graph_built_directly_rejects_duplicate_provenance():
    # when it is built, not when its index is first read
    g = assemble_graph(["a"], None, [], provenance="x")
    with pytest.raises(DuplicateProvenanceError):
        CorpusGraph((g, g))
    with pytest.raises(DuplicateProvenanceError):
        replace(merge_corpus([g]), graphs=(g, g))


def test_relation_endpoints_always_resolve():
    rng = np.random.default_rng(77)
    for _ in range(30):
        g = random_sciclaim_graph(rng)
        ids = set(g.entity_by_id())
        for r in g.relations:
            assert r.head in ids and r.tail in ids


def test_assemble_graph_attaches_senses_in_rank_order():
    g = assemble_graph(
        ["cat", "dog"], None,
        [("e0", Span(0, 1), "element", 0.9), ("e1", Span(1, 2), "element", 0.8)],
        attributes=[("e1", "negated", 0.7)],
        senses=[("e0", "cat.n.01", 0.8), ("e0", "cat.n.02", 1.5), ("e1", "dog.n.01", -0.25)],
    )
    assert g.entities[0].senses == (("cat.n.01", 0.8), ("cat.n.02", 1.5))
    assert g.entities[1].senses == (("dog.n.01", -0.25),)
    assert g.entities[1].attributes == (("negated", 0.7),)
    with pytest.raises(DanglingReferenceError):
        assemble_graph(["a"], None, [("e0", Span(0, 1), "element", 1.0)], senses=[("e9", "s", 0.5)])


@pytest.mark.parametrize("sense, confidence", [
    (5, 0.5),
    (None, 0.5),
    ("cat.n.01", float("nan")),
    ("cat.n.01", float("inf")),
    ("cat.n.01", float("-inf")),
])
def test_graph_from_dict_rejects_bad_senses(sense, confidence):
    doc = graph_to_dict(assemble_graph(["cat"], None, [("e0", Span(0, 1), "element", 0.9)]))
    doc["entities"][0]["senses"] = [{"sense": sense, "confidence": confidence}]
    with pytest.raises(GraphError):
        graph_from_dict(doc)
    with pytest.raises(GraphError):
        graph_from_json(json.dumps(doc))


@pytest.mark.parametrize("text", ["{", "[1,"])
def test_graph_from_json_refuses_text_that_is_not_json_with_a_graph_error(text):
    # json.loads raised its bare JSONDecodeError, which no CausalKgError handler catches
    with pytest.raises(GraphError, match="^a graph document is not valid JSON: "):
        graph_from_json(text)


@pytest.mark.parametrize("doc", [[], "graph", 5, None])
def test_graph_from_dict_rejects_a_non_object(doc):
    with pytest.raises(GraphError, match="must be an object"):
        graph_from_dict(doc)


def test_graph_from_dict_keeps_existing_checks():
    doc = graph_to_dict(assemble_graph(
        ["a", "b"], None,
        [("e0", Span(0, 1), "element", 0.9), ("e1", Span(1, 2), "element", 0.8)],
        relations=[("e0", "e1", "q+", 0.5)],
    ))
    for edit, error in [
        (lambda d: d["entities"][0].update(confidence=1.5), BadConfidenceError),
        (lambda d: d["entities"][1].update(start=0, end=1), DuplicateSpanTypeError),
        (lambda d: d["relations"][0].update(tail="e0"), SelfLoopError),
        (lambda d: d["relations"][0].update(tail="e9"), DanglingReferenceError),
        (lambda d: d["entities"][0].update(attributes=[{"type": "x"}]), GraphError),
        (lambda d: d.pop("tokens"), GraphError),
    ]:
        bad = json.loads(json.dumps(doc))
        edit(bad)
        with pytest.raises(error):
            graph_from_dict(bad)


def typed_field_doc():
    return graph_to_dict(assemble_graph(
        ["a", "b"], None,
        [("e0", Span(0, 1), "element", 0.9), ("e1", Span(1, 2), "element", 0.8)],
        attributes=[("e1", "negated", 0.7)],
        relations=[("e0", "e1", "q+", 0.5)],
        senses=[("e0", "a.n.01", 0.25)],
    ))


@pytest.mark.parametrize("path, value, field", [
    (("entities", 0, "start"), 0.9, "entities[0].start"),
    (("entities", 0, "start"), False, "entities[0].start"),
    (("entities", 1, "end"), True, "entities[1].end"),
    (("entities", 1, "end"), "2", "entities[1].end"),
    (("entities", 1, "end"), 2.0, "entities[1].end"),
    (("entities", 0, "confidence"), "0.5", "entities[0].confidence"),
    (("entities", 1, "confidence"), True, "entities[1].confidence"),
    (("entities", 1, "attributes", 0, "confidence"), False, "entities[1].attributes[0].confidence"),
    (("entities", 1, "attributes", 0, "confidence"), "0.7", "entities[1].attributes[0].confidence"),
    (("entities", 0, "senses", 0, "confidence"), "0.25", "entities[0].senses[0].confidence"),
    (("relations", 0, "confidence"), "0.5", "relations[0].confidence"),
    (("relations", 0, "confidence"), True, "relations[0].confidence"),
    (("relations", 0, "confidence"), None, "relations[0].confidence"),
])
def test_graph_from_dict_rejects_mistyped_offsets_and_confidences(path, value, field):
    doc = typed_field_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(GraphError, match=re.escape(field)):
        graph_from_dict(doc)


def test_graph_from_dict_does_not_coerce_a_span_or_confidence():
    doc = typed_field_doc()
    doc["entities"][0].update({"start": 0.9, "end": True, "confidence": "0.5"})
    with pytest.raises(GraphError, match=re.escape("entities[0].start must be an integer, got 0.9")):
        graph_from_dict(doc)


def test_graph_from_dict_accepts_integer_confidences():
    doc = typed_field_doc()
    doc["entities"][0]["confidence"] = 1
    doc["relations"][0]["confidence"] = 0
    g = graph_from_dict(doc)
    assert g.entities[0].confidence == 1.0 and g.relations[0].confidence == 0.0
    assert graph_from_dict(graph_to_dict(g)) == g


def test_outgoing_index_matches_a_relation_scan():
    rng = np.random.default_rng(19)
    for _ in range(30):
        g = random_sciclaim_graph(rng)
        rels = g.relations
        for e in g.entities:
            # rows, in graph order, as a scan of the head column finds them
            rows = g.outgoing(e.id)
            assert rows == tuple(j for j, h in enumerate(rels.head) if rels.ids[h] == e.id)
            assert tuple(rels[j] for j in rows) == tuple(r for r in rels if r.head == e.id)
            assert g.entity(e.id) is e
        assert g.outgoing("no such id") == ()


# a loader that coerced with str() would take "ab" as two tokens, null as
# the provenance "None" and 7 as the entity id "7"
@pytest.mark.parametrize("path, value, field", [
    (("tokens",), "ab", "tokens"),
    (("tokens",), [1, 2], "tokens[0]"),
    (("tokens", 1), None, "tokens[1]"),
    (("lemmas",), "ab", "lemmas"),
    (("lemmas", 1), 5, "lemmas[1]"),
    (("provenance",), None, "provenance"),
    (("provenance",), 3, "provenance"),
    (("entities",), {"e0": {}}, "entities"),
    (("entities", 0, "id"), 7, "entities[0].id"),
    (("entities", 1, "type"), None, "entities[1].type"),
    (("entities", 1, "attributes"), "negated", "entities[1].attributes"),
    (("entities", 1, "attributes", 0, "type"), ["negated"], "entities[1].attributes[0].type"),
    (("entities", 0, "senses"), {}, "entities[0].senses"),
    (("relations",), "e0->e1", "relations"),
    (("relations", 0, "head"), 0, "relations[0].head"),
    (("relations", 0, "tail"), ["e1"], "relations[0].tail"),
    (("relations", 0, "type"), None, "relations[0].type"),
])
def test_graph_from_dict_rejects_mistyped_string_and_list_fields(path, value, field):
    doc = typed_field_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(GraphError, match=re.escape(f"{field} must be")):
        graph_from_dict(doc)


def test_graph_from_dict_defaults_absent_or_null_lemmas():
    doc = typed_field_doc()
    doc.update(tokens=["A", "B"], lemmas=None)
    assert graph_from_dict(doc).lemmas == ("a", "b")
    del doc["lemmas"]
    assert graph_from_dict(doc).lemmas == ("a", "b")


def test_corpus_lookups_match_a_scan():
    rng = np.random.default_rng(41)
    for trial in range(60):
        corpus = (random_hub_corpus, random_ethno_corpus, random_sciclaim_corpus)[trial % 3](rng)
        expected_nodes = {f"{g.provenance}/{e.id}": (g, e) for g in corpus.graphs for e in g.entities}
        assert corpus.nodes == expected_nodes and list(corpus.nodes) == list(expected_nodes)
        by_lemma, by_type, by_attribute = {}, {}, {}
        for gid, (g, e) in expected_nodes.items():
            for lemma in g.entity_lemmas(e):
                by_lemma.setdefault(lemma, []).append(gid)
            by_type.setdefault(e.entity_type, []).append(gid)
            for attr_type in e.attribute_types():
                by_attribute.setdefault(attr_type, []).append(gid)
        assert corpus.by_lemma == by_lemma
        assert corpus.typed_buckets() == (by_type, by_attribute)


def test_corpus_lookups_stay_out_of_equality_and_repr():
    rng = np.random.default_rng(43)
    corpus = random_hub_corpus(rng)
    direct = CorpusGraph(corpus.graphs, lemma_link=True)
    assert direct.nodes is not corpus.nodes and direct.by_lemma is not corpus.by_lemma  # built with the corpus
    assert direct == corpus and hash(direct) == hash(corpus) and repr(direct) == repr(corpus)
    assert repr(corpus) == f"CorpusGraph(graphs={corpus.graphs!r}, lemma_link=True)"
    assert direct.nodes == corpus.nodes and direct.by_lemma == corpus.by_lemma
    assert direct.typed_buckets() is direct.typed_buckets()
    # a copy with other graphs or another lemma_link derives its own lookups and links
    fewer = replace(corpus, graphs=corpus.graphs[:1])
    assert set(fewer.nodes) == {f"h0/{e.id}" for e in corpus.graphs[0].entities}
    assert replace(corpus, lemma_link=False).lemma_links == frozenset()


def test_a_corpus_derives_its_lookups_from_its_graphs():
    rng = np.random.default_rng(53)
    for trial in range(30):
        corpus = (random_hub_corpus, random_ethno_corpus, random_sciclaim_corpus)[trial % 3](rng)
        graphs = corpus.graphs
        direct = CorpusGraph(graphs, True)
        assert direct == merge_corpus(graphs, True) == corpus
        assert hash(direct) == hash(corpus) and repr(direct) == repr(corpus)
        nodes = corpus.nodes
        assert all(set(members) <= nodes.keys() for members in corpus.by_lemma.values())
        assert all(nodes[a][0] is not nodes[b][0] for a, b in corpus.lemma_links)
        k = int(rng.integers(0, len(graphs)))
        fewer = replace(corpus, graphs=graphs[:k])
        assert fewer == merge_corpus(graphs[:k], True)
        assert all(set(members) <= fewer.nodes.keys() for members in fewer.by_lemma.values())
        assert all({a, b} <= fewer.nodes.keys() for a, b in fewer.lemma_links)


@pytest.mark.parametrize(
    "build",
    [
        lambda g: CorpusGraph(5),
        lambda g: CorpusGraph("ab"),
        lambda g: CorpusGraph((g, "x")),
        lambda g: merge_corpus([g, 3]),
    ],
    ids=["int", "str", "str member", "int member"],
)
def test_a_corpus_of_other_than_graphs_is_refused(build):
    g = assemble_graph(["a"], None, [], provenance="x")
    with pytest.raises(GraphError):
        build(g)


def test_derived_fields_cannot_be_handed_in(monkeypatch):
    g1 = assemble_graph(["baby"], None, [("e0", Span(0, 1), "element", 1.0)], provenance="p1")
    g2 = assemble_graph(["baby"], None, [("e0", Span(0, 1), "element", 1.0)], provenance="p2")
    corpus = merge_corpus([g1, g2], lemma_link=True)
    assert corpus.lemma_links == frozenset({("p1/e0", "p2/e0")})
    built = []
    monkeypatch.setattr(CorpusGraph, "__post_init__", lambda self: built.append(self))
    for name, value in (("nodes", corpus.nodes), ("by_lemma", {"baby": ["p1/e0", "nope/e9"]})):
        with pytest.raises(TypeError):
            CorpusGraph(corpus.graphs, **{name: value})
        with pytest.raises(ValueError, match=name):
            replace(corpus, **{name: value})
    with pytest.raises(TypeError):
        CorpusGraph(corpus.graphs, True, corpus.nodes)
    assert built == []  # refused before any corpus exists


def test_incoming_index_matches_a_relation_scan():
    rng = np.random.default_rng(47)
    for _ in range(30):
        g = random_sciclaim_graph(rng)
        rels = g.relations
        for e in g.entities:
            rows = g.incoming(e.id)
            assert rows == tuple(j for j, t in enumerate(rels.tail) if rels.ids[t] == e.id)
            assert tuple(rels[j] for j in rows) == tuple(r for r in rels if r.tail == e.id)
        assert g.incoming("no such id") == ()


# -- the builder's fast path gives what its checks give ----------------------

CONFIDENCES = [
    0.0, -0.0, 0.5, 1.0, 1, np.float64(0.5), np.float32(0.5), True,
    float("nan"), float("inf"), float("-inf"), 1.5, -0.1, 10**400, "0.5", None,
]


class Text(str):
    pass


def outcome(call, *args):
    """What the call returns, as its type and repr, or its error's class and message."""
    try:
        value = call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), repr(value)


def sense_confidence(value):
    """The builder's rule for a sense confidence: a number, then a finite one."""
    value = _number(value, "sense 's' on 'e' confidence", GraphError)
    if not math.isfinite(value):
        raise GraphError(f"sense 's' on 'e' has confidence {value}")
    return value


def built_confidence(kind, conf):
    """The stored confidence of one element of this kind given `conf`."""
    graph = assemble_graph(
        ["a", "b"], None,
        [("e", Span(0, 1), "T", conf if kind == "entity" else 1.0), ("f", Span(1, 2), "T", 1.0)],
        attributes=[("e", "x", conf)] if kind == "attribute" else [],
        relations=[("e", "f", "r", conf)] if kind == "relation" else [],
        senses=[("e", "s", conf)] if kind == "sense" else [],
    )
    e = graph.entities[0]
    return {
        "entity": lambda: e.confidence,
        "attribute": lambda: e.attributes[0][1],
        "sense": lambda: e.senses[0][1],
        "relation": lambda: graph.relations.confidence[0],
    }[kind]()


CONFIDENCE_CHECKS = {
    "entity": lambda c: _confidence(c, "entity", "e"),
    "attribute": lambda c: _confidence(c, "attribute", "x"),
    "relation": lambda c: _confidence(c, "relation", "r"),
    "sense": sense_confidence,
}


@pytest.mark.parametrize("conf", CONFIDENCES, ids=repr)
@pytest.mark.parametrize("kind", list(CONFIDENCE_CHECKS))
def test_builder_confidences_are_what_the_checks_give(kind, conf):
    assert outcome(built_confidence, kind, conf) == outcome(CONFIDENCE_CHECKS[kind], conf)


def built_text(kind, value):
    """The stored id or type of one element of this kind given `value`."""
    graph = assemble_graph(
        ["a", "b"], None,
        [(value if kind == "entity id" else "e", Span(0, 1), value if kind == "entity type" else "T", 1.0),
         ("f", Span(1, 2), "T", 1.0)],
        attributes=[("f", value, 1.0)] if kind == "attribute type" else [],
        relations=[("f", "e", value, 1.0)] if kind == "relation type" else [],
    )
    e, f = graph.entities
    return {
        "entity id": lambda: e.id,
        "entity type": lambda: e.entity_type,
        "attribute type": lambda: f.attributes[0][0],
        "relation type": lambda: graph.relations.types[0],
    }[kind]()


@pytest.mark.parametrize("value", ["e", Text("e"), 7, None], ids=repr)
@pytest.mark.parametrize("kind", ["entity id", "entity type", "attribute type", "relation type"])
def test_builder_ids_and_types_are_what_the_check_gives(kind, value):
    assert outcome(built_text, kind, value) == outcome(_text, value, kind)
