import json
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
    Span,
    assemble_graph,
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
    merge_corpus,
)

from synth import random_hub_corpus, random_sciclaim_graph


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
    assert set(corpus.index.nodes) == {"a/e0"}


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


def test_hubs_store_each_node_lemma_once():
    rng = np.random.default_rng(31)
    for trial in range(40):
        if trial % 2:
            graphs = [random_sciclaim_graph(rng, provenance=f"p{i}") for i in range(3)]
            corpus = merge_corpus(graphs, lemma_link=True)
        else:
            corpus = random_hub_corpus(rng)
        occurrences = sum(len(g.entity_lemmas(e)) for g in corpus.graphs for e in g.entities)
        assert sum(len(members) for _, members in corpus.lemma_hubs) <= occurrences
        nodes = corpus.index.nodes
        for lemma, members in corpus.lemma_hubs:
            assert list(members) == sorted(set(members))
            assert len({nodes[m][0].provenance for m in members}) >= 2
            assert all(lemma in nodes[m][0].entity_lemmas(nodes[m][1]) for m in members)


@pytest.mark.parametrize("lemma_link", [False, True])
def test_merge_keeps_slashed_global_ids_apart(lemma_link):
    # unescaped, "a/b" + "/" + "c" and "a" + "/" + "b/c" would both be "a/b/c"
    g1 = assemble_graph(["x"], None, [("c", Span(0, 1), "element", 1.0)], provenance="a/b")
    g2 = assemble_graph(["x"], None, [("b/c", Span(0, 1), "element", 1.0)], provenance="a")
    corpus = merge_corpus([g1, g2], lemma_link=lemma_link)
    assert corpus.index.nodes == {"a\\/b/c": (g1, g1.entities[0]), "a/b\\/c": (g2, g2.entities[0])}
    if lemma_link:
        assert corpus.lemma_hubs == (("x", ("a/b\\/c", "a\\/b/c")),)


def test_merge_without_links_is_plain_union():
    rng = np.random.default_rng(5)
    graphs = [random_sciclaim_graph(rng, provenance=f"u{i}") for i in range(4)]
    corpus = merge_corpus(graphs, lemma_link=False)
    assert corpus.lemma_hubs == ()
    assert corpus.lemma_links == frozenset()
    assert len(corpus.index.nodes) == sum(len(g.entities) for g in graphs)


def test_merge_duplicate_provenance_rejected():
    g = assemble_graph(["a"], None, [], provenance="x")
    with pytest.raises(DuplicateProvenanceError):
        merge_corpus([g, g])


def test_corpus_graph_built_directly_rejects_duplicate_provenance():
    g = assemble_graph(["a"], None, [], provenance="x")
    with pytest.raises(DuplicateProvenanceError):
        CorpusGraph((g, g)).index


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
        for e in g.entities:
            assert g.outgoing(e.id) == tuple(r for r in g.relations if r.head == e.id)
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


def test_corpus_index_matches_a_scan():
    rng = np.random.default_rng(41)
    for _ in range(20):
        corpus = random_hub_corpus(rng)
        index = corpus.index
        expected_nodes = {f"{g.provenance}/{e.id}": (g, e) for g in corpus.graphs for e in g.entities}
        assert index.nodes == expected_nodes and list(index.nodes) == list(expected_nodes)
        by_lemma = {}
        for gid, (g, e) in expected_nodes.items():
            assert index.lemmas[gid] == g.entity_lemmas(e)
            for lemma in g.entity_lemmas(e):
                by_lemma.setdefault(lemma, []).append(gid)
        assert index.by_lemma == by_lemma


def test_corpus_index_stays_out_of_equality_and_repr():
    rng = np.random.default_rng(43)
    corpus = random_hub_corpus(rng)
    direct = CorpusGraph(corpus.graphs, corpus.lemma_hubs)
    assert direct._index is None  # built on first use
    assert direct == corpus and hash(direct) == hash(corpus) and repr(direct) == repr(corpus)
    assert "index" not in repr(corpus)
    assert direct.index.nodes == corpus.index.nodes
    assert direct.index is direct.index
    # a copy with other graphs builds its own index
    fewer = replace(corpus, graphs=corpus.graphs[:1])
    assert set(fewer.index.nodes) == {f"h0/{e.id}" for e in corpus.graphs[0].entities}


def test_incoming_index_matches_a_relation_scan():
    rng = np.random.default_rng(47)
    for _ in range(30):
        g = random_sciclaim_graph(rng)
        for e in g.entities:
            assert g.incoming(e.id) == tuple(r for r in g.relations if r.tail == e.id)
        assert g.incoming("no such id") == ()
