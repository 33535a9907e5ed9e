import gc
import re
import weakref
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalkg.errors import InputError, QueryError, SchemaMismatchError
from causalkg.graphs import CorpusGraph, Span, assemble_graph, merge_corpus
from causalkg.reasoning import (
    NORM,
    NodePattern,
    compute_valence,
    find_paths,
    matching_nodes,
)
from causalkg.schema import load_schema

from synth import random_ethno_corpus, random_hub_corpus, random_sciclaim_corpus

ETHNO = load_schema("ethno")


def valence_map(graph):
    return {(a.holder, a.target): a.sign for a in compute_valence(graph, ETHNO)}


def prayer_graph():
    # "some of the women prayed for themselves during pregnancy for safe delivery"
    tokens = "some of the women prayed for themselves during pregnancy for safe delivery".split()
    return assemble_graph(
        tokens, None,
        [("women", Span(3, 4), "element", 1.0),
         ("prayed", Span(4, 5), "element", 1.0),
         ("themselves", Span(6, 7), "element", 1.0),
         ("pregnancy", Span(8, 9), "element", 1.0),
         ("delivery", Span(10, 12), "element", 1.0)],
        relations=[
            ("prayed", "women", "agent", 1.0),
            ("prayed", "themselves", "object", 1.0),
            ("prayed", "delivery", "intent+", 1.0),
            ("prayed", "pregnancy", "t+", 1.0),
        ],
    )


def test_no_sources_no_assertions():
    g = assemble_graph(
        ["rain", "falls"], None,
        [("e0", Span(0, 1), "element", 1.0), ("e1", Span(1, 2), "element", 1.0)],
        relations=[("e0", "e1", "q+", 1.0)],
    )
    assert compute_valence(g, ETHNO) == []


def test_prayer_graph_valence():
    # the praying women hold positive valence on the act, themselves, and
    # the safe delivery; the temporal pregnancy edge does not propagate
    assert valence_map(prayer_graph()) == {
        ("women", "prayed"): 1,
        ("women", "themselves"): 1,
        ("women", "delivery"): 1,
    }


def test_prescribed_negated_action_is_norm_negative():
    # a prescribed-against (negated) act: generic NORM holder disapproves of
    # the act and its downstream subgraph
    tokens = "a woman should not disgrace her family".split()
    g = assemble_graph(
        tokens, None,
        [("disgrace", Span(4, 5), "element", 1.0),
         ("family", Span(6, 7), "element", 1.0)],
        attributes=[("disgrace", "prescribed", 1.0), ("disgrace", "negated", 1.0)],
        relations=[("disgrace", "family", "object", 1.0)],
    )
    assert valence_map(g) == {
        (NORM, "disgrace"): -1,
        (NORM, "family"): -1,
    }


def witches_pastor_graph():
    # witches plan to terminate a pregnancy; the pastor prays to prevent the plan
    tokens = ("the witches planned to terminate the pregnancy but the pastor "
              "prayed to prevent the plan").split()
    return assemble_graph(
        tokens, None,
        [("witches", Span(1, 2), "element", 1.0),
         ("planned", Span(2, 3), "element", 1.0),
         ("terminate", Span(4, 5), "element", 1.0),
         ("pregnancy", Span(6, 7), "element", 1.0),
         ("pastor", Span(9, 10), "element", 1.0),
         ("prayed", Span(10, 11), "element", 1.0),
         ("prevent", Span(12, 13), "element", 1.0)],
        relations=[
            ("planned", "witches", "agent", 1.0),
            ("planned", "terminate", "intent+", 1.0),
            ("terminate", "pregnancy", "q-", 1.0),
            ("prayed", "pastor", "agent", 1.0),
            ("prayed", "prevent", "intent+", 1.0),
            ("prevent", "planned", "q-", 1.0),
        ],
    )


def test_witches_and_pastor_hold_opposite_signs():
    vm = valence_map(witches_pastor_graph())
    for target in ("planned", "terminate", "pregnancy"):
        assert vm[("witches", target)] == -vm[("pastor", target)]
    assert vm[("witches", "planned")] == 1
    assert vm[("witches", "terminate")] == 1
    assert vm[("witches", "pregnancy")] == -1
    assert vm[("pastor", "prayed")] == 1
    assert vm[("pastor", "prevent")] == 1


def chain_graph(k, length=6):
    """source --intent+--> n0 --...--> n_{length-1}; first k hops are q-."""
    tokens = ["s"] + [f"n{i}" for i in range(length)]
    entities = [("src", Span(0, 1), "element", 1.0)] + [
        (f"n{i}", Span(i + 1, i + 2), "element", 1.0) for i in range(length)
    ]
    relations = [("src", "n0", "intent+", 1.0)]
    for i in range(length - 1):
        rtype = "q-" if i < k else "consequent"
        relations.append((f"n{i}", f"n{i+1}", rtype, 1.0))
    return assemble_graph(tokens, None, entities, (), relations)


def test_valence_parity_on_chains():
    for k in range(6):
        vm = valence_map(chain_graph(k))
        assert vm[(NORM, "n5")] == (-1) ** k


def test_negated_nodes_also_invert():
    # inversions via the negated attribute instead of q- edges
    for k in range(4):
        tokens = ["s"] + [f"n{i}" for i in range(4)]
        entities = [("src", Span(0, 1), "element", 1.0)] + [
            (f"n{i}", Span(i + 1, i + 2), "element", 1.0) for i in range(4)
        ]
        attributes = [(f"n{i}", "negated", 1.0) for i in range(k)]
        relations = [("src", "n0", "intent+", 1.0)] + [
            (f"n{i}", f"n{i+1}", "consequent", 1.0) for i in range(3)
        ]
        g = assemble_graph(tokens, None, entities, attributes, relations)
        assert valence_map(g)[(NORM, "n3")] == (-1) ** k


def test_valence_terminates_on_cycles():
    g = assemble_graph(
        ["a", "b", "c"], None,
        [("a", Span(0, 1), "element", 1.0),
         ("b", Span(1, 2), "element", 1.0),
         ("c", Span(2, 3), "element", 1.0)],
        relations=[
            ("a", "b", "intent+", 1.0),
            ("b", "c", "q-", 1.0),
            ("c", "b", "consequent", 1.0),  # odd-inversion cycle
        ],
    )
    assertions = compute_valence(g, ETHNO)
    # each (holder, node, sign) at most once
    assert len(assertions) == len(set((a.holder, a.target, a.sign) for a in assertions))
    signs_on_b = {a.sign for a in assertions if a.target == "b"}
    assert signs_on_b == {1, -1}  # both parities reachable around the loop


def test_valence_schema_mismatch():
    g = assemble_graph(
        ["a", "b"], None,
        [("a", Span(0, 1), "element", 1.0), ("b", Span(1, 2), "element", 1.0)],
        relations=[("a", "b", "arg0", 1.0)],
    )
    with pytest.raises(SchemaMismatchError):
        compute_valence(g, ETHNO)


# --- path queries ---------------------------------------------------------


def eating_corpus():
    def sentence(prov, eater, food, symptom):
        tokens = ["if", "a", eater, "eat", food, "the", "baby", "get", symptom]
        return assemble_graph(
            tokens, None,
            [("eat", Span(3, 4), "element", 1.0),
             ("who", Span(2, 3), "element", 1.0),
             ("food", Span(4, 5), "element", 1.0),
             ("symptom", Span(8, 9), "element", 1.0),
             ("baby", Span(6, 7), "element", 1.0)],
            relations=[
                ("eat", "who", "agent", 1.0),
                ("eat", "food", "object", 1.0),
                ("eat", "symptom", "q+", 1.0),
                ("symptom", "baby", "recipient", 1.0),
            ],
            provenance=prov,
        )

    return merge_corpus(
        [
            sentence("s1", "woman", "sugarcane", "stomachache"),
            sentence("s2", "mother", "eggs", "sick"),
            sentence("s3", "woman", "mango", "diarrhea"),
        ],
        lemma_link=True,
    )


def test_eat_to_baby_query():
    corpus = eating_corpus()
    start = NodePattern(
        lemma_any_of=frozenset({"eat"}),
        role_constraints=(("agent", NodePattern(lemma_any_of=frozenset({"woman", "mother"}))),),
    )
    end = NodePattern(lemma_any_of=frozenset({"baby"}))
    result = find_paths(corpus, start, end, max_len=3)
    # each sentence contributes at least its own eat -> symptom -> baby path
    for prov, symptom in (("s1", "stomachache"), ("s2", "sick"), ("s3", "diarrhea")):
        direct = (
            f"{prov}/eat", f"{prov}/eat->symptom:q+", f"{prov}/symptom",
            f"{prov}/symptom->baby:recipient", f"{prov}/baby",
        )
        assert direct in result.paths
        assert f"{prov}/symptom" in result.subgraph_nodes
    assert list(result.paths) == sorted(result.paths)


def test_find_paths_leaves_no_cycle_that_holds_the_corpus():
    # a recursive closure kept the corpus alive until a full collection
    corpus = eating_corpus()
    graph = weakref.ref(corpus.graphs[0])
    start = NodePattern(lemma_any_of=frozenset({"eat"}))
    gc.disable()
    try:
        result = find_paths(corpus, start, NodePattern(lemma_any_of=frozenset({"baby"})), max_len=3)
        assert result.paths
        del corpus, result
        assert graph() is None
    finally:
        gc.enable()


def test_pattern_matching():
    corpus = eating_corpus()
    g = corpus.graphs[0]
    by_id = g.entity_by_id()
    p = NodePattern(lemma_any_of=frozenset({"eat"}))
    assert p.matches(g, by_id["eat"]) and not p.matches(g, by_id["baby"])
    typed = NodePattern(entity_type="qualifier")
    assert not typed.matches(g, by_id["eat"])
    with pytest.raises(ValueError):
        NodePattern()
    rebuilt = NodePattern.from_dict(
        {"lemma_any_of": ["eat"], "role_constraints": [
            {"relation": "agent", "pattern": {"lemma_any_of": ["woman"]}}
        ]}
    )
    assert rebuilt.matches(g, by_id["eat"])


def test_no_match_gives_empty_result():
    corpus = eating_corpus()
    result = find_paths(
        corpus,
        NodePattern(lemma_any_of=frozenset({"unicorn"})),
        NodePattern(lemma_any_of=frozenset({"baby"})),
    )
    assert result.paths == ()
    assert result.subgraph_nodes == ()


def test_single_node_path_when_both_patterns_match():
    corpus = eating_corpus()
    result = find_paths(
        corpus,
        NodePattern(lemma_any_of=frozenset({"baby"})),
        NodePattern(lemma_any_of=frozenset({"baby"})),
        max_len=1,
    )
    assert ("s1/baby",) in result.paths


def chain_corpus():
    # a -> b -> c -> d -> e, one sentence
    tokens = list("abcde")
    return merge_corpus([assemble_graph(
        tokens, None, [(t, Span(i, i + 1), "element", 1.0) for i, t in enumerate(tokens)],
        relations=[(h, t, "q+", 1.0) for h, t in zip(tokens, tokens[1:])], provenance="c",
    )])


@pytest.mark.parametrize("max_len, message", [
    (0, "max_len must be >= 1"),
    # 1.5 used to bound nothing, so the walk enumerated every simple path,
    # and True ran as 1
    (1.5, "max_len must be an integer, got 1.5"),
    (True, "max_len must be an integer, got True"),
])
def test_find_paths_reads_max_len_as_an_integer_of_at_least_one(max_len, message):
    corpus = chain_corpus()
    anything = NodePattern(lemma_any_of=frozenset("abcde"))
    with pytest.raises(InputError, match=re.escape(message)):
        find_paths(corpus, NodePattern(lemma_any_of=frozenset("a")), anything, max_len=max_len)
    result = find_paths(corpus, NodePattern(lemma_any_of=frozenset("a")), anything, max_len=1)
    assert {len(path) // 2 for path in result.paths} == {0, 1}


def oracle_paths(corpus, start, end, max_len):
    """Exhaustive breadth-first enumeration of all simple paths."""
    nodes = corpus.nodes
    edges = []  # (edge_id, src, dst)
    for g in corpus.graphs:
        for r in g.relations:
            h, t = f"{g.provenance}/{r.head}", f"{g.provenance}/{r.tail}"
            eid = f"{g.provenance}/{r.id}"
            edges.append((eid, h, t))
            if r.relation_type == "modifier":
                edges.append((eid, t, h))
    for a, b in sorted(corpus.lemma_links):
        eid = f"lemma:{a}~{b}"
        edges.append((eid, a, b))
        edges.append((eid, b, a))

    starts = [gid for gid, (g, e) in nodes.items() if start.matches(g, e)]
    ends = {gid for gid, (g, e) in nodes.items() if end.matches(g, e)}
    found = set()
    frontier = [(s,) for s in starts]
    for _ in range(max_len + 1):
        next_frontier = []
        for path in frontier:
            if path[-1] in ends:
                found.add(path)
            for eid, src, dst in edges:
                if src == path[-1] and dst not in path[0::2]:
                    next_frontier.append(path + (eid, dst))
        frontier = next_frontier
    return sorted(found)


def test_find_paths_matches_oracle_on_random_corpora():
    rng = np.random.default_rng(1234)
    for _ in range(40):
        corpus = random_ethno_corpus(rng)
        g0 = corpus.graphs[0]
        start = NodePattern(lemma_any_of=frozenset({g0.lemmas[0]}))
        end_graph = corpus.graphs[-1]
        end = NodePattern(lemma_any_of=frozenset({end_graph.lemmas[-1]}))
        max_len = int(rng.integers(1, 5))
        result = find_paths(corpus, start, end, max_len=max_len)
        assert list(result.paths) == oracle_paths(corpus, start, end, max_len)
        for p in result.paths:
            assert len(p[0::2]) == len(set(p[0::2]))  # simple
            assert (len(p) - 1) // 2 <= max_len


def networkx_paths(corpus, start, end, max_len):
    """Second oracle: networkx all_simple_edge_paths over a MultiDiGraph
    whose lemma links come from comparing every node pair's lemma sets."""
    nodes = corpus.nodes
    graph = nx.MultiDiGraph()
    graph.add_nodes_from(nodes)
    for g in corpus.graphs:
        for r in g.relations:
            h, t = f"{g.provenance}/{r.head}", f"{g.provenance}/{r.tail}"
            graph.add_edge(h, t, key=f"{g.provenance}/{r.id}")
            if r.relation_type == "modifier":
                graph.add_edge(t, h, key=f"{g.provenance}/{r.id}")
    ids = sorted(nodes)
    for i, a in enumerate(ids):
        ga, ea = nodes[a]
        for b in ids[i + 1 :]:
            gb, eb = nodes[b]
            if ga is not gb and ga.entity_lemmas(ea) & gb.entity_lemmas(eb):
                graph.add_edge(a, b, key=f"lemma:{a}~{b}")
                graph.add_edge(b, a, key=f"lemma:{a}~{b}")
    starts = sorted(gid for gid, (g, e) in nodes.items() if start.matches(g, e))
    ends = {gid for gid, (g, e) in nodes.items() if end.matches(g, e)}
    found = []
    for s in starts:
        # a start that is also an end yields the empty edge path
        for edge_path in nx.all_simple_edge_paths(graph, s, ends, cutoff=max_len):
            found.append((s,) + tuple(x for _, v, key in edge_path for x in (key, v)))
    return sorted(found)


def test_find_paths_matches_networkx_on_hub_corpora():
    rng = np.random.default_rng(4321)
    multi_member_hubs = two_lemma_links = lemma_steps = 0
    for _ in range(60):
        corpus = random_hub_corpus(rng, n_graphs=int(rng.integers(3, 7)))
        nodes = corpus.nodes
        for members in corpus.by_lemma.values():
            provs = [nodes[m][0].provenance for m in members]
            multi_member_hubs += len(provs) > len(set(provs)) >= 2
        for a, b in corpus.lemma_links:
            (ga, ea), (gb, eb) = nodes[a], nodes[b]
            two_lemma_links += len(ga.entity_lemmas(ea) & gb.entity_lemmas(eb)) >= 2
        lemmas = sorted({lemma for g in corpus.graphs for lemma in g.lemmas})
        start = NodePattern(lemma_any_of=frozenset({lemmas[rng.integers(len(lemmas))]}))
        end = NodePattern(lemma_any_of=frozenset({lemmas[rng.integers(len(lemmas))]}))
        max_len = int(rng.integers(1, 5))
        result = find_paths(corpus, start, end, max_len=max_len)
        assert list(result.paths) == networkx_paths(corpus, start, end, max_len)
        lemma_steps += sum(eid.startswith("lemma:") for p in result.paths for eid in p[1::2])
    # the corpora exercise what the hub expansion must get right
    assert multi_member_hubs and two_lemma_links and lemma_steps


def test_networkx_oracle_agrees_with_exhaustive_oracle():
    rng = np.random.default_rng(99)
    for _ in range(40):
        corpus = random_ethno_corpus(rng)
        start = NodePattern(lemma_any_of=frozenset({corpus.graphs[0].lemmas[0]}))
        end = NodePattern(lemma_any_of=frozenset({corpus.graphs[-1].lemmas[-1]}))
        max_len = int(rng.integers(1, 5))
        assert networkx_paths(corpus, start, end, max_len) == oracle_paths(corpus, start, end, max_len)


@pytest.mark.parametrize("doc", [
    5,
    ["lemma_any_of"],
    {},
    {"lemma_any_of": 5},
    {"lemma_any_of": "eat"},
    {"lemma_any_of": ["eat", 3]},
    {"required_attributes": [None]},
    {"entity_type": ["element"]},
    {"entity_type": None},
    {"role_constraints": {"relation": "agent"}},
    {"role_constraints": [{"relation": "agent"}]},
    {"role_constraints": [{"relation": 1, "pattern": {"entity_type": "element"}}]},
    {"role_constraints": [{"relation": "agent", "pattern": {"lemma_any_of": 5}}]},
    {"role_constraints": ["agent"]},
])
def test_pattern_from_dict_rejects_malformed_documents(doc):
    with pytest.raises(QueryError):
        NodePattern.from_dict(doc)


@pytest.mark.parametrize("fields", [
    {"lemma_any_of": "a"},
    {"entity_type": 5},
    {"required_attributes": frozenset({"causation", 3})},
    {"role_constraints": (("q+", "x"),)},
])
def test_node_pattern_refuses_a_field_of_another_type(fields):
    (name,) = fields
    with pytest.raises(QueryError, match=name):
        NodePattern(**fields)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.sampled_from(["lemma_any_of", "entity_type", "required_attributes",
                         "role_constraints", "relation", "pattern"]) | st.text(max_size=5),
        children,
        max_size=4,
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(JSON)
def test_pattern_from_dict_returns_a_pattern_or_raises_query_error(doc):
    try:
        pattern = NodePattern.from_dict(doc)
    except QueryError:
        return
    assert pattern.entity_type == doc.get("entity_type")
    for key in ("lemma_any_of", "required_attributes"):
        assert getattr(pattern, key) == (frozenset(doc[key]) if key in doc else None)


def scan_matches(pattern, graph, entity):
    """NodePattern.matches without the per-graph index: every tested node
    rebuilds entity_by_id and scans all relations for its outgoing edges."""
    if pattern.lemma_any_of is not None and not (pattern.lemma_any_of & graph.entity_lemmas(entity)):
        return False
    if pattern.entity_type is not None and entity.entity_type != pattern.entity_type:
        return False
    if pattern.required_attributes is not None and not (pattern.required_attributes <= entity.attribute_types()):
        return False
    if pattern.role_constraints is not None:
        by_id = graph.entity_by_id()
        for rel_type, sub in pattern.role_constraints:
            if not any(
                r.relation_type == rel_type and scan_matches(sub, graph, by_id[r.tail])
                for r in graph.relations
                if r.head == entity.id
            ):
                return False
    return True


@st.composite
def role_patterns(draw, lemmas, relation_types, depth=2):
    lemma_any_of = draw(st.none() | st.frozensets(st.sampled_from(lemmas), max_size=3))
    # types and attributes of ethno and sciclaim nodes, and a type no node has
    entity_type = draw(st.none() | st.sampled_from(["element", "qualifier", "unheld"]))
    attribute_sets = [frozenset(), frozenset({"causation"}), frozenset({"causation", "sign+"})]
    attributes = draw(st.none() | st.sampled_from(attribute_sets))
    roles = None
    if depth and draw(st.booleans()):
        sub = role_patterns(lemmas, relation_types, depth - 1)
        roles = tuple(draw(st.lists(st.tuples(st.sampled_from(relation_types), sub), min_size=1, max_size=2)))
    if lemma_any_of is None and entity_type is None and attributes is None and roles is None:
        entity_type = "element"
    return NodePattern(lemma_any_of, entity_type, attributes, roles)


def test_role_matches_agree_with_a_relation_scan():
    role_hits = [0]

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
    def check(seed, hubs, data):
        rng = np.random.default_rng(seed)
        corpus = random_hub_corpus(rng) if hubs else random_ethno_corpus(rng)
        lemmas = sorted({lemma for g in corpus.graphs for lemma in g.lemmas})
        relation_types = sorted({r.relation_type for g in corpus.graphs for r in g.relations} or {"agent"})
        pattern = data.draw(role_patterns(lemmas, relation_types))
        patterns = [pattern]
        # and one the head of a relation the corpus holds is sure to match,
        # so the count below does not hang on the patterns drawn
        relations = [(g, r) for g in corpus.graphs for r in g.relations]
        if relations:
            g, r = data.draw(st.sampled_from(relations))
            tail = NodePattern(lemma_any_of=g.entity_lemmas(g.entity(r.tail)))
            patterns.append(NodePattern(role_constraints=((r.relation_type, tail),)))
        for g, e in corpus.nodes.values():
            for p in patterns:
                got = p.matches(g, e)
                assert got == scan_matches(p, g, e)
                role_hits[0] += got and p.role_constraints is not None

    check()
    assert role_hits[0] > 10


def test_find_paths_on_a_corpus_built_without_merge_corpus():
    # a CorpusGraph built directly builds its own lookups
    rng = np.random.default_rng(2718)
    paths = 0
    for trial in range(40):
        corpus = random_hub_corpus(rng, n_graphs=int(rng.integers(3, 7))) if trial % 2 else random_ethno_corpus(rng)
        direct = CorpusGraph(corpus.graphs, lemma_link=True)
        lemmas = sorted({lemma for g in corpus.graphs for lemma in g.lemmas})
        start = NodePattern(lemma_any_of=frozenset({lemmas[rng.integers(len(lemmas))]}))
        end = NodePattern(lemma_any_of=frozenset({lemmas[rng.integers(len(lemmas))]}))
        max_len = int(rng.integers(1, 5))
        result = find_paths(direct, start, end, max_len=max_len)
        assert result == find_paths(corpus, start, end, max_len=max_len)
        paths += len(result.paths)
    assert paths


def test_find_paths_on_a_corpus_replaced_with_fewer_graphs():
    # the copy derives its lookups from the graphs it keeps, so no link names a dropped node
    rng = np.random.default_rng(43)
    paths = 0
    for trial in range(30):
        corpus = (random_hub_corpus, random_ethno_corpus, random_sciclaim_corpus)[trial % 3](rng)
        k = 1 if trial == 0 else int(rng.integers(1, len(corpus.graphs) + 1))
        fewer = replace(corpus, graphs=corpus.graphs[:k])
        fresh = merge_corpus(corpus.graphs[:k], lemma_link=True)
        assert fewer.lemma_links == fresh.lemma_links
        lemmas = sorted({lemma for g in fewer.graphs for lemma in g.lemmas})
        start = NodePattern(lemma_any_of=frozenset(lemmas))
        end = NodePattern(lemma_any_of=frozenset({lemmas[rng.integers(len(lemmas))]}))
        result = find_paths(fewer, start, end, max_len=2)
        assert result == find_paths(fresh, start, end, max_len=2)
        paths += len(result.paths)
    assert paths


def test_index_selected_candidates_agree_with_a_scan():
    lemma_patterns, typed_patterns = [0], [0]

    # sciclaim corpora carry attributes, which ethno ones lack
    corpora = st.sampled_from([random_ethno_corpus, random_hub_corpus, random_sciclaim_corpus])

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), corpora, st.data())
    def check(seed, corpus_of, data):
        corpus = corpus_of(np.random.default_rng(seed))
        # lemmas no node holds too, which select no candidate
        lemmas = sorted({lemma for g in corpus.graphs for lemma in g.lemmas} | {"unheld"})
        relation_types = sorted({r.relation_type for g in corpus.graphs for r in g.relations} or {"agent"})
        pattern = data.draw(role_patterns(lemmas, relation_types))
        # and one a lemma of some node is sure to select, so the count
        # below does not hang on the patterns drawn
        held = sorted({lemma for g, e in corpus.nodes.values() for lemma in g.entity_lemmas(e)})
        sure = NodePattern(lemma_any_of=frozenset({data.draw(st.sampled_from(held))}))
        for p in (pattern, sure):
            expected = sorted(gid for gid, (g, e) in corpus.nodes.items() if scan_matches(p, g, e))
            assert matching_nodes(corpus, p) == expected
            lemma_patterns[0] += p.lemma_any_of is not None and bool(expected)
            typed_patterns[0] += typed_only(p) and bool(expected)

    check()
    assert lemma_patterns[0] > 20 and typed_patterns[0] > 20


def typed_only(pattern):
    """Whether the pattern names an entity type or an attribute and no lemma:
    one `matching_nodes` looks up in the corpus's typed buckets."""
    return pattern.lemma_any_of is None and (pattern.entity_type is not None or bool(pattern.required_attributes))


def test_a_typed_lookup_tests_only_the_nodes_of_its_bucket(monkeypatch):
    tested = []
    matches = NodePattern.matches
    monkeypatch.setattr(NodePattern, "matches", lambda self, g, e: tested.append(e) or matches(self, g, e))
    corpus = random_sciclaim_corpus(np.random.default_rng(59), n_graphs=12)
    nodes = corpus.nodes
    qualifiers = [e for _, e in nodes.values() if e.entity_type == "qualifier"]
    assert 0 < len(qualifiers) < len(nodes) / 3
    assert len(matching_nodes(corpus, NodePattern(entity_type="qualifier"))) == len(qualifiers)
    assert tested == qualifiers
    # later typed lookups read the buckets the first built, each only the
    # shortest its pattern names, whether a type or an attribute names it
    buckets = by_type, by_attribute = corpus.typed_buckets()
    types = sorted(by_type, key=lambda t: len(by_type[t]))
    attrs = sorted(by_attribute, key=lambda a: len(by_attribute[a]))
    assert len(by_type[types[0]]) < len(by_attribute[attrs[-1]])
    assert len(by_attribute[attrs[0]]) < len(by_type[types[-1]])
    for entity_type, attributes, bucket in [
        (types[0], {attrs[-1]}, by_type[types[0]]),
        (types[-1], {attrs[0], attrs[-1]}, by_attribute[attrs[0]]),
    ]:
        pattern = NodePattern(entity_type=entity_type, required_attributes=frozenset(attributes))
        tested.clear()
        expected = sorted(gid for gid, (g, e) in nodes.items() if scan_matches(pattern, g, e))
        assert matching_nodes(corpus, pattern) == expected
        assert tested == [nodes[gid][1] for gid in bucket]
    assert corpus.typed_buckets() is buckets
