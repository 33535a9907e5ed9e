import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalkg.errors import QueryError, SchemaMismatchError
from causalkg.graphs import CorpusGraph, Span, assemble_graph, merge_corpus
from causalkg.reasoning import (
    NORM,
    NodePattern,
    compute_valence,
    find_paths,
    matching_nodes,
)
from causalkg.schema import load_schema

from synth import random_ethno_corpus, random_hub_corpus

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


def oracle_paths(corpus, start, end, max_len):
    """Exhaustive breadth-first enumeration of all simple paths."""
    nodes = corpus.index.nodes
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
    nodes = corpus.index.nodes
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
        nodes = corpus.index.nodes
        for _, members in corpus.lemma_hubs:
            provs = [nodes[m][0].provenance for m in members]
            multi_member_hubs += len(provs) > len(set(provs))
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
    entity_type = draw(st.none() | st.sampled_from(["element", "qualifier"]))
    attributes = draw(st.none() | st.just(frozenset()) | st.just(frozenset({"negated"})))
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
        for g, e in corpus.index.nodes.values():
            got = pattern.matches(g, e)
            assert got == scan_matches(pattern, g, e)
            role_hits[0] += got and pattern.role_constraints is not None

    check()
    assert role_hits[0] > 10


def test_find_paths_on_a_corpus_built_without_merge_corpus():
    # a CorpusGraph built directly builds its index on first use
    rng = np.random.default_rng(2718)
    paths = 0
    for trial in range(40):
        corpus = random_hub_corpus(rng, n_graphs=int(rng.integers(3, 7))) if trial % 2 else random_ethno_corpus(rng)
        direct = CorpusGraph(corpus.graphs, corpus.lemma_hubs)
        lemmas = sorted({lemma for g in corpus.graphs for lemma in g.lemmas})
        start = NodePattern(lemma_any_of=frozenset({lemmas[rng.integers(len(lemmas))]}))
        end = NodePattern(lemma_any_of=frozenset({lemmas[rng.integers(len(lemmas))]}))
        max_len = int(rng.integers(1, 5))
        result = find_paths(direct, start, end, max_len=max_len)
        assert result == find_paths(corpus, start, end, max_len=max_len)
        paths += len(result.paths)
    assert paths


def test_index_selected_candidates_agree_with_a_scan():
    lemma_patterns = [0]

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
    def check(seed, hubs, data):
        rng = np.random.default_rng(seed)
        corpus = random_hub_corpus(rng) if hubs else random_ethno_corpus(rng)
        # lemmas no node holds too, which select no candidate
        lemmas = sorted({lemma for g in corpus.graphs for lemma in g.lemmas} | {"unheld"})
        relation_types = sorted({r.relation_type for g in corpus.graphs for r in g.relations} or {"agent"})
        pattern = data.draw(role_patterns(lemmas, relation_types))
        expected = sorted(gid for gid, (g, e) in corpus.index.nodes.items() if scan_matches(pattern, g, e))
        assert matching_nodes(corpus, pattern) == expected
        lemma_patterns[0] += pattern.lemma_any_of is not None and bool(expected)

    check()
    assert lemma_patterns[0] > 20
