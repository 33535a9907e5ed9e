"""The one-pass graph loader against the two loaders kept in
loader_reference.py.  Against the two-pass loader: every document it loads
must load to the same graph, written to the same bytes, unless it holds a
mistyped string field that the oracle coerced; then, and wherever the
oracle fails, the loader must raise GraphError and nothing else.  Against
the loader that hands every element to a builder method: the same graph
and bytes, or the same error class with the same message."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loader_reference as reference
import synth
from causalkg.errors import GraphError
from causalkg import graphs
from causalkg.graphs import Span, _GraphBuilder, assemble_graph, graph_from_dict, graph_to_dict, graph_to_json
from causalkg.rectify import rectify
from causalkg.schema import load_schema

from test_graph_json import dense_linked_graphs

SCICLAIM = load_schema("sciclaim")


def assert_loads_like_the_oracle(graph):
    doc = json.loads(graph_to_json(graph))
    got, want = graph_from_dict(doc), reference.graph_from_dict(doc)
    assert got == want == graph
    assert graph_to_json(got) == graph_to_json(want)


def reassembled(graph):
    """The graph's elements as assemble_graph tuples, through both assemblers."""
    args = (
        graph.tokens, graph.lemmas,
        [(e.id, e.span, e.entity_type, e.confidence) for e in graph.entities],
        [(e.id, t, c) for e in graph.entities for t, c in e.attributes],
        [(r.head, r.tail, r.relation_type, r.confidence) for r in graph.relations],
    )
    senses = [(e.id, s, c) for e in graph.entities for s, c in e.senses]
    return (assemble_graph(*args, provenance=graph.provenance, senses=senses),
            reference.assemble_graph(*args, provenance=graph.provenance, senses=senses))


def test_criterion_4_graphs():
    # the graphs and rectified graphs of criterion 4 (same seed and count)
    rng = np.random.default_rng(404)
    for i in range(500):
        g = synth.random_sciclaim_graph(rng, provenance=f"a{i}")
        fixed, _ = rectify(g, SCICLAIM)
        assert_loads_like_the_oracle(g)
        assert_loads_like_the_oracle(fixed)
        new, old = reassembled(g)
        assert new == old == g


def test_sense_linked_dense_graphs():
    senses = 0
    for raw, linked, _, linked_raw in dense_linked_graphs():
        for graph in (raw, linked, linked_raw):
            assert_loads_like_the_oracle(graph)
            new, old = reassembled(graph)
            assert new == old == graph
        senses += sum(len(e.senses) for e in linked_raw.entities)
    assert senses


def test_hub_corpus_graphs():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        for graph in synth.random_hub_corpus(rng, n_graphs=int(rng.integers(2, 7))).graphs:
            assert_loads_like_the_oracle(graph)


def base_documents():
    """Small sciclaim graph documents, some with ranked senses."""
    rng = np.random.default_rng(5)
    docs = []
    for i in range(12):
        doc = graph_to_dict(synth.random_sciclaim_graph(rng, provenance=f"b{i}"))
        for k, entity in enumerate(doc["entities"][: i % 3]):
            entity["senses"] = [{"sense": f"s.n.0{k}", "confidence": 0.5 - k}, {"sense": "t.n.01", "confidence": 2}]
        docs.append(doc)
    return docs


BASES = base_documents()
# values that hit every check: ids that collide or dangle, offsets that
# repeat or overrun a span, out-of-range and non-finite confidences,
# and every mistyped JSON value a string, number or list field can hold
VALUES = [
    None, True, False, 0, 1, 2, 3, 9, -1, 0.0, 0.25, 0.5, 1.5, 1.0, float("nan"), float("inf"), 10**400,
    "", "e0", "e1", "e2", "arg0", "q+", "causation", "0.5", "t1", "abc",
    [], ["t0"], [1], ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"], {}, {"type": "x"},
]


def containers(value):
    """Every object and list nested in a document, the document first."""
    if isinstance(value, (dict, list)):
        yield value
        for child in value.values() if isinstance(value, dict) else value:
            yield from containers(child)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.sampled_from([1, 1, 2, 3]))):
        action = draw(st.sampled_from(["set", "set", "set", "retype", "delete", "twin", "twin"]))
        records = [c for c in containers(doc) if isinstance(c, list) and any(isinstance(r, dict) and r for r in c)]
        if action == "twin" and records:
            # a copy of a record with one field redrawn: a repeated span,
            # relation, attribute or id, a self-loop or a dangling end
            parent = draw(st.sampled_from(records))
            twin = copy.deepcopy(draw(st.sampled_from([r for r in parent if isinstance(r, dict) and r])))
            own = draw(st.sampled_from(list(twin)))
            twin[own] = copy.deepcopy(draw(st.sampled_from([v for v in VALUES if type(v) is type(twin[own])] or VALUES)))
            parent.append(twin)
            continue
        # a container first, then one of its keys, so that small records
        # such as senses are edited as often as the token list
        nonempty = [c for c in containers(doc) if c]
        if not nonempty:
            break
        parent = draw(st.sampled_from(nonempty))
        key = draw(st.sampled_from(list(parent) if isinstance(parent, dict) else range(len(parent))))
        if action == "delete":
            del parent[key]
        elif action == "retype":
            parent[key] = copy.deepcopy(draw(st.sampled_from(VALUES)))
        else:
            # a value of the same JSON type, so that most edits reach the
            # invariant checks rather than the type checks
            same = [v for v in VALUES if type(v) is type(parent[key])]
            parent[key] = copy.deepcopy(draw(st.sampled_from(same or VALUES)))
    return doc


def mistyped(doc) -> bool:
    """Whether a field that must hold a string, or a list, holds something else."""
    if not isinstance(doc, dict):
        return False

    def strings(value):
        return not isinstance(value, list) or not all(isinstance(s, str) for s in value)

    if strings(doc.get("tokens", [])) or (doc.get("lemmas") is not None and strings(doc["lemmas"])):
        return True
    if not isinstance(doc.get("provenance", ""), str):
        return True
    entities, relations = doc.get("entities", []), doc.get("relations", [])
    if not isinstance(entities, list) or not isinstance(relations, list):
        return True
    for e in entities:
        if not isinstance(e, dict):
            continue
        if any(not isinstance(e.get(k, ""), str) for k in ("id", "type")):
            return True
        attributes, senses = e.get("attributes", []), e.get("senses", [])
        if not isinstance(attributes, list) or not isinstance(senses, list):
            return True
        if any(isinstance(a, dict) and not isinstance(a.get("type", ""), str) for a in attributes):
            return True
    return any(
        isinstance(r, dict) and any(not isinstance(r.get(k, ""), str) for k in ("head", "tail", "type"))
        for r in relations
    )


def outcome(load, doc):
    """The graph a loader returns, or the class and message of the error it raises."""
    try:
        return load(doc)
    except Exception as exc:  # the two-pass oracle lets OverflowError through
        return type(exc), str(exc)


def assert_same_outcome(doc):
    """The loader loads the graph the builder-method loader loads, written to
    the same bytes, or raises the error class and message it raises."""
    got, want = outcome(graph_from_dict, doc), outcome(reference.builder_graph_from_dict, doc)
    assert got == want
    if isinstance(got, graphs.KnowledgeGraph):
        assert graph_to_json(got) == graph_to_json(want)
    return got


def test_mutated_documents_load_like_the_oracle_or_raise_graph_error():
    outcomes = {"equal": 0, "both reject": 0, "coercion rejected": 0}

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(mutated_documents())
    def check(doc):
        got = assert_same_outcome(doc)
        if not isinstance(got, graphs.KnowledgeGraph):
            assert issubclass(got[0], GraphError), got
            got = None
        want = outcome(reference.graph_from_dict, doc)
        if not isinstance(want, graphs.KnowledgeGraph):
            want = None
        if got is not None:
            assert want is not None and got == want
            assert graph_to_json(got) == graph_to_json(want)
            outcomes["equal"] += 1
        elif want is None:
            outcomes["both reject"] += 1
        else:
            assert mistyped(doc), "the loader rejects a document the oracle loads as written"
            outcomes["coercion rejected"] += 1

    check()
    assert min(outcomes.values()) >= 10, outcomes


# Confidences at the edges of [0, 1], where ints are valid but coerced, and
# the next float past 1
EDGE_CONFIDENCES = [0, 1, -0.0, 0.0, 1.0]
PAST_ONE = 1.0000000000000002


@st.composite
def valid_documents(draw):
    """Graph documents that load, with multi-token, adjacent and nested
    spans, attributes, ranked senses and relation types first seen
    mid-document; one in five instead holds a confidence past 1 or a NaN
    sense confidence, which must raise as the builder methods raise."""
    n = draw(st.integers(1, 7))
    tokens = draw(st.lists(st.sampled_from(["Rain", "rain", "floods", "a", "b"]), min_size=n, max_size=n))
    spans = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(1, n)).filter(lambda b: b[0] < b[1]),
        max_size=8, unique=True,
    ))
    confidence = st.floats(0.0, 1.0) | st.sampled_from(EDGE_CONFIDENCES)
    entities = []
    for k, (start, end) in enumerate(spans):
        attributes = draw(st.lists(st.sampled_from(["sign+", "sign-", "test"]), max_size=3, unique=True))
        senses = draw(st.lists(st.sampled_from(["rain.n.01", "rain.v.01", "flood.n.01"]), max_size=2))
        entities.append({
            "id": draw(st.sampled_from([f"e{k}", f"e/{k}", f"#{k}"])),
            "start": start, "end": end, "type": draw(st.sampled_from(["factor", "association"])),
            "confidence": draw(confidence),
            "attributes": [{"type": t, "confidence": draw(confidence)} for t in attributes],
            "senses": [{"sense": s, "confidence": draw(st.floats(-2.0, 2.0) | st.sampled_from([0, 2]))} for s in senses],
        })
    ids = list(dict.fromkeys(e["id"] for e in entities))
    keys = []
    if len(ids) > 1:
        pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] != p[1])
        keys = draw(st.lists(
            st.tuples(pairs, st.sampled_from(["arg0", "arg1", "modifier"])).map(lambda k: (*k[0], k[1])),
            max_size=10, unique=True,
        ))
    relations = [{"head": h, "tail": t, "type": r, "confidence": draw(confidence)} for h, t, r in keys]
    fault = draw(st.sampled_from([None, None, None, None, "past one", "nan sense"]))
    records = {
        "past one": entities + [a for e in entities for a in e["attributes"]] + relations,
        "nan sense": [s for e in entities for s in e["senses"]],
    }.get(fault)
    if records:
        draw(st.sampled_from(records))["confidence"] = PAST_ONE if fault == "past one" else float("nan")
    doc = {"tokens": tokens, "entities": entities, "relations": relations}
    lemmas = draw(st.sampled_from(["absent", None, "lower"]))
    if lemmas != "absent":
        doc["lemmas"] = lemmas and [t.lower() for t in tokens]
    doc["provenance"] = draw(st.sampled_from(["", "p0", "a/b"]))
    # the stdlib writes and parses NaN, as the loader reads it from a file
    return json.loads(json.dumps(doc))


def test_valid_documents_load_like_the_builder_method_loader():
    outcomes = {"loaded": 0, "raised": 0, "coerced": 0, "new type mid-document": 0}

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(valid_documents())
    def check(doc):
        got = assert_same_outcome(doc)
        if not isinstance(got, graphs.KnowledgeGraph):
            outcomes["raised"] += 1
            return
        outcomes["loaded"] += 1
        assert got == reference.graph_from_dict(doc)
        assert graph_from_dict(json.loads(graph_to_json(got))) == got
        confidences = [r["confidence"] for r in doc["relations"]] + [e["confidence"] for e in doc["entities"]]
        outcomes["coerced"] += any(type(c) is int for c in confidences)
        types = [r["type"] for r in doc["relations"]]
        outcomes["new type mid-document"] += len(set(types[1:]) - {types[0]}) > 0 if types else 0

    check()
    assert outcomes["loaded"] >= 300 and min(outcomes.values()) >= 20, outcomes


def end_records(doc):
    """The first and the last entity, attribute, sense and relation record."""
    attributes = [a for e in doc["entities"] for a in e["attributes"]]
    senses = [s for e in doc["entities"] for s in e["senses"]]
    for records in (doc["entities"], attributes, senses, doc["relations"]):
        yield from {id(r): r for r in records[:1] + records[-1:]}.values()


DELETED = object()


def test_one_field_faults_raise_what_the_builder_methods_raise():
    loaded = raised = 0
    for doc in BASES:
        for record in end_records(doc):
            kept = dict(record)
            for key in kept:
                for value in VALUES + [DELETED]:
                    if value is DELETED:
                        del record[key]
                    else:
                        record[key] = value
                    try:
                        got = assert_same_outcome(doc)
                    finally:
                        record.clear()
                        record.update(kept)
                    if isinstance(got, graphs.KnowledgeGraph):
                        loaded += 1
                    else:
                        raised += 1
    # the bases are as they were built, key order included, which the
    # Hypothesis fuzz draws keys in
    assert json.dumps(BASES) == json.dumps(base_documents())
    assert loaded > 1500 and raised > 8000, (loaded, raised)


class Tripped(Exception):
    """Raised in place of the error of a builder method."""


def arm_tripwires(monkeypatch):
    """Make each per-element builder method raise Tripped(its name) when,
    and only when, the real method raises."""
    def tripwire(name, method):
        def trip(*args):
            try:
                return method(*args)
            except Exception as exc:
                raise Tripped(name) from exc
        return trip

    for name in ("entity", "attribute", "sense", "relation"):
        method = _GraphBuilder.__dict__[name]
        if isinstance(method, staticmethod):
            monkeypatch.setattr(_GraphBuilder, name, staticmethod(tripwire(name, method.__func__)))
        else:
            monkeypatch.setattr(_GraphBuilder, name, tripwire(name, method))
    # a span's bounds are checked where the Span is built, before `entity`
    monkeypatch.setattr(Span, "__post_init__", tripwire("span", Span.__post_init__))


def faulty(edit):
    doc = copy.deepcopy(BASES[2])
    edit(doc)
    return doc


@pytest.mark.parametrize("doc, method", [
    (faulty(lambda d: d["entities"][-1].update(end=len(d["tokens"]) + 1)), "entity"),
    (faulty(lambda d: d["entities"][-1].update(id=d["entities"][0]["id"])), "entity"),
    (faulty(lambda d: d["entities"][0].update(confidence=1.5)), "entity"),
    (faulty(lambda d: d["entities"][0]["attributes"].append({"type": "x", "confidence": 2})), "attribute"),
    (faulty(lambda d: d["entities"][0]["senses"].append({"sense": "x", "confidence": float("inf")})), "sense"),
    (faulty(lambda d: d["relations"][0].update(tail=d["relations"][0]["head"])), "relation"),
    (faulty(lambda d: d["relations"].append(d["relations"][0])), "relation"),
    (faulty(lambda d: d["relations"][0].update(head="nobody")), "relation"),
    (faulty(lambda d: d["relations"][-1].update(tail="nobody")), "relation"),
    (faulty(lambda d: d["entities"][-1].update(start=d["entities"][0]["start"], end=d["entities"][0]["end"])), "entity"),
    (faulty(lambda d: d["entities"][-1].update(start=d["entities"][-1]["end"])), "span"),
    (faulty(lambda d: d["entities"][-1]["attributes"].append(dict(d["entities"][-1]["attributes"][0]))), "attribute"),
    # faults in records that are otherwise regular, unlike entities[0] with its int sense confidence
    (faulty(lambda d: d["entities"][-1].update(confidence=1.5)), "entity"),
    (faulty(lambda d: d["entities"][-1]["attributes"][0].update(confidence=-0.5)), "attribute"),
    (faulty(lambda d: d["entities"][-1]["senses"].append({"sense": "x", "confidence": float("nan")})), "sense"),
    (faulty(lambda d: d["relations"][-1].update(confidence=1.0000000000000002)), "relation"),
])
def test_a_faulty_record_reaches_its_builder_method(monkeypatch, doc, method):
    arm_tripwires(monkeypatch)
    with pytest.raises(Tripped, match=f"^{method}$"):
        graph_from_dict(doc)
