import dataclasses
import json
import re

import numpy as np
import pytest

import synth
from causalkg import schema as schema_module
from causalkg.encoder import EncoderConfig
from causalkg.errors import SchemaParseError, UnknownTypeError, UnknownTypeReferenceError
from causalkg.graphs import Span, assemble_graph
from causalkg.model import Model, extract, load_model, save_model
from causalkg.schema import check_constraints, load_schema, scan_constraints, schema_to_dict

from synth import random_sciclaim_graph


def test_sciclaim_inventories():
    s = load_schema("sciclaim")
    assert set(s.entity_types) == {
        "factor", "evidence", "epistemic", "association", "magnitude", "qualifier"
    }
    assert set(s.attribute_types) == {
        "causation", "comparison", "indicates", "sign+", "sign-", "correlation", "test"
    }
    assert set(s.relation_types) == {
        "arg0", "arg1", "comp_to", "modifier", "subtype", "q+", "q-"
    }
    assert s.causal_relation_types == {"q+", "q-"}


def test_ethno_inventories():
    s = load_schema("ethno")
    assert set(s.entity_types) == {"element", "qualifier"}
    assert set(s.attribute_types) == {"tradition", "event", "influence", "prescribed", "negated"}
    assert set(s.relation_types) == {
        "agent", "object", "recipient", "consequent", "modifier",
        "intent+", "function+", "q+", "q-", "t+",
    }
    assert s.causal_relation_types == {"q+", "q-", "intent+", "function+", "t+"}


def test_schema_json_round_trip():
    s = load_schema("sciclaim")
    back = load_schema(json.dumps(schema_to_dict(s)))
    assert schema_to_dict(back) == schema_to_dict(s)


def test_bad_schema_documents():
    with pytest.raises(SchemaParseError):
        load_schema("not json {{{")
    doc = schema_to_dict(load_schema("sciclaim"))
    doc["relation_signatures"]["q+"]["tail"] = ["no_such_type"]
    with pytest.raises(UnknownTypeReferenceError):
        load_schema(json.dumps(doc))
    with pytest.raises(SchemaParseError):
        load_schema(json.dumps({"name": "x"}))


@pytest.mark.parametrize("key", ["exclusive_attribute_pairs", "exclusive_relation_pairs"])
@pytest.mark.parametrize("pair", [[], ["q+", "q+"], ["sign+", "sign+"], ["q+", "q-", "sign+"]])
def test_exclusive_pairs_name_two_types(key, pair):
    # a one-type "pair" used to load and then fail every constraint check
    # with a bare ValueError
    doc = schema_to_dict(load_schema("sciclaim"))
    doc[key] = [pair]
    with pytest.raises(SchemaParseError, match=f"must name 2 distinct types, not {len(set(pair))}$"):
        load_schema(json.dumps(doc))


# a second copy of one declared name per type list
REPEATS = {"entity_types": "factor", "attribute_types": "sign+", "relation_types": "arg0"}


@pytest.mark.parametrize("key", sorted(REPEATS))
def test_a_type_list_names_each_type_once(key, tmp_path):
    # a repeated name used to load and give two codes one name: extraction
    # then built relations with codes past the collapsed type table
    s = load_schema("sciclaim")
    message = re.escape(f"schema {key!r} names {REPEATS[key]!r} more than once")
    with pytest.raises(SchemaParseError, match=message):
        dataclasses.replace(s, **{key: getattr(s, key) + (REPEATS[key],)})
    doc = schema_to_dict(s)
    doc[key].append(REPEATS[key])
    with pytest.raises(SchemaParseError, match=message):
        load_schema(json.dumps(doc))
    path = tmp_path / "model.json"
    save_model(Model.initialize(s, EncoderConfig(dimension=4)), str(path))
    model_doc = json.loads(path.read_text())
    model_doc["schema"] = doc
    path.write_text(json.dumps(model_doc))
    with pytest.raises(SchemaParseError, match=message):
        load_model(str(path))


def test_codes_number_the_types_in_order():
    s = load_schema("ethno")
    for names, codes in (
        (s.entity_types, s.entity_codes),
        (s.attribute_types, s.attribute_codes),
        (s.relation_types, s.relation_codes),
    ):
        assert list(codes) == list(names) and list(codes.values()) == list(range(len(names)))


def test_empty_graph_no_violations():
    s = load_schema("sciclaim")
    assert check_constraints(assemble_graph([], None, []), s) == []


def test_attribute_domain_violation():
    s = load_schema("sciclaim")
    g = assemble_graph(
        ["smoking"], None,
        [("e0", Span(0, 1), "factor", 0.8)],
        attributes=[("e0", "sign+", 0.7)],
    )
    violations = check_constraints(g, s)
    assert len(violations) == 1
    v = violations[0]
    assert v.kind == "AttributeDomain"
    assert v.keys == (("attribute", "e0", "sign+"), ("entity", "e0"))
    assert v.element_ids == ("e0#sign+", "e0")
    assert v.confidences == (0.7, 0.8)


def test_exclusive_relations_violation():
    s = load_schema("sciclaim")
    g = assemble_graph(
        ["a", "b"], None,
        [("e0", Span(0, 1), "factor", 0.9), ("e1", Span(1, 2), "factor", 0.9)],
        relations=[("e0", "e1", "q+", 0.9), ("e0", "e1", "q-", 0.6)],
    )
    kinds = [v.kind for v in check_constraints(g, s)]
    assert "ExclusiveRelations" in kinds


def test_exclusive_attributes_violation():
    s = load_schema("sciclaim")
    g = assemble_graph(
        ["up"], None,
        [("e0", Span(0, 1), "association", 0.9)],
        attributes=[("e0", "sign+", 0.8), ("e0", "sign-", 0.4)],
    )
    violations = check_constraints(g, s)
    assert [v.kind for v in violations] == ["ExclusiveAttributes"]
    assert violations[0].element_ids == ("e0#sign+", "e0#sign-")


def test_relation_signature_violation_names_offending_endpoints():
    s = load_schema("sciclaim")
    # q+ must run factor/association -> factor
    g = assemble_graph(
        ["a", "b"], None,
        [("e0", Span(0, 1), "evidence", 0.5), ("e1", Span(1, 2), "magnitude", 0.6)],
        relations=[("e0", "e1", "q+", 0.9)],
    )
    violations = check_constraints(g, s)
    assert len(violations) == 1
    assert violations[0].kind == "RelationSignature"
    assert violations[0].keys == (("relation", "e0", "e1", "q+"), ("entity", "e0"), ("entity", "e1"))
    assert set(violations[0].element_ids) == {"e0->e1:q+", "e0", "e1"}


def test_modifier_unrestricted():
    s = load_schema("sciclaim")
    g = assemble_graph(
        ["a", "b"], None,
        [("e0", Span(0, 1), "magnitude", 0.5), ("e1", Span(1, 2), "epistemic", 0.6)],
        relations=[("e0", "e1", "modifier", 0.9)],
    )
    assert check_constraints(g, s) == []


def test_unknown_types_raise():
    s = load_schema("sciclaim")
    g = assemble_graph(["a"], None, [("e0", Span(0, 1), "martian", 0.5)])
    with pytest.raises(UnknownTypeError):
        check_constraints(g, s)


def test_order_independence():
    s = load_schema("sciclaim")
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_sciclaim_graph(rng)
        shuffled = assemble_graph(
            g.tokens,
            g.lemmas,
            [(e.id, e.span, e.entity_type, e.confidence) for e in reversed(g.entities)],
            [(e.id, t, c) for e in reversed(g.entities) for t, c in reversed(e.attributes)],
            [(r.head, r.tail, r.relation_type, r.confidence) for r in reversed(g.relations)],
            provenance=g.provenance,
        )
        assert check_constraints(g, s) == check_constraints(shuffled, s)


def test_bare_entities_never_violate():
    # declared entity types with no attributes or relations conform trivially
    s = load_schema("sciclaim")
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = random_sciclaim_graph(rng)
        bare = assemble_graph(
            g.tokens, g.lemmas,
            [(e.id, e.span, e.entity_type, e.confidence) for e in g.entities],
        )
        assert check_constraints(bare, s) == []


def test_row_by_row_and_array_scans_agree(monkeypatch):
    # scan_constraints tests few relations one by one and many as arrays
    sciclaim = load_schema("sciclaim")
    rng = np.random.default_rng(77)
    graphs = [random_sciclaim_graph(rng, provenance=f"r{i}") for i in range(60)]
    model = Model.initialize(sciclaim, EncoderConfig(dimension=16, seed=2), seed=16)
    graphs += [extract(tuple(synth.FACTORS[i : i + 4]), None, model) for i in range(0, 40, 8)]
    kinds = set()
    for graph in graphs:
        scans = []
        for few in (0, 10**9):
            monkeypatch.setattr(schema_module, "FEW_RELATIONS", few)
            scans.append(sorted(map(tuple, scan_constraints(graph, sciclaim).tolist())))
        assert scans[0] == scans[1]
        kinds.update(row[0] for row in scans[0])
    assert kinds == {0, 1, 2, 3}
