import re

import pytest

from causalkg.dot import emit_dot
from causalkg.errors import SchemaMismatchError
from causalkg.graphs import Span, assemble_graph
from causalkg.reasoning import compute_valence
from causalkg.schema import load_schema

SCICLAIM = load_schema("sciclaim")
ETHNO = load_schema("ethno")


def check_well_formed(text):
    lines = text.splitlines()
    assert lines[0] == "digraph {"
    assert lines[-1] == "}"
    assert text.count("{") == text.count("}")
    for line in lines[1:-1]:
        assert line.startswith("  ")
        assert line.endswith(";")
    assert text.endswith("\n")


def test_empty_graph():
    text = emit_dot(assemble_graph([], None, []), SCICLAIM)
    check_well_formed(text)
    assert "->" not in text


def test_causal_edges_bold_others_solid():
    g = assemble_graph(
        ["rain", "helps", "crops", "well"], None,
        [("a", Span(0, 1), "element", 1.0),
         ("b", Span(2, 3), "element", 1.0),
         ("c", Span(3, 4), "qualifier", 1.0)],
        relations=[("a", "b", "q-", 0.9), ("b", "c", "modifier", 0.8)],
    )
    text = emit_dot(g, ETHNO)
    check_well_formed(text)
    assert '"a" -> "b" [label="q-", style=bold];' in text
    assert '"b" -> "c" [label="modifier", style=solid];' in text


def test_node_labels_carry_attributes():
    g = assemble_graph(
        ["movement", "restriction", "reduced", "infections"], None,
        [("e0", Span(0, 2), "factor", 1.0), ("e1", Span(2, 3), "association", 1.0)],
        attributes=[("e1", "causation", 1.0), ("e1", "sign-", 0.9)],
    )
    text = emit_dot(g, SCICLAIM)
    assert '"e0" [label="movement restriction"];' in text
    assert '"e1" [label="reduced\\n(causation, sign-)"];' in text


def test_escaping():
    g = assemble_graph(
        ['say "hi"'], None, [("e0", Span(0, 1), "factor", 1.0)]
    )
    text = emit_dot(g, SCICLAIM)
    assert '\\"hi\\"' in text
    check_well_formed(text)


def test_golden_snapshot():
    # claim-graph fixture: "movement restriction greatly reduced infections"
    g = assemble_graph(
        ["movement", "restriction", "greatly", "reduced", "infections"], None,
        [("e0", Span(0, 2), "factor", 1.0),
         ("e1", Span(2, 3), "magnitude", 1.0),
         ("e2", Span(3, 4), "association", 1.0),
         ("e3", Span(4, 5), "factor", 1.0)],
        attributes=[("e2", "causation", 1.0), ("e2", "sign-", 1.0)],
        relations=[("e2", "e0", "arg0", 1.0),
                   ("e2", "e3", "arg1", 1.0),
                   ("e1", "e2", "modifier", 1.0),
                   ("e0", "e3", "q-", 1.0)],
    )
    expected = """digraph {
  node [shape=box];
  "e0" [label="movement restriction"];
  "e1" [label="greatly"];
  "e2" [label="reduced\\n(causation, sign-)"];
  "e3" [label="infections"];
  "e0" -> "e3" [label="q-", style=bold];
  "e1" -> "e2" [label="modifier", style=solid];
  "e2" -> "e0" [label="arg0", style=solid];
  "e2" -> "e3" [label="arg1", style=solid];
}
"""
    assert emit_dot(g, SCICLAIM) == expected


def test_deterministic_ordering():
    g = assemble_graph(
        ["b", "a"], None,
        [("z", Span(0, 1), "factor", 1.0), ("a", Span(1, 2), "factor", 1.0)],
        relations=[("z", "a", "subtype", 1.0)],
    )
    assert emit_dot(g, SCICLAIM) == emit_dot(g, SCICLAIM)
    lines = emit_dot(g, SCICLAIM).splitlines()
    assert lines.index('  "a" [label="a"];') < lines.index('  "z" [label="b"];')


def test_a_relation_type_outside_the_schema_raises_as_valence_does():
    g = assemble_graph(
        ["a", "b"], None,
        [("a", Span(0, 1), "element", 1.0), ("b", Span(1, 2), "element", 1.0)],
        relations=[("a", "b", "arg0", 1.0)],
    )
    for render in (emit_dot, compute_valence):
        with pytest.raises(SchemaMismatchError, match=re.escape("relation type 'arg0' not in schema 'ethno'")):
            render(g, ETHNO)
    assert '"a" -> "b" [label="arg0", style=solid];' in emit_dot(g, SCICLAIM)
