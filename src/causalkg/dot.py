"""Graphviz DOT emission for knowledge graphs.

Nodes are labeled with the span text plus a parenthesized attribute list;
edges carry the relation type, with causal relation types rendered bold.
"""

from __future__ import annotations

from .graphs import KnowledgeGraph, relation_ids
from .schema import Schema, check_relation_types

__all__ = ["emit_dot"]


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def emit_dot(graph: KnowledgeGraph, schema: Schema) -> str:
    """Render the graph as a DOT digraph; deterministic element order.  A
    relation type the schema does not name raises SchemaMismatchError."""
    check_relation_types(graph, schema)
    lines = ["digraph {", "  node [shape=box];"]
    for e in sorted(graph.entities, key=lambda e: e.id):
        label = _escape(graph.span_text(e.span))
        if e.attributes:
            # \n is the DOT line-break escape, applied after content escaping
            label += "\\n(" + _escape(", ".join(t for t, _ in e.attributes)) + ")"
        lines.append(f'  "{_escape(e.id)}" [label="{label}"];')
    relations = graph.relations
    ids, types = relations.ids, relations.types
    rel_ids = relation_ids(relations, range(len(relations)))
    for j in sorted(range(len(relations)), key=rel_ids.__getitem__):
        rel_type = types[relations.code[j]]
        style = "bold" if rel_type in schema.causal_relation_types else "solid"
        lines.append(
            f'  "{_escape(ids[relations.head[j]])}" -> "{_escape(ids[relations.tail[j]])}" '
            f'[label="{_escape(rel_type)}", style={style}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
