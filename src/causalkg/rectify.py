"""Confidence-greedy pruning of schema-inconsistent graph elements.

Greedy rule: while violations remain, take the violation whose weakest
participant is globally lowest and remove that participant.  Participants
rank by (lower confidence, relation < attribute < entity, id); violations
whose weakest participants tie keep check_constraints' (kind, element ids)
order.  Removing an entity cascades to its attributes and incident
relations in the same step.

One constraint scan suffices.  Each constraint kind is violated by elements
that are present, and which elements take part is fixed by their types and
confidences, which never change.  A removal can therefore end violations but
never create one: the violations left at any step are exactly the initial
ones whose participants all survive.  So the initial violations are sorted
once by the greedy rule and walked in that order, skipping any that has lost
a participant; this makes the same choices as rescanning after every
removal.  The walk visits each violation once, so it terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter

from .graphs import KnowledgeGraph
from .schema import ElementKey, Schema, Violation, check_constraints, element_id

__all__ = ["RemovalRecord", "rectify"]

_KIND_ORDER = {"relation": 0, "attribute": 1, "entity": 2}


@dataclass(frozen=True)
class RemovalRecord:
    element_id: str
    kind: str  # entity | attribute | relation
    confidence: float
    violation_kind: str
    cascade: bool = False

    def to_dict(self) -> dict:
        return {
            "element": self.element_id,
            "kind": self.kind,
            "confidence": self.confidence,
            "violation": self.violation_kind,
            "cascade": self.cascade,
        }


def _weakest(violation: Violation) -> tuple[tuple[float, int, str], ElementKey]:
    """Greedy sort key and element key of the violation's weakest participant."""
    return min(
        ((conf, _KIND_ORDER[key[0]], eid), key)
        for key, eid, conf in zip(violation.keys, violation.element_ids, violation.confidences)
    )


def rectify(graph: KnowledgeGraph, schema: Schema) -> tuple[KnowledgeGraph, list[RemovalRecord]]:
    """Prune lowest-confidence elements until the graph satisfies the schema.

    Strictly removes elements: the output's entities, attributes, and
    relations are subsets of the input's, and rectify is idempotent.
    """
    violations = check_constraints(graph, schema)
    if not violations:
        return graph, []
    # sorted() is stable, so tied violations keep check_constraints' order
    ranked = sorted(((*_weakest(v), v) for v in violations), key=itemgetter(0))

    by_id = graph.entity_by_id()
    relation_keys = [("relation", r.head, r.tail, r.relation_type) for r in graph.relations]
    incident: dict[str, list[int]] = {}  # entity id -> relation indices, in graph order
    for i, r in enumerate(graph.relations):
        incident.setdefault(r.head, []).append(i)
        incident.setdefault(r.tail, []).append(i)

    removed: set[ElementKey] = set()
    log: list[RemovalRecord] = []
    for (confidence, _, removed_id), key, violation in ranked:
        if not removed.isdisjoint(violation.keys):
            continue
        cause = violation.kind
        removed.add(key)
        log.append(RemovalRecord(removed_id, key[0], confidence, cause))
        if key[0] != "entity":
            continue
        entity = by_id[key[1]]
        for attr, conf in entity.attributes:
            attr_key = ("attribute", entity.id, attr)
            if attr_key not in removed:
                removed.add(attr_key)
                log.append(RemovalRecord(element_id(attr_key), "attribute", conf, cause, cascade=True))
        for i in incident.get(entity.id, ()):
            if relation_keys[i] not in removed:
                removed.add(relation_keys[i])
                r = graph.relations[i]
                log.append(RemovalRecord(r.id, "relation", r.confidence, cause, cascade=True))

    entities = []
    for e in graph.entities:
        if ("entity", e.id) in removed:
            continue
        kept = tuple(p for p in e.attributes if ("attribute", e.id, p[0]) not in removed)
        entities.append(e if len(kept) == len(e.attributes) else replace(e, attributes=kept))
    relations = tuple(r for r, k in zip(graph.relations, relation_keys) if k not in removed)
    return replace(graph, entities=tuple(entities), relations=relations), log
