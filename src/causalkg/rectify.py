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

from .graphs import ElementKey, KnowledgeGraph, Relation, element_id
from .schema import Schema, Violation, check_constraints

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
    # the participants of one violation differ in kind or id, so ranks never tie
    best = best_key = None
    for key, eid, conf in zip(violation.keys, violation.element_ids, violation.confidences):
        rank = (conf, _KIND_ORDER[key[0]], eid)
        if best is None or rank < best:
            best, best_key = rank, key
    return best, best_key


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

    incident: dict[str, list[Relation]] = {}  # entity id -> relations, in graph order
    for r in graph.relations:
        incident.setdefault(r.head, []).append(r)
        incident.setdefault(r.tail, []).append(r)

    # An attribute is gone iff its entity or the attribute itself was removed,
    # a relation iff an endpoint or the relation itself was.  So a cascade
    # only logs; it adds nothing to these sets.
    gone_entities: set[str] = set()
    gone_attributes: set[tuple[str, str]] = set()  # (entity id, attribute type)
    gone_relations: set[tuple[str, str, str]] = set()  # (head, tail, relation type)
    log: list[RemovalRecord] = []
    for (confidence, _, removed_id), key, violation in ranked:
        lost = False  # has a participant gone?
        for k in violation.keys:
            if k[1] in gone_entities:
                lost = True
            elif k[0] == "attribute":
                lost = k[1:] in gone_attributes
            elif k[0] == "relation":
                lost = k[2] in gone_entities or k[1:] in gone_relations
            if lost:
                break
        if lost:
            continue
        cause = violation.kind
        log.append(RemovalRecord(removed_id, key[0], confidence, cause))
        if key[0] == "attribute":
            gone_attributes.add(key[1:])
            continue
        if key[0] == "relation":
            gone_relations.add(key[1:])
            continue
        ent_id = key[1]
        gone_entities.add(ent_id)
        for attr, conf in graph.entity(ent_id).attributes:
            if (ent_id, attr) not in gone_attributes:
                attr_id = element_id(("attribute", ent_id, attr))
                log.append(RemovalRecord(attr_id, "attribute", conf, cause, cascade=True))
        for r in incident.get(ent_id, ()):
            other = r.tail if r.head == ent_id else r.head
            if other not in gone_entities and (r.head, r.tail, r.relation_type) not in gone_relations:
                log.append(RemovalRecord(r.id, "relation", r.confidence, cause, cascade=True))

    entities = []
    for e in graph.entities:
        if e.id in gone_entities:
            continue
        kept = tuple(p for p in e.attributes if (e.id, p[0]) not in gone_attributes)
        entities.append(e if len(kept) == len(e.attributes) else replace(e, attributes=kept))
    relations = tuple(
        r
        for r in graph.relations
        if r.head not in gone_entities
        and r.tail not in gone_entities
        and (r.head, r.tail, r.relation_type) not in gone_relations
    )
    return replace(graph, entities=tuple(entities), relations=relations), log
