"""Reference rectifier for the tests: the original re-scanning greedy loop.

After every single removal it runs check_constraints on the whole graph
again and removes the weakest participant of the lowest-keyed violation.
It parses string element ids, so it never returns on a graph whose entity
ids contain "#" or "->"; compare against it only on graphs without them.
causalkg.rectify must return the same graph and removal log.
"""

from dataclasses import replace

from causalkg.graphs import Entity, KnowledgeGraph, Relation
from causalkg.rectify import RemovalRecord
from causalkg.schema import Schema, Violation, check_constraints

_KIND_ORDER = {"relation": 0, "attribute": 1, "entity": 2}


def _classify_element(element_id: str) -> str:
    if "->" in element_id:
        return "relation"
    if "#" in element_id:
        return "attribute"
    return "entity"


def _pick_participant(violation: Violation) -> tuple[float, int, str]:
    """Sort key and id of the violation's weakest participant."""
    best = None
    for element_id, conf in zip(violation.element_ids, violation.confidences):
        key = (conf, _KIND_ORDER[_classify_element(element_id)], element_id)
        if best is None or key < best:
            best = key
    return best


def _remove(
    graph: KnowledgeGraph, element_id: str, violation_kind: str, log: list[RemovalRecord]
) -> KnowledgeGraph:
    kind = _classify_element(element_id)
    if kind == "relation":
        keep = []
        for r in graph.relations:
            if r.id == element_id:
                log.append(RemovalRecord(element_id, "relation", r.confidence, violation_kind))
            else:
                keep.append(r)
        return replace(graph, relations=tuple(keep))

    if kind == "attribute":
        ent_id, attr = element_id.split("#", 1)
        entities = []
        for e in graph.entities:
            if e.id == ent_id:
                kept = tuple(p for p in e.attributes if p[0] != attr)
                log.append(
                    RemovalRecord(element_id, "attribute", e.attribute_confidence(attr), violation_kind)
                )
                e = replace(e, attributes=kept)
            entities.append(e)
        return replace(graph, entities=tuple(entities))

    # entity: cascade attributes and incident relations
    entities: list[Entity] = []
    for e in graph.entities:
        if e.id == element_id:
            log.append(RemovalRecord(element_id, "entity", e.confidence, violation_kind))
            for attr, conf in e.attributes:
                log.append(
                    RemovalRecord(f"{e.id}#{attr}", "attribute", conf, violation_kind, cascade=True)
                )
        else:
            entities.append(e)
    relations: list[Relation] = []
    for r in graph.relations:
        if r.head == element_id or r.tail == element_id:
            log.append(RemovalRecord(r.id, "relation", r.confidence, violation_kind, cascade=True))
        else:
            relations.append(r)
    return replace(graph, entities=tuple(entities), relations=tuple(relations))


def reference_rectify(
    graph: KnowledgeGraph, schema: Schema
) -> tuple[KnowledgeGraph, list[RemovalRecord]]:
    log: list[RemovalRecord] = []
    current = graph
    while True:
        violations = check_constraints(current, schema)
        if not violations:
            return current, log
        chosen = min(violations, key=_pick_participant)
        _, _, element_id = _pick_participant(chosen)
        current = _remove(current, element_id, chosen.kind, log)
