"""Reference rectifiers and constraint checker for the tests.

`reference_check_constraints` is the checker that builds a `Violation`, with
rendered ids, for every violation as it scans, and sorts them.
causalkg.schema.check_constraints must return the same list.

`sorted_violation_rectify` is the one-scan rectifier that sorts those
violations by their weakest participant's (confidence, kind order, id) and
walks them.  It works on any ids.

`reference_rectify` is the original re-scanning greedy loop: after every
single removal it checks the whole graph again and removes the weakest
participant of the lowest-keyed violation.  It parses string element ids, so
it never returns on a graph whose entity ids contain "#" or "->"; compare
against it only on graphs without them.

causalkg.rectify must return the same graph and removal log as both.
"""

from dataclasses import replace
from operator import itemgetter

from causalkg.graphs import ElementKey, Entity, KnowledgeGraph, Relation, element_id
from causalkg.rectify import RemovalRecord
from causalkg.schema import Schema, Violation, _check_known_types

_KIND_ORDER = {"relation": 0, "attribute": 1, "entity": 2}


def reference_check_constraints(graph: KnowledgeGraph, schema: Schema) -> list[Violation]:
    """Return every schema violation in the graph; empty iff it conforms.

    Pure and order-independent: the result is sorted by (kind, element ids).
    """
    _check_known_types(graph, schema)
    endpoint = {e.id: (e.entity_type, e.confidence) for e in graph.entities}
    out: list[Violation] = []

    for e in graph.entities:
        for attr, conf in e.attributes:
            domain = schema.attribute_domains.get(attr)
            if domain is not None and e.entity_type not in domain:
                out.append(
                    Violation(
                        "AttributeDomain",
                        (("attribute", e.id, attr), ("entity", e.id)),
                        (conf, e.confidence),
                    )
                )
        present = {t: c for t, c in e.attributes}
        for pair in schema.exclusive_attribute_pairs:
            if pair <= present.keys():
                a, b = sorted(pair)
                out.append(
                    Violation(
                        "ExclusiveAttributes",
                        (("attribute", e.id, a), ("attribute", e.id, b)),
                        (present[a], present[b]),
                    )
                )

    for r in graph.relations:
        sig = schema.relation_signatures.get(r.relation_type)
        if sig is None:
            continue
        heads, tails = sig
        keys: list[ElementKey] = [("relation", r.head, r.tail, r.relation_type)]
        confs: list[float] = [r.confidence]
        head_type, head_conf = endpoint[r.head]
        tail_type, tail_conf = endpoint[r.tail]
        if head_type not in heads:
            keys.append(("entity", r.head))
            confs.append(head_conf)
        if tail_type not in tails:
            keys.append(("entity", r.tail))
            confs.append(tail_conf)
        if len(keys) > 1:
            out.append(Violation("RelationSignature", tuple(keys), tuple(confs)))

    by_pair: dict[tuple[str, str], dict[str, float]] = {}
    for r in graph.relations:
        by_pair.setdefault((r.head, r.tail), {})[r.relation_type] = r.confidence
    for (head, tail), types in sorted(by_pair.items()):
        for pair in schema.exclusive_relation_pairs:
            if pair <= types.keys():
                a, b = sorted(pair)
                out.append(
                    Violation(
                        "ExclusiveRelations",
                        (("relation", head, tail, a), ("relation", head, tail, b)),
                        (types[a], types[b]),
                    )
                )

    out.sort(key=lambda v: (v.kind, v.element_ids))
    return out


def _weakest(violation: Violation) -> tuple[tuple[float, int, str], ElementKey]:
    """Greedy sort key and element key of the violation's weakest participant."""
    # the participants of one violation differ in kind or id, so ranks never tie
    best = best_key = None
    for key, eid, conf in zip(violation.keys, violation.element_ids, violation.confidences):
        rank = (conf, _KIND_ORDER[key[0]], eid)
        if best is None or rank < best:
            best, best_key = rank, key
    return best, best_key


def sorted_violation_rectify(
    graph: KnowledgeGraph, schema: Schema
) -> tuple[KnowledgeGraph, list[RemovalRecord]]:
    """Prune lowest-confidence elements until the graph satisfies the schema.

    Strictly removes elements: the output's entities, attributes, and
    relations are subsets of the input's, and rectify is idempotent.
    """
    violations = reference_check_constraints(graph, schema)
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
        violations = reference_check_constraints(current, schema)
        if not violations:
            return current, log
        chosen = min(violations, key=_pick_participant)
        _, _, element_id = _pick_participant(chosen)
        current = _remove(current, element_id, chosen.kind, log)
