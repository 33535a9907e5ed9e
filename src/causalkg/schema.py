"""Declarative graph schemas and constraint checking.

A schema names the allowed entity, attribute, and relation types and a set
of applicability constraints: which entity types an attribute may decorate,
which entity types a relation may connect, and which attribute or relation
pairs are mutually exclusive.  Two schemas are built in: "sciclaim" for
scientific claims and "ethno" for ethnographic mental models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import SchemaParseError, UnknownTypeError, UnknownTypeReferenceError
from .graphs import FEW_RELATIONS, ElementKey, KnowledgeGraph, element_id
from .readers import array, obj, parse_json, required, string, strings

__all__ = [
    "Schema",
    "Violation",
    "ElementKey",
    "load_schema",
    "schema_from_dict",
    "check_constraints",
    "scan_constraints",
    "ElementTable",
    "VIOLATION_KINDS",
    "BUILTIN_SCHEMAS",
]


@dataclass(frozen=True)
class Schema:
    name: str
    entity_types: tuple[str, ...]
    attribute_types: tuple[str, ...]
    relation_types: tuple[str, ...]
    # attribute_type -> entity types it may decorate; absent key = unrestricted
    attribute_domains: Mapping[str, frozenset[str]] = field(default_factory=dict)
    # relation_type -> (allowed head types, allowed tail types); absent = unrestricted
    relation_signatures: Mapping[str, tuple[frozenset[str], frozenset[str]]] = field(
        default_factory=dict
    )
    # unordered attribute-type pairs forbidden on one entity
    exclusive_attribute_pairs: frozenset[frozenset[str]] = frozenset()
    # unordered relation-type pairs forbidden on one ordered node pair
    exclusive_relation_pairs: frozenset[frozenset[str]] = frozenset()
    # relation types rendered bold in DOT output
    causal_relation_types: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        ents, attrs, rels = set(self.entity_types), set(self.attribute_types), set(self.relation_types)

        def check(names: Iterable[str], declared: set[str], where: str) -> None:
            for name in sorted(names):
                if name not in declared:
                    raise UnknownTypeReferenceError(f"{where} names undeclared type {name!r}")

        for attr, domain in self.attribute_domains.items():
            check([attr], attrs, "an attribute domain")
            check(domain, ents, f"the attribute domain of {attr!r}")
        for rel, (heads, tails) in self.relation_signatures.items():
            check([rel], rels, "a relation signature")
            check(heads | tails, ents, f"the signature of {rel!r}")
        for kind, pairs, declared in (
            ("attribute", self.exclusive_attribute_pairs, attrs),
            ("relation", self.exclusive_relation_pairs, rels),
        ):
            for pair in pairs:
                if len(pair) != 2:
                    raise SchemaParseError(f"an exclusive {kind} pair must name 2 distinct types, not {len(pair)}")
                check(pair, declared, f"an exclusive {kind} pair")
        check(self.causal_relation_types, rels, "causal_relation_types")

    # Lookups the constraint scan reads, built on first use; a schema is
    # not changed after it is built.

    @cached_property
    def _entity_codes(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.entity_types)}

    @cached_property
    def _attribute_codes(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.attribute_types)}

    @cached_property
    def _relation_codes(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.relation_types)}

    @cached_property
    def _admits(self) -> np.ndarray:
        """admits[end, r, e]: relation type r admits entity type e at its
        head (end 0) or its tail (end 1)."""
        signatures = [self.relation_signatures.get(r) for r in self.relation_types]
        admits = [
            [[sig is None or t in sig[end] for t in self.entity_types] for sig in signatures] for end in (0, 1)
        ]
        return np.array(admits, dtype=bool).reshape(2, len(self.relation_types), len(self.entity_types))

    @cached_property
    def _exclusive_relation_codes(self) -> list[tuple[int, int]]:
        """The exclusive relation pairs as (lesser, greater) type codes, the types in name order."""
        return [
            (self._relation_codes[a], self._relation_codes[b])
            for a, b in (sorted(pair) for pair in self.exclusive_relation_pairs)
        ]


@dataclass(frozen=True)
class Violation:
    """One schema conflict found in a graph.

    kind is one of AttributeDomain, RelationSignature, ExclusiveAttributes,
    ExclusiveRelations.  keys name the conflicting elements as typed
    ElementKeys and confidences align with them.  element_ids renders the
    keys through `graphs.element_id`, whose ids are distinct for distinct
    keys, for output and ordering only.
    """

    kind: str
    keys: tuple[ElementKey, ...]
    confidences: tuple[float, ...]
    element_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "element_ids", tuple(map(element_id, self.keys)))


def _sciclaim() -> Schema:
    association_only = frozenset({"association"})
    factor = frozenset({"factor"})
    factor_assoc = frozenset({"factor", "association"})
    return Schema(
        name="sciclaim",
        entity_types=("factor", "evidence", "epistemic", "association", "magnitude", "qualifier"),
        attribute_types=("causation", "comparison", "indicates", "sign+", "sign-", "correlation", "test"),
        relation_types=("arg0", "arg1", "comp_to", "modifier", "subtype", "q+", "q-"),
        attribute_domains={
            attr: association_only
            for attr in ("causation", "comparison", "indicates", "sign+", "sign-", "correlation", "test")
        },
        relation_signatures={
            "arg0": (association_only, factor_assoc),
            "arg1": (association_only, factor_assoc),
            "comp_to": (association_only, factor_assoc),
            "subtype": (factor, factor),
            "q+": (factor_assoc, factor),
            "q-": (factor_assoc, factor),
        },
        exclusive_attribute_pairs=frozenset({frozenset({"sign+", "sign-"})}),
        exclusive_relation_pairs=frozenset({frozenset({"q+", "q-"})}),
        causal_relation_types=frozenset({"q+", "q-"}),
    )


def _ethno() -> Schema:
    return Schema(
        name="ethno",
        entity_types=("element", "qualifier"),
        attribute_types=("tradition", "event", "influence", "prescribed", "negated"),
        relation_types=(
            "agent", "object", "recipient", "consequent", "modifier",
            "intent+", "function+", "q+", "q-", "t+",
        ),
        causal_relation_types=frozenset({"q+", "q-", "intent+", "function+", "t+"}),
    )


BUILTIN_SCHEMAS = {"sciclaim": _sciclaim, "ethno": _ethno}


def load_schema(document: str) -> Schema:
    """Load a schema from a built-in name or a JSON schema document."""
    name = document.strip()
    if name in BUILTIN_SCHEMAS:
        return BUILTIN_SCHEMAS[name]()
    return schema_from_dict(parse_json(document, "a schema that is not a built-in name", SchemaParseError))


def schema_from_dict(data: Mapping) -> Schema:
    """Build a schema from the object `schema_to_dict` writes, whose
    constraint fields may be absent; SchemaParseError names a bad field."""
    error = SchemaParseError
    obj(data, "schema", error, Schema.__dataclass_fields__)  # the JSON keys are the field names

    def names(value, label: str, error=error) -> frozenset[str]:
        return frozenset(strings(value, label, error))

    def pairs(key: str) -> frozenset[frozenset[str]]:
        value = array(data.get(key, []), f"schema {key!r}", error)
        return frozenset(names(pair, f"schema {key!r}[{i}]") for i, pair in enumerate(value))

    domains = obj(data.get("attribute_domains", {}), "schema 'attribute_domains'", error)
    signatures = {}
    for rel, sig in obj(data.get("relation_signatures", {}), "schema 'relation_signatures'", error).items():
        label = f"schema 'relation_signatures'[{rel!r}]"
        obj(sig, label, error, ("head", "tail"))
        signatures[rel] = tuple(required(sig, e, f"{label}[{e!r}]", error, names) for e in ("head", "tail"))
    return Schema(
        name=required(data, "name", "schema 'name'", error, string),
        entity_types=required(data, "entity_types", "schema 'entity_types'", error, strings),
        attribute_types=required(data, "attribute_types", "schema 'attribute_types'", error, strings),
        relation_types=required(data, "relation_types", "schema 'relation_types'", error, strings),
        attribute_domains={a: names(d, f"schema 'attribute_domains'[{a!r}]") for a, d in domains.items()},
        relation_signatures=signatures,
        exclusive_attribute_pairs=pairs("exclusive_attribute_pairs"),
        exclusive_relation_pairs=pairs("exclusive_relation_pairs"),
        causal_relation_types=names(
            data.get("causal_relation_types", []), "schema 'causal_relation_types'"
        ),
    )


def schema_to_dict(schema: Schema) -> dict:
    return {
        "name": schema.name,
        "entity_types": list(schema.entity_types),
        "attribute_types": list(schema.attribute_types),
        "relation_types": list(schema.relation_types),
        "attribute_domains": {k: sorted(v) for k, v in schema.attribute_domains.items()},
        "relation_signatures": {
            k: {"head": sorted(h), "tail": sorted(t)}
            for k, (h, t) in schema.relation_signatures.items()
        },
        "exclusive_attribute_pairs": sorted(sorted(p) for p in schema.exclusive_attribute_pairs),
        "exclusive_relation_pairs": sorted(sorted(p) for p in schema.exclusive_relation_pairs),
        "causal_relation_types": sorted(schema.causal_relation_types),
    }


def _check_known_types(graph: KnowledgeGraph, schema: Schema) -> None:
    ents, attrs, rels = schema._entity_codes, schema._attribute_codes, schema._relation_codes
    for e in graph.entities:
        if e.entity_type not in ents:
            raise UnknownTypeError(f"entity type {e.entity_type!r} not in schema {schema.name!r}")
        for t, _ in e.attributes:
            if t not in attrs:
                raise UnknownTypeError(f"attribute type {t!r} not in schema {schema.name!r}")
    relations = graph.relations
    unknown = {c for c, t in enumerate(relations.types) if t not in rels}
    if unknown:
        for c in relations.code:
            if c in unknown:
                raise UnknownTypeError(f"relation type {relations.types[c]!r} not in schema {schema.name!r}")


# Violation kinds, coded by their place in this tuple: the order of their
# names, which is check_constraints' order.
VIOLATION_KINDS = ("AttributeDomain", "ExclusiveAttributes", "ExclusiveRelations", "RelationSignature")
_ATTRIBUTE_DOMAIN, _EXCLUSIVE_ATTRIBUTES, _EXCLUSIVE_RELATIONS, _RELATION_SIGNATURE = range(4)


class ElementTable:
    """Every element of a graph by element index, in the kind order
    relation < attribute < entity: relations in graph order, then
    attributes in entity and then attribute order, then entities in graph
    order.

    relations: the graph's `Relations` columns; attributes: (entity index,
    attribute type) per attribute; first_entity: the first entity's
    element index; confidences: every element's confidence.
    """

    __slots__ = ("relations", "entities", "attributes", "first_entity", "confidences")

    def __init__(self, graph: KnowledgeGraph) -> None:
        self.relations = relations = graph.relations
        self.entities = entities = graph.entities
        self.attributes = [(i, t) for i, e in enumerate(entities) for t, _ in e.attributes]
        self.first_entity = len(relations) + len(self.attributes)
        self.confidences = relations.confidence + [c for e in entities for _, c in e.attributes]
        self.confidences += [e.confidence for e in entities]

    def kind(self, i: int) -> str:
        if i < len(self.relations):
            return "relation"
        return "attribute" if i < self.first_entity else "entity"

    def key(self, i: int) -> ElementKey:
        relations = self.relations
        if i < len(relations):
            ids, rel_type = relations.ids, relations.types[relations.code[i]]
            return ("relation", ids[relations.head[i]], ids[relations.tail[i]], rel_type)
        if i < self.first_entity:
            owner, attr = self.attributes[i - len(relations)]
            return ("attribute", self.entities[owner].id, attr)
        return ("entity", self.entities[i - self.first_entity].id)


def _relation_rows(entities, relations, schema: Schema, first_entity: int) -> list[tuple[int, ...]]:
    """scan_constraints' relation rows, found relation by relation."""
    signatures = schema.relation_signatures
    exclusive = [sorted(pair) for pair in schema.exclusive_relation_pairs]
    # relation type -> (head, tail) -> index, for the types of exclusive pairs
    by_type: dict[str, dict[tuple[int, int], int]] = {t: {} for pair in exclusive for t in pair}
    rows: list[tuple[int, ...]] = []
    for j, (h, t, c) in enumerate(zip(relations.head, relations.tail, relations.code)):
        rel_type = relations.types[c]
        if rel_type in by_type:
            by_type[rel_type][h, t] = j
        sig = signatures.get(rel_type)
        if sig is None:
            continue
        bad_head, bad_tail = entities[h].entity_type not in sig[0], entities[t].entity_type not in sig[1]
        if bad_head and bad_tail:
            rows.append((_RELATION_SIGNATURE, j, first_entity + h, first_entity + t))
        elif bad_head or bad_tail:
            rows.append((_RELATION_SIGNATURE, j, first_entity + (h if bad_head else t), -1))
    for a, b in exclusive:
        others = by_type[b]
        rows += [
            (_EXCLUSIVE_RELATIONS, j, others[ends], -1) for ends, j in by_type[a].items() if ends in others
        ]
    return rows


def scan_constraints(graph: KnowledgeGraph, schema: Schema) -> np.ndarray:
    """Every schema violation in the graph, integer coded and in no set order.

    One row per violation of an (N, 4) integer array: the kind's index in
    VIOLATION_KINDS, then the conflicting elements' `ElementTable` indexes
    in `Violation.keys` order, padded with -1 (a violation has two or three
    participants).  Relations are scanned as columns: as arrays, or one
    by one when there are few.
    """
    _check_known_types(graph, schema)
    entities, relations = graph.entities, graph.relations
    attribute = len(relations)  # the next attribute's index
    first_entity = attribute + sum(len(e.attributes) for e in entities)
    domains = schema.attribute_domains
    exclusive_attributes = [sorted(pair) for pair in schema.exclusive_attribute_pairs]
    rows: list[tuple[int, ...]] = []

    for i, e in enumerate(entities, first_entity):
        if not e.attributes:
            continue
        present: dict[str, int] = {}
        for attr, _ in e.attributes:
            domain = domains.get(attr)
            if domain is not None and e.entity_type not in domain:
                rows.append((_ATTRIBUTE_DOMAIN, attribute, i, -1))
            present[attr] = attribute
            attribute += 1
        for a, b in exclusive_attributes:
            if a in present and b in present:
                rows.append((_EXCLUSIVE_ATTRIBUTES, present[a], present[b], -1))

    if len(relations) <= FEW_RELATIONS:
        rows += _relation_rows(entities, relations, schema, first_entity)
        return np.array(rows, dtype=np.intp).reshape(-1, 4)

    parts = [np.array(rows, dtype=np.intp).reshape(-1, 4)]
    head = np.array(relations.head, dtype=np.intp)
    tail = np.array(relations.tail, dtype=np.intp)
    code = np.array(relations.code, dtype=np.intp)
    if relations.types != schema.relation_types:
        # each relation's type by its schema code; _check_known_types has
        # passed, so a type outside the schema is one no relation has
        codes = schema._relation_codes
        code = np.array([codes.get(t, 0) for t in relations.types], dtype=np.intp)[code]
    if schema.relation_signatures:
        codes = schema._entity_codes
        entity_type = np.array([codes[e.entity_type] for e in entities], dtype=np.intp)
        bad_head = ~schema._admits[0, code, entity_type[head]]
        bad_tail = ~schema._admits[1, code, entity_type[tail]]
        j = np.flatnonzero(bad_head | bad_tail)
        if len(j):
            bad_head, bad_tail = bad_head[j], bad_tail[j]
            head_at, tail_at = head[j] + first_entity, tail[j] + first_entity
            block = np.full((len(j), 4), -1, dtype=np.intp)
            block[:, 0] = _RELATION_SIGNATURE
            block[:, 1] = j
            block[:, 2] = np.where(bad_head, head_at, tail_at)
            both = bad_head & bad_tail
            block[both, 3] = tail_at[both]
            parts.append(block)
    k = len(entities)
    ends = head * k + tail
    for a, b in schema._exclusive_relation_codes:
        of_a, of_b = np.flatnonzero(code == a), np.flatnonzero(code == b)
        if len(of_a) and len(of_b):
            partner = np.full(k * k, -1, dtype=np.intp)  # the type-b relation on each (head, tail)
            partner[ends[of_b]] = of_b
            match = partner[ends[of_a]]
            hit = match >= 0
            block = np.full((int(hit.sum()), 4), -1, dtype=np.intp)
            block[:, 0] = _EXCLUSIVE_RELATIONS
            block[:, 1] = of_a[hit]
            block[:, 2] = match[hit]
            parts.append(block)
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def check_constraints(graph: KnowledgeGraph, schema: Schema) -> list[Violation]:
    """Return every schema violation in the graph; empty iff it conforms.

    Pure and order-independent: the result is sorted by (kind, element ids).
    """
    rows = scan_constraints(graph, schema)
    if not len(rows):
        return []
    table = ElementTable(graph)
    out = []
    for kind, *participants in rows.tolist():
        participants = [p for p in participants if p >= 0]
        out.append(Violation(
            VIOLATION_KINDS[kind],
            tuple(map(table.key, participants)),
            tuple(table.confidences[p] for p in participants),
        ))
    out.sort(key=lambda v: (v.kind, v.element_ids))
    return out
