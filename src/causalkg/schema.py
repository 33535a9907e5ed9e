"""Declarative graph schemas and constraint checking.

A schema names the allowed entity, attribute, and relation types and a set
of applicability constraints: which entity types an attribute may decorate,
which entity types a relation may connect, and which attribute or relation
pairs are mutually exclusive.  Two schemas are built in: "sciclaim" for
scientific claims and "ethno" for ethnographic mental models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import SchemaParseError, UnknownTypeError, UnknownTypeReferenceError
from .graphs import ElementKey, KnowledgeGraph, element_id
from .readers import array, obj, parse_json, required, string, strings

__all__ = [
    "Schema",
    "Violation",
    "ElementKey",
    "load_schema",
    "schema_from_dict",
    "check_constraints",
    "scan_constraints",
    "element_table",
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
    ents = set(schema.entity_types)
    attrs = set(schema.attribute_types)
    rels = set(schema.relation_types)
    for e in graph.entities:
        if e.entity_type not in ents:
            raise UnknownTypeError(f"entity type {e.entity_type!r} not in schema {schema.name!r}")
        for t, _ in e.attributes:
            if t not in attrs:
                raise UnknownTypeError(f"attribute type {t!r} not in schema {schema.name!r}")
    for r in graph.relations:
        if r.relation_type not in rels:
            raise UnknownTypeError(f"relation type {r.relation_type!r} not in schema {schema.name!r}")


# Violation kinds, coded by their place in this tuple: the order of their
# names, which is check_constraints' order.
VIOLATION_KINDS = ("AttributeDomain", "ExclusiveAttributes", "ExclusiveRelations", "RelationSignature")
_ATTRIBUTE_DOMAIN, _EXCLUSIVE_ATTRIBUTES, _EXCLUSIVE_RELATIONS, _RELATION_SIGNATURE = range(4)


def element_table(graph: KnowledgeGraph) -> tuple[list[ElementKey], list[float]]:
    """The key and the confidence of every graph element, by element index.

    Elements are numbered in the kind order relation < attribute < entity:
    relations in graph order, then attributes in entity and then attribute
    order, then entities in graph order.
    """
    entities = graph.entities
    keys: list[ElementKey] = [("relation", r.head, r.tail, r.relation_type) for r in graph.relations]
    keys += [("attribute", e.id, t) for e in entities for t, _ in e.attributes]
    keys += [("entity", e.id) for e in entities]
    confidences = [r.confidence for r in graph.relations]
    confidences += [c for e in entities for _, c in e.attributes]
    confidences += [e.confidence for e in entities]
    return keys, confidences


def scan_constraints(graph: KnowledgeGraph, schema: Schema) -> list[tuple[int, ...]]:
    """Every schema violation in the graph, integer coded and in no set order.

    A row is (kind, participant, participant[, participant]): the kind's
    index in VIOLATION_KINDS, then the conflicting elements' `element_table`
    indexes in `Violation.keys` order.
    """
    _check_known_types(graph, schema)
    attribute = len(graph.relations)  # the next attribute's index
    first_entity = attribute + sum(len(e.attributes) for e in graph.entities)
    domains = schema.attribute_domains
    exclusive_attributes = [sorted(pair) for pair in schema.exclusive_attribute_pairs]
    endpoint: dict[str, tuple[str, int]] = {}
    rows: list[tuple[int, ...]] = []

    for i, e in enumerate(graph.entities, first_entity):
        endpoint[e.id] = (e.entity_type, i)
        if not e.attributes:
            continue
        present: dict[str, int] = {}
        for attr, _ in e.attributes:
            domain = domains.get(attr)
            if domain is not None and e.entity_type not in domain:
                rows.append((_ATTRIBUTE_DOMAIN, attribute, i))
            present[attr] = attribute
            attribute += 1
        for a, b in exclusive_attributes:
            if a in present and b in present:
                rows.append((_EXCLUSIVE_ATTRIBUTES, present[a], present[b]))

    signatures = schema.relation_signatures
    exclusive_relations = [sorted(pair) for pair in schema.exclusive_relation_pairs]
    # relation type -> (head, tail) -> index, for the types of exclusive pairs
    by_type: dict[str, dict[tuple[str, str], int]] = {t: {} for pair in exclusive_relations for t in pair}
    for j, r in enumerate(graph.relations):
        if r.relation_type in by_type:
            by_type[r.relation_type][r.head, r.tail] = j
        sig = signatures.get(r.relation_type)
        if sig is None:
            continue
        heads, tails = sig
        head_type, head = endpoint[r.head]
        tail_type, tail = endpoint[r.tail]
        if head_type not in heads:
            if tail_type not in tails:
                rows.append((_RELATION_SIGNATURE, j, head, tail))
            else:
                rows.append((_RELATION_SIGNATURE, j, head))
        elif tail_type not in tails:
            rows.append((_RELATION_SIGNATURE, j, tail))

    for a, b in exclusive_relations:
        others = by_type[b]
        for ends, j in by_type[a].items():
            k = others.get(ends)
            if k is not None:
                rows.append((_EXCLUSIVE_RELATIONS, j, k))
    return rows


def check_constraints(graph: KnowledgeGraph, schema: Schema) -> list[Violation]:
    """Return every schema violation in the graph; empty iff it conforms.

    Pure and order-independent: the result is sorted by (kind, element ids).
    """
    rows = scan_constraints(graph, schema)
    if not rows:
        return []
    keys, confidences = element_table(graph)
    out = [
        Violation(
            VIOLATION_KINDS[row[0]],
            tuple(keys[p] for p in row[1:]),
            tuple(confidences[p] for p in row[1:]),
        )
        for row in rows
    ]
    out.sort(key=lambda v: (v.kind, v.element_ids))
    return out
