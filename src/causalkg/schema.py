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
        for pair in self.exclusive_attribute_pairs:
            check(pair, attrs, "an exclusive attribute pair")
        for pair in self.exclusive_relation_pairs:
            check(pair, rels, "an exclusive relation pair")
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


def check_constraints(graph: KnowledgeGraph, schema: Schema) -> list[Violation]:
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
