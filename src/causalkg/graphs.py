"""Knowledge-graph data model and corpus-level assembly.

Graphs are directed multigraphs over typed token spans: nodes are entities,
each carrying optional boolean attributes and word-sense assignments, and
edges are labeled relations.  Everything is immutable after assembly so
graphs can be shared freely across workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from json.encoder import encode_basestring
from typing import Iterable, Mapping, Sequence

from .errors import (
    BadConfidenceError,
    DanglingReferenceError,
    DuplicateProvenanceError,
    DuplicateSpanTypeError,
    GraphError,
    SelfLoopError,
)

__all__ = [
    "Span",
    "Entity",
    "Relation",
    "KnowledgeGraph",
    "CorpusGraph",
    "assemble_graph",
    "merge_corpus",
    "graph_to_dict",
    "graph_from_dict",
]


@dataclass(frozen=True, order=True)
class Span:
    """Half-open token span [start, end); length is end - start."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise GraphError(f"invalid span [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start

    def indices(self) -> range:
        return range(self.start, self.end)


@dataclass(frozen=True)
class Entity:
    """A typed span node with confidence, attributes, and optional senses."""

    id: str
    span: Span
    entity_type: str
    confidence: float
    # (attribute_type, confidence) pairs; each type appears at most once.
    attributes: tuple[tuple[str, float], ...] = ()
    # Ranked (sense_id, confidence) pairs, highest confidence first.
    senses: tuple[tuple[str, float], ...] = ()

    def attribute_types(self) -> frozenset[str]:
        return frozenset(t for t, _ in self.attributes)

    def has_attribute(self, attr_type: str) -> bool:
        return any(t == attr_type for t, _ in self.attributes)

    def attribute_confidence(self, attr_type: str) -> float:
        for t, c in self.attributes:
            if t == attr_type:
                return c
        raise KeyError(attr_type)


@dataclass(frozen=True)
class Relation:
    """A directed labeled edge between two entities (head != tail)."""

    head: str
    tail: str
    relation_type: str
    confidence: float

    @property
    def id(self) -> str:
        return f"{self.head}->{self.tail}:{self.relation_type}"


def _check_confidence(value: float, what: str) -> float:
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise BadConfidenceError(f"{what} confidence {value} outside [0, 1]")
    return value


@dataclass(frozen=True)
class KnowledgeGraph:
    """One sentence's graph: tokens, lemmas, entities, relations."""

    tokens: tuple[str, ...]
    lemmas: tuple[str, ...]
    entities: tuple[Entity, ...]
    relations: tuple[Relation, ...]
    provenance: str = ""

    def entity_by_id(self) -> dict[str, Entity]:
        return {e.id: e for e in self.entities}

    @cached_property
    def _entity_index(self) -> dict[str, Entity]:
        return self.entity_by_id()

    @cached_property
    def _outgoing_index(self) -> dict[str, tuple[Relation, ...]]:
        out: dict[str, list[Relation]] = {}
        for r in self.relations:
            out.setdefault(r.head, []).append(r)
        return {head: tuple(rels) for head, rels in out.items()}

    def entity(self, entity_id: str) -> Entity:
        """The entity with this id, from an index built once per graph."""
        return self._entity_index[entity_id]

    def span_text(self, span: Span) -> str:
        return " ".join(self.tokens[span.start : span.end])

    def entity_lemmas(self, entity: Entity) -> frozenset[str]:
        return frozenset(self.lemmas[i] for i in entity.span.indices())

    def outgoing(self, entity_id: str) -> tuple[Relation, ...]:
        """Relations headed at the entity in graph order, from an index built once per graph."""
        return self._outgoing_index.get(entity_id, ())

    def with_entities(self, entities: Iterable[Entity]) -> "KnowledgeGraph":
        return replace(self, entities=tuple(entities))


def assemble_graph(
    tokens: Sequence[str],
    lemmas: Sequence[str] | None,
    entities: Iterable[tuple[str, Span, str, float]],
    attributes: Iterable[tuple[str, str, float]] = (),
    relations: Iterable[tuple[str, str, str, float]] = (),
    provenance: str = "",
    senses: Iterable[tuple[str, str, float]] = (),
) -> KnowledgeGraph:
    """Build a validated KnowledgeGraph.

    entities: (id, span, entity_type, confidence) tuples.
    attributes: (entity_id, attribute_type, confidence) tuples.
    relations: (head_id, tail_id, relation_type, confidence) tuples.
    senses: (entity_id, sense_id, confidence) tuples, each entity's in rank
    order; a sense confidence is any finite number.

    Lemmas default to lowercased tokens when absent.
    """
    tokens = tuple(str(t) for t in tokens)
    if lemmas is None:
        lemmas = tuple(t.lower() for t in tokens)
    else:
        lemmas = tuple(str(l) for l in lemmas)
    if len(lemmas) != len(tokens):
        raise GraphError(
            f"{len(lemmas)} lemmas for {len(tokens)} tokens"
        )
    n = len(tokens)

    nodes: dict[str, tuple[Span, str, float]] = {}
    seen_spans: dict[Span, str] = {}
    for ent_id, span, ent_type, conf in entities:
        ent_id = str(ent_id)
        if ent_id in nodes:
            raise GraphError(f"duplicate entity id {ent_id!r}")
        if span.end > n:
            raise GraphError(f"span [{span.start}, {span.end}) beyond {n} tokens")
        if span in seen_spans:
            raise DuplicateSpanTypeError(
                f"entities {seen_spans[span]!r} and {ent_id!r} share span "
                f"[{span.start}, {span.end})"
            )
        seen_spans[span] = ent_id
        nodes[ent_id] = (span, str(ent_type), _check_confidence(conf, f"entity {ent_id!r}"))

    attr_map: dict[str, list[tuple[str, float]]] = {}
    for ent_id, attr_type, conf in attributes:
        if ent_id not in nodes:
            raise DanglingReferenceError(f"attribute on unknown entity {ent_id!r}")
        pairs = attr_map.setdefault(ent_id, [])
        if any(t == attr_type for t, _ in pairs):
            raise GraphError(f"duplicate attribute {attr_type!r} on {ent_id!r}")
        pairs.append((str(attr_type), _check_confidence(conf, f"attribute {attr_type!r}")))

    sense_map: dict[str, list[tuple[str, float]]] = {}
    for ent_id, sense, conf in senses:
        if ent_id not in nodes:
            raise DanglingReferenceError(f"sense on unknown entity {ent_id!r}")
        if not isinstance(sense, str):
            raise GraphError(f"sense id {sense!r} on {ent_id!r} is not a string")
        conf = float(conf)
        if not math.isfinite(conf):
            raise GraphError(f"sense {sense!r} on {ent_id!r} has confidence {conf}")
        sense_map.setdefault(ent_id, []).append((sense, conf))

    by_id = {
        ent_id: Entity(
            ent_id, span, ent_type, conf,
            tuple(attr_map.get(ent_id, ())), tuple(sense_map.get(ent_id, ())),
        )
        for ent_id, (span, ent_type, conf) in nodes.items()
    }

    rel_list: list[Relation] = []
    seen_rel: set[tuple[str, str, str]] = set()
    for head, tail, rel_type, conf in relations:
        if head == tail:
            raise SelfLoopError(f"self-loop on {head!r} via {rel_type!r}")
        if head not in by_id or tail not in by_id:
            missing = head if head not in by_id else tail
            raise DanglingReferenceError(f"relation references unknown entity {missing!r}")
        key = (head, tail, rel_type)
        if key in seen_rel:
            raise GraphError(f"duplicate relation {key}")
        seen_rel.add(key)
        rel_list.append(
            Relation(head, tail, str(rel_type), _check_confidence(conf, f"relation {rel_type!r}"))
        )

    return KnowledgeGraph(
        tokens=tokens,
        lemmas=lemmas,
        entities=tuple(by_id.values()),
        relations=tuple(rel_list),
        provenance=str(provenance),
    )


@dataclass(frozen=True)
class CorpusGraph:
    """Disjoint union of sentence graphs with optional cross-sentence links.

    Nodes are addressed globally as "<provenance>/<entity_id>".  Lemma links
    are undirected pseudo-edges between same-lemma entities of distinct
    sentence graphs.  They are stored as lemma_hubs: one (lemma, sorted
    global ids) entry per lemma that entities of at least two distinct
    graphs share, so storage grows with the members, not with the pairs.
    Two nodes are linked iff some hub holds both and they belong to
    different graphs; `find_paths` expands a node's hubs only when it
    reaches the node.
    """

    graphs: tuple[KnowledgeGraph, ...]
    lemma_hubs: tuple[tuple[str, tuple[str, ...]], ...] = ()

    @staticmethod
    def global_id(graph: KnowledgeGraph, entity: Entity) -> str:
        return f"{graph.provenance}/{entity.id}"

    def nodes(self) -> dict[str, tuple[KnowledgeGraph, Entity]]:
        out: dict[str, tuple[KnowledgeGraph, Entity]] = {}
        for g in self.graphs:
            for e in g.entities:
                out[self.global_id(g, e)] = (g, e)
        return out

    @property
    def lemma_links(self) -> frozenset[tuple[str, str]]:
        """Every lemma link as a sorted global-id pair.

        Expanded from the hubs on each access (quadratic in hub size) and
        never stored; path queries do not use it.
        """
        provenance = {gid: g.provenance for gid, (g, _) in self.nodes().items()}
        links: set[tuple[str, str]] = set()
        for _, members in self.lemma_hubs:
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    if provenance[a] != provenance[b]:
                        links.add((a, b))
        return frozenset(links)


def merge_corpus(graphs: Sequence[KnowledgeGraph], lemma_link: bool = False) -> CorpusGraph:
    """Disjoint union of sentence graphs, optionally lemma-linked.

    A lemma link joins two entities of distinct graphs iff they share at
    least one lemma (exact string equality over each span's lemma set).
    The links are stored as hubs (see `CorpusGraph`), built in one pass
    over the entities.  Raises GraphError when two nodes would get the
    same global id, e.g. entity "c" of graph "a/b" and entity "b/c" of
    graph "a".
    """
    seen_prov: set[str] = set()
    for g in graphs:
        if g.provenance in seen_prov:
            raise DuplicateProvenanceError(f"duplicate provenance {g.provenance!r}")
        seen_prov.add(g.provenance)

    seen_ids: set[str] = set()
    members: dict[str, list[str]] = {}
    first_graph: dict[str, int] = {}
    shared: set[str] = set()
    for gi, g in enumerate(graphs):
        for e in g.entities:
            gid = CorpusGraph.global_id(g, e)
            if gid in seen_ids:
                raise GraphError(f"two corpus nodes share the global id {gid!r}")
            seen_ids.add(gid)
            if not lemma_link:
                continue
            for lemma in g.entity_lemmas(e):
                members.setdefault(lemma, []).append(gid)
                if first_graph.setdefault(lemma, gi) != gi:
                    shared.add(lemma)

    hubs = tuple((lemma, tuple(sorted(members[lemma]))) for lemma in sorted(shared))
    return CorpusGraph(graphs=tuple(graphs), lemma_hubs=hubs)


def graph_to_dict(graph: KnowledgeGraph) -> dict:
    """Serialize to the interchange JSON structure."""
    return {
        "tokens": list(graph.tokens),
        "lemmas": list(graph.lemmas),
        "entities": [
            {
                "id": e.id,
                "start": e.span.start,
                "end": e.span.end,
                "type": e.entity_type,
                "confidence": e.confidence,
                "attributes": [
                    {"type": t, "confidence": c} for t, c in e.attributes
                ],
                "senses": [
                    {"sense": s, "confidence": c} for s, c in e.senses
                ],
            }
            for e in graph.entities
        ],
        "relations": [
            {
                "head": r.head,
                "tail": r.tail,
                "type": r.relation_type,
                "confidence": r.confidence,
            }
            for r in graph.relations
        ],
        "provenance": graph.provenance,
    }


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON number: an int or float that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _field_error(field: str, expected: str, value) -> GraphError:
    return GraphError(f"malformed graph document: {field} must be {expected}, got {value!r}")


def graph_from_dict(data: Mapping) -> KnowledgeGraph:
    """Inverse of graph_to_dict, revalidating all invariants.

    Offsets must be JSON integers and confidences JSON numbers (booleans
    and numeric strings are rejected, not coerced); a GraphError names the
    offending field, e.g. `entities[0].start`.
    """
    if not isinstance(data, Mapping):
        raise GraphError(f"a graph document must be an object, got {type(data).__name__}")
    entities, attributes, senses, relations = [], [], [], []
    try:
        for i, e in enumerate(data.get("entities", [])):
            ent_id, start, end, conf = e["id"], e["start"], e["end"], e["confidence"]
            if not _is_int(start):
                raise _field_error(f"entities[{i}].start", "an integer", start)
            if not _is_int(end):
                raise _field_error(f"entities[{i}].end", "an integer", end)
            if not _is_number(conf):
                raise _field_error(f"entities[{i}].confidence", "a number", conf)
            entities.append((ent_id, Span(start, end), e["type"], conf))
            for j, a in enumerate(e.get("attributes", [])):
                if not _is_number(conf := a["confidence"]):
                    raise _field_error(f"entities[{i}].attributes[{j}].confidence", "a number", conf)
                attributes.append((ent_id, a["type"], conf))
            for j, s in enumerate(e.get("senses", [])):
                if not _is_number(conf := s["confidence"]):
                    raise _field_error(f"entities[{i}].senses[{j}].confidence", "a number", conf)
                senses.append((ent_id, s["sense"], conf))
        for i, r in enumerate(data.get("relations", [])):
            if not _is_number(conf := r["confidence"]):
                raise _field_error(f"relations[{i}].confidence", "a number", conf)
            relations.append((r["head"], r["tail"], r["type"], conf))
        return assemble_graph(
            data["tokens"],
            data.get("lemmas"),
            entities,
            attributes,
            relations,
            provenance=data.get("provenance", ""),
            senses=senses,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed graph document: {exc}") from exc


def _scalar(value) -> str:
    """A JSON scalar as `json.dumps(..., ensure_ascii=False)` writes it."""
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _numbers(values: list) -> Iterable[str]:
    """`_scalar` of each value; a list of finite floats is formatted by C alone."""
    # a sum of floats is finite only if every term is
    if set(map(type, values)) <= {float} and math.isfinite(sum(values)):
        return map(float.__repr__, values)
    return map(_scalar, values)


def _array(items: list[str], pad: str) -> str:
    """A JSON list of rendered items whose brackets sit at indent `pad`."""
    if not items:
        return "[]"
    inner = "\n  " + pad
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


# Entity, attribute and sense records at their fixed depths.  Relations,
# which outnumber them by far, are written by an f-string in graph_to_json:
# it formats about a fifth faster than %.
_ENTITY = (
    '{\n      "id": %s,\n      "start": %s,\n      "end": %s,\n      "type": %s,'
    '\n      "confidence": %s,\n      "attributes": %s,\n      "senses": %s\n    }'
)
_ATTRIBUTE = '{\n          "type": %s,\n          "confidence": %s\n        }'
_SENSE = '{\n          "sense": %s,\n          "confidence": %s\n        }'


def _record(record: Mapping) -> str:
    """A flat object of JSON scalars as an item of a top-level list."""
    if not record:
        return "{}"
    fields = ",\n".join(f"      {encode_basestring(k)}: {_scalar(v)}" for k, v in record.items())
    return "{\n" + fields + "\n    }"


def graph_to_json(graph: KnowledgeGraph, extras: Mapping[str, Sequence[Mapping]] | None = None) -> str:
    """The interchange text of `graph_to_dict(graph)`, built in one pass.

    The layout is fixed: the key order of `graph_to_dict`, a 2-space
    indent, strings as unescaped UTF-8, `[]` for an empty list and a
    trailing newline.  The text equals `json.dumps(graph_to_dict(graph),
    indent=2, ensure_ascii=False) + "\n"` byte for byte.  `extras` appends
    new top-level keys after "provenance", each a list of flat records of
    JSON scalars.  A string field that holds no str, or a number field that
    holds no JSON scalar (a numpy integer span bound, say), raises
    TypeError.
    """
    string = encode_basestring
    entities = [
        _ENTITY % (
            string(e.id),
            _scalar(e.span.start),
            _scalar(e.span.end),
            string(e.entity_type),
            _scalar(e.confidence),
            _array([_ATTRIBUTE % (string(t), _scalar(c)) for t, c in e.attributes], "      "),
            _array([_SENSE % (string(s), _scalar(c)) for s, c in e.senses], "      "),
        )
        for e in graph.entities
    ]
    rels = graph.relations
    relations = [
        f'{{\n      "head": {string(r.head)},\n      "tail": {string(r.tail)},'
        f'\n      "type": {string(r.relation_type)},\n      "confidence": {conf}\n    }}'
        for r, conf in zip(rels, _numbers([r.confidence for r in rels]))
    ]
    parts = [
        '{\n  "tokens": ' + _array([string(t) for t in graph.tokens], "  "),
        '"lemmas": ' + _array([string(t) for t in graph.lemmas], "  "),
        '"entities": ' + _array(entities, "  "),
        '"relations": ' + _array(relations, "  "),
        '"provenance": ' + string(graph.provenance),
    ]
    for key, records in (extras or {}).items():
        parts.append(string(key) + ": " + _array([_record(rec) for rec in records], "  "))
    return ",\n  ".join(parts) + "\n}\n"


def graph_from_json(text: str) -> KnowledgeGraph:
    return graph_from_dict(json.loads(text))
