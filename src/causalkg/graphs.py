"""Knowledge-graph data model and corpus-level assembly.

Graphs are directed multigraphs over typed token spans: nodes are entities,
each carrying optional boolean attributes and word-sense assignments, and
edges are labeled relations.  Everything is immutable after assembly so
graphs can be shared freely across workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
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

    def span_text(self, span: Span) -> str:
        return " ".join(self.tokens[span.start : span.end])

    def entity_lemmas(self, entity: Entity) -> frozenset[str]:
        return frozenset(self.lemmas[i] for i in entity.span.indices())

    def outgoing(self, entity_id: str) -> list[Relation]:
        return [r for r in self.relations if r.head == entity_id]

    def with_entities(self, entities: Iterable[Entity]) -> "KnowledgeGraph":
        return replace(self, entities=tuple(entities))


def assemble_graph(
    tokens: Sequence[str],
    lemmas: Sequence[str] | None,
    entities: Iterable[tuple[str, Span, str, float]],
    attributes: Iterable[tuple[str, str, float]] = (),
    relations: Iterable[tuple[str, str, str, float]] = (),
    provenance: str = "",
) -> KnowledgeGraph:
    """Build a validated KnowledgeGraph.

    entities: (id, span, entity_type, confidence) tuples.
    attributes: (entity_id, attribute_type, confidence) tuples.
    relations: (head_id, tail_id, relation_type, confidence) tuples.

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

    by_id: dict[str, Entity] = {}
    seen_spans: dict[Span, str] = {}
    for ent_id, span, ent_type, conf in entities:
        ent_id = str(ent_id)
        if ent_id in by_id:
            raise GraphError(f"duplicate entity id {ent_id!r}")
        if span.end > n:
            raise GraphError(f"span [{span.start}, {span.end}) beyond {n} tokens")
        if span in seen_spans:
            raise DuplicateSpanTypeError(
                f"entities {seen_spans[span]!r} and {ent_id!r} share span "
                f"[{span.start}, {span.end})"
            )
        seen_spans[span] = ent_id
        by_id[ent_id] = Entity(
            id=ent_id,
            span=span,
            entity_type=str(ent_type),
            confidence=_check_confidence(conf, f"entity {ent_id!r}"),
        )

    attr_map: dict[str, list[tuple[str, float]]] = {}
    for ent_id, attr_type, conf in attributes:
        if ent_id not in by_id:
            raise DanglingReferenceError(f"attribute on unknown entity {ent_id!r}")
        pairs = attr_map.setdefault(ent_id, [])
        if any(t == attr_type for t, _ in pairs):
            raise GraphError(f"duplicate attribute {attr_type!r} on {ent_id!r}")
        pairs.append((str(attr_type), _check_confidence(conf, f"attribute {attr_type!r}")))
    for ent_id, pairs in attr_map.items():
        by_id[ent_id] = replace(by_id[ent_id], attributes=tuple(pairs))

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


def graph_from_dict(data: Mapping) -> KnowledgeGraph:
    """Inverse of graph_to_dict, revalidating all invariants."""
    try:
        entities = [
            (e["id"], Span(int(e["start"]), int(e["end"])), e["type"], e["confidence"])
            for e in data.get("entities", [])
        ]
        attributes = [
            (e["id"], a["type"], a["confidence"])
            for e in data.get("entities", [])
            for a in e.get("attributes", [])
        ]
        relations = [
            (r["head"], r["tail"], r["type"], r["confidence"])
            for r in data.get("relations", [])
        ]
        senses = {
            e["id"]: tuple((s["sense"], float(s["confidence"])) for s in e.get("senses", []))
            for e in data.get("entities", [])
        }
        graph = assemble_graph(
            data["tokens"],
            data.get("lemmas"),
            entities,
            attributes,
            relations,
            provenance=data.get("provenance", ""),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed graph document: {exc}") from exc
    if any(senses.values()):
        graph = graph.with_entities(
            replace(e, senses=senses.get(e.id, ())) for e in graph.entities
        )
    return graph


def graph_to_json(graph: KnowledgeGraph) -> str:
    return json.dumps(graph_to_dict(graph), indent=2, ensure_ascii=False) + "\n"


def graph_from_json(text: str) -> KnowledgeGraph:
    return graph_from_dict(json.loads(text))
