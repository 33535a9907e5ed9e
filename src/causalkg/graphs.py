"""Knowledge-graph data model and corpus-level assembly.

Graphs are directed multigraphs over typed token spans: nodes are entities,
each carrying optional boolean attributes and word-sense assignments, and
edges are labeled relations.  Everything is immutable after assembly so
graphs can be shared freely across workers.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring

import numpy as np

from .errors import (
    BadConfidenceError,
    DanglingReferenceError,
    DuplicateProvenanceError,
    DuplicateSpanTypeError,
    GraphError,
    SelfLoopError,
)
from .readers import array, integer, obj, real, required, string, strings

__all__ = [
    "Span",
    "Entity",
    "Relation",
    "Relations",
    "KnowledgeGraph",
    "CorpusGraph",
    "CorpusIndex",
    "ElementKey",
    "element_id",
    "relation_id",
    "relation_ids",
    "node_prefix",
    "node_id",
    "edge_id",
    "lemma_link_id",
    "assemble_graph",
    "assemble_columns",
    "merge_corpus",
    "graph_to_dict",
    "graph_from_dict",
]


# -- string ids ---------------------------------------------------------------
#
# Every string id is rendered here, from parts (entity ids, types and
# provenances) joined by separators:
#
#   entity        <entity>
#   attribute     <entity>#<attr>
#   relation      <head>-><tail>:<type>
#   corpus node   <provenance>/<entity>
#   corpus edge   <provenance>/<relation id>
#   lemma link    lemma:<node id>~<node id>
#
# Inside a part, each of \ > : # / ~ is escaped with a backslash, so a
# separator never occurs inside a part and distinct keys render to distinct
# ids.  A part that holds none of them is written as it is.

_ESCAPES = str.maketrans({c: "\\" + c for c in "\\>:#/~"})


class _Escaped(dict):
    """`_escaped[part]` is the part with each of \\ > : # / ~ escaped.  It
    keeps the first 2**16 distinct parts it escapes, so rendering a graph's
    ids mostly looks its parts up instead of translating them."""

    def __missing__(self, part: str) -> str:
        escaped = part.translate(_ESCAPES)
        if len(self) < 1 << 16:
            self[part] = escaped
        return escaped


_escaped = _Escaped()

# A typed graph-element key: ("entity", id), ("attribute", entity id, type)
# or ("relation", head id, tail id, type).  Keys never need parsing, so ids
# may contain any character.
ElementKey = tuple[str, ...]


def relation_id(head: str, tail: str, relation_type: str) -> str:
    """The id "<head>-><tail>:<type>" of a relation."""
    return f"{_escaped[head]}->{_escaped[tail]}:{_escaped[relation_type]}"


def relation_ids(relations: "Relations", rows: Iterable[int]) -> list[str]:
    """The `relation_id` of each given row of the columns, joined from each
    entity's and type's part, escaped once."""
    ids = [_escaped[i] for i in relations.ids]
    types = [_escaped[t] for t in relations.types]
    head, tail, code = relations.head, relations.tail, relations.code
    return [f"{ids[head[j]]}->{ids[tail[j]]}:{types[code[j]]}" for j in rows]


def element_id(key: ElementKey) -> str:
    """The id of an element key: "<entity>", "<entity>#<attr>" or
    "<head>-><tail>:<type>"."""
    if key[0] == "entity":
        return _escaped[key[1]]
    if key[0] == "attribute":
        return f"{_escaped[key[1]]}#{_escaped[key[2]]}"
    return relation_id(key[1], key[2], key[3])


def node_prefix(provenance: str) -> str:
    """The "<provenance>/" that starts the corpus ids of a graph's nodes and edges."""
    return _escaped[provenance] + "/"


def node_id(prefix: str, entity_id: str) -> str:
    """The corpus id of an entity; `prefix` is its graph's `node_prefix`."""
    return prefix + _escaped[entity_id]


def edge_id(prefix: str, relation: "Relation") -> str:
    """The corpus id of a relation; `prefix` is its graph's `node_prefix`."""
    return prefix + relation.id


def lemma_link_id(a: str, b: str) -> str:
    """The id of the lemma link between corpus nodes `a` and `b`, the lesser id first."""
    return f"lemma:{a}~{b}" if a < b else f"lemma:{b}~{a}"


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

    @cached_property
    def _attribute_types(self) -> frozenset[str]:
        return frozenset(t for t, _ in self.attributes)

    def attribute_types(self) -> frozenset[str]:
        """The entity's attribute types, a set built once per entity."""
        return self._attribute_types

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
        return relation_id(self.head, self.tail, self.relation_type)


class Relations(Sequence):
    """A graph's relations, held as columns and read as a tuple of `Relation`s.

    Row j joins entity ids[head[j]] to entity ids[tail[j]] with type
    types[code[j]] and confidence confidence[j].  `ids` holds the graph's
    entity ids in graph order, so head and tail are entity indexes; only a
    `KnowledgeGraph` built by hand from relations that name unknown
    entities appends those ids after them.  head, tail, code and
    confidence are lists.

    The `Relation`s are built on first iteration, indexing, hashing or
    repr, which behave as on their tuple; `len` never builds them, and ==
    between two column sets compares columns.
    """

    __slots__ = ("ids", "types", "head", "tail", "code", "confidence", "_rows")

    def __init__(
        self,
        ids: tuple[str, ...],
        types: tuple[str, ...],
        head: list[int],
        tail: list[int],
        code: list[int],
        confidence: list[float],
    ) -> None:
        self.ids, self.types = ids, types
        self.head, self.tail, self.code, self.confidence = head, tail, code, confidence
        self._rows: tuple[Relation, ...] | None = None

    @staticmethod
    def of(ids: tuple[str, ...], relations: Iterable[Relation]) -> "Relations":
        """The columns of `relations` over the entity ids `ids`."""
        table = list(ids)
        index: dict[str, int] = {}
        for i, ent_id in enumerate(ids):
            index.setdefault(ent_id, i)
        types: dict[str, int] = {}
        head, tail, code, confidence = [], [], [], []
        for r in relations:
            for end, column in ((r.head, head), (r.tail, tail)):
                if end not in index:
                    index[end] = len(table)
                    table.append(end)
                column.append(index[end])
            code.append(types.setdefault(r.relation_type, len(types)))
            confidence.append(r.confidence)
        return Relations(tuple(table), tuple(types), head, tail, code, confidence)

    @property
    def rows(self) -> tuple[Relation, ...]:
        if self._rows is None:
            ids, types = self.ids, self.types
            self._rows = tuple(map(
                Relation,
                map(ids.__getitem__, self.head),
                map(ids.__getitem__, self.tail),
                map(types.__getitem__, self.code),
                self.confidence,
            ))
        return self._rows

    def _values(self) -> tuple[list, list, list, list]:
        ids, types = self.ids, self.types
        return (
            list(map(ids.__getitem__, self.head)),
            list(map(ids.__getitem__, self.tail)),
            list(map(types.__getitem__, self.code)),
            self.confidence,
        )

    def __len__(self) -> int:
        return len(self.code)

    def __getitem__(self, index):
        return self.rows[index]

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, Relations):
            if self.ids == other.ids and self.types == other.types:
                return (self.head, self.tail, self.code, self.confidence) == (
                    other.head, other.tail, other.code, other.confidence
                )
            return self._values() == other._values()
        if isinstance(other, tuple):
            return self.rows == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return repr(self.rows)


# Up to this many relations, code that reads relation columns may test them
# one by one: that costs less than the fixed cost of array calls.
FEW_RELATIONS = 64


def _confidence(value, kind: str, name) -> float:
    """The confidence as a float in [0, 1]; the error names the element.

    The message is formatted only on failure, so the caller passes the
    element's kind and name, not a rendered label.
    """
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise BadConfidenceError(f"{kind} {name!r} confidence {value} outside [0, 1]")
    return value


@dataclass(frozen=True)
class KnowledgeGraph:
    """One sentence's graph: tokens, lemmas, entities, relations.

    `relations` may be given as any iterable of `Relation`s; the graph
    keeps them as `Relations` columns over its entity ids.  Columns over
    the same entity ids are kept as they are.
    """

    tokens: tuple[str, ...]
    lemmas: tuple[str, ...]
    entities: tuple[Entity, ...]
    relations: Relations
    provenance: str = ""

    def __post_init__(self) -> None:
        ids = tuple(e.id for e in self.entities)
        relations = self.relations
        if not (isinstance(relations, Relations) and relations.ids[: len(ids)] == ids):
            object.__setattr__(self, "relations", Relations.of(ids, relations))

    def entity_by_id(self) -> dict[str, Entity]:
        return {e.id: e for e in self.entities}

    @cached_property
    def _entity_index(self) -> dict[str, Entity]:
        return self.entity_by_id()

    @cached_property
    def _outgoing_index(self) -> dict[str, tuple[Relation, ...]]:
        return _relations_by(self.relations, "head")

    @cached_property
    def _incoming_index(self) -> dict[str, tuple[Relation, ...]]:
        return _relations_by(self.relations, "tail")

    def entity(self, entity_id: str) -> Entity:
        """The entity with this id, from an index built once per graph."""
        return self._entity_index[entity_id]

    def span_text(self, span: Span) -> str:
        return " ".join(self.tokens[span.start : span.end])

    def entity_lemmas(self, entity: Entity) -> frozenset[str]:
        return frozenset(self.lemmas[entity.span.start : entity.span.end])

    def outgoing(self, entity_id: str) -> tuple[Relation, ...]:
        """Relations headed at the entity in graph order, from an index built once per graph."""
        return self._outgoing_index.get(entity_id, ())

    def incoming(self, entity_id: str) -> tuple[Relation, ...]:
        """Relations ending at the entity in graph order, from an index built once per graph."""
        return self._incoming_index.get(entity_id, ())


def _relations_by(relations: Iterable[Relation], end: str) -> dict[str, tuple[Relation, ...]]:
    out: dict[str, list[Relation]] = {}
    for r in relations:
        out.setdefault(getattr(r, end), []).append(r)
    return {key: tuple(rels) for key, rels in out.items()}


class _GraphBuilder:
    """Checks a graph's invariants as its elements are added, and builds each
    entity once and the relation columns.  `assemble_graph`,
    `assemble_columns` and `graph_from_dict` all go through it.

    The invariants: lemmas match the tokens one to one; entity ids are
    unique; a span lies inside the sentence, and no two entities share one;
    an entity holds each attribute type at most once; a sense id is a string
    with a finite confidence; every other confidence lies in [0, 1]; a
    relation joins two distinct known entities, at most once per type.
    """

    def __init__(self, tokens: tuple[str, ...], lemmas: tuple[str, ...] | None) -> None:
        if lemmas is None:
            lemmas = tuple(t.lower() for t in tokens)
        if len(lemmas) != len(tokens):
            raise GraphError(f"{len(lemmas)} lemmas for {len(tokens)} tokens")
        self.tokens = tokens
        self.lemmas = lemmas
        self.entities: list[Entity] = []
        self.index: dict[str, int] = {}  # entity id -> entity index
        self.spans: dict[tuple[int, int], str] = {}
        self.types: dict[str, int] = {}  # relation type -> code
        self.head: list[int] = []
        self.tail: list[int] = []
        self.code: list[int] = []
        self.confidence: list[float] = []
        self.relation_keys: set[tuple[int, int, int]] = set()

    @staticmethod
    def attribute(pairs: list[tuple[str, float]], ent_id: str, attr_type: str, conf) -> None:
        """Append (attr_type, confidence) to the entity's attribute pairs."""
        for t, _ in pairs:
            if t == attr_type:
                raise GraphError(f"duplicate attribute {attr_type!r} on {ent_id!r}")
        pairs.append((attr_type, _confidence(conf, "attribute", attr_type)))

    @staticmethod
    def sense(pairs: list[tuple[str, float]], ent_id: str, sense, conf) -> None:
        """Append (sense, confidence) to the entity's ranked sense pairs."""
        if not isinstance(sense, str):
            raise GraphError(f"sense id {sense!r} on {ent_id!r} is not a string")
        conf = float(conf)
        if not math.isfinite(conf):
            raise GraphError(f"sense {sense!r} on {ent_id!r} has confidence {conf}")
        pairs.append((sense, conf))

    def entity(
        self,
        ent_id: str,
        span: Span,
        ent_type: str,
        conf,
        attributes: tuple[tuple[str, float], ...],
        senses: tuple[tuple[str, float], ...],
    ) -> None:
        if ent_id in self.index:
            raise GraphError(f"duplicate entity id {ent_id!r}")
        start, end = span.start, span.end
        if end > len(self.tokens):
            raise GraphError(f"span [{start}, {end}) beyond {len(self.tokens)} tokens")
        key = (start, end)
        if key in self.spans:
            raise DuplicateSpanTypeError(
                f"entities {self.spans[key]!r} and {ent_id!r} share span [{start}, {end})"
            )
        self.spans[key] = ent_id
        self.index[ent_id] = len(self.entities)
        self.entities.append(
            Entity(ent_id, span, ent_type, _confidence(conf, "entity", ent_id), attributes, senses)
        )

    def entities_of(
        self,
        entities: Iterable[tuple[str, Span, str, float]],
        attributes: Iterable[tuple[str, str, float]],
        senses: Iterable[tuple[str, str, float]],
    ) -> None:
        """Add `assemble_graph`'s entity, attribute and sense tuples."""
        # attributes and senses are grouped first, so each entity is built once
        attr_map: dict[str, list[tuple[str, float]]] = {}
        for ent_id, attr_type, conf in attributes:
            self.attribute(attr_map.setdefault(ent_id, []), ent_id, str(attr_type), conf)
        sense_map: dict[str, list[tuple[str, float]]] = {}
        for ent_id, sense, conf in senses:
            self.sense(sense_map.setdefault(ent_id, []), ent_id, sense, conf)
        for ent_id, span, ent_type, conf in entities:
            ent_id = str(ent_id)
            self.entity(
                ent_id, span, str(ent_type), conf,
                tuple(attr_map.pop(ent_id, ())), tuple(sense_map.pop(ent_id, ())),
            )
        for ent_id in attr_map:
            raise DanglingReferenceError(f"attribute on unknown entity {ent_id!r}")
        for ent_id in sense_map:
            raise DanglingReferenceError(f"sense on unknown entity {ent_id!r}")

    def relation(self, head: str, tail: str, rel_type: str, conf) -> None:
        if head == tail:
            raise SelfLoopError(f"self-loop on {head!r} via {rel_type!r}")
        h, t = self.index.get(head), self.index.get(tail)
        if h is None or t is None:
            missing = head if h is None else tail
            raise DanglingReferenceError(f"relation references unknown entity {missing!r}")
        c = self.types.setdefault(rel_type, len(self.types))
        key = (h, t, c)
        if key in self.relation_keys:
            raise GraphError(f"duplicate relation {(head, tail, rel_type)}")
        self.relation_keys.add(key)
        self.head.append(h)
        self.tail.append(t)
        self.code.append(c)
        self.confidence.append(_confidence(conf, "relation", rel_type))

    def relation_columns(self, types: tuple[str, ...], head, tail, code, confidence) -> None:
        """Set the relations from integer arrays head, tail (entity indexes)
        and code (indexes into `types`) and a float array confidence.

        Many rows are checked as arrays, and row by row only if the arrays
        show a fault, to raise the first faulty row's error; a few rows
        are checked row by row, which costs less than the array calls.
        """
        k, m = len(self.entities), len(code)
        self.types = dict(zip(types, range(len(types))))
        lists = head.tolist(), tail.tolist(), code.tolist(), confidence.tolist()
        if m <= FEW_RELATIONS or not _valid_columns(head, tail, code, confidence, k, len(types)):
            ids, seen = tuple(self.index), set()
            for h, t, c, conf in zip(*lists):
                for end in (h, t):
                    if not 0 <= end < k:
                        raise DanglingReferenceError(f"relation references unknown entity index {end}")
                if not 0 <= c < len(types):
                    raise GraphError(f"relation type code {c} outside the {len(types)} relation types")
                if h == t:
                    raise SelfLoopError(f"self-loop on {ids[h]!r} via {types[c]!r}")
                if (h, t, c) in seen:
                    raise GraphError(f"duplicate relation {(ids[h], ids[t], types[c])}")
                seen.add((h, t, c))
                if not 0.0 <= conf <= 1.0:
                    _confidence(conf, "relation", types[c])
        self.head, self.tail, self.code, self.confidence = lists

    def graph(self, provenance: str) -> KnowledgeGraph:
        relations = Relations(
            tuple(self.index), tuple(self.types), self.head, self.tail, self.code, self.confidence
        )
        return KnowledgeGraph(self.tokens, self.lemmas, tuple(self.entities), relations, provenance)


def _valid_columns(head, tail, code, confidence, k: int, types: int) -> bool:
    """Whether relation columns hold known, distinct endpoints, known type
    codes, no (head, tail, code) twice and confidences in [0, 1]."""
    keys = (head * k + tail) * types + code
    return bool(
        min(head.min(), tail.min(), code.min()) >= 0
        and max(head.max(), tail.max()) < k
        and code.max() < types
        and not (head == tail).any()
        # a model emits its rows in key order; others are sorted to compare
        and ((keys[1:] > keys[:-1]).all() or len(np.unique(keys)) == len(keys))
        # min and max are NaN if any confidence is
        and confidence.min() >= 0.0
        and confidence.max() <= 1.0
    )


def _builder(tokens: Sequence[str], lemmas: Sequence[str] | None) -> _GraphBuilder:
    return _GraphBuilder(
        tuple(str(t) for t in tokens), None if lemmas is None else tuple(str(l) for l in lemmas)
    )


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

    Lemmas default to lowercased tokens when absent.  Entity ids, all
    types, tokens, lemmas and the provenance are converted with str();
    `graph_from_dict` accepts only strings there.
    """
    builder = _builder(tokens, lemmas)
    builder.entities_of(entities, attributes, senses)
    add_relation = builder.relation
    for head, tail, rel_type, conf in relations:
        add_relation(head, tail, str(rel_type), conf)
    return builder.graph(str(provenance))


def assemble_columns(
    tokens: Sequence[str],
    lemmas: Sequence[str] | None,
    entities: Iterable[tuple[str, Span, str, float]],
    attributes: Iterable[tuple[str, str, float]],
    relation_types: Sequence[str],
    head: np.ndarray,
    tail: np.ndarray,
    code: np.ndarray,
    confidence: np.ndarray,
    provenance: str = "",
) -> KnowledgeGraph:
    """`assemble_graph` for relations given as columns, as a model decodes them.

    Entities and attributes are `assemble_graph`'s tuples and pass its
    checks.  Relation j joins entities[head[j]] to entities[tail[j]] with
    type relation_types[code[j]] and confidence confidence[j]; head, tail
    and code are integer arrays and confidence a float array.  Many rows
    are checked as arrays, not relation by relation: endpoints known and
    distinct, codes in range, no (head, tail, type) twice, confidences in
    [0, 1].  A failure raises the error `assemble_graph` would.
    """
    builder = _builder(tokens, lemmas)
    builder.entities_of(entities, attributes, ())
    builder.relation_columns(tuple(map(str, relation_types)), head, tail, code, confidence)
    return builder.graph(str(provenance))


class CorpusIndex:
    """Lookups over a corpus's nodes, built in one pass over its entities.

    nodes: global id -> (graph, entity), in corpus order.
    lemmas: global id -> the entity's lemma set.
    by_lemma: lemma -> the global ids of the nodes whose lemma set holds
    it, in corpus order.

    Raises DuplicateProvenanceError when two graphs share a provenance.
    Global ids are then unique: entity ids are unique within a graph, and
    distinct (provenance, entity id) pairs render to distinct ids.
    """

    __slots__ = ("nodes", "lemmas", "by_lemma")

    def __init__(self, graphs: Iterable[KnowledgeGraph]) -> None:
        nodes: dict[str, tuple[KnowledgeGraph, Entity]] = {}
        lemmas: dict[str, frozenset[str]] = {}
        by_lemma: dict[str, list[str]] = {}
        provenances: set[str] = set()
        for g in graphs:
            if g.provenance in provenances:
                raise DuplicateProvenanceError(f"duplicate provenance {g.provenance!r}")
            provenances.add(g.provenance)
            prefix = node_prefix(g.provenance)
            entity_lemmas = g.entity_lemmas
            for e in g.entities:
                gid = node_id(prefix, e.id)
                nodes[gid] = (g, e)
                lemmas[gid] = node_lemmas = entity_lemmas(e)
                for lemma in node_lemmas:
                    by_lemma.setdefault(lemma, []).append(gid)
        self.nodes = nodes
        self.lemmas = lemmas
        self.by_lemma = by_lemma


@dataclass(frozen=True)
class CorpusGraph:
    """Disjoint union of sentence graphs with optional cross-sentence links.

    Nodes are addressed by global ids, "<provenance>/<entity_id>" with each
    part escaped (see `node_id`); provenances must be unique.  Lemma links
    are undirected pseudo-edges between same-lemma entities of distinct
    sentence graphs.  They are stored as lemma_hubs: one (lemma, sorted
    global ids) entry per lemma that entities of at least two distinct
    graphs share, so storage grows with the members, not with the pairs.
    Two nodes are linked iff some hub holds both and they belong to
    different graphs; `find_paths` expands a node's hubs only when it
    reaches the node.

    `index` is the corpus's `CorpusIndex`.  `merge_corpus` keeps the one
    its pass over the entities builds; a CorpusGraph built directly builds
    it on first use, and a duplicate provenance raises there.  It takes no
    part in `==`, hashing or `repr`.
    """

    graphs: tuple[KnowledgeGraph, ...]
    lemma_hubs: tuple[tuple[str, tuple[str, ...]], ...] = ()
    _index: CorpusIndex | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def index(self) -> CorpusIndex:
        if self._index is None:
            object.__setattr__(self, "_index", CorpusIndex(self.graphs))
        return self._index

    @property
    def lemma_links(self) -> frozenset[tuple[str, str]]:
        """Every lemma link as a sorted global-id pair.

        Expanded from the hubs on each access (quadratic in hub size) and
        never stored; path queries do not use it.
        """
        nodes = self.index.nodes
        links: set[tuple[str, str]] = set()
        for _, members in self.lemma_hubs:
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    if nodes[a][0] is not nodes[b][0]:
                        links.add((a, b))
        return frozenset(links)


def merge_corpus(graphs: Sequence[KnowledgeGraph], lemma_link: bool = False) -> CorpusGraph:
    """Disjoint union of sentence graphs, optionally lemma-linked.

    A lemma link joins two entities of distinct graphs iff they share at
    least one lemma (exact string equality over each span's lemma set).
    The links are stored as hubs (see `CorpusGraph`), read off the corpus
    index that one pass over the entities builds.  Raises
    DuplicateProvenanceError when two graphs share a provenance.  Entity
    "c" of graph "a/b" and entity "b/c" of graph "a" are distinct nodes,
    "a\\/b/c" and "a/b\\/c".
    """
    index = CorpusIndex(graphs)
    hubs: tuple[tuple[str, tuple[str, ...]], ...] = ()
    if lemma_link:
        nodes = index.nodes
        # members are in corpus order, so a lemma spans two graphs iff its
        # first and last members lie in different graphs
        hubs = tuple(
            (lemma, tuple(sorted(members)))
            for lemma, members in sorted(index.by_lemma.items())
            if nodes[members[0]][0] is not nodes[members[-1]][0]
        )
    corpus = CorpusGraph(graphs=tuple(graphs), lemma_hubs=hubs)
    object.__setattr__(corpus, "_index", index)
    return corpus


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
            {"head": head, "tail": tail, "type": rel_type, "confidence": conf}
            for head, tail, rel_type, conf in zip(*graph.relations._values())
        ],
        "provenance": graph.provenance,
    }


def _malformed(message: str) -> GraphError:
    return GraphError("malformed graph document: " + message)


# (reader, key) per required field of a record
_ENTITY_FIELDS = ((string, "id"), (integer, "start"), (integer, "end"), (string, "type"), (real, "confidence"))
_ATTRIBUTE_FIELDS = ((string, "type"), (real, "confidence"))
_SENSE_FIELDS = ((string, "sense"), (real, "confidence"))
_RELATION_FIELDS = ((string, "head"), (string, "tail"), (string, "type"), (real, "confidence"))


def _check_record(record, label: str, fields: tuple[tuple[Callable, str], ...]) -> None:
    """Read the record's fields; the error names the first one missing or mistyped."""
    obj(record, label, _malformed)
    for read, key in fields:
        required(record, key, f"{label}.{key}", _malformed, read)


def graph_from_dict(data: Mapping) -> KnowledgeGraph:
    """Inverse of graph_to_dict, revalidating all invariants.

    Each record is read once and each element built once, through the
    checks `assemble_graph` runs.  Fields are read by `readers`' rules; a
    GraphError names the offending field, e.g. `entities[0].start` or
    `tokens[2]`.  A missing or null `lemmas` defaults to the lowercased
    tokens; other keys are ignored (`rectify` writes its log there).
    """
    obj(data, "a graph document", GraphError)
    lemmas = data.get("lemmas")
    builder = _GraphBuilder(
        required(data, "tokens", "tokens", _malformed, strings),
        None if lemmas is None else strings(lemmas, "lemmas", _malformed),
    )
    add_attribute, add_sense, add_entity = builder.attribute, builder.sense, builder.entity
    # Each record is read and type-tested in one expression.  Only a record
    # that fails the test (an int confidence, say) or lacks a field goes
    # through _check_record, which raises if a field is at fault, so no
    # label is formatted for a well-typed record.
    for i, e in enumerate(array(data.get("entities", []), "entities", _malformed)):
        try:
            ent_id, start, end, ent_type, conf = e["id"], e["start"], e["end"], e["type"], e["confidence"]
            attrs, senses = e.get("attributes", []), e.get("senses", [])
            ok = (
                isinstance(ent_id, str) and type(start) is int and type(end) is int
                and isinstance(ent_type, str) and isinstance(conf, float)
                and isinstance(attrs, list) and isinstance(senses, list)
            )
        except (KeyError, TypeError):
            ok = False
        if not ok:
            _check_record(e, f"entities[{i}]", _ENTITY_FIELDS)
            array(attrs, f"entities[{i}].attributes", _malformed)
            array(senses, f"entities[{i}].senses", _malformed)
        attr_pairs: list[tuple[str, float]] = []
        for j, a in enumerate(attrs):
            try:
                attr_type, attr_conf = a["type"], a["confidence"]
                ok = isinstance(attr_type, str) and isinstance(attr_conf, float)
            except (KeyError, TypeError):
                ok = False
            if not ok:
                _check_record(a, f"entities[{i}].attributes[{j}]", _ATTRIBUTE_FIELDS)
            add_attribute(attr_pairs, ent_id, attr_type, attr_conf)
        sense_pairs: list[tuple[str, float]] = []
        for j, s in enumerate(senses):
            try:
                sense, sense_conf = s["sense"], s["confidence"]
                ok = isinstance(sense, str) and isinstance(sense_conf, float)
            except (KeyError, TypeError):
                ok = False
            if not ok:
                _check_record(s, f"entities[{i}].senses[{j}]", _SENSE_FIELDS)
            add_sense(sense_pairs, ent_id, sense, sense_conf)
        add_entity(ent_id, Span(start, end), ent_type, conf, tuple(attr_pairs), tuple(sense_pairs))
    add_relation = builder.relation
    for i, r in enumerate(array(data.get("relations", []), "relations", _malformed)):
        try:
            head, tail, rel_type, conf = r["head"], r["tail"], r["type"], r["confidence"]
            ok = (
                isinstance(head, str) and isinstance(tail, str)
                and isinstance(rel_type, str) and isinstance(conf, float)
            )
        except (KeyError, TypeError):
            ok = False
        if not ok:
            _check_record(r, f"relations[{i}]", _RELATION_FIELDS)
        add_relation(head, tail, rel_type, conf)
    return builder.graph(string(data.get("provenance", ""), "provenance", _malformed))


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
    quote = encode_basestring
    entities = [
        _ENTITY % (
            quote(e.id),
            _scalar(e.span.start),
            _scalar(e.span.end),
            quote(e.entity_type),
            _scalar(e.confidence),
            _array([_ATTRIBUTE % (quote(t), _scalar(c)) for t, c in e.attributes], "      "),
            _array([_SENSE % (quote(s), _scalar(c)) for s, c in e.senses], "      "),
        )
        for e in graph.entities
    ]
    rels = graph.relations
    ids = [quote(i) for i in rels.ids]
    types = [quote(t) for t in rels.types]
    relations = [
        f'{{\n      "head": {ids[h]},\n      "tail": {ids[t]},'
        f'\n      "type": {types[c]},\n      "confidence": {conf}\n    }}'
        for h, t, c, conf in zip(rels.head, rels.tail, rels.code, _numbers(rels.confidence))
    ]
    parts = [
        '{\n  "tokens": ' + _array([quote(t) for t in graph.tokens], "  "),
        '"lemmas": ' + _array([quote(t) for t in graph.lemmas], "  "),
        '"entities": ' + _array(entities, "  "),
        '"relations": ' + _array(relations, "  "),
        '"provenance": ' + quote(graph.provenance),
    ]
    for key, records in (extras or {}).items():
        parts.append(quote(key) + ": " + _array([_record(rec) for rec in records], "  "))
    return ",\n  ".join(parts) + "\n}\n"


def graph_from_json(text: str) -> KnowledgeGraph:
    return graph_from_dict(json.loads(text))
