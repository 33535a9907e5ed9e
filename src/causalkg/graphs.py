"""Knowledge-graph data model and corpus-level assembly.

Graphs are directed multigraphs over typed token spans: nodes are entities,
each carrying optional boolean attributes and word-sense assignments, and
edges are labeled relations.  Everything is immutable after assembly so
graphs can be shared freely across workers.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import compress, islice
from json.encoder import encode_basestring
from typing import TYPE_CHECKING

import numpy as np
import orjson

from .errors import (
    BadConfidenceError,
    DanglingReferenceError,
    DuplicateProvenanceError,
    DuplicateSpanTypeError,
    GraphError,
    SelfLoopError,
)
from .readers import array, integer, obj, parse_json, real, required, string, strings

if TYPE_CHECKING:
    from .rectify import RemovalRecord  # rectify imports this module

__all__ = [
    "Span",
    "Entity",
    "Relation",
    "Relations",
    "KnowledgeGraph",
    "CorpusGraph",
    "ElementKey",
    "element_id",
    "relation_id",
    "relation_ids",
    "node_prefix",
    "node_id",
    "edge_ids",
    "lemma_link_id",
    "assemble_graph",
    "assemble_columns",
    "subgraph",
    "with_senses",
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


def edge_ids(prefix: str, relations: "Relations", rows: Iterable[int]) -> list[str]:
    """The corpus id of each given row; `prefix` is the graph's `node_prefix`."""
    return [prefix + rel_id for rel_id in relation_ids(relations, rows)]


def lemma_link_id(a: str, b: str) -> str:
    """The id of the lemma link between corpus nodes `a` and `b`, the lesser id first."""
    return f"lemma:{a}~{b}" if a < b else f"lemma:{b}~{a}"


@dataclass(frozen=True, order=True)
class Span:
    """Half-open token span [start, end); length is end - start.  A numpy
    integer bound is stored as an int; a bool, float or str raises."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if type(self.start) is not int or type(self.end) is not int:
            object.__setattr__(self, "start", _bound(self.start))
            object.__setattr__(self, "end", _bound(self.end))
        if self.start < 0 or self.end <= self.start:
            raise GraphError(f"invalid span [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start

    def indices(self) -> range:
        return range(self.start, self.end)


class _Spans(dict):
    """`_spans[start, end]` is Span(start, end) for int bounds, and raises
    as it does.  It keeps the first 2**12 spans it builds: a corpus's
    sentences share a few spans, and looking one up costs a tenth of
    building it."""

    def __missing__(self, key: tuple[int, int]) -> Span:
        span = Span(*key)
        if len(self) < 1 << 12:
            self[key] = span
        return span


_spans = _Spans()


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


def _new_entity(ent_id, span, ent_type, conf, attributes, senses) -> Entity:
    """Entity(...) over fields `_GraphBuilder.entity` checked, in about half
    the time: the fields go straight into the instance dict, where __init__
    sets each through object.__setattr__.  They go in __init__'s order, so
    the entities share one key table; the dict costs about 60 bytes an
    entity, and a field read through it takes a little longer."""
    entity = object.__new__(Entity)
    stored = entity.__dict__
    stored["id"] = ent_id
    stored["span"] = span
    stored["entity_type"] = ent_type
    stored["confidence"] = conf
    stored["attributes"] = attributes
    stored["senses"] = senses
    return entity


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
    entity ids in graph order, so head and tail are entity indexes.  head,
    tail, code and confidence are lists; `arrays()` views them as arrays.

    The `Relation`s are built on first iteration, indexing, hashing or
    repr, which behave as on their tuple; `len` never builds them, and ==
    between two column sets compares columns.
    """

    __slots__ = ("ids", "types", "head", "tail", "code", "confidence", "_rows", "_arrays")

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
        self._arrays: tuple[np.ndarray, ...] | None = None

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

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """head, tail and code as np.intp arrays and confidence as a float64
        array, all read-only: made once per graph, by the builder when it
        checked the columns as arrays, else on the first call."""
        if self._arrays is None:
            self._arrays = _column_arrays(self.head, self.tail, self.code, self.confidence)
        return self._arrays

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


def _column_arrays(head, tail, code, confidence) -> tuple[np.ndarray, ...]:
    """New read-only arrays of relation columns, lists or arrays: np.intp
    head, tail and code and float64 confidence."""
    intp = np.intp
    columns = (
        np.array(head, dtype=intp), np.array(tail, dtype=intp),
        np.array(code, dtype=intp), np.array(confidence, dtype=float),
    )
    for column in columns:
        column.setflags(write=False)
    return columns


# Up to this many relations, code that reads relation columns may test them
# one by one: that costs less than the fixed cost of array calls.
FEW_RELATIONS = 64


def _bound(value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise GraphError(f"span bound {value!r} is not an integer")
    return int(value)


def _text(value, kind: str) -> str:
    if not isinstance(value, str):
        raise GraphError(f"{kind} {value!r} is not a string")
    return value


def _texts(values, kind: str) -> tuple[str, ...]:
    """A sequence of strings as a tuple; a str is refused, not split into
    characters, and so is a value that is not iterable."""
    if isinstance(values, str):
        raise GraphError(f"{kind}s {values!r} are a string, not a sequence of strings")
    try:
        return tuple([_text(v, kind) for v in values])
    except TypeError:
        raise GraphError(f"{kind}s {values!r} are not a sequence of strings") from None


def _elements(values, kind: str, cls: type) -> tuple:
    """The elements of values, each a `cls`, as a tuple.  A str is refused,
    not split into characters, and so is a value that is not iterable;
    otherwise GraphError names the first element that is not a `cls`."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise GraphError(f"{kind} list {values!r} is not a sequence of {cls.__name__} objects")
    values = tuple(values)
    for value in values:
        if not isinstance(value, cls):
            raise GraphError(f"{kind} {value!r} is of type {type(value).__name__}, not {cls.__name__}")
    return values


def _records(records: Iterable, kind: str, names: tuple[str, ...]) -> Iterator[tuple]:
    """Each record as a tuple of one value per name; GraphError names the
    first record that is not one, or a records value that is not iterable."""
    if not isinstance(records, Iterable):
        raise GraphError(f"{kind} list {records!r} is not a sequence of tuples")
    for record in records:
        values = record if type(record) is tuple else tuple(record) if isinstance(record, Iterable) else ()
        if len(values) != len(names):
            raise GraphError(f"{kind} {record!r} is not a ({', '.join(names)}) tuple")
        yield values


def _pairs(groups: dict, ent_id, kind: str) -> list:
    """groups[ent_id], a new empty list if absent.  An id that cannot be
    hashed names no entity, and raises what an unknown id raises."""
    try:
        return groups.setdefault(ent_id, [])
    except TypeError:
        raise DanglingReferenceError(f"{kind} on unknown entity {ent_id!r}") from None


def _index(value) -> bool:
    """Whether value can index a relation column: an int or a numpy
    integer, not a bool."""
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def _number(value, label: str, error: type[GraphError]) -> float:
    """A real number as a float: an int, a float or a numpy real, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{label} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{label} is an integer of {value.bit_length()} bits, beyond a float") from None


def _confidence(value, kind: str, name) -> float:
    """The confidence as a float in [0, 1]; the error names the element.

    The message is formatted only on failure, so the caller passes the
    element's kind and name, not a rendered label.
    """
    if type(value) is not float:
        value = _number(value, f"{kind} {name!r} confidence", BadConfidenceError)
    if not (0.0 <= value <= 1.0):
        raise BadConfidenceError(f"{kind} {name!r} confidence {value} outside [0, 1]")
    return value


@dataclass(frozen=True)
class KnowledgeGraph:
    """One sentence's graph: tokens, lemmas, entities, relations.

    One rule: a graph that `_GraphBuilder` made (`assemble_graph`,
    `assemble_columns`, `graph_from_dict`) is trusted, and so are the two
    derived from one here, `subgraph` and `with_senses` (`_new_graph`).  Any
    other construction, `dataclasses.replace` included, is `assemble_graph`
    over the graph's fields, and raises its errors.  The relations may then be
    `Relation`s or `Relations` columns over any entity ids.
    """

    tokens: tuple[str, ...]
    lemmas: tuple[str, ...]
    entities: tuple[Entity, ...]
    relations: Relations
    provenance: str = ""

    def __post_init__(self) -> None:
        entities = _elements(self.entities, "entity", Entity)
        relations = self.relations
        if not isinstance(relations, Relations):
            relations = _elements(relations, "relation", Relation)
        builder = _GraphBuilder(self.tokens, self.lemmas)
        builder.entities_of(
            ((e.id, e.span, e.entity_type, e.confidence) for e in entities),
            ((e.id, t, c) for e in entities for t, c in _records(e.attributes, "attribute", ("type", "confidence"))),
            ((e.id, s, c) for e in entities for s, c in _records(e.senses, "sense", ("sense id", "confidence"))),
        )
        if isinstance(relations, Relations):
            builder.relation_table(relations.types)
            ids = _texts(relations.ids, "entity id")
            builder.relation_rows(ids, relations.head, relations.tail, relations.code, relations.confidence)
        else:
            for r in relations:
                builder.relation(r.head, r.tail, r.relation_type, r.confidence)
        checked = builder.graph(self.provenance)
        for f in fields(self):
            object.__setattr__(self, f.name, getattr(checked, f.name))

    def entity_by_id(self) -> dict[str, Entity]:
        return {e.id: e for e in self.entities}

    @cached_property
    def _entity_index(self) -> dict[str, Entity]:
        return self.entity_by_id()

    @cached_property
    def _adjacency(self) -> tuple[dict[str, tuple[int, ...]], dict[str, tuple[int, ...]]]:
        """Each entity id's outgoing and incoming relation rows, in graph order."""
        rels, outgoing, incoming = self.relations, {}, {}
        for j, (h, t) in enumerate(zip(rels.head, rels.tail)):
            outgoing.setdefault(rels.ids[h], []).append(j)
            incoming.setdefault(rels.ids[t], []).append(j)
        return tuple({ent_id: tuple(rows) for ent_id, rows in index.items()} for index in (outgoing, incoming))

    def entity(self, entity_id: str) -> Entity:
        """The entity with this id, from an index built once per graph."""
        return self._entity_index[entity_id]

    def span_text(self, span: Span) -> str:
        return " ".join(self.tokens[span.start : span.end])

    def entity_lemmas(self, entity: Entity) -> frozenset[str]:
        return frozenset(self.lemmas[entity.span.start : entity.span.end])

    def outgoing(self, entity_id: str) -> tuple[int, ...]:
        """The rows of the relations headed at the entity, in graph order."""
        return self._adjacency[0].get(entity_id, ())

    def incoming(self, entity_id: str) -> tuple[int, ...]:
        """The rows of the relations ending at the entity, in graph order."""
        return self._adjacency[1].get(entity_id, ())


def _new_graph(tokens, lemmas, entities, relations, provenance) -> KnowledgeGraph:
    """KnowledgeGraph(...) over checked fields, built with no check as `_new_entity` builds an `Entity`."""
    graph = object.__new__(KnowledgeGraph)
    graph.__dict__.update(tokens=tokens, lemmas=lemmas, entities=entities, relations=relations, provenance=provenance)
    return graph


class _GraphBuilder:
    """Checks a graph's invariants as its elements are added, and builds each
    entity once and the relation columns.  `assemble_graph`,
    `assemble_columns`, `graph_from_dict` and every other construction of
    a `KnowledgeGraph` go through it.

    The invariants: tokens, lemmas, ids, types and the provenance are
    strings; lemmas match the tokens one to one; entity ids are unique; a
    span lies inside the sentence, and no two entities share one; an entity
    holds each attribute type at most once; a sense confidence is finite,
    and every other lies in [0, 1]; a relation joins two distinct known
    entities, at most once per type.
    """

    def __init__(self, tokens: Sequence[str], lemmas: Sequence[str] | None, read: bool = False) -> None:
        """`read`: tokens and lemmas are tuples that `readers.strings` read, so
        they hold strings only and are not checked again."""
        if not read:
            tokens = _texts(tokens, "token")
            lemmas = None if lemmas is None else _texts(lemmas, "lemma")
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
        self.arrays: tuple[np.ndarray, ...] | None = None  # the columns, if checked as arrays
        self.relation_keys: set[tuple[int, int, int]] = set()

    @staticmethod
    def attribute(pairs: list[tuple[str, float]], ent_id: str, attr_type: str, conf) -> None:
        """Append (attr_type, confidence) to the entity's attribute pairs."""
        if type(attr_type) is not str:
            _text(attr_type, "attribute type")
        for t, _ in pairs:
            if t == attr_type:
                raise GraphError(f"duplicate attribute {attr_type!r} on {ent_id!r}")
        if not (type(conf) is float and 0.0 <= conf <= 1.0):
            conf = _confidence(conf, "attribute", attr_type)
        pairs.append((attr_type, conf))

    @staticmethod
    def sense(pairs: list[tuple[str, float]], ent_id: str, sense, conf) -> None:
        """Append (sense, confidence) to the entity's ranked sense pairs."""
        if not isinstance(sense, str):
            raise GraphError(f"sense id {sense!r} on {ent_id!r} is not a string")
        if type(conf) is not float:
            conf = _number(conf, f"sense {sense!r} on {ent_id!r} confidence", GraphError)
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
        if type(ent_id) is not str:
            _text(ent_id, "entity id")
        if ent_id in self.index:
            raise GraphError(f"duplicate entity id {ent_id!r}")
        if type(ent_type) is not str:
            _text(ent_type, "entity type")
        if not isinstance(span, Span):
            raise GraphError(f"entity {ent_id!r} span {span!r} is not a Span")
        start, end = span.start, span.end
        if end > len(self.tokens):
            raise GraphError(f"span [{start}, {end}) beyond {len(self.tokens)} tokens")
        key = (start, end)
        if key in self.spans:
            raise DuplicateSpanTypeError(
                f"entities {self.spans[key]!r} and {ent_id!r} share span [{start}, {end})"
            )
        if not (type(conf) is float and 0.0 <= conf <= 1.0):
            conf = _confidence(conf, "entity", ent_id)
        self.spans[key] = ent_id
        self.index[ent_id] = len(self.entities)
        self.entities.append(_new_entity(ent_id, span, ent_type, conf, attributes, senses))

    def entities_of(
        self,
        entities: Iterable[tuple[str, Span, str, float]],
        attributes: Iterable[tuple[str, str, float]],
        senses: Iterable[tuple[str, str, float]],
    ) -> None:
        """Add `assemble_graph`'s entity, attribute and sense tuples."""
        # attributes and senses are grouped first, so each entity is built once
        attr_map: dict[str, list[tuple[str, float]]] = {}
        for ent_id, attr_type, conf in _records(attributes, "attribute", ("entity id", "type", "confidence")):
            self.attribute(_pairs(attr_map, ent_id, "attribute"), ent_id, attr_type, conf)
        sense_map: dict[str, list[tuple[str, float]]] = {}
        for ent_id, sense, conf in _records(senses, "sense", ("entity id", "sense id", "confidence")):
            self.sense(_pairs(sense_map, ent_id, "sense"), ent_id, sense, conf)
        for ent_id, span, ent_type, conf in _records(entities, "entity", ("id", "span", "type", "confidence")):
            if type(ent_id) is not str:  # refused before it keys the maps, which an unhashable id breaks
                _text(ent_id, "entity id")
            self.entity(
                ent_id, span, ent_type, conf,
                tuple(attr_map.pop(ent_id, ())), tuple(sense_map.pop(ent_id, ())),
            )
        for ent_id in attr_map:
            raise DanglingReferenceError(f"attribute on unknown entity {ent_id!r}")
        for ent_id in sense_map:
            raise DanglingReferenceError(f"sense on unknown entity {ent_id!r}")

    def entity_records(self, records: list) -> None:
        """Add a graph document's entity records, with their attributes and
        senses.  This loop and `relation_records` know the JSON record keys,
        as no other method does: the saving is the per-record method call.
        A record of exact JSON types that keeps every invariant is tested in
        one expression against the builder's state and stored only once all
        of it has passed.  Any other goes through `_entity_record`, which
        raises the error of its first fault or stores a coerced value."""
        n, index, spans, entities, inf = len(self.tokens), self.index, self.spans, self.entities, math.inf
        for i, e in enumerate(records):
            try:
                ent_id, start, end, ent_type, conf = e["id"], e["start"], e["end"], e["type"], e["confidence"]
                attrs, senses = e.get("attributes", []), e.get("senses", [])
                good = (
                    type(ent_id) is str and type(start) is int and type(end) is int and type(ent_type) is str
                    and type(conf) is float and type(attrs) is list and type(senses) is list
                    and 0 <= start < end <= n and 0.0 <= conf <= 1.0
                    and ent_id not in index and (key := (start, end)) not in spans
                )
                attr_pairs = sense_pairs = ()
                if good and attrs:
                    pairs = {}
                    for a in attrs:
                        t, c = a["type"], a["confidence"]
                        if not (type(t) is str and type(c) is float and 0.0 <= c <= 1.0 and t not in pairs):
                            good = False
                            break
                        pairs[t] = c
                    attr_pairs = tuple(pairs.items())
                if good and senses:
                    sense_pairs = tuple([(s["sense"], s["confidence"]) for s in senses])
                    good = all(type(s) is str and type(c) is float and -inf < c < inf for s, c in sense_pairs)
            except (KeyError, TypeError):
                good = False
            if good:
                spans[key] = ent_id
                index[ent_id] = len(entities)
                entities.append(_new_entity(ent_id, _spans[key], ent_type, conf, attr_pairs, sense_pairs))
            else:
                self._entity_record(i, e)

    def _entity_record(self, i: int, e) -> None:
        """Add entity record i through `_check_record` and the `attribute`, `sense` and `entity`
        checks: its fields are read before its attributes and senses, its invariants checked after."""
        label = f"entities[{i}]"
        _check_record(e, label, _ENTITY_FIELDS)
        attrs = array(e.get("attributes", []), f"{label}.attributes", _malformed)
        senses = array(e.get("senses", []), f"{label}.senses", _malformed)
        ent_id, attr_pairs, sense_pairs = e["id"], [], []
        for j, a in enumerate(attrs):
            _check_record(a, f"{label}.attributes[{j}]", _ATTRIBUTE_FIELDS)
            self.attribute(attr_pairs, ent_id, a["type"], a["confidence"])
        for j, s in enumerate(senses):
            _check_record(s, f"{label}.senses[{j}]", _SENSE_FIELDS)
            self.sense(sense_pairs, ent_id, s["sense"], s["confidence"])
        # the bounds are ints here: _spans would take (1.0, 2) for (1, 2)
        span = _spans[e["start"], e["end"]]
        self.entity(ent_id, span, e["type"], e["confidence"], tuple(attr_pairs), tuple(sense_pairs))

    def relation(self, head: str, tail: str, rel_type: str, conf) -> None:
        try:
            if head == tail:
                raise SelfLoopError(f"self-loop on {head!r} via {rel_type!r}")
            h, t, c = self.index.get(head), self.index.get(tail), self.types.get(rel_type)
        except (TypeError, ValueError):
            # ids and types are strings, so a value that cannot be hashed, or
            # that == cannot compare (a numpy scalar with a list), names none
            h = self.index.get(head) if isinstance(head, str) else None
            t = self.index.get(tail) if isinstance(tail, str) else None
            c = None
        if h is None or t is None:
            missing = head if h is None else tail
            raise DanglingReferenceError(f"relation references unknown entity {missing!r}")
        if c is None:
            c = self.types[_text(rel_type, "relation type")] = len(self.types)
        key = (h, t, c)
        if key in self.relation_keys:
            raise GraphError(f"duplicate relation {(head, tail, rel_type)}")
        if not (type(conf) is float and 0.0 <= conf <= 1.0):
            conf = _confidence(conf, "relation", rel_type)
        self.relation_keys.add(key)
        self.head.append(h)
        self.tail.append(t)
        self.code.append(c)
        self.confidence.append(conf)

    def relation_records(self, records: list) -> None:
        """Add a graph document's relation records as `entity_records` adds entities, with a type
        not seen before numbered as `relation` numbers it; a faulty record goes to `relation`."""
        index, types, keys = self.index, self.types, self.relation_keys
        heads, tails, codes, confidences = self.head, self.tail, self.code, self.confidence
        for i, r in enumerate(records):
            try:
                head, tail, rel_type, conf = r["head"], r["tail"], r["type"], r["confidence"]
                good = (
                    type(head) is str and type(tail) is str and type(rel_type) is str and type(conf) is float
                    and 0.0 <= conf <= 1.0 and head != tail
                    and (h := index.get(head)) is not None and (t := index.get(tail)) is not None
                    and ((c := types.get(rel_type)) is None or (key := (h, t, c)) not in keys)
                )
            except (KeyError, TypeError):
                good = False
            if good:
                if c is None:
                    c = types[rel_type] = len(types)
                    key = (h, t, c)
                keys.add(key)
                heads.append(h)
                tails.append(t)
                codes.append(c)
                confidences.append(conf)
            else:
                _check_record(r, f"relations[{i}]", _RELATION_FIELDS)
                self.relation(r["head"], r["tail"], r["type"], r["confidence"])

    def relation_table(self, types: Sequence[str]) -> None:
        """Number the relation types as given; each is a string, named once."""
        types = _texts(types, "relation type")
        self.types = dict(zip(types, range(len(types))))
        if len(self.types) < len(types):
            twice = next(t for i, t in enumerate(types) if t in types[:i])
            raise GraphError(f"relation type {twice!r} is named more than once")

    def relation_rows(self, ids: Sequence[str], head, tail, code, confidence) -> None:
        """Add row j of the columns, from ids[head[j]] to ids[tail[j]] with the
        type numbered code[j], through `relation`'s check."""
        types, k = tuple(self.types), len(ids)
        try:
            same = len(head) == len(tail) == len(code) == len(confidence)
            rows = zip(head, tail, code, confidence)
        except TypeError:
            raise GraphError("relation columns must be sequences") from None
        if not same:
            raise GraphError("relation columns differ in length")
        for h, t, c, conf in rows:
            for end in (h, t):
                if not (_index(end) and 0 <= end < k):
                    raise DanglingReferenceError(f"relation references unknown entity index {end!r}")
            if not (_index(c) and 0 <= c < len(types)):
                raise GraphError(f"relation type code {c!r} outside the {len(types)} relation types")
            self.relation(ids[h], ids[t], types[c], conf)

    def relation_columns(self, types: Sequence[str], head, tail, code, confidence) -> None:
        """`relation_rows` over the entities and `types` for integer arrays
        head, tail and code and a float array confidence.  Many rows are
        checked as arrays; a few, which cost less so, or many that the
        arrays show a fault in go row by row, so the first faulty row raises.
        Many valid rows also keep read-only copies of the arrays, which the
        graph's `Relations.arrays` returns; the caller's arrays stay its own.
        """
        self.relation_table(types)
        if len(code) > FEW_RELATIONS and _valid_columns(head, tail, code, confidence, len(self.entities), len(types)):
            # the lists are read from the copies, so they hold ints and
            # floats as the rows' checks would store them
            self.arrays = _column_arrays(head, tail, code, confidence)
            self.head, self.tail, self.code, self.confidence = (column.tolist() for column in self.arrays)
            return
        self.relation_rows(tuple(self.index), head.tolist(), tail.tolist(), code.tolist(), confidence.tolist())

    def graph(self, provenance: str) -> KnowledgeGraph:
        if type(provenance) is not str:
            _text(provenance, "provenance")
        relations = Relations(tuple(self.index), tuple(self.types), self.head, self.tail, self.code, self.confidence)
        relations._arrays = self.arrays
        return _new_graph(self.tokens, self.lemmas, tuple(self.entities), relations, provenance)


def _valid_columns(head, tail, code, confidence, k: int, types: int) -> bool:
    """Whether relation columns hold integer indexes of known, distinct
    endpoints and known type codes, no (head, tail, code) twice and
    confidences in [0, 1]."""
    if not all(column.dtype.kind in "iu" for column in (head, tail, code)):
        return False
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
    types, sense ids, tokens, lemmas and the provenance are strings, and
    span bounds ints; any other value, or a tuple with too few or too many
    fields, raises GraphError.
    """
    builder = _GraphBuilder(tokens, lemmas)
    builder.entities_of(entities, attributes, senses)
    add_relation = builder.relation
    for head, tail, rel_type, conf in _records(relations, "relation", ("head id", "tail id", "type", "confidence")):
        add_relation(head, tail, rel_type, conf)
    return builder.graph(provenance)


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
    [0, 1].  A failure raises the error `assemble_graph` would; a type
    named twice in relation_types raises GraphError.
    """
    builder = _GraphBuilder(tokens, lemmas)
    builder.entities_of(entities, attributes, ())
    builder.relation_columns(relation_types, head, tail, code, confidence)
    return builder.graph(provenance)


def subgraph(graph: KnowledgeGraph, entity_kept, attribute_kept, relation_kept) -> KnowledgeGraph:
    """The graph with only its kept elements: a flag per entity, per
    attribute in entity order and per relation row.  An attribute or
    relation goes with its entity, so nothing needs checking again."""
    entities, new_index, attribute_flags = [], [], iter(attribute_kept)
    for e, keep in zip(graph.entities, entity_kept, strict=True):
        flags = list(islice(attribute_flags, len(e.attributes)))
        new_index.append(len(entities) if keep else -1)
        if keep:
            if not all(flags):
                e = Entity(e.id, e.span, e.entity_type, e.confidence, tuple(compress(e.attributes, flags)), e.senses)
            entities.append(e)
    rels = graph.relations
    head, tail = rels.head, rels.tail
    rows = [
        j for j in compress(range(len(rels)), relation_kept) if new_index[head[j]] >= 0 and new_index[tail[j]] >= 0
    ]
    relations = Relations(
        tuple(e.id for e in entities), rels.types,
        [new_index[head[j]] for j in rows], [new_index[tail[j]] for j in rows],
        [rels.code[j] for j in rows], [rels.confidence[j] for j in rows],
    )
    return _new_graph(graph.tokens, graph.lemmas, tuple(entities), relations, graph.provenance)


def with_senses(graph: KnowledgeGraph, senses: Iterable[Iterable[tuple[str, float]]]) -> KnowledgeGraph:
    """The graph with senses[i], ranked (sense id, confidence) pairs, as
    entity i's senses.  Only they are checked, as `assemble_graph` checks
    senses; the rest, relation columns included, is kept as it is."""
    entities = []
    for e, pairs in zip(graph.entities, senses, strict=True):
        checked: list[tuple[str, float]] = []
        for sense, conf in pairs:
            _GraphBuilder.sense(checked, e.id, sense, conf)
        entities.append(Entity(e.id, e.span, e.entity_type, e.confidence, e.attributes, tuple(checked)))
    return _new_graph(graph.tokens, graph.lemmas, tuple(entities), graph.relations, graph.provenance)


@dataclass(frozen=True)
class CorpusGraph:
    """Disjoint union of sentence graphs, optionally lemma-linked.

    Nodes are addressed by global ids, "<provenance>/<entity_id>" with each
    part escaped (see `node_id`): entity "c" of graph "a/b" and entity
    "b/c" of graph "a" are distinct nodes, "a\\/b/c" and "a/b\\/c".
    A lemma link is an undirected pseudo-edge that joins two entities of
    distinct graphs iff they share at least one lemma (exact string
    equality over each span's lemma set).  No link is stored: with
    lemma_link, `find_paths` reads a node's links from by_lemma when it
    reaches the node, and `lemma_links` lists them all.

    Only graphs and lemma_link are given; every construction, `replace`
    included, derives the rest from them in one pass over the entities:
    nodes: global id -> (graph, entity), in corpus order.
    by_lemma: lemma -> the global ids of the nodes whose lemma set holds
    it, in corpus order.
    `typed_buckets()` gives the nodes by entity type and by attribute
    type, built on its first call and kept.  None of them takes part in
    `==`, hashing or `repr`.

    Raises GraphError when graphs is not a sequence of `KnowledgeGraph`s,
    and DuplicateProvenanceError when two of them share a provenance.
    Global ids are then unique: entity ids are unique within a graph, and
    distinct (provenance, entity id) pairs render to distinct ids.
    """

    graphs: tuple[KnowledgeGraph, ...]
    lemma_link: bool = False
    nodes: dict[str, tuple[KnowledgeGraph, Entity]] = field(init=False, compare=False, repr=False)
    by_lemma: dict[str, list[str]] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        graphs = _elements(self.graphs, "graph", KnowledgeGraph)
        nodes: dict[str, tuple[KnowledgeGraph, Entity]] = {}
        by_lemma: dict[str, list[str]] = {}
        provenances: set[str] = set()
        for g in graphs:
            if g.provenance in provenances:
                raise DuplicateProvenanceError(f"duplicate provenance {g.provenance!r}")
            provenances.add(g.provenance)
            prefix, lemmas = node_prefix(g.provenance), g.lemmas
            for e in g.entities:
                gid = prefix + _escaped[e.id]
                nodes[gid] = (g, e)
                start, end = e.span.start, e.span.end
                if end - start == 1:  # most nodes: one lemma, and no set to build
                    members = by_lemma.get(lemmas[start])
                    if members is None:
                        by_lemma[lemmas[start]] = [gid]
                    else:
                        members.append(gid)
                else:
                    for lemma in frozenset(lemmas[start:end]):
                        by_lemma.setdefault(lemma, []).append(gid)
        object.__setattr__(self, "graphs", graphs)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "by_lemma", by_lemma)

    @cached_property
    def _typed(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        by_type: dict[str, list[str]] = {}
        by_attribute: dict[str, list[str]] = {}
        for gid, (_, e) in self.nodes.items():
            by_type.setdefault(e.entity_type, []).append(gid)
            for attr_type, _ in e.attributes:
                by_attribute.setdefault(attr_type, []).append(gid)
        return by_type, by_attribute

    def typed_buckets(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        """(by_type, by_attribute): entity type -> the global ids of the
        nodes of that type, and attribute type -> those of the nodes that
        carry it, in corpus order.  Built on the first call and kept."""
        return self._typed

    @property
    def lemma_links(self) -> frozenset[tuple[str, str]]:
        """Every lemma link as a sorted global-id pair; none without lemma_link.

        Expanded from by_lemma on each access (quadratic in a lemma's
        members) and never stored; path queries do not use it.
        """
        if not self.lemma_link:
            return frozenset()
        nodes = self.nodes
        return frozenset(
            (a, b) if a < b else (b, a)
            for members in self.by_lemma.values()
            for i, a in enumerate(members)
            for b in members[i + 1 :]
            if nodes[a][0] is not nodes[b][0]
        )


def merge_corpus(graphs: Sequence[KnowledgeGraph], lemma_link: bool = False) -> CorpusGraph:
    """The corpus of graphs, lemma-linked if lemma_link; see `CorpusGraph`."""
    return CorpusGraph(graphs, lemma_link)


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

    Each record is read, checked and built in one pass, by the checks
    `assemble_graph` runs and with its errors (`_GraphBuilder.entity_records`
    and `relation_records`).  Fields are read by `readers`' rules; a
    GraphError names the offending field, e.g. `entities[0].start` or
    `tokens[2]`.  A missing or null `lemmas` defaults to the lowercased
    tokens; other keys are ignored (`rectify` writes its log there).
    """
    if type(data) is not dict:  # a dict passes obj's Mapping check, which costs more than this test
        obj(data, "a graph document", GraphError)
    lemmas = data.get("lemmas")
    builder = _GraphBuilder(
        required(data, "tokens", "tokens", _malformed, strings),
        None if lemmas is None else strings(lemmas, "lemmas", _malformed),
        read=True,
    )
    builder.entity_records(array(data.get("entities", []), "entities", _malformed))
    builder.relation_records(array(data.get("relations", []), "relations", _malformed))
    return builder.graph(string(data.get("provenance", ""), "provenance", _malformed))


def _array(items: list[str], pad: str) -> str:
    """A JSON list of rendered items whose brackets sit at indent `pad`."""
    if not items:
        return "[]"
    inner = "\n  " + pad
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


# Entity, attribute and sense records at their fixed depths.  Relations and
# log records, which outnumber them by far, are written by f-strings in
# graph_to_json: they format about a fifth faster than %.
_ENTITY = (
    '{\n      "id": %s,\n      "start": %s,\n      "end": %s,\n      "type": %s,'
    '\n      "confidence": %s,\n      "attributes": %s,\n      "senses": %s\n    }'
)
_ATTRIBUTE = '{\n          "type": %s,\n          "confidence": %s\n        }'
_SENSE = '{\n          "sense": %s,\n          "confidence": %s\n        }'


def _float_texts(values: Sequence[float]) -> list[str]:
    """[repr(x) for x in values], the text json.dumps writes for each float,
    from one orjson.dumps call for the whole list.

    Like repr, orjson writes a finite float's shortest round-trip digits,
    and for 1e-4 <= abs(x) < 1e16 it lays them out as repr does: without an
    exponent and with ".0" after an integral value.  Outside that range its
    layout differs (0.00001 for repr's 1e-05, 1e16 for 1e+16), and it writes
    NaN and infinities as null, so a list holding any such value writes
    those values by repr.  A NaN can hide from min and max, but not from
    the null in the text.  A list of fewer than 3 floats is written by repr
    alone, which is faster there.
    """
    if len(values) < 3:
        return list(map(repr, values))
    raw = orjson.dumps(values)
    texts = raw[1:-1].decode().split(",")
    if b"n" in raw or not (1e-4 <= min(values) and max(values) < 1e16):
        texts = [t if 1e-4 <= abs(x) < 1e16 else repr(x) for x, t in zip(values, texts)]
    return texts


def graph_to_json(graph: KnowledgeGraph, log: Sequence[RemovalRecord] | None = None) -> str:
    """The interchange text of `graph_to_dict(graph)`, built in one pass.

    The layout is fixed: the key order of `graph_to_dict`, a 2-space
    indent, strings as unescaped UTF-8, `[]` for an empty list and a
    trailing newline.  The text equals `json.dumps(graph_to_dict(graph),
    indent=2, ensure_ascii=False) + "\n"` byte for byte.  A `log` of
    `rectify`'s removals is appended after "provenance" as the key
    "rectification", a list of `RemovalRecord.to_dict()` records.

    Strings go through the stdlib's own escaper, and ints and floats come
    out as str and repr write them, as json.dumps writes them.  A graph
    holds only finite floats (see `KnowledgeGraph`), and a log's
    confidences are the graph's.  The relation and log confidences, which
    a dense graph holds thousands of, go through `_float_texts`, a column
    at a time; an entity's few go through %.
    """
    quote = encode_basestring
    entities = [
        _ENTITY % (
            quote(e.id),
            e.span.start,
            e.span.end,
            quote(e.entity_type),
            e.confidence,
            _array([_ATTRIBUTE % (quote(t), c) for t, c in e.attributes], "      "),
            _array([_SENSE % (quote(s), c) for s, c in e.senses], "      "),
        )
        for e in graph.entities
    ]
    rels = graph.relations
    ids = [quote(i) for i in rels.ids]
    types = [quote(t) for t in rels.types]
    relations = [
        f'{{\n      "head": {ids[h]},\n      "tail": {ids[t]},'
        f'\n      "type": {types[c]},\n      "confidence": {conf}\n    }}'
        for h, t, c, conf in zip(rels.head, rels.tail, rels.code, _float_texts(rels.confidence))
    ]
    parts = [
        '{\n  "tokens": ' + _array([quote(t) for t in graph.tokens], "  "),
        '"lemmas": ' + _array([quote(t) for t in graph.lemmas], "  "),
        '"entities": ' + _array(entities, "  "),
        '"relations": ' + _array(relations, "  "),
        '"provenance": ' + quote(graph.provenance),
    ]
    if log is not None:
        records = [
            f'{{\n      "element": {quote(e)},\n      "kind": {quote(k)},\n      "confidence": {conf},'
            f'\n      "violation": {quote(v)},\n      "cascade": {"true" if cascade else "false"}\n    }}'
            for (e, k, _, v, cascade), conf in zip(log, _float_texts([r.confidence for r in log]))
        ]
        parts.append('"rectification": ' + _array(records, "  "))
    return ",\n  ".join(parts) + "\n}\n"


def graph_from_json(text: str) -> KnowledgeGraph:
    """The graph of a graph document's text; text that is not JSON raises GraphError."""
    return graph_from_dict(parse_json(text, "a graph document", GraphError))
