"""Two graph loaders kept as test oracles.

`graph_from_dict` is the two-pass loader: it collects entity, attribute,
sense and relation tuples from the document, then `assemble_graph` walks
them again into the graph.  `tests/test_loader_oracle.py` requires the
library loader to load every document this loader loads to the same graph,
or to raise GraphError where this loader coerces a mistyped string field.

`builder_graph_from_dict` is the oracle for error messages: it reads every
record through `_check_record` where its type test fails, then hands every
element to the builder method that checks it.  The library loader tests a
record's JSON types and the graph's invariants in one expression, commits
a record that passes without a method call, and hands only a record that
fails to `_check_record` and the same builder methods, so it must load
what this loader loads, and raise the same error class with the same
message wherever this loader raises.
"""

import math
from typing import Iterable, Mapping, Sequence

from causalkg.errors import (
    BadConfidenceError,
    DanglingReferenceError,
    DuplicateSpanTypeError,
    GraphError,
    SelfLoopError,
)
from causalkg.graphs import (
    _ATTRIBUTE_FIELDS,
    _ENTITY_FIELDS,
    _RELATION_FIELDS,
    _SENSE_FIELDS,
    Entity,
    KnowledgeGraph,
    Relation,
    Span,
    _check_record,
    _GraphBuilder,
    _malformed,
)
from causalkg.readers import array, obj, required, string, strings


def _check_confidence(value: float, what: str) -> float:
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise BadConfidenceError(f"{what} confidence {value} outside [0, 1]")
    return value


def assemble_graph(
    tokens: Sequence[str],
    lemmas: Sequence[str] | None,
    entities: Iterable[tuple[str, Span, str, float]],
    attributes: Iterable[tuple[str, str, float]] = (),
    relations: Iterable[tuple[str, str, str, float]] = (),
    provenance: str = "",
    senses: Iterable[tuple[str, str, float]] = (),
) -> KnowledgeGraph:
    tokens = tuple(str(t) for t in tokens)
    if lemmas is None:
        lemmas = tuple(t.lower() for t in tokens)
    else:
        lemmas = tuple(str(l) for l in lemmas)
    if len(lemmas) != len(tokens):
        raise GraphError(f"{len(lemmas)} lemmas for {len(tokens)} tokens")
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
                f"entities {seen_spans[span]!r} and {ent_id!r} share span [{span.start}, {span.end})"
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _field_error(field: str, expected: str, value) -> GraphError:
    return GraphError(f"malformed graph document: {field} must be {expected}, got {value!r}")


def graph_from_dict(data: Mapping) -> KnowledgeGraph:
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


def builder_graph_from_dict(data: Mapping) -> KnowledgeGraph:
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
