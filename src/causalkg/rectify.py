"""Confidence-greedy pruning of schema-inconsistent graph elements.

Greedy rule: while violations remain, take the violation whose weakest
participant is globally lowest and remove that participant.  Participants
rank by (lower confidence, relation < attribute < entity, id); violations
whose weakest participants tie keep check_constraints' (kind, element ids)
order.  Removing an entity cascades to its attributes and incident
relations in the same step.

One constraint scan suffices.  Each constraint kind is violated by elements
that are present, and which elements take part is fixed by their types and
confidences, which never change.  A removal can therefore end violations but
never create one: the violations left at any step are exactly the initial
ones whose participants all survive.  So walking the initial violations once
in the greedy order, skipping any that has lost a participant, makes the
same choices as rescanning after every removal.  The walk visits each
violation once, so it terminates.

The walk needs only each violation's weakest participant and kind.
Violations that share a weakest element are contiguous in the greedy order.
The first live one removes that element, and every later one has then lost
it.  So the log depends only on the smallest kind among the group's live
violations; the order inside a (weakest element, kind) group never matters.
Hence every element gets one integer rank in participant order, the scan's
integer rows are sorted once by (weakest rank, kind), and the walk keeps a
flag per element.  Ids are rendered only to break exact confidence ties and
for the records logged.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import compress, groupby
from typing import NamedTuple

from .graphs import ElementKey, KnowledgeGraph, element_id
from .schema import VIOLATION_KINDS, Schema, element_table
from .schema import scan_constraints as check_constraints  # the name bench/tracing.py wraps

__all__ = ["RemovalRecord", "rectify"]


class RemovalRecord(NamedTuple):
    """One logged removal.  A named tuple, because a dense graph logs
    thousands of them and a tuple is built in a third of a frozen
    dataclass's time."""

    element_id: str
    kind: str  # entity | attribute | relation
    confidence: float
    violation_kind: str
    cascade: bool = False

    def to_dict(self) -> dict:
        return {
            "element": self.element_id,
            "kind": self.kind,
            "confidence": self.confidence,
            "violation": self.violation_kind,
            "cascade": self.cascade,
        }


def _participant_order(keys: list[ElementKey], confidences: list[float]) -> list[int]:
    """Element indexes sorted by (confidence, relation < attribute < entity, id)."""
    # sorted() is stable and element indexes follow the kind order, so only
    # elements of one kind whose confidences are exactly equal (0.0 and -0.0
    # too) are left to order by id
    order = sorted(range(len(confidences)), key=confidences.__getitem__)
    if len(set(confidences)) == len(confidences):
        return order
    runs = groupby(order, key=lambda i: (confidences[i], keys[i][0]))
    return [i for _, run in runs for i in sorted(run, key=lambda i: element_id(keys[i]))]


def rectify(graph: KnowledgeGraph, schema: Schema) -> tuple[KnowledgeGraph, list[RemovalRecord]]:
    """Prune lowest-confidence elements until the graph satisfies the schema.

    Strictly removes elements: the output's entities, attributes, and
    relations are subsets of the input's, and rectify is idempotent.
    """
    rows = check_constraints(graph, schema)
    if not rows:
        return graph, []
    keys, confidences = element_table(graph)
    by_rank = _participant_order(keys, confidences)
    rank = [0] * len(by_rank)
    for r, i in enumerate(by_rank):
        rank[i] = r
    # the weakest participant's rank and the kind code (two bits), packed in one int
    weakest = [min([rank[p] for p in row[1:]]) << 2 | row[0] for row in rows]

    first_entity = len(keys) - len(graph.entities)
    owned: list[range] = []  # the attribute indexes of each entity
    start = len(graph.relations)
    for e in graph.entities:
        owned.append(range(start, start + len(e.attributes)))
        start += len(e.attributes)
    relations = graph.relations
    incident: dict[str, list[int]] = {e.id: [] for e in graph.entities}  # relation indexes, in graph order
    for j, r in enumerate(relations):
        incident[r.head].append(j)
        incident[r.tail].append(j)

    # An attribute is gone iff its entity or the attribute itself was removed,
    # a relation iff an endpoint or the relation itself was.  Removing an
    # entity clears its attributes' and relations' flags as it logs them.
    live = bytearray(b"\x01") * len(keys)
    log: list[RemovalRecord] = []
    for v in sorted(range(len(rows)), key=weakest.__getitem__):
        code = weakest[v]
        removed = by_rank[code >> 2]
        # the weakest participant is the one most often gone already
        if not live[removed] or not all([live[p] for p in rows[v][1:]]):
            continue
        cause = VIOLATION_KINDS[code & 3]
        key = keys[removed]
        live[removed] = 0
        log.append(RemovalRecord(element_id(key), key[0], confidences[removed], cause))
        if key[0] != "entity":
            continue
        for k in owned[removed - first_entity]:
            if live[k]:
                live[k] = 0
                log.append(RemovalRecord(element_id(keys[k]), "attribute", confidences[k], cause, cascade=True))
        for j in incident[key[1]]:
            if live[j]:
                live[j] = 0
                r = relations[j]
                log.append(RemovalRecord(r.id, "relation", r.confidence, cause, cascade=True))

    entities = []
    for e, flag, attrs in zip(graph.entities, live[first_entity:], owned):
        if not flag:
            continue
        if not all(live[attrs.start : attrs.stop]):
            e = replace(e, attributes=tuple(compress(e.attributes, live[attrs.start : attrs.stop])))
        entities.append(e)
    kept = tuple(compress(relations, live[: len(relations)]))
    return replace(graph, entities=tuple(entities), relations=kept), log
