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
same choices as rescanning after every removal.

Violations that share a weakest element are contiguous in the greedy order.
The first live one removes that element, and every later one has then lost
it.  So every element gets one integer rank in participant order, the
scan's rows are sorted once by (weakest rank, kind), and each group of rows
with one weakest element removes it, for the smallest kind among its live
rows, if it has a live row at all.

Which rows are live needs no walk.  When a group comes up, every other
participant of its rows ranks above the group's element, so its own group
has not come up yet: it can be gone only with an entity removed earlier.
So only entity removals carry state from group to group.  They are found
in one pass over the entity groups in rank order (an entity group's rows
can lose only a relation, with its other endpoint); then the rank at which
each element goes with an entity is known, and every group's live rows,
removals and cascades follow as array operations.  Ids are rendered only to
break exact confidence ties and for the records logged.
"""

from __future__ import annotations

from itertools import groupby, repeat
from typing import NamedTuple

import numpy as np

from .graphs import KnowledgeGraph, element_id, relation_ids, subgraph
from .schema import VIOLATION_KINDS, ElementTable, Schema
from .schema import scan_constraints as check_constraints  # the name bench/tracing.py wraps

__all__ = ["RemovalRecord", "rectify"]

_ELEMENT_KINDS = np.array(["relation", "attribute", "entity"], dtype=object)
_CAUSES = np.array(VIOLATION_KINDS, dtype=object)
_ATTRIBUTE_DOMAIN = VIOLATION_KINDS.index("AttributeDomain")


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


def _participant_order(table: ElementTable) -> np.ndarray:
    """Element indexes sorted by (confidence, relation < attribute < entity, id)."""
    confidences, m = table.confidences, len(table.relations)
    values = np.concatenate((table.relations.arrays()[3], np.array(confidences[m:], dtype=float)))
    # a stable sort, and element indexes follow the kind order, so only
    # elements of one kind whose confidences are exactly equal (0.0 and -0.0
    # too) are left to order by id
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    if not (ranked[1:] == ranked[:-1]).any():
        return order
    runs = groupby(order.tolist(), key=lambda i: (confidences[i], table.kind(i)))
    by_id = [i for _, run in runs for i in sorted(run, key=lambda i: element_id(table.key(i)))]
    return np.array(by_id, dtype=np.intp)


def rectify(graph: KnowledgeGraph, schema: Schema) -> tuple[KnowledgeGraph, list[RemovalRecord]]:
    """Prune lowest-confidence elements until the graph satisfies the schema.

    Strictly removes elements: the output's entities, attributes, and
    relations are subsets of the input's, and rectify is idempotent.
    """
    rows = check_constraints(graph, schema)
    if not len(rows):
        return graph, []
    table = ElementTable(graph)
    relations, entities = graph.relations, graph.entities
    m, first_entity = len(relations), table.first_entity
    n = first_entity + len(entities)
    by_rank = _participant_order(table)
    # rank[-1], the rank of a padding participant, is n: after every element
    rank = np.empty(n + 1, dtype=np.intp)
    rank[by_rank] = np.arange(n)
    rank[n] = n

    weakest = rank[rows[:, 1:]].min(axis=1)
    greedy = np.lexsort((rows[:, 0], weakest))
    kinds, participants, weakest = rows[greedy, 0], rows[greedy, 1:], weakest[greedy]
    group_start = np.flatnonzero(np.r_[True, weakest[1:] != weakest[:-1]])
    group_end = np.r_[group_start[1:], len(weakest)]

    head, tail, _, _ = relations.arrays()
    owner = np.array([i for i, _ in table.attributes], dtype=np.intp)

    # removed_at[e]: the rank at which entity e is removed, n if it stays.
    # An entity group holds AttributeDomain rows, whose attribute is the
    # entity's own, and RelationSignature rows (relation, head[, tail]),
    # live while the relation's other endpoint stays.
    removed_at = np.full(len(entities), n, dtype=np.intp)
    group_entity = by_rank[weakest[group_start]] - first_entity
    for g in np.flatnonzero(group_entity >= 0).tolist():
        start, at = group_start[g], weakest[group_start[g]]
        if kinds[start] != _ATTRIBUTE_DOMAIN:
            j = participants[start : group_end[g], 0]
            if not (np.minimum(removed_at[head[j]], removed_at[tail[j]]) > at).any():
                continue
        removed_at[group_entity[g]] = at

    # gone_at[i]: the rank at which element i goes with an entity (n: never)
    gone_at = np.full(n + 1, n, dtype=np.intp)
    gone_at[:m] = np.minimum(removed_at[head], removed_at[tail])
    gone_at[m:first_entity] = removed_at[owner]
    # a row is live unless a participant went with an entity removed before
    # its group; one that goes with the group's own entity goes after
    live = (gone_at[participants] >= weakest[:, None]).all(axis=1)
    # the first live row of a group removes its weakest element for its kind
    live_weakest, live_kinds = weakest[live], kinds[live]
    first = np.r_[True, live_weakest[1:] != live_weakest[:-1]]
    removed_rank = live_weakest[first]
    cause = np.full(n, -1, dtype=np.intp)  # by rank
    cause[removed_rank] = live_kinds[first]
    removed = by_rank[removed_rank]
    own = np.zeros(n, dtype=bool)
    own[removed] = True

    # the log: each removal, then its entity's attributes and relations
    # that are still there, in element order
    cascaded_attributes = np.flatnonzero((gone_at[m:first_entity] < n) & ~own[m:first_entity]) + m
    cascaded_relations = np.flatnonzero((gone_at[:m] < n) & ~own[:m])
    elements = np.concatenate([removed, cascaded_attributes, cascaded_relations])
    times = np.concatenate([removed_rank, gone_at[cascaded_attributes], gone_at[cascaded_relations]])
    cascade = np.repeat([0, 1, 2], [len(removed), len(cascaded_attributes), len(cascaded_relations)])
    logged = np.lexsort((elements, cascade, times))
    elements, times, cascade = elements[logged], times[logged], cascade[logged]
    element_kind = (elements >= m).astype(np.intp) + (elements >= first_entity)
    ids = np.empty(len(elements), dtype=object)
    is_relation = element_kind == 0
    ids[is_relation] = relation_ids(relations, elements[is_relation].tolist())
    ids[~is_relation] = [element_id(table.key(i)) for i in elements[~is_relation].tolist()]
    # tuple.__new__ makes each record from its fields as RemovalRecord._make
    # does, in C: half the time of a call to RemovalRecord per record
    log = list(map(tuple.__new__, repeat(RemovalRecord), zip(
        ids.tolist(),
        _ELEMENT_KINDS[element_kind].tolist(),
        np.array(table.confidences, dtype=object)[elements].tolist(),
        _CAUSES[cause[times]].tolist(),
        (cascade > 0).tolist(),
    )))

    # an element stays unless it was removed or went with its entity
    entity_kept, relation_kept = removed_at == n, (gone_at[:m] == n) & ~own[:m]
    return subgraph(graph, entity_kept.tolist(), (~own[m:first_entity]).tolist(), relation_kept.tolist()), log
