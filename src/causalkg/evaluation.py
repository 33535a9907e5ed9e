"""Per-class and micro-averaged precision/recall/F1 with support counts.

Matching is strict: an entity is correct iff (start, end, type) match
exactly; an attribute is correct iff it sits on an entity-matched node;
a relation is correct iff its label matches and both endpoint entities are
themselves matched.  Duplicate predictions count at most one true positive.
Scores are percentages in [0, 100]; classes where a metric is undefined
render as "--".  Micro-averages pool TP/FP/FN across the classes of each
section, excluding classes with zero gold support.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .errors import AlignmentError
from .graphs import Entity, KnowledgeGraph

__all__ = ["ClassScore", "ScoreReport", "score"]

SECTIONS = ("entities", "attributes", "relations")


@dataclass(frozen=True)
class ClassScore:
    tp: int
    fp: int
    fn: int

    @property
    def support(self) -> int:
        return self.tp + self.fn

    @property
    def precision(self) -> float | None:
        denom = self.tp + self.fp
        return 100.0 * self.tp / denom if denom else None

    @property
    def recall(self) -> float | None:
        denom = self.tp + self.fn
        return 100.0 * self.tp / denom if denom else None

    @property
    def f1(self) -> float | None:
        p, r = self.precision, self.recall
        if p is None or r is None or p + r == 0:
            return None
        return 2.0 * p * r / (p + r)


@dataclass(frozen=True)
class ScoreReport:
    """Per-class scores plus a pooled micro-average row per section."""

    sections: dict[str, dict[str, ClassScore]]
    micro: dict[str, ClassScore]

    def to_dict(self) -> dict:
        def row(cs: ClassScore) -> dict:
            names = ("precision", "recall", "f1", "support", "tp", "fp", "fn")
            return {name: getattr(cs, name) for name in names}

        return {
            "sections": {
                section: {cls: row(cs) for cls, cs in classes.items()}
                for section, classes in self.sections.items()
            },
            "micro": {section: row(cs) for section, cs in self.micro.items()},
        }

    def render_text(self) -> str:
        def fmt(value: float | None) -> str:
            return "--" if value is None else f"{value:.2f}"

        lines = [f"{'':12s} {'Dimension':>14s} {'P':>8s} {'R':>8s} {'F1':>8s} {'Support':>8s}"]
        for section in SECTIONS:
            title = section.capitalize()
            for cls, cs in self.sections[section].items():
                lines.append(
                    f"{title:12s} {cls:>14s} {fmt(cs.precision):>8s} {fmt(cs.recall):>8s} "
                    f"{fmt(cs.f1):>8s} {cs.support:>8d}"
                )
                title = ""
            micro = self.micro[section]
            lines.append(
                f"{'':12s} {'Micro-Averaged':>14s} {fmt(micro.precision):>8s} "
                f"{fmt(micro.recall):>8s} {fmt(micro.f1):>8s} {'':>8s}"
            )
        return "\n".join(lines) + "\n"


def _key(entity: Entity) -> tuple[int, int, str]:
    return (entity.span.start, entity.span.end, entity.entity_type)


def _entity_keys(graph: KnowledgeGraph) -> set[tuple[int, int, str]]:
    return set(map(_key, graph.entities))


def _attribute_keys(graph: KnowledgeGraph) -> set[tuple[tuple[int, int, str], str]]:
    return {(_key(e), attr) for e in graph.entities for attr, _ in e.attributes}


def _relation_keys(graph: KnowledgeGraph) -> set[tuple[tuple[int, int, str], tuple[int, int, str], str]]:
    # the columns' ids are the entities' ids, in order
    rels, keys = graph.relations, list(map(_key, graph.entities))
    return {(keys[h], keys[t], rels.types[c]) for h, t, c in zip(rels.head, rels.tail, rels.code)}


def score(
    predicted: Sequence[KnowledgeGraph], gold: Sequence[KnowledgeGraph]
) -> ScoreReport:
    """Score predicted graphs against gold graphs aligned by provenance."""
    pred_by_prov = {g.provenance: g for g in predicted}
    gold_by_prov = {g.provenance: g for g in gold}
    if len(pred_by_prov) != len(predicted) or len(gold_by_prov) != len(gold):
        raise AlignmentError("duplicate provenance within a graph sequence")
    if set(pred_by_prov) != set(gold_by_prov):
        missing = set(gold_by_prov) ^ set(pred_by_prov)
        raise AlignmentError(f"provenance mismatch: {sorted(missing)}")

    counters: dict[str, dict[str, list[int]]] = {s: {} for s in SECTIONS}

    def tally(section: str, pred_keys: set, gold_keys: set, class_of) -> None:
        for key in pred_keys & gold_keys:
            counters[section].setdefault(class_of(key), [0, 0, 0])[0] += 1
        for key in pred_keys - gold_keys:
            counters[section].setdefault(class_of(key), [0, 0, 0])[1] += 1
        for key in gold_keys - pred_keys:
            counters[section].setdefault(class_of(key), [0, 0, 0])[2] += 1

    # each section's element keys, and the index of the class in a key
    keys = {
        "entities": (_entity_keys, 2), "attributes": (_attribute_keys, 1), "relations": (_relation_keys, 2)
    }
    for prov, gold_graph in gold_by_prov.items():
        for section, (keys_of, class_index) in keys.items():
            tally(section, keys_of(pred_by_prov[prov]), keys_of(gold_graph), itemgetter(class_index))

    sections: dict[str, dict[str, ClassScore]] = {}
    micro: dict[str, ClassScore] = {}
    for section in SECTIONS:
        per_class = {
            cls: ClassScore(tp, fp, fn)
            for cls, (tp, fp, fn) in sorted(counters[section].items())
        }
        sections[section] = per_class
        pooled = [cs for cs in per_class.values() if cs.support > 0]
        micro[section] = ClassScore(
            tp=sum(c.tp for c in pooled),
            fp=sum(c.fp for c in pooled),
            fn=sum(c.fn for c in pooled),
        )
    return ScoreReport(sections=sections, micro=micro)
