"""Word-sense linking: per-node confidence distributions over a sense
inventory, plus taxonomy similarity via least common ancestors.

A sense inventory is a forest of sense records, each with a lemma, an
optional gloss, an optional parent, and a unit vector.  A node's vector is
the unit-normalized mean of its constituent token vectors; its confidence
for a sense is the dot product with that sense's vector.

An inventory is fixed once built, so it memoizes what it ranked: a
context-free encoder gives a recurring mention the same vector every time,
and scoring it again against every sense would repeat the same gemv.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping

import numpy as np

from .encoder import TokenEncoding, _row_mean
from .errors import (
    DimensionMismatchError,
    DisjointTreesError,
    InputError,
    InventoryError,
    ZeroVectorError,
)
from .graphs import Entity, KnowledgeGraph, with_senses
from .readers import real

__all__ = [
    "SenseRecord",
    "SenseInventory",
    "load_inventory",
    "load_glosses",
    "node_vector",
    "link_senses",
    "lca_similarity",
]

# An inventory keeps the ranked senses of the first 2**10 distinct (vector
# dtype, vector bytes, threshold) keys it scores, while they hold fewer than
# 2**14 (sense id, score) pairs in all: about 1.5 MB of pairs, and keys of
# 2**10 vectors' bytes (0.5 MB at dimension 64).
_MEMO_KEYS = 1 << 10
_MEMO_PAIRS = 1 << 14


def _threshold(value) -> float:
    threshold = real(value, "sense threshold", InputError)
    if threshold != threshold:
        raise InputError(f"sense threshold must be a number, got {threshold!r}")
    return threshold


@dataclass(frozen=True)
class SenseRecord:
    sense_id: str
    lemma: str
    parent: str | None
    vector: np.ndarray
    gloss: str = ""


class SenseInventory:
    """Sense records indexed by id, with parent links forming a forest."""

    def __init__(self, records: Iterable[SenseRecord], skip_lemmas: Iterable[str] = ()):
        self.records: dict[str, SenseRecord] = {}
        shape = None
        for rec in records:
            if rec.sense_id in self.records:
                raise InventoryError(f"duplicate sense id {rec.sense_id!r}")
            if shape is not None and rec.vector.shape != shape:
                raise InventoryError(
                    f"sense {rec.sense_id!r} has vector shape {rec.vector.shape}, "
                    f"expected {shape} like the senses before it"
                )
            shape = rec.vector.shape
            if not np.all(np.isfinite(rec.vector)):
                raise InventoryError(f"sense {rec.sense_id!r} has a non-finite vector component")
            norm = float(np.linalg.norm(rec.vector))
            if norm == 0.0:
                raise ZeroVectorError(f"sense {rec.sense_id!r} has a zero vector")
            if abs(norm - 1.0) > 1e-9:
                rec = replace(rec, vector=rec.vector / norm)
            self.records[rec.sense_id] = rec
        self.skip_lemmas = frozenset(skip_lemmas)
        self._check_forest()
        ids = sorted(self.records)
        self._matrix = np.stack([self.records[s].vector for s in ids]) if ids else None
        self._ids = ids
        self._memo: dict[tuple[np.dtype, bytes, float], tuple[tuple[str, float], ...]] = {}
        self._memo_pairs = 0

    def _check_forest(self) -> None:
        for start in self.records:
            seen = {start}
            cur = self.records[start].parent
            while cur is not None:
                if cur not in self.records:
                    raise InventoryError(f"sense {start!r} has unknown ancestor {cur!r}")
                if cur in seen:
                    raise InventoryError(f"cycle in sense taxonomy through {cur!r}")
                seen.add(cur)
                cur = self.records[cur].parent

    def ancestry(self, sense_id: str) -> list[str]:
        """Path from root to the sense, inclusive."""
        chain = []
        cur: str | None = sense_id
        while cur is not None:
            chain.append(cur)
            cur = self.records[cur].parent
        chain.reverse()
        return chain

    def depth(self, sense_id: str) -> int:
        """Root has depth 1."""
        return len(self.ancestry(sense_id))

    def senses_above(self, vector: np.ndarray, threshold: float) -> list[tuple[str, float]]:
        """(sense_id, dot product) for each sense scoring strictly above the
        threshold, sorted by descending score then sense id, as a new list.
        The vector must be a real 1-D vector of the inventory's dimension
        (else DimensionMismatchError) and the threshold a number (else
        InputError).  A (vector, threshold) seen before is answered from
        the memo with the pairs its first call ranked."""
        threshold = _threshold(threshold)
        if self._matrix is None:
            return []
        vector = np.asarray(vector)
        if vector.dtype.kind not in "biuf":
            raise InputError(f"node vector must hold real numbers, got dtype {vector.dtype}")
        if vector.shape != self._matrix.shape[1:]:
            raise DimensionMismatchError(
                f"node vector of shape {vector.shape} vs inventory dim {self._matrix.shape[1]}"
            )
        key = (vector.dtype, vector.tobytes(), threshold)
        ranked = self._memo.get(key)
        if ranked is None:
            scores = self._matrix @ vector
            kept = [(self._ids[i], float(scores[i])) for i in np.flatnonzero(scores > threshold)]
            kept.sort(key=lambda sc: (-sc[1], sc[0]))
            if len(self._memo) < _MEMO_KEYS and self._memo_pairs + len(kept) < _MEMO_PAIRS:
                self._memo[key] = tuple(kept)
                self._memo_pairs += len(kept)
            return kept
        return list(ranked)


def load_inventory(
    text: str,
    glosses: Mapping[str, str] | None = None,
    skip_lemmas: Iterable[str] = (),
) -> SenseInventory:
    """Parse the tab-separated inventory format.

    Each line: sense_id, lemma, parent_id or "-", then the vector floats,
    all tab-separated.  Glosses come from a parallel sense_id -> gloss map.
    """
    glosses = glosses or {}
    records = []
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) < 4:
            raise InventoryError(f"inventory line {line_no}: expected at least 4 fields")
        sense_id, lemma, parent = parts[0], parts[1], parts[2]
        try:
            vector = np.array([float(x) for x in parts[3:]])
        except ValueError as exc:
            raise InventoryError(f"inventory line {line_no}: bad float: {exc}") from exc
        records.append(
            SenseRecord(
                sense_id=sense_id,
                lemma=lemma,
                parent=None if parent == "-" else parent,
                vector=vector,
                gloss=glosses.get(sense_id, ""),
            )
        )
    return SenseInventory(records, skip_lemmas=skip_lemmas)


def load_glosses(text: str) -> dict[str, str]:
    """Parse a gloss file: per line a sense id, a tab, then the gloss."""
    lines = [(n, line.partition("\t")) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    for line_no, (_, tab, _) in lines:
        if not tab:
            raise InventoryError(f"gloss line {line_no}: expected a sense id, a tab and a gloss")
    return {sense_id: gloss for _, (sense_id, _, gloss) in lines}


def node_vector(entity: Entity, token_vectors: np.ndarray) -> np.ndarray:
    """Unit-normalized mean of the node's constituent token vectors."""
    if entity.span.end > token_vectors.shape[0]:
        raise DimensionMismatchError(
            f"span [{entity.span.start}, {entity.span.end}) beyond "
            f"{token_vectors.shape[0]} token vectors"
        )
    mean = _row_mean(token_vectors[entity.span.start : entity.span.end])
    norm = float(np.linalg.norm(mean))
    if norm == 0.0:
        raise ZeroVectorError(f"all-zero mean vector for entity {entity.id!r}")
    return mean / norm


def link_senses(
    graph: KnowledgeGraph,
    encoding: TokenEncoding,
    inventory: SenseInventory,
    threshold: float = 0.5,
) -> KnowledgeGraph:
    """Attach ranked sense assignments to each non-skipped node.

    A node is skipped (empty assignment) when all of its lemmas appear in
    the inventory's skip list.  Reported senses are those with dot-product
    confidence strictly above the threshold, sorted by descending
    confidence then sense id.  A threshold that is not a number (NaN, a
    string, a bool) raises InputError.
    """
    threshold = _threshold(threshold)
    senses = []
    for e in graph.entities:
        node_lemmas = graph.entity_lemmas(e)
        if node_lemmas and node_lemmas <= inventory.skip_lemmas:
            senses.append(())
            continue
        vec = node_vector(e, encoding.token_vectors)
        senses.append(inventory.senses_above(vec, threshold))
    return with_senses(graph, senses)


def lca_similarity(a: str, b: str, inventory: SenseInventory) -> float:
    """Taxonomy similarity 2*depth(lca) / (depth(a) + depth(b)).

    Roots have depth 1; equal senses score 1.0.  Raises DisjointTreesError
    when the two senses share no ancestor.
    """
    chain_a = inventory.ancestry(a)
    chain_b = inventory.ancestry(b)
    common = 0
    for x, y in zip(chain_a, chain_b):
        if x != y:
            break
        common += 1
    if common == 0:
        raise DisjointTreesError(f"senses {a!r} and {b!r} are in disjoint trees")
    return 2.0 * common / (len(chain_a) + len(chain_b))
