"""Seeded input generators for the benchmark workloads.

Every generator draws from a numpy Generator built from the workload seed,
so one seed always gives the same inputs and the library sees nothing but
what these functions return.  They build on the templates and vocabulary of
``tests/synth.py``.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from typing import Callable

import numpy as np

import synth
from causalkg.graphs import KnowledgeGraph, Span, assemble_graph, graph_to_dict

CONJUNCTION = "and"
COMPARATIVES = ("higher", "lower")
# the 73 tokens of the synth templates plus the clause conjunction
VOCABULARY = tuple(
    sorted(set(synth.FACTORS) | set(synth.UP) | set(synth.DOWN) | {*COMPARATIVES, "than", CONJUNCTION})
)

# Share of held-out sentences that join two clauses: large enough that p90
# falls inside the two-clause population instead of on its boundary.
JOINED_SHARE = 0.2

# Token-length mix of one block of dense sentences.  Every block holds
# exactly these lengths, shuffled, so over whole blocks p50 falls mid-way
# through the 5-token sentences and p90 among the upper 6-token ones
# whatever the seed.  A sentence's cost then follows from its length alone,
# because the workload accepts only sentences whose every span the model
# keeps.  Rectify cost grows about as length**6, so longer sentences would
# dominate every timing; the scaling report measures them one at a time.
DENSE_LENGTHS = {4: 18, 5: 14, 6: 18}

ETHNO_ATTRIBUTES = ("tradition", "event", "influence", "prescribed", "negated")
LEMMA_COUNT = 400
ZIPF_EXPONENT = 0.75


def unit(rng: np.random.Generator, dimension: int) -> np.ndarray:
    v = rng.standard_normal(dimension)
    return v / np.linalg.norm(v)


def write_embedding_table(path: str, table: dict[str, np.ndarray]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for token, vec in table.items():
            fh.write(token + " " + " ".join(repr(float(x)) for x in vec) + "\n")


def clause(rng: np.random.Generator) -> list[str]:
    """One sentence from the three synth templates with a seeded factor pair."""
    a, b = (synth.FACTORS[i] for i in rng.choice(len(synth.FACTORS), size=2, replace=False))
    template = int(rng.integers(3))
    if template == 0:
        return [a, synth.UP[int(rng.integers(len(synth.UP)))], b]
    if template == 1:
        return [a, synth.DOWN[int(rng.integers(len(synth.DOWN)))], b]
    return [a, COMPARATIVES[int(rng.integers(2))], "than", b]


def heldout_sentences(rng: np.random.Generator, count: int) -> list[tuple[str, ...]]:
    """Template sentences; exactly JOINED_SHARE of them join two clauses."""
    joined = rng.permutation(np.arange(count) < round(count * JOINED_SHARE))
    out = []
    for two_clauses in joined:
        tokens = clause(rng)
        if two_clauses:
            tokens += [CONJUNCTION] + clause(rng)
        out.append(tuple(tokens))
    return out


def dense_sentences(
    rng: np.random.Generator, count: int, accept: Callable[[tuple[str, ...]], bool]
) -> list[tuple[str, ...]]:
    """Vocabulary tokens drawn uniformly, lengths from whole DENSE_LENGTHS
    blocks; a sentence that `accept` rejects is drawn again at its length."""
    block = [n for n, k in DENSE_LENGTHS.items() for _ in range(k)]
    lengths: list[int] = []
    while len(lengths) < count:
        lengths.extend(int(n) for n in rng.permutation(block))
    out = []
    for n in lengths[:count]:
        tokens = None
        while tokens is None or not accept(tokens):
            tokens = tuple(VOCABULARY[i] for i in rng.integers(0, len(VOCABULARY), size=n))
        out.append(tokens)
    return out


def sense_inventory_tsv(
    rng: np.random.Generator, token_vectors: dict[str, np.ndarray], size: int
) -> str:
    """A sense forest in the load_inventory TSV format.

    Twenty category roots; three senses per vocabulary token at falling
    similarity to its vector (chained under a root, so the forest has depth
    four); random distractor senses hung under earlier senses fill the rest.
    """
    dimension = len(next(iter(token_vectors.values())))
    rows: list[tuple[str, str, str, np.ndarray]] = []
    roots = [f"cat{i:02d}.n.01" for i in range(20)]
    for root in roots:
        rows.append((root, root.split(".")[0], "-", unit(rng, dimension)))
    for token, vec in token_vectors.items():
        parent = roots[int(rng.integers(len(roots)))]
        for k, similarity in enumerate((0.9, 0.7, 0.4), 1):
            noise = unit(rng, dimension)
            noise -= (noise @ vec) * vec
            noise /= np.linalg.norm(noise)
            sense = f"{token}.n.{k:02d}"
            rows.append((sense, token, parent, similarity * vec + np.sqrt(1 - similarity**2) * noise))
            parent = sense
    while len(rows) < size:
        parent = rows[int(rng.integers(len(rows)))][0]
        rows.append((f"x{len(rows):04d}.n.01", f"x{len(rows):04d}", parent, unit(rng, dimension)))
    return "".join(
        "\t".join([sense, lemma, parent, *(repr(float(x)) for x in vec)]) + "\n"
        for sense, lemma, parent, vec in rows
    )


def lemma_name(rank: int) -> str:
    return f"w{rank:03d}"


def exact_counts(total: int, weights) -> np.ndarray:
    """Split total into integer counts proportional to weights (largest
    remainders first), so a mix is met exactly rather than in expectation."""
    share = np.asarray(weights, dtype=float)
    share = share / share.sum() * total
    counts = np.floor(share).astype(int)
    counts[np.argsort(counts - share, kind="stable")[: total - counts.sum()]] += 1
    return counts


def corpus_graphs(rng: np.random.Generator, count: int) -> list[KnowledgeGraph]:
    """Ethno sentence graphs of 4-8 single-token nodes with Zipf-like lemmas.

    Graph sizes cycle through 4..8, and lemma rank r fills a share of the
    nodes proportional to 1 / r**ZIPF_EXPONENT, so the first few lemmas are
    hubs joined by many cross-sentence lemma links.  Sizes and lemma counts
    are exact; the seed shuffles which graph holds which node and draws the
    types, attributes and relations.
    """
    sizes = [4 + i % 5 for i in range(count)]
    rng.shuffle(sizes)
    counts = exact_counts(sum(sizes), 1.0 / np.arange(1, LEMMA_COUNT + 1) ** ZIPF_EXPONENT)
    lemmas = rng.permutation(np.repeat(np.arange(LEMMA_COUNT), counts))
    graphs = []
    for gi, n in enumerate(sizes):
        tokens = [lemma_name(int(r)) for r in lemmas[:n]]
        lemmas = lemmas[n:]
        entities = [
            (f"e{i}", Span(i, i + 1), "element" if rng.random() < 0.8 else "qualifier",
             float(rng.uniform(0.5, 1.0)))
            for i in range(n)
        ]
        attributes = [
            (f"e{i}", attr, float(rng.uniform(0.5, 1.0)))
            for i in range(n)
            for attr in ETHNO_ATTRIBUTES
            if rng.random() < 0.08
        ]
        relations = {}
        for _ in range(int(rng.integers(n - 1, 2 * n))):
            h, t = (int(x) for x in rng.integers(n, size=2))
            if h == t:
                continue
            rtype = synth.ETHNO_REL_TYPES[int(rng.integers(len(synth.ETHNO_REL_TYPES)))]
            relations[(f"e{h}", f"e{t}", rtype)] = float(rng.uniform(0.5, 1.0))
        graphs.append(
            assemble_graph(
                tokens, None, entities, attributes,
                [(h, t, r, c) for (h, t, r), c in relations.items()],
                provenance=f"s{gi:03d}",
            )
        )
    return graphs


def write_graph_dir(path: str, graphs: list[KnowledgeGraph]) -> None:
    """The CLI graph-directory layout: one JSON per graph plus manifest.json."""
    os.makedirs(path, exist_ok=True)
    names = []
    for i, g in enumerate(graphs):
        name = f"graph_{i:04d}.json"
        with open(os.path.join(path, name), "w", encoding="utf-8") as fh:
            json.dump(graph_to_dict(g), fh, indent=2)
        names.append(name)
    with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"graphs": names, "provenance": [g.provenance for g in graphs]}, fh, indent=2)


# Query mix: (kind, share), met exactly in every run.  Start lemmas are
# capped by corpus frequency, and so are the ends of max_len-3 queries, so no
# single query enumerates a hub explosion (a rare lemma to the top hub at
# max_len 3 gives about 7k paths and 7 MiB more peak memory, in some seeds
# only); that cliff is measured by the scaling report.  The other end
# patterns are unrestricted, so max_len-2 queries still reach the hubs.
QUERY_KINDS = (("lemma-2", 0.40), ("lemma-3", 0.25), ("typed", 0.20), ("role", 0.15))
MID_LEMMA_MAX = 6
RARE_LEMMA_MAX = 2


def query_mix(rng: np.random.Generator, graphs: list[KnowledgeGraph], count: int) -> list[dict]:
    node_lemmas = [lemma for g in graphs for lemma in g.lemmas]
    freq = Counter(node_lemmas)
    mid = [lemma for lemma in node_lemmas if freq[lemma] <= MID_LEMMA_MAX]
    rare = [lemma for lemma in node_lemmas if freq[lemma] <= RARE_LEMMA_MAX]
    counts = exact_counts(count, [w for _, w in QUERY_KINDS])
    kinds = rng.permutation([k for (k, _), n in zip(QUERY_KINDS, counts) for _ in range(n)])

    def pick(pool: list[str]) -> str:
        return pool[int(rng.integers(len(pool)))]

    queries = []
    for kind in kinds:
        end = {"lemma_any_of": [pick(mid if kind == "lemma-3" else node_lemmas)]}
        if kind == "lemma-2":
            q = {"start": {"lemma_any_of": [pick(mid)]}, "end": end, "max_len": 2}
        elif kind == "lemma-3":
            q = {"start": {"lemma_any_of": [pick(rare)]}, "end": end, "max_len": 3}
        elif kind == "typed":
            typed = (
                {"entity_type": "qualifier"},
                {"required_attributes": ["event"]},
                {"entity_type": "element", "required_attributes": ["prescribed"]},
            )
            q = {"start": {"lemma_any_of": [pick(mid)]}, "end": typed[int(rng.integers(3))], "max_len": 2}
        else:
            role = {"relation": "agent", "pattern": {"entity_type": "element"}}
            q = {"start": {"lemma_any_of": [pick(mid)], "role_constraints": [role]}, "end": end, "max_len": 2}
        queries.append(q)
    return queries
