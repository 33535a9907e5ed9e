"""Shared test data builders: the templated overfit corpus and random
graph/corpus generators used by the property tests."""

import numpy as np

from causalkg.graphs import Span, assemble_graph, merge_corpus
from causalkg.training import Example

FACTORS = [
    "smoking", "stress", "sleep", "exercise", "cancer", "anxiety", "income",
    "education", "obesity", "diabetes", "noise", "focus", "caffeine", "memory",
    "sunlight", "mood", "poverty", "crime", "vaccination", "infection",
    "meditation", "pain", "traffic", "pollution", "reading", "vocabulary",
    "alcohol", "reflexes", "debt", "savings", "humidity", "mold", "irrigation",
    "yield", "advertising", "sales", "latency", "throughput", "friction",
    "wear", "insulation", "heating", "rainfall", "flooding", "tourism",
    "revenue", "automation", "unemployment", "screening", "detection",
    "mentoring", "retention", "overfishing", "stocks", "deforestation",
    "erosion", "recycling", "landfill", "fertilizer", "runoff",
]
UP = ["increases", "raises", "boosts", "amplifies", "elevates"]
DOWN = ["reduces", "decreases", "lowers", "suppresses", "curbs"]


def build_corpus():
    """30 templated claim sentences: 10 increases, 10 decreases, 10 comparisons."""
    examples = []
    fi = 0
    for i in range(10):
        a, b = FACTORS[fi], FACTORS[fi + 1]
        fi += 2
        verb = UP[i % len(UP)]
        examples.append(Example(
            tokens=(a, verb, b), lemmas=(a, verb, b),
            entities=((Span(0, 1), "factor"), (Span(1, 2), "association"), (Span(2, 3), "factor")),
            attributes=((1, "causation"),),
            relations=((1, 0, "arg0"), (1, 2, "arg1"), (0, 2, "q+")),
            provenance=f"up{i}"))
    for i in range(10):
        a, b = FACTORS[fi], FACTORS[fi + 1]
        fi += 2
        verb = DOWN[i % len(DOWN)]
        examples.append(Example(
            tokens=(a, verb, b), lemmas=(a, verb, b),
            entities=((Span(0, 1), "factor"), (Span(1, 2), "association"), (Span(2, 3), "factor")),
            attributes=((1, "causation"),),
            relations=((1, 0, "arg0"), (1, 2, "arg1"), (0, 2, "q-")),
            provenance=f"down{i}"))
    for i in range(10):
        a, b = FACTORS[fi], FACTORS[fi + 1]
        fi += 2
        word = "higher" if i % 2 == 0 else "lower"
        sign = "sign+" if i % 2 == 0 else "sign-"
        examples.append(Example(
            tokens=(a, word, "than", b), lemmas=(a, word, "than", b),
            entities=((Span(0, 1), "factor"), (Span(1, 2), "association"), (Span(3, 4), "factor")),
            attributes=((1, "comparison"), (1, sign)),
            relations=((1, 0, "arg0"), (1, 2, "comp_to")),
            provenance=f"cmp{i}"))
    return examples


SCICLAIM_ENTITY_TYPES = ("factor", "evidence", "epistemic", "association", "magnitude", "qualifier")
SCICLAIM_ATTR_TYPES = ("causation", "comparison", "indicates", "sign+", "sign-", "correlation", "test")
SCICLAIM_REL_TYPES = ("arg0", "arg1", "comp_to", "modifier", "subtype", "q+", "q-")


def random_sciclaim_graph(rng: np.random.Generator, provenance="g"):
    """Random graph over sciclaim types with confidences drawn uniformly.

    Types are chosen uniformly, so attribute-domain and signature violations
    are injected with high probability.
    """
    n = int(rng.integers(4, 9))
    tokens = [f"t{i}" for i in range(n)]
    candidates = [Span(s, s + ln) for s in range(n) for ln in (1, 2) if s + ln <= n]
    n_ent = int(rng.integers(2, min(7, len(candidates) + 1)))
    picks = rng.choice(len(candidates), size=n_ent, replace=False)
    entities = []
    for i, ci in enumerate(picks):
        etype = SCICLAIM_ENTITY_TYPES[rng.integers(len(SCICLAIM_ENTITY_TYPES))]
        entities.append((f"e{i}", candidates[int(ci)], etype, float(rng.uniform(0.05, 0.99))))

    attributes = []
    for i in range(n_ent):
        used = set()
        for _ in range(int(rng.integers(0, 3))):
            atype = SCICLAIM_ATTR_TYPES[rng.integers(len(SCICLAIM_ATTR_TYPES))]
            if atype in used:
                continue
            used.add(atype)
            attributes.append((f"e{i}", atype, float(rng.uniform(0.05, 0.99))))

    relations = []
    seen = set()
    for _ in range(int(rng.integers(0, n_ent + 2))):
        h, t = rng.integers(n_ent), rng.integers(n_ent)
        if h == t:
            continue
        rtype = SCICLAIM_REL_TYPES[rng.integers(len(SCICLAIM_REL_TYPES))]
        key = (int(h), int(t), rtype)
        if key in seen:
            continue
        seen.add(key)
        relations.append((f"e{h}", f"e{t}", rtype, float(rng.uniform(0.05, 0.99))))

    return assemble_graph(tokens, None, entities, attributes, relations, provenance=provenance)


ETHNO_REL_TYPES = (
    "agent", "object", "recipient", "consequent", "modifier",
    "intent+", "function+", "q+", "q-", "t+",
)
_LEMMA_POOL = ["baby", "water", "eat", "pray", "farm", "rain", "walk", "sing"]


def random_ethno_corpus(rng: np.random.Generator, lemma_link=True):
    """Random small corpus (<= 12 nodes total) over the ethno schema."""
    n_graphs = int(rng.integers(1, 4))
    budget = 12
    graphs = []
    for gi in range(n_graphs):
        n_ent = int(rng.integers(2, min(6, budget - (n_graphs - gi - 1) * 2) + 1))
        budget -= n_ent
        tokens = [_LEMMA_POOL[rng.integers(len(_LEMMA_POOL))] for _ in range(n_ent)]
        entities = [
            (f"e{i}", Span(i, i + 1), "element" if rng.random() < 0.8 else "qualifier", 1.0)
            for i in range(n_ent)
        ]
        relations = []
        seen = set()
        for _ in range(int(rng.integers(1, 2 * n_ent))):
            h, t = rng.integers(n_ent), rng.integers(n_ent)
            if h == t:
                continue
            rtype = ETHNO_REL_TYPES[rng.integers(len(ETHNO_REL_TYPES))]
            key = (int(h), int(t), rtype)
            if key in seen:
                continue
            seen.add(key)
            relations.append((f"e{h}", f"e{t}", rtype, 1.0))
        graphs.append(
            assemble_graph(tokens, None, entities, (), relations, provenance=f"s{gi}")
        )
    return merge_corpus(graphs, lemma_link=lemma_link)


def random_hub_corpus(rng: np.random.Generator, n_graphs=4):
    """Random lemma-linked ethno corpus over a 6-lemma pool, with spans
    of 1-3 tokens: a hub often holds several nodes of one graph, and nodes
    of different graphs often share two lemmas."""
    graphs = []
    for gi in range(n_graphs):
        n_tok = int(rng.integers(3, 7))
        tokens = [_LEMMA_POOL[rng.integers(6)] for _ in range(n_tok)]
        spans = [Span(i, j) for i in range(n_tok) for j in range(i + 1, min(i + 3, n_tok) + 1)]
        picked = rng.choice(len(spans), size=int(rng.integers(2, 6)), replace=False)
        entities = [(f"e{k}", spans[i], "element", 1.0) for k, i in enumerate(sorted(picked))]
        relations = {}  # a dict keeps the draw order and drops repeats
        for _ in range(2 * len(entities)):
            h, t = rng.choice(len(entities), size=2, replace=False)
            rtype = ETHNO_REL_TYPES[rng.integers(len(ETHNO_REL_TYPES))]
            relations[(f"e{h}", f"e{t}", rtype, 1.0)] = None
        graphs.append(assemble_graph(tokens, None, entities, (), list(relations), provenance=f"h{gi}"))
    return merge_corpus(graphs, lemma_link=True)


def separator_id_graphs():
    """Sciclaim graphs whose entity ids contain the "#" and "->" separators
    of the rendered attribute and relation ids, keyed by a test id."""
    hash_id = assemble_graph(
        ["x", "y"], None,
        [("x#1", Span(0, 1), "factor", 0.8), ("y", Span(1, 2), "association", 0.9)],
        attributes=[("x#1", "causation", 0.3)],  # causation belongs on associations
        provenance="hash",
    )
    arrow_id = assemble_graph(
        ["p", "q", "r"], None,
        [("p->q", Span(0, 1), "factor", 0.2),
         ("a", Span(1, 2), "association", 0.9),
         ("f", Span(2, 3), "factor", 0.9)],
        relations=[
            ("p->q", "f", "arg0", 0.9),  # arg0 heads must be associations
            ("a", "p->q", "arg1", 0.7),
            ("a", "f", "arg0", 0.8),
        ],
        provenance="arrow",
    )
    return {"hash_in_id": hash_id, "arrow_in_id": arrow_id}


def unknown_type_graphs():
    """Sciclaim graphs that hold an exclusive q+/q- pair to remove and one
    entity, attribute or relation type that sciclaim does not declare, named
    "martian" and keyed by the element kind that carries it."""

    def graph(entity_type="factor", attribute_type="sign+", relation_type="q+"):
        return assemble_graph(
            ["a", "b"], None,
            [("e0", Span(0, 1), "factor", 0.9), ("e1", Span(1, 2), entity_type, 0.9)],
            attributes=[("e1", attribute_type, 0.9)],
            relations=[("e0", "e1", "q+", 0.5), ("e0", "e1", "q-", 0.4), ("e1", "e0", relation_type, 0.9)],
            provenance="unknown",
        )

    return {
        "entity": graph(entity_type="martian"),
        "attribute": graph(attribute_type="martian"),
        "relation": graph(relation_type="martian"),
    }
