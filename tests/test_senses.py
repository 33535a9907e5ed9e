import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalkg.encoder import TokenEncoding
from causalkg.errors import (
    CausalKgError,
    DimensionMismatchError,
    DisjointTreesError,
    InputError,
    InventoryError,
    ZeroVectorError,
)
from causalkg.graphs import Span, assemble_graph
from causalkg.senses import (
    SenseInventory,
    SenseRecord,
    lca_similarity,
    link_senses,
    load_inventory,
    node_vector,
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def encoding_for(vectors):
    H = np.asarray(vectors, dtype=float)
    return TokenEncoding(passage_vector=H.mean(axis=0), token_vectors=H)


def one_node_graph(n_tokens=1, span=None):
    tokens = [f"t{i}" for i in range(n_tokens)]
    return assemble_graph(
        tokens, None, [("e0", span or Span(0, n_tokens), "element", 1.0)]
    )


def test_node_vector_single_token():
    H = np.array([[3.0, 4.0]])
    g = one_node_graph(1)
    assert np.allclose(node_vector(g.entities[0], H), [0.6, 0.8])


def test_node_vector_two_tokens_mean():
    H = np.array([[1.0, 0.0], [0.0, 1.0]])
    g = one_node_graph(2)
    assert np.allclose(node_vector(g.entities[0], H), unit([0.5, 0.5]))


def test_node_vector_three_token_fixture():
    # independent mean-then-normalize computation
    H = np.array([[1.0, 2.0, 0.0], [3.0, -1.0, 1.0], [-1.0, 2.0, 2.0]])
    mean = np.array([1.0, 1.0, 1.0])
    g = one_node_graph(3)
    assert np.allclose(node_vector(g.entities[0], H), mean / np.sqrt(3.0), atol=1e-12)


def test_node_vector_span_past_the_token_vectors_rejected():
    g = one_node_graph(2)
    with pytest.raises(DimensionMismatchError, match=re.escape("span [0, 2) beyond 1 token vectors")):
        node_vector(g.entities[0], np.array([[1.0, 0.0]]))


def test_node_vector_zero_mean_rejected():
    H = np.array([[1.0, 0.0], [-1.0, 0.0]])
    g = one_node_graph(2)
    with pytest.raises(ZeroVectorError):
        node_vector(g.entities[0], H)


def test_inventory_parsing_and_forest():
    text = (
        "animal.n.01\tanimal\t-\t1.0\t0.0\n"
        "cat.n.01\tcat\tanimal.n.01\t0.0\t2.0\n"
    )
    inv = load_inventory(text, glosses={"cat.n.01": "a small feline"})
    assert inv.records["cat.n.01"].gloss == "a small feline"
    # vectors normalized on load
    assert np.allclose(inv.records["cat.n.01"].vector, [0.0, 1.0])
    assert inv.ancestry("cat.n.01") == ["animal.n.01", "cat.n.01"]
    assert inv.depth("animal.n.01") == 1
    with pytest.raises(ValueError):
        load_inventory("a\tx\tb\t1.0\t0.0\nb\tx\ta\t1.0\t0.0\n")  # cycle
    with pytest.raises(ValueError):
        load_inventory("a\tx\tmissing\t1.0\t0.0\n")
    with pytest.raises(ZeroVectorError):
        load_inventory("a\tx\t-\t0.0\t0.0\n")


def test_inventory_skips_blank_lines():
    inv = load_inventory("\na\tx\t-\t1.0\t0.0\n  \nb\ty\ta\t0.0\t1.0\n\n")
    assert sorted(inv.records) == ["a", "b"] and inv.ancestry("b") == ["a", "b"]


@pytest.mark.parametrize("text", [
    "a\tx\t-\t1.0\t0.0\na\ty\t-\t0.0\t1.0\n",  # duplicate id
    "a\tx\tmissing\t1.0\t0.0\n",  # unknown ancestor
    "a\tx\tb\t1.0\t0.0\nb\tx\ta\t1.0\t0.0\n",  # cycle
    "a\tx\t-\n",  # short line
    "a\tx\t-\t1.0\tnope\n",  # bad float
    "a\tx\t-\tinf\t1.0\n",  # non-finite float
    "a\tx\t-\tnan\t1.0\n",
    "a\tx\t-\t1.0\t0.0\nb\ty\t-\t1.0\t0.0\t0.0\n",  # unequal vector lengths
])
def test_inventory_errors_are_causalkg_errors(text):
    with pytest.raises(InventoryError) as exc:
        load_inventory(text)
    assert isinstance(exc.value, CausalKgError) and isinstance(exc.value, ValueError)


def test_inventory_unequal_vector_lengths_named():
    with pytest.raises(InventoryError, match="'b' has vector shape \\(3,\\)"):
        SenseInventory([
            SenseRecord("a", "x", None, unit([1.0, 0.0])),
            SenseRecord("b", "y", None, unit([1.0, 0.0, 0.0])),
        ])


def test_link_senses_exact_match_scores_one():
    vec = unit([0.3, -0.2, 0.9])
    inv = SenseInventory([SenseRecord("s0", "t0", None, vec)])
    g = one_node_graph(1)
    linked = link_senses(g, encoding_for([vec]), inv)
    (sense,) = linked.entities[0].senses
    assert sense[0] == "s0"
    assert abs(sense[1] - 1.0) < 1e-9


def test_link_senses_threshold_is_strict():
    inv = SenseInventory([
        SenseRecord("lo", "t0", None, unit([0.0, 1.0])),
        SenseRecord("hi", "t0", None, unit([1.0, 0.1])),
    ])
    g = one_node_graph(1)
    linked = link_senses(g, encoding_for([[1.0, 0.0]]), inv, threshold=0.5)
    assert [s for s, _ in linked.entities[0].senses] == ["hi"]
    # all scores at or below threshold -> empty assignment
    ortho = link_senses(g, encoding_for([[0.0, -1.0]]), inv, threshold=0.5)
    assert ortho.entities[0].senses == ()


def test_link_senses_rejects_a_nan_threshold():
    inv = SenseInventory([SenseRecord("s0", "t0", None, unit([1.0, 0.0]))])
    with pytest.raises(InputError, match="sense threshold must be a number, got nan"):
        link_senses(one_node_graph(1), encoding_for([[1.0, 0.0]]), inv, threshold=float("nan"))


def test_link_senses_ranking_matches_argsort():
    rng = np.random.default_rng(17)
    records = [SenseRecord(f"s{i}", "w", None, unit(rng.standard_normal(6))) for i in range(5)]
    inv = SenseInventory(records)
    vec = rng.standard_normal(6)
    g = one_node_graph(1)
    linked = link_senses(g, encoding_for([vec]), inv, threshold=-2.0)
    got = [s for s, _ in linked.entities[0].senses]
    dots = {r.sense_id: float(r.vector @ unit(vec)) for r in records}
    expected = sorted(dots, key=lambda s: (-dots[s], s))
    assert got == expected
    confs = [c for _, c in linked.entities[0].senses]
    assert confs == sorted(confs, reverse=True)


def test_skip_list():
    inv = SenseInventory(
        [SenseRecord("s0", "the", None, unit([1.0, 0.0]))], skip_lemmas=["the"]
    )
    g = assemble_graph(
        ["the", "baby"], None,
        [("e0", Span(0, 1), "element", 1.0), ("e1", Span(0, 2), "element", 1.0)],
    )
    enc = encoding_for([[1.0, 0.0], [1.0, 0.0]])
    linked = link_senses(g, enc, inv, threshold=0.0)
    by_id = linked.entity_by_id()
    assert by_id["e0"].senses == ()  # all lemmas skipped
    assert by_id["e1"].senses != ()  # "baby" not in the skip list


SEVEN = (
    "root\tr\t-\t1.0\t0.0\n"
    "a\ta\troot\t1.0\t0.0\n"
    "b\tb\troot\t1.0\t0.0\n"
    "aa\taa\ta\t1.0\t0.0\n"
    "ab\tab\ta\t1.0\t0.0\n"
    "aaa\taaa\taa\t1.0\t0.0\n"
    "lone\tl\t-\t1.0\t0.0\n"
)


def brute_force_lca_similarity(x, y, inv):
    # oracle: ancestor-set intersection, deepest common member
    anc_x, anc_y = inv.ancestry(x), inv.ancestry(y)
    common = set(anc_x) & set(anc_y)
    if not common:
        return None
    depth = max(len(inv.ancestry(c)) for c in common)
    return 2.0 * depth / (len(anc_x) + len(anc_y))


def test_lca_similarity_fixture():
    inv = load_inventory(SEVEN)
    assert lca_similarity("aa", "aa", inv) == 1.0
    assert lca_similarity("a", "b", inv) == 0.5  # siblings at depth 2
    assert abs(lca_similarity("aaa", "ab", inv) - 2.0 * 2 / (4 + 3)) < 1e-12
    ids = [s for s in inv.records if s != "lone"]
    for x in ids:
        for y in ids:
            got = lca_similarity(x, y, inv)
            assert abs(got - brute_force_lca_similarity(x, y, inv)) < 1e-12
            assert got == lca_similarity(y, x, inv)  # symmetry
            assert (got == 1.0) == (x == y)
    with pytest.raises(DisjointTreesError):
        lca_similarity("lone", "root", inv)


def reference_senses(inventory, vector, threshold):
    # the selection link_senses made before filtering moved into numpy: one
    # (id, float) tuple per sense, then a list-comprehension threshold
    ids = sorted(inventory.records)
    matrix = np.stack([inventory.records[s].vector for s in ids])
    scored = [(s, c) for s, c in zip(ids, (float(x) for x in matrix @ vector)) if c > threshold]
    scored.sort(key=lambda sc: (-sc[1], sc[0]))
    return tuple(scored)


# components in {-1, 0, 1} make ties and scores of exactly 0 or +/-1 common
TRIT = st.sampled_from([-1.0, 0.0, 1.0])


@st.composite
def linking_cases(draw):
    d = draw(st.integers(2, 3))
    nonzero = st.lists(TRIT, min_size=d, max_size=d).filter(any)
    n_tokens = draw(st.integers(1, 4))
    token_vectors = np.array([draw(nonzero) for _ in range(n_tokens)])
    lemmas = [draw(st.sampled_from("abc")) for _ in range(n_tokens)]
    ids = draw(st.lists(st.sampled_from([f"s{i}" for i in range(8)]), min_size=1, max_size=6, unique=True))
    records = [SenseRecord(s, "w", None, np.array(draw(nonzero))) for s in ids]
    skip = draw(st.sets(st.sampled_from("abc")))
    threshold = draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]) | st.floats(-1.5, 1.5))
    return token_vectors, lemmas, SenseInventory(records, skip_lemmas=skip), threshold


@settings(max_examples=300, deadline=None, derandomize=True)
@given(linking_cases())
def test_link_senses_matches_reference_selection(case):
    token_vectors, lemmas, inventory, threshold = case
    n = len(lemmas)
    spans = [Span(i, i + 1) for i in range(n)]
    if n > 1 and np.any(token_vectors.mean(axis=0)):
        spans.append(Span(0, n))
    graph = assemble_graph(
        [f"t{i}" for i in range(n)], lemmas,
        [(f"e{i}", span, "element", 1.0) for i, span in enumerate(spans)],
    )
    linked = link_senses(graph, encoding_for(token_vectors), inventory, threshold=threshold)
    # the second pass through the same inventory reads its memo
    again = link_senses(graph, encoding_for(token_vectors), inventory, threshold=threshold)
    for entity, repeated in zip(linked.entities, again.entities, strict=True):
        if graph.entity_lemmas(entity) <= inventory.skip_lemmas:
            assert entity.senses == ()
        else:
            vector = node_vector(entity, token_vectors)
            assert entity.senses == reference_senses(inventory, vector, threshold)
        assert repeated.senses == entity.senses


def two_sense_inventory():
    return SenseInventory([
        SenseRecord("x", "w", None, unit([1.0, 0.0])),
        SenseRecord("y", "w", None, unit([1.0, 1.0])),
    ])


@pytest.mark.parametrize("vector, error, message", [
    # each of these used to raise a bare TypeError or IndexError
    (np.ones((2, 3)), DimensionMismatchError, "node vector of shape (2, 3) vs inventory dim 2"),
    (np.array(1.0), DimensionMismatchError, "node vector of shape () vs inventory dim 2"),
    (np.ones(3), DimensionMismatchError, "node vector of shape (3,) vs inventory dim 2"),
    (np.array([1.0, 0.0], dtype=object), InputError, "node vector must hold real numbers, got dtype object"),
    (np.array([1.0, 0.0], dtype=complex), InputError, "node vector must hold real numbers, got dtype complex128"),
])
def test_senses_above_rejects_a_malformed_vector(vector, error, message):
    with pytest.raises(error, match=re.escape(message)):
        two_sense_inventory().senses_above(vector, 0.5)


@pytest.mark.parametrize("threshold, shown", [
    # "0.5" used to raise numpy's UFuncTypeError; True was read as 1
    ("0.5", "'0.5'"), (True, "True"), (None, "None"), (float("nan"), "nan"),
])
def test_sense_threshold_must_be_a_number(threshold, shown):
    message = f"sense threshold must be a number, got {shown}"
    with pytest.raises(InputError, match=re.escape(message)):
        two_sense_inventory().senses_above(unit([1.0, 0.0]), threshold)
    with pytest.raises(InputError, match=re.escape(message)):
        link_senses(one_node_graph(1), encoding_for([[1.0, 0.0]]), two_sense_inventory(), threshold=threshold)


def test_senses_above_on_an_empty_inventory_is_empty():
    assert SenseInventory([]).senses_above(unit([1.0, 0.0]), 0.5) == []


def test_senses_above_returns_a_list_of_its_own():
    inv = two_sense_inventory()
    first = inv.senses_above(unit([1.0, 0.2]), 0.5)
    expected = list(reference_senses(inv, unit([1.0, 0.2]), 0.5))
    assert first == expected and len(first) == 2
    first.pop()
    first[0] = ("z", 9.0)
    assert inv.senses_above(unit([1.0, 0.2]), 0.5) == expected
    assert inv.senses_above(unit([1.0, 0.2]), 0.5) is not inv.senses_above(unit([1.0, 0.2]), 0.5)


def test_senses_above_keys_its_memo_by_dtype_and_threshold():
    inv = two_sense_inventory()
    ints, floats = np.array([1, 0]), np.array([5e-324, 0.0])
    assert ints.tobytes() == floats.tobytes()
    assert [s for s, _ in inv.senses_above(ints, 0.5)] == ["x", "y"]
    assert inv.senses_above(floats, 0.5) == []
    assert [s for s, _ in inv.senses_above(ints, 0.8)] == ["x"]
    assert inv.senses_above(ints, 1) == []  # scores must exceed it


def test_senses_above_memo_keeps_its_first_keys():
    rng = np.random.default_rng(11)
    inv = SenseInventory([SenseRecord(f"s{i}", "w", None, unit(rng.standard_normal(8))) for i in range(6)])
    vectors = [unit(rng.standard_normal(8)) for _ in range(1100)]
    for _ in range(2):
        for vector in vectors:
            assert inv.senses_above(vector, 0.3) == list(reference_senses(inv, vector, 0.3))
    assert len(inv._memo) == 1 << 10
    assert {key[1] for key in inv._memo} == {vector.tobytes() for vector in vectors[: 1 << 10]}
    # every sense scores above -2, so the pair budget, not the key cap, stops this one
    everything = SenseInventory([SenseRecord(f"s{i}", "w", None, unit(rng.standard_normal(8))) for i in range(64)])
    for vector in vectors[:300]:
        assert everything.senses_above(vector, -2.0) == list(reference_senses(everything, vector, -2.0))
    assert len(everything._memo) == 255 and sum(map(len, everything._memo.values())) == 255 * 64
