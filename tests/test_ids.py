"""The string-id codec in `causalkg.graphs`: every kind of id, checked
against a decoder written here from the documented grammar."""

from hypothesis import given, settings
from hypothesis import strategies as st

from causalkg.graphs import (
    Relation,
    Relations,
    edge_ids,
    element_id,
    lemma_link_id,
    node_id,
    node_prefix,
)

# the separators of every id kind, the escape character and the lemma-link
# prefix, so that drawn parts hold them often and side by side
PARTS = st.lists(
    st.sampled_from(["\\", "-", ">", "->", ":", "#", "/", "~", "lemma", "lemma:", "a", "é"]),
    max_size=4,
).map("".join)

# the separator sequence of each id kind
KINDS = {
    (): "entity",
    ("#",): "attribute",
    ("->", ":"): "relation",
    ("/",): "node",
    ("/", "->", ":"): "edge",
    (":", "/", "~", "/"): "lemma",
}


def decode(text: str) -> tuple[str, tuple[str, ...]]:
    """The kind and the unescaped parts of a rendered id."""
    parts, separators, part = [], [], []
    chars = iter(text)
    for c in chars:
        if c == "\\":
            part.append(next(chars))
            continue
        if c not in ">:#/~":
            part.append(c)
            continue
        if c == ">":
            # an unescaped ">" ends the "->" separator; "-" is never escaped
            assert part and part[-1] == "-", text
            part.pop()
            c = "->"
        parts.append("".join(part))
        separators.append(c)
        part = []
    parts.append("".join(part))
    kind = KINDS[tuple(separators)]
    if kind == "lemma":
        assert parts[0] == "lemma", text
        parts = parts[1:]
    return kind, tuple(parts)


def render(kind: str, parts: tuple[str, ...]) -> str:
    if kind in ("entity", "attribute", "relation"):
        return element_id((kind, *parts))
    if kind == "node":
        return node_id(node_prefix(parts[0]), parts[1])
    if kind == "edge":
        # the second of two rows, so the row asked for, not row 0, is rendered
        head, tail, rel_type = parts[1:]
        relations = Relations(("x", head, tail), ("y", rel_type), [1, 1], [0, 2], [0, 1], [0.5, 0.5])
        return edge_ids(node_prefix(parts[0]), relations, [1])[0]
    a, b = node_id(node_prefix(parts[0]), parts[1]), node_id(node_prefix(parts[2]), parts[3])
    return lemma_link_id(a, b)


ARITY = {"entity": 1, "attribute": 2, "relation": 3, "node": 2, "edge": 4, "lemma": 4}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_distinct_keys_render_to_distinct_ids_that_decode_back(data):
    for kind, arity in ARITY.items():
        keys = data.draw(st.lists(st.tuples(*[PARTS] * arity), min_size=2, max_size=6, unique=True))
        if kind == "lemma":
            # a link is between two distinct nodes, and unordered
            keys = [k for k in keys if k[:2] != k[2:]]
            pairs = {frozenset((k[:2], k[2:])) for k in keys}
        ids = [render(kind, key) for key in keys]
        assert len(set(ids)) == (len(pairs) if kind == "lemma" else len(keys)), ids
        for key, rendered in zip(keys, ids):
            decoded_kind, parts = decode(rendered)
            assert decoded_kind == kind, rendered
            if kind == "lemma":
                ends = sorted([key[:2], key[2:]], key=lambda node: render("node", node))
                assert parts == ends[0] + ends[1]
            else:
                assert parts == key


def test_ids_without_special_characters_render_as_before():
    assert element_id(("entity", "e0")) == "e0"
    assert element_id(("attribute", "e0", "sign+")) == "e0#sign+"
    assert Relation("e0", "e1", "q+", 0.5).id == "e0->e1:q+"
    prefix = node_prefix("s0")
    assert node_id(prefix, "e0") == "s0/e0"
    relations = Relations(("e0", "e1"), ("q+", "q-"), [0, 1], [1, 0], [0, 1], [0.5, 0.5])
    assert edge_ids(prefix, relations, [1, 0]) == ["s0/e1->e0:q-", "s0/e0->e1:q+"]
    assert lemma_link_id("s1/e0", "s0/e0") == "lemma:s0/e0~s1/e0"


def test_arrows_in_entity_ids_give_distinct_relation_ids():
    # unescaped, a -> "b->c" and "a->b" -> c would both be "a->b->c:q+"
    first, second = Relation("a", "b->c", "q+", 0.5), Relation("a->b", "c", "q+", 0.5)
    assert (first.id, second.id) == ("a->b-\\>c:q+", "a-\\>b->c:q+")
    assert decode(first.id) == ("relation", ("a", "b->c", "q+"))
    assert decode(second.id) == ("relation", ("a->b", "c", "q+"))
