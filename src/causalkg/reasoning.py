"""Graph-based causal reasoning: valence propagation and path queries.

Valence propagation walks forward from intentional, functional, or
prescribed source nodes, asserting the positive or negative desirability
of each reached node for the source's agent (or the generic NORM holder).
The sign flips on every "q-" edge traversed and on entry to every node
carrying the "negated" attribute.

Path queries run over a corpus graph: they enumerate simple paths between
nodes matching a start pattern and nodes matching an end pattern, moving
forward along directed edges and in both directions along "modifier" edges
and cross-sentence lemma links.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from .errors import InputError, QueryError
from .graphs import CorpusGraph, Entity, KnowledgeGraph, edge_ids, lemma_link_id, node_id, node_prefix
from .readers import array, integer, obj, required, string, strings
from .schema import Schema, check_relation_types

__all__ = [
    "NORM",
    "ValenceAssertion",
    "NodePattern",
    "QueryResult",
    "compute_valence",
    "find_paths",
    "matching_nodes",
]

NORM = "NORM"
_PATTERN_KEYS = ("lemma_any_of", "entity_type", "required_attributes", "role_constraints")

# edge types followed during valence propagation; "agent" resolves the
# holder and is deliberately excluded from propagation
VALENCE_EDGES = frozenset(
    {"intent+", "function+", "consequent", "object", "recipient", "q+", "q-"}
)


@dataclass(frozen=True)
class ValenceAssertion:
    holder: str  # entity id or NORM
    target: str  # entity id
    sign: int  # +1 or -1

    def to_dict(self) -> dict:
        return {"holder": self.holder, "target": self.target, "sign": "+" if self.sign > 0 else "-"}


def _out_edges(graph: KnowledgeGraph, entity_id: str) -> list[tuple[str, str]]:
    """The (type, tail id) of each relation headed at the entity, in graph order."""
    rels = graph.relations
    return [(rels.types[rels.code[j]], rels.ids[rels.tail[j]]) for j in graph.outgoing(entity_id)]


def compute_valence(graph: KnowledgeGraph, schema: Schema | None = None) -> list[ValenceAssertion]:
    """Valence assertions from intentional/functional/prescribed structure.

    Sources are nodes with an outgoing "intent+" or "function+" edge and
    nodes carrying the "prescribed" attribute.  Each (node, sign) pair is
    visited at most once per source, so cyclic graphs terminate.
    """
    if schema is not None:
        check_relation_types(graph, schema)

    sources = sorted(
        (
            e for e in graph.entities
            if e.has_attribute("prescribed")
            or any(rel_type in ("intent+", "function+") for rel_type, _ in _out_edges(graph, e.id))
        ),
        key=lambda e: e.id,
    )

    assertions: list[ValenceAssertion] = []
    seen: set[tuple[str, str, int]] = set()
    for source in sources:
        holder = min((t for rel_type, t in _out_edges(graph, source.id) if rel_type == "agent"), default=NORM)

        start_sign = -1 if source.has_attribute("negated") else 1
        stack: list[tuple[str, int]] = [(source.id, start_sign)]
        visited: set[tuple[str, int]] = set()
        while stack:
            node_id, sign = stack.pop()
            if (node_id, sign) in visited:
                continue
            visited.add((node_id, sign))
            key = (holder, node_id, sign)
            if key not in seen:
                seen.add(key)
                assertions.append(ValenceAssertion(holder, node_id, sign))
            # in reverse order, so the lexicographically first edge is popped first
            for rel_type, tail_id in sorted(_out_edges(graph, node_id), reverse=True):
                if rel_type not in VALENCE_EDGES:
                    continue
                next_sign = sign
                if rel_type == "q-":
                    next_sign = -next_sign
                if graph.entity(tail_id).has_attribute("negated"):
                    next_sign = -next_sign
                stack.append((tail_id, next_sign))
    return assertions


@dataclass(frozen=True)
class NodePattern:
    """Declarative match against a corpus node.

    All present fields must hold: any node lemma in lemma_any_of, the
    entity type equal, every required attribute present, and for each role
    constraint an outgoing edge of that relation type whose target matches
    the sub-pattern.  At least one field must be present; QueryError names
    a field that is not of its type: a set or frozenset of strings, a
    string, or a tuple of (relation type, NodePattern) pairs.
    """

    lemma_any_of: frozenset[str] | None = None
    entity_type: str | None = None
    required_attributes: frozenset[str] | None = None
    role_constraints: tuple[tuple[str, "NodePattern"], ...] | None = None

    def __post_init__(self) -> None:
        lemmas, entity_type, attributes, roles = (getattr(self, key) for key in _PATTERN_KEYS)
        if lemmas is None and entity_type is None and attributes is None and roles is None:
            raise QueryError("NodePattern must constrain at least one field")
        for name, value in (("lemma_any_of", lemmas), ("required_attributes", attributes)):
            if not (value is None or isinstance(value, (set, frozenset)) and all(isinstance(v, str) for v in value)):
                raise QueryError(f"pattern field {name!r} {value!r} is not a set of strings")
        if not (entity_type is None or isinstance(entity_type, str)):
            raise QueryError(f"pattern field 'entity_type' {entity_type!r} is not a string")
        if not (roles is None or isinstance(roles, tuple) and all(
            isinstance(rc, tuple) and len(rc) == 2 and isinstance(rc[0], str) and isinstance(rc[1], NodePattern)
            for rc in roles
        )):
            raise QueryError(f"pattern field 'role_constraints' {roles!r} is not a tuple of (str, NodePattern) pairs")

    @staticmethod
    def from_dict(data: Mapping) -> "NodePattern":
        """Parse a pattern document; raises QueryError when it is malformed."""
        obj(data, "node pattern", QueryError, _PATTERN_KEYS)

        def string_set(key: str) -> frozenset[str] | None:
            if key in data:
                return frozenset(strings(data[key], f"pattern field {key!r}", QueryError))
            return None

        constraints = None
        if "role_constraints" in data:
            constraints = []
            roles = array(data["role_constraints"], "pattern field 'role_constraints'", QueryError)
            for i, rc in enumerate(roles):
                label = f"role constraint {i}"
                obj(rc, label, QueryError, ("relation", "pattern"))
                constraints.append((
                    required(rc, "relation", f"{label} 'relation'", QueryError, string),
                    NodePattern.from_dict(required(rc, "pattern", f"{label} 'pattern'", QueryError)),
                ))
            constraints = tuple(constraints)
        return NodePattern(
            lemma_any_of=string_set("lemma_any_of"),
            entity_type=(
                string(data["entity_type"], "pattern field 'entity_type'", QueryError)
                if "entity_type" in data else None
            ),
            required_attributes=string_set("required_attributes"),
            role_constraints=constraints,
        )

    def matches(self, graph: KnowledgeGraph, entity: Entity) -> bool:
        if self.lemma_any_of is not None:
            if not (self.lemma_any_of & graph.entity_lemmas(entity)):
                return False
        if self.entity_type is not None and entity.entity_type != self.entity_type:
            return False
        if self.required_attributes is not None:
            if not (self.required_attributes <= entity.attribute_types()):
                return False
        if self.role_constraints is not None:
            edges = _out_edges(graph, entity.id)
            for rel_type, sub in self.role_constraints:
                if not any(t == rel_type and sub.matches(graph, graph.entity(tail)) for t, tail in edges):
                    return False
        return True


@dataclass(frozen=True)
class QueryResult:
    """Paths as alternating node/edge id sequences plus their union subgraph."""

    paths: tuple[tuple[str, ...], ...]
    subgraph_nodes: tuple[str, ...] = field(default=())
    subgraph_edges: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "paths": [list(p) for p in self.paths],
            "subgraph": {
                "nodes": list(self.subgraph_nodes),
                "edges": list(self.subgraph_edges),
            },
        }


def matching_nodes(corpus: CorpusGraph, pattern: NodePattern) -> list[str]:
    """The global ids of the corpus nodes the pattern matches, sorted.

    A pattern with `lemma_any_of` is tested only against the nodes the
    corpus's `by_lemma` files under one of its lemmas.  One without it but
    with an entity type or required attributes is tested only against the
    shortest of the corpus's typed buckets it names: the nodes of its type,
    or those carrying one of its attributes.  Any other pattern, one of
    role constraints or an empty `required_attributes` alone, is tested
    against every node.
    """
    nodes = corpus.nodes
    if pattern.lemma_any_of is not None:
        by_lemma = corpus.by_lemma
        candidates = {gid for lemma in pattern.lemma_any_of for gid in by_lemma.get(lemma, ())}
    elif pattern.entity_type is not None or pattern.required_attributes:
        by_type, by_attribute = corpus.typed_buckets()
        buckets = [by_attribute.get(attr_type, ()) for attr_type in pattern.required_attributes or ()]
        if pattern.entity_type is not None:
            buckets.append(by_type.get(pattern.entity_type, ()))
        candidates = min(buckets, key=len)
    else:
        candidates = nodes
    return sorted(gid for gid in candidates if pattern.matches(*nodes[gid]))


def find_paths(
    corpus: CorpusGraph,
    start: NodePattern,
    end: NodePattern,
    max_len: int = 6,
) -> QueryResult:
    """All simple paths of edge-length <= max_len from start to end matches.

    A node matching both patterns yields a single-node path.  Paths never
    repeat a node.  Output order is deterministic: paths sorted
    lexicographically by their id sequences.  The walk keeps its own
    stack, so only max_len bounds a path's length.  A max_len that is not
    an integer >= 1 raises InputError.
    """
    if integer(max_len, "max_len", InputError) < 1:
        raise InputError("max_len must be >= 1")
    nodes, by_lemma, lemma_link = corpus.nodes, corpus.by_lemma, corpus.lemma_link
    adjacency: dict[str, list[tuple[str, str]]] = {}

    def neighbours(node: str) -> list[tuple[str, str]]:
        # a node's edges are built when the search first reaches it: its
        # outgoing relations, its incoming "modifier" relations (traversable
        # both ways) and, with lemma links, the nodes of other graphs that
        # share one of its lemmas; their order is moot because paths.sort()
        # below fixes the output order
        edges = adjacency.get(node)
        if edges is None:
            g, e = nodes[node]
            prefix = node_prefix(g.provenance)
            rels, out = g.relations, g.outgoing(e.id)
            back = tuple(j for j in g.incoming(e.id) if rels.types[rels.code[j]] == "modifier")
            ends = [rels.tail[j] for j in out] + [rels.head[j] for j in back]
            edges = list(zip(edge_ids(prefix, rels, out + back), [node_id(prefix, rels.ids[i]) for i in ends]))
            if lemma_link:
                linked = {o for lemma in g.entity_lemmas(e) for o in by_lemma[lemma] if nodes[o][0] is not g}
                edges += [(lemma_link_id(node, other), other) for other in linked]
            adjacency[node] = edges
        return edges

    start_ids = matching_nodes(corpus, start)
    end_ids = set(matching_nodes(corpus, end))

    paths: list[tuple[str, ...]] = []
    for sid in start_ids:
        if sid in end_ids:
            paths.append((sid,))
        # stack[k] iterates the edges of path[2k], the path's k-th node
        path, on_path, stack = [sid], {sid}, [iter(neighbours(sid))]
        while stack:
            for edge_id, neighbor in stack[-1]:
                if neighbor in on_path:
                    continue
                path += (edge_id, neighbor)
                if neighbor in end_ids:
                    paths.append(tuple(path))
                if len(stack) < max_len:
                    on_path.add(neighbor)
                    stack.append(iter(neighbours(neighbor)))
                    break
                del path[-2:]
            else:
                stack.pop()
                if stack:
                    on_path.remove(path[-1])
                    del path[-2:]

    paths.sort()
    sub_nodes: set[str] = set()
    sub_edges: set[str] = set()
    for p in paths:
        sub_nodes.update(p[0::2])
        sub_edges.update(p[1::2])
    return QueryResult(
        paths=tuple(paths),
        subgraph_nodes=tuple(sorted(sub_nodes)),
        subgraph_edges=tuple(sorted(sub_edges)),
    )
