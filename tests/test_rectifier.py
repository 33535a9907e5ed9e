import signal
from contextlib import contextmanager

import numpy as np

from causalkg.evaluation import score
from causalkg.graphs import Span, assemble_graph
from causalkg.rectify import rectify
from causalkg.schema import check_constraints, load_schema

from synth import random_sciclaim_graph, separator_id_graphs

SCICLAIM = load_schema("sciclaim")


def element_sets(g):
    return (
        {(e.id, e.span, e.entity_type) for e in g.entities},
        {(e.id, t) for e in g.entities for t, _ in e.attributes},
        {(r.head, r.tail, r.relation_type) for r in g.relations},
    )


def test_conforming_graph_untouched():
    g = assemble_graph(
        ["a", "causes", "b"], None,
        [("e0", Span(0, 1), "factor", 0.9),
         ("e1", Span(1, 2), "association", 0.8),
         ("e2", Span(2, 3), "factor", 0.7)],
        attributes=[("e1", "causation", 0.9)],
        relations=[("e1", "e0", "arg0", 0.9), ("e1", "e2", "arg1", 0.8)],
    )
    fixed, log = rectify(g, SCICLAIM)
    assert fixed == g
    assert log == []


def test_exclusive_pair_drops_weaker_edge():
    # q+ at 0.9 vs q- at 0.6 on the same ordered pair: q- goes
    g = assemble_graph(
        ["a", "b"], None,
        [("e0", Span(0, 1), "factor", 0.95), ("e1", Span(1, 2), "factor", 0.95)],
        relations=[("e0", "e1", "q+", 0.9), ("e0", "e1", "q-", 0.6)],
    )
    fixed, log = rectify(g, SCICLAIM)
    assert [r.relation_type for r in fixed.relations] == ["q+"]
    assert len(log) == 1
    assert log[0].element_id == "e0->e1:q-"
    assert log[0].kind == "relation"
    assert log[0].confidence == 0.6
    assert not log[0].cascade


def test_misplaced_attribute_weaker_than_entity():
    g = assemble_graph(
        ["smoking"], None,
        [("e0", Span(0, 1), "factor", 0.8)],
        attributes=[("e0", "causation", 0.3)],
    )
    fixed, log = rectify(g, SCICLAIM)
    assert [e.id for e in fixed.entities] == ["e0"]
    assert fixed.entities[0].attributes == ()
    assert [(r.element_id, r.kind) for r in log] == [("e0#causation", "attribute")]


def test_misplaced_attribute_stronger_than_entity():
    # the entity is the weakest participant, so it goes and the attribute cascades
    g = assemble_graph(
        ["smoking"], None,
        [("e0", Span(0, 1), "factor", 0.5)],
        attributes=[("e0", "causation", 0.9)],
    )
    fixed, log = rectify(g, SCICLAIM)
    assert fixed.entities == ()
    assert [(r.element_id, r.kind, r.cascade) for r in log] == [
        ("e0", "entity", False),
        ("e0#causation", "attribute", True),
    ]


def test_entity_removal_cascades_relations():
    g = assemble_graph(
        ["a", "b", "c"], None,
        [("e0", Span(0, 1), "association", 0.9),
         ("e1", Span(1, 2), "factor", 0.1),
         ("e2", Span(2, 3), "factor", 0.9)],
        attributes=[("e1", "causation", 0.95)],  # attribute off-domain, entity weakest
        relations=[("e0", "e1", "arg0", 0.9), ("e1", "e2", "subtype", 0.9)],
    )
    fixed, log = rectify(g, SCICLAIM)
    assert {e.id for e in fixed.entities} == {"e0", "e2"}
    assert fixed.relations == ()
    cascaded = {r.element_id for r in log if r.cascade}
    assert cascaded == {"e1#causation", "e0->e1:arg0", "e1->e2:subtype"}


def test_kind_order_breaks_confidence_ties():
    # attribute and entity tied at 0.5: the attribute is preferred for removal
    g = assemble_graph(
        ["x"], None,
        [("e0", Span(0, 1), "factor", 0.5)],
        attributes=[("e0", "causation", 0.5)],
    )
    fixed, log = rectify(g, SCICLAIM)
    assert [e.id for e in fixed.entities] == ["e0"]
    assert log[0].element_id == "e0#causation"


def test_id_breaks_full_ties():
    # q+ and q- tied at 0.5 on one pair: "e0->e1:q+" sorts first, so it goes
    g = assemble_graph(
        ["a", "b"], None,
        [("e0", Span(0, 1), "factor", 0.9), ("e1", Span(1, 2), "factor", 0.9)],
        relations=[("e0", "e1", "q-", 0.5), ("e0", "e1", "q+", 0.5)],
    )
    fixed, log = rectify(g, SCICLAIM)
    assert [r.relation_type for r in fixed.relations] == ["q-"]
    assert [rec.element_id for rec in log] == ["e0->e1:q+"]


@contextmanager
def deadline(seconds):
    """Fail the block instead of hanging when it runs past `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_separator_characters_in_entity_ids():
    graphs = separator_id_graphs()
    with deadline(10):
        fixed, log = rectify(graphs["hash_in_id"], SCICLAIM)
    assert check_constraints(fixed, SCICLAIM) == []
    assert [e.attributes for e in fixed.entities] == [(), ()]
    assert [(r.element_id, r.kind, r.cascade) for r in log] == [
        ("x\\#1#causation", "attribute", False)
    ]

    with deadline(10):
        fixed, log = rectify(graphs["arrow_in_id"], SCICLAIM)
    assert check_constraints(fixed, SCICLAIM) == []
    assert [e.id for e in fixed.entities] == ["a", "f"]
    assert [r.id for r in fixed.relations] == ["a->f:arg0"]
    assert [(r.element_id, r.kind, r.cascade) for r in log] == [
        ("p-\\>q", "entity", False),
        ("p-\\>q->f:arg0", "relation", True),
        ("a->p-\\>q:arg1", "relation", True),
    ]


def test_rectify_properties_random_graphs():
    rng = np.random.default_rng(99)
    for i in range(60):
        g = random_sciclaim_graph(rng, provenance=f"r{i}")
        fixed, log = rectify(g, SCICLAIM)
        # zero violations in the output
        assert check_constraints(fixed, SCICLAIM) == []
        # strictly removes: element sets are subsets
        for kept, original in zip(element_sets(fixed), element_sets(g)):
            assert kept <= original
        # idempotence
        again, log2 = rectify(fixed, SCICLAIM)
        assert again == fixed and log2 == []
        # each removed element is logged exactly once
        removed = [r.element_id for r in log]
        assert len(removed) == len(set(removed))


def test_rectified_recall_never_exceeds_raw():
    rng = np.random.default_rng(7)
    for i in range(20):
        predicted = random_sciclaim_graph(rng, provenance=f"p{i}")
        gold = random_sciclaim_graph(rng, provenance=f"p{i}")
        fixed, _ = rectify(predicted, SCICLAIM)
        raw_report = score([predicted], [gold])
        new_report = score([fixed], [gold])
        for section in ("entities", "attributes", "relations"):
            raw_r = raw_report.micro[section].recall
            new_r = new_report.micro[section].recall
            if raw_r is None:
                assert new_r is None
            else:
                assert new_r <= raw_r + 1e-9
