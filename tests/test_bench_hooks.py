"""The traced benchmark run wraps library attributes by name; each must
still exist, so that renaming or dropping one fails here rather than only
in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import synth
from causalkg.encoder import EncoderConfig
from causalkg.model import Model, extract
from causalkg.schema import check_constraints, load_schema

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_exists():
    wrapped = load_tracing().WRAPPED
    pairs = {(module, attr) for module, attr, _, _ in wrapped}
    # the loader, merge and path-search hooks of the query-corpus layers
    assert {
        ("causalkg.cli", "graph_from_dict"),
        ("causalkg.cli", "merge_corpus"),
        ("causalkg.cli", "find_paths"),
        ("causalkg.model", "assemble_graph"),
    } <= pairs
    missing = [
        f"{module}.{attr}" for module, attr in sorted(pairs)
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"bench/tracing.py wraps attributes that no longer exist: {missing}"


def test_traced_rectify_counts_one_constraint_scan():
    # bench/test_bench.py, which asserts the schema.* metrics of a whole run,
    # is not collected here; without this, a rectify that stopped calling the
    # wrapped name would leave them at 0 unnoticed
    sciclaim = load_schema("sciclaim")
    model = Model.initialize(sciclaim, EncoderConfig(dimension=64, seed=0, context_window=1), seed=16)
    tokens = tuple(synth.FACTORS[:5])
    graph = extract(tokens, tokens, model)
    rectify_module = importlib.import_module("causalkg.rectify")
    tracer = load_tracing().Tracer()
    with tracer.installed():
        rectify_module.rectify(graph, sciclaim)
    metrics = tracer.layer_metrics(0.0)
    assert metrics["schema.check_calls"] == 1
    assert metrics["schema.violations_scanned"] == len(check_constraints(graph, sciclaim)) > 0
    assert metrics["rectify.removals"] > 0


def test_traced_extract_scores_one_pair_block_and_assembles_columns():
    # model.pair_rep and model.assemble_graph, the names the tracer wraps,
    # bind the batched pair builder and the bulk graph constructor
    sciclaim = load_schema("sciclaim")
    model = Model.initialize(sciclaim, EncoderConfig(dimension=64, seed=0, context_window=1), seed=16)
    tokens = tuple(synth.FACTORS[:5])
    tracer = load_tracing().Tracer()
    with tracer.installed():
        graph = importlib.import_module("causalkg.model").extract(tokens, tokens, model)
    metrics = tracer.layer_metrics(0.0)
    k = len(graph.entities)
    attributes = sum(len(e.attributes) for e in graph.entities)
    assert metrics["model.pairs_scored"] == 1  # one block of k(k-1) pairs
    assert metrics["model.relation_yield"] == len(graph.relations) / (k * (k - 1) * len(sciclaim.relation_types))
    assert metrics["graphs.elements_assembled"] == k + attributes + len(graph.relations) > 0
    assert metrics["graphs.assemble_s"] > 0 and metrics["model.errors"] == 0
