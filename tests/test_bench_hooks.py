"""The traced benchmark run wraps library attributes by name, and the
workloads import library names; each must still exist, so that renaming or
dropping one fails here rather than only in a benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import synth
from causalkg.encoder import EncoderConfig
from causalkg.model import Model, enumerate_spans, extract, load_model, save_model
from causalkg.schema import check_constraints, load_schema

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # for its `import inputs`
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_workload_fingerprint_reads_the_one_parameter_buffer(monkeypatch, tmp_path):
    # bench/workloads.py imports its names from the library and fingerprints
    # a model by its parameter groups in PARAM_GROUPS order, which are the
    # bytes of the one buffer, kept by a save and reload
    workloads = load_workloads(monkeypatch)
    training_module = importlib.import_module("causalkg.training")
    config = training_module.TrainConfig(epochs=2, max_span_len=3, neg_entity_count=4, neg_relation_count=2)
    model = training_module.train(synth.build_corpus()[:2], load_schema("sciclaim"), config,
                                  encoder_config=EncoderConfig(dimension=8, seed=0, context_window=1), width_dim=2)
    path = str(tmp_path / "model.json")
    save_model(model, path)
    fingerprint = workloads._model_fingerprint(model)
    assert fingerprint == model.params.flat.tobytes().hex()
    assert workloads._model_fingerprint(load_model(path)) == fingerprint


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


def test_traced_extract_pools_every_span_through_span_representations():
    # model.span_pool_s and model.spans_enumerated come from the wrapped
    # span_representations; an extract that pooled its spans another way
    # would leave both at 0 unnoticed
    model = Model.initialize(load_schema("sciclaim"), EncoderConfig(dimension=64, seed=0, context_window=1), seed=16)
    tokens = tuple(synth.FACTORS[:5])
    tracer = load_tracing().Tracer()
    with tracer.installed():
        importlib.import_module("causalkg.model").extract(tokens, tokens, model)
    metrics = tracer.layer_metrics(0.0)
    assert metrics["model.span_pool_s"] > 0
    assert metrics["model.spans_enumerated"] == len(enumerate_spans(len(tokens), model.max_span_len))


def test_workload_span_check_unpacks_span_representations(monkeypatch):
    # bench/workloads.keeps_every_span unpacks span_representations' pair of
    # weights and reps; a change to that pair fails here, not only in a
    # benchmark run
    workloads = load_workloads(monkeypatch)
    tokens = tuple(synth.FACTORS[:5])
    encoder, kept = EncoderConfig(dimension=64, seed=0, context_window=1), []
    for seed in (3, 0):
        model = Model.initialize(load_schema("sciclaim"), encoder, seed=seed)
        kept.append(workloads.keeps_every_span(model, tokens))
        assert kept[-1] == (len(extract(tokens, tokens, model).entities) == len(enumerate_spans(5, model.max_span_len)))
    assert kept == [True, False]


def test_traced_training_times_every_step():
    # the training.* metrics come from the wrapped sample_negatives and
    # example_loss_and_grads; a train that stopped calling those names once
    # a step would leave them at 0 unnoticed
    training_module = importlib.import_module("causalkg.training")
    config = training_module.TrainConfig(epochs=3, neg_entity_count=50, neg_relation_count=20)
    tracer = load_tracing().Tracer()
    with tracer.installed():
        training_module.train(synth.build_corpus()[:2], load_schema("sciclaim"), config,
                              encoder_config=EncoderConfig(dimension=8, seed=0, context_window=1))
    metrics = tracer.layer_metrics(0.0)
    assert metrics["training.steps"] == 6
    assert metrics["training.negatives_s"] > 0 and metrics["training.loss_grad_s"] > 0
    assert metrics["training.errors"] == 0
