"""Tests of the benchmark itself: python -m pytest bench"""

import contextlib
import importlib
import io
import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run

_, workloads = run._import_library()
import inputs  # noqa: E402  (needs the paths set up by _import_library)
from causalkg.graphs import merge_corpus  # noqa: E402
from causalkg.reasoning import NodePattern, find_paths  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = workloads.Sizes(epochs=2, heldout=3, dense=2, graphs=12, queries=4, senses=120, setups=1)
SCRATCH = run.ROOT / ".bench_work" / "tests"


def run_bench(workload: str, trace: int, seed: int = 99):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)], sizes=TINY
        )
    assert code == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture
def scratch():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    yield SCRATCH
    shutil.rmtree(SCRATCH, ignore_errors=True)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_printed_metric_names_match_benchmark_json(workload, trace):
    lines, result = run_bench(workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    expected = [m["name"] for m in spec]
    assert [line.split()[1] for line in lines if line.startswith("metric ")] == expected
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == expected
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in spec)
    assert result["attempted"] >= 1


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def _setup_files(workload, seed: int, directory: Path) -> dict:
    directory.mkdir()
    ctx = workloads.WORKLOADS[workload].setup(seed, str(directory), TINY)
    files = {p.relative_to(directory).as_posix(): p.read_bytes() for p in directory.rglob("*") if p.is_file()}
    files.pop("out/query.json", None)  # the warm-up query's output
    return {"files": files, "sentences": getattr(ctx, "sentences", None), "queries": getattr(ctx, "queries", None)}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload, scratch):
    first = _setup_files(workload, 1, scratch / "a")
    again = _setup_files(workload, 1, scratch / "b")
    other = _setup_files(workload, 2, scratch / "c")
    assert first == again
    assert first != other


def test_input_shapes():
    assert len(inputs.VOCABULARY) == 74
    model = workloads.Model.initialize(workloads.SCICLAIM, workloads.DENSE_ENCODER, seed=workloads.DENSE_MODEL_SEED)
    sentences = inputs.dense_sentences(
        np.random.default_rng(0), 200, lambda tokens: workloads.keeps_every_span(model, tokens)
    )
    block = sorted(n for n, k in inputs.DENSE_LENGTHS.items() for _ in range(k))
    assert sorted(len(s) for s in sentences[: len(block)]) == block
    graph = workloads.model_mod.extract(sentences[0], None, model)
    n = len(sentences[0])
    assert len(graph.entities) == n * (n + 1) // 2
    rng = np.random.default_rng(0)
    table = {token: inputs.unit(rng, 8) for token in inputs.VOCABULARY}
    assert len(inputs.sense_inventory_tsv(rng, table, 400).splitlines()) == 400


def test_graph_with_violation_left_in_counts_as_failed(monkeypatch):
    rectify_mod = importlib.import_module("causalkg.rectify")
    monkeypatch.setattr(rectify_mod, "rectify", lambda graph, schema: (graph, []))
    lines, result = run_bench("extract-dense", 0)
    assert result["failed"] == result["attempted"] == TINY.dense
    assert result["correct"] is False
    assert any("violations" in line for line in lines if line.startswith("failed:"))


def test_raising_op_counts_as_failed():
    def boom():
        raise ValueError("injected")

    record = workloads.Record()
    workloads.run_round(iter([workloads.Op("query", boom, lambda out: out, str)]), record)
    assert (record.attempted, record.failed) == (1, 1)


def test_output_that_changes_between_rounds_counts_as_failed():
    outputs = iter(["first", "second"])
    op = workloads.Op("sentence", lambda: next(outputs), lambda out: out, str)
    record = workloads.Record()
    for _ in range(2):
        workloads.run_round(iter([op]), record)
    assert (record.attempted, record.failed) == (2, 1)
    assert "differs from the first round" in record.problems[0]


def test_host_clock_rescales_by_nearby_kernel_times():
    clock = workloads.HostClock()
    clock.starts = [float(t) for t in range(20)]
    clock.seconds = [workloads.REFERENCE_S] * 10 + [2 * workloads.REFERENCE_S] * 10
    assert clock.scale(2.0) == 1.0
    assert clock.scale(17.0) == 0.5
    record = workloads.Record(kinds=["sentence"], times=[[(2.0, 0.4), (17.0, 0.6)]])
    assert record.best("sentence", clock) == [0.3]
    assert record.best("sentence") == [0.4]


def test_unsorted_path_list_counts_as_failed():
    graphs = inputs.corpus_graphs(np.random.default_rng(0), 12)
    index = workloads.CorpusIndex(graphs)
    hub = max(set(graphs[0].lemmas), key=lambda lemma: sum(g.lemmas.count(lemma) for g in graphs))
    query = {"start": {"lemma_any_of": [hub]}, "end": {"entity_type": "element"}, "max_len": 1}
    result = find_paths(
        merge_corpus(graphs, lemma_link=True),
        NodePattern.from_dict(query["start"]), NodePattern.from_dict(query["end"]), 1,
    )
    assert len(result.paths) >= 2
    good = result.to_dict()
    bad = replace(result, paths=result.paths[::-1]).to_dict()

    def op(doc):
        return workloads.Op("query", lambda: doc, lambda out: index.check_result(query, out), json.dumps)

    record = workloads.Record()
    workloads.run_round(iter([op(good), op(bad)]), record)
    assert (record.attempted, record.failed) == (2, 1)
    assert "not sorted" in record.problems[0]


# layers each workload must exercise, so a traced run reports them nonzero
EXERCISED = {
    "extract-trained": [
        "encoder.calls", "model.span_pool_s", "model.pairs_scored", "model.save_s", "model.load_s",
        "training.steps", "training.loss_grad_s", "training.epoch_ms_p50", "graphs.assemble_s",
        "graphs.json_bytes", "schema.check_calls", "rectify.busy_s", "senses.link_s",
        "evaluation.score_s", "dot.bytes",
    ],
    "extract-dense": [
        "encoder.calls", "model.pairs_scored", "model.relations_emitted", "graphs.elements_assembled",
        "graphs.to_json_s", "schema.violations_scanned", "rectify.removals", "rectify.cascade_removals",
    ],
    "query-corpus": [
        "graphs.load_s", "graphs.merge_s", "graphs.lemma_links", "reasoning.find_paths_s",
        "reasoning.valence_s", "reasoning.assertions", "cli.self_s",
    ],
}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_traced_run_reports_every_layer(workload):
    _, result = run_bench(workload, 1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert all(metrics[name] > 0 for name in EXERCISED[workload]), {n: metrics[n] for n in EXERCISED[workload]}
    assert all(metrics[f"{layer}.errors"] == 0 for layer in ("encoder", "model", "graphs", "schema", "rectify"))
    assert metrics["trace.spans"] > 0
