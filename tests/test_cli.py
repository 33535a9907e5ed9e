import contextlib
import gc
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import causalkg
from causalkg import cli, model
from causalkg.cli import build_parser, main
from causalkg.dot import emit_dot
from causalkg.encoder import EncoderConfig, encode_tokens
from causalkg.errors import InputError
from causalkg.graphs import Span, assemble_graph, graph_from_dict, graph_to_dict, graph_to_json, merge_corpus
from causalkg.model import MAX_PARAMETERS, Model, save_model
from causalkg.reasoning import NodePattern, find_paths
from causalkg.readers import encode_text as readers_encode_text, write_bytes as readers_write_bytes
from causalkg.rectify import RemovalRecord, rectify
from causalkg.schema import check_constraints, load_schema, schema_to_dict
from causalkg.senses import link_senses, load_inventory
from causalkg.training import gold_graph

from synth import build_corpus, random_sciclaim_graph, separator_id_graphs, unknown_type_graphs


def example_to_dict(ex):
    return {
        "tokens": list(ex.tokens),
        "lemmas": list(ex.lemmas),
        "entities": [{"start": s.start, "end": s.end, "type": t} for s, t in ex.entities],
        "attributes": [{"entity": i, "type": t} for i, t in ex.attributes],
        "relations": [{"head": h, "tail": t, "type": r} for h, t, r in ex.relations],
        "provenance": ex.provenance,
    }


@pytest.fixture()
def workdir(tmp_path):
    examples = build_corpus()[:4]
    data = tmp_path / "data.json"
    data.write_text(json.dumps([example_to_dict(ex) for ex in examples]))
    sentences = tmp_path / "sentences.json"
    sentences.write_text(json.dumps(
        [{"tokens": list(ex.tokens), "provenance": ex.provenance} for ex in examples]
    ))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "train": {"epochs": 5, "learning_rate": 0.5, "max_span_len": 3,
                  "neg_entity_count": 10, "neg_relation_count": 5, "seed": 0},
        "encoder": {"dimension": 16, "seed": 0, "context_window": 1},
        "width_dim": 4,
    }))
    return tmp_path


def run_train(workdir, out="model.json"):
    return main([
        "train",
        "--data", str(workdir / "data.json"),
        "--schema", "sciclaim",
        "--config", str(workdir / "config.json"),
        "--out", str(workdir / out),
    ])


def test_train_extract_dot_smoke(workdir):
    assert run_train(workdir) == 0
    assert (workdir / "model.json").exists()

    out_dir = workdir / "graphs"
    assert main([
        "extract",
        "--model", str(workdir / "model.json"),
        "--input", str(workdir / "sentences.json"),
        "--out", str(out_dir),
    ]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["graphs"]) == 4
    for name in manifest["graphs"]:
        graph_from_dict(json.loads((out_dir / name).read_text()))  # revalidates

    dot_dir = workdir / "dot"
    assert main([
        "dot", "--input", str(out_dir), "--schema", "sciclaim", "--out", str(dot_dir),
    ]) == 0
    dots = sorted(os.listdir(dot_dir))
    assert dots == [f"graph_{i:04d}.dot" for i in range(4)] + ["manifest.json"]
    assert (dot_dir / dots[0]).read_text().startswith("digraph {")


def test_rectify_eval_smoke(workdir):
    run_train(workdir)
    out_dir = workdir / "graphs"
    main([
        "extract", "--model", str(workdir / "model.json"),
        "--input", str(workdir / "sentences.json"), "--out", str(out_dir),
    ])
    fixed_dir = workdir / "fixed"
    assert main([
        "rectify", "--schema", "sciclaim", "--input", str(out_dir),
        "--out", str(fixed_dir), "--out-dir",
    ]) == 0
    manifest = json.loads((fixed_dir / "manifest.json").read_text())
    doc = json.loads((fixed_dir / manifest["graphs"][0]).read_text())
    assert "rectification" in doc

    report_path = workdir / "report.json"
    assert main([
        "eval", "--pred", str(fixed_dir), "--gold", str(workdir / "data.json"),
        "--out", str(report_path),
    ]) == 0
    report = json.loads(report_path.read_text())
    assert set(report["sections"]) == {"entities", "attributes", "relations"}


@pytest.mark.parametrize("name", sorted(separator_id_graphs()))
def test_rectify_separator_ids_terminates(tmp_path, name):
    # a child process, so that a rectify that never returns fails the test
    # at the timeout instead of hanging the suite
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps(graph_to_dict(separator_id_graphs()[name])))
    out_path = tmp_path / "fixed.json"
    src_dir = os.path.dirname(os.path.dirname(causalkg.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src_dir, os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-m", "causalkg.cli", "rectify", "--schema", "sciclaim",
         "--input", str(graph_path), "--out", str(out_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out_path.read_text())
    assert doc["rectification"]
    assert check_constraints(graph_from_dict(doc), load_schema("sciclaim")) == []


@pytest.mark.parametrize("flag, value, code", [
    ("--threshold-relation", "0", 2),
    ("--threshold-relation", "1.5", 2),
    ("--threshold-attribute", "1", 2),
    ("--threshold-attribute", "nan", 2),
    ("--threshold-relation", "0.3", 0),
])
def test_extract_threshold_override_range(workdir, capsys, flag, value, code):
    run_train(workdir)
    assert main([
        "extract", "--model", str(workdir / "model.json"),
        "--input", str(workdir / "sentences.json"), "--out", str(workdir / "graphs"),
        flag, value,
    ]) == code
    if code:
        assert "thresholds must lie in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(theta_r=1.5), "thresholds must lie in (0, 1)"),
    (
        lambda doc: doc["parameters"].update(rel_w=[r[:-1] for r in doc["parameters"]["rel_w"]]),
        "model parameter 'rel_w' has shape",
    ),
])
def test_extract_rejects_invalid_model_file(workdir, capsys, edit, message):
    run_train(workdir)
    doc = json.loads((workdir / "model.json").read_text())
    edit(doc)
    (workdir / "model.json").write_text(json.dumps(doc))
    assert main([
        "extract", "--model", str(workdir / "model.json"),
        "--input", str(workdir / "sentences.json"), "--out", str(workdir / "graphs"),
    ]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(theta_r=[0.4]),
    lambda doc: doc.update(max_span_len={"value": 3}),
    lambda doc: doc["parameters"].update(ent_b={"0": 0.0}),
])
def test_extract_rejects_mistyped_model_file(workdir, capsys, edit):
    run_train(workdir)
    doc = json.loads((workdir / "model.json").read_text())
    edit(doc)
    (workdir / "model.json").write_text(json.dumps(doc))
    assert main([
        "extract", "--model", str(workdir / "model.json"),
        "--input", str(workdir / "sentences.json"), "--out", str(workdir / "graphs"),
    ]) == 2
    assert "malformed model file" in capsys.readouterr().err


def test_senses_file_encoder_over_a_graph_directory(tmp_path):
    vocab = ["rain", "causes", "floods", "heat", "dries", "soil"]
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal((len(vocab), 4))
    emb = tmp_path / "emb.txt"
    emb.write_text("".join(
        t + " " + " ".join(repr(float(x)) for x in v) + "\n" for t, v in zip(vocab, vectors)
    ))
    encoder = EncoderConfig(kind="file", dimension=4, embedding_path=str(emb))
    save_model(Model.initialize(load_schema("sciclaim"), encoder), str(tmp_path / "model.json"))

    inventory_text = "".join(
        f"{t}.n.01\t{t}\t-\t" + "\t".join(repr(float(x)) for x in v) + "\n"
        for t, v in zip(vocab, vectors + 0.3)
    )
    (tmp_path / "inventory.tsv").write_text(inventory_text)
    sentences = [["rain", "causes", "floods"], ["heat", "dries", "soil"], ["floods", "dries", "rain"]]
    graphs = [
        graph_from_dict({
            "tokens": tokens,
            "entities": [
                {"id": "a", "start": 0, "end": 1, "type": "factor", "confidence": 1.0},
                {"id": "b", "start": 1, "end": 3, "type": "factor", "confidence": 1.0},
            ],
            "relations": [],
            "provenance": f"s{i}",
        })
        for i, tokens in enumerate(sentences)
    ]
    in_dir = tmp_path / "graphs"
    in_dir.mkdir()
    names = []
    for i, g in enumerate(graphs):
        names.append(f"g{i}.json")
        (in_dir / names[-1]).write_text(json.dumps(graph_to_dict(g)))
    (in_dir / "manifest.json").write_text(json.dumps({"graphs": names}))

    out_dir = tmp_path / "linked"
    assert main([
        "senses", "--input", str(in_dir), "--inventory", str(tmp_path / "inventory.tsv"),
        "--model", str(tmp_path / "model.json"), "--threshold", "0.2", "--out", str(out_dir),
    ]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    got = [json.loads((out_dir / name).read_text()) for name in manifest["graphs"]]
    inventory = load_inventory(inventory_text)
    expected = [
        json.loads(json.dumps(graph_to_dict(
            link_senses(g, encode_tokens(g.tokens, encoder), inventory, threshold=0.2)
        )))
        for g in graphs
    ]
    assert got == expected
    assert any(e["senses"] for doc in got for e in doc["entities"])


def test_senses_over_graphs_that_repeat_a_mention_match_fresh_inventories(tmp_path):
    # one inventory links every graph of the command, and it remembers the
    # senses of node vectors it has ranked; a file encoder gives a recurring
    # mention the same vector in every graph, so later graphs are linked
    # from that memory and must read byte for byte as if linked afresh
    vocab = ["rain", "causes", "floods", "heat", "dries", "soil"]
    vectors = np.random.default_rng(5).standard_normal((len(vocab), 4))
    emb = tmp_path / "emb.txt"
    emb.write_text("".join(t + " " + " ".join(map(repr, v.tolist())) + "\n" for t, v in zip(vocab, vectors)))
    encoder = EncoderConfig(kind="file", dimension=4, embedding_path=str(emb))
    save_model(Model.initialize(load_schema("sciclaim"), encoder), str(tmp_path / "model.json"))
    inventory_text = "".join(
        f"{t}.n.0{k}\t{t}\t-\t" + "\t".join(map(repr, (v + shift).tolist())) + "\n"
        for t, v in zip(vocab, vectors) for k, shift in enumerate((0.2, -0.4))
    )
    (tmp_path / "inventory.tsv").write_text(inventory_text)
    sentences = [["rain", "causes", "floods"], ["heat", "causes", "floods"], ["rain", "causes", "floods"],
                 ["soil", "dries", "floods"]]
    graphs = [
        graph_from_dict({
            "tokens": tokens,
            "entities": [
                {"id": "a", "start": 0, "end": 1, "type": "factor", "confidence": 1.0},
                {"id": "b", "start": 1, "end": 3, "type": "factor", "confidence": 1.0},
                {"id": "c", "start": 2, "end": 3, "type": "factor", "confidence": 1.0},
            ],
            "relations": [],
            "provenance": f"s{i}",
        })
        for i, tokens in enumerate(sentences)
    ]
    in_dir = tmp_path / "graphs"
    in_dir.mkdir()
    names = [f"g{i}.json" for i in range(len(graphs))]
    for name, g in zip(names, graphs):
        (in_dir / name).write_text(graph_to_json(g))
    (in_dir / "manifest.json").write_text(json.dumps({"graphs": names}))

    assert main([
        "senses", "--input", str(in_dir), "--inventory", str(tmp_path / "inventory.tsv"),
        "--model", str(tmp_path / "model.json"), "--threshold", "0.1", "--out", str(tmp_path / "linked"),
    ]) == 0
    manifest = json.loads((tmp_path / "linked" / "manifest.json").read_text())
    got = [(tmp_path / "linked" / name).read_bytes() for name in manifest["graphs"]]
    linked = [link_senses(g, encode_tokens(g.tokens, encoder), load_inventory(inventory_text), threshold=0.1)
              for g in graphs]
    assert got == [graph_to_json(g).encode("utf-8") for g in linked]
    # "floods" and "causes floods" recur, and they are linked to senses
    floods = [g.entities[2].senses for g in linked]
    assert floods[0] and floods.count(floods[0]) == len(floods)
    assert linked[0].entities[1].senses and linked[0].entities[1].senses == linked[2].entities[1].senses


def test_valence_query_senses_smoke(tmp_path, capsys):
    graph = {
        "tokens": ["woman", "pray", "safety"],
        "entities": [
            {"id": "pray", "start": 1, "end": 2, "type": "element", "confidence": 1.0},
            {"id": "woman", "start": 0, "end": 1, "type": "element", "confidence": 1.0},
            {"id": "safety", "start": 2, "end": 3, "type": "element", "confidence": 1.0},
        ],
        "relations": [
            {"head": "pray", "tail": "woman", "type": "agent", "confidence": 1.0},
            {"head": "pray", "tail": "safety", "type": "intent+", "confidence": 1.0},
        ],
        "provenance": "s0",
    }
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps(graph))

    assert main(["valence", "--input", str(graph_path), "--schema", "ethno"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert {"holder": "woman", "target": "safety", "sign": "+"} in out["s0"]

    query_path = tmp_path / "query.json"
    query_path.write_text(json.dumps({
        "start": {"lemma_any_of": ["pray"]},
        "end": {"lemma_any_of": ["safety"]},
        "max_len": 2,
    }))
    assert main(["query", "--input", str(graph_path), "--query", str(query_path)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["paths"] == [
        ["s0/pray", "s0/pray->safety:intent+", "s0/safety"]
    ]

    inv_path = tmp_path / "inventory.tsv"
    enc_dim = 16
    # a sense vector aligned with nothing in particular; just a smoke run
    inv_path.write_text("pray.v.01\tpray\t-\t" + "\t".join(["0.25"] * enc_dim) + "\n")
    out_path = tmp_path / "linked.json"
    assert main([
        "senses", "--input", str(graph_path), "--inventory", str(inv_path),
        "--threshold", "-1.0", "--out", str(out_path),
        "--config", str(make_encoder_config(tmp_path, enc_dim)),
    ]) == 0
    linked = json.loads(out_path.read_text())
    assert all("senses" in e for e in linked["entities"])


def write_query_corpus(tmp_path, provenances_and_ids):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    names = []
    for i, (prov, ent_id) in enumerate(provenances_and_ids):
        names.append(f"g{i}.json")
        (corpus / names[-1]).write_text(json.dumps({
            "tokens": ["rain"],
            "entities": [{"id": ent_id, "start": 0, "end": 1, "type": "element", "confidence": 1.0}],
            "provenance": prov,
        }))
    (corpus / "manifest.json").write_text(json.dumps({"graphs": names}))
    return corpus


def test_query_keeps_slashed_global_ids_apart(tmp_path, capsys):
    # unescaped, provenance "a/b" with entity "c" and "a" with "b/c" would both be "a/b/c"
    corpus = write_query_corpus(tmp_path, [("a/b", "c"), ("a", "b/c")])
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"start": {"lemma_any_of": ["rain"]}, "end": {"lemma_any_of": ["rain"]}}))
    assert main(["query", "--input", str(corpus), "--query", str(query)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["subgraph"]["nodes"] == ["a/b\\/c", "a\\/b/c"]
    assert result["subgraph"]["edges"] == ["lemma:a/b\\/c~a\\/b/c"]


def test_rectify_logs_arrow_ids_apart(tmp_path):
    # unescaped, a -> "b->c" and "a->b" -> c would both be logged as "a->b->c:q+"
    graph = assemble_graph(
        ["a", "b", "c", "d"], None,
        [("a", Span(0, 1), "factor", 0.9), ("b->c", Span(1, 2), "association", 0.9),
         ("a->b", Span(2, 3), "factor", 0.9), ("c", Span(3, 4), "association", 0.9)],
        relations=[("a", "b->c", "q+", 0.3), ("a->b", "c", "q+", 0.4)],  # q+ tails must be factors
    )
    graph_path, out_path = tmp_path / "graph.json", tmp_path / "fixed.json"
    graph_path.write_text(graph_to_json(graph))
    assert main(["rectify", "--schema", "sciclaim", "--input", str(graph_path), "--out", str(out_path)]) == 0
    assert [rec["element"] for rec in json.loads(out_path.read_text())["rectification"]] == [
        "a->b-\\>c:q+", "a-\\>b->c:q+",
    ]


@pytest.mark.parametrize("kind", sorted(unknown_type_graphs()))
def test_rectify_unknown_type_exits_2(tmp_path, capsys, kind):
    graph_path, out_path = tmp_path / "graph.json", tmp_path / "fixed.json"
    graph_path.write_text(graph_to_json(unknown_type_graphs()[kind]))
    assert main(["rectify", "--schema", "sciclaim", "--input", str(graph_path), "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"causalkg: error: {kind} type 'martian' not in schema 'sciclaim'\n"
    assert not out_path.exists()


def test_rectify_logs_each_graph_that_shares_a_provenance(tmp_path):
    rng = np.random.default_rng(7)
    graphs = [random_sciclaim_graph(rng, provenance="same") for _ in range(2)]
    fixed = [rectify(g, load_schema("sciclaim")) for g in graphs]
    assert fixed[0][1] != fixed[1][1]
    corpus, out = tmp_path / "corpus", tmp_path / "fixed"
    corpus.mkdir()
    for i, g in enumerate(graphs):
        (corpus / f"g{i}.json").write_text(graph_to_json(g))
    (corpus / "manifest.json").write_text(json.dumps({"graphs": ["g0.json", "g1.json"]}))
    assert main(["rectify", "--schema", "sciclaim", "--input", str(corpus), "--out", str(out), "--out-dir"]) == 0
    for i, (graph, log) in enumerate(fixed):
        doc = json.loads((out / f"graph_{i:04d}.json").read_text())
        assert doc["rectification"] == [rec.to_dict() for rec in log]
        assert graph_from_dict(doc) == graph


@pytest.mark.parametrize("n, source", [(1, "g0.json"), (1, ""), (2, "")])
@pytest.mark.parametrize("flags", [["--out-dir"], []])
def test_rectify_writes_each_graph_with_its_own_log(tmp_path, n, source, flags):
    # every layout rectify writes: one file for a lone graph file without
    # --out-dir, else a manifest, for one graph too
    rng = np.random.default_rng(11)
    graphs = [random_sciclaim_graph(rng, provenance=f"p{i}") for i in range(n)]
    fixed = [rectify(g, load_schema("sciclaim")) for g in graphs]
    assert all(log for _, log in fixed) and len({tuple(log) for _, log in fixed}) == n
    corpus, out = tmp_path / "corpus", tmp_path / "fixed"
    corpus.mkdir()
    for i, g in enumerate(graphs):
        (corpus / f"g{i}.json").write_text(graph_to_json(g))
    (corpus / "manifest.json").write_text(json.dumps({"graphs": [f"g{i}.json" for i in range(n)]}))
    assert main(["rectify", "--schema", "sciclaim", "--input", str(corpus / source), "--out", str(out), *flags]) == 0
    paths = graph_files(out)
    assert out.is_file() == (source != "" and not flags)
    assert [p.read_text(encoding="utf-8") for p in paths] == [graph_to_json(g, log) for g, log in fixed]


def write_graph_corpus(corpus, graphs, provenance=None):
    """The graphs as g0.json... with a manifest, which lists `provenance` if given."""
    corpus.mkdir()
    names = [f"g{i}.json" for i in range(len(graphs))]
    for name, graph in zip(names, graphs):
        (corpus / name).write_text(json.dumps(graph_to_dict(graph)))
    manifest = {"graphs": names} if provenance is None else {"graphs": names, "provenance": provenance}
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    return corpus


def directory_files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def assert_first_output_or_no_manifest(out, first, capsys):
    """`out` holds the first run's files unchanged, or no manifest, and then no command loads it."""
    files = directory_files(out)
    assert not any(name.endswith(".tmp") for name in files)
    if files == first:
        return
    assert "manifest.json" not in files
    capsys.readouterr()
    assert main(["valence", "--schema", "sciclaim", "--input", str(out)]) == 2
    assert f"cannot read {out / 'manifest.json'}: No such file or directory" in capsys.readouterr().err


def rectify_twice_failing_midway(tmp_path, capsys, old_name, new_name):
    """A rectify run into `out`, then one that cannot write graph 1, whose
    token UTF-8 cannot encode, and so leaves the first run's files as they were."""
    rng = np.random.default_rng(5)
    old = [random_sciclaim_graph(rng, provenance=f"{old_name}{i}") for i in range(3)]
    new = [random_sciclaim_graph(rng, provenance=f"{new_name}{i}") for i in range(3)]
    in_old = write_graph_corpus(tmp_path / "in_old", old)
    in_bad = write_graph_corpus(tmp_path / "in_bad", new)
    bad = graph_to_dict(new[1])
    bad["tokens"][0] = "\ud800"
    (in_bad / "g1.json").write_text(json.dumps(bad))  # the token JSON-escaped, as "\\ud800"
    out = tmp_path / "out"
    assert main(["rectify", "--schema", "sciclaim", "--input", str(in_old), "--out", str(out)]) == 0
    first = directory_files(out)
    assert main(["rectify", "--schema", "sciclaim", "--input", str(in_bad), "--out", str(out)]) == 2
    assert "surrogates not allowed" in capsys.readouterr().err
    assert directory_files(out) == first
    return out, first


def test_a_rectify_that_fails_midway_leaves_no_mixture_that_loads(tmp_path, capsys):
    out, first = rectify_twice_failing_midway(tmp_path, capsys, "old", "new")
    assert_first_output_or_no_manifest(out, first, capsys)


def test_a_failed_rectify_over_the_same_provenances_leaves_no_mixture_that_loads(tmp_path, capsys):
    # new p0 with old p1 and p2 would pass the manifest's provenance check
    out, first = rectify_twice_failing_midway(tmp_path, capsys, "p", "p")
    assert_first_output_or_no_manifest(out, first, capsys)


@pytest.mark.parametrize("fail_at", [0, 2, 3])
def test_a_write_that_fails_after_some_files_leaves_no_mixture_that_loads(tmp_path, capsys, monkeypatch, fail_at):
    # both runs name their graphs p0-p2, so only the manifest can tell them
    # apart; write number fail_at fails (3 is the manifest)
    rng = np.random.default_rng(6)
    runs = [[random_sciclaim_graph(rng, provenance=f"p{i}") for i in range(3)] for _ in range(2)]
    inputs = [write_graph_corpus(tmp_path / f"in{k}", graphs) for k, graphs in enumerate(runs)]
    out = tmp_path / "out"
    assert main(["rectify", "--schema", "sciclaim", "--input", str(inputs[0]), "--out", str(out)]) == 0
    first = directory_files(out)
    written = []

    def write_bytes(path, data):
        if len(written) == fail_at:
            raise InputError(f"cannot write {path}: No space left on device")
        written.append(path)
        readers_write_bytes(path, data)

    monkeypatch.setattr(cli, "write_bytes", write_bytes)
    assert main(["rectify", "--schema", "sciclaim", "--input", str(inputs[1]), "--out", str(out)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert len(written) == fail_at
    monkeypatch.undo()
    assert_first_output_or_no_manifest(out, first, capsys)


@pytest.mark.parametrize("earlier", [False, True])
def test_dot_refused_at_its_third_graph_writes_no_file(tmp_path, capsys, earlier):
    # dot wrote graph_0000.dot and graph_0001.dot before it rendered graph 2
    rng = np.random.default_rng(8)
    graphs = [random_sciclaim_graph(rng, provenance=f"p{i}") for i in range(2)] + [unknown_type_graphs()["relation"]]
    out = tmp_path / "out"
    if earlier:
        earlier_graphs = [random_sciclaim_graph(rng, provenance=f"q{i}") for i in range(3)]
        earlier_args = ["--input", str(write_graph_corpus(tmp_path / "in0", earlier_graphs)), "--out", str(out)]
        assert main(["dot", "--schema", "sciclaim", *earlier_args]) == 0
    before = directory_files(out) if earlier else None
    args = ["--input", str(write_graph_corpus(tmp_path / "in1", graphs)), "--out", str(out)]
    assert main(["dot", "--schema", "sciclaim", *args]) == 2
    assert capsys.readouterr().err == "causalkg: error: relation type 'martian' not in schema 'sciclaim'\n"
    assert (directory_files(out) == before) if earlier else not out.exists()


def test_each_output_text_is_encoded_once(tmp_path, monkeypatch):
    # a three-graph directory run encodes its three graphs and then its
    # manifest, and query --out its one document, each once
    encoded = []

    def encode_text(path, text):
        encoded.append(os.path.basename(path))
        return readers_encode_text(path, text)

    monkeypatch.setattr(cli, "encode_text", encode_text)
    monkeypatch.setattr(model, "encode_text", encode_text)
    rng = np.random.default_rng(10)
    corpus = write_graph_corpus(tmp_path / "in", [random_sciclaim_graph(rng, provenance=f"p{i}") for i in range(3)])
    assert main(["rectify", "--schema", "sciclaim", "--input", str(corpus), "--out", str(tmp_path / "fixed")]) == 0
    assert encoded == ["graph_0000.json", "graph_0001.json", "graph_0002.json", "manifest.json"]
    encoded.clear()
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"start": {"lemma_any_of": ["rain"]}, "end": {"lemma_any_of": ["rain"]}}))
    corpus = write_query_corpus(tmp_path, [("s0", "e0"), ("s1", "e0")])
    assert main(["query", "--input", str(corpus), "--query", str(query), "--out", str(tmp_path / "paths.json")]) == 0
    assert encoded == ["paths.json"]


def test_a_dot_directory_lists_its_files_in_a_manifest_that_rectify_refuses(tmp_path, capsys):
    rng = np.random.default_rng(11)
    graphs = [random_sciclaim_graph(rng, provenance=f"p{i}") for i in range(2)]
    out, fixed = tmp_path / "dot", tmp_path / "fixed"
    args = ["--input", str(write_graph_corpus(tmp_path / "in", graphs)), "--out", str(out)]
    assert main(["dot", "--schema", "sciclaim", *args]) == 0
    names = ["graph_0000.dot", "graph_0001.dot"]
    assert sorted(os.listdir(out)) == [*names, "manifest.json"]
    assert json.loads((out / "manifest.json").read_text()) == {"graphs": names, "provenance": ["p0", "p1"]}
    # the manifest names DOT files, which no graph command reads as graphs
    assert main(["rectify", "--schema", "sciclaim", "--input", str(out), "--out", str(fixed)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"causalkg: error: {out / 'graph_0000.dot'} is not valid JSON: "), err
    assert not fixed.exists()


def test_a_directory_output_refuses_a_manifest_of_another_kind_of_file(tmp_path, capsys):
    # replacing it would leave the files it lists under no manifest: dot
    # over the graph directory it reads, or rectify over a dot directory
    rng = np.random.default_rng(12)
    corpus = write_graph_corpus(tmp_path / "in", [random_sciclaim_graph(rng, provenance=f"p{i}") for i in range(2)])
    dots = tmp_path / "dot"
    assert main(["dot", "--schema", "sciclaim", "--input", str(corpus), "--out", str(dots)]) == 0
    for command, out, listed, suffix in (("dot", corpus, "g0.json", "dot"), ("rectify", dots, "graph_0000.dot", "json")):
        before = directory_files(out)
        assert main([command, "--schema", "sciclaim", "--input", str(corpus), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"causalkg: error: cannot write {out}: its manifest.json lists {listed}, not a .{suffix} file\n"
        assert directory_files(out) == before
    assert main(["valence", "--input", str(corpus)]) == 0


def failing_at_the_third_graph(tmp_path, command, out):
    """The arguments of `command` over three sentences or graphs, of which
    only the third gives an output that UTF-8 cannot encode."""
    rng = np.random.default_rng(9)
    if command == "extract":
        sentences = [{"tokens": ["a", "b"], "provenance": p} for p in ("s0", "s1", "s\ud800")]
        return [*extract_args(tmp_path, sentences)[:-1], str(out)]
    bad = assemble_graph(["a", "b"], None, [("e\ud800", Span(0, 1), "factor", 0.9)], provenance="p\ud800")
    graphs = [random_sciclaim_graph(rng, provenance=f"p{i}") for i in range(2)] + [bad]
    args = ["--input", str(write_graph_corpus(tmp_path / "corpus", graphs)), "--out", str(out)]
    if command != "senses":
        return [command, "--schema", "sciclaim", *args]
    inventory = tmp_path / "inventory.tsv"
    inventory.write_text("a.n.01\ta\t-\t" + "\t".join(["0.25"] * 8) + "\n")
    return ["senses", "--inventory", str(inventory), "--config", str(make_encoder_config(tmp_path, 8)), *args]


@pytest.mark.parametrize("kind", ["file", "directory"])
@pytest.mark.parametrize("command", ["extract", "rectify", "senses", "dot"])
def test_a_run_refused_before_its_first_write_leaves_the_output_as_it_was(tmp_path, capsys, command, kind):
    # the third output is refused before the first file is written, and
    # before a file --out is found to be no directory
    out = tmp_path / "out"
    if kind == "file":
        out.write_bytes(b"an earlier output\n")
    else:
        out.mkdir()
        for name in ("graph_0000.json", "graph_0000.dot", "manifest.json"):
            (out / name).write_bytes(b"an earlier " + name.encode() + b"\n")
    before = out.read_bytes() if kind == "file" else directory_files(out)
    assert main(failing_at_the_third_graph(tmp_path, command, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"causalkg: error: cannot write {out / 'graph_0002'}."), err
    assert "surrogates not allowed" in err
    assert (out.read_bytes() if kind == "file" else directory_files(out)) == before
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("provenance, message", [
    (["p0", "p1", "p2"], "graph 1 (g1.json) has provenance 'p2', not 'p1'"),
    (["p0"], "lists 3 graph files and 1 provenances"),
    (["p0", "p1", "p2", "p3"], "lists 3 graph files and 4 provenances"),
    ("p0", '"provenance" must be a list of strings'),
    (["p0", 1, "p2"], '"provenance"[1] must be a string, got 1'),
])
def test_a_manifest_provenance_list_must_name_each_graphs_own(tmp_path, capsys, provenance, message):
    rng = np.random.default_rng(3)
    graphs = [random_sciclaim_graph(rng, provenance=p) for p in ("p0", "p2", "p2")]
    corpus = write_graph_corpus(tmp_path / "corpus", graphs, provenance)
    assert main(["valence", "--schema", "sciclaim", "--input", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"causalkg: error: {corpus / 'manifest.json'}: ") and message in err


def test_a_manifest_with_or_without_its_provenance_list_loads_the_same(tmp_path, capsys):
    rng = np.random.default_rng(3)
    graphs = [random_sciclaim_graph(rng, provenance=f"p{i}") for i in range(3)]
    outputs = []
    for name, provenance in (("bare", None), ("listed", ["p0", "p1", "p2"])):
        corpus = write_graph_corpus(tmp_path / name, graphs, provenance)
        assert main(["valence", "--schema", "sciclaim", "--input", str(corpus)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and "p2" in outputs[0]


@pytest.mark.parametrize("flags", [["--out-dir"], []])
def test_rectify_of_an_empty_manifest_writes_an_empty_manifest(tmp_path, flags):
    corpus, out = tmp_path / "corpus", tmp_path / "fixed"
    corpus.mkdir()
    (corpus / "manifest.json").write_text(json.dumps({"graphs": []}))
    assert main(["rectify", "--schema", "sciclaim", "--input", str(corpus), "--out", str(out), *flags]) == 0
    assert os.listdir(out) == ["manifest.json"]
    assert json.loads((out / "manifest.json").read_text()) == {"graphs": [], "provenance": []}


# Each input shape: the graphs it holds, the path under the corpus directory
# that names it, and whether a graph-writing command writes --out as one file
INPUT_SHAPES = {
    "lone graph file": (1, "g0.json", True),
    "one-graph manifest directory": (1, "", False),
    "two-graph manifest file": (2, "manifest.json", False),
}


def layout_case(tmp_path, command, shape):
    """The arguments of `command` over an input of `shape`, the output path,
    and each of its graphs' text as the library writes it."""
    n, source, _ = INPUT_SHAPES[shape]
    rng = np.random.default_rng(13)
    graphs = [random_sciclaim_graph(rng, provenance=f"p{i}") for i in range(n)]
    corpus, out, schema = write_graph_dir(tmp_path / "corpus", graphs), tmp_path / "out", load_schema("sciclaim")
    args = ["--input", str(corpus / source), "--out", str(out)]
    if command == "rectify":
        return ["rectify", "--schema", "sciclaim", *args], out, [graph_to_json(*rectify(g, schema)) for g in graphs]
    if command == "dot":
        return ["dot", "--schema", "sciclaim", *args], out, [emit_dot(g, schema) for g in graphs]
    inventory = "".join(f"t{i}.n.01\tt{i}\t-\t" + "\t".join([str(0.1 * (i + 1))] * 8) + "\n" for i in range(8))
    (tmp_path / "inventory.tsv").write_text(inventory)
    encoder, senses = EncoderConfig(dimension=8), load_inventory(inventory)
    linked = [link_senses(g, encode_tokens(g.tokens, encoder), senses, threshold=-1.0) for g in graphs]
    return (["senses", "--inventory", str(tmp_path / "inventory.tsv"), "--threshold", "-1.0",
             "--config", str(make_encoder_config(tmp_path, 8)), *args], out, [graph_to_json(g) for g in linked])


@pytest.mark.parametrize("shape", sorted(INPUT_SHAPES))
@pytest.mark.parametrize("command", ["rectify", "senses", "dot"])
def test_the_input_shape_not_the_graph_count_picks_file_or_directory(tmp_path, command, shape):
    # a lone graph file gives the file --out, and a manifest, by its file or
    # its directory, gives the directory --out, whatever its graph count
    args, out, texts = layout_case(tmp_path, command, shape)
    assert main(args) == 0
    if INPUT_SHAPES[shape][2]:
        assert out.is_file() and [out.read_text(encoding="utf-8")] == texts
    elif command == "dot":  # one graph_NNNN.dot per graph, and a manifest
        assert sorted(os.listdir(out)) == [f"graph_{i:04d}.dot" for i in range(len(texts))] + ["manifest.json"]
        assert [(out / f"graph_{i:04d}.dot").read_text(encoding="utf-8") for i in range(len(texts))] == texts
    else:
        assert [p.read_text(encoding="utf-8") for p in graph_files(out)] == texts
        assert len(os.listdir(out)) == len(texts) + 1


def test_the_readme_quick_start_runs_over_a_one_graph_directory(workdir, monkeypatch):
    # README's extract, rectify and senses lines, as written there, over one sentence
    assert run_train(workdir) == 0
    sentences = json.loads((workdir / "sentences.json").read_text())[:1]
    (workdir / "sentences.json").write_text(json.dumps(sentences))
    (workdir / "senses.tsv").write_text("t0.n.01\tt0\t-\t" + "\t".join(["0.25"] * 64) + "\n")
    monkeypatch.chdir(workdir)
    assert main("extract --model model.json --input sentences.json --out graphs/".split()) == 0
    assert main("rectify --schema sciclaim --input graphs/ --out fixed/ --out-dir".split()) == 0
    assert main("senses  --input graphs/ --inventory senses.tsv --out linked/".split()) == 0
    for out in ("graphs", "fixed", "linked"):
        assert json.loads((workdir / out / "manifest.json").read_text())["graphs"] == ["graph_0000.json"]


@pytest.mark.parametrize("command", ["query", "valence"])
def test_a_repeated_provenance_exits_2_naming_it(tmp_path, capsys, command):
    corpus = write_query_corpus(tmp_path, [("s0", "e0"), ("s1", "e0"), ("s0", "e1")])
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"start": {"lemma_any_of": ["rain"]}, "end": {"lemma_any_of": ["rain"]}}))
    args = ["--query", str(query)] if command == "query" else []
    out = tmp_path / "out.json"
    assert main([command, "--input", str(corpus), "--out", str(out), *args]) == 2
    assert capsys.readouterr().err == "causalkg: error: duplicate provenance 's0'\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["valence", "dot"])
def test_a_relation_type_outside_the_schema_exits_2(tmp_path, capsys, command):
    graph = assemble_graph(
        ["a", "b"], None,
        [("a", Span(0, 1), "element", 1.0), ("b", Span(1, 2), "element", 1.0)],
        relations=[("a", "b", "arg0", 1.0)],
    )
    graph_path, out = tmp_path / "graph.json", tmp_path / "out"
    graph_path.write_text(graph_to_json(graph))
    assert main([command, "--input", str(graph_path), "--schema", "ethno", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "causalkg: error: relation type 'arg0' not in schema 'ethno'\n"
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    {"start": {"lemma_any_of": 5}, "end": {"lemma_any_of": ["rain"]}},
    [{"lemma_any_of": ["rain"]}],
    {"start": {"lemma_any_of": ["rain"]}},
    {"start": {"lemma_any_of": ["rain"]}, "end": "rain"},
    {"start": {"lemma_any_of": ["rain"]}, "end": {"entity_type": 7}},
    {"start": {"lemma_any_of": ["rain"]}, "end": {"lemma_any_of": ["rain"]}, "max_len": "2"},
    {"start": {"lemma_any_of": ["rain"]}, "end": {"lemma_any_of": ["rain"]}, "max_len": 2.5},
    {"start": {"lemma_any_of": ["rain"]}, "end": {"lemma_any_of": ["rain"]}, "max_len": True},
])
def test_query_rejects_malformed_query_documents(tmp_path, capsys, doc):
    corpus = write_query_corpus(tmp_path, [("s0", "e0"), ("s1", "e0")])
    query = tmp_path / "query.json"
    query.write_text(json.dumps(doc))
    assert main(["query", "--input", str(corpus), "--query", str(query)]) == 2
    assert "causalkg: error:" in capsys.readouterr().err


def test_query_follows_lemma_links_across_graphs(tmp_path, capsys):
    corpus = write_query_corpus(tmp_path, [("s0", "e0"), ("s1", "e0")])
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"start": {"lemma_any_of": ["rain"]}, "end": {"lemma_any_of": ["rain"]}, "max_len": 1}))
    assert main(["query", "--input", str(corpus), "--query", str(query)]) == 0
    assert json.loads(capsys.readouterr().out)["paths"] == [
        ["s0/e0"], ["s0/e0", "lemma:s0/e0~s1/e0", "s1/e0"],
        ["s1/e0"], ["s1/e0", "lemma:s0/e0~s1/e0", "s0/e0"],
    ]
    assert main(["query", "--input", str(corpus), "--query", str(query), "--no-lemma-link"]) == 0
    assert json.loads(capsys.readouterr().out)["paths"] == [["s0/e0"], ["s1/e0"]]


def test_query_returns_a_path_longer_than_the_recursion_limit(tmp_path, capsys):
    # graph g<i> holds "w<i> w<i+1>" and a -q+-> b, so lemma links chain the
    # 700 graphs into one path of 1,399 edges; a walk that recursed once per
    # edge overflowed the stack
    n = 700
    graphs = [
        assemble_graph([f"w{i}", f"w{i + 1}"], None,
                       [("a", Span(0, 1), "element", 1.0), ("b", Span(1, 2), "element", 1.0)],
                       relations=[("a", "b", "q+", 1.0)], provenance=f"g{i}")
        for i in range(n)
    ]
    assert 2 * n > sys.getrecursionlimit()
    expected = ["g0/a"]
    for i in range(n):
        expected += [f"g{i}/a->b:q+", f"g{i}/b"]
        if i + 1 < n:
            link = sorted([f"g{i}/b", f"g{i + 1}/a"])
            expected += [f"lemma:{link[0]}~{link[1]}", f"g{i + 1}/a"]
    start, end = NodePattern(lemma_any_of=frozenset({"w0"})), NodePattern(lemma_any_of=frozenset({f"w{n}"}))
    result = find_paths(merge_corpus(graphs, lemma_link=True), start, end, max_len=5000)
    assert result.paths == (tuple(expected),)
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"start": {"lemma_any_of": ["w0"]}, "end": {"lemma_any_of": [f"w{n}"]}, "max_len": 5000}))
    corpus = write_graph_dir(tmp_path / "corpus", graphs)
    assert main(["query", "--input", str(corpus), "--query", str(query)]) == 0
    assert json.loads(capsys.readouterr().out) == result.to_dict()


@pytest.mark.parametrize("command", ["query", "valence"])
@pytest.mark.parametrize("graphs", [5, [3], "ab"])
def test_manifest_graphs_must_be_a_list_of_file_names(tmp_path, capsys, command, graphs):
    corpus = write_query_corpus(tmp_path, [("s0", "e0"), ("s1", "e0")])
    for name in ("a", "b"):  # a string manifest used to open these one letter at a time
        (corpus / name).write_text((corpus / "g0.json").read_text())
    manifest = corpus / "manifest.json"
    manifest.write_text(json.dumps({"graphs": graphs}))
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"start": {"lemma_any_of": ["rain"]}, "end": {"lemma_any_of": ["rain"]}}))
    args = ["--query", str(query)] if command == "query" else []
    assert main([command, "--input", str(corpus), *args]) == 2
    err = capsys.readouterr().err
    assert "causalkg: error:" in err and str(manifest) in err and "list of file names" in err


def make_encoder_config(tmp_path, dim):
    path = tmp_path / "enc.json"
    path.write_text(json.dumps({"encoder": {"dimension": dim, "seed": 0}}))
    return path


def test_successive_calls_in_one_process_share_one_parser(workdir, capsys):
    # the parser is built once; each call parses only its own arguments, so
    # an option given to one call does not reach the next
    assert build_parser() is build_parser()
    assert run_train(workdir) == 0

    def extract(out, *options):
        args = ["extract", "--model", str(workdir / "model.json"), "--input", str(workdir / "sentences.json")]
        assert main(args + ["--out", str(workdir / out), *options]) == 0
        manifest = json.loads((workdir / out / "manifest.json").read_text())
        return [(workdir / out / name).read_text() for name in manifest["graphs"]]

    plain = extract("plain")
    loose = extract("loose", "--threshold-relation", "0.01")
    assert loose != plain
    assert main(["rectify", "--schema", "sciclaim", "--input", str(workdir / "nope"), "--out", "x.json"]) == 2
    assert "nope" in capsys.readouterr().err
    assert extract("again") == plain
    assert main(["dot", "--input", str(workdir / "plain"), "--schema", "sciclaim", "--out", str(workdir / "dot")]) == 0
    assert len(os.listdir(workdir / "dot")) == len(plain) + 1  # and the manifest


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


def test_missing_required_flag_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", "x.json"])
    assert exc.value.code == 1


def test_bad_dataset_type_exits_2(workdir, capsys):
    bad = json.loads((workdir / "data.json").read_text())
    bad[0]["entities"][0]["type"] = "martian"
    (workdir / "data.json").write_text(json.dumps(bad))
    assert run_train(workdir) == 2
    assert "martian" in capsys.readouterr().err


def rewrite(path, *changes):
    """Apply (key path, value) changes to a JSON file."""
    doc = json.loads(path.read_text())
    for keys, value in changes:
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("change, message", [
    (((0, "entities", 2, "end"), 4), "beyond 3 tokens"),
    (((0, "attributes", 0, "entity"), -1), "'e-1'"),
    (((0, "relations", 0, "tail"), -1), "'e-1'"),
    (((0, "relations", 0, "tail"), 5), "'e5'"),
    (((0, "relations", 0, "tail"), 1), "self-loop"),
])
def test_train_invalid_gold_data_exits_2(workdir, capsys, change, message):
    rewrite(workdir / "data.json", change)
    assert run_train(workdir) == 2
    assert message in capsys.readouterr().err


def test_train_span_longer_than_max_span_len_exits_2(workdir, capsys):
    rewrite(workdir / "data.json", ((0, "entities", 0, "end"), 2))
    rewrite(workdir / "config.json", (("train", "max_span_len"), 1))
    assert run_train(workdir) == 2
    assert "longer than max_span_len 1" in capsys.readouterr().err


@pytest.mark.parametrize("change, message", [
    ((("train", "epochs"), "2"), "'epochs' must be an integer"),
    ((("train", "batch_size"), 1.5), "'batch_size' must be an integer"),
    ((("train", "learning_rat"), 5), "unknown train config field(s): learning_rat"),
    # the model settings are checked as the config is read, before the dataset
    ((("train", "theta_r"), 2.0), "config.json: thresholds must lie in (0, 1), got relation 2.0"),
    ((("train", "max_span_len"), 0), "config.json: train config 'max_span_len' must be >= 1, got 0"),
    ((("width_dim",), 0), "config.json: config 'width_dim' must be >= 1, got 0"),
])
def test_train_invalid_config_exits_2(workdir, capsys, change, message):
    rewrite(workdir / "config.json", change)
    assert run_train(workdir) == 2
    assert message in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main([
        "train", "--data", str(tmp_path / "nope.json"),
        "--schema", "sciclaim", "--out", str(tmp_path / "m.json"),
    ]) == 2
    assert capsys.readouterr().err


def test_train_is_deterministic(workdir):
    run_train(workdir, out="m1.json")
    run_train(workdir, out="m2.json")
    assert (workdir / "m1.json").read_bytes() == (workdir / "m2.json").read_bytes()


@pytest.mark.parametrize("change, message", [
    ((("encoder", "dimensoin"), 16), "unknown encoder config field(s): dimensoin"),
    ((("encoder", "dimension"), 16.9), "'dimension' must be an integer, got 16.9"),
    ((("encoder", "context_window"), True), "'context_window' must be an integer, got True"),
    ((("encoder", "seed"), "0"), "'seed' must be an integer"),
    ((("width_dim",), 4.0), "'width_dim' must be an integer, got 4.0"),
    ((("width_dim",), True), "'width_dim' must be an integer, got True"),
])
def test_train_mistyped_encoder_config_exits_2(workdir, capsys, change, message):
    rewrite(workdir / "config.json", change)
    assert run_train(workdir) == 2
    assert message in capsys.readouterr().err
    assert not (workdir / "model.json").exists()


def run_senses(workdir, config, threshold="-1.0"):
    """senses over one extracted-style graph with a one-line inventory."""
    (workdir / "graph.json").write_text(json.dumps({
        "tokens": ["rain", "falls"],
        "entities": [{"id": "a", "start": 0, "end": 1, "type": "factor", "confidence": 1.0}],
        "relations": [],
    }))
    (workdir / "inventory.tsv").write_text("rain.n.01\train\t-\t" + "\t".join(["0.25"] * 16) + "\n")
    return main([
        "senses", "--input", str(workdir / "graph.json"),
        "--inventory", str(workdir / "inventory.tsv"), "--threshold", threshold,
        "--config", str(config), "--out", str(workdir / "linked.json"),
    ])


@pytest.mark.parametrize("command", ["train", "senses"])
@pytest.mark.parametrize("doc, message", [
    ([1, 2], "must be a JSON object, got list"),
    ("config", "must be a JSON object, got str"),
    ({"widthdim": 4, "encoder": {"dimension": 16}}, "unknown config field(s)"),
    ({"train": {}, "trian": {}, "encodr": {}}, "encodr, trian"),
])
def test_config_must_be_an_object_of_known_keys(workdir, capsys, command, doc, message):
    config = workdir / "config.json"
    config.write_text(json.dumps(doc))
    code = run_train(workdir) if command == "train" else run_senses(workdir, config)
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (workdir / "model.json").exists() and not (workdir / "linked.json").exists()


def test_train_and_senses_share_one_config_file(workdir):
    # the workdir config holds train, encoder and width_dim
    assert run_train(workdir) == 0
    assert run_senses(workdir, workdir / "config.json") == 0
    linked = json.loads((workdir / "linked.json").read_text())
    assert linked["entities"][0]["senses"]


@pytest.mark.parametrize("source", ["--seed", "config"])
def test_train_rejects_a_negative_seed_with_exit_2(workdir, capsys, source):
    # from --seed or from the config's "train" object; numpy's seeding used
    # to refuse it with a traceback and exit 1
    if source == "--seed":
        code = main([
            "train", "--data", str(workdir / "data.json"), "--schema", "sciclaim",
            "--config", str(workdir / "config.json"), "--seed", "-1", "--out", str(workdir / "model.json"),
        ])
    else:
        rewrite(workdir / "config.json", (("train", "seed"), -1))
        code = run_train(workdir)
    assert code == 2
    err = capsys.readouterr().err
    assert "causalkg: error: seed must be >= 0, got -1" in err and "Traceback" not in err
    assert not (workdir / "model.json").exists()


def test_senses_takes_a_negative_seed(workdir):
    # senses uses the seed only to hash the encoder's vectors
    assert run_senses(workdir, workdir / "config.json") == 0
    default = (workdir / "linked.json").read_bytes()
    (workdir / "linked.json").unlink()
    assert main([
        "senses", "--input", str(workdir / "graph.json"), "--inventory", str(workdir / "inventory.tsv"),
        "--threshold", "-1.0", "--config", str(workdir / "config.json"), "--seed", "-1",
        "--out", str(workdir / "linked.json"),
    ]) == 0
    assert json.loads((workdir / "linked.json").read_text())["entities"][0]["senses"]
    assert (workdir / "linked.json").read_bytes() != default


def test_senses_rejects_a_nan_threshold_with_exit_2(workdir, capsys):
    # a NaN threshold used to exit 0 with no sense attached to any node
    assert run_senses(workdir, workdir / "config.json", threshold="nan") == 2
    err = capsys.readouterr().err
    assert "sense threshold must be a number, got nan" in err and "Traceback" not in err
    assert not (workdir / "linked.json").exists()


@pytest.mark.parametrize("change, message", [
    (((1, "tokens"), "abc"), "dataset example 1: field 'tokens' must be a list of strings"),
    (((0, "entities", 0, "start"), 0.9), "dataset example 0: field 'entities[0].start' must be an integer"),
    (((0, "entities", 0, "end"), 1.5), "dataset example 0: field 'entities[0].end' must be an integer"),
    (((0, "relations", 0, "head"), True), "dataset example 0: field 'relations[0].head' must be an integer"),
])
def test_train_and_eval_reject_mistyped_gold_data_with_exit_2(workdir, capsys, change, message):
    assert run_train(workdir) == 0
    out_dir = workdir / "graphs"
    assert main([
        "extract", "--model", str(workdir / "model.json"),
        "--input", str(workdir / "sentences.json"), "--out", str(out_dir),
    ]) == 0
    rewrite(workdir / "data.json", change)
    assert run_train(workdir, out="again.json") == 2
    assert message in capsys.readouterr().err
    assert main(["eval", "--pred", str(out_dir), "--gold", str(workdir / "data.json")]) == 2
    assert message in capsys.readouterr().err


def graph_files(out):
    """The graph files a graph-writing command left at `out`: the one file,
    or every file its manifest names."""
    if out.is_file():
        return [out]
    return [out / name for name in json.loads((out / "manifest.json").read_text())["graphs"]]


def assert_interchange_layout(path, rectified=False):
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    log = None
    if rectified:
        log = [RemovalRecord(r["element"], r["kind"], r["confidence"], r["violation"], r["cascade"])
               for r in doc.pop("rectification")]
    assert text == graph_to_json(graph_from_dict(doc), log)
    return doc


def test_graph_writing_commands_keep_the_interchange_layout(workdir):
    assert run_train(workdir) == 0
    # a token the writer must escape and one it must leave unescaped
    sentences = json.loads((workdir / "sentences.json").read_text())
    sentences[0]["tokens"][0] = 'qu"o\\te\u00e9\u2028'
    (workdir / "sentences.json").write_text(json.dumps(sentences))
    extracted = workdir / "graphs"
    assert main([
        "extract", "--model", str(workdir / "model.json"), "--threshold-relation", "0.05",
        "--input", str(workdir / "sentences.json"), "--out", str(extracted),
    ]) == 0
    docs = [assert_interchange_layout(p) for p in graph_files(extracted)]
    assert len(docs) == 4 and sum(len(d["relations"]) for d in docs)

    fixed_dir = workdir / "fixed"
    assert main(["rectify", "--schema", "sciclaim", "--input", str(extracted),
                 "--out", str(fixed_dir), "--out-dir"]) == 0
    single = workdir / "fixed_one.json"
    assert main(["rectify", "--schema", "sciclaim", "--input", str(graph_files(extracted)[0]),
                 "--out", str(single)]) == 0
    removed = 0
    for path in graph_files(fixed_dir) + graph_files(single):
        assert list(json.loads(path.read_text()))[-1] == "rectification"
        assert_interchange_layout(path, rectified=True)
        removed += len(json.loads(path.read_text())["rectification"])
    assert removed

    inventory = workdir / "inventory.tsv"
    inventory.write_text("".join(
        f"w{i}.n.01\tw{i}\t-\t" + "\t".join(["0.25"] * 16) + "\n" for i in range(3)
    ))
    linked = [workdir / "linked", workdir / "linked_one.json"]
    for source, out in ((fixed_dir, linked[0]), (single, linked[1])):
        assert main(["senses", "--input", str(source), "--inventory", str(inventory),
                     "--model", str(workdir / "model.json"), "--threshold", "-1.0",
                     "--out", str(out)]) == 0
    senses = 0
    for path in graph_files(linked[0]) + graph_files(linked[1]):
        senses += sum(len(e["senses"]) for e in assert_interchange_layout(path)["entities"])
    assert senses


def edited_json(path, edit):
    """Apply `edit` to the JSON file's document; a non-None result replaces it."""
    doc = json.loads(path.read_text())
    edited = edit(doc)
    path.write_text(json.dumps(doc if edited is None else edited))
    return path


def small_model_file(tmp_path, edit=lambda doc: None, encoder=None):
    path = tmp_path / "model.json"
    model = Model.initialize(load_schema("sciclaim"), encoder or EncoderConfig(dimension=8), max_span_len=3)
    save_model(model, str(path))
    return edited_json(path, edit)


def schema_file(tmp_path, **changes):
    doc = {**schema_to_dict(load_schema("sciclaim")), **changes}
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc))
    return path


def train_args(workdir, schema="sciclaim", data=None):
    return ["train", "--data", str(data or workdir / "data.json"), "--schema", str(schema),
            "--config", str(workdir / "config.json"), "--out", str(workdir / "model.json")]


def extract_args(workdir, sentences=None, model=None):
    sentences_path = workdir / "sentences.json"
    if sentences is not None:
        sentences_path.write_text(json.dumps(sentences))
    return ["extract", "--model", str(model or small_model_file(workdir)),
            "--input", str(sentences_path), "--out", str(workdir / "graphs")]


def dataset_edit(workdir, edit):
    edited_json(workdir / "data.json", edit)
    return train_args(workdir)


def config_change(workdir, change):
    rewrite(workdir / "config.json", change)
    return train_args(workdir)


def senses_with_gloss(workdir):
    (workdir / "graph.json").write_text(json.dumps({"tokens": ["rain"], "entities": []}))
    (workdir / "inventory.tsv").write_text("rain.n.01\train\t-\t" + "\t".join(["0.25"] * 8) + "\n")
    (workdir / "gloss.tsv").write_text("rain.n.01\twater falling\nsnow.n.01 frozen\n")
    return ["senses", "--input", str(workdir / "graph.json"), "--inventory", str(workdir / "inventory.tsv"),
            "--gloss", str(workdir / "gloss.tsv"), "--model", str(small_model_file(workdir)),
            "--out", str(workdir / "linked.json")]


def rectify_args(workdir, out):
    (workdir / "graph.json").write_text(json.dumps({"tokens": ["rain"], "entities": []}))
    return ["rectify", "--schema", "sciclaim", "--input", str(workdir / "graph.json"), "--out", str(out)]


def query_args(workdir, change, *flags):
    corpus = write_query_corpus(workdir, [("s0", "e0")])
    query = workdir / "query.json"
    query.write_text(json.dumps({"start": {"lemma_any_of": ["rain"]}, "end": {"lemma_any_of": ["rain"]}, **change}))
    return ["query", "--input", str(corpus), "--query", str(query), *flags]


# Each case: the arguments built in a workdir, and what stderr must hold
# besides the file it names.
MALFORMED_INPUTS = {
    "schema attribute_domains a list": (
        lambda w: train_args(w, schema_file(w, attribute_domains=[])), "schema.json", "'attribute_domains'"),
    "schema entity_types a string": (
        lambda w: train_args(w, schema_file(w, entity_types="abc")), "schema.json", "'entity_types'"),
    "train data a directory": (lambda w: train_args(w, data=w), str(os.sep), "cannot read"),
    "sentence file an object": (lambda w: extract_args(w, {"tokens": ["a"]}), "sentences.json", "a list"),
    "sentence a list": (lambda w: extract_args(w, [["a", "b"]]), "sentences.json", "sentence 0"),
    "sentence tokens a string": (lambda w: extract_args(w, [{"tokens": "ab"}]), "sentences.json", "'tokens'"),
    "sentence integer token": (lambda w: extract_args(w, [{"tokens": ["a", 5]}]), "sentences.json", "'tokens'"),
    "sentence integer provenance": (
        lambda w: extract_args(w, [{"tokens": ["a"], "provenance": 7}]), "sentences.json", "'provenance'"),
    "model theta_r a string": (
        lambda w: extract_args(w, model=small_model_file(w, lambda d: d.update(theta_r="0.4"))),
        "model.json", "'theta_r'"),
    "model max_span_len a float": (
        lambda w: extract_args(w, model=small_model_file(w, lambda d: d.update(max_span_len=2.7))),
        "model.json", "'max_span_len'"),
    "model theta_r beyond float range": (
        lambda w: extract_args(w, model=small_model_file(w, lambda d: d.update(theta_r=10**400))),
        "model.json", "'theta_r'"),
    "model file a list": (
        lambda w: extract_args(w, model=small_model_file(w, lambda d: [d])), "model.json", "JSON object"),
    "train learning_rate beyond float range": (
        lambda w: config_change(w, (("train", "learning_rate"), 10**400)), "config.json", "'learning_rate'"),
    "dataset entity a number": (
        lambda w: dataset_edit(w, lambda d: d[0].update(entities=[3])), "data.json", "'entities[0]'"),
    "dataset entities an object": (
        lambda w: dataset_edit(w, lambda d: d[0].update(entities={"a": 1})), "data.json", "'entities'"),
    "dataset span reversed": (
        lambda w: dataset_edit(w, lambda d: d[0]["entities"][1].update(start=5)), "data.json",
        "dataset example 0: entity 1: invalid span"),
    "dataset tokens missing": (
        lambda w: dataset_edit(w, lambda d: d[0].pop("tokens") and None), "data.json", "'tokens' is missing"),
    "gloss line without a tab": (senses_with_gloss, "gloss.tsv", "gloss line 2"),
    "extract --out under a regular file": (
        lambda w: [*extract_args(w)[:-1], str(w / "sentences.json" / "graphs")],
        os.path.join("sentences.json", "graphs"), "cannot create directory"),
    "rectify --out in a missing directory": (
        lambda w: rectify_args(w, w / "missing" / "x.json"), os.path.join("missing", "x.json"), "cannot write"),
    "query max_len 0": (lambda w: query_args(w, {"max_len": 0}), "query.json", "query 'max_len' must be >= 1"),
    "query --max-len 0": (lambda w: query_args(w, {}, "--max-len", "0"), "query.json", "--max-len must be >= 1"),
    "missing embedding file": (
        lambda w: extract_args(w, model=small_model_file(
            w, encoder=EncoderConfig(kind="file", dimension=8, embedding_path=str(w / "no-such.txt")))),
        "no-such.txt", "cannot read embedding file"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_inputs_exit_2_naming_the_file_and_field(workdir, capsys, case):
    build, file_name, fragment = MALFORMED_INPUTS[case]
    assert main(build(workdir)) == 2
    err = capsys.readouterr().err
    assert err.startswith("causalkg: error: ") and "Traceback" not in err
    assert file_name in err and fragment in err, err


def extract_with_model(edit):
    """The arguments, built in a workdir, of an extract with a small model file edited by `edit`."""
    return lambda w: extract_args(w, model=small_model_file(w, edit))


# Each case: the arguments built in a workdir, for sizes whose parameters
# no model may hold; numpy is never asked for them
OVERSIZED = {
    "model max_span_len 2**40": extract_with_model(lambda d: d.update(max_span_len=2**40)),
    "model width_dim 2**40": extract_with_model(lambda d: d.update(width_dim=2**40)),
    "train config width_dim 2**40": lambda w: config_change(w, (("width_dim",), 2**40)),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_sizes_beyond_the_parameter_cap_exit_2(workdir, capsys, case):
    assert main(OVERSIZED[case](workdir)) == 2
    err = capsys.readouterr().err
    assert err.startswith("causalkg: error: ") and "Traceback" not in err
    assert f"parameters, more than the {MAX_PARAMETERS} a model may hold" in err, err


# Each case: the exit status, run in a workdir, of a command whose encoder
# has the given dimension; no vector of it is drawn or read
OVERSIZED_DIMENSIONS = {
    "model file": lambda w, d: main(extract_with_model(lambda doc: doc["encoder"].update(dimension=d))(w)),
    "train config": lambda w, d: main(config_change(w, (("encoder", "dimension"), d))),
    "senses config": lambda w, d: run_senses(w, rewrite(w / "config.json", (("encoder", "dimension"), d))),
}


@pytest.mark.parametrize("dimension", [2**70, 2**40])
@pytest.mark.parametrize("case", sorted(OVERSIZED_DIMENSIONS))
def test_an_encoder_dimension_beyond_its_cap_exits_2(workdir, capsys, case, dimension):
    # senses used to exit 1 with numpy's ValueError or an 8 TiB MemoryError
    assert OVERSIZED_DIMENSIONS[case](workdir, dimension) == 2
    err = capsys.readouterr().err
    assert err.startswith("causalkg: error: ") and "Traceback" not in err
    cap = causalkg.encoder.MAX_DIMENSION
    assert f"dimension must be >= 2 and <= {cap}, got {dimension}" in err, err


@pytest.mark.parametrize("path, reason", [("a\x00b", "embedded null byte"), ("\ud800", "surrogates not allowed")])
def test_an_embedding_path_no_file_can_have_exits_2(workdir, path, reason):
    # os.stat and open raised a bare ValueError or UnicodeEncodeError, a
    # traceback and exit 1.  The message holds the path, which capsys's
    # stream would refuse for a lone surrogate, as a StringIO does not.
    encoder = {"kind": "file", "dimension": 4, "embedding_path": path}
    config = rewrite(workdir / "config.json", (("encoder",), encoder))
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        assert run_senses(workdir, config) == 2
    err = stderr.getvalue()
    assert err.startswith("causalkg: error: cannot read embedding file ") and reason in err, err
    assert "Traceback" not in err and not (workdir / "linked.json").exists()


def test_train_that_diverges_exits_2_and_writes_no_model(workdir, capsys):
    # a learning rate of 1e308 leaves parameters that are not finite, which
    # load_model refuses; train used to write them as NaN and exit 0, and
    # then to run every epoch on NaN with numpy's RuntimeWarnings on stderr
    rewrite(workdir / "config.json", (("train", "epochs"), 50), (("train", "learning_rate"), 1e308),
            (("encoder", "dimension"), 8))
    assert run_train(workdir) == 2
    err = capsys.readouterr().err
    assert err == "causalkg: error: training diverged in epoch 1: a parameter is not finite\n", err
    assert not (workdir / "model.json").exists()


def surrogate_graph_file(workdir):
    """A graph file whose one entity's token, a JSON escape, holds a lone surrogate."""
    graph = assemble_graph(["a\ud800b"], None, [("e0", Span(0, 1), "factor", 0.9)])
    path = workdir / "graph.json"
    path.write_text(json.dumps(graph_to_dict(graph)))  # ensure_ascii writes the escape
    return path


# Each case: the arguments, given the output file, of a command whose
# output holds a token that UTF-8 cannot encode
UNENCODABLE_OUTPUTS = {
    "rectify": lambda w, out: ["rectify", "--schema", "sciclaim", "--input", str(surrogate_graph_file(w)),
                               "--out", str(out)],
    "dot": lambda w, out: ["dot", "--schema", "sciclaim", "--input", str(surrogate_graph_file(w)), "--out", str(out)],
    "extract": lambda w, out: [*extract_args(w, [{"tokens": ["a", "\ud800"]}])[:-1], str(out)],
}


@pytest.mark.parametrize("command", sorted(UNENCODABLE_OUTPUTS))
def test_an_unencodable_token_exits_2_and_leaves_the_output_file(workdir, capsys, command):
    out = workdir / "out.txt"
    out.write_bytes(b"an earlier output\n")
    assert main(UNENCODABLE_OUTPUTS[command](workdir, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("causalkg: error: ") and "surrogates not allowed" in err and "Traceback" not in err
    assert out.read_bytes() == b"an earlier output\n"


def test_malformed_model_file_exits_2_from_the_command_line(workdir):
    src_dir = os.path.dirname(os.path.dirname(causalkg.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src_dir, os.environ.get("PYTHONPATH")) if p)}
    args = extract_args(workdir, model=small_model_file(workdir, lambda d: d.update(theta_r=10**400)))
    proc = subprocess.run([sys.executable, "-m", "causalkg.cli", *args],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "model.json" in proc.stderr and "'theta_r'" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("key, name", [
    ("entity_types", "factor"), ("attribute_types", "sign+"), ("relation_types", "arg0"),
])
def test_extract_rejects_a_model_whose_schema_repeats_a_type(workdir, capsys, key, name):
    model = small_model_file(workdir, lambda doc: doc["schema"][key].append(name))
    assert main(extract_args(workdir, model=model)) == 2
    assert f"schema {key!r} names {name!r} more than once" in capsys.readouterr().err


def test_an_internal_error_is_not_reported_as_bad_input(workdir, monkeypatch):
    # only a CausalKgError means bad input; anything else is a bug and
    # keeps its traceback
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr("causalkg.cli.merge_corpus", broken)
    corpus = write_query_corpus(workdir, [("s0", "e0")])
    query = workdir / "query.json"
    query.write_text(json.dumps({"start": {"lemma_any_of": ["rain"]}, "end": {"lemma_any_of": ["rain"]}}))
    with pytest.raises(KeyError):
        main(["query", "--input", str(corpus), "--query", str(query)])


def write_graph_dir(directory, graphs):
    """`graphs` as the files of a manifest directory."""
    directory.mkdir()
    names = [f"g{i}.json" for i in range(len(graphs))]
    for name, g in zip(names, graphs):
        (directory / name).write_text(graph_to_json(g))
    (directory / "manifest.json").write_text(json.dumps({"graphs": names}))
    return directory


def command_inputs(root, n):
    """Arguments of each of the eight commands over inputs that grow with `n`,
    written under the new directory `root`."""
    root.mkdir()
    examples = build_corpus()[:2 * n]
    data = root / "data.json"
    data.write_text(json.dumps([example_to_dict(ex) for ex in examples]))
    (root / "sentences.json").write_text(json.dumps([{"tokens": list(ex.tokens)} for ex in examples]))
    (root / "config.json").write_text(json.dumps({
        "train": {"epochs": 2, "max_span_len": 3, "neg_entity_count": 5, "neg_relation_count": 5, "seed": 0},
        "encoder": {"dimension": 8, "seed": 0}, "width_dim": 4,
    }))
    model = str(small_model_file(root))
    rng = np.random.default_rng(n)
    corpus = str(write_graph_dir(root / "corpus", [random_sciclaim_graph(rng, f"g{i}") for i in range(3 * n)]))
    (root / "inventory.tsv").write_text("".join(
        f"t{i}.n.01\tt{i}\t-\t" + "\t".join(["0.25"] * 8) + "\n" for i in range(8)))
    # every graph holds tokens t0, t1, ..., and lemma links join them all, so a long max_len would explode
    (root / "query.json").write_text(json.dumps(
        {"start": {"lemma_any_of": ["t0"]}, "end": {"lemma_any_of": ["t1"]}, "max_len": 2}))
    pred = str(write_graph_dir(root / "pred", [gold_graph(ex) for ex in examples]))
    out = str(root / "out")
    return {
        "train": ["train", "--data", str(data), "--schema", "sciclaim", "--config", str(root / "config.json"),
                  "--out", out],
        "extract": ["extract", "--model", model, "--input", str(root / "sentences.json"), "--out", out],
        "rectify": ["rectify", "--schema", "sciclaim", "--input", corpus, "--out", out, "--out-dir"],
        "senses": ["senses", "--input", corpus, "--inventory", str(root / "inventory.tsv"), "--model", model,
                   "--threshold", "-1.0", "--out", out],
        "valence": ["valence", "--input", corpus, "--out", out],
        "query": ["query", "--input", corpus, "--query", str(root / "query.json"), "--out", out],
        "eval": ["eval", "--pred", pred, "--gold", str(data), "--out", out],
        "dot": ["dot", "--input", corpus, "--schema", "sciclaim", "--out", out],
    }


def cyclic_garbage(argv):
    """The number of objects in reference cycles that the command left, run
    with the collector paused so that none is collected while it runs."""
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("command", ["train", "extract", "rectify", "senses", "valence", "query", "eval", "dot"])
def test_a_command_leaves_cyclic_garbage_that_does_not_grow_with_its_input(tmp_path, capsys, command):
    # main pauses the collector, so a command whose cycles grew with its
    # input would hold memory that grows with it until the command returns
    small, large = (command_inputs(tmp_path / f"n{n}", n)[command] for n in (1, 4))
    cyclic_garbage(large)  # warm-up: first calls fill caches
    assert cyclic_garbage(small) == cyclic_garbage(large)


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("outcome", ["exit 0", "exit 2", "internal error"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, capsys, collecting, outcome):
    args = command_inputs(tmp_path / "inputs", 1)["query"]
    seen = []  # whether the collector ran, as the command saw it

    def merge(*args, **kwargs):
        seen.append(gc.isenabled())
        return merge_corpus(*args, **kwargs)

    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr("causalkg.cli.merge_corpus", merge)
    if outcome == "exit 2":
        (tmp_path / "inputs" / "query.json").write_text("[]")
    elif outcome == "internal error":
        monkeypatch.setattr("causalkg.cli.find_paths", broken)
    (gc.enable if collecting else gc.disable)()
    try:
        if outcome == "internal error":
            with pytest.raises(KeyError):
                main(args)
        else:
            assert main(args) == (0 if outcome == "exit 0" else 2)
        assert gc.isenabled() is collecting
    finally:
        gc.enable()
    assert seen == ([] if outcome == "exit 2" else [False])


def test_a_query_over_a_corpus_runs_no_collection(tmp_path):
    rng = np.random.default_rng(60)
    corpus = write_graph_dir(tmp_path / "corpus", [random_sciclaim_graph(rng, f"g{i}") for i in range(64)])
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"start": {"lemma_any_of": ["t0"]}, "end": {"lemma_any_of": ["t1"]}, "max_len": 1}))
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        assert gc.isenabled()
        assert main(["query", "--input", str(corpus), "--query", str(query), "--out", str(tmp_path / "q.json")]) == 0
    finally:
        gc.callbacks.remove(count)
    assert collections == []
    assert json.loads((tmp_path / "q.json").read_text())["paths"]


@pytest.mark.parametrize("name", ["\ud800.json", "a\x00b.json"])
def test_a_manifest_naming_a_file_no_path_can_name_exits_2(tmp_path, name):
    # os.open raises ValueError, not OSError, for a lone surrogate or a NUL.
    # The message holds the name; sys.stderr writes a lone surrogate escaped,
    # and so does a StringIO, while capsys's stream would refuse it.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "manifest.json").write_text(json.dumps({"graphs": [name]}))
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        assert main(["dot", "--input", str(corpus), "--schema", "sciclaim", "--out", str(tmp_path / "dot")]) == 2
    err = stderr.getvalue()
    assert err.startswith("causalkg: error: cannot read ") and "Traceback" not in err, err
