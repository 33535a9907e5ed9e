import json
import os
import subprocess
import sys

import numpy as np
import pytest

import causalkg
from causalkg.cli import build_parser, main
from causalkg.encoder import EncoderConfig, encode_tokens
from causalkg.graphs import Span, assemble_graph, graph_from_dict, graph_to_dict, graph_to_json
from causalkg.model import Model, save_model
from causalkg.schema import check_constraints, load_schema, schema_to_dict
from causalkg.senses import link_senses, load_inventory

from synth import build_corpus, separator_id_graphs, unknown_type_graphs


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
    assert len(dots) == 4
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
    assert len(os.listdir(workdir / "dot")) == len(plain)


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


def run_senses(workdir, config):
    """senses over one extracted-style graph with a one-line inventory."""
    (workdir / "graph.json").write_text(json.dumps({
        "tokens": ["rain", "falls"],
        "entities": [{"id": "a", "start": 0, "end": 1, "type": "factor", "confidence": 1.0}],
        "relations": [],
    }))
    (workdir / "inventory.tsv").write_text("rain.n.01\train\t-\t" + "\t".join(["0.25"] * 16) + "\n")
    return main([
        "senses", "--input", str(workdir / "graph.json"),
        "--inventory", str(workdir / "inventory.tsv"), "--threshold", "-1.0",
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


def assert_interchange_layout(path, extra_keys=()):
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    extras = {key: doc.pop(key) for key in extra_keys}
    assert text == graph_to_json(graph_from_dict(doc), extras or None)
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
        assert_interchange_layout(path, ["rectification"])
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


def test_malformed_model_file_exits_2_from_the_command_line(workdir):
    src_dir = os.path.dirname(os.path.dirname(causalkg.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src_dir, os.environ.get("PYTHONPATH")) if p)}
    args = extract_args(workdir, model=small_model_file(workdir, lambda d: d.update(theta_r=10**400)))
    proc = subprocess.run([sys.executable, "-m", "causalkg.cli", *args],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "model.json" in proc.stderr and "'theta_r'" in proc.stderr and "Traceback" not in proc.stderr


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
