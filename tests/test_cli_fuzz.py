"""Fuzz every command end to end: valid input documents, one field of one
document replaced by an odd value, and `cli.main` run in process.  Each case
must exit 0, or exit 2 with "causalkg: error:" on stderr; any other exit or
a propagated exception is an escape."""

import contextlib
import io
import json
import math
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalkg.cli import main
from causalkg.encoder import EncoderConfig
from causalkg.graphs import graph_to_dict
from causalkg.model import Model, save_model
from causalkg.schema import load_schema, schema_to_dict
from causalkg.training import gold_graph

from synth import build_corpus, random_sciclaim_graph
from test_cli import example_to_dict

POOL = [
    None, True, False, 0, 1, -1, 2**70, 0.5, -0.5, 1.5, 1e308, math.nan,
    "", "x", "t0", "factor", "q+", "g0.json", "\ud800",
    [], [0], ["x"], [{}], {}, {"x": 1}, {"start": 0, "end": 1},
]


def _documents(workdir: Path) -> dict[str, object]:
    """Valid input documents by file name, relative to `workdir`."""
    rng = np.random.default_rng(7)
    graphs = [random_sciclaim_graph(rng, provenance=f"g{i}") for i in range(3)]
    examples = build_corpus()[:3]
    model_path = workdir / "model.json"
    save_model(Model.initialize(load_schema("sciclaim"), EncoderConfig(dimension=8), max_span_len=3), str(model_path))
    docs = {
        "schema.json": schema_to_dict(load_schema("sciclaim")),
        # every graph holds tokens t0, t1, ...; the end pattern keeps the paths few at any max_len
        "query.json": {"start": {"lemma_any_of": ["t0"]}, "end": {"lemma_any_of": ["t1"], "entity_type": "factor"},
                       "max_len": 3},
        "model.json": json.loads(model_path.read_text()),
        "sentences.json": [{"tokens": list(ex.tokens), "lemmas": list(ex.lemmas), "provenance": ex.provenance}
                           for ex in examples],
        "gold.json": [example_to_dict(ex) for ex in examples],
        "config.json": {"train": {"epochs": 2, "max_span_len": 3, "neg_entity_count": 5, "neg_relation_count": 5},
                        "encoder": {"dimension": 8, "seed": 0}, "width_dim": 4},
    }
    for folder, corpus in (("corpus", graphs), ("pred", [gold_graph(ex) for ex in examples])):
        names = [f"g{i}.json" for i in range(len(corpus))]
        docs[f"{folder}/manifest.json"] = {"graphs": names}
        for name, g in zip(names, corpus):
            docs[f"{folder}/{name}"] = graph_to_dict(g)
    return docs


def _paths(doc, prefix=()):
    """Every path into `doc`, the root included; of a long list only the
    first two items and the last."""
    yield prefix
    if isinstance(doc, dict):
        keys = list(doc)
    elif isinstance(doc, list):
        keys = sorted({0, 1, len(doc) - 1} & set(range(len(doc))))
    else:
        return
    for key in keys:
        yield from _paths(doc[key], prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


# A sense inventory of the corpus's tokens t0, t1, ..., read by senses and never fuzzed.
INVENTORY = "".join(f"t{i}.n.01\tt{i}\t-\t" + "\t".join([str(0.1 * (i + 1))] * 8) + "\n" for i in range(12))

# Each command: its arguments, given the input and output directories, and the documents it reads.
_CORPUS = [f"corpus/{name}" for name in ("manifest.json", "g0.json", "g1.json", "g2.json")]
COMMANDS = {
    "train": (lambda i, o: ["train", "--data", f"{i}/gold.json", "--schema", f"{i}/schema.json",
                            "--config", f"{i}/config.json", "--out", f"{o}/model.json"],
              ["config.json", "gold.json", "schema.json"]),
    "senses": (lambda i, o: ["senses", "--input", f"{i}/corpus", "--inventory", f"{i}/inventory.tsv",
                             "--config", f"{i}/config.json", "--threshold", "-1.0", "--out", f"{o}/linked"],
               ["config.json", *_CORPUS]),
    "rectify": (lambda i, o: ["rectify", "--schema", f"{i}/schema.json", "--input", f"{i}/corpus",
                              "--out", f"{o}/rectified", "--out-dir"], ["schema.json", *_CORPUS]),
    "valence": (lambda i, o: ["valence", "--input", f"{i}/corpus", "--schema", f"{i}/schema.json",
                              "--out", f"{o}/valence.json"], ["schema.json", *_CORPUS]),
    "dot": (lambda i, o: ["dot", "--input", f"{i}/corpus", "--schema", f"{i}/schema.json", "--out", f"{o}/dot"],
            ["schema.json", *_CORPUS]),
    "query": (lambda i, o: ["query", "--input", f"{i}/corpus", "--query", f"{i}/query.json",
                            "--out", f"{o}/query.json"], ["query.json", *_CORPUS]),
    "extract": (lambda i, o: ["extract", "--model", f"{i}/model.json", "--input", f"{i}/sentences.json",
                              "--out", f"{o}/graphs"], ["model.json", "sentences.json"]),
    "eval": (lambda i, o: ["eval", "--pred", f"{i}/pred", "--gold", f"{i}/gold.json", "--out", f"{o}/report.json"],
             ["gold.json", *(f"pred/{name}" for name in ("manifest.json", "g0.json", "g1.json", "g2.json"))]),
}


def test_every_command_exits_0_or_2_on_one_odd_field(tmp_path):
    docs = _documents(tmp_path)
    paths = {name: list(_paths(doc)) for name, doc in docs.items()}
    cases = st.sampled_from(sorted(COMMANDS)).flatmap(lambda command: st.tuples(
        st.just(command),
        st.sampled_from(COMMANDS[command][1]).flatmap(
            lambda name: st.tuples(st.just(name), st.sampled_from(paths[name]))),
        st.sampled_from(POOL),
    ))
    exits = Counter()
    run = tmp_path / "run"

    # about 67 cases a command
    @settings(max_examples=540, deadline=None, derandomize=True, database=None)
    @given(cases)
    @example(("dot", ("corpus/manifest.json", ("graphs", 0)), "\ud800"))  # os.open raised ValueError
    @example(("senses", ("config.json", ("encoder", "dimension")), 2**70))  # numpy raised ValueError
    def check(case):
        command, (name, path), value = case
        shutil.rmtree(run, ignore_errors=True)
        inputs, out = run / "in", run / "out"
        (inputs / "corpus").mkdir(parents=True)
        (inputs / "pred").mkdir()
        out.mkdir()
        for doc_name, doc in docs.items():
            if doc_name == name:
                doc = _replaced(doc, path, value)
            (inputs / doc_name).write_text(json.dumps(doc))
        (inputs / "inventory.tsv").write_text(INVENTORY)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(COMMANDS[command][0](inputs, out))
        assert code in (0, 2), (code, stderr.getvalue())
        if code == 2:
            assert stderr.getvalue().startswith("causalkg: error: "), stderr.getvalue()
        exits[command, code] += 1

    check()
    # every command both succeeded and refused an input; eval reached its report
    assert {command for command, code in exits if code == 0} == set(COMMANDS), exits
    assert {command for command, code in exits if code == 2} == set(COMMANDS), exits
