"""Command-line interface.

Subcommands: train, eval, extract, rectify, senses, valence, query, dot.
Exit status: 0 on success, 2 on data, schema or file errors (any
CausalKgError, whose message names the file and the field), 1 on usage
errors and on internal bugs, which print a traceback.
All randomness flows from the seed, so identical invocations produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from dataclasses import replace

from .dot import emit_dot
from .encoder import EncoderConfig, encode_tokens
from .errors import CausalKgError, DuplicateProvenanceError, GraphError, InputError, QueryError
from .evaluation import score
from .graphs import (
    KnowledgeGraph,
    graph_from_dict,
    graph_to_json,
    merge_corpus,
)
from .model import extract, load_model, save_model
from .readers import (
    array,
    cannot,
    integer,
    load_json,
    obj,
    read_text,
    required,
    string,
    strings,
    within,
    write_text,
)
from .reasoning import NodePattern, compute_valence, find_paths
from .rectify import RemovalRecord, rectify
from .schema import Schema, load_schema
from .senses import link_senses, load_glosses, load_inventory
from .training import TrainConfig, gold_graph, load_dataset, train


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; data problems exit 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _makedirs(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise cannot("create directory", path, exc) from exc


def _dump_json(path: str | None, data) -> None:
    """Write the data as indented JSON to the file, or to stdout without one."""
    text = json.dumps(data, indent=2, ensure_ascii=False) + "\n"
    if path:
        write_text(path, text)
    else:
        sys.stdout.write(text)


def _load_schema_arg(value: str) -> Schema:
    if os.path.exists(value):
        return within(value, load_schema, read_text(value))
    return load_schema(value)


# Top-level config keys.  train and senses accept the same ones, so that
# one config file serves both; senses uses only "encoder".
_CONFIG_KEYS = ("train", "encoder", "width_dim")


def _config(doc, seed: int | None) -> tuple[TrainConfig, EncoderConfig, int]:
    """A config document's train and encoder configs, both seeded with `seed` if given, and width_dim."""
    obj(doc, "config", InputError, _CONFIG_KEYS, expected="a JSON object")
    train_cfg = TrainConfig.from_dict(doc.get("train", {}))
    encoder = EncoderConfig.from_dict(doc.get("encoder", {}))
    if seed is not None:
        train_cfg, encoder = replace(train_cfg, seed=seed), replace(encoder, seed=seed)
    width_dim = integer(doc.get("width_dim", 8), "config 'width_dim'", InputError)
    if width_dim < 1:
        raise InputError(f"config 'width_dim' must be >= 1, got {width_dim}")
    return train_cfg, encoder, width_dim


def _load_config(args) -> tuple[TrainConfig, EncoderConfig, int]:
    return within(args.config, _config, load_json(args.config) if args.config else {}, args.seed)


def _load_graphs(path: str) -> tuple[list[KnowledgeGraph], bool]:
    """A graph file's graph and True, or the graphs of a manifest file or a directory with manifest.json and False."""
    if os.path.isdir(path):
        path = os.path.join(path, "manifest.json")
    data = load_json(path)
    if not (isinstance(data, dict) and "graphs" in data):
        return [within(path, graph_from_dict, data)], True
    # a manifest; the "provenance" list that the writers put beside "graphs",
    # when there is one, must name each graph's own, so graph files that
    # another run wrote over or left behind are refused
    names = within(path, strings, data["graphs"], '"graphs"', GraphError, "a list of file names")
    base = os.path.dirname(path)
    paths = [os.path.join(base, name) for name in names]
    graphs = [within(graph_path, graph_from_dict, load_json(graph_path)) for graph_path in paths]
    if "provenance" in data:
        listed = within(path, strings, data["provenance"], '"provenance"', GraphError)
        if len(listed) != len(graphs):
            raise GraphError(f"{path}: lists {len(graphs)} graph files and {len(listed)} provenances")
        for i, (graph, provenance) in enumerate(zip(graphs, listed)):
            if graph.provenance != provenance:
                raise GraphError(
                    f"{path}: graph {i} ({names[i]}) has provenance {graph.provenance!r}, not {provenance!r}"
                )
    return graphs, False


def _write_graphs(
    out: str, graphs: list[KnowledgeGraph], logs: list[list[RemovalRecord]] | None = None, one_file=False
):
    """The graphs as files of directory `out` with a manifest, or the graph of a graph file as file `out` if
    `one_file`; logs[i], if given, is `rectify`'s log of graph i, which `graph_to_json` appends to its file.

    Each file is written whole or not at all (`write_text`).  The manifest that a directory may hold from
    an earlier run goes before the first graph file is written, and the new one is written last, so a run
    that fails midway leaves a directory that no command loads, not old and new graphs under one manifest."""
    logs = logs or [None] * len(graphs)
    if one_file:
        write_text(out, graph_to_json(graphs[0], logs[0]))
        return
    _makedirs(out)
    manifest_path = os.path.join(out, "manifest.json")
    try:
        os.remove(manifest_path)
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise cannot("remove", manifest_path, exc) from exc
    names = [f"graph_{i:04d}.json" for i in range(len(graphs))]
    for name, g, log in zip(names, graphs, logs, strict=True):
        write_text(os.path.join(out, name), graph_to_json(g, log))
    manifest = {"graphs": names, "provenance": [g.provenance for g in graphs]}
    _dump_json(manifest_path, manifest)


def _cmd_train(args) -> None:
    train_cfg, encoder, width_dim = _load_config(args)
    schema = _load_schema_arg(args.schema)
    dataset = within(args.data, load_dataset, read_text(args.data))
    model = train(dataset, schema, train_cfg, encoder_config=encoder, width_dim=width_dim)
    save_model(model, args.out)


def _sentences(doc) -> list[tuple[tuple[str, ...], tuple[str, ...] | None, str]]:
    """(tokens, lemmas or None, provenance) per sentence of a sentence file."""
    sentences = []
    for i, sent in enumerate(array(doc, "a sentence file", InputError)):
        label = f"sentence {i}"
        obj(sent, label, InputError, ("tokens", "lemmas", "provenance"))
        lemmas = sent.get("lemmas")
        sentences.append((
            required(sent, "tokens", f"{label} 'tokens'", InputError, strings),
            None if lemmas is None else strings(lemmas, f"{label} 'lemmas'", InputError),
            string(sent.get("provenance", f"s{i}"), f"{label} 'provenance'", InputError),
        ))
    return sentences


def _cmd_extract(args) -> None:
    overrides = {"theta_r": args.threshold_relation, "theta_a": args.threshold_attribute}
    model = replace(load_model(args.model), **{name: value for name, value in overrides.items() if value is not None})
    sentences = within(args.input, _sentences, load_json(args.input))
    graphs = [
        extract(tokens, lemmas, model, provenance=provenance) for tokens, lemmas, provenance in sentences
    ]
    _write_graphs(args.out, graphs)


def _cmd_rectify(args) -> None:
    schema = _load_schema_arg(args.schema)
    graphs, one_file = _load_graphs(args.input)
    results = [rectify(g, schema) for g in graphs]
    _write_graphs(args.out, [fixed for fixed, _ in results], [log for _, log in results], one_file and not args.out_dir)


def _cmd_senses(args) -> None:
    glosses = within(args.gloss, load_glosses, read_text(args.gloss)) if args.gloss else None
    skip = [l.strip() for l in read_text(args.skip).splitlines() if l.strip()] if args.skip else ()
    inventory = within(args.inventory, load_inventory, read_text(args.inventory), glosses, skip)
    encoder = load_model(args.model).encoder if args.model else _load_config(args)[1]
    graphs, one_file = _load_graphs(args.input)
    linked = [
        link_senses(g, encode_tokens(g.tokens, encoder), inventory, threshold=args.threshold)
        for g in graphs
    ]
    _write_graphs(args.out, linked, one_file=one_file)


def _cmd_valence(args) -> None:
    schema = _load_schema_arg(args.schema) if args.schema else None
    assertions = {}
    for g in _load_graphs(args.input)[0]:
        if g.provenance in assertions:
            raise DuplicateProvenanceError(f"duplicate provenance {g.provenance!r}")
        assertions[g.provenance] = [a.to_dict() for a in compute_valence(g, schema)]
    _dump_json(args.out, assertions)


def _query(doc, max_len: int) -> tuple[NodePattern, NodePattern, int]:
    """A query document's start and end patterns and its max_len (by default `max_len`, from --max-len)."""
    obj(doc, "query", QueryError, ("start", "end", "max_len"))
    start = NodePattern.from_dict(required(doc, "start", "query 'start'", QueryError))
    end = NodePattern.from_dict(required(doc, "end", "query 'end'", QueryError))
    label = "query 'max_len'" if "max_len" in doc else "--max-len"
    max_len = integer(doc.get("max_len", max_len), label, QueryError)
    if max_len < 1:
        raise QueryError(f"{label} must be >= 1, got {max_len}")
    return start, end, max_len


def _cmd_query(args) -> None:
    start, end, max_len = within(args.query, _query, load_json(args.query), args.max_len)
    corpus = merge_corpus(_load_graphs(args.input)[0], lemma_link=not args.no_lemma_link)
    result = find_paths(corpus, start, end, max_len=max_len)
    _dump_json(args.out, result.to_dict())


def _cmd_eval(args) -> None:
    predicted, _ = _load_graphs(args.pred)
    gold = [gold_graph(ex) for ex in within(args.gold, load_dataset, read_text(args.gold))]
    report = score(predicted, gold)
    sys.stdout.write(report.render_text())
    if args.out:
        _dump_json(args.out, report.to_dict())


def _cmd_dot(args) -> None:
    schema = _load_schema_arg(args.schema)
    graphs, one_file = _load_graphs(args.input)
    if one_file:
        write_text(args.out, emit_dot(graphs[0], schema))
        return
    _makedirs(args.out)
    for i, g in enumerate(graphs):
        write_text(os.path.join(args.out, f"graph_{i:04d}.dot"), emit_dot(g, schema))


_REQUIRED, _OPTIONAL = {"required": True}, {"default": None}
_SEED = {"type": int, "default": None}

# name, handler, help, then (flag, argparse options) per option
_COMMANDS = (
    ("train", _cmd_train, "train a model on a gold dataset", (
        ("--data", _REQUIRED), ("--schema", _REQUIRED), ("--config", _OPTIONAL), ("--seed", _SEED),
        ("--out", _REQUIRED),
    )),
    ("extract", _cmd_extract, "extract graphs from sentences", (
        ("--model", _REQUIRED), ("--input", _REQUIRED), ("--out", _REQUIRED),
        ("--threshold-relation", {"type": float, "default": None}),
        ("--threshold-attribute", {"type": float, "default": None}),
    )),
    ("rectify", _cmd_rectify, "prune schema violations from graphs", (
        ("--schema", _REQUIRED), ("--input", _REQUIRED), ("--out", _REQUIRED),
        ("--out-dir", {"action": "store_true", "help": "write --out as a directory even for a lone graph file"}),
    )),
    ("senses", _cmd_senses, "link graph nodes to word senses", (
        ("--input", _REQUIRED), ("--inventory", _REQUIRED), ("--gloss", _OPTIONAL), ("--skip", _OPTIONAL),
        ("--model", _OPTIONAL), ("--config", _OPTIONAL), ("--seed", _SEED),
        ("--threshold", {"type": float, "default": 0.5}), ("--out", _REQUIRED),
    )),
    ("valence", _cmd_valence, "compute valence assertions", (
        ("--input", _REQUIRED), ("--schema", _OPTIONAL), ("--out", _OPTIONAL),
    )),
    ("query", _cmd_query, "run a start/end pattern path query", (
        ("--input", _REQUIRED), ("--query", _REQUIRED), ("--max-len", {"type": int, "default": 6}),
        ("--no-lemma-link", {"action": "store_true"}), ("--out", _OPTIONAL),
    )),
    ("eval", _cmd_eval, "score predictions against a gold dataset", (
        ("--pred", _REQUIRED), ("--gold", _REQUIRED), ("--out", _OPTIONAL),
    )),
    ("dot", _cmd_dot, "emit Graphviz DOT for graphs", (
        ("--input", _REQUIRED), ("--schema", _REQUIRED), ("--out", _REQUIRED),
    )),
)


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves it as it was."""
    parser = _Parser(prog="causalkg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, func, help_text, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit status.

    The command runs with CPython's cyclic garbage collector paused: a
    command builds its graphs, frees them by reference counting and leaves
    cyclic garbage that does not grow with its input, so collection passes
    would only walk the young graphs.  The collector is switched back on
    afterwards only if it was on before.  The pause is process-wide, so
    while a call runs it holds for every thread of the process.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        args.func(args)
        return 0
    except CausalKgError as exc:
        print(f"causalkg: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
