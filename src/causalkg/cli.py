"""Command-line interface.

Subcommands: train, eval, extract, rectify, senses, valence, query, dot.
Exit status: 0 on success, 1 on usage errors, 2 on data or schema errors.
All randomness flows from the seed, so identical invocations produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .dot import emit_dot
from .encoder import EncoderConfig, encode_tokens
from .errors import CausalKgError, GraphError, QueryError
from .evaluation import score
from .graphs import (
    KnowledgeGraph,
    graph_from_dict,
    graph_to_json,
    merge_corpus,
)
from .model import check_thresholds, extract, load_model, save_model
from .reasoning import NodePattern, compute_valence, find_paths
from .rectify import rectify
from .schema import Schema, load_schema
from .senses import link_senses, load_inventory
from .training import TrainConfig, gold_graph, load_dataset, train


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; data problems exit 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _dump_json(path: str, data) -> None:
    _write(path, json.dumps(data, indent=2, ensure_ascii=False) + "\n")


def _load_schema_arg(value: str) -> Schema:
    if os.path.exists(value):
        return load_schema(_read(value))
    return load_schema(value)


# Top-level config keys.  train and senses accept the same ones, so that
# one config file serves both; senses reads only "encoder".
_CONFIG_KEYS = frozenset({"train", "encoder", "width_dim"})


def _load_config(path: str | None) -> dict:
    """A config file's JSON object; ValueError unless its keys are all known."""
    if path is None:
        return {}
    config = json.loads(_read(path))
    if not isinstance(config, dict):
        raise ValueError(f"config {path!r} must be a JSON object, got {type(config).__name__}")
    unknown = sorted(config.keys() - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config field(s) in {path!r}: {', '.join(unknown)}")
    return config


def _load_graphs(path: str) -> list[KnowledgeGraph]:
    """A graph file, a manifest file, or a directory with manifest.json."""
    if os.path.isdir(path):
        path = os.path.join(path, "manifest.json")
    data = json.loads(_read(path))
    if isinstance(data, dict) and "graphs" in data:
        names = data["graphs"]
        if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
            raise GraphError(f'manifest {path!r}: "graphs" must be a list of file names, got {names!r}')
        base = os.path.dirname(path)
        return [graph_from_dict(json.loads(_read(os.path.join(base, name)))) for name in names]
    return [graph_from_dict(data)]


def _write_graphs(out_dir: str, graphs: list[KnowledgeGraph], extras: dict[str, dict] | None = None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    names = []
    for i, g in enumerate(graphs):
        name = f"graph_{i:04d}.json"
        _write(os.path.join(out_dir, name), graph_to_json(g, (extras or {}).get(g.provenance)))
        names.append(name)
    _dump_json(
        os.path.join(out_dir, "manifest.json"),
        {"graphs": names, "provenance": [g.provenance for g in graphs]},
    )


def _encoder_from_args(args, config: dict) -> EncoderConfig:
    enc = EncoderConfig.from_dict(config.get("encoder", {}))
    if getattr(args, "seed", None) is not None:
        enc = EncoderConfig.from_dict({**enc.to_dict(), "seed": args.seed})
    return enc


def _cmd_train(args) -> int:
    config = _load_config(args.config)
    train_cfg = TrainConfig.from_dict(config.get("train", {}))
    if args.seed is not None:
        train_cfg = TrainConfig.from_dict({**train_cfg.__dict__, "seed": args.seed})
    schema = _load_schema_arg(args.schema)
    dataset = load_dataset(_read(args.data))
    width_dim = config.get("width_dim", 8)
    if isinstance(width_dim, bool) or not isinstance(width_dim, int):
        raise ValueError(f"config 'width_dim' must be an integer, got {width_dim!r}")
    model = train(
        dataset,
        schema,
        train_cfg,
        encoder_config=_encoder_from_args(args, config),
        width_dim=width_dim,
    )
    save_model(model, args.out)
    return 0


def _cmd_extract(args) -> int:
    model = load_model(args.model)
    if args.threshold_relation is not None:
        model.theta_r = args.threshold_relation
    if args.threshold_attribute is not None:
        model.theta_a = args.threshold_attribute
    check_thresholds(model.theta_r, model.theta_a)
    sentences = json.loads(_read(args.input))
    graphs = []
    for i, sent in enumerate(sentences):
        graphs.append(
            extract(
                sent["tokens"],
                sent.get("lemmas"),
                model,
                provenance=sent.get("provenance", f"s{i}"),
            )
        )
    _write_graphs(args.out, graphs)
    return 0


def _cmd_rectify(args) -> int:
    schema = _load_schema_arg(args.schema)
    graphs = _load_graphs(args.input)
    rectified, extras = [], {}
    for g in graphs:
        fixed, log = rectify(g, schema)
        rectified.append(fixed)
        extras[fixed.provenance] = {"rectification": [rec.to_dict() for rec in log]}
    if len(rectified) == 1 and not args.out_dir:
        _write(args.out, graph_to_json(rectified[0], extras[rectified[0].provenance]))
    else:
        _write_graphs(args.out, rectified, extras)
    return 0


def _cmd_senses(args) -> int:
    inventory = load_inventory(
        _read(args.inventory),
        glosses=(
            dict(
                line.split("\t", 1)
                for line in _read(args.gloss).splitlines()
                if line.strip()
            )
            if args.gloss
            else None
        ),
        skip_lemmas=(
            [l.strip() for l in _read(args.skip).splitlines() if l.strip()]
            if args.skip
            else ()
        ),
    )
    if args.model:
        encoder = load_model(args.model).encoder
    else:
        encoder = _encoder_from_args(args, _load_config(args.config))
    graphs = _load_graphs(args.input)
    linked = [
        link_senses(g, encode_tokens(g.tokens, encoder), inventory, threshold=args.threshold)
        for g in graphs
    ]
    if len(linked) == 1:
        _write(args.out, graph_to_json(linked[0]))
    else:
        _write_graphs(args.out, linked)
    return 0


def _cmd_valence(args) -> int:
    schema = _load_schema_arg(args.schema) if args.schema else None
    graphs = _load_graphs(args.input)
    out = {
        g.provenance: [a.to_dict() for a in compute_valence(g, schema)] for g in graphs
    }
    if args.out:
        _dump_json(args.out, out)
    else:
        print(json.dumps(out, indent=2, ensure_ascii=False))
    return 0


def _cmd_query(args) -> int:
    query = json.loads(_read(args.query))
    if not (isinstance(query, dict) and "start" in query and "end" in query):
        raise QueryError('a query document must be an object with "start" and "end" patterns')
    start, end = NodePattern.from_dict(query["start"]), NodePattern.from_dict(query["end"])
    max_len = query.get("max_len", args.max_len)
    if isinstance(max_len, bool) or not isinstance(max_len, int):
        raise QueryError(f"query max_len must be an integer, got {max_len!r}")
    graphs = _load_graphs(args.input)
    corpus = merge_corpus(graphs, lemma_link=not args.no_lemma_link)
    result = find_paths(corpus, start, end, max_len=max_len)
    if args.out:
        _dump_json(args.out, result.to_dict())
    else:
        print(json.dumps(result.to_dict(), indent=2, ensure_ascii=False))
    return 0


def _cmd_eval(args) -> int:
    predicted = _load_graphs(args.pred)
    gold = [gold_graph(ex) for ex in load_dataset(_read(args.gold))]
    report = score(predicted, gold)
    sys.stdout.write(report.render_text())
    if args.out:
        _dump_json(args.out, report.to_dict())
    return 0


def _cmd_dot(args) -> int:
    schema = _load_schema_arg(args.schema)
    graphs = _load_graphs(args.input)
    if len(graphs) == 1:
        _write(args.out, emit_dot(graphs[0], schema))
    else:
        os.makedirs(args.out, exist_ok=True)
        for i, g in enumerate(graphs):
            _write(os.path.join(args.out, f"graph_{i:04d}.dot"), emit_dot(g, schema))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="causalkg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("train", help="train a model on a gold dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("extract", help="extract graphs from sentences")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold-relation", type=float, default=None)
    p.add_argument("--threshold-attribute", type=float, default=None)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("rectify", help="prune schema violations from graphs")
    p.add_argument("--schema", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--out-dir", action="store_true", help="treat --out as a directory")
    p.set_defaults(func=_cmd_rectify)

    p = sub.add_parser("senses", help="link graph nodes to word senses")
    p.add_argument("--input", required=True)
    p.add_argument("--inventory", required=True)
    p.add_argument("--gloss", default=None)
    p.add_argument("--skip", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_senses)

    p = sub.add_parser("valence", help="compute valence assertions")
    p.add_argument("--input", required=True)
    p.add_argument("--schema", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_valence)

    p = sub.add_parser("query", help="run a start/end pattern path query")
    p.add_argument("--input", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--no-lemma-link", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("eval", help="score predictions against a gold dataset")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("dot", help="emit Graphviz DOT for graphs")
    p.add_argument("--input", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CausalKgError, FileNotFoundError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"causalkg: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
