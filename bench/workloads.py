"""The benchmark workloads, their output checks and the closed-loop runner.

Each workload is a fixed job: a list of ops built from the seed.  One
process acts as one client: each op starts when the previous one has
returned, and no op runs on another thread.  The job runs in rounds over the
same inputs.  Every op's output is checked outside its timed region; an op
that raises or fails a check counts as failed.  Ops call the library through
module attributes (``model_mod.extract`` rather than a name imported once) so
the traced run can wrap them.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import importlib
import json
import math
import os
import statistics
from collections import defaultdict
from dataclasses import dataclass, field, replace
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, Iterator

import numpy as np

import causalkg.cli as cli_mod
import causalkg.dot as dot_mod
import causalkg.encoder as encoder_mod
import causalkg.evaluation as evaluation_mod
import causalkg.graphs as graphs_mod
import causalkg.model as model_mod
import causalkg.senses as senses_mod
import causalkg.training as training_mod
from causalkg.encoder import EncoderConfig, base_vector
from causalkg.graphs import graph_from_json, graph_to_dict, merge_corpus
from causalkg.model import Model
from causalkg.reasoning import NodePattern
from causalkg.schema import check_constraints, load_schema
from causalkg.senses import load_inventory
from causalkg.training import PARAM_GROUPS, TrainConfig, gold_graph

# the package re-exports the function rectify under the submodule's name
rectify_mod = importlib.import_module("causalkg.rectify")

import inputs
import synth

SCICLAIM = load_schema("sciclaim")
DIMENSION = 64
# criterion 3's overfit settings, which reach F1 = 100 on synth.build_corpus()
TRAIN_CONFIG = TrainConfig(
    epochs=200, learning_rate=2.5, seed=0, neg_entity_count=50, neg_relation_count=20
)
# A fixed untrained model whose entity head keeps nearly every span, so the
# workload seed varies only the sentences, not how dense the output is.
DENSE_MODEL_SEED = 16
DENSE_ENCODER = EncoderConfig(dimension=DIMENSION, seed=0, context_window=1)
# reference_kernel's time on this 2-core host when it runs at full speed.
# Of the kernels tried, this one's time tracked the host's speed drift in
# every workload's ops best (ratio spread 5-8% against 18-21% raw).
REFERENCE_S = 0.0017
SAMPLE_EVERY_S = 0.1
SAMPLE_WINDOW = 5  # kernel samples either side of an op set its host speed
# A sampled query is replayed through the exhaustive oracle only when the
# oracle's (frontier paths x edges) work stays under this, about a second.
ORACLE_BUDGET = 2_000_000
ORACLE_SAMPLE = 2


@dataclass(frozen=True)
class Sizes:
    """How much input one run builds; tests shrink it."""

    epochs: int = TRAIN_CONFIG.epochs
    heldout: int = 1000
    dense: int = 150
    graphs: int = 200
    queries: int = 120
    senses: int = 2000
    setups: int = 3


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    # raises CheckFailed; returns the part of the output that enters the digest
    check: Callable[[object], object]
    # cheap exact rendering of the output, compared across rounds
    fingerprint: Callable[[object], str]


def reference_kernel() -> None:
    """Fixed work, the same in every commit, of the kinds that dominate the
    workloads: build records, JSON round-trip them, index and sort them."""
    rows = [
        {"id": f"e{i}", "start": i, "end": i + 1, "type": "factor", "confidence": i * 0.001}
        for i in range(150)
    ]
    index = {r["id"]: (r["start"], r["end"], r["type"]) for r in json.loads(json.dumps(rows, indent=2))}
    ids = list(index)[:40]
    sorted((a, b) for a in ids for b in ids if a != b)


class HostClock:
    """Tracks the host's CPU speed, which drifts by up to 2x over minutes on
    a shared machine, by timing reference_kernel between ops."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        """Time the kernel if the last sample is older than SAMPLE_EVERY_S.
        A collection first gives the kernel the same garbage-collector state
        whatever the library left behind, so only host speed moves it."""
        if not self.starts or perf_counter() - self.starts[-1] >= SAMPLE_EVERY_S:
            gc.collect()
            start = perf_counter()
            reference_kernel()
            self.starts.append(start)
            self.seconds.append(perf_counter() - start)

    def scale(self, when: float) -> float:
        """REFERENCE_S over the median kernel time of the samples nearest `when`."""
        i = bisect.bisect(self.starts, when)
        near = self.seconds[max(0, i - SAMPLE_WINDOW): i + SAMPLE_WINDOW]
        return REFERENCE_S / statistics.median(near) if near else 1.0


@dataclass
class Record:
    """The fixed job's ops, timed over one or more rounds.

    Round 1 checks every output and digests it; later rounds only confirm
    each output is identical to round 1's by its fingerprint.
    """

    kinds: list[str] = field(default_factory=list)
    # per op, one (start, seconds) per passing round
    times: list[list[tuple[float, float]]] = field(default_factory=list)
    fingerprints: list[str] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)  # timed seconds per round
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def best(self, kind: str | None = None, clock: HostClock | None = None) -> list[float]:
        """Each op's fastest round, rescaled to the reference host speed when
        a clock is given: host noise only ever adds time."""
        return [
            min(seconds * (clock.scale(start) if clock else 1.0) for start, seconds in t)
            for k, t in zip(self.kinds, self.times)
            if t and kind in (None, k)
        ]


def canonical(obj) -> object:
    """Floats rounded to 9 significant digits, so the digest survives
    harmless last-digit changes."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    return obj


def _fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_round(ops: Iterator[Op], record: Record, tracer=None, clock: HostClock | None = None) -> None:
    first = not record.round_s
    hasher = hashlib.sha256()
    timed = 0.0
    for i, op in enumerate(ops):
        if first:
            record.kinds.append(op.kind)
            record.times.append([])
            record.fingerprints.append("")
        if tracer is not None:
            tracer.op = i
        record.attempted += 1
        if clock is not None:
            clock.sample()
        start = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            timed += perf_counter() - start
            record.fail(f"{op.kind} op {i} raised {exc!r}")
            continue
        elapsed = perf_counter() - start
        timed += elapsed
        try:
            if first:
                hasher.update(json.dumps(canonical(op.check(result)), sort_keys=True).encode("utf-8"))
                record.fingerprints[i] = _fingerprint(op.fingerprint(result))
            elif _fingerprint(op.fingerprint(result)) != record.fingerprints[i]:
                raise CheckFailed("output differs from the first round")
        except CheckFailed as exc:
            record.fail(f"{op.kind} op {i}: {exc}")
            continue
        record.times[i].append((start, elapsed))
    if clock is not None:
        clock.sample()
    if first:
        record.digest = hasher.hexdigest()
    record.round_s.append(timed)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------- extraction

def sentence_op(ctx, tokens: tuple[str, ...], provenance: str) -> Op:
    """extract -> JSON -> rectify -> link_senses -> JSON + DOT for one sentence."""

    def run():
        model = ctx.model
        raw = model_mod.extract(tokens, tokens, model, provenance=provenance)
        raw_json = graphs_mod.graph_to_json(raw)
        fixed, log = rectify_mod.rectify(raw, SCICLAIM)
        encoding = encoder_mod.encode_tokens(tokens, model.encoder)
        linked = senses_mod.link_senses(fixed, encoding, ctx.inventory)
        return raw, raw_json, fixed, log, linked, graphs_mod.graph_to_json(linked), dot_mod.emit_dot(linked, SCICLAIM)

    return Op("sentence", run, check_sentence, _sentence_fingerprint)


def _sentence_fingerprint(out) -> str:
    _, raw_json, _, log, _, linked_json, dot = out
    return "\n".join([raw_json, repr(log), linked_json, dot])


def check_sentence(out) -> object:
    raw, raw_json, fixed, log, linked, linked_json, dot = out
    violations = check_constraints(fixed, SCICLAIM)
    if violations:
        raise CheckFailed(f"rectified graph keeps {len(violations)} violations, first {violations[0]}")
    if not _is_subgraph(fixed, raw):
        raise CheckFailed("rectified graph is not a subset of the extracted graph")
    if graph_from_json(raw_json) != raw or graph_from_json(linked_json) != linked:
        raise CheckFailed("graph JSON does not round-trip")
    if tuple(replace(e, senses=()) for e in linked.entities) != fixed.entities or linked.relations != fixed.relations:
        raise CheckFailed("sense linking changed the graph structure")
    if not dot.startswith("digraph {"):
        raise CheckFailed("DOT output malformed")
    return {
        "raw": graph_to_dict(raw),
        "removed": [rec.to_dict() for rec in log],
        "linked": graph_to_dict(linked),
    }


def _is_subgraph(small, big) -> bool:
    def parts(g):
        return (
            {(e.id, e.span, e.entity_type) for e in g.entities},
            {(e.id, attr) for e in g.entities for attr, _ in e.attributes},
            {r.id for r in g.relations},
        )

    return all(a <= b for a, b in zip(parts(small), parts(big)))


def _write_inventory(ctx, rng, vectors: dict, sizes: Sizes) -> None:
    path = os.path.join(ctx.workdir, "senses.tsv")
    _write(path, inputs.sense_inventory_tsv(rng, vectors, sizes.senses))
    ctx.inventory = load_inventory(_read(path))


def _base_vectors() -> dict[str, np.ndarray]:
    return {t: base_vector(t, DENSE_ENCODER.seed, DIMENSION) for t in inputs.VOCABULARY}


def _warm_extraction(ctx, model, tokens) -> None:
    saved, ctx.model = ctx.model, model
    sentence_op(ctx, tokens, "warmup").run()
    ctx.model = saved


def keeps_every_span(model, tokens: tuple[str, ...]) -> bool:
    """True if the entity head keeps every span of `tokens`; then the
    relations number k(k-1) x |relation types| for k spans, and rectify's
    work depends on the sentence length alone."""
    spans = model_mod.enumerate_spans(len(tokens), model.max_span_len)
    _, reps = model_mod.span_representations(model, encoder_mod.encode_tokens(tokens, model.encoder), spans)
    return bool(model_mod.classify_entities(model, reps).argmax(axis=1).all())


def _model_fingerprint(model) -> str:
    return "".join(np.asarray(getattr(model, p), dtype=float).tobytes().hex() for p in PARAM_GROUPS)


class ExtractTrained:
    name = "extract-trained"
    op_kind = "sentence"

    def setup(self, seed: int, workdir: str, sizes: Sizes):
        rng = np.random.default_rng(seed)
        ctx = SimpleNamespace(workdir=workdir, model=None, trained=None, epoch_ms=[])
        # The table holds the synthetic encoder's own base vectors (seed 0, as
        # in criterion 3), with which 200 epochs reach F1 = 100; it does not
        # vary with the workload seed, so neither does training.
        table = _base_vectors()
        embedding_path = os.path.join(workdir, "embeddings.txt")
        inputs.write_embedding_table(embedding_path, table)
        ctx.encoder = EncoderConfig(kind="file", dimension=DIMENSION, embedding_path=embedding_path)
        _write_inventory(ctx, rng, table, sizes)
        ctx.sentences = inputs.heldout_sentences(rng, sizes.heldout)
        ctx.dataset = synth.build_corpus()
        ctx.gold = [gold_graph(ex) for ex in ctx.dataset]
        ctx.config = replace(TRAIN_CONFIG, epochs=sizes.epochs)
        _warm_extraction(ctx, Model.initialize(SCICLAIM, ctx.encoder), ctx.dataset[0].tokens)
        return ctx

    def job(self, ctx) -> Iterator[Op]:
        yield Op("train", lambda: self._train(ctx), lambda out: self._check_train(ctx, out), self._train_fingerprint)
        yield Op(
            "persist", lambda: self._persist(ctx), lambda out: self._check_persist(ctx, out), _model_fingerprint
        )
        yield Op("score", lambda: self._score(ctx), self._check_score, lambda report: repr(report))
        for i, tokens in enumerate(ctx.sentences):
            yield sentence_op(ctx, tokens, f"h{i}")

    def final_checks(self, ctx, record: Record) -> None:
        pass

    def _train(self, ctx):
        marks = []
        start = perf_counter()
        ctx.trained = training_mod.train(
            ctx.dataset, SCICLAIM, ctx.config, encoder_config=ctx.encoder,
            on_epoch=lambda epoch, loss: marks.append((perf_counter(), loss)),
        )
        return start, marks, ctx.trained

    @staticmethod
    def _train_fingerprint(out) -> str:
        _, marks, model = out
        return repr([loss for _, loss in marks]) + _model_fingerprint(model)

    def _check_train(self, ctx, out) -> object:
        start, marks, _ = out
        if len(marks) != ctx.config.epochs:
            raise CheckFailed(f"{len(marks)} epoch callbacks for {ctx.config.epochs} epochs")
        if not all(math.isfinite(loss) for _, loss in marks):
            raise CheckFailed("non-finite epoch loss")
        ctx.epoch_ms = list(np.diff([start] + [t for t, _ in marks]) * 1e3)
        return None

    def _persist(self, ctx):
        path = os.path.join(ctx.workdir, "model.json")
        model_mod.save_model(ctx.trained, path)
        ctx.model = model_mod.load_model(path)
        return ctx.model

    def _check_persist(self, ctx, loaded) -> object:
        a, b = ctx.trained, loaded
        same = all(np.array_equal(np.asarray(getattr(a, p)), np.asarray(getattr(b, p))) for p in PARAM_GROUPS)
        if not same or (a.encoder, a.theta_r, a.theta_a, a.max_span_len) != (b.encoder, b.theta_r, b.theta_a, b.max_span_len):
            raise CheckFailed("reloaded model differs from the saved one")
        return None

    def _score(self, ctx):
        predicted = [
            model_mod.extract(ex.tokens, ex.lemmas, ctx.model, provenance=ex.provenance)
            for ex in ctx.dataset
        ]
        return evaluation_mod.score(predicted, ctx.gold)

    @staticmethod
    def _check_score(report) -> object:
        for section in ("entities", "attributes", "relations"):
            f1 = report.micro[section].f1
            if f1 is None or abs(f1 - 100.0) > 1e-9:
                raise CheckFailed(f"training-corpus {section} F1 {f1}, expected 100")
        return report.to_dict()


class ExtractDense:
    name = "extract-dense"
    op_kind = "sentence"

    def setup(self, seed: int, workdir: str, sizes: Sizes):
        rng = np.random.default_rng(seed)
        ctx = SimpleNamespace(workdir=workdir)
        ctx.model = Model.initialize(SCICLAIM, DENSE_ENCODER, seed=DENSE_MODEL_SEED)
        _write_inventory(ctx, rng, _base_vectors(), sizes)
        ctx.sentences = inputs.dense_sentences(rng, sizes.dense, lambda tokens: keeps_every_span(ctx.model, tokens))
        _warm_extraction(ctx, ctx.model, ctx.sentences[0][:4])
        return ctx

    def job(self, ctx) -> Iterator[Op]:
        for i, tokens in enumerate(ctx.sentences):
            yield sentence_op(ctx, tokens, f"d{i}")

    def final_checks(self, ctx, record: Record) -> None:
        pass


# ------------------------------------------------------------------- queries

class CorpusIndex:
    """Independent view of the corpus for checking query output: nodes,
    relation edges and lemma peers, built from the generated graphs."""

    def __init__(self, graphs) -> None:
        self.nodes = {}
        self.edges = {}  # relation edge id -> (head, tail, traversable backwards)
        self.out = defaultdict(list)  # node -> [(relation type, tail)]
        self.neighbours = defaultdict(list)
        by_lemma = defaultdict(list)
        for g in graphs:
            for e in g.entities:
                gid = f"{g.provenance}/{e.id}"
                self.nodes[gid] = (g, e, frozenset(g.lemmas[i] for i in e.span.indices()))
                for lemma in self.nodes[gid][2]:
                    by_lemma[lemma].append(gid)
            for r in g.relations:
                head, tail = f"{g.provenance}/{r.head}", f"{g.provenance}/{r.tail}"
                backwards = r.relation_type == "modifier"
                self.edges[f"{g.provenance}/{r.id}"] = (head, tail, backwards)
                self.out[head].append((r.relation_type, tail))
                self.neighbours[head].append(tail)
                if backwards:
                    self.neighbours[tail].append(head)
        links = set()
        for members in by_lemma.values():
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    if self._graph(a) != self._graph(b):
                        links.add((min(a, b), max(a, b)))
        for a, b in links:
            self.neighbours[a].append(b)
            self.neighbours[b].append(a)
        self.edge_entries = sum(len(v) for v in self.neighbours.values())

    @staticmethod
    def _graph(gid: str) -> str:
        return gid.split("/", 1)[0]

    def matches(self, pattern: dict, gid: str) -> bool:
        _, entity, lemmas = self.nodes[gid]
        if "lemma_any_of" in pattern and not set(pattern["lemma_any_of"]) & lemmas:
            return False
        if "entity_type" in pattern and entity.entity_type != pattern["entity_type"]:
            return False
        if "required_attributes" in pattern and not set(pattern["required_attributes"]) <= {
            t for t, _ in entity.attributes
        }:
            return False
        return all(
            any(rtype == rc["relation"] and self.matches(rc["pattern"], tail) for rtype, tail in self.out[gid])
            for rc in pattern.get("role_constraints", ())
        )

    def step_ok(self, a: str, edge: str, b: str) -> bool:
        if edge.startswith("lemma:"):
            lo, _, hi = edge[len("lemma:"):].partition("~")
            return (
                (lo, hi) == (min(a, b), max(a, b))
                and self._graph(a) != self._graph(b)
                and bool(self.nodes[a][2] & self.nodes[b][2])
            )
        if edge not in self.edges:
            return False
        head, tail, backwards = self.edges[edge]
        return (a, b) == (head, tail) or (backwards and (a, b) == (tail, head))

    def check_result(self, query: dict, doc: dict) -> None:
        paths = doc["paths"]
        if paths != sorted(paths):
            raise CheckFailed("paths are not sorted")
        for p in paths:
            nodes = p[0::2]
            if len(p) % 2 == 0 or any(n not in self.nodes for n in nodes):
                raise CheckFailed(f"path {p} does not alternate corpus nodes and edges")
            if len(set(nodes)) != len(nodes):
                raise CheckFailed(f"path {p} is not simple")
            if (len(p) - 1) // 2 > query["max_len"]:
                raise CheckFailed(f"path {p} is longer than max_len")
            if not (self.matches(query["start"], p[0]) and self.matches(query["end"], p[-1])):
                raise CheckFailed(f"path {p} does not run from a start match to an end match")
            if not all(self.step_ok(p[i - 1], p[i], p[i + 1]) for i in range(1, len(p), 2)):
                raise CheckFailed(f"path {p} uses an edge the corpus lacks")
        sub = doc["subgraph"]
        if sub["nodes"] != sorted({n for p in paths for n in p[0::2]}) or sub["edges"] != sorted(
            {e for p in paths for e in p[1::2]}
        ):
            raise CheckFailed("subgraph is not the union of the paths")

    def oracle_work(self, query: dict) -> int:
        """Paths the exhaustive oracle expands times the edges it scans per path."""
        max_len = query["max_len"]
        total = 0

        def walk(node, seen, depth):
            nonlocal total
            total += 1
            if depth < max_len and total * self.edge_entries <= ORACLE_BUDGET:
                for nb in self.neighbours[node]:
                    if nb not in seen:
                        seen.add(nb)
                        walk(nb, seen, depth + 1)
                        seen.remove(nb)

        for gid in self.nodes:
            if self.matches(query["start"], gid):
                walk(gid, {gid}, 0)
        return total * self.edge_entries


def query_op(ctx, index: int, query: dict) -> Op:
    query_path = os.path.join(ctx.workdir, "queries", f"q{index:05d}.json")
    if not os.path.exists(query_path):
        _write(query_path, json.dumps(query))
    out_path = os.path.join(ctx.workdir, "out", "query.json")

    def run():
        return cli_mod.main(["query", "--input", ctx.corpus_dir, "--query", query_path, "--out", out_path])

    def check(code):
        if code != 0:
            raise CheckFailed(f"causalkg query exited {code}")
        doc = json.loads(_read(out_path))
        ctx.index.check_result(query, doc)
        ctx.executed[index] = doc["paths"]
        return doc

    return Op("query", run, check, lambda code: f"{code}\n{_read(out_path)}")


def valence_op(ctx) -> Op:
    out_path = os.path.join(ctx.workdir, "out", "valence.json")

    def run():
        return cli_mod.main(["valence", "--input", ctx.corpus_dir, "--schema", "ethno", "--out", out_path])

    def check(code):
        if code != 0:
            raise CheckFailed(f"causalkg valence exited {code}")
        doc = json.loads(_read(out_path))
        ids = {g.provenance: {e.id for e in g.entities} for g in ctx.graphs}
        if set(doc) != set(ids):
            raise CheckFailed("valence output does not cover exactly the corpus graphs")
        for prov, assertions in doc.items():
            for a in assertions:
                if a["target"] not in ids[prov] or a["holder"] not in ids[prov] | {"NORM"} or a["sign"] not in "+-":
                    raise CheckFailed(f"malformed valence assertion {a} in {prov}")
        return doc

    return Op("valence", run, check, lambda code: f"{code}\n{_read(out_path)}")


class QueryCorpus:
    name = "query-corpus"
    op_kind = "query"

    def setup(self, seed: int, workdir: str, sizes: Sizes):
        rng = np.random.default_rng(seed)
        ctx = SimpleNamespace(workdir=workdir, seed=seed, executed={})
        ctx.graphs = inputs.corpus_graphs(rng, sizes.graphs)
        ctx.corpus_dir = os.path.join(workdir, "corpus")
        inputs.write_graph_dir(ctx.corpus_dir, ctx.graphs)
        os.makedirs(os.path.join(workdir, "queries"))
        os.makedirs(os.path.join(workdir, "out"))
        ctx.queries = inputs.query_mix(rng, ctx.graphs, sizes.queries)
        ctx.index = CorpusIndex(ctx.graphs)
        query_op(ctx, 0, ctx.queries[0]).run()
        return ctx

    def job(self, ctx) -> Iterator[Op]:
        yield valence_op(ctx)
        for i, query in enumerate(ctx.queries):
            yield query_op(ctx, i, query)

    def final_checks(self, ctx, record: Record) -> None:
        """Replay a seeded sample of the job's queries through the test oracle."""
        from test_reasoning import oracle_paths

        rng = np.random.default_rng([ctx.seed, 2])
        order = rng.permutation(len(ctx.queries))
        corpus = None
        checked = 0
        for i in order:
            if checked == ORACLE_SAMPLE:
                break
            query = ctx.queries[i]
            if i not in ctx.executed or ctx.index.oracle_work(query) > ORACLE_BUDGET:
                continue
            if corpus is None:
                corpus = merge_corpus(ctx.graphs, lemma_link=True)
            expected = oracle_paths(
                corpus, NodePattern.from_dict(query["start"]), NodePattern.from_dict(query["end"]), query["max_len"]
            )
            if [list(p) for p in expected] != ctx.executed[i]:
                record.fail(f"query {i} disagrees with the exhaustive oracle")
            checked += 1
        ctx.oracle_checked = checked


WORKLOADS = {w.name: w for w in (ExtractTrained(), ExtractDense(), QueryCorpus())}
