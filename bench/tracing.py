"""Span recorder for the traced benchmark run.

The recorder replaces module attributes of the library with wrappers, so a
span is recorded at every call across a layer boundary: the calls one
module makes into another (``causalkg.model.encode_tokens`` is the encoder
as the model sees it) and the top-level calls the benchmark makes.  Nothing
inside ``causalkg`` changes.  Spans stay in memory until the run ends.

A span is (name, start, end, parent index, op id, raised).  A layer's self
time is its spans' durations minus the time their child spans cover.

Which end-to-end metric each layer should move, and on which workload it
should not move because that workload bypasses the layer:

    layer              should move                   on / not on
    encoder            op_ms_p50                     extract-trained / extract-dense
    model (spans)      op_ms_p50                     extract-trained / query-corpus
    model (pairs)      op_ms_p90, ops_per_s          extract-dense / extract-trained
    model (save/load)  reported only                 extract-trained
    training           job_s                         extract-trained / all others
    graphs (sentence)  op_ms_p90                     extract-dense / query-corpus
    graphs (corpus)    op_ms_p50, peak_rss_mb        query-corpus / extract-*
    schema             op_ms_p90                     extract-dense / query-corpus
    rectify            op_ms_p90, ops_per_s          extract-dense / query-corpus
    senses             op_ms_p50                     extract-trained / query-corpus
    reasoning          op_ms_p90, ops_per_s          query-corpus / extract-*
    evaluation, dot    reported only                 extract-trained
    cli                op_ms_p50                     query-corpus
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _count_tokens(counts, args, result):
    counts["encoder.tokens"] += len(args[0])


def _count_spans(counts, args, result):
    counts["model.spans_enumerated"] += len(args[2])


def _count_kept(counts, args, result):
    counts["model.entities_kept"] += len(args[1])


def _count_pair_cells(counts, args, result):
    counts["pair_cells"] += result.size


def _count_relations(counts, args, result):
    counts["model.relations_emitted"] += len(result.relations)


def _count_elements(counts, args, result):
    counts["graphs.elements_assembled"] += (
        len(result.entities) + sum(len(e.attributes) for e in result.entities) + len(result.relations)
    )


def _count_violations(counts, args, result):
    counts["schema.violations_scanned"] += len(result)


def _count_removals(counts, args, result):
    _, log = result
    cascades = sum(1 for rec in log if rec.cascade)
    counts["rectify.removals"] += len(log) - cascades
    counts["rectify.cascade_removals"] += cascades


def _count_senses(counts, args, result):
    counts["senses.nodes_linked"] += sum(1 for e in result.entities if e.senses)
    counts["senses.senses_attached"] += sum(len(e.senses) for e in result.entities)


def _count_json(counts, args, result):
    counts["graphs.json_bytes"] += len(result.encode("utf-8"))


def _count_links(counts, args, result):
    counts["graphs.lemma_links"] += len(result.lemma_links)


def _count_paths(counts, args, result):
    counts["reasoning.paths_found"] += len(result.paths)


def _count_assertions(counts, args, result):
    counts["reasoning.assertions"] += len(result)


def _count_dot(counts, args, result):
    counts["dot.bytes"] += len(result.encode("utf-8"))


def _count_exit(counts, args, result):
    counts["cli.errors"] += result != 0


# (module, attribute, layer, counter).  The span name is "<module>.<attribute>"
# without the package prefix.  The first group is calls between modules, the
# second the top-level calls the benchmark makes.
WRAPPED = (
    ("causalkg.model", "encode_tokens", "encoder", _count_tokens),
    ("causalkg.model", "span_representations", "model", _count_spans),
    ("causalkg.model", "classify_entities", "model", None),
    ("causalkg.model", "classify_attributes", "model", _count_kept),
    ("causalkg.model", "pair_rep", "model", None),
    ("causalkg.model", "classify_relations", "model", _count_pair_cells),
    ("causalkg.model", "assemble_graph", "graphs", _count_elements),
    ("causalkg.training", "encode_tokens", "encoder", _count_tokens),
    ("causalkg.training", "sample_negatives", "training", None),
    ("causalkg.training", "example_loss_and_grads", "training", None),
    ("causalkg.rectify", "check_constraints", "schema", _count_violations),
    ("causalkg.cli", "graph_from_dict", "graphs", None),
    ("causalkg.cli", "merge_corpus", "graphs", _count_links),
    ("causalkg.cli", "find_paths", "reasoning", _count_paths),
    ("causalkg.cli", "compute_valence", "reasoning", _count_assertions),
    ("causalkg.encoder", "encode_tokens", "encoder", _count_tokens),
    ("causalkg.model", "extract", "model", _count_relations),
    ("causalkg.model", "save_model", "model", None),
    ("causalkg.model", "load_model", "model", None),
    ("causalkg.training", "train", "training", None),
    ("causalkg.rectify", "rectify", "rectify", _count_removals),
    ("causalkg.senses", "link_senses", "senses", _count_senses),
    ("causalkg.graphs", "graph_to_json", "graphs", _count_json),
    ("causalkg.dot", "emit_dot", "dot", _count_dot),
    ("causalkg.evaluation", "score", "evaluation", None),
    ("causalkg.cli", "main", "cli", _count_exit),
)

LAYERS = ("encoder", "model", "training", "graphs", "schema", "rectify", "senses",
          "reasoning", "evaluation", "dot", "cli")


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('causalkg.')}.{attr}"


class Tracer:
    """Records spans and boundary counts while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, original, name: str, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            parent = stack[-2] if len(stack) > 1 else -1
            start = perf_counter()
            raised = True
            try:
                result = original(*args, **kwargs)
                raised = False
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, raised)
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every WRAPPED attribute; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, _, count in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span_name(module_name, attr), count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["name", "start", "end", "parent", "op", "raised"]\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, timed_s: float) -> dict[str, float]:
        """Per-layer figures from the spans; timed_s is the traced ops' wall time."""
        layer_of = {span_name(m, a): layer for m, a, layer, _ in WRAPPED}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        errors: Counter = Counter()
        top_level = 0.0
        for i, (name, start, end, parent, _, raised) in enumerate(self.spans):
            busy[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
            errors[layer_of[name]] += raised
            if parent < 0:
                top_level += end - start
        c = self.counts
        encode = ("model.encode_tokens", "training.encode_tokens", "encoder.encode_tokens")
        m = {
            "encoder.busy_s": sum(busy[n] for n in encode),
            "encoder.calls": sum(calls[n] for n in encode),
            "encoder.tokens": c["encoder.tokens"],
            "model.span_pool_s": busy["model.span_representations"],
            "model.entity_head_s": busy["model.classify_entities"],
            "model.attribute_head_s": busy["model.classify_attributes"],
            "model.spans_enumerated": c["model.spans_enumerated"],
            "model.entities_kept": c["model.entities_kept"],
            "model.pair_head_s": busy["model.pair_rep"] + busy["model.classify_relations"],
            "model.decode_self_s": own["model.extract"],
            "model.pairs_scored": calls["model.pair_rep"],
            "model.relations_emitted": c["model.relations_emitted"],
            "model.relation_yield": _ratio(c["model.relations_emitted"], c["pair_cells"]),
            "model.save_s": busy["model.save_model"],
            "model.load_s": busy["model.load_model"],
            "training.loss_grad_s": busy["training.example_loss_and_grads"],
            "training.negatives_s": busy["training.sample_negatives"],
            "training.update_self_s": own["training.train"],
            "training.steps": calls["training.example_loss_and_grads"],
            "graphs.assemble_s": busy["model.assemble_graph"],
            "graphs.elements_assembled": c["graphs.elements_assembled"],
            "graphs.to_json_s": busy["graphs.graph_to_json"],
            "graphs.json_bytes": c["graphs.json_bytes"],
            "graphs.load_s": busy["cli.graph_from_dict"],
            "graphs.merge_s": busy["cli.merge_corpus"],
            "graphs.lemma_links": c["graphs.lemma_links"],
            "schema.check_s": busy["rectify.check_constraints"],
            "schema.check_calls": calls["rectify.check_constraints"],
            "schema.violations_scanned": c["schema.violations_scanned"],
            "rectify.busy_s": busy["rectify.rectify"],
            "rectify.self_s": own["rectify.rectify"],
            "rectify.removals": c["rectify.removals"],
            "rectify.cascade_removals": c["rectify.cascade_removals"],
            "rectify.removal_yield": _ratio(c["rectify.removals"], c["schema.violations_scanned"]),
            "senses.link_s": busy["senses.link_senses"],
            "senses.nodes_linked": c["senses.nodes_linked"],
            "senses.senses_attached": c["senses.senses_attached"],
            "reasoning.find_paths_s": busy["cli.find_paths"],
            "reasoning.paths_found": c["reasoning.paths_found"],
            "reasoning.valence_s": busy["cli.compute_valence"],
            "reasoning.assertions": c["reasoning.assertions"],
            "evaluation.score_s": busy["evaluation.score"],
            "dot.emit_s": busy["dot.emit_dot"],
            "dot.bytes": c["dot.bytes"],
            "cli.self_s": own["cli.main"],
            "trace.spans": len(self.spans),
            "trace.unattributed_s": timed_s - top_level,
        }
        for layer in LAYERS:
            m[f"{layer}.errors"] = errors[layer]
        m["cli.errors"] += c["cli.errors"]
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
