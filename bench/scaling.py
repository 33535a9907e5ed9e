"""Ungated scaling report: the ROADMAP baseline points, one child process each.

    python3 bench/scaling.py

Points: untrained extraction of one n-token sentence (n = 10/20/40), rectify
of that dense output (n = 8/10/12/14), and hub-to-hub path queries at
max_len 2 and 3 over 50/100/200 query-corpus graphs.  Each point runs in its
own child process under a wall-clock cap (CAP_S) and an address-space limit
(MEM_GB); a point that passes the cap is killed and recorded as over the cap.  The report is
printed and written to .bench_out/scaling.json.  Nothing here is gated.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from collections import Counter
from time import perf_counter

import run  # first: it pins BLAS to one thread before numpy loads

POINTS = (
    [f"extract:{n}" for n in (10, 20, 40)]
    + [f"rectify:{n}" for n in (8, 10, 12, 14)]
    + [f"query:{g}:{max_len}" for g in (50, 100, 200) for max_len in (2, 3)]
)
CAP_S = 60.0  # wall-clock seconds per point
MEM_GB = 3.0  # address-space limit per point
SEED = 0


def measure_point(point: str, seed: int) -> dict:
    _, workloads = run._import_library()
    import numpy as np

    import inputs
    from causalkg.graphs import merge_corpus
    from causalkg.model import Model, extract
    from causalkg.reasoning import NodePattern, find_paths
    from causalkg.rectify import rectify

    kind, *params = point.split(":")
    rng = np.random.default_rng(seed)
    if kind in ("extract", "rectify"):
        n = int(params[0])
        tokens = [inputs.VOCABULARY[i] for i in rng.integers(0, len(inputs.VOCABULARY), size=n)]
        model = Model.initialize(workloads.SCICLAIM, workloads.DENSE_ENCODER, seed=workloads.DENSE_MODEL_SEED)
        start = perf_counter()
        graph = extract(tokens, None, model)
        out = {"extract_s": perf_counter() - start, "entities": len(graph.entities), "relations": len(graph.relations)}
        if kind == "rectify":
            start = perf_counter()
            _, log = rectify(graph, workloads.SCICLAIM)
            out.update(rectify_s=perf_counter() - start, removals=len(log))
        return out
    n_graphs, max_len = int(params[0]), int(params[1])
    graphs = inputs.corpus_graphs(rng, n_graphs)
    (hub, _), (second, _) = Counter(lemma for g in graphs for lemma in g.lemmas).most_common(2)
    start = perf_counter()
    corpus = merge_corpus(graphs, lemma_link=True)
    merged = perf_counter()
    result = find_paths(
        corpus, NodePattern(lemma_any_of=frozenset({hub})), NodePattern(lemma_any_of=frozenset({second})), max_len
    )
    return {
        "merge_s": merged - start,
        "find_paths_s": perf_counter() - merged,
        "lemma_links": len(corpus.lemma_links),
        "paths": len(result.paths),
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--point"]:  # child mode
        limit = int(MEM_GB * 2**30)
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        print(json.dumps(measure_point(argv[1], SEED)))
        return 0

    report = {"seed": SEED, "cap_s": CAP_S, "mem_gb": MEM_GB, "points": {}}
    for point in POINTS:
        start = perf_counter()
        try:
            child = subprocess.run(
                [sys.executable, __file__, "--point", point], capture_output=True, text=True, timeout=CAP_S, cwd=run.ROOT
            )
        except subprocess.TimeoutExpired:
            entry = {"status": "over_cap"}
        else:
            if child.returncode == 0:
                entry = {"status": "ok", **json.loads(child.stdout.splitlines()[-1])}
            else:
                entry = {"status": "failed", "error": (child.stderr.strip().splitlines() or ["?"])[-1]}
        entry["wall_s"] = perf_counter() - start
        report["points"][point] = entry
        print(point, json.dumps(entry), flush=True)
    out_dir = run.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "scaling.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
