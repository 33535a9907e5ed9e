"""The traced benchmark run wraps library attributes by name; each must
still exist, so that renaming or dropping one fails here rather than only
in a traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
