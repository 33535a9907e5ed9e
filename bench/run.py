"""Benchmark entry point.

    python3 bench/run.py --workload extract-trained --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` and the synthetic-data helpers from ``tests/``.  With ``--trace 0``
the run times each workload's fixed job in rounds (one per ROUND_S of
``--seconds``, at least one), takes each op's best round and prints every
end-to-end metric of BENCHMARK.json.  The host's CPU speed drifts, so
between ops a fixed reference kernel is timed and each op time is rescaled
to the speed at which that kernel takes REFERENCE_S; the raw wall-clock
figures are printed beside the rescaled ones.  With
``--trace 1`` it runs the job once untraced and once traced and prints every
per-layer metric.  Either way the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, set before anything imports numpy: the closed-loop client
# is single-threaded and thread pools only add noise on a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracing import Tracer, percentile

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.json"
# Wall time budgeted per round of a workload's fixed job, counting the run's
# share of the setups, warm-up, output checks and interpreter start.  On a
# 2-core host a two-round run takes 28-45 s for extract-trained, 28-43 s for
# extract-dense and 13-25 s for query-corpus as the host's speed drifts.
ROUND_S = 20.0


def _import_library():
    """Import the library and test helpers from this checkout, or exit non-zero."""
    if not (ROOT / "src" / "causalkg").is_dir() or not (ROOT / "tests" / "synth.py").is_file():
        sys.exit(f"bench: {ROOT} is not a causalkg source checkout (src/causalkg, tests/synth.py)")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy
    import causalkg
    import workloads

    if Path(causalkg.__file__).resolve().parent != ROOT / "src" / "causalkg":
        sys.exit(f"bench: imported causalkg from {causalkg.__file__}, not from this checkout")
    return numpy, workloads


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _setup(workload, seed: int, workdir: Path, sizes, clock):
    """Set up sizes.setups times from scratch; keep the last context.
    Returns each setup's time rescaled to the reference host speed."""
    spans, ctx = [], None
    for i in range(sizes.setups):
        target = workdir / f"setup{i}"
        if i:
            shutil.rmtree(workdir / f"setup{i - 1}")
        target.mkdir(parents=True)
        clock.sample()
        start = perf_counter()
        ctx = workload.setup(seed, str(target), sizes)
        spans.append((start, perf_counter() - start))
        clock.sample()
    times = [seconds * clock.scale(start) for start, seconds in spans]
    # Setup objects live for the whole run; keep the collector from
    # rescanning them during every timed op.
    gc.collect()
    gc.freeze()
    return ctx, times


def _reference_digest(workload: str, seed: int) -> str | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def end_to_end(record, op_kind: str, setup_times, rounds: int, clock) -> tuple[dict, dict]:
    """Gated figures use op times rescaled to the reference host speed; the
    raw wall-clock figures are printed beside them."""
    lat, raw = record.best(op_kind, clock), record.best(op_kind)
    values = {
        "setup_s": statistics.median(setup_times),
        "job_s": sum(record.best(clock=clock)),
        "op_ms_p50": percentile(lat, 50) * 1e3,
        "op_ms_p90": percentile(lat, 90) * 1e3,
        "ops_per_s": len(lat) / sum(lat) if lat else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    ops = f"{len(lat)} {op_kind} ops, best of {rounds} rounds"
    samples = {
        "setup_s": f"{len(setup_times)} setups",
        "job_s": f"{len(record.kinds)} ops, best of {rounds} rounds; raw {sum(record.best()):.6g} s",
        "op_ms_p50": f"{ops}; raw {percentile(raw, 50) * 1e3:.6g} ms",
        "op_ms_p90": f"{ops}; raw {percentile(raw, 90) * 1e3:.6g} ms",
        "ops_per_s": f"{ops}; raw {len(raw) / sum(raw) if raw else 0.0:.6g} 1/s",
        "peak_rss_mb": "1 process",
    }
    return values, samples


def main(argv=None, sizes=None) -> int:
    args = _parse(argv)
    numpy, workloads = _import_library()

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    sizes = sizes or workloads.Sizes()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    # rounds follow from the time budget alone, never from a measurement, so
    # every run of a workload times the same number of rounds
    rounds = max(1, int(args.seconds / ROUND_S + 0.5))

    print(
        f"env python={platform.python_version()} numpy={numpy.__version__} nproc={os.cpu_count()} "
        f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} rounds={1 if args.trace else rounds} trace={args.trace}"
    )
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    record = workloads.Record()
    try:
        clock = workloads.HostClock()
        ctx, setup_times = _setup(workload, args.seed, workdir, sizes, clock)
        if args.trace:
            workloads.run_round(workload.job(ctx), record, clock=clock)
            tracer = Tracer()
            with tracer.installed():
                workloads.run_round(workload.job(ctx), record, tracer, clock)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(str(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"))
            values = tracer.layer_metrics(record.round_s[1])
            epoch_ms = getattr(ctx, "epoch_ms", [])
            values["training.epoch_ms_p50"] = percentile(epoch_ms, 50)
            values["training.epoch_ms_p90"] = percentile(epoch_ms, 90)
            # both rounds rescaled to the reference host speed, so host drift
            # between them does not read as tracing cost
            untraced_s, traced_s = (
                sum(seconds * clock.scale(start) for start, seconds in (t[r] for t in record.times if len(t) > r))
                for r in (0, 1)
            )
            values["trace.overhead_s"] = traced_s - untraced_s
            samples = {}
            names = [m["name"] for m in spec["per_layer"]]
        else:
            for _ in range(rounds):
                workloads.run_round(workload.job(ctx), record, clock=clock)
            values, samples = end_to_end(record, workload.op_kind, setup_times, rounds, clock)
            print(
                f"host reference kernel median {statistics.median(clock.seconds) * 1e3:.4g} ms over "
                f"{len(clock.seconds)} samples; times below are rescaled to {workloads.REFERENCE_S * 1e3:g} ms"
            )
            names = [m["name"] for m in spec["end_to_end"]]
        workload.final_checks(ctx, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = _reference_digest(args.workload, args.seed)
    digest_ok = reference in (None, record.digest)
    status = (
        "no reference for this seed" if reference is None
        else "matches the reference" if digest_ok
        else f"DIFFERS from the reference {reference}"
    )
    print(f"digest {record.digest} ({status})")
    if getattr(ctx, "oracle_checked", None) is not None:
        print(f"oracle compared {ctx.oracle_checked} sampled queries")
    for problem in record.problems:
        print(f"failed: {problem}")
    for name in names:
        note = f" (n={samples[name]})" if name in samples else ""
        print(f"metric {name} = {values[name]:.6g} {units[name]}{note}")
    share = record.failed / record.attempted if record.attempted else 1.0
    print(f"ops attempted={record.attempted} failed={record.failed} failed_share={share:g}")
    result = {
        "correct": record.failed == 0 and record.attempted > 0 and digest_ok,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
