#!/usr/bin/env python3
"""mvprune benchmark: one workload per process, every output checked.

    python3 perfbench/run.py --workload planted-mvp --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the library from its
``src/``. The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the same work runs with the per-layer wrappers of ``layers.py`` installed and
the metrics are the per-layer ones. Progress and a summary go to stderr. The
exit code is 0 when every output check passed, 1 when one failed, and 2 when
the library cannot be found or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
from statistics import median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(BENCH_DIR, ".work")

# One BLAS thread: the library's matmuls are small, and a thread pool would
# spread the larger ones over the machine's other core.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(run, rounds) -> dict:
    """Each timing but set-up is taken per round, and the run reports its
    median over the rounds: rounds spread over the whole run follow the
    machine's drifting speed, and the median drops a round that a stall
    slowed."""
    done = [r for r in rounds if r.failed is None]
    if not done:
        return {}
    recall, _ = run.recall(done[0])
    return {
        "setup_s": (median(run.setup_times), "s"),
        "run_s": (median(r.seconds for r in done), "s"),
        "train_graphs_per_s": (median(r.train_steps / r.train_seconds for r in done), "1/s"),
        "eval_graphs_per_s": (median(len(r.latencies) / r.eval_seconds for r in done), "1/s"),
        "forward_ms_p50": (1000.0 * median(percentile(r.latencies, 50) for r in done), "ms"),
        "forward_ms_p99": (1000.0 * median(percentile(r.latencies, 99) for r in done), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "anomaly_recall": (recall, "share"),
    }


def per_layer(run, rounds, self_time_sum) -> dict:
    """Median per set-up plus median per round, for every metric whose source exists."""
    if not run.layers_setup or not run.layers_rest:
        return {}
    names = run.layers_setup[0].keys()
    done = [r for r in rounds if r.failed is None]
    whole = [{m: t[m] + rest[m] for m in names}
             for t, rest in zip(run.layers_train, run.layers_rest)]
    out = {}
    for m in names:
        value = median(s[m] for s in run.layers_setup) + median(w[m] for w in whole)
        out[m] = (value, "s" if m.endswith("_s") else "count")
    unattributed = [r.train_seconds - self_time_sum(t) for r, t in zip(done, run.layers_train)]
    out["train.unattributed_s"] = (median(unattributed), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mvprune benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mvprune", "__init__.py")):
        print(f"error: no mvprune sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [SRC, BENCH_DIR]
    import mvprune
    if os.path.dirname(os.path.dirname(os.path.abspath(mvprune.__file__))) != SRC:
        print(f"error: imported mvprune from {mvprune.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"valid: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT)
    try:
        run = workloads.Run(workloads.WORKLOADS[args.workload], args.seed, work, SRC)
        run.make_corpus()
        if args.trace:
            with layers.Tracer() as run.tracer:
                rounds = run.measure(args.seconds)
            metrics = per_layer(run, rounds, layers.self_time_sum)
            traced = end_to_end(run, rounds)
            print("traced end-to-end: " + ", ".join(
                f"{k} {v:.4g}" for k, (v, _) in traced.items()), file=sys.stderr)
            if "train.unattributed_s" in metrics:
                train_s = median(r.train_seconds for r in rounds if r.failed is None)
                print(f"layer self times cover "
                      f"{1 - metrics['train.unattributed_s'][0] / train_s:.3f} "
                      f"of {train_s:.3f} s training wall time", file=sys.stderr)
        else:
            rounds = run.measure(args.seconds)
            metrics = end_to_end(run, rounds)
        problems = run.check(rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops = run.operations_per_round()
    attempted = len(rounds) * ops
    failed = sum(ops for r in rounds if r.failed)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {len(run.dataset)} graphs, "
          f"numpy {np.__version__}, set-up samples "
          + " ".join(f"{t:.3f}" for t in run.setup_times) + " s", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
