"""Time one fused mc2 run on a large pool, alternating between checkouts.

    python tools/large_pool.py --tree ../rankal-parent --tree . --runs 5

builds a pool from ``make_two_blobs(n=40000, seed=0)`` (``--n``),
normalized and split 0.5 with seed 1000 (20000 pool samples), and runs one
fused query loop on it: diversity, margin and qbc fused by mc2, a random
initial batch, budget 0.003 (60 labels) and one checkpoint, at the budget.

Every run is a fresh subprocess that imports rankal from ``<tree>/src``
under one BLAS thread and times ``run_active_learning`` alone.  Run i goes
through the trees in the given order when i is even and in reverse when i
is odd.  Prints each run as it finishes, then per tree the median and the
quartiles of its run times (``statistics.quantiles``, inclusive method)
and the sha256 of its picks.  Exits 1 if the picks of any two runs differ.
Uses only the standard library; the subprocesses use numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure(n):
    """Seconds of one run on the pool of ``make_two_blobs(n, 0)`` and the sha256 of its picks."""
    from time import perf_counter

    import rankal
    from rankal.data import SplitSpec, make_two_blobs, normalize_features, split_pool
    from rankal.loop import ALConfig, run_active_learning

    test, pool = split_pool(normalize_features(make_two_blobs(n=n, seed=0)), SplitSpec(0.5, 1000))
    cfg = ALConfig(criteria=("diversity", "margin", "qbc"), aggregator="mc2",
                   initial_batch="random", budget=0.003, checkpoints=(0.003,), seed=0)
    start = perf_counter()
    trace = run_active_learning(pool, test, cfg)
    seconds = perf_counter() - start
    picks = [list(it.selected) for it in trace.iterations]
    return {"seconds": seconds, "picks": sum(map(len, picks)),
            "digest": hashlib.sha256(json.dumps(picks).encode()).hexdigest(),
            "rankal": os.path.dirname(os.path.abspath(rankal.__file__))}


def run_one(tree, n):
    """``measure(n)`` in a fresh subprocess that imports rankal from ``tree``."""
    src = os.path.join(tree, "src")
    env = dict(os.environ, PYTHONPATH=src, **dict.fromkeys(BLAS_THREADS, "1"))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", "--n", str(n)],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: the run failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if os.path.dirname(result["rankal"]) != os.path.abspath(src):
        raise RuntimeError(f"{tree}: imported rankal from {result['rankal']}")
    return result


def report(trees, results):
    """(summary lines, whether every run picked the same) for the ``results``
    of each of ``trees``, one list of ``run_one`` results per tree."""
    lines = []
    for tree, runs in zip(trees, results):
        seconds = [r["seconds"] for r in runs]
        q1, q3 = ((statistics.quantiles(seconds, n=4, method="inclusive")[::2])
                  if len(seconds) > 1 else (seconds[0], seconds[0]))
        digests = sorted({r["digest"] for r in runs})
        lines.append(f"{tree}: median {statistics.median(seconds):.4f} s, quartiles "
                     f"{q1:.4f}-{q3:.4f} s over {len(runs)} runs, picks sha256 {' '.join(digests)}")
    same = len({r["digest"] for runs in results for r in runs}) == 1
    lines.append("picks identical" if same else "PICKS DIFFER")
    return lines, same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", help="root of a checkout (repeatable)")
    parser.add_argument("--runs", type=int, default=5, help="runs per tree")
    parser.add_argument("--n", type=int, default=40000, help="samples before the 0.5 split")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(measure(args.n)))
        return 0
    if not args.tree or args.runs < 1:
        parser.error("need at least one --tree and --runs >= 1")
    trees = [os.path.abspath(t) for t in args.tree]
    results = [[] for _ in trees]
    for i in range(args.runs):
        for k in range(len(trees)) if i % 2 == 0 else reversed(range(len(trees))):
            result = run_one(trees[k], args.n)
            results[k].append(result)
            print(f"run {i} {trees[k]}: {result['seconds']:.4f} s, {result['picks']} picks, "
                  f"sha256 {result['digest']}", flush=True)
    lines, same = report(trees, results)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
