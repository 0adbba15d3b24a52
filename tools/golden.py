"""Digests of the outputs that an exact change must leave byte-identical.

    python tools/golden.py           # one "<sha256>  <output>" row per output
    python tools/golden.py --pin     # rewrite tests/golden.json from this tree

Each output is a list of named text records:

* ``toy-table2``: the stdout of ``rankal toy-table2``;
* ``aggregate``: the stdout of ``rankal aggregate sample_data/rank_lists.csv``
  for every method, with default flags and with ``--no-truncate --n 3
  --tun2 1 --p 2``;
* ``run-grid``: the files of a ``rankal run`` output directory, one record per
  file, its stdout with the output path masked, and ``compare``: the stdout
  of ``rankal compare`` on that directory against itself, with and without
  ``--metric auc``.  The config runs five methods over seeds 0-2 on the
  600-sample blobs;
* ``acceptance-7``: the 20 traces of acceptance 7 (seeds 0-9, fused mc2 and
  random): picks and checkpoint records exact, weights written as the trace
  CSV writes them (``.10g``).

A record's digest is the sha256 of its text; an output's digest is the
sha256 of its records' names and digests, in order.  ``tests/golden.json``
pins the record digests; ``tests/test_golden.py`` recomputes them in one
subprocess (``--records``) and names the first record that differs.  Picks
depend on the BLAS thread count, so run as a script this sets it to 1 before
numpy loads.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINNED = os.path.join(ROOT, "tests", "golden.json")
SAMPLE_RANKS = os.path.join(ROOT, "sample_data", "rank_lists.csv")
THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

AGGREGATE_FLAGS = ([], ["--no-truncate", "--n", "3", "--tun2", "1", "--p", "2"])
RUN_METHODS = [
    {"name": "fused-mc2", "criteria": ["diversity", "margin", "qbc"],
     "aggregator": "mc2", "n_select": 1},
    {"name": "fused-bucklin", "criteria": ["ted", "diversity", "margin"],
     "aggregator": "bucklin", "n_select": 3},
    {"name": "serial", "strategy": "serial", "criteria": ["diversity", "margin"]},
    {"name": "parallel", "strategy": "parallel", "criteria": ["diversity", "margin"],
     "fixed_weights": [0.5, 0.5]},
    {"name": "random", "strategy": "random"},
]
RUN_BLOBS = {"n": 600, "n_features": 5, "center_distance": 2.2, "sigma": 0.7,
             "pos_fraction": 0.35, "seed": 0}  # data.benchmark_blobs(0)


def _cli(*argv):
    """``rankal.cli.main(argv)``'s stdout; raises unless it exits 0."""
    from rankal import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"rankal {' '.join(argv)} exited {code}")
    return out.getvalue()


def toy_records():
    return [("stdout", _cli("toy-table2"))]


def aggregate_records():
    from rankal.aggregation import METHODS

    return [(" ".join([method, *flags]), _cli("aggregate", SAMPLE_RANKS, "--method", method,
                                              *flags))
            for flags in AGGREGATE_FLAGS for method in METHODS]


def run_records():
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "results")
        cfg = {
            "dataset": {"synthetic": RUN_BLOBS},
            "split": {"test_fraction": 0.5, "seed": 1000},
            "seeds": [0, 1, 2],
            "checkpoints": [0.05, 0.1, 0.15],
            "output_dir": out,
            "methods": [dict(m, budget=0.15) for m in RUN_METHODS],
        }
        path = os.path.join(work, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        stdout = _cli("run", path).replace(out, "<output_dir>")
        records = []
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                records.append((name, fh.read()))
        compare = "".join(_cli("compare", out, out, *flags) for flags in ([], ["--metric", "auc"]))
    return records + [("stdout", stdout), ("compare", compare)]


def trace_text(trace):
    """One line per query (picks, then weights as ``.10g``) and per checkpoint (exact)."""
    lines = []
    for rec in trace.iterations:
        picks = " ".join(str(int(i)) for i in rec.selected)
        weights = " ".join(f"{c}={w:.10g}" for c, w in rec.weights.items())
        lines.append(f"{rec.iteration}: {picks} | {weights}")
    for cp in trace.checkpoints:
        lines.append(" ".join(repr(float(v)) for v in (cp.fraction, cp.accuracy, cp.f1, cp.auc))
                     + f" n_labeled={cp.n_labeled}")
    return "\n".join(lines) + "\n"


def acceptance7_records():
    from rankal.data import SplitSpec, benchmark_blobs, normalize_features, split_pool
    from rankal.loop import ALConfig, run_active_learning

    dataset = normalize_features(benchmark_blobs(seed=0))
    checkpoints = (0.1, 0.2, 0.3)
    records = []
    for seed in range(10):
        test, pool = split_pool(dataset, SplitSpec(0.5, 1000 + seed))
        arms = {
            "fused": ALConfig(criteria=("diversity", "margin", "qbc"), aggregator="mc2",
                              n_select=1, budget=0.3, checkpoints=checkpoints, seed=seed),
            "random": ALConfig(strategy="random", name="random", budget=0.3,
                               checkpoints=checkpoints, seed=seed),
        }
        for arm, cfg in arms.items():
            records.append((f"seed{seed} {arm}",
                            trace_text(run_active_learning(pool, test, cfg))))
    return records


OUTPUTS = {
    "toy-table2": toy_records,
    "aggregate": aggregate_records,
    "run-grid": run_records,
    "acceptance-7": acceptance7_records,
}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record_digests(records):
    """``{name: sha256 of text}`` for ``[(name, text), ...]``, in order."""
    return {name: sha256(text) for name, text in records}


def output_digest(digests):
    """The sha256 of an output's ``{record name: digest}``, in order."""
    return sha256("".join(f"{name} {d}\n" for name, d in digests.items()))


def first_difference(want, got):
    """The first record name whose digest differs between two ``{name: digest}``, or None."""
    for name in list(want) + [n for n in got if n not in want]:
        if want.get(name) != got.get(name):
            return name
    return None


def all_records():
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    return {name: make() for name, make in OUTPUTS.items()}


def main(argv):
    records = all_records()
    if argv == ["--records"]:
        json.dump(records, sys.stdout)
    elif argv == ["--pin"]:
        with open(PINNED, "w", encoding="utf-8") as fh:
            json.dump({name: record_digests(r) for name, r in records.items()}, fh, indent=1)
            fh.write("\n")
    elif not argv:
        for name, r in records.items():
            print(f"{output_digest(record_digests(r))}  {name}")
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    os.environ.update(THREADS)  # before numpy loads, in all_records
    sys.exit(main(sys.argv[1:]))
