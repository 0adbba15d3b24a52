"""Command-line entry points.

Verbs:

* ``aggregate``  -- run one aggregation method on a rank-list CSV
* ``toy-table2`` -- run the built-in 10-sample benchmark against its frozen
  expectations (exit 1 on any FAIL)
* ``run``        -- execute a JSON-configured experiment grid
* ``compare``    -- win/tie/loss table between two result directories

Exit codes: 0 success, 1 benchmark check failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from dataclasses import fields, replace

import numpy as np

from . import aggregation as agg
from .data import (
    SplitSpec,
    load_table,
    make_two_blobs,
    normalize_features,
    split_pool,
)
from .evaluation import LearningCurve, win_tie_loss
from .learner import LearnerConfig
from .loop import ALConfig, pool_ted_scores, run_active_learning
from .toy import format_toy_report, run_toy_benchmark


class UsageError(Exception):
    pass


def _read_rank_csv(path):
    ids, columns, id_rows = [], None, {}
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise UsageError(f"{path}: empty rank-list file")
    start = 0
    try:
        [float(v) for v in rows[0]]
    except ValueError:
        start = 1  # header row
    for lineno, row in enumerate(rows[start:], start=start + 1):
        try:
            values = [float(v) for v in row]
        except ValueError as exc:
            raise UsageError(f"{path}: row {lineno}: {exc}") from None
        if columns is None:
            columns = len(values)
            if columns < 2:
                raise UsageError(f"{path}: need an id column plus at least one rank list")
        elif len(values) != columns:
            raise UsageError(f"{path}: row {lineno}: inconsistent field count")
        if not np.all(np.isfinite(values[1:])):
            raise UsageError(f"{path}: row {lineno}: rank values must be finite")
        sid = values[0]
        if not sid.is_integer():
            raise UsageError(f"{path}: row {lineno}: sample id {row[0]!r} is not an integer")
        if sid in id_rows:
            raise UsageError(
                f"{path}: row {lineno}: duplicate sample id {int(sid)} "
                f"(first on row {id_rows[sid]})"
            )
        id_rows[sid] = lineno
        ids.append(values)
    table = np.array(ids)
    sample_ids = table[:, 0].astype(int)
    ranks = table[:, 1:].T  # (L, n)
    if np.any(ranks < 1):
        raise UsageError(f"{path}: ranks must be >= 1")
    return sample_ids, ranks


def _read_weights(path, n_lists):
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                value = float(line)
            except ValueError:
                value = np.nan
            if not np.isfinite(value):
                raise UsageError(
                    f"{path}: row {lineno}: weight {line.strip()!r} is not a finite number"
                )
            values.append(value)
    if len(values) != n_lists:
        raise UsageError(f"{path}: expected {n_lists} weights, got {len(values)}")
    w = np.array(values)
    if np.any(w < 0) or w.sum() <= 0:
        raise UsageError(f"{path}: weights must be non-negative with positive sum")
    if abs(w.sum() - 1.0) > 1e-9:
        print(f"note: weights sum to {w.sum():g}; normalizing to 1")
        w = w / w.sum()
    return w


def cmd_aggregate(args):
    sample_ids, ranks = _read_rank_csv(args.lists)
    weights = (
        _read_weights(args.weights, len(ranks))
        if args.weights
        else np.full(len(ranks), 1.0 / len(ranks))
    )
    ranking = agg.aggregate(
        args.method, ranks, weights, ids=sample_ids, n_select=args.n,
        tun1=args.tun1, tun2=args.tun2, p=args.p, truncate=not args.no_truncate,
    )
    print(f"method: {args.method}")
    print("order (best first): " + " ".join(str(i) for i in ranking.ids))
    print("id,aggregate_score,rank")
    by_rank = np.argsort(ranking.ranks)
    for pos, idx in enumerate(by_rank):
        print(f"{sample_ids[idx]},{ranking.scores[pos]:.6g},{ranking.ranks[idx]}")
    for k in range(len(ranks)):
        dk = agg.kendall_distance(ranking.ranks, ranks[k])
        ds = agg.spearman_distance(ranking.ranks, ranks[k])
        print(f"distance to list {k + 1}: kendall={dk} spearman={ds}")
    total = agg.ranking_distances(ranking.ranks, ranks)
    print(f"summed distances: kendall={total[0]} spearman={total[1]}")
    return 0


def cmd_toy_table2(args):
    results = run_toy_benchmark()
    print(format_toy_report(results))
    return 0 if all(r.passed for r in results) else 1


# every ALConfig field except the two the runner sets itself
_METHOD_KEYS = {f.name for f in fields(ALConfig)} - {"seed", "checkpoints"}
_TOP_KEYS = {
    "dataset", "split", "seeds", "checkpoints", "output_dir", "methods",
    "normalize_stats",
}


def _method_config(spec, checkpoints):
    """The ALConfig (seed 0) that one ``methods`` entry describes."""
    spec = dict(spec)
    learner = LearnerConfig(**spec.pop("learner", {}))
    for key in ("criteria", "serial_layers", "fixed_weights"):
        if spec.get(key) is not None:
            spec[key] = tuple(spec[key])
    return ALConfig(learner=learner, checkpoints=tuple(checkpoints), **spec)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load_config(path):
    """The parsed config and one ALConfig per method; UsageError lists every problem."""
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    problems = []
    for key in cfg:
        if key not in _TOP_KEYS:
            problems.append(f"unknown top-level key {key!r}")
    if "dataset" not in cfg:
        problems.append("missing 'dataset'")
    if "output_dir" not in cfg:
        problems.append("missing 'output_dir'")
    seeds = cfg.get("seeds", list(range(10)))
    if not isinstance(seeds, list) or not seeds or not all(
        _is_int(s) and s >= 0 for s in seeds
    ):
        problems.append("'seeds' must be a non-empty list of non-negative integers")
    split = cfg.get("split", {})
    if not isinstance(split, dict) or set(split) - {"test_fraction", "seed"}:
        problems.append("'split' may only hold 'test_fraction' and 'seed'")
    else:
        fraction, split_seed = split.get("test_fraction", 0.5), split.get("seed", 0)
        if not (_is_number(fraction) and 0 < fraction < 1):
            problems.append("'split.test_fraction' must be a number in (0, 1)")
        if not (_is_int(split_seed) and split_seed >= 0):
            problems.append("'split.seed' must be a non-negative integer")
    checkpoints = cfg.get("checkpoints", [0.05, 0.10, 0.15, 0.20, 0.25, 0.30])
    if not isinstance(checkpoints, list) or not all(_is_number(c) for c in checkpoints):
        problems.append("'checkpoints' must be a list of numbers")
        checkpoints = []
    elif any(b <= a for a, b in zip(checkpoints, checkpoints[1:])) or any(
        not 0 < c <= 1 for c in checkpoints
    ):
        problems.append("'checkpoints' must be strictly increasing within (0, 1]")
    methods = cfg.get("methods", [])
    if not methods:
        problems.append("'methods' must list at least one method")
    al_configs, first_index = [], {}
    for i, m in enumerate(methods):
        unknown = [key for key in m if key not in _METHOD_KEYS]
        problems.extend(f"methods[{i}]: unknown key {key!r}" for key in unknown)
        if unknown:
            continue
        try:
            al = _method_config(m, checkpoints)
        except (TypeError, ValueError) as exc:
            problems.append(f"methods[{i}]: {exc}")
            continue
        # traces, curve and summary entry are keyed by the label
        first = first_index.setdefault(al.label, i)
        if first != i:
            problems.append(
                f"methods[{i}]: label {al.label!r} already used by methods[{first}]; "
                "give each method a distinct 'name'"
            )
        if checkpoints and max(checkpoints) > al.budget:
            problems.append(
                f"methods[{i}]: checkpoint {max(checkpoints):g} exceeds budget "
                f"{al.budget:g} and would never be reached"
            )
        al_configs.append(al)
    if cfg.get("normalize_stats", "full") not in ("full", "pool"):
        problems.append("'normalize_stats' must be 'full' or 'pool'")
    if problems:
        raise UsageError("config errors:\n  " + "\n  ".join(problems))
    cfg["seeds"] = seeds
    cfg["checkpoints"] = checkpoints
    cfg["normalize_stats"] = cfg.get("normalize_stats", "full")
    return cfg, al_configs


def _load_dataset(spec):
    if "synthetic" in spec:
        params = dict(spec["synthetic"])
        kind = params.pop("kind", "two-blobs")
        if kind != "two-blobs":
            raise UsageError(f"unknown synthetic dataset {kind!r}")
        return make_two_blobs(**params)
    return load_table(spec["path"], spec.get("format", "dense-csv"))


def _atomic_write(path, text):
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_trace(path, trace, criteria):
    lines = ["iteration,selected," + ",".join(f"w_{c}" for c in criteria)]
    for rec in trace.iterations:
        sel = ";".join(str(s) for s in rec.selected)
        ws = ",".join(
            f"{rec.weights[c]:.10g}" if c in rec.weights else "" for c in criteria
        )
        lines.append(f"{rec.iteration},{sel},{ws}")
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_curve(path, traces):
    lines = ["seed,fraction,n_labeled,accuracy,f1,auc"]
    for trace in traces:
        for cp in trace.checkpoints:
            lines.append(
                f"{trace.seed},{cp.fraction:.10g},{cp.n_labeled},"
                f"{cp.accuracy:.10g},{cp.f1:.10g},{cp.auc:.10g}"
            )
    _atomic_write(path, "\n".join(lines) + "\n")


def _split_normalized(dataset, spec, mode):
    """Split, normalizing with full-dataset (default) or pool-only statistics."""
    if mode == "full":
        return split_pool(normalize_features(dataset), spec)
    test, pool = split_pool(dataset, spec)
    norm_pool = normalize_features(pool.data)
    norm_test = normalize_features(test, stats_from=pool.data)
    return norm_test, replace(pool, data=norm_pool)


def cmd_run(args):
    cfg, al_configs = _load_config(args.config)
    dataset = _load_dataset(cfg["dataset"])
    split = cfg.get("split", {})
    base_split_seed = split.get("seed", 0)
    test_fraction = split.get("test_fraction", 0.5)
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)

    summary = {
        "checkpoints": cfg["checkpoints"],
        "seeds": cfg["seeds"],
        "normalize_stats": cfg["normalize_stats"],
        "methods": {},
    }
    curves = {}
    # every method runs on the same split per seed: split, normalize and solve
    # the self-reconstruction (per ted_lambda) once per seed, not per method
    splits = {
        seed: _split_normalized(
            dataset, SplitSpec(test_fraction, base_split_seed + seed),
            cfg["normalize_stats"],
        )
        for seed in cfg["seeds"]
    }
    ted = {}
    for spec, method_cfg in zip(cfg["methods"], al_configs):
        traces = []
        for seed in cfg["seeds"]:
            test, pool = splits[seed]
            al_cfg = replace(method_cfg, seed=seed)
            key = (seed, al_cfg.ted_lambda)
            if ted.get(key) is None:  # None: no method so far needed them
                ted[key] = pool_ted_scores(pool, al_cfg)
            trace = run_active_learning(pool, test, al_cfg, ted[key])
            _write_trace(
                os.path.join(out, f"trace_{al_cfg.label}_seed{seed}.csv"),
                trace, al_cfg.criteria,
            )
            traces.append(trace)
        _write_curve(os.path.join(out, f"curve_{method_cfg.label}.csv"), traces)
        entry = {"config": spec}
        for metric in ("accuracy", "f1", "auc"):
            curve = LearningCurve.from_traces(traces, metric)
            entry[f"{metric}_mean"] = curve.mean.tolist()
            entry[f"{metric}_sd"] = curve.sd.tolist()
        summary["methods"][method_cfg.label] = entry
        curves[method_cfg.label] = LearningCurve.from_traces(traces)
    names = list(curves)
    if len(names) > 1:
        table = win_tie_loss(curves[names[0]], [curves[n] for n in names[1:]])
        summary["win_tie_loss"] = {
            "target": table.target,
            "baselines": list(table.baselines),
            "verdicts": table.verdicts,
            "totals": table.counts(),
        }
        print(table.format())
    _atomic_write(os.path.join(out, "summary.json"), json.dumps(summary, indent=2))
    print(f"results written to {out}")
    return 0


def _curves_from_dir(path):
    curves = {}
    for fname in sorted(os.listdir(path)):
        if not (fname.startswith("curve_") and fname.endswith(".csv")):
            continue
        method = fname[len("curve_"):-len(".csv")]
        rows = {}
        with open(os.path.join(path, fname), newline="", encoding="utf-8") as fh:
            for rec in csv.DictReader(fh):
                seed = int(rec["seed"])
                rows.setdefault(seed, []).append(
                    (float(rec["fraction"]), float(rec["accuracy"]))
                )
        seeds = sorted(rows)
        fractions = tuple(f for f, _ in rows[seeds[0]])
        values = []
        for seed in seeds:
            if tuple(f for f, _ in rows[seed]) != fractions:
                raise UsageError(f"{fname}: inconsistent checkpoint grid")
            values.append([v for _, v in rows[seed]])
        curves[method] = LearningCurve(method, fractions, np.array(values))
    if not curves:
        raise UsageError(f"{path}: no curve_*.csv files found")
    return curves


def cmd_compare(args):
    curves_a = _curves_from_dir(args.dir_a)
    curves_b = _curves_from_dir(args.dir_b)
    for target in curves_a.values():
        # win_tie_loss rejects differing checkpoint grids and seed sets
        print(win_tie_loss(target, list(curves_b.values())).format())
        print()
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rankal",
        description="Multi-criteria active learning via weighted rank aggregation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("aggregate", help="aggregate a rank-list CSV")
    p.add_argument("lists", help="CSV: column 1 sample id, columns 2..L+1 ranks")
    p.add_argument("--weights", help="file with one weight per list")
    p.add_argument("--method", default="borda-pnorm", choices=agg.METHODS)
    p.add_argument("--n", type=int, default=1, help="batch size for truncation")
    p.add_argument("--tun1", type=float, default=0.05)
    p.add_argument("--tun2", type=int, default=5)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--no-truncate", action="store_true")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("toy-table2", help="run the built-in aggregation benchmark")
    p.set_defaults(func=cmd_toy_table2)

    p = sub.add_parser("run", help="run a JSON-configured experiment")
    p.add_argument("config")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="win/tie/loss between two result dirs")
    p.add_argument("dir_a")
    p.add_argument("dir_b")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
