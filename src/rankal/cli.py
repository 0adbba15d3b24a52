"""Command-line entry points.

Verbs:

* ``aggregate``  -- run one aggregation method on a rank-list CSV
* ``toy-table2`` -- run the built-in 10-sample benchmark against its frozen
  expectations (exit 1 on any FAIL)
* ``run``        -- execute a JSON-configured experiment grid
* ``compare``    -- win/tie/loss table between two result directories

``run`` checks a config by building the library's objects from it
(``make_two_blobs`` or ``load_table``, ``SplitSpec``, ``ALConfig``,
``LearnerConfig``) and reports each one's error under its key; it checks
itself only what no library type knows (see ``_load_config``).

Exit codes: 0 success, 1 benchmark check failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import os
import sys
import tempfile
from dataclasses import fields, replace

import numpy as np

from . import aggregation as agg
from .data import (
    TABLE_FORMATS,
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

METRICS = ("accuracy", "f1", "auc")  # what each checkpoint records


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
_SYNTHETIC_KEYS = {"kind", *inspect.signature(make_two_blobs).parameters}
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


def _dataset_problems(spec):
    """The problems with the shape of ``dataset``; ``_load_dataset`` checks its values."""
    if not isinstance(spec, dict) or ("synthetic" in spec) == ("path" in spec):
        return ["'dataset' must hold exactly one of 'synthetic' and 'path'"]
    allowed = ("synthetic",) if "synthetic" in spec else ("path", "format")
    problems = [f"'dataset' has unknown key {key!r}" for key in spec if key not in allowed]
    if "path" in spec:
        if not (isinstance(spec["path"], str) and spec["path"]):
            problems.append("'dataset.path' must be a non-empty string")
        fmt = spec.get("format", "dense-csv")
        if not (isinstance(fmt, str) and fmt in TABLE_FORMATS):
            problems.append(
                f"'dataset.format' must be one of {', '.join(map(repr, TABLE_FORMATS))}"
            )
        return problems
    params = spec["synthetic"]
    if not isinstance(params, dict):
        return problems + ["'dataset.synthetic' must be an object"]
    problems += [f"'dataset.synthetic' has unknown key {key!r}"
                 for key in params if key not in _SYNTHETIC_KEYS]
    if params.get("kind", "two-blobs") != "two-blobs":
        problems.append("'dataset.synthetic.kind' must be 'two-blobs'")
    return problems


def _load_dataset(spec):
    if "synthetic" in spec:
        params = dict(spec["synthetic"])
        params.pop("kind", None)  # _dataset_problems accepts only "two-blobs"
        return make_two_blobs(**params)
    return load_table(spec["path"], spec.get("format", "dense-csv"))


def _split_normalized(dataset, spec, mode):
    """Split, normalizing with full-dataset (default) or pool-only statistics."""
    if mode == "full":
        return split_pool(normalize_features(dataset), spec)
    test, pool = split_pool(dataset, spec)
    norm_pool = normalize_features(pool.data)
    norm_test = normalize_features(test, stats_from=pool.data)
    return norm_test, replace(pool, data=norm_pool)


def _seed_run(dataset, split, mode, al_configs, seed):
    """Every method's ALConfig for ``seed``, and the (test, pool) split they all run on."""
    configs = [replace(al, seed=seed) for al in al_configs]  # ALConfig checks the seed
    test, pool = _split_normalized(
        dataset, SplitSpec(split.test_fraction, split.seed + seed), mode
    )
    for part, labels in (("pool", pool.data.labels), ("test", test.labels)):
        if len(np.unique(labels)) < 2:
            raise ValueError(f"the {part} split holds one class")
    return configs, test, pool


def _load_config(path):
    """The parsed config and, per seed, every method's ALConfig and the split they run on.

    Each value is checked by the type that owns it: ``make_two_blobs`` or
    ``load_table``, ``SplitSpec``, ``ALConfig`` and ``LearnerConfig``.  A
    ValueError, TypeError or OSError raised while building one object becomes
    one problem, ``<key>: <message>``.  Checks only the runner can make (key
    names, the shape of ``dataset``, ``seeds``, ``split`` and ``checkpoints``,
    labels, and what the data leaves each run) are made here; those that need
    the splits run once everything else is valid.  UsageError lists every
    problem, before anything is written.
    """
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise UsageError(f"{path}: the config must be a JSON object")
    problems = [f"unknown top-level key {key!r}" for key in cfg if key not in _TOP_KEYS]

    def build(key, make, *args, **kwargs):
        try:
            return make(*args, **kwargs)
        except (TypeError, ValueError, OSError) as exc:  # OSError: an unreadable dataset file
            problems.append(f"{key}: {exc}")
            return None

    dataset = cfg.get("dataset")
    shape = _dataset_problems(dataset) if "dataset" in cfg else ["missing 'dataset'"]
    problems += shape
    if not shape:
        key = "dataset.synthetic" if "synthetic" in dataset else "dataset.path"
        dataset = build(key, _load_dataset, dataset)
    if "output_dir" not in cfg:
        problems.append("missing 'output_dir'")
    seeds = cfg.get("seeds", list(range(10)))
    if not isinstance(seeds, list) or not seeds:
        problems.append("'seeds' must be a non-empty list")
    elif any(seeds.index(s) != j for j, s in enumerate(seeds)):
        problems.append("'seeds' must not repeat a seed")  # it would count twice in the t-tests
    split = cfg.get("split", {})
    if not isinstance(split, dict) or set(split) - {"test_fraction", "seed"}:
        problems.append("'split' may only hold 'test_fraction' and 'seed'")
    else:
        split = build("split", SplitSpec, **split)
    checkpoints = cfg.get("checkpoints", [0.05, 0.10, 0.15, 0.20, 0.25, 0.30])
    if not isinstance(checkpoints, list):
        problems.append("'checkpoints' must be a list of numbers")
        checkpoints = []
    elif not checkpoints:  # a run would write curves without a row
        problems.append("'checkpoints' must be a non-empty list of numbers")
    methods = cfg.get("methods", [])
    if not isinstance(methods, list) or not methods:
        problems.append("'methods' must list at least one method")
        methods = []
    al_configs, first_index = [], {}
    for i, m in enumerate(methods):
        if not isinstance(m, dict):
            problems.append(f"methods[{i}]: must be an object")
            continue
        unknown = [key for key in m if key not in _METHOD_KEYS]
        problems.extend(f"methods[{i}]: unknown key {key!r}" for key in unknown)
        al = None if unknown else build(f"methods[{i}]", _method_config, m, checkpoints)
        if al is None:
            continue
        # traces, curve and summary entry are keyed by the label
        if "/" in al.label or os.sep in al.label:
            problems.append(f"methods[{i}]: name {al.label!r} must not contain a path separator")
        first = first_index.setdefault(al.label, i)
        if first != i:
            problems.append(
                f"methods[{i}]: label {al.label!r} already used by methods[{first}]; "
                "give each method a distinct 'name'"
            )
        al_configs.append(al)
    mode = cfg.get("normalize_stats", "full")
    if mode not in ("full", "pool"):
        problems.append("'normalize_stats' must be 'full' or 'pool'")
    runs = {}
    if not problems:  # the runs need the dataset, the split and every method
        for j, seed in enumerate(seeds):
            run = build(f"seeds[{j}]", _seed_run, dataset, split, mode, al_configs, seed)
            if run is not None:
                runs[seed] = run
        if runs:
            n_pool = len(next(iter(runs.values()))[2].data)  # the same for every seed
            problems += [
                f"methods[{i}]: n_initial {al.n_initial} exceeds the pool's {n_pool} samples"
                for i, al in enumerate(al_configs) if al.n_initial > n_pool
            ]
    if problems:
        raise UsageError("config errors:\n  " + "\n  ".join(problems))
    cfg["seeds"] = seeds
    cfg["checkpoints"] = checkpoints
    cfg["normalize_stats"] = mode
    return cfg, runs


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


def cmd_run(args):
    cfg, runs = _load_config(args.config)
    out = cfg["output_dir"]

    summary = {
        "checkpoints": cfg["checkpoints"],
        "seeds": cfg["seeds"],
        "normalize_stats": cfg["normalize_stats"],
        "methods": {},
    }
    curves = {}
    os.makedirs(out, exist_ok=True)
    # every method runs on the same split per seed: the self-reconstruction
    # (per ted_lambda) is solved once per seed, not per method
    ted = {}
    for i, spec in enumerate(cfg["methods"]):
        traces = []
        for seed in cfg["seeds"]:
            configs, test, pool = runs[seed]
            al_cfg = configs[i]
            key = (seed, al_cfg.ted_lambda)
            if ted.get(key) is None:  # None: no method so far needed them
                ted[key] = pool_ted_scores(pool, al_cfg)
            trace = run_active_learning(pool, test, al_cfg, ted[key])
            _write_trace(
                os.path.join(out, f"trace_{al_cfg.label}_seed{seed}.csv"),
                trace, al_cfg.criteria,
            )
            traces.append(trace)
        label = al_cfg.label
        _write_curve(os.path.join(out, f"curve_{label}.csv"), traces)
        entry = {"config": spec}
        for metric in METRICS:
            curve = LearningCurve.from_traces(traces, metric)
            entry[f"{metric}_mean"] = curve.mean.tolist()
            entry[f"{metric}_sd"] = curve.sd.tolist()
        summary["methods"][label] = entry
        curves[label] = LearningCurve.from_traces(traces)
    names = list(curves)
    if len(names) > 1 and len(cfg["seeds"]) > 1:  # the paired test needs two seeds
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


def _curves_from_dir(path, metric):
    curves = {}
    for fname in sorted(os.listdir(path)):
        if not (fname.startswith("curve_") and fname.endswith(".csv")):
            continue
        method = fname[len("curve_"):-len(".csv")]
        where = os.path.join(path, fname)
        rows = {}
        with open(where, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in ("seed", "fraction", metric)
                       if c not in (reader.fieldnames or ())]
            if missing:
                raise UsageError(f"{where}: row 1: no {', '.join(missing)} column")
            for rec in reader:
                try:
                    seed = int(rec["seed"])
                    point = (float(rec["fraction"]), float(rec[metric]))
                except (TypeError, ValueError):  # TypeError: a short row
                    raise UsageError(
                        f"{where}: row {reader.line_num}: bad seed, fraction or {metric}"
                    ) from None
                if not all(map(math.isfinite, point)):
                    raise UsageError(
                        f"{where}: row {reader.line_num}: fraction and {metric} "
                        "must be finite"
                    )
                rows.setdefault(seed, []).append(point)
        if not rows:
            raise UsageError(f"{where}: row 1: header without data rows")
        seeds = sorted(rows)
        fractions = tuple(f for f, _ in rows[seeds[0]])
        values = []
        for seed in seeds:
            if tuple(f for f, _ in rows[seed]) != fractions:
                raise UsageError(f"{where}: inconsistent checkpoint grid")
            values.append([v for _, v in rows[seed]])
        curves[method] = LearningCurve(method, fractions, np.array(values))
    if not curves:
        raise UsageError(f"{path}: no curve_*.csv files found")
    return curves


def cmd_compare(args):
    curves_a = _curves_from_dir(args.dir_a, args.metric)
    curves_b = _curves_from_dir(args.dir_b, args.metric)
    for target in curves_a.values():
        # win_tie_loss rejects differing checkpoint grids and seed sets
        print(win_tie_loss(target, list(curves_b.values())).format())
        print()
    return 0


def _checked(convert, accept, requirement):
    """argparse ``type=`` rejecting values that fail ``accept`` (exit 2, naming the flag)."""
    def parse(text):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid int value" wording
    return parse


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
    p.add_argument("--n", type=_checked(int, lambda v: v >= 1, "an integer >= 1"), default=1,
                   help="batch size for truncation")
    p.add_argument("--tun1", type=_checked(float, lambda v: 0 < v < 1, "in (0, 1)"), default=0.05)
    p.add_argument("--tun2", type=_checked(int, lambda v: v >= 0, "an integer >= 0"), default=5)
    p.add_argument("--p", type=_checked(float, lambda v: 1 <= v < math.inf, "finite and >= 1"),
                   default=1.0)
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
    p.add_argument("--metric", default="accuracy", choices=METRICS,
                   help="curve column to compare (default: accuracy)")
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
