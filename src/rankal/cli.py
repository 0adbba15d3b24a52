"""Command-line entry points.

Verbs:

* ``aggregate``  -- run one aggregation method on a rank-list CSV
* ``toy-table2`` -- run the built-in 10-sample benchmark against its frozen
  expectations (exit 1 on any FAIL)
* ``run``        -- execute a JSON-configured experiment grid
* ``compare``    -- win/tie/loss table between two result directories

The CLI parses no file itself: ``rankal.data`` reads the dataset, rank-list
and weights files (``load_table``, ``load_rank_lists``, ``load_weights``), and
its ``csv_rows`` and ``parse_number`` split and check the rows of the curve
files that ``_curves_from_dir`` reads back (``_write_curve``'s format), so no
number is parsed here and a bad field is reported with its file and row.  The
CLI keeps argument handling and printing, such as the note that weights not
summing to 1 are normalized.

``run`` checks a config by building the library's objects from it
(``make_two_blobs`` or ``load_table``, ``SplitSpec``, ``ALConfig``,
``LearnerConfig``) and reports each one's error under its key; it checks
itself only what no library type knows (see ``_load_config``).

Exit codes: 0 success, 1 benchmark check failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import tempfile
from dataclasses import fields, replace

import numpy as np

from . import aggregation as agg
from .checks import check_choice
from .data import (
    TABLE_FORMATS,
    SplitSpec,
    csv_rows,
    load_rank_lists,
    load_table,
    load_weights,
    make_two_blobs,
    normalize_features,
    parse_number,
    split_pool,
    held_out_size,
)
from .evaluation import LearningCurve, win_tie_loss
from .learner import LearnerConfig
from .loop import ALConfig, pool_ted_scores, run_active_learning
from .toy import format_toy_report, run_toy_benchmark

METRICS = ("accuracy", "f1", "auc")  # what each checkpoint records


class UsageError(Exception):
    pass


def cmd_aggregate(args):
    sample_ids, ranks = load_rank_lists(args.lists)
    if args.weights:
        weights = load_weights(args.weights, len(ranks))
        if abs(weights.sum() - 1.0) > 1e-9:
            print(f"note: weights sum to {weights.sum():g}; normalizing to 1")
            weights = weights / weights.sum()
    else:
        weights = np.full(len(ranks), 1.0 / len(ranks))
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
    total_k = total_s = 0
    for k in range(len(ranks)):
        dk = agg.kendall_distance(ranking.ranks, ranks[k])
        ds = agg.spearman_distance(ranking.ranks, ranks[k])
        # 15 digits: a whole footrule prints as an integer, and 1.1 - 1 as 0.1
        print(f"distance to list {k + 1}: kendall={dk} spearman={ds:.15g}")
        total_k, total_s = total_k + dk, total_s + ds
    print(f"summed distances: kendall={total_k} spearman={total_s:.15g}")
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


def _choice_problems(name, value, options):
    """``check_choice``'s message as the one problem in a list, or []."""
    try:
        check_choice(name, value, options)
    except ValueError as exc:
        return [str(exc)]
    return []


def _dataset_problems(spec):
    """The problems with the shape of ``dataset``; ``_load_dataset`` checks its values."""
    if not isinstance(spec, dict) or ("synthetic" in spec) == ("path" in spec):
        return ["'dataset' must hold exactly one of 'synthetic' and 'path'"]
    allowed = ("synthetic",) if "synthetic" in spec else ("path", "format")
    problems = [f"'dataset' has unknown key {key!r}" for key in spec if key not in allowed]
    if "path" in spec:
        if not (isinstance(spec["path"], str) and spec["path"]):
            problems.append("'dataset.path' must be a non-empty string")
        return problems + _choice_problems("'dataset.format'", spec.get("format", "dense-csv"),
                                           TABLE_FORMATS)
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
    names, the shape of ``dataset``, ``output_dir``, ``seeds``, ``split`` and
    ``checkpoints``, labels, and what the data leaves each run) are made
    here; those that need the splits run once everything else is valid,
    the split's sizes (the same for every seed) once for all seeds.
    UsageError lists every problem, before anything is written.
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
    elif not (isinstance(cfg["output_dir"], str) and cfg["output_dir"]):
        problems.append("'output_dir' must be a non-empty string")
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
    problems += _choice_problems("'normalize_stats'", mode, ("full", "pool"))
    runs = {}
    # the runs need the dataset, the split and every method; the split's sizes
    # do not depend on the seed, so they are checked once, as the first seed's
    n_test = None if problems else build(
        "seeds[0]", held_out_size, len(dataset), split.test_fraction)
    if n_test is not None:
        for j, seed in enumerate(seeds):
            run = build(f"seeds[{j}]", _seed_run, dataset, split, mode, al_configs, seed)
            if run is not None:
                runs[seed] = run
        if runs:
            n_pool = len(dataset) - n_test
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
                trace, dict.fromkeys(al_cfg.criteria),  # one column per distinct name
            )
            traces.append(trace)
        label = al_cfg.label
        _write_curve(os.path.join(out, f"curve_{label}.csv"), traces)
        entry = {"config": spec}
        for metric in METRICS:
            curve = LearningCurve.from_traces(traces, metric)
            entry[f"{metric}_mean"] = curve.mean.tolist()
            entry[f"{metric}_sd"] = curve.sd.tolist()
            if metric == "accuracy":  # the curve win_tie_loss compares
                curves[label] = curve
        summary["methods"][label] = entry
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
    """Each ``curve_<method>.csv`` in ``path`` (``_write_curve``'s format) as
    (its file, its seeds in ascending order, a LearningCurve)."""
    columns = ("seed", "fraction", metric)
    curves = {}
    for fname in sorted(os.listdir(path)):
        if not (fname.startswith("curve_") and fname.endswith(".csv")):
            continue
        method = fname[len("curve_"):-len(".csv")]
        where = os.path.join(path, fname)
        rows = csv_rows(where)
        header_row, header = next(rows, (1, []))
        missing = [c for c in columns if c not in header]
        if missing:
            raise UsageError(f"{where}: row {header_row}: no {', '.join(missing)} column")
        at = [header.index(c) for c in columns]
        points = {}
        for row, fields in rows:
            seed, fraction, value = (
                parse_number(where, row, fields[j], name, integer=name == "seed")
                for j, name in zip(at, columns)
            )
            points.setdefault(seed, []).append((fraction, value))
        if not points:
            raise UsageError(f"{where}: row {header_row}: header without data rows")
        seeds = sorted(points)
        if len(seeds) < 2:  # win/tie/loss is a paired test over the seeds
            raise UsageError(f"{where}: holds one seed; a comparison needs at least 2")
        fractions = tuple(f for f, _ in points[seeds[0]])
        values = []
        for seed in seeds:
            if tuple(f for f, _ in points[seed]) != fractions:
                raise UsageError(f"{where}: inconsistent checkpoint grid")
            values.append([v for _, v in points[seed]])
        curves[method] = (where, [int(s) for s in seeds],
                          LearningCurve(method, fractions, np.array(values)))
    if not curves:
        raise UsageError(f"{path}: no curve_*.csv files found")
    return curves


def cmd_compare(args):
    curves_a = _curves_from_dir(args.dir_a, args.metric)
    curves_b = _curves_from_dir(args.dir_b, args.metric)
    for where_a, seeds_a, _ in curves_a.values():
        for where_b, seeds_b, _ in curves_b.values():
            if seeds_a != seeds_b:  # the t-tests pair the curves seed by seed
                raise UsageError(f"{where_a} holds seeds {seeds_a} but {where_b} holds seeds "
                                 f"{seeds_b}; a paired comparison needs the same seeds")
    baselines = [curve for _, _, curve in curves_b.values()]
    for _, _, target in curves_a.values():
        # win_tie_loss rejects differing checkpoint grids
        print(win_tie_loss(target, baselines).format())
        print()
    return 0


def _checked(convert, name):
    """argparse ``type=`` for the aggregation option ``name``: ``convert``, then
    ``check_options``; a rejected value exits 2 naming the flag, the rule and the text."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = text  # not a number: check_options rejects it with its rule
        try:
            agg.check_options(**{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None
        return value
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
    p.add_argument("--n", type=_checked(int, "n_select"), default=1,
                   help="batch size for truncation")
    p.add_argument("--tun1", type=_checked(float, "tun1"), default=0.05)
    p.add_argument("--tun2", type=_checked(int, "tun2"), default=5)
    p.add_argument("--p", type=_checked(float, "p"), default=1.0)
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
