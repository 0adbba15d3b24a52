"""Alternating benchmark pairs between two checkouts of rankal.

    python tools/bench_pairs.py run --parent ../rankal-parent --change . \\
        --pairs 10 --seconds 28 --seed 3200 --raw pairs.jsonl \\
        --workloads aggregate-mix fused-mc2 run-grid

runs ``python3 perfbench/run.py --workload <w> --seed <s> --seconds <t>
--trace 0`` from the root of each checkout, ``--pairs`` times per workload.
Pair i runs seed ``--seed + i`` on both sides, the parent first when i is
even and the change first when i is odd; the workloads run one after
another.  Each run's last output line (perfbench's JSON object) is appended
to ``--raw`` as one JSON line ``{"workload", "pair", "seed", "side",
"position", "result"}`` as soon as it finishes, so a stopped series keeps
what it ran.

    python tools/bench_pairs.py summarize pairs.jsonl [--json]

prints, per workload and end-to-end metric, the parent's and the change's
medians, the parent's interquartile range (``statistics.quantiles``,
inclusive method), the change's relative gap and its wins: the pairs in
which the change is better, in the direction that ``BENCHMARK.json`` gives
(read from the current directory, or ``--spec``).  It also prints two
verdicts per metric:

* ``gain``: the change wins at least 9 in 10 of the pairs, and its median
  is better than the parent's by more than the parent's IQR;
* ``worse_beyond_bound``: the change's median is worse than the parent's
  by more than the metric's ``bound`` in ``BENCHMARK.json``, relative to
  the parent's median.

``run`` prints the same summary at the end.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_one(checkout, workload, seed, seconds):
    """perfbench's JSON result for one run from the root of ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def run_pairs(checkouts, workloads, pairs, seconds, seed, raw_path):
    """Run the alternating pairs, appending each result to ``raw_path``; returns the records."""
    records = []
    for workload in workloads:
        for i in range(pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                record = {"workload": workload, "pair": i, "seed": seed + i, "side": side,
                          "position": position,
                          "result": run_one(checkouts[side], workload, seed + i, seconds)}
                records.append(record)
                with open(raw_path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
                print(f"{workload} pair {i} {side}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in record["result"]["metrics"].items()),
                    flush=True)
    return records


def read_records(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summarize(records, better, bounds=None):
    """Per workload: pair count, failed and correct per side, and per metric in
    ``better`` (name -> "lower" or "higher") the medians, the parent's IQR,
    the relative gap of the medians, the change's wins and the two verdicts
    (see the module docstring).  ``bounds`` maps a metric to its relative
    bound; ``worse_beyond_bound`` is None for a metric without one.

    Only pairs with both sides recorded count.
    """
    bounds = bounds or {}
    runs = {}
    for rec in records:
        runs.setdefault(rec["workload"], {}).setdefault(rec["pair"], {})[rec["side"]] = rec["result"]
    summary = {}
    for workload, by_pair in runs.items():
        pairs = [by_pair[i] for i in sorted(by_pair) if len(by_pair[i]) == 2]
        entry = {
            "pairs": len(pairs),
            "failed": {s: [p[s]["failed"] for p in pairs] for s in SIDES},
            "correct": {s: all(p[s]["correct"] for p in pairs) for s in SIDES},
            "metrics": {},
        }
        for name, direction in better.items():
            values = {s: [p[s]["metrics"][name]["value"] for p in pairs
                          if name in p[s]["metrics"]] for s in SIDES}
            if not pairs or len(values["parent"]) != len(pairs) or len(values["change"]) != len(pairs):
                continue
            sign = 1 if direction == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            median = {s: statistics.median(values[s]) for s in SIDES}
            if len(pairs) > 1:
                q1, _, q3 = statistics.quantiles(values["parent"], n=4, method="inclusive")
            else:
                q1 = q3 = values["parent"][0]
            # how much better the change's median is, in the metric's direction
            gap = sign * (median["parent"] - median["change"])
            bound = bounds.get(name)
            entry["metrics"][name] = {
                "parent": values["parent"],
                "change": values["change"],
                "median_parent": median["parent"],
                "median_change": median["change"],
                "median_change_pct": (100 * (median["change"] / median["parent"] - 1)
                                      if median["parent"] else None),
                "parent_iqr": q3 - q1,
                "change_wins": wins,
                "gain": 10 * wins >= 9 * len(pairs) and gap > q3 - q1,
                "worse_beyond_bound": (None if bound is None
                                       else -gap > bound * abs(median["parent"])),
            }
        summary[workload] = entry
    return summary


def format_summary(summary):
    lines = []
    for workload, entry in summary.items():
        lines.append(f"{workload}: {entry['pairs']} pairs, failed parent "
                     f"{sum(entry['failed']['parent'])} change {sum(entry['failed']['change'])}, "
                     f"correct parent {entry['correct']['parent']} "
                     f"change {entry['correct']['change']}")
        for name, m in entry["metrics"].items():
            pct = "n/a" if m["median_change_pct"] is None else f"{m['median_change_pct']:+.2f}%"
            verdict = "gain" if m["gain"] else "no gain"
            if m["worse_beyond_bound"]:
                verdict += ", WORSE BEYOND BOUND"
            lines.append(f"  {name:16s} parent {m['median_parent']:.6g}  change "
                         f"{m['median_change']:.6g}  ({pct})  parent IQR {m['parent_iqr']:.3g}  "
                         f"change wins {m['change_wins']}/{entry['pairs']}  {verdict}")
    return "\n".join(lines)


def directions(spec_path, field="better"):
    """Metric name -> its ``field`` in BENCHMARK.json's end-to-end metrics: by
    default "lower" or "higher", with ``field="bound"`` the relative bound."""
    with open(spec_path, encoding="utf-8") as fh:
        return {m["name"]: m[field] for m in json.load(fh)["end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run alternating pairs, then summarize them")
    p.add_argument("--parent", required=True, help="root of the parent checkout")
    p.add_argument("--change", required=True, help="root of the changed checkout")
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=28)
    p.add_argument("--seed", type=int, required=True, help="seed of pair 0; pair i runs seed + i")
    p.add_argument("--raw", required=True, help="JSON-lines file the results are appended to")
    p.add_argument("--spec", default="BENCHMARK.json")
    p = sub.add_parser("summarize", help="summarize a JSON-lines file of earlier pairs")
    p.add_argument("raw")
    p.add_argument("--spec", default="BENCHMARK.json")
    p.add_argument("--json", action="store_true", help="print the summary as JSON")
    args = parser.parse_args(argv)

    better, bounds = directions(args.spec), directions(args.spec, "bound")
    if args.command == "run":
        checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
        records = run_pairs(checkouts, args.workloads, args.pairs, args.seconds, args.seed, args.raw)
        print(format_summary(summarize(records, better, bounds)))
    else:
        summary = summarize(read_records(args.raw), better, bounds)
        print(json.dumps(summary, indent=1) if args.json else format_summary(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
