"""Repeat the benchmark over seeds and record medians, spreads and a trace.

Run from the repository root:

    python3 perfbench/prove.py --seeds 1-10 --write perfbench/baseline.json

For every workload in BENCHMARK.json it runs ``run.py`` once per seed with
tracing off, then once traced (first seed).  For each end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread (q3 - q1) / median next to the metric's bound; the bound is
met when the spread stays below a third of it.  ``--write`` records the
result, with the readable report names, as the baseline.

A second set of the same code checks that two sets agree:

    python3 perfbench/prove.py --seeds 1-10 --no-trace --repeat-of perfbench/baseline.json

prints each median's change against the baseline's next to the bound and
records the set in that file under ``repeat_end_to_end``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

HELD_OUT_SEED = 7717  # confirm claims on this seed; it is not used while tuning


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(spec, workload, seed, trace):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    report = {}
    for line in lines[2:-1]:  # "  name  value unit" rows of the readable report
        *name, value, unit = line.split()
        report[" ".join(name)] = float(value)
    return result, report


def stats(values, bound=None):
    q1, med, q3 = statistics.quantiles(values, n=4)
    out = {"median": statistics.median(values), "q1": q1, "q3": q3,
           "spread": (q3 - q1) / statistics.median(values), "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--write", help="path of the baseline JSON to write")
    parser.add_argument("--repeat-of", help="baseline JSON to compare with and add to")
    args = parser.parse_args()
    first = None
    if args.repeat_of:
        with open(args.repeat_of, encoding="utf-8") as fh:
            first = json.load(fh)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {"held_out_seed": HELD_OUT_SEED, "seeds": args.seeds,
                "run_seconds": spec["run_seconds"], "workloads": {}}
    for w in spec["workloads"]:
        if args.workloads and w["name"] not in args.workloads:
            continue
        values, reports = {}, {}
        for seed in args.seeds:
            result, report = run(spec, w["name"], seed, 0)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            for k, v in report.items():
                reports.setdefault(k, []).append(v)
        entry = {"why": w["why"],
                 "end_to_end": {k: stats(v, bounds[k]) for k, v in values.items()},
                 "report": {k: statistics.median(v) for k, v in reports.items()}}
        print(f"{w['name']}")
        for k, s in entry["end_to_end"].items():
            ok = "ok" if k == "setup_s" or s["spread"] < s["bound"] / 3 else "WIDE"
            line = (f"  {k:18s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                    f"q3 {s['q3']:12.6g}  spread {s['spread']:7.4f}  "
                    f"bound {s['bound']:.2f}  {ok}")
            if first is not None:
                before = first["workloads"][w["name"]]["end_to_end"][k]["median"]
                s["change"] = s["median"] / before - 1.0
                line += f"  change {s['change']:+.4f}"
            print(line)
        if not args.no_trace:
            result, _ = run(spec, w["name"], args.seeds[0], 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            run_s = entry["per_layer"]["trace.run_s"]
            shares = {layer: entry["per_layer"][f"{layer}.s"] / run_s
                      for layer in ("learner", "aggregation")}
            shares["criteria.score_ted"] = entry["per_layer"]["criteria.score_ted.s"] / run_s
            entry["traced_shares_of_run_s"] = shares
            print("  traced shares of run_s: "
                  + "  ".join(f"{k} {v:.3f}" for k, v in shares.items())
                  + f"  overhead {entry['per_layer']['trace.overhead']:.4f}")
        if first is not None:
            first["workloads"][w["name"]]["repeat_end_to_end"] = entry["end_to_end"]
        baseline["workloads"][w["name"]] = entry
        sys.stdout.flush()
    if first is not None:
        with open(args.repeat_of, "w", encoding="utf-8") as fh:
            json.dump(first, fh, indent=1)
            fh.write("\n")
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
