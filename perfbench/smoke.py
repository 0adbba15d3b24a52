"""Fast check of the benchmark itself at tiny input sizes.

Run from the repository root (about a minute):

    python3 perfbench/smoke.py

For every workload, with tracing off and on, it runs ``run.py --tiny`` and
asserts that the run passes its output checks and emits exactly the metrics
BENCHMARK.json declares, each with its unit, and that the readable report
names every workload-specific metric.  It also asserts that the benchmark
fails, without printing a result, in a tree that holds only the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

REPORTED = {
    "all": ["setup_s", "run_s", "peak_rss_mb", "failed_frac",
            "run_wall_s", "setup_wall_s", "speed_factor"],
    "al": ["first_query_s", "query_ms_p50", "query_ms_p90", "queries_per_s", "alc_accuracy"],
    "aggregate-mix": ["agg_per_s", "agg_ms_p50", "agg_ms_p99"],
}


def run(workload, trace, cwd="."):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(name, trace)
            assert proc.returncode == 0, (name, trace, proc.stderr[-2000:])
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            declared = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == declared, (name, trace, set(emitted) ^ set(declared))
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            if trace == 0:
                shown = {line.split()[0] for line in lines[2:-1]}
                kind = "aggregate-mix" if name == "aggregate-mix" else "al"
                missing = set(REPORTED["all"] + REPORTED[kind]) - shown
                assert not missing, (name, missing)
            print(f"ok  {name:16s} trace {trace}  {len(emitted)} metrics")

    os.makedirs(".perfbench_out", exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=".perfbench_out")
    try:
        shutil.copy("BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(path, os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("ok  fails without the program")
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    main()
