"""rankal benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload fused-mc2 --seed 1 --seconds 28 --trace 0

The parent process (no numpy) pins the BLAS thread count, starts
``SETUP_PROBES`` set-up-only child processes (untraced runs only) and one
measuring child, and prints a readable report followed, on the last line,
by one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; with ``--trace 1`` they are the per-layer ones from spans
recorded around rankal's public names (see ``tracing.py``).  It exits 1
when an output check fails and 2 when the tree holds no ``src/rankal``.

Every end-to-end time (``setup_s``, ``run_s``, ``request_ms_mean`` and the
times in the report) is given at reference speed: wall time scaled by the
machine-speed probe of ``speed.py``, which runs in the same process, in
slices interleaved with the work (set-up processes: right after set-up).
The report also prints the raw ``run_wall_s``, ``setup_wall_s`` and the
``speed_factor`` that links them.  Per-layer times are raw wall times.

End-to-end metrics are defined on every workload.  A *request* is what one
closed-loop caller waits for: a query to the annotator on the AL workloads
(the gap between consecutive ``oracle_label`` calls of one AL run), or one
aggregation call on ``aggregate-mix``; ``request_ms_mean`` is their mean.
``quality`` is the mean test accuracy over all checkpoints and seeds (area
under the learning curve) on the AL workloads, and the mean Spearman
correlation between each fused ranking and the latent order its input
lists were drawn from on ``aggregate-mix``.  The report above the JSON line
also prints the workload-specific numbers, each with its sample count where
it is a percentile (``first_query_s``, ``query_ms_p50``, ``query_ms_p90``,
``queries_per_s``, ``alc_accuracy``, ``agg_per_s``, ``agg_ms_p50``,
``agg_ms_p99``, ``failed_frac``).
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from here, before numpy loads

import argparse
import json
import os
import statistics
import subprocess
import sys

import speed
import tracing

BLAS_THREADS = 1  # fixed: selections, hence accuracy, depend on the thread count
SETUP_PROBES = 4
PROBE_SETUP_S = 0.5  # speed-probe time after set-up in each set-up process
DEADLINE_S = 170
HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "request_ms_mean": "ms",
    "quality": "fraction",
    "peak_rss_mb": "MB",
}

FUNCTIONS = {  # span name -> which of calls / s / self_s are reported
    "learner.fit": ("calls", "s"),
    "learner.fit_committee": ("s",),
    "learner.predict_proba": ("calls", "s"),
    "learner.kernel_matrix": ("calls", "s"),
    "criteria.score_ted": ("calls", "s"),
    "criteria.score_diversity": ("s",),
    "criteria.score_qbc": ("s",),
    "criteria.score_margin": ("s",),
    "criteria.normalize_and_rank": ("s",),
    "aggregation.markov_aggregate": ("calls", "s"),
    "aggregation.truncate_candidates": ("s",),
    "aggregation.build_transition": ("s",),
    "aggregation.stationary_distribution": ("s",),
    "aggregation.bucklin_aggregate": ("s",),
    "aggregation.borda_aggregate": ("s",),
    "data.oracle_label": ("calls", "s"),
    "data.split_pool": ("s",),
    "data.normalize_features": ("s",),
    "loop.run_active_learning": ("self_s",),
    "loop.fused_step": ("self_s",),
    "loop.serial_step": ("s",),
    "loop.parallel_step": ("s",),
    "loop.initial_batch": ("s",),
    "evaluation.win_tie_loss": ("s",),
    "cli.main": ("self_s",),
}
DERIVED = {
    "learner.fit.select_s": "s",
    "learner.fit.eval_s": "s",
    "criteria.score_ted.calls_per_pool": "ratio",
    "aggregation.candidate_frac": "ratio",
    "weighting.calls": "count",
    "evaluation.metrics.s": "s",
    "cli.files_written": "count",
    "trace.run_s": "s",
    "trace.overhead": "ratio",
    "trace.overhead_est": "ratio",
    "trace.hook_share": "ratio",
}


def per_layer_units():
    units = {}
    for name, kinds in FUNCTIONS.items():
        for k in kinds:
            units[f"{name}.{k}"] = "count" if k == "calls" else "s"
    for layer in tracing.LAYERS:
        units[f"{layer}.s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update(DERIVED)
    return units


PER_LAYER = per_layer_units()


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


# ---------------------------------------------------------------- child side

def layer_metrics(spans, lo, hi, unit):
    """Per-layer numbers for the traced unit whose spans are spans[lo:hi]."""
    summary = tracing.summarize(spans, lo, hi)
    names = summary["names"]
    out = {}
    for name, kinds in FUNCTIONS.items():
        entry = names.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for k in kinds:
            out[f"{name}.{k}"] = entry[k]
    for layer in tracing.LAYERS:
        out[f"{layer}.s"] = summary["layer_s"][layer]
        out[f"{layer}.self_s"] = summary["layer_self_s"][layer]
    select = evaluate = 0.0
    for i in range(lo, hi):
        if spans[i][0] != "learner.fit":
            continue
        chain = summary["ancestors"][i - lo]
        dur = spans[i][2] - spans[i][1]
        if "learner.fit_committee" in chain:
            continue  # member fits count under learner.fit_committee.s
        if any(a.endswith("_step") for a in chain):
            select += dur
        elif chain and chain[-1] == "loop.run_active_learning":
            evaluate += dur  # only checkpoint evaluation fits directly in the loop
    pools = names.get("criteria.score_ted", {}).get("notes", [])
    fracs = names.get("aggregation.truncate_candidates", {}).get("notes", [])
    out.update({
        "learner.fit.select_s": select,
        "learner.fit.eval_s": evaluate,
        "criteria.score_ted.calls_per_pool": len(pools) / len(set(pools)) if pools else 0.0,
        "aggregation.candidate_frac": sum(fracs) / len(fracs) if fracs else 0.0,
        "weighting.calls": sum(names.get(f"weighting.{f}", {}).get("calls", 0)
                               for f in ("bvsb_weight", "duplicate_weight", "blend_weights")),
        "evaluation.metrics.s": sum(names.get(f"evaluation.{f}", {}).get("s", 0.0)
                                    for f in ("accuracy", "f1", "auc")),
        "cli.files_written": unit.files_written,
    })
    return out


def per_call_s(fn, n=20000):
    """Best-of-five time of one call of fn(None, None)."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        for _ in range(n):
            fn(None, None)
        times.append((time.perf_counter() - t) / n)
    return min(times)


def noop(pool, batch):
    return None


def hook_cost_s():
    """Per-call cost of the untraced oracle hook (see workloads.OracleClock)."""
    calls = []

    def hooked(pool, batch):
        calls.append((time.perf_counter(), pool, batch))
        return noop(pool, batch)

    cost = per_call_s(hooked) - per_call_s(noop)
    return max(cost, 0.0)


def span_cost_s(tracer):
    """Per-call cost of one span wrapper."""
    wrapped = tracer.wrap("cost.probe", noop, None)
    cost = per_call_s(wrapped) - per_call_s(noop)
    tracer.spans.clear()
    return max(cost, 0.0)


def child(args):
    import resource

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.tiny)
    workload.setup()
    setup_s = time.perf_counter() - T0
    probe = speed.SpeedProbe()
    if args.role == "setup":
        probe.run(PROBE_SETUP_S)
        print(json.dumps({"setup_s": setup_s, "factor": probe.factor()}))
        return 0

    tracer = None
    if not args.trace:
        workload.probe = probe
        probe.start()
    else:
        import rankal

        tracer = tracing.Tracer(rankal)
        span_cost = span_cost_s(tracer)
    units, traced, layers, n_spans = [], [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        inputs = workload.prepare(args.seed * 1000 + i)
        unit = workload.run(inputs)
        units.append(unit)
        if tracer is not None:
            # the same inputs again, traced; prepare() again for a fresh pool
            inputs = workload.prepare(args.seed * 1000 + i)
            tracer.install()
            lo = tracer.mark()
            try:
                t_unit = workload.run(inputs)
            finally:
                tracer.uninstall()
            traced.append(t_unit)
            n_spans.append(tracer.mark() - lo)
            layers.append(layer_metrics(tracer.spans, lo, tracer.mark(), t_unit))
        i += 1
        spent = time.perf_counter() - start
        typical = spent / i
        if i >= (1 if tracer else workload.min_units) and spent + typical > args.seconds:
            break
    if tracer is None:
        probe.stop()

    attempted = sum(u.attempted for u in units + traced)
    failed = sum(u.failed for u in units + traced)
    result = {
        "setup_s": setup_s,
        "units": len(units),
        "attempted": attempted,
        "failed": failed,
        "env": workloads.environment(BLAS_THREADS),
    }
    run_s = [u.run_s for u in units]
    quality = [q for u in units[: workload.min_units] for q in u.quality]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        f = probe.factor()  # every time below is at reference speed
        result["factor"] = f
        request_ms = [g * f for u in units for g in u.request_ms]
        result["metrics"] = {
            "run_s": statistics.median(run_s) * f,
            "request_ms_mean": statistics.fmean(request_ms) if request_ms else 0.0,
            "quality": statistics.fmean(quality) if quality else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        result["report"] = report_metrics(workload, units, f, request_ms, quality)
        result["report"].update({
            "run_wall_s": statistics.median(run_s),
            "speed_factor": f,
            "probe_rounds": probe.rounds(),
            "peak_rss_mb": peak_rss_mb,
        })
    else:
        metrics = {k: statistics.fmean(m[k] for m in layers) for k in layers[0]}
        overheads = [t.run_s / u.run_s - 1.0 for t, u in zip(traced, units)]
        untraced_s = statistics.median(run_s)
        metrics.update({
            "trace.run_s": statistics.median(t.run_s for t in traced),
            "trace.overhead": statistics.median(overheads),
            "trace.overhead_est": statistics.fmean(n_spans) * span_cost / untraced_s,
            "trace.hook_share": metrics["data.oracle_label.calls"] * hook_cost_s() / untraced_s,
        })
        result["metrics"] = metrics
        result["report"] = {"untraced run_s": untraced_s}
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        tracer.dump(
            os.path.join(workloads.OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"),
            {"workload": args.workload, "seed": args.seed, "env": result["env"]},
        )
    print(json.dumps(result))
    return 0


def report_metrics(workload, units, f, request_ms, quality):
    """The workload-specific names under which the end-to-end numbers are printed,
    times at reference speed (wall time * f)."""
    out = {"run_s": statistics.median(u.run_s for u in units) * f}
    rates = [u.requests / (u.run_s * f) for u in units]
    if workload.name == "aggregate-mix":
        out.update({
            "agg_per_s": statistics.median(rates),
            "agg_ms_p50": percentile(request_ms, 50),
            "agg_ms_p99": percentile(request_ms, 99),
            "agg_calls": len(request_ms),
            "agreement": statistics.fmean(quality) if quality else 0.0,
        })
    else:
        firsts = [q * f for u in units for q in u.first_query_s]
        out.update({
            "first_query_s": statistics.median(firsts) if firsts else 0.0,
            "query_ms_p50": percentile(request_ms, 50),
            "query_ms_p90": percentile(request_ms, 90),
            "query_gaps": len(request_ms),
            "queries_per_s": statistics.median(rates),
            "alc_accuracy": statistics.fmean(quality) if quality else 0.0,
        })
    return out


# --------------------------------------------------------------- parent side

UNITS = dict(END_TO_END, **PER_LAYER, first_query_s="s", query_ms_p50="ms",
             query_ms_p90="ms", queries_per_s="1/s", alc_accuracy="fraction",
             agg_per_s="1/s", agg_ms_p50="ms", agg_ms_p99="ms",
             agg_calls="count", query_gaps="count",
             agreement="fraction", failed_frac="fraction", run_wall_s="s", setup_wall_s="s",
             speed_factor="ratio", probe_rounds="count")
UNITS["untraced run_s"] = "s"


def spawn(role, args, env, deadline):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.perf_counter(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_declared(metrics, trace):
    """The emitted metric names and units must match BENCHMARK.json, if present."""
    if not os.path.isfile("BENCHMARK.json"):
        return []
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {k: v["unit"] for k, v in metrics.items()}
    if declared == emitted:
        return []
    return [f"metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(emitted))}, "
            f"extra {sorted(set(emitted) - set(declared))}, "
            f"units {[k for k in declared if k in emitted and declared[k] != emitted[k]]}"]


def parent(args):
    deadline = T0 + DEADLINE_S
    if not os.path.isfile(os.path.join("src", "rankal", "__init__.py")):
        print("error: no src/rankal under the current directory; "
              "run from the root of a rankal checkout", file=sys.stderr)
        return 2
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   p for p in (os.path.abspath("src"), os.environ.get("PYTHONPATH")) if p))
    try:
        probes = [spawn("setup", args, env, deadline)
                  for _ in range(0 if args.trace else SETUP_PROBES)]
        result = spawn("measure", args, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(p["setup_s"] * p["factor"] for p in probes)
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    problems = check_declared(metrics, args.trace)

    env_line = " ".join(f"{k}={v}" for k, v in result["env"].items())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"units {result['units']}")
    print(f"env {env_line}")
    shown = dict(result["report"])
    if not args.trace:
        shown["setup_s"] = values["setup_s"]
        shown["setup_wall_s"] = statistics.median(p["setup_s"] for p in probes)
        shown["failed_frac"] = result["failed"] / result["attempted"]
    for k, v in list(shown.items()) + ([] if not args.trace else list(values.items())):
        print(f"  {k:40s} {v:14.6g} {UNITS[k]}")
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    correct = result["failed"] == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fused-mc2", "aggregate-mix", "run-grid"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (used by smoke.py)")
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    return child(args) if args.role else parent(args)


if __name__ == "__main__":
    sys.exit(main())
