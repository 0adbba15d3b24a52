"""The benchmark's three workloads and the checks on their outputs.

All load is closed-loop: one process, one caller, each request issued only
after the previous one returned.  A workload runs in *units*: one seeded
active-learning run, one ``rankal run`` grid, or one pass over a sequence of
aggregation calls.  Unit ``i`` of a run with workload seed ``s`` draws its
inputs from the sub-seed ``s * 1000 + i``, so no two units see the same
inputs and a cache that outlives a unit cannot serve a later one.  A run
always makes at least ``min_units`` units, and ``quality`` averages over
exactly those, so it does not depend on how many units fit in the time.

An *operation* is what ``failed_frac`` counts: one seeded AL run, one
(method, seed) cell of the grid, or one aggregation call.  It fails if it
raises or fails its output check.

The only hook on the untraced path is ``OracleClock``: a pass-through
timestamp on ``rankal.loop.oracle_label``, the name the loop calls.  The
oracle is the annotator, so that boundary is where a user sees a query.
While a workload's ``probe`` is set (untraced measuring runs), a timer
interrupts the work every few dozen milliseconds to run one step of the
machine-speed probe (``speed.py``); every time a unit reports has the probe
steps that fell inside it taken out.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import rankal
from rankal import aggregation, cli, criteria, data, loop, toy

OUT_DIR = ".perfbench_out"
WARM_UP_SEED = 2**40  # warm-up inputs come from a stream no unit draws from


class Timed:
    """Base of the workloads: ``probe`` is the running speed probe, if any."""

    probe = None

    def work_s(self, t0, t1):
        """Wall time from t0 to t1 without the probe steps run in between."""
        return t1 - t0 - (self.probe.paused(t0, t1) if self.probe is not None else 0.0)


class OracleClock:
    """Records (time, pool, batch) at every call of ``rankal.loop.oracle_label``."""

    def __init__(self):
        self.calls = []
        original = loop.oracle_label
        calls = self.calls

        def oracle_label(pool, batch):
            calls.append((perf_counter(), pool, batch))
            return original(pool, batch)

        loop.oracle_label = oracle_label

    def take(self):
        calls = list(self.calls)
        self.calls.clear()
        return calls


@dataclass
class Unit:
    """What one unit of work measured and how its operations fared."""

    run_s: float
    attempted: int
    failed: int
    requests: int = 0            # labels acquired, or aggregation calls made
    request_ms: list = field(default_factory=list)   # query gaps or call latencies
    first_query_s: list = field(default_factory=list)
    quality: list = field(default_factory=list)      # test accuracies or agreements
    files_written: int = 0


def split_runs(calls):
    """Group oracle calls into AL runs: a run starts at a call on an unlabeled pool."""
    runs = []
    for call in calls:
        if call[1].n_labeled == 0 or not runs:
            runs.append([])
        runs[-1].append(call)
    return runs


def check_run(calls, n_pool, budget):
    """Problems with one AL run's labeling, judged from its oracle calls."""
    problems = []
    labeled = np.concatenate([np.asarray(b, dtype=int) for _, _, b in calls])
    if len(np.unique(labeled)) != len(labeled):
        problems.append("a sample was selected twice")
    if len(labeled) < math.ceil(budget * n_pool):
        problems.append(f"labeled {len(labeled)} < ceil({budget} * {n_pool})")
    return problems


def check_scores(acc, f1v, aucv):
    if all(0.0 <= v <= 1.0 for v in (acc, f1v, aucv)):
        return []
    return [f"checkpoint metrics outside [0, 1]: {acc}, {f1v}, {aucv}"]


def query_gaps_ms(workload, calls):
    return [workload.work_s(a[0], b[0]) * 1e3 for a, b in zip(calls, calls[1:])]


def _report(kind, problems):
    for p in problems:
        print(f"check failed [{kind}]: {p}", file=sys.stderr)


class ActiveLearning(Timed):
    """Common code of the workloads that time one seeded AL run per unit."""

    def __init__(self, tiny):
        self.tiny = tiny
        self.clock = None

    def setup(self):
        self.clock = OracleClock()
        self.warm_up()

    def warm_up(self):
        test, pool = data.split_pool(
            data.normalize_features(data.make_two_blobs(n=80, seed=WARM_UP_SEED)),
            data.SplitSpec(0.5, 0),
        )
        loop.run_active_learning(pool, test, self.config(0, budget=0.3))
        self.clock.take()

    def run(self, inputs):
        test, pool, cfg = inputs
        t0 = perf_counter()
        try:
            trace = loop.run_active_learning(pool, test, cfg)
        except Exception:
            traceback.print_exc()
            trace = None
        run_s = self.work_s(t0, perf_counter())
        calls = self.clock.take()
        unit = Unit(run_s=run_s, attempted=1, failed=1)
        if trace is None or not calls:
            return unit
        problems = check_run(calls, len(pool.data), cfg.budget)
        reached = [c.fraction for c in trace.checkpoints]
        if reached != sorted(cfg.checkpoints):
            problems.append(f"checkpoints reached {reached} != {sorted(cfg.checkpoints)}")
        for c in trace.checkpoints:
            problems += check_scores(c.accuracy, c.f1, c.auc)
        _report(cfg.label, problems)
        unit.failed = int(bool(problems))
        unit.requests = sum(len(b) for _, _, b in calls)
        unit.request_ms = query_gaps_ms(self, calls)
        unit.first_query_s = [self.work_s(t0, calls[0][0])]
        unit.quality = [c.accuracy for c in trace.checkpoints]
        return unit


class FusedMC2(ActiveLearning):
    """The acceptance-7 fused arm on the bundled 600-sample blobs."""

    name = "fused-mc2"
    min_units = 4

    def setup(self):
        ds = data.make_two_blobs(n=120, seed=0) if self.tiny else data.benchmark_blobs(0)
        self.dataset = data.normalize_features(ds)
        super().setup()

    def config(self, sub, budget=0.3):
        return loop.ALConfig(
            criteria=("diversity", "margin", "qbc"), aggregator="mc2",
            n_select=1, budget=budget, checkpoints=(0.1, 0.2, 0.3), seed=sub,
        )

    def prepare(self, sub):
        test, pool = data.split_pool(self.dataset, data.SplitSpec(0.5, 1000 + sub))
        return test, pool, self.config(sub)


GRID_METHODS = [
    {"name": "fused-mc2", "criteria": ["diversity", "margin", "qbc"],
     "aggregator": "mc2", "n_select": 1},
    {"name": "fused-bucklin", "criteria": ["ted", "diversity", "margin"],
     "aggregator": "bucklin", "n_select": 3},
    {"name": "serial", "strategy": "serial", "criteria": ["diversity", "margin"]},
    {"name": "parallel", "strategy": "parallel", "criteria": ["diversity", "margin"],
     "fixed_weights": [0.5, 0.5]},
    {"name": "random", "strategy": "random"},
]
GRID_CHECKPOINTS = [0.05, 0.1, 0.15]
GRID_BUDGET = 0.15


class RunGrid(Timed):
    """``rankal.cli.main(["run", cfg])`` in-process on a fixed five-method config."""

    name = "run-grid"
    min_units = 2

    def __init__(self, tiny):
        self.tiny = tiny

    def setup(self):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.clock = OracleClock()
        self.run(self.prepare(WARM_UP_SEED, n=80))
        self.clock.take()

    def prepare(self, sub, n=None):
        n = n or (100 if self.tiny else 600)
        seeds = [2 * sub, 2 * sub + 1]  # the dataset is fixed; splits and runs vary
        out = tempfile.mkdtemp(prefix="grid-", dir=OUT_DIR)
        cfg = {
            "dataset": {"synthetic": {
                "n": n, "n_features": 5, "center_distance": 2.2, "sigma": 0.7,
                "pos_fraction": 0.35, "seed": 0,
            }},
            "split": {"test_fraction": 0.5, "seed": 1000},
            "seeds": seeds,
            "checkpoints": GRID_CHECKPOINTS,
            "output_dir": os.path.join(out, "results"),
            "methods": [dict(m, budget=GRID_BUDGET) for m in GRID_METHODS],
        }
        path = os.path.join(out, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return out, path, n // 2, seeds

    def run(self, inputs):
        out, path, n_pool, seeds = inputs
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", path])
        except Exception:
            traceback.print_exc()
            code = None
        run_s = self.work_s(t0, perf_counter())
        calls = self.clock.take()
        cells = len(GRID_METHODS) * len(seeds)
        unit = Unit(run_s=run_s, attempted=cells, failed=cells)
        try:
            if code == 0:
                self._check(unit, os.path.join(out, "results"), calls, n_pool, seeds, t0)
            else:
                _report("run-grid", [f"rankal run returned {code}"])
        except (OSError, KeyError, ValueError):
            traceback.print_exc()
        finally:
            shutil.rmtree(out)
        return unit

    def _check(self, unit, results, calls, n_pool, seeds, t0):
        runs = split_runs(calls)
        problems = []
        with open(os.path.join(results, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        names = [m["name"] for m in GRID_METHODS]
        if sorted(summary["methods"]) != sorted(names):
            problems.append(f"summary methods {sorted(summary['methods'])}")
        for name, entry in summary["methods"].items():
            if len(entry["accuracy_mean"]) != len(GRID_CHECKPOINTS):
                problems.append(f"{name}: accuracy_mean has {len(entry['accuracy_mean'])} entries")
        if len(runs) != unit.attempted:
            problems.append(f"{len(runs)} AL runs observed, expected {unit.attempted}")
        _report("run-grid", problems)
        if problems:
            return
        # cmd_run visits methods in config order and seeds within each method
        failed = 0
        accuracies = []
        for k, name in enumerate(names):
            rows = {}
            with open(os.path.join(results, f"curve_{name}.csv"), newline="",
                      encoding="utf-8") as fh:
                for rec in csv.DictReader(fh):
                    rows.setdefault(int(rec["seed"]), []).append(rec)
            for j, seed in enumerate(seeds):
                recs = rows.get(seed, [])
                cell = check_run(runs[k * len(seeds) + j], n_pool, GRID_BUDGET)
                fractions = [float(r["fraction"]) for r in recs]
                if fractions != GRID_CHECKPOINTS:
                    cell.append(f"checkpoints reached {fractions}")
                for r in recs:
                    cell += check_scores(float(r["accuracy"]), float(r["f1"]), float(r["auc"]))
                    accuracies.append(float(r["accuracy"]))
                _report(f"run-grid {name} seed {seed}", cell)
                failed += bool(cell)
        unit.failed = failed
        unit.requests = sum(len(b) for _, _, b in calls)
        unit.request_ms = [g for run in runs for g in query_gaps_ms(self, run)]
        unit.first_query_s = [self.work_s(t0, calls[0][0])]
        unit.quality = accuracies
        unit.files_written = sum(len(files) for _, _, files in os.walk(results))


BORDA = ("minimum", "median", "geometric-mean", "pnorm")
MARKOV = ("mc1", "mc2", "mc3")


class AggregateMix(Timed):
    """A seeded sequence of standalone aggregation calls at three pool sizes."""

    name = "aggregate-mix"
    min_units = 6

    def __init__(self, tiny):
        self.sizes = (20, 40, 60) if tiny else (300, 1000, 3000)
        self.n_selects = (1, 5) if tiny else (1, 50)
        self.untruncated_max = self.sizes[1]

    def setup(self):
        results = toy.run_toy_benchmark()
        failing = [r for r in results if not r.passed]
        if failing:
            raise RuntimeError(f"toy benchmark failed: {[r.method for r in failing]}")
        self.run(self.prepare(WARM_UP_SEED, sizes=(12, 16, 20)))

    @staticmethod
    def rank_lists(rng, n, n_lists):
        """n_lists-1 noisy views of a latent order plus one committee-style
        ladder list (scores rounded to steps of 1/6, so many ties); ranks via
        ``normalize_and_rank``.  Returns (ranks, committee flags, latent ranks)."""
        latent = rng.random(n)
        rows = [criteria.normalize_and_rank(latent + rng.normal(0, 0.3, n))[1]
                for _ in range(n_lists - 1)]
        ladder = np.round((latent + rng.normal(0, 0.3, n)) * 6.0) / 6.0
        rows.append(criteria.normalize_and_rank(ladder)[1])
        flags = np.array([False] * (n_lists - 1) + [True])
        return np.array(rows, dtype=float), flags, criteria.normalize_and_rank(latent)[1]

    def prepare(self, sub, sizes=None):
        rng = np.random.default_rng(sub)
        requests = []
        for n in sizes or self.sizes:
            for n_lists in (3, 5):
                ranks, flags, latent = self.rank_lists(rng, n, n_lists)
                w = rng.uniform(0.5, 1.5, n_lists)
                w /= w.sum()
                calls = [("borda", f, None, True) for f in BORDA]
                calls.append(("bucklin", None, None, True))
                calls += [("markov", v, k, True) for v in MARKOV for k in self.n_selects]
                if n <= self.untruncated_max:
                    calls += [("markov", v, 1, False) for v in MARKOV]
                requests += [(c, ranks, w, flags, latent) for c in calls]
        order = rng.permutation(len(requests))
        return [requests[i] for i in order]

    @staticmethod
    def call(kind, option, n_select, truncate, ranks, w, flags):
        if kind == "borda":
            return aggregation.borda_aggregate(ranks, w, aggregation.BordaConfig(fusion=option))
        if kind == "bucklin":
            return aggregation.bucklin_aggregate(ranks, w)
        return aggregation.markov_aggregate(
            ranks, w, variant=option, n_select=n_select,
            committee_flags=flags, truncate=truncate,
        )

    def run(self, requests):
        latencies, outputs = [], []
        t0 = perf_counter()
        for (kind, option, n_select, truncate), ranks, w, flags, _ in requests:
            t = perf_counter()
            try:
                out = self.call(kind, option, n_select, truncate, ranks, w, flags)
            except Exception:
                traceback.print_exc()
                out = None
            latencies.append(self.work_s(t, perf_counter()) * 1e3)
            outputs.append(out)
        run_s = self.work_s(t0, perf_counter())
        failed, agreement = 0, []
        for (call, ranks, _, _, latent), out in zip(requests, outputs):
            n = ranks.shape[1]
            if out is None or not np.array_equal(np.sort(out.ranks), np.arange(1, n + 1)):
                _report("aggregate-mix", [f"{call} n={n}: ranks not a permutation of 1..n"])
                failed += 1
                continue
            agreement.append(float(np.corrcoef(out.ranks, latent)[0, 1]))
        return Unit(run_s=run_s, attempted=len(requests), failed=failed,
                    requests=len(requests), request_ms=latencies, quality=agreement)


WORKLOADS = {w.name: w for w in (FusedMC2, AggregateMix, RunGrid)}


def environment(threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "rankal": rankal.__version__,
    }
