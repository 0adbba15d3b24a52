"""The benchmark under perfbench/ keeps working against the library.

perfbench traces a run by replacing rankal's module attributes from outside
the package, so moving or renaming one of those names breaks the benchmark
without breaking any library test.  These tests catch that here.
"""

import importlib.util
import os
import subprocess
import sys

import rankal
import rankal.cli  # noqa: F401  (the tracer wraps names in rankal.cli)
from rankal.data import SplitSpec, make_two_blobs, normalize_features, split_pool
from rankal.loop import ALConfig, run_active_learning

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_name():
    tracing = _tracing()
    targets = tracing._targets(rankal)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets
               if attr not in owner.__dict__]
    assert not missing, f"names the benchmark wraps are gone: {missing}"
    originals = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    tracer = tracing.Tracer(rankal)
    tracer.install()
    try:
        for (owner, attr, _, _), original in zip(targets, originals):
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for (owner, attr, _, _), original in zip(targets, originals):
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"


def test_every_wrapped_scorer_records_spans():
    # the loop's criteria table must reach the scorers through rankal.loop's
    # names; holding rankal.criteria's functions would bypass the wrappers and
    # read 0 s for them.  Likewise the run's kernel block must fill through a
    # name the tracer wraps, or learner.kernel_matrix reads 0 s
    tracing = _tracing()
    scorers = {name for owner, _, name, _ in tracing._targets(rankal)
               if owner is rankal.loop and name.startswith("criteria.")}
    assert {"criteria.score_ted", "criteria.score_margin", "criteria.score_qbc",
            "criteria.score_diversity", "criteria.normalize_and_rank"} <= scorers
    test, pool = split_pool(normalize_features(make_two_blobs(n=80, seed=3)), SplitSpec(0.5, 3))
    cfg = ALConfig(criteria=("ted", "diversity", "margin", "qbc"), budget=0.3,
                   checkpoints=(0.3,), seed=3)
    tracer = tracing.Tracer(rankal)
    tracer.install()
    try:
        run_active_learning(pool, test, cfg)
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    required = scorers | {"learner.kernel_matrix", "learner.fit", "learner.fit_committee"}
    assert not required - recorded, f"no spans for {sorted(required - recorded)}"
    # checkpoint predictions call kernel_matrix too: the block's own calls
    # are the ones inside a query step
    ancestors = tracing.summarize(tracer.spans, 0, len(tracer.spans))["ancestors"]
    assert any(span[0] == "learner.kernel_matrix" and "loop.fused_step" in chain
               for span, chain in zip(tracer.spans, ancestors))


def test_benchmark_smoke_check_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
