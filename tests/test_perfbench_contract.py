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


def test_benchmark_smoke_check_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
