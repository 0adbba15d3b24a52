"""``tools/large_pool.py``: a run against the tree itself, and the digest verdict."""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("large_pool",
                                               os.path.join(ROOT, "tools", "large_pool.py"))
large_pool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(large_pool)


def test_the_tree_against_itself_picks_the_same():
    proc = subprocess.run(
        [sys.executable, "tools/large_pool.py", "--tree", ROOT, "--tree", ROOT, "--runs", "1",
         "--n", "4000"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    runs = [line for line in lines if line.startswith("run 0 ")]
    assert len(runs) == 2 and all("2 picks" in line for line in runs)  # 6 labels, 4 initial
    summary = [line for line in lines if line.startswith(f"{ROOT}: median ")]
    assert len(summary) == 2 and summary[0].split("sha256 ")[1] == summary[1].split("sha256 ")[1]
    assert lines[-1] == "picks identical"


def test_differing_picks_fail():
    def run(seconds, digest):
        return {"seconds": seconds, "picks": 56, "digest": digest, "rankal": ""}

    trees = ["a", "b"]
    lines, same = large_pool.report(trees, [[run(0.5, "x"), run(0.6, "x")],
                                            [run(0.4, "x"), run(0.3, "y")]])
    assert not same and lines[-1] == "PICKS DIFFER"
    assert lines[0] == "a: median 0.5500 s, quartiles 0.5250-0.5750 s over 2 runs, picks sha256 x"
    assert lines[1].endswith("picks sha256 x y")
    assert large_pool.report(trees, [[run(0.5, "x")], [run(0.4, "x")]])[1]
