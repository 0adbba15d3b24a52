"""Byte-identity of the outputs pinned in ``tests/golden.json``.

``tools/golden.py`` computes the records in one subprocess with one BLAS
thread.  An intended output change re-pins with ``python tools/golden.py
--pin`` and says in CHANGES.md which output moved and why.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("golden", os.path.join(ROOT, "tools", "golden.py"))
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

with open(golden.PINNED, encoding="utf-8") as _fh:
    PINNED = json.load(_fh)


@pytest.fixture(scope="module")
def records():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "golden.py"), "--records"],
        env=dict(os.environ, **golden.THREADS), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return {name: [tuple(r) for r in rs] for name, rs in json.loads(proc.stdout).items()}


@pytest.mark.parametrize("output", list(golden.OUTPUTS))
def test_output_matches_pinned_digests(records, output):
    got = golden.record_digests(records[output])
    name = golden.first_difference(PINNED[output], got)
    if name is not None:
        text = dict(records[output]).get(name, "(no such record now)")
        pytest.fail(f"{output}: record {name!r} differs from its pinned digest; it now reads:\n"
                    + "\n".join(text.splitlines()[:40]))


def test_first_difference_names_the_changed_record():
    want = {"a": "1", "b": "2", "c": "3"}
    assert golden.first_difference(want, dict(want)) is None
    assert golden.first_difference(want, {"a": "1", "b": "x", "c": "y"}) == "b"
    assert golden.first_difference(want, {"a": "1", "b": "2"}) == "c"
    assert golden.first_difference(want, dict(want, d="4")) == "d"
