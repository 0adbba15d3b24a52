"""Byte mutations of every input file format that the library and the CLI read.

The loaders raise only ValueError or OSError, and their message names the
file; ``rankal aggregate``, ``rankal compare`` and ``rankal run`` exit 0 or 2
and never raise.
"""

import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankal import aggregation as agg
from rankal.cli import main
from rankal.data import load_dense_csv, load_rank_lists, load_sparse, load_weights

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "sample_data")
RANKS = os.path.join(SAMPLES, "rank_lists.csv")


def sample(name):
    with open(os.path.join(SAMPLES, name), "rb") as fh:
        return fh.read()


CURVE = (b"seed,fraction,n_labeled,accuracy,f1,auc\n"
         b"0,0.1,4,0.81,0.7,0.8\n0,0.2,8,0.85,0.72,0.83\n"
         b"1,0.1,4,0.79,0.69,0.8\n1,0.2,8,0.86,0.7,0.84\n")

# file name -> (unmutated bytes, library loader or None, CLI argv or None)
FILES = {
    "iris_2class.csv": (sample("iris_2class.csv"), load_dense_csv, None),
    "tiny_sparse.txt": (sample("tiny_sparse.txt"), load_sparse, None),
    "rank_lists.csv": (sample("rank_lists.csv"), load_rank_lists,
                       lambda path, method: ["aggregate", path, "--method", method]),
    "weights.txt": (b"0.2\n0.3\n0.5\n", lambda path: load_weights(path, 3),
                    lambda path, method: ["aggregate", RANKS, "--weights", path,
                                          "--method", method]),
    "curve_m.csv": (CURVE, None,
                    lambda path, method: ["compare", os.path.dirname(path), os.path.dirname(path)]),
}

# any byte, and more often one that keeps a number, a separator or a line
BYTE = st.integers(0, 255) | st.sampled_from(list(b"0123456789+-.:,e \n\"nafix"))
EDIT = st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 1000), BYTE)


def mutate(data, edits):
    data = bytearray(data)
    for op, pos, byte in edits:
        at = pos % (len(data) + 1)
        if op == "insert":
            data[at:at] = bytes([byte])
        elif at < len(data):
            data[at:at + 1] = b"" if op == "delete" else bytes([byte])
    return bytes(data)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(FILES)), edits=st.lists(EDIT, min_size=1, max_size=4),
       method=st.sampled_from(agg.METHODS))
def test_mutated_file_is_read_or_rejected_by_name(tmp_path, name, edits, method):
    data, load, argv = FILES[name]
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        path = os.path.join(work, name)
        with open(path, "wb") as fh:
            fh.write(mutate(data, edits))
        if load is not None:
            try:
                load(path)
            except (ValueError, OSError) as exc:
                assert path in str(exc), exc
        if argv is not None:
            assert main(argv(path, method)) in (0, 2)


# a tiny run: 24 samples, two seeds (a comparison pairs them), a random and a
# fused method
RUN_CONFIG = json.dumps({
    "dataset": {"synthetic": {"n": 24, "seed": 3}},
    "split": {"test_fraction": 0.5, "seed": 1},
    "seeds": [0, 1],
    "checkpoints": [0.3, 0.6],
    "output_dir": "out",
    "methods": [
        {"name": "r", "strategy": "random", "budget": 0.6},
        {"name": "f", "strategy": "fused", "aggregator": "mc2", "budget": 0.6},
    ],
}).encode()
# no edit writes a digit, an exponent or a slash: every number stays as short
# as it was, so the run stays tiny, and output_dir stays a relative path
CONFIG_EDIT = st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 1000),
                        BYTE.filter(lambda b: chr(b) not in "0123456789eE/"))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(CONFIG_EDIT, max_size=4))
def test_mutated_run_config_runs_or_exits_2(tmp_path, edits):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        os.chdir(work)
        try:
            with open("cfg.json", "wb") as fh:
                fh.write(mutate(RUN_CONFIG, edits))
            code = main(["run", "cfg.json"])
            assert code in (0, 2)
            if code == 0:
                with open("cfg.json", encoding="utf-8") as fh:
                    out = json.load(fh)["output_dir"]
                with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
                    summary = json.load(fh)
                curves = sorted(f[len("curve_"):-len(".csv")] for f in os.listdir(out)
                                if f.startswith("curve_"))
                assert sorted(summary["methods"]) == curves
                assert main(["compare", out, out]) == (0 if len(summary["seeds"]) > 1 else 2)
        finally:
            os.chdir(cwd)
