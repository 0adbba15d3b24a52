"""The argument rules of ``rankal.checks`` and every site that states one.

Each rule kind has one table-driven test: a weight vector, a name choice and
a real range are each rejected with one verdict and one message at every
entry point that takes them.
"""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from rankal.aggregation import (
    BordaConfig,
    aggregate,
    borda_aggregate,
    build_transition,
    spearman_distance,
)
from rankal.checks import check_real, check_weights
from rankal.criteria import score_diversity, solve_ted
from rankal.data import SplitSpec, load_table, make_two_blobs
from rankal.evaluation import auc
from rankal.learner import LearnerConfig, fit
from rankal.loop import ALConfig

ROOT = os.path.join(os.path.dirname(__file__), "..")
LISTS = np.array([[1.0, 2, 3, 4], [2, 1, 4, 3], [4, 3, 2, 1]])
X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
Y = np.array([-1, 1, 1])


def _verdict(call):
    """None if ``call()`` returns, else its ValueError's message."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


class TestWeights:
    """Every weight vector is one finite, non-negative number per item with a
    positive sum; bools and strings are not numbers."""

    LIST_RULE = "weights must be finite, non-negative, not all zero, one per list"
    RULES = {
        "aggregate-borda-pnorm": LIST_RULE,
        "aggregate-bucklin": LIST_RULE,
        "aggregate-mc2": LIST_RULE,
        "borda_aggregate": LIST_RULE,
        "ALConfig": "fixed_weights must be finite, non-negative, not all zero, one per criterion",
        "fit": "counts must be finite, non-negative, not all zero, one per sample",
    }

    @staticmethod
    def calls(w):
        return {
            "aggregate-borda-pnorm": lambda: aggregate("borda-pnorm", LISTS, w),
            "aggregate-bucklin": lambda: aggregate("bucklin", LISTS, w),
            "aggregate-mc2": lambda: aggregate("mc2", LISTS, w),
            "borda_aggregate": lambda: borda_aggregate(LISTS, w),
            "ALConfig": lambda: ALConfig(strategy="parallel", criteria=("diversity", "margin", "qbc"),
                                         fixed_weights=tuple(w)),
            "fit": lambda: fit(LearnerConfig(), X, Y, counts=w),
        }

    @pytest.mark.parametrize("w", [
        [math.nan, 1, 1], [math.inf, 1, 1], [-1, 1, 1], [0, 0, 0], [1, 1],
        [True, 1, 1], ["0.5", 1, 1],
    ], ids=["nan", "inf", "negative", "zeros", "length", "bool", "string"])
    def test_same_verdict_everywhere(self, w):
        verdicts = {where: _verdict(call) for where, call in self.calls(w).items()}
        assert verdicts == self.RULES

    @pytest.mark.parametrize("w", [[0.2, 0.3, 0.5], (1, 0, 2), np.array([0.0, 0.0, 1.0])])
    def test_valid_weights_accepted(self, w):
        verdicts = {where: _verdict(call) for where, call in self.calls(w).items()}
        assert verdicts == dict.fromkeys(self.RULES)

    def test_bool_and_string_arrays_rejected(self):
        for w in (np.ones(3, dtype=bool), np.array(["1", "1", "1"])):
            with pytest.raises(ValueError, match="one per list"):
                check_weights("weights", w, 3, "list")

    def test_float_array_returned_as_it_is(self):
        w = np.array([0.2, 0.3, 0.5])
        assert check_weights("weights", w, 3, "list") is w


def _choice_sites(value):
    """(name, options, call) for every site that checks a choice among names."""
    return {
        "LearnerConfig": ("kernel", ("rbf", "linear"), lambda: LearnerConfig(kernel=value)),
        "BordaConfig": ("fusion", ("minimum", "median", "geometric-mean", "pnorm"),
                        lambda: BordaConfig(fusion=value)),
        "build_transition": ("variant", ("mc1", "mc2", "mc3"),
                             lambda: build_transition(LISTS, np.ones(3), variant=value)),
        "aggregate": ("method", ("borda-min", "borda-median", "borda-geo", "borda-pnorm",
                                 "bucklin", "mc1", "mc2", "mc3"),
                      lambda: aggregate(value, LISTS, np.ones(3))),
        "ALConfig.strategy": ("strategy", ("fused", "serial", "parallel", "random"),
                              lambda: ALConfig(strategy=value, fixed_weights=(
                                  (1.0, 1.0, 1.0) if value == "parallel" else None))),
        "ALConfig.aggregator": ("aggregator", ("borda-min", "borda-median", "borda-geo",
                                               "borda-pnorm", "bucklin", "mc1", "mc2", "mc3"),
                                lambda: ALConfig(aggregator=value)),
        "ALConfig.initial_batch": ("initial_batch", ("ted", "random"),
                                   lambda: ALConfig(initial_batch=value)),
        "ALConfig.diversity_reduce": ("diversity_reduce", ("max", "min"),
                                      lambda: ALConfig(diversity_reduce=value)),
        "ALConfig.criteria": ("each criterion", ("margin", "diversity", "qbc", "ted", "random"),
                              lambda: ALConfig(criteria=("margin", value))),
        "score_diversity": ("reduce", ("max", "min"),
                            lambda: score_diversity(X[:1], X, LearnerConfig(), reduce=value)),
        "load_table": ("format", ("dense-csv", "sparse-index-value"),
                       lambda: load_table(os.path.join(ROOT, "sample_data", (
                           "tiny_sparse.txt" if value == "sparse-index-value" else "iris_2class.csv")),
                           format=value)),
    }


class TestChoices:
    @pytest.mark.parametrize("value", ["x", None, 1, ["rbf"]])
    def test_same_message_shape_everywhere(self, value):
        verdicts, expected = {}, {}
        for where, (name, options, call) in _choice_sites(value).items():
            verdicts[where] = _verdict(call)
            expected[where] = (f"{name} must be one of {', '.join(map(repr, options))}, "
                               f"got {value!r}")
        assert verdicts == expected

    def test_each_option_accepted(self):
        for where, (name, options, _) in _choice_sites(None).items():
            for option in options:
                _, _, call = _choice_sites(option)[where]
                assert _verdict(call) is None, (where, option)


class TestReal:
    @pytest.mark.parametrize("interval, rule", [
        ((0, 1, True, True), "x must lie in (0, 1)"),
        ((0, 1, True, False), "x must lie in (0, 1]"),
        ((0, 1, False, False), "x must lie in [0, 1]"),
        ((0, math.inf, True, False), "x must be a positive finite number"),
        ((0, math.inf, False, False), "x must be a finite number >= 0"),
        ((1, math.inf, False, False), "x must be a finite number >= 1"),
    ])
    def test_message_states_the_interval(self, interval, rule):
        low, high, open_low, open_high = interval
        for bad in (math.nan, math.inf, -math.inf, -1, 2 if high < math.inf else -0.5,
                    True, "0.5", None):
            with pytest.raises(ValueError) as exc:
                check_real("x", bad, low, high, open_low=open_low, open_high=open_high)
            assert str(exc.value) == rule, bad
        inside = 0.5 if high < math.inf else low + 1
        check_real("x", inside, low, high, open_low=open_low, open_high=open_high)
        check_real("x", np.float64(inside), low, high, open_low=open_low, open_high=open_high)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf, True])
    def test_solve_ted_tol(self, bad):
        x = np.random.default_rng(0).normal(size=(6, 2))
        with pytest.raises(ValueError, match=r"^tol must be a finite number >= 0$"):
            solve_ted(x, tol=bad)

    def test_build_transition_tun1(self):
        with pytest.raises(ValueError, match=r"^tun1 must lie in \(0, 1\)$"):
            build_transition(LISTS, np.ones(3), tun1=-3.0)

    def test_same_rule_text_at_every_site(self):
        verdicts = {
            "SplitSpec": _verdict(lambda: SplitSpec(test_fraction=1.0)),
            "make_two_blobs": _verdict(lambda: make_two_blobs(pos_fraction=-0.1)),
            "ALConfig": _verdict(lambda: ALConfig(budget=0.0)),
            "LearnerConfig": _verdict(lambda: LearnerConfig(reg=0.0)),
            "solve_ted": _verdict(lambda: solve_ted(X, lam=-1.0)),
        }
        assert verdicts == {
            "SplitSpec": "test_fraction must lie in (0, 1)",
            "make_two_blobs": "pos_fraction must lie in [0, 1]",
            "ALConfig": "budget must lie in (0, 1]",
            "LearnerConfig": "reg must be a positive finite number",
            "solve_ted": "lam must be a positive finite number",
        }


class TestPairs:
    @pytest.mark.parametrize("scores, true", [([0.1, 0.2, 0.3], [1, -1]), ([], [])])
    def test_auc_rejects_unequal_or_empty(self, scores, true):
        with pytest.raises(ValueError, match="pred and true must be equal-length, non-empty"):
            auc(scores, true)

    @pytest.mark.parametrize("a, b", [
        ([1.0, math.inf], [1.0, 2.0]),
        ([[1.0, 2.0], [2.0, 1.0]], [[2.0, 1.0], [1.0, 2.0]]),
    ])
    def test_spearman_rejects_non_finite_or_2d(self, a, b):
        with pytest.raises(ValueError, match="rank lists must be 1-D and finite"):
            spearman_distance(a, b)

    def test_diversity_kernel_shape_checked_by_the_learner(self):
        with pytest.raises(ValueError, match=r"precomputed kernel must have shape \(3, 1\)"):
            score_diversity(X[:1], X, LearnerConfig(), kernel=np.ones((3, 2)))


def test_code_line_counter(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        '"""Module docstring,\nover two lines."""\n'
        "\n"
        "# a comment\n"
        "def f(x):\n"
        '    """Function docstring."""\n'
        "    y = (\n"
        '        "a string in an expression"\n'
        "    )  # a trailing comment\n"
        "    return y\n",
        encoding="utf-8",
    )

    def count(arg):
        return subprocess.run([sys.executable, os.path.join(ROOT, "tools", "code_lines.py"), str(arg)],
                              capture_output=True, text=True, check=True).stdout

    out = count(path)
    assert re.fullmatch(r"\s*5\s+\S+\n\s*5\s+total\n", out), out
    # a directory stands for its *.py files, in sorted order
    (tmp_path / "a.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    out = count(tmp_path)
    rows = [line.split() for line in out.splitlines()]
    assert rows == [["1", str(tmp_path / "a.py")], ["5", str(path)], ["6", "total"]], out
