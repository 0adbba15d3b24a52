import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from rankal.evaluation import (
    LearningCurve,
    accuracy,
    auc,
    f1,
    paired_t_test,
    t_cdf,
    win_tie_loss,
)


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([1, -1, 1], [1, -1, 1]) == 1.0

    def test_half(self):
        assert accuracy([1, 1], [1, -1]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])


class TestF1:
    def test_perfect(self):
        assert f1([1, -1, 1], [1, -1, 1]) == 1.0

    def test_half_precision_half_recall(self):
        # P = R = 0.5 -> F1 = 0.5
        pred = [1, 1, -1, -1]
        true = [1, -1, 1, -1]
        assert f1(pred, true) == pytest.approx(0.5)

    def test_no_positive_predictions(self):
        assert f1([-1, -1], [1, -1]) == 0.0

    def test_no_positive_truth(self):
        assert f1([1, -1], [-1, -1]) == 0.0


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [-1, -1, 1, 1]) == 1.0

    def test_all_tied_scores(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [-1, 1, -1, 1]) == 0.5

    def test_enumerated_pairs(self):
        # pos/neg pairs: (0.35,0.1) win, (0.35,0.4) loss, (0.8,*) two wins
        assert auc([0.1, 0.4, 0.35, 0.8], [-1, -1, 1, 1]) == pytest.approx(0.75)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [1, 1])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=30)
        labels = rng.choice([-1, 1], size=30)
        if len(np.unique(labels)) < 2:
            labels[0] = -labels[0]
        a = auc(scores, labels)
        b = auc(np.exp(scores), labels)
        assert a == pytest.approx(b)


@given(st.lists(st.tuples(st.integers(0, 4), st.booleans()), min_size=2, max_size=60))
@settings(max_examples=200, deadline=None)
def test_auc_matches_pairwise_count_under_heavy_ties(pairs):
    scores = np.array([s / 4.0 for s, _ in pairs])
    labels = np.array([1 if positive else -1 for _, positive in pairs])
    assume(0 < (labels == 1).sum() < len(labels))
    pos, neg = scores[labels == 1], scores[labels == -1]
    wins = sum((a > b) + 0.5 * (a == b) for a in pos for b in neg)
    assert auc(scores, labels) == pytest.approx(wins / (len(pos) * len(neg)), abs=1e-12)


def t_density(x, df):
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
    return c * (1 + x * x / df) ** (-(df + 1) / 2)


class TestTCdf:
    @pytest.mark.parametrize("df", [4, 9, 19])
    def test_matches_quadrature(self, df):
        for t in np.linspace(-5, 5, 21):
            expected, _ = integrate.quad(t_density, -50, t, args=(df,))
            assert abs(t_cdf(t, df) - expected) < 1e-6

    def test_symmetry_and_median(self):
        assert t_cdf(0.0, 7) == pytest.approx(0.5)
        assert t_cdf(1.3, 7) == pytest.approx(1 - t_cdf(-1.3, 7), abs=1e-14)

    def test_matches_scipy_on_grid(self):
        ts = np.arange(-400, 401) / 10
        for df in range(1, 201):
            got = np.array([t_cdf(float(t), df) for t in ts])
            np.testing.assert_allclose(got, stats.t.cdf(ts, df), rtol=0, atol=2e-15)

    @pytest.mark.parametrize("df", [0, 2.5, True])
    def test_rejects_non_integer_df(self, df):
        with pytest.raises(ValueError, match="df must be an integer >= 1"):
            t_cdf(1.0, df)


class TestPairedT:
    def test_identical_is_tie(self):
        r = paired_t_test([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
        assert r.verdict == "tie" and r.p_value == 1.0

    def test_constant_positive_difference_wins(self):
        r = paired_t_test([1.1, 1.1, 1.1], [1.0, 1.0, 1.0])
        assert r.verdict == "win" and r.p_value == 0.0

    def test_worked_example_with_quadrature_oracle(self):
        diffs = np.array([1.2, 0.8, 1.0, 1.1, 0.9])
        base = np.zeros(5)
        r = paired_t_test(diffs, base)
        expected_t = diffs.mean() / (diffs.std(ddof=1) / math.sqrt(5))
        assert r.t_stat == pytest.approx(expected_t)
        tail, _ = integrate.quad(t_density, expected_t, 200, args=(4,))
        assert abs(r.p_value - 2 * tail) < 1e-6
        assert r.p_value < 0.05 and r.verdict == "win"

    def test_swap_flips_verdict(self):
        a = [0.9, 0.95, 0.92, 0.93, 0.91]
        b = [0.5, 0.55, 0.52, 0.53, 0.51]
        assert paired_t_test(a, b).verdict == "win"
        assert paired_t_test(b, a).verdict == "loss"
        noisy_a = [0.9, 0.4, 0.7, 0.5, 0.8]
        noisy_b = [0.8, 0.5, 0.6, 0.6, 0.7]
        assert paired_t_test(noisy_a, noisy_b).verdict == "tie"
        assert paired_t_test(noisy_b, noisy_a).verdict == "tie"

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        for a, b in (([bad, 1.0, 2.0], [0.0, 0.0, 0.0]), ([0.0, 0.0, 0.0], [bad, 1.0, 2.0])):
            with pytest.raises(ValueError, match="a and b must be finite"):
                paired_t_test(a, b)

    @pytest.mark.filterwarnings("ignore:Precision loss:RuntimeWarning")  # scipy's note
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
                    min_size=2, max_size=30))
    def test_matches_scipy(self, pairs):
        a, b = np.array(pairs).T
        assume(np.std(a - b) > 0)  # scipy has no verdict for constant differences
        got = paired_t_test(a, b)
        want = stats.ttest_rel(a, b)
        assert got.t_stat == pytest.approx(want.statistic, rel=1e-9)
        assert got.p_value == pytest.approx(want.pvalue, rel=1e-6, abs=1e-12)


def curve(name, values):
    return LearningCurve(name, (0.1, 0.2, 0.3), np.array(values, dtype=float))


class TestWinTieLoss:
    def test_self_comparison_all_ties(self):
        a = curve("a", np.random.default_rng(1).uniform(size=(5, 3)))
        table = win_tie_loss(a, [a])
        assert table.counts() == (0, 3, 0)

    def test_domination_all_wins(self):
        rng = np.random.default_rng(2)
        base = rng.uniform(0.5, 0.6, size=(6, 3))
        better = base + 0.2 + rng.uniform(0, 0.01, size=(6, 3))
        table = win_tie_loss(curve("hi", better), [curve("lo", base)])
        assert table.counts() == (3, 0, 0)

    def test_grid_mismatch_rejected(self):
        a = curve("a", np.zeros((4, 3)))
        b = LearningCurve("b", (0.1, 0.2), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            win_tie_loss(a, [b])

    def test_format_contains_totals(self):
        a = curve("a", np.full((4, 3), 0.5))
        text = win_tie_loss(a, [a]).format()
        assert "IN ALL: 0/3/0" in text


class TestLearningCurve:
    def test_mean_and_sd(self):
        c = curve("m", [[0.5, 0.6, 0.7], [0.7, 0.8, 0.9]])
        np.testing.assert_allclose(c.mean, [0.6, 0.7, 0.8])
        assert c.sd.shape == (3,)

    def test_grid_consistency_enforced(self):
        with pytest.raises(ValueError):
            LearningCurve("m", (0.1, 0.2), np.zeros((3, 3)))
