import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankal.criteria import normalize_and_rank
from rankal.weighting import blend_weights, bvsb_weight, duplicate_weight


class TestBvsb:
    def test_ideal_step_list(self):
        sorted_vals = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        assert bvsb_weight(sorted_vals, 3) == 1.0

    def test_constant_list(self):
        assert bvsb_weight(np.full(6, 0.5), 2) == 0.0

    def test_worked_example(self):
        assert bvsb_weight(np.array([0.0, 0.5, 0.9, 1.0]), 1) == pytest.approx(0.5)

    def test_pool_too_small(self):
        with pytest.raises(ValueError):
            bvsb_weight(np.array([0.1, 0.2]), 2)

    def test_affine_invariance_via_normalization(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scores = rng.normal(size=12)
            a = normalize_and_rank(scores)[0]
            b = normalize_and_rank(3.7 * scores + 11.0)[0]
            assert bvsb_weight(a, 2) == pytest.approx(bvsb_weight(b, 2), abs=1e-9)

    def test_gap_monotonicity(self):
        # widening the gap after position N never lowers the weight
        base = np.array([0.0, 0.2, 0.4, 0.7, 1.0])
        widened = np.array([0.0, 0.2, 0.55, 0.7, 1.0])
        assert bvsb_weight(widened, 2) >= bvsb_weight(base, 2)


class TestDuplicate:
    def test_all_equal(self):
        assert duplicate_weight(np.zeros(8), 3) == 0.0

    def test_worked_example(self):
        assert duplicate_weight(np.array([0.0, 0.0, 0.0, 1.0, 1.0]), 1) == pytest.approx(0.4)

    def test_no_duplicates_is_maximal(self):
        vals = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
        n, k = len(vals), 2
        assert duplicate_weight(vals, k) == pytest.approx((n - k) / n)

    def test_pool_too_small(self):
        with pytest.raises(ValueError):
            duplicate_weight(np.zeros(3), 3)


def _sorted_bvsb(s, n):
    """The BVSB weight read off the ascending list ``s``, as it is defined."""
    denom = s[0] - s[-1]
    return 0.0 if abs(denom) < 1e-12 else float(np.clip((s[n - 1] - s[n]) / denom, 0.0, 1.0))


def _sorted_duplicate(s, n):
    """The duplicate weight read off the ascending list ``s``, as it is defined."""
    return int(np.sum(s[n:] != s[n - 1])) / len(s)


class TestOrderStatistics:
    @given(
        st.lists(st.integers(0, 4), min_size=2, max_size=40),
        st.floats(min_value=1e-3, max_value=1e3),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_order_matches_the_sorted_formula_under_heavy_ties(self, levels, scale, data):
        values = normalize_and_rank([scale * v for v in levels])[0]
        n = data.draw(st.integers(1, len(values) - 1))
        shuffled = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(values)
        ordered = np.sort(values)
        assert bvsb_weight(shuffled, n) == _sorted_bvsb(ordered, n)
        assert duplicate_weight(shuffled, n) == _sorted_duplicate(ordered, n)

    @pytest.mark.parametrize("n_select", [0, -2, 1.5, True])
    @pytest.mark.parametrize("weight", [bvsb_weight, duplicate_weight])
    def test_n_select_must_be_a_positive_integer(self, weight, n_select):
        with pytest.raises(ValueError, match=r"^n_select must be an integer >= 1$"):
            weight(np.array([0.0, 0.5, 1.0]), n_select)


class TestBlend:
    def test_one_committee_one_other_is_half_half(self):
        weights = blend_weights([0.8, 0.3], [False, True])
        assert weights.tolist() == [0.5, 0.5]
        weights = blend_weights([0.0, 0.0], [False, True])  # degenerate raws
        assert weights.tolist() == [0.5, 0.5]

    def test_two_noncommittee(self):
        weights = blend_weights([1.0, 0.5], [False, False])
        np.testing.assert_allclose(weights, [2 / 3, 1 / 3])

    def test_single_criterion(self):
        weights = blend_weights([0.2], [False])
        assert weights.tolist() == [1.0]
        assert blend_weights([0.0], [True]).tolist() == [1.0]

    def test_zero_group_spreads_uniformly(self):
        weights = blend_weights([0.0, 0.0, 0.7], [False, False, True])
        np.testing.assert_allclose(weights, [1 / 3, 1 / 3, 1 / 3])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            blend_weights([], [])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            blend_weights([-0.1, 0.5], [False, False])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("flags", [[False, False], [True, False]])
    def test_non_finite_rejected(self, bad, flags):
        with pytest.raises(ValueError, match="raw weights must be finite and non-negative"):
            blend_weights([bad, 0.5], flags)

    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=6),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_sum_and_group_mass_laws(self, raws, data):
        flags = [data.draw(st.booleans()) for _ in raws]
        weights = blend_weights(raws, flags)
        total = len(raws)
        assert abs(weights.sum() - 1.0) < 1e-12
        assert np.all(weights >= 0) and np.all(weights <= 1 + 1e-12)
        flags = np.array(flags)
        if flags.any() and (~flags).any():
            assert weights[~flags].sum() == pytest.approx((~flags).sum() / total, abs=1e-12)
            assert weights[flags].sum() == pytest.approx(flags.sum() / total, abs=1e-12)


def test_final_weight_monotone_in_own_gap():
    # enlarging one criterion's BVSB gap (others fixed) never lowers its share
    other = 0.4
    prev = -1.0
    for gap in np.linspace(0.0, 1.0, 11):
        weights = blend_weights([gap, other, 0.5], [False, False, True])
        assert weights[0] >= prev - 1e-12
        prev = weights[0]
