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
            a = normalize_and_rank(scores)[0].sorted_values
            b = normalize_and_rank(3.7 * scores + 11.0)[0].sorted_values
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
