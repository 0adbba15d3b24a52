import itertools
import tracemalloc

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from rankal.aggregation import (
    METHODS,
    AggregatedRanking,
    BordaConfig,
    aggregate,
    borda_aggregate,
    bucklin_aggregate,
    build_transition,
    kendall_distance,
    markov_aggregate,
    ordinalize,
    ranking_distances,
    spearman_distance,
    stationary_distribution,
    truncate_candidates,
)


@st.composite
def bucklin_instances(draw):
    """Rank lists of one of four kinds (permutations, tied integer lists,
    half-integer ranks, real ranks) with random, uniform or integer weights."""
    n = draw(st.integers(1, 40))
    n_lists = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("permutation", "tied", "half", "real")))
    if kind == "permutation":
        lists = np.array([rng.permutation(n) + 1.0 for _ in range(n_lists)])
    elif kind == "tied":
        lists = rng.integers(1, n + 1, size=(n_lists, n)).astype(float)
    elif kind == "half":
        lists = rng.integers(2, 2 * n + 2, size=(n_lists, n)) / 2.0
    else:
        lists = rng.uniform(1.0, n + 1.0, size=(n_lists, n))
    weighting = draw(st.sampled_from(("random", "uniform", "integer")))
    if weighting == "random":
        w = rng.uniform(0.0, 1.0, n_lists)
    elif weighting == "uniform":
        w = np.ones(n_lists)
    else:
        w = rng.integers(0, 4, n_lists).astype(float)
    w[rng.integers(n_lists)] += 1.0  # positive sum
    return lists, w


def random_permutations(rng, n_lists, n):
    return np.array([rng.permutation(n) + 1 for _ in range(n_lists)], dtype=float)


class TestOrdinalize:
    def test_permutation_is_identity(self):
        r = np.array([[3.0, 1.0, 2.0]])
        np.testing.assert_array_equal(ordinalize(r), r)

    def test_ties_resolved_by_position(self):
        r = np.array([[1.0, 1.0, 3.0, 3.0]])
        np.testing.assert_array_equal(ordinalize(r), [[1.0, 2.0, 3.0, 4.0]])

    @given(bucklin_instances())
    @settings(max_examples=100, deadline=None)
    def test_each_list_sorted_by_rank_then_position(self, instance):
        lists, _ = instance
        pos = np.arange(lists.shape[1])
        expected = np.empty_like(lists)
        for k in range(len(lists)):
            expected[k, np.lexsort((pos, lists[k]))] = pos + 1.0
        np.testing.assert_array_equal(ordinalize(lists), expected)


class TestBorda:
    def test_null_weight_dictatorship(self):
        rng = np.random.default_rng(0)
        lists = random_permutations(rng, 2, 8)
        for fusion in ("pnorm", "minimum"):
            out = borda_aggregate(lists, np.array([1.0, 0.0]), BordaConfig(fusion))
            np.testing.assert_array_equal(out.ranks, lists[0].astype(int))

    def test_identical_lists_unanimity(self):
        rng = np.random.default_rng(1)
        base = rng.permutation(7) + 1.0
        lists = np.array([base] * 4)
        for fusion in ("minimum", "median", "geometric-mean", "pnorm"):
            out = borda_aggregate(lists, np.ones(4), BordaConfig(fusion))
            np.testing.assert_array_equal(out.ranks, base.astype(int))

    def test_pairwise_unanimity_property(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            lists = random_permutations(rng, 3, 6)
            w = rng.uniform(0.1, 1.0, size=3)
            for fusion in ("pnorm", "geometric-mean"):
                out = borda_aggregate(lists, w, BordaConfig(fusion))
                for i, j in itertools.combinations(range(6), 2):
                    if np.all(lists[:, i] < lists[:, j]):
                        assert out.ranks[i] < out.ranks[j]

    def test_geometric_mean_zero_weight_guard(self):
        lists = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 3.0]])
        out = borda_aggregate(lists, np.array([1.0, 0.0]), BordaConfig("geometric-mean"))
        assert sorted(out.ranks.tolist()) == [1, 2, 3]

    def test_geometric_mean_equal_products_tie_by_position(self):
        # rank products 9*12*9 = 18*18*3 = 972: the tie goes to the earlier
        # position, whatever log/exp round-off the weights bring
        lists = np.array([[9.0, 18.0], [12.0, 18.0], [9.0, 3.0]])
        for scale in (1.0, 8.0, 0.3, 1e-6):
            out = borda_aggregate(lists, scale * np.array([2.0, 9.0, 2.0]),
                                  BordaConfig("geometric-mean"))
            assert out.ids.tolist() == [0, 1]

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(3)
        lists = random_permutations(rng, 3, 9)
        w = rng.uniform(0.1, 1.0, size=3)
        for fusion in ("minimum", "median", "geometric-mean", "pnorm"):
            a = borda_aggregate(lists, w, BordaConfig(fusion))
            b = borda_aggregate(lists, 7.3 * w, BordaConfig(fusion))
            np.testing.assert_array_equal(a.ids, b.ids)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            BordaConfig("sum")
        with pytest.raises(ValueError):
            BordaConfig("pnorm", p=0.5)


class TestBordaConfig:
    @pytest.mark.parametrize("p", [0.5, np.nan, np.inf])
    def test_rejects_p_that_is_not_finite_and_at_least_1(self, p):
        with pytest.raises(ValueError, match="p must be a finite number >= 1"):
            BordaConfig("pnorm", p=p)


class TestBucklin:
    def test_majority_weight_dictates(self):
        rng = np.random.default_rng(4)
        lists = random_permutations(rng, 2, 8)
        out = bucklin_aggregate(lists, np.array([0.6, 0.4]))
        np.testing.assert_array_equal(out.ranks, lists[0].astype(int))

    def test_identical_lists(self):
        base = np.array([2.0, 1.0, 4.0, 3.0])
        out = bucklin_aggregate(np.array([base] * 3), np.ones(3))
        np.testing.assert_array_equal(out.ranks, base.astype(int))

    def test_scores_are_confirmation_depths(self):
        base = np.array([2.0, 1.0, 3.0])
        out = bucklin_aggregate(base[None, :], np.array([1.0]))
        assert out.scores.tolist() == [1.0, 2.0, 3.0]

    def test_normalizes_weights(self):
        base = np.array([2.0, 1.0, 3.0])
        out = bucklin_aggregate(np.array([base] * 2), np.array([3.0, 1.0]))
        np.testing.assert_array_equal(out.ranks, base.astype(int))


    @given(bucklin_instances())
    @settings(max_examples=300, deadline=None)
    def test_matches_depth_loop_reference(self, instance):
        lists, w = instance
        out = bucklin_aggregate(lists, w)
        n = lists.shape[1]
        np.testing.assert_array_equal(np.sort(out.ranks), np.arange(1, n + 1))
        try:
            ref = reference.bucklin_aggregate(lists, w)
        except RuntimeError:  # the depth loop stops at int(max rank)
            assert lists.max() > int(lists.max())
            return
        np.testing.assert_array_equal(out.ranks, ref.ranks)
        np.testing.assert_array_equal(out.scores, ref.scores)

    def test_fractional_largest_rank_confirms_at_its_ceiling(self):
        out = bucklin_aggregate(np.array([[1.0, 2.5]]), np.array([1.0]))
        assert out.ids.tolist() == [0, 1]
        assert out.scores.tolist() == [1.0, 3.0]


class TestTruncation:
    def test_union_of_tops(self):
        l1 = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        l2 = np.array([6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
        cand = truncate_candidates(np.array([l1, l2]), [False, False], 1, tun2=2)
        assert cand.tolist() == [0, 1, 2, 3, 4, 5]
        cand = truncate_candidates(np.array([l1, l1]), [False, False], 1, tun2=2)
        assert cand.tolist() == [0, 1, 2]

    def test_committee_lists_do_not_nominate(self):
        l1 = np.array([1.0, 2.0, 3.0, 4.0])
        l2 = np.array([4.0, 3.0, 2.0, 1.0])
        cand = truncate_candidates(np.array([l1, l2]), [False, True], 1, tun2=1)
        assert cand.tolist() == [0, 1]

    def test_all_committee_falls_back(self):
        l1 = np.array([1.0, 2.0, 3.0])
        with pytest.warns(UserWarning):
            cand = truncate_candidates(l1[None, :], [True], 1, tun2=1)
        assert cand.tolist() == [0, 1, 2]

    def test_no_candidate_names_the_truncation(self):
        lists = np.array([[4.0, 5.0, 6.0], [1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match=r"truncation keeps no candidate.*N\* = n_select "
                                             r"\+ tun2 = 3"):
            truncate_candidates(lists, [False, True], 2, tun2=1)

    def test_union_bound_over_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            lists = random_permutations(rng, 3, 1000)
            cand = truncate_candidates(lists, [False] * 3, 1, tun2=5)
            assert 6 <= len(cand) <= 18


class TestTransition:
    def test_two_candidate_mc3_example(self):
        # single list ranks candidate 0 worse than candidate 1
        lists = np.array([[2.0, 1.0]])
        t = build_transition(lists, np.array([1.0]), "mc3", tun1=0.05)
        assert t[0, 1] == pytest.approx(0.5 * 0.95 + 0.025)
        assert t[1, 0] == pytest.approx(0.025)

    def test_mc1_equals_mc2_under_unanimity(self):
        rng = np.random.default_rng(6)
        base = rng.permutation(6) + 1.0
        lists = np.array([base] * 3)
        t1 = build_transition(lists, np.ones(3), "mc1")
        t2 = build_transition(lists, np.ones(3), "mc2")
        np.testing.assert_allclose(t1, t2)

    def test_stochastic_invariants(self):
        rng = np.random.default_rng(7)
        for variant in ("mc1", "mc2", "mc3"):
            lists = random_permutations(rng, 4, 12)
            t = build_transition(lists, rng.uniform(0.1, 1, 4), variant, tun1=0.07)
            assert np.max(np.abs(t.sum(axis=1) - 1.0)) < 1e-12
            assert t.min() >= 0.07 / 12 - 1e-15

    def test_too_few_candidates(self):
        with pytest.raises(ValueError, match="at least one sample"):
            build_transition(np.empty((1, 0)), np.array([1.0]), "mc2")

    @pytest.mark.parametrize("variant", ["mc1", "mc2", "mc3"])
    def test_one_candidate_is_the_one_state_chain(self, variant):
        t = build_transition(np.array([[3.0], [1.0]]), np.array([0.4, 0.6]), variant)
        assert t.tolist() == [[1.0]]
        assert stationary_distribution(t).tolist() == [1.0]


class TestStationary:
    def test_uniform_matrix(self):
        n = 6
        pi = stationary_distribution(np.full((n, n), 1.0 / n))
        np.testing.assert_allclose(pi, np.full(n, 1.0 / n), atol=1e-12)

    def test_analytic_two_state(self):
        t = np.array([[0.9, 0.1], [0.5, 0.5]])
        pi = stationary_distribution(t)
        np.testing.assert_allclose(pi, [5 / 6, 1 / 6], atol=1e-10)

    def test_random_positive_matrices(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            m = rng.uniform(0.01, 1.0, size=(20, 20))
            m /= m.sum(axis=1, keepdims=True)
            pi = stationary_distribution(m)
            assert np.abs(pi @ m - pi).sum() < 1e-8
            assert abs(pi.sum() - 1.0) < 1e-12
            assert np.all(pi >= 0)

    def test_argument_left_unchanged(self):
        rng = np.random.default_rng(17)
        t = build_transition(random_permutations(rng, 3, 30), np.ones(3), "mc3")
        before = t.copy()
        pi = stationary_distribution(t)
        np.testing.assert_array_equal(t, before)
        np.testing.assert_array_equal(stationary_distribution(before), pi)
        np.testing.assert_array_equal(before, t)

    def test_argument_restored_when_the_solve_raises(self):
        t = np.eye(3)  # T - I is 0: singular with its last column set to 1
        with pytest.raises(np.linalg.LinAlgError):
            stationary_distribution(t)
        np.testing.assert_array_equal(t, np.eye(3))

    def test_read_only_argument_accepted(self):
        rng = np.random.default_rng(18)
        t = build_transition(random_permutations(rng, 2, 9), np.ones(2), "mc2")
        pi = stationary_distribution(t)
        t.flags.writeable = False
        np.testing.assert_array_equal(stationary_distribution(t), pi)
        np.testing.assert_array_equal(stationary_distribution(np.asfortranarray(t)), pi)


class TestTransitionMatrixChecks:
    """``stationary_distribution`` is the one place that checks T."""

    @pytest.mark.parametrize("entries, message", [
        ([[1.1, -0.1], [0.5, 0.5]], "entries must be finite and non-negative"),
        ([[0.9, 0.2], [0.5, 0.5]], "rows must sum to 1"),
        ([[np.nan, np.nan], [0.5, 0.5]], "entries must be finite and non-negative"),
        ([[-np.inf, np.inf], [0.5, 0.5]], "entries must be finite and non-negative"),
        ([[np.inf, 0.0], [0.5, 0.5]], "rows must sum to 1"),
        (np.full((2, 3), 1 / 3), "must be a non-empty square matrix, got shape \\(2, 3\\)"),
        ([1.0], "must be a non-empty square matrix"),
        (np.zeros((0, 0)), "must be a non-empty square matrix"),
    ], ids=["negative", "row-sum", "nan", "minus-inf", "inf", "not-square", "1-D", "empty"])
    def test_rejects(self, entries, message):
        t = np.array(entries)
        before = t.copy()
        with pytest.raises(ValueError, match="^transition " + message):
            stationary_distribution(t)
        np.testing.assert_array_equal(t, before)


@st.composite
def markov_instances(draw):
    """Rank lists over n = 2..150 samples from L = 1..12 lists (past the eight
    that share one code matrix), of a kind that permutes, ties heavily, takes
    half steps, exceeds the int16 range or is real, with random weights
    (some zero), equal weights 1/L (mc2's preference lands on exactly 0.5)
    or small integers."""
    n = draw(st.integers(2, 150))
    n_lists = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("permutation", "ties", "half", "large", "real")))
    if kind == "permutation":
        lists = random_permutations(rng, n_lists, n)
    elif kind == "ties":
        lists = rng.integers(1, max(2, n // 8) + 1, size=(n_lists, n)).astype(float)
    elif kind == "half":
        lists = rng.integers(2, 2 * n + 2, size=(n_lists, n)) / 2.0
    elif kind == "large":  # up to 2**15 - 2, or just past the int16 range, or far past it
        lists = rng.integers(1, 4, size=(n_lists, n)) * rng.choice([10922.0, 10923.0, 1e20])
    else:
        lists = rng.uniform(1.0, 4.0, size=(n_lists, n))
    weighting = draw(st.sampled_from(("random", "equal", "integer")))
    if weighting == "random":
        w = rng.uniform(0.0, 1.0, n_lists) * (rng.random(n_lists) < 0.7)
    elif weighting == "equal":
        w = np.full(n_lists, 1.0 / n_lists)
    else:
        w = rng.integers(0, 3, n_lists).astype(float)
    w[rng.integers(n_lists)] += 0.5  # positive sum
    return lists, w, rng.random(n_lists) < 0.3


class TestMarkovPathMatchesReference:
    """The coded preference build and the in-place solve are bit-identical to
    the frozen float64 sums and transposed-copy solve in ``reference``."""

    @given(markov_instances(), st.sampled_from(("mc1", "mc2", "mc3")), st.floats(0.01, 0.5))
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_transition_and_stationary(self, instance, variant, tun1):
        lists, w, _ = instance
        t = build_transition(lists, w, variant, tun1=tun1)
        expected = reference.build_transition(lists, w, variant, tun1=tun1)
        np.testing.assert_array_equal(t, expected)
        np.testing.assert_array_equal(stationary_distribution(t),
                                      reference.stationary_distribution(expected))

    @given(markov_instances(), st.sampled_from(("mc1", "mc2", "mc3")), st.booleans(),
           st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore:all rank lists are committee-based")
    def test_markov_aggregate(self, instance, variant, truncate, n_select):
        lists, w, flags = instance
        kwargs = dict(variant=variant, n_select=n_select, tun2=2, committee_flags=flags,
                      truncate=truncate)
        if truncate and not flags.all() and not (lists[~flags] <= n_select + 2).any():
            with pytest.raises(ValueError, match="truncation keeps no candidate"):
                markov_aggregate(lists, w, **kwargs)
            return
        out = markov_aggregate(lists, w, **kwargs)
        expected = reference.markov_aggregate(lists, w, **kwargs)
        np.testing.assert_array_equal(out.ids, expected.ids)
        np.testing.assert_array_equal(out.ranks, expected.ranks)
        np.testing.assert_array_equal(out.scores, expected.scores)


class TestStationaryReference:
    @given(st.integers(2, 59), st.integers(1, 5), st.sampled_from(("mc1", "mc2", "mc3")),
           st.floats(0.01, 0.15), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_power_iteration_reference(self, n, n_lists, variant, tun1, seed):
        rng = np.random.default_rng(seed)
        lists = random_permutations(rng, n_lists, n)
        t = build_transition(lists, rng.uniform(0.05, 1.0, n_lists), variant, tun1=tun1)
        pi = stationary_distribution(t)
        assert np.abs(pi - reference.power_iteration(t)).sum() < 1e-10


class TestMarkovAggregate:
    def test_single_list_identity(self):
        rng = np.random.default_rng(9)
        for trial in range(50):
            base = rng.permutation(12) + 1.0
            variant = ("mc1", "mc2", "mc3")[trial % 3]
            out = markov_aggregate(
                base[None, :], np.array([1.0]), variant=variant, truncate=False
            )
            np.testing.assert_array_equal(out.ranks, base.astype(int))

    def test_truncated_output_covers_all_samples(self):
        rng = np.random.default_rng(10)
        lists = random_permutations(rng, 3, 40)
        out = markov_aggregate(
            lists, np.full(3, 1 / 3), variant="mc2", n_select=1, tun2=5,
            committee_flags=np.array([False, False, False]),
        )
        assert sorted(out.ids.tolist()) == list(range(40))
        assert sorted(out.ranks.tolist()) == list(range(1, 41))

    @given(st.integers(3, 30), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_tied_copy_goes_to_lower_position(self, n, n_lists, data):
        # sample j copies sample 0's rank in every list: the two are tied in
        # every chain, and the tie goes to the lower sample position
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        j = data.draw(st.integers(1, n - 1))
        lists = random_permutations(rng, n_lists, n)
        lists[:, j] = lists[:, 0]
        w = rng.uniform(0.05, 1.0, n_lists)
        for variant in ("mc1", "mc2", "mc3"):
            for truncate in (True, False):
                out = markov_aggregate(lists, w, variant=variant, truncate=truncate)
                assert out.ranks[0] < out.ranks[j], (variant, truncate)

    @given(st.integers(2, 60), st.integers(1, 4), st.integers(1, 5), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_truncated_away_samples_follow_in_ascending_position(
            self, n, n_lists, n_select, tun2, seed):
        rng = np.random.default_rng(seed)
        lists = random_permutations(rng, n_lists, n)
        flags = rng.random(n_lists) < 0.5
        flags[0] = False  # one list nominates, so truncation runs
        out = markov_aggregate(lists, rng.uniform(0.05, 1.0, n_lists), n_select=n_select,
                               tun2=tun2, committee_flags=flags)
        cand = truncate_candidates(lists, flags, n_select, tun2)
        np.testing.assert_array_equal(out.ids[len(cand):], np.setdiff1d(np.arange(n), cand))
        np.testing.assert_array_equal(np.sort(out.ids[:len(cand)]), np.sort(cand))

    def test_scores_follow_ids(self):
        rng = np.random.default_rng(13)
        lists = random_permutations(rng, 3, 12)
        lists[:, 5] = lists[:, 2]
        for variant in ("mc1", "mc2", "mc3"):
            out = markov_aggregate(lists, np.ones(3), variant=variant, truncate=False)
            pi = stationary_distribution(build_transition(lists, np.ones(3), variant))
            np.testing.assert_array_equal(out.scores, pi[out.ids])

    def test_memory_is_t_and_one_byte_buffer(self):
        # T is 8 MB at n = 1000; the uint8 codes add 1 MB, and a bool plane
        # per list would add 8 MB more
        rng = np.random.default_rng(20)
        lists = random_permutations(rng, 8, 1000)
        tracemalloc.start()
        try:
            markov_aggregate(lists, np.full(8, 1 / 8), truncate=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10.5e6

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(11)
        lists = random_permutations(rng, 3, 10)
        w = rng.uniform(0.1, 1, 3)
        for variant in ("mc1", "mc2", "mc3"):
            a = markov_aggregate(lists, w, variant=variant, truncate=False)
            b = markov_aggregate(lists, w * 4.2, variant=variant, truncate=False)
            np.testing.assert_array_equal(a.ids, b.ids)


class TestDistances:
    def test_identical_lists(self):
        r = np.array([1, 2, 3])
        assert kendall_distance(r, r) == 0
        assert spearman_distance(r, r) == 0

    def test_full_reversal(self):
        assert kendall_distance([1, 2, 3], [3, 2, 1]) == 3
        assert spearman_distance([1, 2, 3], [3, 2, 1]) == 4

    def test_ties_contribute_nothing(self):
        assert kendall_distance([1, 1, 2], [2, 1, 1]) == 1  # only the (0,2) pair

    def test_kendall_metric_properties(self):
        rng = np.random.default_rng(12)
        perms = [rng.permutation(7) + 1 for _ in range(12)]
        for a, b in itertools.combinations(perms, 2):
            assert kendall_distance(a, b) == kendall_distance(b, a)
        for a in perms:
            assert kendall_distance(a, a) == 0
        for a, b, c in itertools.combinations(perms, 3):
            assert kendall_distance(a, c) <= (
                kendall_distance(a, b) + kendall_distance(b, c)
            )


    @given(st.integers(0, 80), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_kendall_matches_dense_count(self, n, levels, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(1, levels + 1, n).astype(float)  # ties in both lists
        b = rng.integers(1, levels + 1, n) / 2.0
        assert kendall_distance(a, b) == reference.kendall_distance(a, b)
        assert kendall_distance(b, a) == reference.kendall_distance(a, b)

    def test_kendall_memory_is_linear(self):
        rng = np.random.default_rng(19)
        # n = 2000 first: an n x n count fails there with ~100 MB, not at 10 GB
        for n in (2000, 20000):
            a = rng.permutation(n) + 1.0
            b = rng.integers(1, 100, n).astype(float)
            tracemalloc.start()
            try:
                kendall_distance(a, b)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 50e6, n

    def test_kendall_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            kendall_distance([1.0, np.nan], [1.0, 2.0])


class TestBruteForce:
    """The factorial oracle of ``tests/reference.py``, on which acceptance 6 relies."""

    def test_single_list(self):
        base = np.array([[2.0, 1.0, 3.0]])
        order, obj = reference.brute_force_aggregate(base, np.array([1.0]))
        np.testing.assert_array_equal(order, [1, 0, 2])
        assert obj == 0.0

    def test_null_weight(self):
        rng = np.random.default_rng(13)
        lists = random_permutations(rng, 2, 5)
        order, _ = reference.brute_force_aggregate(lists, np.array([1.0, 0.0]))
        np.testing.assert_array_equal(np.argsort(order) + 1, lists[0].astype(int))

    def test_scan_matches_direct_objective(self):
        rng = np.random.default_rng(14)
        lists = random_permutations(rng, 3, 5)
        w = rng.uniform(0.1, 1.0, 3)
        order, obj = reference.brute_force_aggregate(lists, w)
        objective = reference.weighted_kendall_objective
        assert obj == pytest.approx(objective(np.argsort(order) + 1, lists, w))
        # exhaustively confirm optimality
        best = min(
            objective(np.argsort(perm) + 1, lists, w)
            for perm in itertools.permutations(range(5))
        )
        assert obj == pytest.approx(best)


def test_all_aggregators_return_permutations():
    rng = np.random.default_rng(16)
    lists = random_permutations(rng, 4, 11)
    w = rng.uniform(0.1, 1, 4)
    outputs = [
        borda_aggregate(lists, w, BordaConfig(f))
        for f in ("minimum", "median", "geometric-mean", "pnorm")
    ]
    outputs.append(bucklin_aggregate(lists, w))
    for v in ("mc1", "mc2", "mc3"):
        outputs.append(markov_aggregate(lists, w, variant=v, truncate=False))
    for out in outputs:
        assert isinstance(out, AggregatedRanking)
        assert sorted(out.ids.tolist()) == list(range(11))
        assert sorted(out.ranks.tolist()) == list(range(1, 12))
        kd, sd = ranking_distances(out.ranks, lists)
        assert kd >= 0 and sd >= 0


class TestAggregateDispatch:
    # tied ranks in every list, and one committee list that may not nominate
    LISTS = np.array([
        [1, 1, 3, 4, 5, 6, 7, 8, 9, 9],
        [2, 1, 1, 4, 4, 6, 7, 10, 8, 9],
        [1, 1, 1, 1, 5, 5, 5, 5, 9, 9],
    ], dtype=float)
    WEIGHTS = np.array([0.5, 0.2, 0.3])
    FLAGS = np.array([False, False, True])
    IDS = np.arange(100, 110)

    def direct(self, method):
        fusions = {"borda-min": "minimum", "borda-median": "median",
                   "borda-geo": "geometric-mean", "borda-pnorm": "pnorm"}
        if method in fusions:
            return borda_aggregate(self.LISTS, self.WEIGHTS,
                                   BordaConfig(fusions[method], p=2.0), ids=self.IDS)
        if method == "bucklin":
            return bucklin_aggregate(self.LISTS, self.WEIGHTS, ids=self.IDS)
        return markov_aggregate(
            self.LISTS, self.WEIGHTS, variant=method, n_select=2, tun1=0.1, tun2=1,
            committee_flags=self.FLAGS, ids=self.IDS,
        )

    @pytest.mark.parametrize("method", METHODS)
    def test_matches_backend(self, method):
        out = aggregate(method, self.LISTS, self.WEIGHTS, ids=self.IDS, n_select=2,
                        tun1=0.1, tun2=1, p=2.0, committee_flags=self.FLAGS)
        ref = self.direct(method)
        np.testing.assert_array_equal(out.ids, ref.ids)
        np.testing.assert_array_equal(out.scores, ref.scores)
        np.testing.assert_array_equal(out.ranks, ref.ranks)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="condorcet"):
            aggregate("condorcet", self.LISTS, self.WEIGHTS)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("where, bad", [("weight", np.nan), ("weight", np.inf),
                                            ("rank", np.nan), ("rank", np.inf)],
                             ids=["nan", "inf", "nan-rank", "inf-rank"])
    def test_non_finite_weight_rejected(self, method, where, bad):
        weights = np.array(self.WEIGHTS, dtype=float)
        lists = self.LISTS.copy()
        if where == "weight":
            weights[0] = bad
        else:
            lists[0, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            aggregate(method, lists, weights, committee_flags=self.FLAGS)

    @pytest.mark.parametrize("method", ["mc1", "mc2", "mc3"])
    @pytest.mark.parametrize("key, value, message", [
        ("n_select", -3, "n_select must be an integer >= 1"),
        ("n_select", 0, "n_select must be an integer >= 1"),
        ("n_select", 2.5, "n_select must be an integer >= 1"),
        ("tun2", 1.5, "tun2 must be an integer >= 0"),
        ("tun2", -5, "tun2 must be an integer >= 0"),
    ])
    def test_truncation_values_rejected(self, method, key, value, message):
        with pytest.raises(ValueError, match=message):
            aggregate(method, self.LISTS, self.WEIGHTS, committee_flags=self.FLAGS,
                      **{key: value})


@st.composite
def permutation_lists(draw):
    n = draw(st.integers(2, 40))
    n_lists = draw(st.integers(1, 4))
    lists = [draw(st.permutations(range(1, n + 1))) for _ in range(n_lists)]
    # integer weights keep every fused score exact, so the 12-decimal rounding
    # that settles fused-score ties cannot move with the scale
    weights = draw(st.lists(st.integers(1, 9), min_size=n_lists, max_size=n_lists))
    return np.array(lists, dtype=float), np.array(weights, dtype=float)


class TestAggregateProperties:
    @given(permutation_lists(), st.integers(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_weight_scale_leaves_ranks(self, instance, exponent):
        lists, w = instance
        scale = 2.0 ** exponent  # exact in floating point
        for method in METHODS:
            a = aggregate(method, lists, w)
            b = aggregate(method, lists, scale * w)
            np.testing.assert_array_equal(a.ranks, b.ranks, err_msg=method)

    @given(st.integers(2, 40).flatmap(
        lambda n: st.tuples(st.permutations(range(1, n + 1)), st.integers(1, n))
    ))
    @settings(max_examples=60, deadline=None)
    def test_single_list_yields_its_top(self, case):
        perm, n_select = case
        lists = np.array([perm], dtype=float)
        expected = np.argsort(lists[0])[:n_select]
        for method in METHODS:
            out = aggregate(method, lists, [1.0], n_select=n_select)
            np.testing.assert_array_equal(out.top(n_select), expected, err_msg=method)
