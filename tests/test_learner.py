import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from rankal import learner
from rankal.data import make_two_blobs, split_pool, SplitSpec
from rankal.learner import (
    Committee,
    LearnerConfig,
    fit,
    fit_committee,
    kernel_matrix,
    posterior,
)

CFG = LearnerConfig(kernel="rbf", gamma=1.0)


def test_separable_points_classified():
    x = np.array([[0.0, 0.0], [2.0, 2.0]])
    y = np.array([-1, 1])
    m = fit(CFG, x, y)
    p = m.predict_proba(x)
    assert p[0] < 0.5 < p[1]


def test_midpoint_symmetry():
    x = np.array([[0.0], [2.0]])
    y = np.array([-1, 1])
    m = fit(CFG, x, y)
    p = m.predict_proba(np.array([[1.0]]))[0]
    assert abs(p - 0.5) < 1e-6


def centroid_accuracy(train, test):
    mu_pos = train.features[train.labels == 1].mean(axis=0)
    mu_neg = train.features[train.labels == -1].mean(axis=0)
    d_pos = np.linalg.norm(test.features - mu_pos, axis=1)
    d_neg = np.linalg.norm(test.features - mu_neg, axis=1)
    preds = np.where(d_pos <= d_neg, 1, -1)
    return np.mean(preds == test.labels)


def test_two_blob_accuracy_matches_centroid_oracle():
    learner_acc, oracle_acc = [], []
    for seed in range(10):
        d = make_two_blobs(n=200, center_distance=3.0, sigma=0.5, seed=seed)
        test, pool = split_pool(d, SplitSpec(0.5, seed))
        train = pool.data
        m = fit(LearnerConfig(), train.features, train.labels)
        learner_acc.append(np.mean(m.predict(test.features) == test.labels))
        oracle_acc.append(centroid_accuracy(train, test))
    assert np.mean(oracle_acc) >= 0.95  # the oracle itself clears the bar
    assert np.mean(learner_acc) >= 0.95
    assert np.mean(learner_acc) >= np.mean(oracle_acc) - 0.01


def test_posterior_contract():
    x = np.array([[0.0, 0.0], [2.0, 2.0], [0.1, 0.0]])
    y = np.array([-1, 1, -1])
    m = fit(CFG, x, y)
    grid = np.random.default_rng(0).normal(size=(50, 2))
    p_pos, y_max, p_max = posterior(m, grid)
    assert np.all((p_pos > 0) & (p_pos < 1))
    assert np.allclose(p_pos + (1 - p_pos), 1.0, atol=1e-12)
    assert np.all(p_max >= 0.5 - 1e-12)
    assert np.all(np.where(p_pos >= 0.5, 1, -1) == y_max)


def test_half_probability_tie_goes_positive():
    x = np.array([[0.0], [2.0]])
    m = fit(CFG, x, np.array([-1, 1]))
    _, y_max, p_max = posterior(m, np.array([[1.0]]))
    assert y_max[0] == 1
    assert abs(p_max[0] - 0.5) < 1e-6


def test_linear_model_monotone_in_1d():
    rng = np.random.default_rng(3)
    x = rng.uniform(-2, 2, size=(40, 1))
    y = np.where(x[:, 0] > 0, 1, -1)
    m = fit(LearnerConfig(kernel="linear", reg=1e-3), x, y)
    grid = np.linspace(-3, 3, 41).reshape(-1, 1)
    p = m.predict_proba(grid)
    assert np.all(np.diff(p) >= -1e-9)


def test_permutation_invariance():
    rng = np.random.default_rng(4)
    d = make_two_blobs(n=60, seed=4)
    perm = rng.permutation(60)
    m1 = fit(LearnerConfig(), d.features, d.labels)
    m2 = fit(LearnerConfig(), d.features[perm], d.labels[perm])
    grid = rng.normal(size=(30, d.n_features))
    np.testing.assert_allclose(
        m1.predict_proba(grid), m2.predict_proba(grid), atol=1e-8
    )


def test_strong_regularization_approaches_prior():
    d = make_two_blobs(n=200, pos_fraction=0.3, seed=7)
    m = fit(LearnerConfig(reg=1e6), d.features, d.labels)
    p = m.predict_proba(d.features)
    assert np.all(np.abs(p - 0.3) < 0.05)


def test_single_class_degenerate():
    x = np.array([[0.0], [1.0]])
    m = fit(CFG, x, np.array([1, 1]))
    assert m.degenerate
    assert np.allclose(m.predict_proba(x), 0.99)
    m2 = fit(CFG, x, np.array([-1, -1]))
    assert np.allclose(m2.predict_proba(x), 0.01)


def test_fit_errors():
    with pytest.raises(ValueError):
        fit(CFG, np.zeros((0, 2)), np.array([], dtype=int))
    m = fit(CFG, np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([-1, 1]))
    with pytest.raises(ValueError, match="dimension"):
        m.predict_proba(np.zeros((3, 5)))


@pytest.mark.parametrize("value", [0, -1, 2.5, "x", True])
def test_max_iter_must_be_a_positive_integer(value):
    with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
        LearnerConfig(max_iter=value)


@pytest.mark.parametrize("key, value", [
    ("reg", float("nan")), ("reg", float("inf")), ("reg", 0.0), ("reg", True),
    ("tol", float("nan")), ("tol", -1e-8),
    ("gamma", float("inf")), ("gamma", float("nan")), ("gamma", True), ("gamma", 0),
])
def test_reg_tol_and_gamma_must_be_positive_finite_numbers(key, value):
    with pytest.raises(ValueError, match=f"{key} must be a positive finite number"):
        LearnerConfig(**{key: value})


def test_determinism():
    d = make_two_blobs(n=80, seed=8)
    m1 = fit(LearnerConfig(), d.features, d.labels)
    m2 = fit(LearnerConfig(), d.features, d.labels)
    np.testing.assert_array_equal(m1.dual_coeffs, m2.dual_coeffs)


class TestCommittee:
    def test_same_seed_identical(self):
        d = make_two_blobs(n=60, seed=9)
        c1 = fit_committee(LearnerConfig(), d.features, d.labels, g=3, seed=11)
        c2 = fit_committee(LearnerConfig(), d.features, d.labels, g=3, seed=11)
        probs1 = c1.member_proba(d.features[:5])
        probs2 = c2.member_proba(d.features[:5])
        np.testing.assert_array_equal(probs1, probs2)

    def test_members_near_single_model_accuracy(self):
        d = make_two_blobs(n=300, seed=10)
        test, pool = split_pool(d, SplitSpec(0.5, 10))
        train = pool.data
        single = fit(LearnerConfig(), train.features, train.labels)
        single_acc = np.mean(single.predict(test.features) == test.labels)
        committee = fit_committee(LearnerConfig(), train.features, train.labels, g=5, seed=0)
        for member in committee.members:
            acc = np.mean(member.predict(test.features) == test.labels)
            assert abs(acc - single_acc) <= 0.1

    def test_degenerate_members_agree(self):
        # identical single-class resamples: every member predicts the class
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        committee = fit_committee(CFG, x, y, g=2, seed=0)
        probs = committee.member_proba(x)
        assert np.allclose(probs.std(axis=0), 0.0)

    def test_small_committee_rejected(self):
        with pytest.raises(ValueError):
            fit_committee(CFG, np.zeros((2, 1)), np.array([-1, 1]), g=1)


def test_fit_records_how_it_ended():
    d = make_two_blobs(n=60, seed=12)
    m = fit(LearnerConfig(), d.features, d.labels)
    assert m.converged and 1 <= m.n_iter < LearnerConfig().max_iter
    capped = fit(LearnerConfig(max_iter=2), d.features, d.labels)
    assert capped.n_iter == 2 and not capped.converged
    degenerate = fit(CFG, d.features[:3], np.ones(3, dtype=int))
    assert degenerate.degenerate and degenerate.n_iter == 0 and degenerate.converged


@settings(max_examples=40, deadline=None)
@given(n=st.integers(20, 80), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       n_pos=st.integers(1, 3), kernel=st.sampled_from(["rbf", "linear"]))
def test_member_views_match_the_stacked_posteriors(n, d, seed, n_pos, kernel):
    # one to three positives, so about a third of the draws miss one: the
    # degenerate members are in the stack too
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = np.where(np.arange(n) < n_pos, 1, -1)
    cfg = LearnerConfig(kernel=kernel)
    committee = fit_committee(cfg, x, y, g=5, seed=seed)
    grid = np.concatenate([x, rng.normal(size=(20, d))])
    stacked = committee.member_proba(grid)
    assert stacked.shape == (5, len(grid))
    for j, member in enumerate(committee.members):
        assert member.degenerate == committee.degenerate[j]
        np.testing.assert_allclose(member.predict_proba(grid), stacked[j], rtol=0, atol=1e-12)
    assert np.all(committee.coeffs[~committee.drawn] == 0.0)


def test_members_fit_their_unique_draws():
    d = make_two_blobs(n=40, seed=13)
    committee = fit_committee(LearnerConfig(), d.features, d.labels, g=3, seed=(5, 2))
    for j, member in enumerate(committee.members):
        idx = np.random.default_rng((5, 2, j)).integers(0, 40, size=40)
        np.testing.assert_array_equal(member.support, d.features[np.unique(idx)])


def _pool(n, d, seed):
    """Features, labels with both classes, and draw counts in 1..4."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = rng.choice([-1, 1], size=n)
    y[:2] = (1, -1)
    return x, y, rng.integers(1, 5, size=n)


pools = dict(
    n=st.integers(4, 80), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
    kernel=st.sampled_from(["rbf", "linear"]),
)


class TestOptimality:
    """The fit reaches the optimum of the count-weighted penalized objective."""

    @settings(max_examples=60, deadline=None)
    @given(**pools)
    def test_kkt_residual(self, n, d, seed, kernel):
        x, y, c = _pool(n, d, seed)
        cfg = LearnerConfig(kernel=kernel)
        m = fit(cfg, x, y, c)
        k = kernel_matrix(cfg, x, x)
        t = (y + 1) / 2.0
        p = 1.0 / (1.0 + np.exp(-(k @ m.dual_coeffs + m.intercept)))
        # gradient in function space: blind to the near-null space of K,
        # which changes no prediction
        residual = np.abs(k @ (c * (p - t)) + cfg.reg * (k @ m.dual_coeffs)).max()
        at_zero = np.abs(k @ (c * (0.5 - t))).max()
        assert residual <= 1e-6 * at_zero
        assert abs(c @ (p - t)) <= 1e-6

    @settings(max_examples=60, deadline=None)
    @given(**pools)
    def test_representer_residual(self, n, d, seed, kernel):
        x, y, c = _pool(n, d, seed)
        cfg = LearnerConfig(kernel=kernel)
        m = fit(cfg, x, y, c)
        k = kernel_matrix(cfg, x, x)
        t = (y + 1) / 2.0
        p = 1.0 / (1.0 + np.exp(-(k @ m.dual_coeffs + m.intercept)))
        # at the optimum alpha = -c (p - t) / reg exactly (representer
        # theorem), also along the near-null space of K that the gradient
        # in function space cannot see
        residual = np.abs(c * (p - t) + cfg.reg * m.dual_coeffs).max()
        assert residual <= 1e-6 * np.abs(c * (0.5 - t)).max()
        assert m.converged and m.n_iter <= 15

    @settings(max_examples=40, deadline=None)
    @given(**pools)
    def test_committee_matches_duplicate_row_reference(self, n, d, seed, kernel):
        x, y, _ = _pool(n, d, seed)
        cfg = LearnerConfig(kernel=kernel)
        got = fit_committee(cfg, x, y, g=3, seed=seed)
        want = reference.fit_committee(cfg, x, y, g=3, seed=seed)
        for member, ref in zip(got.members, want):
            # posteriors on the rows the member was fitted on, duplicates
            # included; off them, the frozen reference, whose Newton system
            # has a condition number of about cond(K)^2, ends up to 1e-4 off
            # the optimum at d <= 2
            np.testing.assert_allclose(
                member.predict_proba(ref.support), ref.predict_proba(ref.support),
                rtol=0, atol=1e-6,
            )


class TestWarmStart:
    """Starting Newton from another fit changes the path, not the optimum."""

    @settings(max_examples=40, deadline=None)
    @given(**pools)
    def test_warm_fit_matches_cold(self, n, d, seed, kernel):
        x, y, c = _pool(n, d, seed)
        cfg = LearnerConfig(kernel=kernel)
        cold = fit(cfg, x, y, c)
        # the fit on all rows but the last few, padded with 0, as the loop does
        head = fit(cfg, x[: n - 3], y[: n - 3], c[: n - 3])
        alpha = np.concatenate([head.dual_coeffs, np.zeros(3)])
        warm = fit(cfg, x, y, c, init=(alpha, head.intercept))
        assert warm.converged and warm.n_iter <= 15
        grid = np.random.default_rng(seed).normal(size=(20, d))
        for points in (x, grid):
            np.testing.assert_allclose(
                warm.predict_proba(points), cold.predict_proba(points), rtol=0, atol=1e-6
            )

    @settings(max_examples=40, deadline=None)
    @given(**pools)
    def test_warm_committee_matches_duplicate_row_reference(self, n, d, seed, kernel):
        x, y, _ = _pool(n, d, seed)
        cfg = LearnerConfig(kernel=kernel)
        margin = fit(cfg, x, y)
        got = fit_committee(cfg, x, y, g=3, seed=seed, init=(margin.dual_coeffs, margin.intercept))
        want = reference.fit_committee(cfg, x, y, g=3, seed=seed)
        for member, ref in zip(got.members, want):
            assert member.degenerate == ref.degenerate
            np.testing.assert_allclose(
                member.predict_proba(ref.support), ref.predict_proba(ref.support),
                rtol=0, atol=1e-6,
            )

    @settings(max_examples=40, deadline=None)
    @given(**pools)
    def test_undrawn_rows_vanish(self, n, d, seed, kernel):
        # a zero-count row's Newton equation is reg step_i = reg alpha_i, so
        # the full last step zeroes it: dropping it moves no prediction
        x, y, _ = _pool(n, d, seed)
        cfg = LearnerConfig(kernel=kernel)
        margin = fit(cfg, x, y)
        counts = learner._bootstrap_counts(n, 5, seed)
        two_class = [np.ptp(y[row > 0]) > 0 for row in counts]
        counts = counts[two_class]
        alpha, _, _, converged = learner._newton(
            cfg, kernel_matrix(cfg, x, x), (y + 1) / 2.0, counts,
            np.tile(margin.dual_coeffs, (len(counts), 1)), np.full(len(counts), margin.intercept),
        )
        assert converged.all()
        for row, a in zip(counts, alpha):
            assert np.abs(a[row == 0]).max(initial=0.0) <= 1e-12 * np.abs(a).max()

    @settings(max_examples=60, deadline=None)
    @given(**pools, one_class=st.booleans())
    def test_committee_model_is_the_whole_set_fit(self, n, d, seed, kernel, one_class):
        x, y, _ = _pool(n, d, seed)
        if one_class:
            y[:] = y[-1]
        cfg = LearnerConfig(kernel=kernel)
        # the fit on all rows but the last few, padded with 0, as the loop does
        head = fit(cfg, x[: n - 3], y[: n - 3])
        warm = (np.concatenate([head.dual_coeffs, np.zeros(3)]), head.intercept)
        grid = np.random.default_rng(seed).normal(size=(20, d))
        for init in (None, warm):
            want = fit(cfg, x, y, init=init)
            got = fit_committee(cfg, x, y, g=3, seed=seed, init=init).model
            assert got.degenerate == want.degenerate == one_class
            for points in (x, grid):
                np.testing.assert_allclose(
                    got.predict_proba(points), want.predict_proba(points), rtol=0, atol=1e-10
                )

    def test_init_shape_checked(self):
        x, y = np.array([[0.0], [2.0]]), np.array([-1, 1])
        with pytest.raises(ValueError, match="init alpha"):
            fit(CFG, x, y, init=(np.zeros(3), 0.0))
        with pytest.raises(ValueError, match="init alpha"):
            fit_committee(CFG, x, y, g=2, init=(np.zeros(1), 0.0))

    def test_one_class_draws_keep_the_degenerate_model(self):
        # two labels, so some of 8 size-2 draws repeat one row: those members
        # predict its class at 0.99 as before
        x, y = np.array([[0.0], [2.0]]), np.array([-1, 1])
        committee = fit_committee(CFG, x, y, g=8, seed=3, init=(np.zeros(2), 0.0))
        degenerate = [m for m in committee.members if m.degenerate]
        assert degenerate and len(degenerate) < 8
        for m in degenerate:
            expected = 0.99 if m.degenerate_label == 1 else 0.01
            assert m.n_iter == 0 and len(m.support) == 1
            np.testing.assert_array_equal(m.predict_proba(x), expected)


def _newton_both(cfg, g, n, seed, start, spread=1.0):
    """Run ``learner._newton`` and the frozen reference on one random stack.

    Features are ``spread`` times standard normals.  Counts are 0-4 per row
    with at least one positive count per problem (a problem with no positive
    count has a singular system); starts are ``start`` times standard
    normals, so large ones force backtracking.  Asserts the four outputs are
    bit-identical and returns the library's.
    """
    rng = np.random.default_rng(seed)
    x = spread * rng.normal(size=(n, 2))
    y = rng.choice([-1, 1], size=n)
    k = kernel_matrix(cfg, x, x)
    counts = rng.integers(0, 5, size=(g, n)).astype(float)
    keep = rng.integers(0, n, size=g)
    counts[np.arange(g), keep] = np.maximum(counts[np.arange(g), keep], 1.0)
    alpha, intercept = start * rng.normal(size=(g, n)), start * rng.normal(size=g)
    got = learner._newton(cfg, k, (y + 1) / 2.0, counts, alpha.copy(), intercept.copy())
    want = reference.newton(cfg, k, (y + 1) / 2.0, counts, alpha.copy(), intercept.copy())
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
        assert a.dtype == b.dtype
    return got


class TestNewtonMatchesReference:
    """Compact running rows change the bookkeeping, not one bit of the fits."""

    @settings(max_examples=150, deadline=None)
    @given(g=st.integers(1, 7), n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
           kernel=st.sampled_from(["rbf", "linear"]),
           start=st.sampled_from([0.0, 0.1, 1.0, 10.0, 100.0]))
    def test_bit_identical(self, g, n, seed, kernel, start):
        _newton_both(LearnerConfig(kernel=kernel), g, n, seed, start)

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    def test_max_iter_exit(self, max_iter, kernel):
        cfg = LearnerConfig(kernel=kernel, max_iter=max_iter)
        _, _, n_iter, converged = _newton_both(cfg, 4, 30, max_iter, 1.0)
        assert not converged.any()
        np.testing.assert_array_equal(n_iter, max_iter)

    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    def test_line_search_failure_exit(self, kernel):
        # every step is shorter than tol, so each row stops after one step
        cfg = LearnerConfig(kernel=kernel, tol=1e6)
        _, _, n_iter, converged = _newton_both(cfg, 4, 30, 7, 1.0)
        assert not converged.any()
        np.testing.assert_array_equal(n_iter, 1)

    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    def test_halving_step(self, kernel, monkeypatch):
        calls = []
        objective = learner._objective

        def counted(*args):
            calls.append(None)
            return objective(*args)

        monkeypatch.setattr(learner, "_objective", counted)
        _, _, n_iter, converged = _newton_both(LearnerConfig(kernel=kernel), 3, 12, 0, 100.0)
        # one start and at most one full-step trial per iteration: more
        # calls than that are halved trials
        assert len(calls) > 1 + n_iter.max()
        assert converged.all()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    def test_without_decrement_stop(self, kernel, seed, monkeypatch):
        # with no decrement stop every row runs into objective round-off:
        # line searches whose trials rise by about 1e-12, and the tol exit
        monkeypatch.setattr(learner, "OBJ_RTOL", 0.0)
        monkeypatch.setattr(reference, "OBJ_RTOL", 0.0)
        _, _, n_iter, converged = _newton_both(LearnerConfig(kernel=kernel), 3, 20, seed, 1.0,
                                               spread=10.0)
        assert not converged.any() and n_iter.max() < 50


class TestFitCounts:
    """``fit`` rejects counts that do not weight every row by a finite c >= 0."""

    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([-1, -1, 1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_non_finite_or_negative_rejected(self, bad):
        with pytest.raises(ValueError, match="counts must be finite and non-negative"):
            fit(CFG, self.x, self.y, [1.0, bad, 1.0, 1.0])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="counts must not all be zero"):
            fit(CFG, self.x, self.y, np.zeros(4))

    @pytest.mark.parametrize("counts", [np.ones(3), np.ones(5), np.ones((4, 1))])
    def test_wrong_shape_rejected(self, counts):
        with pytest.raises(ValueError, match=r"counts must have shape \(4,\)"):
            fit(CFG, self.x, self.y, counts)

    @pytest.mark.parametrize("label", [-1, 1])
    def test_one_class_with_positive_count_is_degenerate(self, label):
        counts = np.where(self.y == label, 2.0, 0.0)
        m = fit(CFG, self.x, self.y, counts)
        assert m.degenerate and m.degenerate_label == label and m.n_iter == 0
        np.testing.assert_array_equal(m.predict_proba(self.x), 0.99 if label == 1 else 0.01)
