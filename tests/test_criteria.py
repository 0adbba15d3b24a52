import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference

from rankal.criteria import (
    _row_blocks,
    normalize_and_rank,
    score_diversity,
    score_margin,
    score_qbc,
    score_ted,
    solve_ted,
)
from rankal.learner import LearnerConfig, fit, kernel_matrix
from rankal.loop import CRITERIA, ALConfig

CFG = LearnerConfig(kernel="rbf", gamma=1.0)


def test_criterion_families():
    assert not CRITERIA["margin"].committee
    assert CRITERIA["qbc"].committee
    assert not CRITERIA["diversity"].committee and not CRITERIA["ted"].committee
    with pytest.raises(ValueError, match="each criterion must be one of .*, got 'entropy'"):
        ALConfig(criteria=("entropy",))


class TestMargin:
    def test_boundary_sample_scores_lowest(self):
        m = fit(CFG, np.array([[0.0], [2.0]]), np.array([-1, 1]))
        pool = np.array([[1.0], [0.1], [1.9], [2.5]])
        scores = score_margin(m, pool)
        assert np.argmin(scores) == 0
        assert abs(scores[0] - 0.5) < 1e-6

    def test_midworld_beats_confident(self):
        m = fit(CFG, np.array([[0.0], [2.0]]), np.array([-1, 1]))
        scores = score_margin(m, np.array([[1.0], [1.9]]))
        assert scores[0] < scores[1]


class TestDiversity:
    def test_identity_sample_least_valuable(self):
        labeled = np.array([[1.0, 0.0]])
        pool = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.3]])
        scores = score_diversity(labeled, pool, CFG)
        assert scores[0] == 0.0
        assert np.argmax(scores) == 0  # all other scores are negative

    def test_orthogonal_vectors_linear_kernel(self):
        cfg = LearnerConfig(kernel="linear")
        labeled = np.array([[1.0, 0.0]])
        pool = np.array([[0.0, 2.0]])
        scores = score_diversity(labeled, pool, cfg)
        assert abs(scores[0] + np.pi / 2) < 1e-12

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        labeled = rng.normal(size=(3, 2))
        pool = rng.normal(size=(4, 2))
        scores = score_diversity(labeled, pool, CFG, reduce="max")
        for i in range(4):
            angles = []
            for a in labeled:
                k_xa = kernel_matrix(CFG, pool[i : i + 1], a[None, :])[0, 0]
                k_xx = kernel_matrix(CFG, pool[i : i + 1], pool[i : i + 1])[0, 0]
                k_aa = kernel_matrix(CFG, a[None, :], a[None, :])[0, 0]
                cos = np.clip(k_xa / np.sqrt(k_xx * k_aa), -1.0, 1.0)
                angles.append(np.arccos(cos))
            assert abs(scores[i] + max(angles)) < 1e-12

    def test_min_reduce_switch(self):
        rng = np.random.default_rng(1)
        labeled = rng.normal(size=(3, 2))
        pool = rng.normal(size=(4, 2))
        hi = score_diversity(labeled, pool, CFG, reduce="max")
        lo = score_diversity(labeled, pool, CFG, reduce="min")
        assert np.all(hi <= lo + 1e-12)

    def test_zero_norm_sample_gets_right_angle(self):
        cfg = LearnerConfig(kernel="linear")
        labeled = np.array([[1.0, 0.0]])
        pool = np.array([[0.0, 0.0]])
        scores = score_diversity(labeled, pool, cfg)
        assert abs(scores[0] + np.pi / 2) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        n_pool=st.integers(1, 40), n_labeled=st.integers(1, 10), d=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1), kernel=st.sampled_from(["rbf", "linear"]),
        reduce=st.sampled_from(["max", "min"]),
    )
    def test_matches_full_kernel_reference(self, n_pool, n_labeled, d, seed, kernel, reduce):
        rng = np.random.default_rng(seed)
        labeled, pool = rng.normal(size=(n_labeled, d)), rng.normal(size=(n_pool, d))
        cfg = LearnerConfig(kernel=kernel)
        np.testing.assert_allclose(
            score_diversity(labeled, pool, cfg, reduce=reduce),
            reference.score_diversity(labeled, pool, cfg, reduce=reduce),
            rtol=0, atol=1e-12,
        )

    @settings(max_examples=80, deadline=None)
    @given(
        n_pool=st.integers(1, 40), n_labeled=st.integers(1, 10), d=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1), reduce=st.sampled_from(["max", "min"]),
        kernel=st.sampled_from(["rbf", "linear"]), n_copies=st.integers(0, 3),
        n_zero=st.integers(0, 3),
    )
    def test_rbf_cosines_are_the_kernel_entries_bit_for_bit(
            self, n_pool, n_labeled, d, seed, reduce, kernel, n_copies, n_zero):
        # the scorer reduces the cosines before clip and arccos; the oracle takes
        # the angle of every entry first.  Under RBF k(x, x) = 1, so dividing by
        # sqrt(k(x,x) k(a,a)) = 1.0 is exact
        rng = np.random.default_rng(seed)
        labeled, pool = rng.normal(size=(n_labeled, d)), rng.normal(size=(n_pool, d))
        n_copies = min(n_copies, n_pool)
        pool[:n_copies] = labeled[rng.integers(n_labeled, size=n_copies)]  # cosine 1
        pool[n_copies:n_copies + n_zero] = 0.0  # zero norm: pi/2 under the linear kernel
        cfg = LearnerConfig(kernel=kernel)
        cross = kernel_matrix(cfg, pool, labeled)
        if kernel == "rbf":
            denominator = np.sqrt(np.outer(np.ones(n_pool), np.ones(n_labeled)))
        else:
            denominator = np.sqrt(np.outer(np.sum(pool * pool, axis=1),
                                           np.sum(labeled * labeled, axis=1)))
        positive = denominator > 0
        cosines = np.where(positive, cross / np.where(positive, denominator, 1.0), 0.0)
        angles = np.arccos(np.clip(cosines, -1.0, 1.0))
        want = -(angles.max(axis=1) if reduce == "max" else angles.min(axis=1))
        assert np.array_equal(score_diversity(labeled, pool, cfg, reduce=reduce), want)

    def test_memory_stays_below_a_pool_by_pool_kernel(self):
        rng = np.random.default_rng(2)
        pool, labeled = rng.normal(size=(5000, 5)), rng.normal(size=(60, 5))
        tracemalloc.start()
        try:
            score_diversity(labeled, pool, LearnerConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5000 * 5000 * 8 / 8  # the pool x pool kernel alone is 200 MB


class _StubCommittee:
    """Member j predicts values[j] at every row."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def member_proba(self, x, *, kernel=None):
        return np.repeat(self.values[:, None], len(np.atleast_2d(x)), axis=1)


def _stub_committee(values):
    return _StubCommittee(values)


class TestQbc:
    def test_unanimous_committee_scores_zero(self):
        c = _stub_committee([0.7, 0.7, 0.7])
        scores = score_qbc(c, np.zeros((4, 2)))
        assert np.allclose(scores, 0.0)

    def test_two_member_split(self):
        c = _stub_committee([0.0, 1.0])
        scores = score_qbc(c, np.zeros((1, 2)))
        assert abs(scores[0] + 0.5) < 1e-12

    def test_three_member_population_sigma(self):
        c = _stub_committee([0.2, 0.5, 0.8])
        scores = score_qbc(c, np.zeros((1, 2)))
        assert abs(scores[0] + np.sqrt(0.06)) < 1e-12


def dense_objective(d, z, lam):
    """TED objective evaluated directly from the full coefficient matrix."""
    resid = np.linalg.norm(d - d @ z, axis=0)
    pen = np.linalg.norm(z, axis=1)
    return float(resid.sum() + lam * pen.sum())


def dense_sweeps(x, lam, sweeps):
    """The reweighted ridge sweeps of solve_ted, one np.linalg.solve per column."""
    d = x.T
    n = d.shape[1]
    gram = d.T @ d
    eps = 1e-10
    z = np.zeros((n, n))
    for _ in range(sweeps):
        u = 1.0 / np.maximum(np.linalg.norm(d - d @ z, axis=0), eps)
        v = 1.0 / np.maximum(np.linalg.norm(z, axis=1), eps)
        z_new = np.empty((n, n))
        for j in range(n):  # rows of Z penalized: (G + (lam/u_j) diag(v)) z_j = G e_j
            a = gram + (lam / u[j]) * np.diag(v)
            z_new[:, j] = np.linalg.solve(a, gram[:, j])
        z = z_new
    return z


@st.composite
def ted_pools(draw):
    """Random pools with n 2-40 samples and 1-8 features, so d >= n occurs."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).normal(size=(n, d))


class TestTed:
    @given(ted_pools(), st.sampled_from([0.01, 0.1, 1.0]), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_sweeps_match_dense_solve(self, x, lam, sweeps):
        sol = solve_ted(x, lam=lam, max_iter=sweeps, tol=0.0)
        ref = dense_sweeps(x, lam, sweeps)
        np.testing.assert_allclose(sol.Z, ref, rtol=0, atol=1e-8 * np.abs(ref).max())
        assert len(sol.objective_history) == sweeps + 1
        assert sol.residual == pytest.approx(dense_objective(x.T, ref, lam), rel=1e-10)

    @given(ted_pools(), st.sampled_from([0.01, 0.1, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_objective_never_increases(self, x, lam):
        sol = solve_ted(x, lam=lam)
        hist = np.array(sol.objective_history)
        # the 1e-10 floor on zero norms may cost lam * 1e-10 per sample
        slack = lam * len(x) * 1e-10 + 1e-12 * hist[:-1]
        assert np.all(np.diff(hist) <= slack)

    def test_duplicate_rows_equal_scores(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 3))
        x[3] = x[1]
        scores = score_ted(x, lam=0.5)
        assert abs(scores[1] - scores[3]) < 1e-6

    def test_huge_lambda_zeroes_everything(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 2))
        sol = solve_ted(x, lam=1e9)
        assert np.abs(sol.Z).max() < 1e-6
        scores = score_ted(x, lam=1e9)
        assert np.abs(scores).max() < 1e-6

    def test_objective_monotone_and_consistent(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 2))
        sol = solve_ted(x, lam=0.1, max_iter=60)
        hist = np.array(sol.objective_history)
        assert np.all(np.diff(hist) <= 1e-8)
        # final objective re-evaluated directly from the returned Z
        direct = dense_objective(x.T, sol.Z, 0.1)
        assert abs(direct - sol.residual) < 1e-8

    def test_scores_are_negated_row_sums(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5, 3))
        rows = score_ted(x, lam=0.2)
        np.testing.assert_array_equal(rows, -np.abs(solve_ted(x, lam=0.2).Z).sum(axis=1))

    def test_small_pool_rejected(self):
        with pytest.raises(ValueError):
            solve_ted(np.zeros((1, 2)), lam=0.1)

    def test_no_sweep_rejected(self):
        with pytest.raises(ValueError, match="max_iter"):
            solve_ted(np.ones((3, 2)), lam=0.1, max_iter=0)

    @pytest.mark.parametrize("key, value, message", [
        ("lam", np.nan, "lam must be a positive finite number"),
        ("lam", np.inf, "lam must be a positive finite number"),
        ("lam", True, "lam must be a positive finite number"),
        ("lam", "x", "lam must be a positive finite number"),
        ("max_iter", 2.5, "max_iter must be an integer >= 1"),
        ("max_iter", True, "max_iter must be an integer >= 1"),
    ])
    def test_values_checked_like_alconfig(self, key, value, message):
        x = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(ValueError, match=message):
            solve_ted(x, **{key: value})
        if key == "lam":  # score_ted returned all-zero scores at lam = inf
            with pytest.raises(ValueError, match=message):
                score_ted(x, lam=value)


# Pools of 1 to 5 row blocks of score_ted, each with a duplicate row; the
# first has d > n, and 961 rows would leave a one-row block (a matrix-vector
# product) after 960 if the last block did not take the rest.  Prints, per pool, its block count, whether the scores
# equal the dense row sums bit for bit, their largest relative gap, and
# whether every block's product equals its rows of the dense Z bit for bit
# (row sums can hide a last-bit difference in a small entry).
_BLOCKS_SCRIPT = """
import json
import numpy as np
from rankal.criteria import _row_blocks, score_ted, solve_ted
out = []
for n, d in ((40, 60), (961, 4), (1000, 3), (1536, 4), (1800, 5), (1900, 2), (2200, 6)):
    x = np.random.default_rng(n).normal(size=(n, d))
    x[n // 2] = x[1]
    sol = solve_ted(x)
    z = sol.Z
    dense = -np.abs(z).sum(axis=1)
    scores = score_ted(x)
    blocks = _row_blocks(n)
    rows_equal = all(np.array_equal((sol.wt[:, a:b].T @ sol.y) * sol.row_scale[a:b, None], z[a:b])
                     for a, b in blocks)
    out.append([len(blocks), bool(np.array_equal(scores, dense)),
                float(np.abs(scores / dense - 1).max()), rows_equal])
print(json.dumps(out))
"""


def _blocks_run(threads):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _BLOCKS_SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestTedRowBlocks:
    def test_blocks_tile_the_rows(self):
        for n in (2, 1024, 1025, 1536, 1900, 8000, 30001):
            blocks = _row_blocks(n)
            assert blocks[0][0] == 0 and blocks[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            assert all(start % 192 == 0 for start, _ in blocks)
            assert max(stop - start for start, stop in blocks) * n <= max(2 * 2**20, 2 * 192 * n)
        assert len(_row_blocks(1024)) == 1

    def test_scores_equal_dense_row_sums_under_one_thread(self):
        pools = _blocks_run(1)
        assert {blocks for blocks, _, _, _ in pools} == {1, 2, 3, 4, 5}
        assert all(equal and rows_equal for _, equal, _, rows_equal in pools), pools

    def test_scores_under_two_threads(self):
        # one block is the same product as the dense Z; across blocks the
        # BLAS splits the dense product among its threads at other rows
        pools = _blocks_run(2)
        assert all(equal for blocks, equal, _, _ in pools if blocks == 1), pools
        assert max(gap for _, _, gap, _ in pools) <= 4 * np.finfo(float).eps, pools

    def test_memory_stays_below_the_dense_matrix(self):
        x = np.random.default_rng(8).normal(size=(8000, 2))
        tracemalloc.start()
        try:
            score_ted(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 300e6  # Z alone is 512 MB


class TestNormalizeAndRank:
    def test_competition_ties(self):
        _, ranks = normalize_and_rank([0.2, 0.5, 0.2])
        assert ranks.tolist() == [1, 3, 1]

    def test_minmax_values(self):
        values, _ = normalize_and_rank([-3.0, 0.0, 1.0])
        assert values.tolist() == [0.0, 0.75, 1.0]

    def test_constant_list(self):
        values, ranks = normalize_and_rank([4.0, 4.0, 4.0])
        assert values.tolist() == [0.5, 0.5, 0.5]
        assert ranks.tolist() == [1, 1, 1]
        # a span of round-off counts as constant instead of being stretched to [0, 1]
        values, ranks = normalize_and_rank([0.0, -5.55e-17, -0.0])
        assert values.tolist() == [0.5, 0.5, 0.5]
        assert ranks.tolist() == [1, 1, 1]

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            normalize_and_rank([1.0, np.nan])

    @given(
        st.lists(st.integers(-3, 3), min_size=1, max_size=60),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_ranks_follow_the_definition_under_heavy_ties(self, levels, scale):
        s, ranks = normalize_and_rank([scale * v for v in levels])
        assert ranks.dtype.kind == "i"
        assert ranks.tolist() == (1 + (s[None, :] < s[:, None]).sum(axis=1)).tolist()

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=2,
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_rank_validity_invariant(self, scores):
        _, ranks = normalize_and_rank(scores)
        assert ranks.min() == 1
        for r in range(1, len(scores) + 1):
            assert np.sum(ranks <= r) >= r

    @given(
        st.lists(
            # 6-decimal grid: keeps distinct scores far enough apart that the
            # affine map cannot collide them in float arithmetic
            st.floats(min_value=-50, max_value=50, allow_nan=False).map(
                lambda v: round(v, 6)
            ),
            min_size=2,
            max_size=20,
        ),
        st.floats(min_value=0.1, max_value=10),
        st.floats(min_value=-5, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_affine_invariance(self, scores, scale, shift):
        v1, r1 = normalize_and_rank(scores)
        v2, r2 = normalize_and_rank([scale * s + shift for s in scores])
        assert r1.tolist() == r2.tolist()
        np.testing.assert_allclose(v1, v2, atol=1e-9)

    def test_monotone_transform_preserves_ranks(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            scores = rng.normal(size=15)
            _, r1 = normalize_and_rank(scores)
            _, r2 = normalize_and_rank(np.exp(scores))  # strictly increasing map
            assert r1.tolist() == r2.tolist()
