"""Per-criterion scoring of unlabeled samples, normalization and ranking.

The scorers here are plain functions of their inputs; the table that names
the criteria, says which fit each one reads and picks its weighting rule is
``rankal.loop.CRITERIA``.  The kernel scorers (margin, diversity, qbc) take
``kernel=``, the kernel between the pool rows and the labeled set, when the
caller already has it (the query loop keeps it per run); without it they
compute it themselves.

Every scorer obeys one sign convention: the most valuable sample (most
uncertain, most diverse, most disagreed-upon, most representative) receives
the MINIMUM score.  Scorers whose natural quantity grows with value are
multiplied by -1.

``normalize_scores`` min-max scales a score list to [0, 1] (rounded to 12
decimals, which also defines score equality for ties); it is the one
normalization rule.  ``normalize_and_rank`` adds competition-style ranks:
equal scores share the smallest applicable rank ("1224" pattern).  Only the
Borda and Bucklin aggregators read ranks; the Markov chains and the
parallel baseline read the normalized values alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import check_choice, check_int, check_real
# kernel_matrix is not called here, but the benchmark's tracer wraps
# rankal.criteria.kernel_matrix and needs the name to exist
from .learner import Committee, LearnerConfig, Model, _cross_kernel, kernel_matrix, posterior

ROUND_DECIMALS = 12
DIVERSITY_REDUCE = ("max", "min")  # the angle over the labeled set that a sample keeps
_TED_BLOCK = 2**20  # entries (8 MB) in one of score_ted's row blocks of Z
_TED_ROWS = 192  # every row block but the last is a multiple of this many rows


def score_margin(model: Model, pool_features, *, kernel=None) -> np.ndarray:
    """Top-posterior confidence; minimal at the decision boundary (no flip).

    ``kernel`` is the kernel between ``pool_features`` and the model's support.
    """
    _, _, p_max = posterior(model, pool_features, kernel=kernel)
    return p_max


def score_diversity(
    labeled_features, pool_features, config: LearnerConfig, reduce="max", *, kernel=None
) -> np.ndarray:
    """Negated kernel angle to the labeled set.

    angle(x, a) = arccos(k(x,a) / sqrt(k(x,x) k(a,a))), cosine clipped to
    [-1, 1].  ``reduce`` picks the max (default) or min angle over labeled
    samples; the result is negated so wide angles score low.  A sample with
    k(x,x) = 0 contributes angle pi/2.  ``kernel`` is
    ``kernel_matrix(config, pool_features, labeled_features)``, computed
    here if not given.

    Each pool row's cosines are reduced first (the minimum cosine for the
    max angle, the maximum for the min angle), and only that one value per
    row is clipped and ``arccos``-ed: ``clip`` is non-decreasing and
    ``arccos`` non-increasing, so the reduced angle is the same float as
    reducing every angle, without an angle per kernel entry.
    """
    check_choice("reduce", reduce, DIVERSITY_REDUCE)
    labeled = np.atleast_2d(np.asarray(labeled_features, dtype=float))
    pool = np.atleast_2d(np.asarray(pool_features, dtype=float))
    if len(labeled) == 0:
        raise ValueError("diversity needs at least one labeled sample")
    cosines = _cross_kernel(config, pool, labeled, kernel)
    if config.kernel != "rbf":  # under RBF k(x, x) = 1, so the cosines are the kernel entries
        norms = np.sqrt(np.outer(np.sum(pool * pool, axis=1), np.sum(labeled * labeled, axis=1)))
        positive = norms > 0
        cosines = np.divide(cosines, norms, out=norms, where=positive)
        cosines[~positive] = 0.0
    kept = cosines.min(axis=1) if reduce == "max" else cosines.max(axis=1)
    return -np.arccos(np.clip(kept, -1.0, 1.0, out=kept), out=kept)


def score_qbc(committee: Committee, pool_features, *, kernel=None) -> np.ndarray:
    """Negated population standard deviation of member posteriors.

    ``kernel`` is the kernel between ``pool_features`` and the committee's
    support.
    """
    probs = committee.member_proba(pool_features, kernel=kernel)
    return -probs.std(axis=0, ddof=0)


@dataclass(frozen=True)
class TedSolution:
    """Self-reconstruction solution: the factors of Z, objective trace, flags.

    Z = diag(row_scale) @ wt.T @ y, with ``wt`` (k, n) and ``y`` (k, n) for
    k = min(d, n).  ``Z`` is formed only when read, since every caller in
    the library needs only its row sums (see ``score_ted``).
    """

    wt: np.ndarray
    y: np.ndarray
    row_scale: np.ndarray
    lam: float
    residual: float
    objective_history: tuple
    converged: bool

    @property
    def Z(self):
        """The n x n coefficient matrix, built anew on every read."""
        z = self.wt.T @ self.y
        z *= self.row_scale[:, None]
        return z


def solve_ted(pool_features, lam=0.1, max_iter=100, tol=1e-8) -> TedSolution:
    """Sparse self-reconstruction of the pool by iteratively reweighted ridge.

    Minimizes  sum_j ||d_j - D z_j||_2  +  lam * sum_i ||row_i(Z)||_2  where
    D (d x n) has samples as columns.  Each sweep fixes residual weights
    u_j = 1/||d_j - D z_j|| and penalty weights v_i = 1/||row_i(Z)|| from the
    current solution and solves, for every column,
    (D'D + c_j diag(v)) z_j = D'd_j with c_j = lam/u_j.

    The sweep works in the at most min(d, n)-dimensional span of the data:
    with the thin SVD U S W' of B = D diag(v)^-1/2, the right-hand side
    diag(v)^-1/2 D'd_j lies in range(W), so every column solves exactly as
    Z = diag(v)^-1/2 W Y with Y[:, j] = S * (U'd_j) / (S^2 + c_j).  The
    residual D - DZ = D - U S Y and the row norms of Z follow from these
    factors, so no n x n matrix is formed at all: the solution keeps the
    last sweep's factors, and ``TedSolution.Z`` multiplies them out when
    read.  The true objective is non-increasing across sweeps.
    """
    x = np.atleast_2d(np.asarray(pool_features, dtype=float))
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 pool samples")
    check_real("lam", lam, 0, open_low=True)
    check_int("max_iter", max_iter, 1)
    check_real("tol", tol, 0)
    d = x.T  # samples as columns
    eps = 1e-10

    col_norms = np.sqrt(np.sum(d * d, axis=0))  # residual of Z = 0
    pen_norms = np.zeros(n)
    history = [float(col_norms.sum())]
    converged = False
    for _ in range(max_iter):
        u = 1.0 / np.maximum(col_norms, eps)  # residual weights, one per column
        v = 1.0 / np.maximum(pen_norms, eps)  # penalty weights, one per row of Z
        row_scale = 1.0 / np.sqrt(v)  # diag(v)^-1/2
        u_mat, s, wt = np.linalg.svd(d * row_scale, full_matrices=False)
        c = lam / u
        y = s[:, None] * (u_mat.T @ d) / (s[:, None] ** 2 + c[None, :])
        resid = d - u_mat @ (s[:, None] * y)
        col_norms = np.sqrt(np.sum(resid * resid, axis=0))
        # row_i(Z) = v_i^-1/2 W_i Y, and Y = R'Q' with orthonormal Q
        r = np.linalg.qr(y.T, mode="r")
        pen_norms = row_scale * np.sqrt(np.sum((wt.T @ r.T) ** 2, axis=1))
        obj = float(col_norms.sum() + lam * pen_norms.sum())
        history.append(obj)
        if abs(history[-2] - obj) < tol * max(1.0, abs(history[-2])):
            converged = True
            break

    return TedSolution(
        wt=wt,
        y=y,
        row_scale=row_scale,
        lam=lam,
        residual=history[-1],
        objective_history=tuple(history),
        converged=converged,
    )


def _row_blocks(n):
    """(start, stop) of each row block in which ``score_ted`` multiplies out
    an n x n Z: about ``_TED_BLOCK`` entries each, every start a multiple
    of ``_TED_ROWS`` rows, and the last block ending at n with the rest
    (between one and two blocks' rows).  A pool of up to 1024 samples is
    one block.

    A BLAS kernel computes a product's rows in groups (4 to 64 rows, by
    CPU) and the rows past its last full group by edge code that may round
    differently.  Blocks that start on a group boundary, the last one
    ending where the product over all rows ends, give every row the
    arithmetic it gets in that one product, under one BLAS thread.
    """
    rows = _TED_ROWS * max(1, _TED_BLOCK // (_TED_ROWS * n))
    starts = list(range(0, max(rows, n - rows + 1), rows))
    return list(zip(starts, starts[1:] + [n]))


def score_ted(pool_features, lam=0.1) -> np.ndarray:
    """Negated reconstruction responsibility per sample.

    Row absolute sums of the self-reconstruction matrix, negated: samples
    that reconstruct many others score low (most valuable).  Computed once
    per pool: the query loop slices it per iteration, and ``rankal run``
    shares it between the methods run on one split.

    Z is never formed.  Its rows are multiplied out from the solution's
    factors one block of about 8 MB at a time (``_row_blocks``), then
    scaled, made absolute in place and summed.  Under one BLAS thread each
    score is the same float as ``-np.abs(solve_ted(...).Z).sum(axis=1)``,
    and so is every score of a one-block pool under any thread count.  With
    more threads the BLAS splits the one n x n product at rows of its own
    choosing, so a larger pool's scores may differ from it in the last
    bit.  At n = 8000 the traced peak is about 33 MB instead of 1 GB.
    """
    sol = solve_ted(pool_features, lam=lam)
    scores = np.empty(len(sol.row_scale))
    for start, stop in _row_blocks(len(scores)):
        block = sol.wt[:, start:stop].T @ sol.y
        block *= sol.row_scale[start:stop, None]
        np.abs(block, out=block)
        np.sum(block, axis=1, out=scores[start:stop])
    return np.negative(scores, out=scores)


def normalize_scores(scores):
    """Min-max normalize a score list to [0, 1], rounded to 12 decimals.

    Returns the normalized values, aligned with ``scores``.  A constant list
    maps to all 0.5, and so does a list whose span is at most 1e-12: the
    scores are O(1), so such a span is round-off (a committee whose members
    agree up to round-off gives qbc scores of 0 and -5.6e-17), which min-max
    scaling would otherwise stretch to [0, 1].  The rounding also defines
    score equality for ties.  ValueError unless ``scores`` is a non-empty
    1-D array of finite numbers.
    """
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("scores must be a non-empty 1-D array")
    lo, hi = s.min(), s.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):  # NaN and +-inf reach an extreme
        raise ValueError("scores must be finite")
    if hi - lo > 10.0 ** -ROUND_DECIMALS:
        values = s - lo
        values /= hi - lo
    else:
        values = np.full_like(s, 0.5)
    return np.round(values, ROUND_DECIMALS, out=values)


def normalize_and_rank(scores):
    """Normalize (``normalize_scores``) and rank competition-style.

    Returns (values, ranks), two arrays aligned with ``scores``: the
    normalized values and their ranks.  Ranks use exact equality on the
    rounded values, so rank(i) = 1 + #{j : s_j < s_i}: one plus the leftmost
    sorted position of s_i.  The Markov aggregators read only the values,
    which order the samples as the ranks do (see
    ``aggregation.markov_from_values``).
    """
    values = normalize_scores(scores)
    order = np.argsort(values)  # any order of ties gives the same ranks
    ordered = values[order]
    ranks = np.empty_like(order)
    # searching the sorted values keeps the keys in order: twice as fast at n = 300
    ranks[order] = np.searchsorted(ordered, ordered, side="left") + 1
    return values, ranks
