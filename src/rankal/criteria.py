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

``normalize_and_rank`` min-max scales a score list to [0, 1] (rounded to 12
decimals, which also defines score equality for ties) and produces
competition-style ranks: equal scores share the smallest applicable rank
("1224" pattern).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learner import Committee, LearnerConfig, Model, kernel_matrix, posterior

ROUND_DECIMALS = 12


@dataclass(frozen=True)
class NormalizedScores:
    """Scores scaled to [0, 1] plus the permutation sorting them ascending."""

    values: np.ndarray
    sort_order: np.ndarray

    @property
    def sorted_values(self):
        return self.values[self.sort_order]


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
    """
    if reduce not in ("max", "min"):
        raise ValueError("reduce must be 'max' or 'min'")
    labeled = np.atleast_2d(np.asarray(labeled_features, dtype=float))
    pool = np.atleast_2d(np.asarray(pool_features, dtype=float))
    if len(labeled) == 0:
        raise ValueError("diversity needs at least one labeled sample")
    if kernel is None:
        cross = kernel_matrix(config, pool, labeled)
    else:
        cross = np.asarray(kernel, dtype=float)
        if cross.shape != (len(pool), len(labeled)):
            raise ValueError(
                f"kernel must have shape ({len(pool)}, {len(labeled)}), got {cross.shape}"
            )
    # one pool x labeled buffer turns into the cosines, then the angles
    if config.kernel == "rbf":
        # k(x, x) = 1 for every x, so the cosines are the kernel entries
        angles = np.clip(cross, -1.0, 1.0)
    else:
        angles = np.sqrt(np.outer(np.sum(pool * pool, axis=1), np.sum(labeled * labeled, axis=1)))
        positive = angles > 0
        np.divide(cross, angles, out=angles, where=positive)
        angles[~positive] = 0.0
        np.clip(angles, -1.0, 1.0, out=angles)
    np.arccos(angles, out=angles)
    agg = angles.max(axis=1) if reduce == "max" else angles.min(axis=1)
    return -agg


def score_qbc(committee: Committee, pool_features, *, kernel=None) -> np.ndarray:
    """Negated population standard deviation of member posteriors.

    ``kernel`` is the kernel between ``pool_features`` and the committee's
    support.
    """
    probs = committee.member_proba(pool_features, kernel=kernel)
    return -probs.std(axis=0, ddof=0)


@dataclass(frozen=True)
class TedSolution:
    """Self-reconstruction solution: coefficients, objective trace, flags."""

    Z: np.ndarray
    lam: float
    residual: float
    objective_history: tuple
    converged: bool


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
    factors, so no n x n matrix is formed before the last sweep has run.
    The true objective is non-increasing across sweeps.
    """
    x = np.atleast_2d(np.asarray(pool_features, dtype=float))
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 pool samples")
    if lam <= 0:
        raise ValueError("lam must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
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

    z = wt.T @ y
    z *= row_scale[:, None]
    return TedSolution(
        Z=z,
        lam=lam,
        residual=history[-1],
        objective_history=tuple(history),
        converged=converged,
    )


def score_ted(pool_features, lam=0.1) -> np.ndarray:
    """Negated reconstruction responsibility per sample.

    Row absolute sums of the self-reconstruction matrix, negated: samples
    that reconstruct many others score low (most valuable).  Computed once
    per pool: the query loop slices it per iteration, and ``rankal run``
    shares it between the methods run on one split.
    """
    sol = solve_ted(pool_features, lam=lam)
    return -np.abs(sol.Z).sum(axis=1)


def normalize_and_rank(scores):
    """Min-max normalize to [0, 1] and rank competition-style.

    Returns (NormalizedScores, ranks).  A constant list maps to all 0.5, and
    so does a list whose span is at most 1e-12: the scores are O(1), so such
    a span is round-off (a committee whose members agree up to round-off
    gives qbc scores of 0 and -5.6e-17), which min-max scaling would
    otherwise stretch to [0, 1].  Normalized values are rounded to 12
    decimals; ranks use exact equality on the rounded values, so
    rank(i) = 1 + #{j : s_j < s_i}: one plus the leftmost sorted position
    of s_i.
    """
    s = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    lo, hi = s.min(), s.max()
    if hi - lo > 10.0 ** -ROUND_DECIMALS:
        values = (s - lo) / (hi - lo)
    else:
        values = np.full_like(s, 0.5)
    values = np.round(values, ROUND_DECIMALS)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    ranks = np.empty_like(order)
    # searching the sorted values keeps the keys in order: twice as fast at n = 300
    ranks[order] = np.searchsorted(ordered, ordered, side="left") + 1
    return NormalizedScores(values=values, sort_order=order), ranks
