"""Per-criterion scoring of unlabeled samples, normalization and ranking.

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

# criterion name -> family; "committee" membership drives the weighting rule
CRITERION_GROUPS = {
    "margin": "certainty",
    "qbc": "committee",
    "diversity": "representativeness",
    "ted": "representativeness",
    "random": "representativeness",
}


def is_committee(name: str) -> bool:
    try:
        return CRITERION_GROUPS[name] == "committee"
    except KeyError:
        raise ValueError(f"unknown criterion {name!r}") from None


@dataclass(frozen=True)
class NormalizedScores:
    """Scores scaled to [0, 1] plus the permutation sorting them ascending."""

    values: np.ndarray
    sort_order: np.ndarray

    @property
    def sorted_values(self):
        return self.values[self.sort_order]


def score_margin(model: Model, pool_features) -> np.ndarray:
    """Top-posterior confidence; minimal at the decision boundary (no flip)."""
    _, _, p_max = posterior(model, pool_features)
    return p_max


def score_diversity(
    labeled_features, pool_features, config: LearnerConfig, reduce="max"
) -> np.ndarray:
    """Negated kernel angle to the labeled set.

    angle(x, a) = arccos(k(x,a) / sqrt(k(x,x) k(a,a))), cosine clipped to
    [-1, 1].  ``reduce`` picks the max (default) or min angle over labeled
    samples; the result is negated so wide angles score low.  A sample with
    k(x,x) = 0 contributes angle pi/2.
    """
    if reduce not in ("max", "min"):
        raise ValueError("reduce must be 'max' or 'min'")
    labeled = np.atleast_2d(np.asarray(labeled_features, dtype=float))
    pool = np.atleast_2d(np.asarray(pool_features, dtype=float))
    if len(labeled) == 0:
        raise ValueError("diversity needs at least one labeled sample")
    cross = kernel_matrix(config, pool, labeled)
    k_pool = np.diag(kernel_matrix(config, pool, pool))
    k_lab = np.diag(kernel_matrix(config, labeled, labeled))
    denom = np.sqrt(np.outer(k_pool, k_lab))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.where(denom > 0, cross / np.where(denom > 0, denom, 1.0), 0.0)
    angles = np.arccos(np.clip(cos, -1.0, 1.0))
    agg = angles.max(axis=1) if reduce == "max" else angles.min(axis=1)
    return -agg


def score_qbc(committee: Committee, pool_features) -> np.ndarray:
    """Negated population standard deviation of member posteriors."""
    probs = committee.member_proba(pool_features)
    return -probs.std(axis=0, ddof=0)


@dataclass(frozen=True)
class TedSolution:
    """Self-reconstruction solution: coefficients, objective trace, flags."""

    Z: np.ndarray
    lam: float
    residual: float
    objective_history: tuple
    converged: bool


def solve_ted(
    pool_features,
    lam=0.1,
    max_iter=100,
    tol=1e-8,
    transpose_reg=True,
) -> TedSolution:
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
    ``transpose_reg=False`` penalizes columns of Z instead of rows: the same
    sweep with v = 1 (one SVD of D) and c_j = lam * v_j / u_j.  The true
    objective is non-increasing across sweeps.
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

    row_scale = np.ones(n)  # diag(v)^-1/2; stays 1 under the column penalty
    if not transpose_reg:
        u_mat, s, wt = np.linalg.svd(d, full_matrices=False)
    col_norms = np.sqrt(np.sum(d * d, axis=0))  # residual of Z = 0
    pen_norms = np.zeros(n)
    history = [float(col_norms.sum())]
    converged = False
    for _ in range(max_iter):
        u = 1.0 / np.maximum(col_norms, eps)  # residual weights, one per column
        v = 1.0 / np.maximum(pen_norms, eps)  # penalty weights, one per penalized row
        if transpose_reg:
            row_scale = 1.0 / np.sqrt(v)
            u_mat, s, wt = np.linalg.svd(d * row_scale, full_matrices=False)
            c = lam / u
        else:
            c = lam * v / u
        y = s[:, None] * (u_mat.T @ d) / (s[:, None] ** 2 + c[None, :])
        resid = d - u_mat @ (s[:, None] * y)
        col_norms = np.sqrt(np.sum(resid * resid, axis=0))
        if transpose_reg:
            # row_i(Z) = v_i^-1/2 W_i Y, and Y = R'Q' with orthonormal Q
            r = np.linalg.qr(y.T, mode="r")
            pen_norms = row_scale * np.sqrt(np.sum((wt.T @ r.T) ** 2, axis=1))
        else:
            pen_norms = np.sqrt(np.sum(y * y, axis=0))  # W has orthonormal columns
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


def score_ted(
    pool_features, lam=0.1, max_iter=100, tol=1e-8,
    transpose_reg=True, row_aggregate=True,
) -> np.ndarray:
    """Negated reconstruction responsibility per sample.

    Row (default) or column absolute sums of the self-reconstruction matrix,
    negated: samples that reconstruct many others score low (most valuable).
    Computed once per pool: the query loop slices it per iteration, and
    ``rankal run`` shares it between the methods run on one split.
    """
    sol = solve_ted(pool_features, lam=lam, max_iter=max_iter, tol=tol,
                    transpose_reg=transpose_reg)
    energy = np.abs(sol.Z).sum(axis=1 if row_aggregate else 0)
    return -energy


def score_random(n, rng) -> np.ndarray:
    """Uniform random scores; a plumbing baseline criterion."""
    return rng.random(n)


def normalize_and_rank(scores):
    """Min-max normalize to [0, 1] and rank competition-style.

    Returns (NormalizedScores, ranks).  A constant list maps to all 0.5.
    Normalized values are rounded to 12 decimals; ranks use exact equality on
    the rounded values, so rank(i) = 1 + #{j : s_j < s_i}.
    """
    s = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    lo, hi = s.min(), s.max()
    if hi > lo:
        values = (s - lo) / (hi - lo)
    else:
        values = np.full_like(s, 0.5)
    values = np.round(values, ROUND_DECIMALS)
    order = np.argsort(values, kind="stable")
    uniq, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    below = np.concatenate([[0], np.cumsum(counts)[:-1]])
    ranks = below[inverse] + 1
    return NormalizedScores(values=values, sort_order=order), ranks.astype(int)
