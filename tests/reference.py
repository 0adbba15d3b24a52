"""Plain reference implementations that the library's faster paths must match.

* ``fit``: kernel logistic regression by damped Newton that stops only when
  ``max|step|`` on the dual coefficients falls below ``config.tol``, capped
  at 50 steps, with every sample weighted equally.
* ``fit_committee``: each bagged member fits its bootstrap resample with the
  duplicate rows kept, from the same (seed, member) streams as the library;
  returns the tuple of member models.
* ``score_diversity``: the kernel angle with k(x, x) read off the diagonals
  of full pool x pool and labeled x labeled kernel matrices.
* ``power_iteration``: the stationary distribution of a transition matrix by
  power iteration from the uniform vector to an L1 change of 1e-12.
* ``bucklin_aggregate``: weighted majority voting that deepens one integer
  depth at a time from 1 to max(rank); it raises where no integer depth up
  to int(max(rank)) confirms every sample (a fractional largest rank).

They stay frozen as written so that a change to the library is checked
against an independent implementation, not against itself.
"""

from __future__ import annotations

import numpy as np

from rankal.aggregation import AggregatedRanking
from rankal.learner import LearnerConfig, Model, kernel_matrix

MAX_ITER = 50


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def _penalized_nll(k, target, alpha, intercept, reg):
    z = k @ alpha + intercept
    nll = np.sum(np.logaddexp(0.0, z) - target * z)
    return nll + 0.5 * reg * float(alpha @ (k @ alpha))


def fit(config: LearnerConfig, features, labels) -> Model:
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=int)
    gamma = config.gamma if config.gamma is not None else 1.0 / x.shape[1]
    classes = np.unique(y)
    if len(classes) == 1:
        return Model(config=config, support=x, dual_coeffs=np.zeros(len(x)),
                     intercept=0.0, gamma=gamma, degenerate=True,
                     degenerate_label=int(classes[0]))
    n = len(x)
    target = (y + 1) / 2.0
    k = kernel_matrix(config, x, x, gamma=gamma)
    alpha = np.zeros(n)
    intercept = 0.0
    obj = _penalized_nll(k, target, alpha, intercept, config.reg)
    jitter = 1e-9 * (np.trace(k) / n + 1.0)
    for _ in range(MAX_ITER):
        p = _sigmoid(k @ alpha + intercept)
        w = np.maximum(p * (1.0 - p), 1e-10)
        grad = np.concatenate([k @ (p - target) + config.reg * (k @ alpha),
                               [np.sum(p - target)]])
        h = np.empty((n + 1, n + 1))
        h[:n, :n] = (k * w[None, :]) @ k + config.reg * k + jitter * np.eye(n)
        h[:n, n] = h[n, :n] = k @ w
        h[n, n] = np.sum(w) + jitter
        try:
            step = np.linalg.solve(h, grad)
        except np.linalg.LinAlgError:
            step = grad / (np.sum(w) + 1.0)
        scale = 1.0
        for _ in range(30):
            a_new = alpha - scale * step[:n]
            b_new = intercept - scale * step[n]
            obj_new = _penalized_nll(k, target, a_new, b_new, config.reg)
            if obj_new <= obj + 1e-12:
                break
            scale *= 0.5
        moved = scale * np.max(np.abs(step))
        alpha, intercept, obj = a_new, b_new, obj_new
        if moved < config.tol:
            break
    return Model(config=config, support=x, dual_coeffs=alpha,
                 intercept=float(intercept), gamma=gamma)


def fit_committee(config: LearnerConfig, features, labels, g=5, seed=0) -> tuple:
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=int)
    base = (seed,) if np.isscalar(seed) else tuple(seed)
    members = []
    for j in range(g):
        idx = np.random.default_rng(base + (j,)).integers(0, len(x), size=len(x))
        members.append(fit(config, x[idx], y[idx]))
    return tuple(members)


def score_diversity(labeled, pool, config: LearnerConfig, reduce="max"):
    cross = kernel_matrix(config, pool, labeled)
    k_pool = np.diag(kernel_matrix(config, pool, pool))
    k_lab = np.diag(kernel_matrix(config, labeled, labeled))
    denom = np.sqrt(np.outer(k_pool, k_lab))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.where(denom > 0, cross / np.where(denom > 0, denom, 1.0), 0.0)
    angles = np.arccos(np.clip(cos, -1.0, 1.0))
    return -(angles.max(axis=1) if reduce == "max" else angles.min(axis=1))


def power_iteration(t, max_iter=10000, tol=1e-12):
    t = np.asarray(t, dtype=float)
    n = len(t)
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = pi @ t
        nxt /= nxt.sum()
        if np.abs(nxt - pi).sum() < tol:
            pi = nxt
            break
        pi = nxt
    residual = np.abs(pi @ t - pi).sum()
    if residual >= 1e-10:
        raise RuntimeError(f"power iteration did not converge (residual {residual:.2e})")
    return pi


def bucklin_aggregate(rank_lists, weights) -> AggregatedRanking:
    r = np.asarray(rank_lists, dtype=float)
    n_lists, n = r.shape
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    max_depth = int(r.max())
    alive = np.ones(n, dtype=bool)
    order = []
    depths = []
    for ch in range(1, max_depth + 1):
        tally = w @ (r <= ch)
        winners = np.where(alive & (tally > 0.5))[0]
        if len(winners) == 0:
            continue
        winners = winners[np.lexsort((winners, -tally[winners]))]
        order.extend(winners.tolist())
        depths.extend([ch] * len(winners))
        alive[winners] = False
        if not alive.any():
            break
    if alive.any():
        raise RuntimeError("majority never reached; weights do not sum to 1?")
    order = np.array(order, dtype=int)
    ranks = np.empty(n, dtype=int)
    ranks[order] = np.arange(1, n + 1)
    return AggregatedRanking(ids=order, scores=np.array(depths, dtype=float), ranks=ranks)
