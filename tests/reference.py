"""Plain reference implementations that the library's faster paths must match.

* ``fit``: kernel logistic regression by damped Newton that stops only when
  ``max|step|`` on the dual coefficients falls below ``config.tol``, capped
  at 50 steps, with every sample weighted equally.
* ``fit_committee``: each bagged member fits the labeled set with row i
  repeated ``counts[j, i]`` times, the counts being the library's
  online-bagging draws (row i takes the i-th g Poisson(1) draws of the one
  stream ``seed``); a member that drew no row is the zero model (alpha and
  intercept 0) on an empty support.  Returns the tuple of member models.
* ``newton``: the stacked damped Newton of ``rankal.learner._newton`` as it
  was before its running rows were kept compact: every iteration gathers the
  active rows from the (g, n) arrays and scatters each trial point back.
  The library's version must return bit-identical results.
* ``score_diversity``: the kernel angle with k(x, x) read off the diagonals
  of full pool x pool and labeled x labeled kernel matrices.
* ``power_iteration``: the stationary distribution of a transition matrix by
  power iteration from the uniform vector to an L1 change of 1e-12.
* ``preference``, ``build_transition``, ``stationary_distribution`` and
  ``markov_aggregate``: the Markov chain path as it was before preferences
  were coded as bits and T was solved in place: one float64 n x n temporary
  per list, the variant applied to the n x n sums, and the solve on a
  transposed copy of T.  The library's version must return bit-identical
  matrices, distributions and rankings.
* ``kendall_distance``: the discordant-pair count from the dense n x n sign
  matrices of both rank lists.
* ``weighted_kendall_objective`` and ``brute_force_aggregate``: the
  objective (1/L) sum_k w_k Kendall(R, R_k) that aggregation approximates,
  and its exact minimizer by factorial search, the oracle for small
  instances: (sample positions best-first, objective), ties resolved to the
  lexicographically smallest order.  The library has no copy of either.
* ``bucklin_aggregate``: weighted majority voting that deepens one integer
  depth at a time from 1 to max(rank); it raises where no integer depth up
  to int(max(rank)) confirms every sample (a fractional largest rank).
* ``oracle_label``: the labeled/unlabeled split by ``np.unique`` and
  ``np.isin`` over the unlabeled set.

They stay frozen as written so that a change to the library is checked
against an independent implementation, not against itself.
"""

from __future__ import annotations

import itertools

import numpy as np

from rankal.aggregation import AggregatedRanking, truncate_candidates
from rankal.data import PoolState
from rankal.learner import LearnerConfig, Model, kernel_matrix

MAX_ITER = 50
OBJ_RTOL = 1e-10


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def _penalized_nll(k, target, alpha, intercept, reg):
    z = k @ alpha + intercept
    nll = np.sum(np.logaddexp(0.0, z) - target * z)
    return nll + 0.5 * reg * float(alpha @ (k @ alpha))


def fit(config: LearnerConfig, features, labels) -> Model:
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=int)
    classes = np.unique(y)
    if len(classes) == 1:
        return Model(config=config, support=x, dual_coeffs=np.zeros(len(x)),
                     intercept=0.0, degenerate_label=int(classes[0]))
    n = len(x)
    target = (y + 1) / 2.0
    k = kernel_matrix(config, x, x)
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
                 intercept=float(intercept))


def fit_committee(config: LearnerConfig, features, labels, g=5, seed=0) -> tuple:
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=int)
    counts = np.random.default_rng(seed).poisson(1.0, size=(len(x), g)).T
    members = []
    for c in counts:
        idx = np.repeat(np.arange(len(x)), c)
        members.append(fit(config, x[idx], y[idx]) if len(idx) else Model(
            config=config, support=x[idx], dual_coeffs=np.zeros(0), intercept=0.0))
    return tuple(members)


def _objective(k, target, counts, alpha, intercept, reg):
    z = alpha @ k + intercept[:, None]
    nll = np.sum(counts * (np.logaddexp(0.0, z) - target * z), axis=1)
    return nll + 0.5 * reg * np.sum(alpha * (z - intercept[:, None]), axis=1), z


def newton(config, k, target, counts, alpha, intercept):
    g, n = counts.shape
    reg = config.reg
    obj, z = _objective(k, target, counts, alpha, intercept, reg)
    n_iter = np.zeros(g, dtype=int)
    converged = np.zeros(g, dtype=bool)
    h = np.empty((g, n + 1, n + 1))
    diag = np.arange(n)
    active = np.arange(g)
    for _ in range(config.max_iter):
        m = len(active)
        c = counts[active]
        p = _sigmoid(z[active])
        cw = c * np.maximum(p * (1.0 - p), 1e-10)
        resid = c * (p - target)
        g_a = resid + reg * alpha[active]
        g_b = np.sum(resid, axis=1)
        kv = np.concatenate([cw, g_a]) @ k
        hm = h[:m]
        np.multiply(k, cw[:, :, None], out=hm[:, :n, :n])
        hm[:, diag, diag] += reg
        hm[:, :n, n] = cw
        hm[:, n, :n] = kv[:m]
        hm[:, n, n] = np.sum(cw, axis=1)
        rhs = np.concatenate([g_a, g_b[:, None]], axis=1)
        step = np.linalg.solve(hm, rhs[:, :, None])[:, :, 0]
        n_iter[active] += 1
        decrement = np.sum(step[:, :n] * kv[m:], axis=1) + step[:, n] * g_b
        done = 0.5 * decrement <= OBJ_RTOL * np.maximum(1.0, np.abs(obj[active]))
        fin = active[done]
        alpha[fin] -= step[done, :n]
        intercept[fin] -= step[done, n]
        converged[fin] = True
        active, step = active[~done], step[~done]
        if not len(active):
            break
        a0, b0, obj0 = alpha[active], intercept[active], obj[active]
        scale = np.ones(len(active))
        todo = np.arange(len(active))
        for _ in range(30):
            rows = active[todo]
            a_new = a0[todo] - scale[todo, None] * step[todo, :n]
            b_new = b0[todo] - scale[todo] * step[todo, n]
            obj_new, z_new = _objective(k, target, counts[rows], a_new, b_new, reg)
            alpha[rows], intercept[rows], obj[rows], z[rows] = a_new, b_new, obj_new, z_new
            todo = todo[obj_new > obj0[todo] + 1e-12]
            if not len(todo):
                break
            scale[todo] *= 0.5
        active = active[scale * np.max(np.abs(step), axis=1) >= config.tol]
        if not len(active):
            break
    return alpha, intercept, n_iter, converged


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


def oracle_label(pool: PoolState, batch) -> PoolState:
    batch = np.asarray(batch, dtype=int)
    if len(np.unique(batch)) != len(batch):
        raise ValueError("batch contains duplicate indices")
    if not np.all(np.isin(batch, pool.unlabeled_idx)):
        raise ValueError("batch contains indices that are not unlabeled pool members")
    labeled = np.concatenate([pool.labeled_idx, batch])
    mask = np.isin(pool.unlabeled_idx, batch, invert=True)
    return PoolState(data=pool.data, labeled_idx=labeled,
                     unlabeled_idx=pool.unlabeled_idx[mask], iteration=pool.iteration + 1)


def preference(r, w):
    n = r.shape[1]
    pref = np.zeros((n, n))
    for k in range(len(r)):
        col = r[k]
        pref += w[k] * (col[:, None] > col[None, :])
    return pref


def build_transition(rank_lists, weights, variant="mc2", tun1=0.05):
    r = np.asarray(rank_lists, dtype=float)
    n = r.shape[1]
    w = np.asarray(weights, dtype=float)
    t = preference(r, w / w.sum())
    if variant == "mc1":
        np.greater(t, 0.0, out=t)
    elif variant == "mc2":
        np.greater(t, 0.5, out=t)
    t /= n
    np.fill_diagonal(t, 0.0)
    np.fill_diagonal(t, 1.0 - t.sum(axis=1))
    t *= 1.0 - tun1
    t += tun1 / n
    return t


def stationary_distribution(t):
    t = np.asarray(t)
    n = len(t)
    a = t.T.copy()
    a[np.diag_indices(n)] -= 1.0
    a[-1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    residual = np.abs(pi @ t - pi).sum()
    if residual >= 1e-10:
        raise RuntimeError(f"stationary solve is inaccurate (residual {residual:.2e})")
    return pi


def markov_aggregate(rank_lists, weights, variant="mc2", n_select=1, tun1=0.05, tun2=5,
                     committee_flags=None, truncate=True) -> AggregatedRanking:
    r = np.asarray(rank_lists, dtype=float)
    n_lists, n = r.shape
    if committee_flags is None:
        committee_flags = np.zeros(n_lists, dtype=bool)
    cand = truncate_candidates(r, committee_flags, n_select, tun2) if truncate else np.arange(n)
    pi = stationary_distribution(build_transition(r[:, cand], weights, variant, tun1))
    desc = np.argsort(-pi, kind="stable")
    tier = np.concatenate(([0], np.cumsum(np.diff(pi[desc]) < -1e-12)))
    best = desc[np.lexsort((desc, tier))]
    rest = np.ones(n, dtype=bool)
    rest[cand] = False
    order = np.concatenate([cand[best], np.flatnonzero(rest)]).astype(int)
    scores = np.zeros(n)
    scores[: len(cand)] = pi[best]
    ranks = np.empty(n, dtype=int)
    ranks[order] = np.arange(1, n + 1)
    return AggregatedRanking(ids=order, scores=scores, ranks=ranks)


def brute_force_aggregate(rank_lists, weights):
    r = np.asarray(rank_lists, dtype=float)
    n_lists, n = r.shape
    pair_cost = preference(r, np.asarray(weights, dtype=float))
    best_order = None
    best_cost = np.inf
    for perm in itertools.permutations(range(n)):
        cost = 0.0
        for a_pos in range(n):
            i = perm[a_pos]
            for b_pos in range(a_pos + 1, n):
                cost += pair_cost[i, perm[b_pos]]
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_order = perm
    return np.array(best_order, dtype=int), float(best_cost / n_lists)


def kendall_distance(a, b) -> int:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    da = a[:, None] - a[None, :]
    db = b[:, None] - b[None, :]
    return int(((da * db) < 0).sum() // 2)


def weighted_kendall_objective(agg_ranks, rank_lists, weights) -> float:
    r = np.asarray(rank_lists, dtype=float)
    w = np.asarray(weights, dtype=float)
    total = sum(w[k] * kendall_distance(agg_ranks, r[k]) for k in range(len(r)))
    return float(total / len(r))
