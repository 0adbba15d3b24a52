"""Weighted rank aggregation: positional fusion, majority voting, Markov chain.

All aggregators consume an (L, n) matrix of per-criterion rank lists (ties
allowed: competition-style ranks may repeat) plus a weight per list, and
produce an AggregatedRanking: sample ids best-first, a score per sample, and
the implied total-order rank of every sample.

Three families are provided:

* positional score fusion with min / median / geometric-mean / p-norm
  combiners over the weighted rank values,
* round-deepening weighted majority voting: a sample is confirmed at the
  first depth ceil(rank) of one of its ranks where the weight of lists
  ranking it at that depth or better exceeds 1/2,
* a Markov chain whose stationary distribution (one linear solve) scores
  the candidates, with an optional truncation step that restricts the chain
  to samples appearing near the top of at least one non-committee list.

``aggregate(method, ...)`` is the one entry point that maps the names in
``METHODS`` to these backends.

A factorial brute-force minimizer of the weighted Kendall objective serves
as an oracle for small instances, and Kendall / Spearman-footrule distances
measure agreement between rankings.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .learner import check_int


@dataclass(frozen=True)
class BordaConfig:
    fusion: str = "pnorm"  # minimum | median | geometric-mean | pnorm
    p: float = 1.0

    _FUSIONS = ("minimum", "median", "geometric-mean", "pnorm")

    def __post_init__(self):
        if self.fusion not in self._FUSIONS:
            raise ValueError(f"fusion must be one of {self._FUSIONS}")
        if not 1.0 <= self.p < np.inf:
            raise ValueError("p must be finite and >= 1")


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic, strictly positive transition matrix over candidates."""

    entries: np.ndarray
    tun1: float

    def __post_init__(self):
        t = self.entries
        n = len(t)
        if np.any(t < 0):
            raise ValueError("transition entries must be non-negative")
        if np.max(np.abs(t.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("transition rows must sum to 1")
        if np.min(t) < self.tun1 / n - 1e-15:
            raise ValueError("ergodic floor violated")


@dataclass(frozen=True)
class AggregatedRanking:
    """ids best-first, one aggregate score per id, and per-sample total ranks.

    ``ranks`` is aligned with the aggregator's input sample axis and always a
    permutation of 1..n; ``scores`` is aligned with ``ids``.
    """

    ids: np.ndarray
    scores: np.ndarray
    ranks: np.ndarray

    def top(self, n):
        return self.ids[:n]


def _as_rank_matrix(rank_lists):
    r = np.asarray(rank_lists, dtype=float)
    if r.ndim != 2:
        raise ValueError("rank_lists must be a 2-D (L, n) array")
    if r.shape[1] < 1:
        raise ValueError("rank_lists must cover at least one sample")
    if not np.all(np.isfinite(r)) or np.any(r < 1):
        raise ValueError("ranks must be finite and >= 1")
    return r


def _check_weights(weights, n_lists):
    w = np.asarray(weights, dtype=float)
    if w.shape != (n_lists,):
        raise ValueError(f"need one weight per list, got shape {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w < 0) or w.sum() <= 0:
        raise ValueError("weights must be finite and non-negative with positive sum")
    return w


def _norm_weights(weights, n_lists):
    w = _check_weights(weights, n_lists)
    return w / w.sum()


def _preference(r, w):
    """pref[i, j]: total weight of the lists ranking j strictly before i."""
    n = r.shape[1]
    pref = np.zeros((n, n))
    for k in range(len(r)):
        col = r[k]
        pref += w[k] * (col[:, None] > col[None, :])
    return pref


def _ranking(order, scores, ids):
    """AggregatedRanking for sample positions ``order`` (best first)."""
    n = len(order)
    ranks = np.empty(n, dtype=int)
    ranks[order] = np.arange(1, n + 1)
    sample_ids = np.arange(n) if ids is None else np.asarray(ids)
    return AggregatedRanking(ids=sample_ids[order], scores=scores, ranks=ranks)


def ordinalize(rank_lists):
    """Convert tie-aware rank lists into total orders (positions 1..n).

    Ties within a list are resolved by ascending sample position.  Applying
    this to a permutation is the identity.
    """
    r = _as_rank_matrix(rank_lists)
    out = np.empty_like(r)
    np.put_along_axis(out, np.argsort(r, axis=1, kind="stable"),
                      np.arange(1.0, r.shape[1] + 1), axis=1)
    return out


def borda_aggregate(rank_lists, weights, cfg: BordaConfig = BordaConfig(),
                    ids=None) -> AggregatedRanking:
    """Fuse weighted rank values positionally; lowest fused score wins.

    Fused-score ties are broken deterministically: the p-norm fusion ranks
    later sample positions first, the other fusions rank earlier positions
    first (fixed conventions chosen to keep reference outputs reproducible).
    The geometric mean orders by the product of the ranks, which the weights
    only scale, so ties between equal products (exact for integer ranks while
    the products stay below 2**53) do not depend on the weights.
    Zero-weight lists cast no vote: they are excluded from the minimum and
    median fusions, and floored at 1e-9 under the geometric mean so no fused
    score collapses through a zero factor.
    """
    r = _as_rank_matrix(rank_lists)
    n_lists, n = r.shape
    w = _check_weights(weights, n_lists)
    if cfg.fusion == "geometric-mean":
        w = np.maximum(w, 1e-9)
    elif cfg.fusion in ("minimum", "median"):
        active = w > 0
        r, w = r[active], w[active]
    b = r * w[:, None]
    if cfg.fusion == "minimum":
        fused = b.min(axis=0)
    elif cfg.fusion == "median":
        fused = np.median(b, axis=0)
    elif cfg.fusion == "geometric-mean":
        fused = np.exp(np.mean(np.log(np.maximum(b, 1e-300)), axis=0))
    else:
        fused = np.sum(b ** cfg.p, axis=0)
    fused = np.round(fused, 12)
    pos = np.arange(n)
    tie_key = -pos if cfg.fusion == "pnorm" else pos
    # equal rank products tie exactly; log/exp would split them by round-off
    sort_key = np.prod(r, axis=0) if cfg.fusion == "geometric-mean" else fused
    order = np.lexsort((tie_key, sort_key))
    return _ranking(order, fused[order], ids)


def bucklin_aggregate(rank_lists, weights, ids=None) -> AggregatedRanking:
    """Round-deepening weighted majority voting.

    At depth ch a sample's tally is the total weight of lists ranking it at
    ch or better; samples are emitted once their tally exceeds 0.5 (weights
    are normalized to sum 1 first).  Simultaneous majorities emit in
    descending tally, then ascending sample position.  The emitted sample's
    score is its confirmation depth.  A tally only grows at a depth
    ceil(rank) of one of the sample's own ranks, so only those are tried.
    """
    r = _as_rank_matrix(rank_lists)
    n_lists, n = r.shape
    w = _norm_weights(weights, n_lists)
    depth = np.ceil(r)
    # tally[k, j]: weight of the lists ranking sample j at depth[k, j] or better
    tally = (w @ (r[:, None, :] <= depth).reshape(n_lists, -1)).reshape(n_lists, n)
    first = np.argmin(np.where(tally > 0.5, depth, np.inf), axis=0)[None, :]
    depth = np.take_along_axis(depth, first, axis=0)[0]
    tally = np.take_along_axis(tally, first, axis=0)[0]
    order = np.lexsort((np.arange(n), -tally, depth))
    return _ranking(order, depth[order], ids)


def truncate_candidates(rank_lists, committee_flags, n_select, tun2=5) -> np.ndarray:
    """Positions ranked within the top N* = n_select + tun2 of any
    non-committee list.

    Committee lists carry many ties and would flood the candidate set, so
    they vote later but do not nominate.  If every list is committee-based,
    truncation is skipped with a warning.  ``n_select`` must be an integer
    >= 1 and ``tun2`` one >= 0.
    """
    check_int("n_select", n_select, 1)
    check_int("tun2", tun2, 0)
    r = _as_rank_matrix(rank_lists)
    flags = np.asarray(committee_flags, dtype=bool)
    if flags.shape != (r.shape[0],):
        raise ValueError("need one committee flag per list")
    if flags.all():
        warnings.warn("all rank lists are committee-based; skipping truncation")
        return np.arange(r.shape[1])
    n_star = n_select + tun2
    keep = (r[~flags] <= n_star).any(axis=0)
    return np.where(keep)[0]


def build_transition(rank_lists, weights, variant="mc2", tun1=0.05) -> TransitionMatrix:
    """Weighted pairwise-preference transition matrix over the candidates.

    The chain moves from i to j when lists prefer j (rank j strictly better):
    mc1 fires on any preferring weight, mc2 on a strict weighted majority
    (> 1/2), mc3 proportionally to the preferring weight.  Off-diagonal mass
    is spread by 1/|C|, the diagonal absorbs the remainder, and the matrix is
    blended with the uniform matrix by tun1 so every entry is positive.
    """
    if variant not in ("mc1", "mc2", "mc3"):
        raise ValueError(f"unknown Markov chain variant {variant!r}")
    if not 0.0 < tun1 < 1.0:
        raise ValueError("tun1 must lie in (0, 1)")
    r = _as_rank_matrix(rank_lists)
    n_lists, n = r.shape
    if n < 2:
        raise ValueError("need at least 2 candidates")
    # in place: an n x n temporary per step dominates peak memory at large n
    t = _preference(r, _norm_weights(weights, n_lists))
    if variant == "mc1":
        np.greater(t, 0.0, out=t)
    elif variant == "mc2":
        np.greater(t, 0.5, out=t)
    t /= n
    np.fill_diagonal(t, 0.0)
    np.fill_diagonal(t, 1.0 - t.sum(axis=1))
    t *= 1.0 - tun1
    t += tun1 / n
    return TransitionMatrix(entries=t, tun1=tun1)


def stationary_distribution(transition) -> np.ndarray:
    """Solve (T^T - I) pi = 0 with its last row replaced by sum(pi) = 1;
    never singular for a strictly positive T.  Raises at an L1 residual
    |pi T - pi| of 1e-10 or more."""
    t = transition.entries if isinstance(transition, TransitionMatrix) else np.asarray(transition)
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


def markov_aggregate(rank_lists, weights, variant="mc2", n_select=1,
                     tun1=0.05, tun2=5, committee_flags=None, truncate=True,
                     ids=None) -> AggregatedRanking:
    """Stationary-distribution ranking, optionally restricted to candidates.

    Candidates are ordered by descending stationary probability, where
    neighbours within 1e-12 form one tier ordered by ascending sample
    position; truncated-away samples follow in ascending position order
    with score 0.
    """
    r = _as_rank_matrix(rank_lists)
    n_lists, n = r.shape
    if committee_flags is None:
        committee_flags = np.zeros(n_lists, dtype=bool)
    cand = truncate_candidates(r, committee_flags, n_select, tun2) if truncate else np.arange(n)
    # T is freed once pi is known, before the result arrays are allocated: a
    # large T left below them would pin that much of the heap
    pi = stationary_distribution(build_transition(r[:, cand], weights, variant=variant, tun1=tun1))
    desc = np.argsort(-pi, kind="stable")  # tiers absorb round-off between tied pi
    tier = np.concatenate(([0], np.cumsum(np.diff(pi[desc]) < -1e-12)))
    best = desc[np.lexsort((desc, tier))]
    rest = np.ones(n, dtype=bool)
    rest[cand] = False
    order = np.concatenate([cand[best], np.flatnonzero(rest)]).astype(int)
    scores = np.zeros(n)
    scores[: len(cand)] = pi[best]
    return _ranking(order, scores, ids)


_BORDA_FUSIONS = {
    "borda-min": "minimum",
    "borda-median": "median",
    "borda-geo": "geometric-mean",
    "borda-pnorm": "pnorm",
}
METHODS = (*_BORDA_FUSIONS, "bucklin", "mc1", "mc2", "mc3")


def aggregate(method, rank_lists, weights, *, ids=None, n_select=1, tun1=0.05,
              tun2=5, p=1.0, committee_flags=None, truncate=True) -> AggregatedRanking:
    """Run the aggregator named ``method`` (one of ``METHODS``).

    The Borda fusions use ``p``; the Markov chains use ``n_select``, ``tun1``,
    ``tun2``, ``committee_flags`` and ``truncate``; Bucklin uses none of them.
    """
    if method in _BORDA_FUSIONS:
        cfg = BordaConfig(fusion=_BORDA_FUSIONS[method], p=p)
        return borda_aggregate(rank_lists, weights, cfg, ids=ids)
    if method == "bucklin":
        return bucklin_aggregate(rank_lists, weights, ids=ids)
    if method in ("mc1", "mc2", "mc3"):
        return markov_aggregate(
            rank_lists, weights, variant=method, n_select=n_select, tun1=tun1,
            tun2=tun2, committee_flags=committee_flags, truncate=truncate, ids=ids,
        )
    raise ValueError(f"unknown aggregation method {method!r}; expected one of {METHODS}")


def kendall_distance(a, b) -> int:
    """Number of strictly discordant unordered pairs; ties contribute 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("rank lists must have equal length")
    da = a[:, None] - a[None, :]
    db = b[:, None] - b[None, :]
    return int(((da * db) < 0).sum() // 2)


def spearman_distance(a, b) -> int:
    """Footrule distance: total absolute rank displacement."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("rank lists must have equal length")
    return int(np.abs(a - b).sum())


def ranking_distances(agg_ranks, rank_lists):
    """Summed (Kendall, Spearman) distance of a ranking to every input list."""
    r = _as_rank_matrix(rank_lists)
    k = sum(kendall_distance(agg_ranks, r[j]) for j in range(len(r)))
    s = sum(spearman_distance(agg_ranks, r[j]) for j in range(len(r)))
    return k, s


def weighted_kendall_objective(agg_ranks, rank_lists, weights) -> float:
    """(1/L) sum_k w_k * Kendall(R, R_k) -- the quantity aggregation minimizes."""
    r = _as_rank_matrix(rank_lists)
    w = np.asarray(weights, dtype=float)
    total = sum(
        w[k] * kendall_distance(agg_ranks, r[k]) for k in range(len(r))
    )
    return float(total / len(r))


def brute_force_aggregate(rank_lists, weights, ids=None):
    """Exact minimizer of the weighted Kendall objective by factorial search.

    Refuses instances with more than 8 samples.  Equal-objective permutations
    resolve to the lexicographically smallest order.  Returns
    (AggregatedRanking, objective value).
    """
    r = _as_rank_matrix(rank_lists)
    n_lists, n = r.shape
    if n > 8:
        raise ValueError("brute force search is limited to 8 samples")
    # pair_cost[i, j]: weighted discordance mass incurred by placing i before j
    pair_cost = _preference(r, np.asarray(weights, dtype=float))
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
    ranking = _ranking(
        np.array(best_order, dtype=int), np.arange(1, n + 1, dtype=float), ids
    )
    return ranking, float(best_cost / n_lists)
