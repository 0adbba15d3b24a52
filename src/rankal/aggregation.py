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
  T is gathered from bit-coded preferences and a table of weight sums, and
  solved in its own buffer: one LU plus a fixed number of n x n passes.

``aggregate(method, ...)`` is the one entry point that maps the names in
``METHODS`` to these backends; ``MARKOV_VARIANTS`` is the one table of the
Markov variants and their thresholds.  ``check_options`` holds the one range
rule per option (``n_select``, ``tun1``, ``tun2``, ``p``); ``aggregate``
checks all four, each backend the ones it takes.  The other rules come from
``rankal.checks``: every weight vector (one per list) is checked by
``check_weights``, and the method, fusion and variant names by
``check_choice``.

Kendall / Spearman-footrule distances measure agreement between rankings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .checks import check_choice, check_int, check_real, check_weights

_BORDA_FUSIONS = {
    "borda-min": "minimum",
    "borda-median": "median",
    "borda-geo": "geometric-mean",
    "borda-pnorm": "pnorm",
}
# Markov variant -> the preferring weight a move needs: mc1 any, mc2 a strict
# majority, mc3 none (it moves in proportion to the weight)
MARKOV_VARIANTS = {"mc1": 0.0, "mc2": 0.5, "mc3": None}
METHODS = (*_BORDA_FUSIONS, "bucklin", *MARKOV_VARIANTS)


def check_options(n_select=1, tun1=0.05, tun2=5, p=1.0):
    """Raise ValueError unless every aggregation option lies in its range.

    ``n_select`` is an integer >= 1, ``tun2`` an integer >= 0, ``tun1`` a
    real in (0, 1) and ``p`` a finite real >= 1; bools are not numbers here.
    The one statement of these ranges: ``ALConfig``, ``aggregate``, each
    backend (for the options it takes) and the ``rankal aggregate`` flags
    call it.
    """
    check_int("n_select", n_select, 1)
    check_int("tun2", tun2, 0)
    check_real("tun1", tun1, 0, 1, open_low=True, open_high=True)
    check_real("p", p, 1)


@dataclass(frozen=True)
class BordaConfig:
    fusion: str = "pnorm"  # minimum | median | geometric-mean | pnorm
    p: float = 1.0

    def __post_init__(self):
        check_choice("fusion", self.fusion, _BORDA_FUSIONS.values())
        check_options(p=self.p)


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
    if not (r.min(initial=1.0) >= 1 and r.max(initial=1.0) < np.inf):
        raise ValueError("ranks must be finite and >= 1")
    return r


def _norm_weights(weights, n_lists):
    w = check_weights("weights", weights, n_lists, "list")
    return w / w.sum()


# _BITS[c, k]: bit k of the code c, as 0.0 or 1.0
_BITS = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(float)


def _preference(r, w, finish):
    """pref[i, j]: total weight of the lists ranking j strictly before i,
    summed in list order, then mapped by ``finish`` (elementwise, in place):
    ``build_transition``, the one caller, applies its variant and 1/n there.

    Bit k of a uint8 code matrix is list k's preference, for the first eight
    lists; ``table[code]`` holds their running weight sums and equals the
    list-order sum bit for bit, since adding 0.0 is exact.  ``finish`` then
    maps the table, not the n x n result, unless later lists add in place.
    Each list is compared into one reused n x n bool buffer, from the
    eighth list (or the last) down to the first, and added in as
    code = 2 * code + bit, so list k lands on bit k; the buffer is freed
    before the gather unless a ninth or later list needs it again.
    Integer ranks below 2**15 compare as int16, about 8x faster than float.
    """
    n_lists, n = r.shape
    r = np.ascontiguousarray(r)  # a column selection r[:, cand] is F-ordered
    key = r.astype(np.int16) if r.max() < 2**15 else r
    if not (key == r).all():  # fractional ranks compare as they are
        key = r
    head = min(n_lists, 8)
    code = np.empty((n, n), dtype=np.uint8)
    np.greater(key[head - 1][:, None], key[head - 1], out=code.view(bool))
    bit = np.empty((n, n), dtype=bool) if n_lists > 1 else None
    for k in reversed(range(head - 1)):
        np.greater(key[k][:, None], key[k], out=bit)
        code += code
        code += bit
    table = np.cumsum(_BITS[: 2**head, :head] * w[:head], axis=1)[:, -1]
    if head == n_lists:
        del bit
        return finish(table)[code]
    pref = table[code]
    del code
    for k in range(head, n_lists):
        np.greater(key[k][:, None], key[k], out=bit)
        np.add(pref, w[k], out=pref, where=bit)
    return finish(pref)


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
    w = check_weights("weights", weights, n_lists, "list")
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
    truncation is skipped with a warning.  ``n_select`` and ``tun2`` are
    checked by ``check_options``; a truncation that keeps no candidate
    raises ValueError.
    """
    check_options(n_select=n_select, tun2=tun2)
    r = _as_rank_matrix(rank_lists)
    flags = np.asarray(committee_flags, dtype=bool)
    if flags.shape != (r.shape[0],):
        raise ValueError("need one committee flag per list")
    if flags.all():
        warnings.warn("all rank lists are committee-based; skipping truncation")
        return np.arange(r.shape[1])
    n_star = n_select + tun2
    keep = (r[~flags] <= n_star).any(axis=0)
    if not keep.any():
        raise ValueError(f"truncation keeps no candidate: no non-committee list ranks "
                         f"a sample within the top N* = n_select + tun2 = {n_star}")
    return np.where(keep)[0]


def build_transition(rank_lists, weights, variant="mc2", tun1=0.05) -> np.ndarray:
    """Weighted pairwise-preference transition matrix over the candidates,
    as an (n, n) float64 array.

    The chain moves from i to j when lists prefer j (rank j strictly better):
    mc1 fires on any preferring weight, mc2 on a strict weighted majority
    (> 1/2), mc3 proportionally to the preferring weight.  Off-diagonal mass
    is spread by 1/|C|, the diagonal absorbs the remainder, and the matrix is
    blended with the uniform matrix by tun1 so every entry is at least
    tun1 / n.  One candidate gives the one-state chain T = [[1]].
    """
    check_choice("variant", variant, MARKOV_VARIANTS)
    check_options(tun1=tun1)
    r = _as_rank_matrix(rank_lists)
    n_lists, n = r.shape
    threshold = MARKOV_VARIANTS[variant]

    def finish(x):
        if threshold is not None:
            np.greater(x, threshold, out=x)
        x /= n
        return x

    t = _preference(r, _norm_weights(weights, n_lists), finish)
    # the diagonal is 0.0 until here: no list ranks a sample before itself
    t.reshape(-1)[:: n + 1] = 1.0 - t.sum(axis=1)
    t *= 1.0 - tun1
    t += tun1 / n
    return t


def stationary_distribution(transition) -> np.ndarray:
    """Solve (T^T - I) pi = 0 with its last row replaced by sum(pi) = 1;
    never singular for a strictly positive T.  Raises at an L1 residual
    |pi T - pi| of 1e-10 or more, or a NaN one.

    ``transition`` is T as an array: a ValueError unless it is a non-empty
    square matrix of finite, non-negative entries whose rows sum to 1
    within 1e-12 (an infinite entry fails the row sums).

    T - I with its last column set to 1, read as its F-ordered transpose, is
    the system matrix, so LAPACK gets it by one contiguous copy.  A writable
    C-ordered float64 T is written in place and restored before the residual
    check, also when the solve raises (a thread reading T meanwhile would see
    the change); any other T is copied once.
    """
    t = np.asarray(transition)
    if not (t.dtype == np.float64 and t.flags.c_contiguous and t.flags.writeable):
        t = np.array(t, dtype=float, order="C")
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.size == 0:
        raise ValueError(f"transition must be a non-empty square matrix, got shape {t.shape}")
    if not t.min() >= 0:
        raise ValueError("transition entries must be finite and non-negative")
    if not np.abs(t.sum(axis=1) - 1.0).max() <= 1e-12:
        raise ValueError("transition rows must sum to 1")
    n = len(t)
    diag = t.reshape(-1)[:: n + 1]  # a view, as t is C-ordered
    saved_diag, saved_last = diag.copy(), t[:, -1].copy()
    diag -= 1.0
    t[:, -1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(t.T, b)
    finally:
        t[:, -1] = saved_last
        diag[:] = saved_diag
    residual = np.abs(pi @ t - pi).sum()
    if not residual < 1e-10:
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


def aggregate(method, rank_lists, weights, *, ids=None, n_select=1, tun1=0.05,
              tun2=5, p=1.0, committee_flags=None, truncate=True) -> AggregatedRanking:
    """Run the aggregator named ``method`` (one of ``METHODS``).

    The Borda fusions use ``p``; the Markov chains use ``n_select``, ``tun1``,
    ``tun2``, ``committee_flags`` and ``truncate``; Bucklin uses none of them.
    All four options are checked (``check_options``) whichever method runs.
    """
    check_choice("method", method, METHODS)
    check_options(n_select, tun1, tun2, p)
    if method in _BORDA_FUSIONS:
        cfg = BordaConfig(fusion=_BORDA_FUSIONS[method], p=p)
        return borda_aggregate(rank_lists, weights, cfg, ids=ids)
    if method == "bucklin":
        return bucklin_aggregate(rank_lists, weights, ids=ids)
    return markov_aggregate(
        rank_lists, weights, variant=method, n_select=n_select, tun1=tun1,
        tun2=tun2, committee_flags=committee_flags, truncate=truncate, ids=ids,
    )


def _rank_pair(a, b):
    """``a`` and ``b`` as float arrays, or ValueError unless both are 1-D,
    finite and of equal length."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("rank lists must have equal length")
    if a.ndim != 1 or not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("rank lists must be 1-D and finite")
    return a, b


def kendall_distance(a, b) -> int:
    """Number of strictly discordant unordered pairs; ties contribute 0.

    Knight's method (JASA 61(314), 1966) in O(n) memory: ordered by (a, b),
    a pair is discordant when its b values are inverted.  Inversions are
    counted at run widths 1, 2, 4, ...: each value of a right run is looked
    up in its sorted left neighbour.
    """
    a, b = _rank_pair(a, b)
    n = len(a)
    # b's dense ranks in (a, b) order: a tie in a is sorted by b, so it holds
    # no inversion
    x = np.unique(b, return_inverse=True)[1][np.lexsort((b, a))]
    pos = np.arange(n)
    count = 0
    width = 1
    while width < n:
        run = pos // width
        value = np.sort(run * n + x) - run * n  # each run sorted in place
        pair, right = run // 2, run % 2 == 1
        key = pair * n + value  # ascending over the left runs
        # a right run's left neighbour is full: (p + 1) * width lefts up to pair p
        above = (pair[right] + 1) * width - np.searchsorted(key[~right], key[right], "right")
        count += int(above.sum())
        width *= 2
    return count


def spearman_distance(a, b) -> int | float:
    """Footrule distance: total absolute rank displacement, exact.

    An int when the sum is whole (as it is for integer ranks), else the
    float sum of the fractional ranks' displacements.
    """
    a, b = _rank_pair(a, b)
    total = float(np.abs(a - b).sum())
    return int(total) if total.is_integer() else total


def ranking_distances(agg_ranks, rank_lists):
    """Summed (Kendall, Spearman) distance of a ranking to every input list."""
    r = _as_rank_matrix(rank_lists)
    k = sum(kendall_distance(agg_ranks, r[j]) for j in range(len(r)))
    s = sum(spearman_distance(agg_ranks, r[j]) for j in range(len(r)))
    return k, s
