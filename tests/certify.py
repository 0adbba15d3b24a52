"""Certify that two fused picks from one pool state differ only at ties.

Two paths that compute the same scores in different ways (a cached kernel
slice against a fresh kernel, a stacked committee against one model per
member, a warm-started Newton against a cold one) agree up to round-off.
Gemm and gemv round differently, so such paths may still move a pick where
two samples tie.  ``certify`` accepts a moved pick when it is either

* a near-tie in every criterion: normalized scores within ``SCORE_TOL``;
* an aggregate tie: equal rank products (geometric-mean Borda) or fused
  scores (the other Borda fusions), equal depth and tally (Bucklin), or
  one ``PI_TIER`` tier of stationary probabilities (Markov),

under the criterion scores of at least one of the paths.
"""

from __future__ import annotations

import numpy as np

from rankal.criteria import normalize_and_rank
from rankal.loop import _fuse

SCORE_TOL = 1e-6
PI_TIER = 1e-12  # the Markov tier rule of rankal.aggregation.markov_aggregate


def _aggregate_key(cfg, ranking, rank_lists, weights):
    """Per unlabeled position, a key that two tied positions share."""
    at = ranking.ranks - 1  # position -> index into ranking.ids / scores
    if cfg.aggregator == "borda-geo":
        return np.prod(rank_lists, axis=0)
    if cfg.aggregator.startswith("borda"):
        return ranking.scores[at]
    if cfg.aggregator == "bucklin":
        depth = ranking.scores[at]
        tally = (weights / weights.sum()) @ (rank_lists <= depth)
        return np.stack([depth, tally], axis=1)
    pi = ranking.scores
    desc = np.argsort(-pi, kind="stable")
    tier = np.empty(len(pi), dtype=int)
    tier[desc] = np.concatenate(([0], np.cumsum(np.diff(pi[desc]) < -PI_TIER)))
    return tier[at]


def _tied(state, cfg, scores, p, q):
    """Whether unlabeled positions p and q tie under one path's scores."""
    normalized = [normalize_and_rank(s)[0] for s in scores]
    if all(abs(v[p] - v[q]) <= SCORE_TOL for v in normalized):
        return True
    ranking, weights, rank_lists = _fuse(state, cfg, scores)
    key = _aggregate_key(cfg, ranking, rank_lists, weights)
    return bool(np.all(key[p] == key[q]))


def certify(state, cfg, batch_a, batch_b, score_sets):
    """Check that fused batches ``batch_a`` and ``batch_b`` differ only at ties.

    ``score_sets`` holds, per path, the criterion scores (in config order)
    on ``state``'s unlabeled pool, for example ``criterion_scores(state,
    cfg, ted, warm)``.  Every pick of one batch that the other lacks must
    tie, under one of the score sets, with a pick that only the other batch
    has.  Returns the number of moved picks; raises AssertionError naming
    the first one that no tie explains.
    """
    only_a = np.setdiff1d(batch_a, batch_b)
    only_b = np.setdiff1d(batch_b, batch_a)
    assert len(only_a) == len(only_b), (batch_a, batch_b)
    position = {int(i): k for k, i in enumerate(state.unlabeled_idx)}
    for mine, theirs in ((only_a, only_b), (only_b, only_a)):
        for i in mine:
            assert any(
                _tied(state, cfg, scores, position[int(i)], position[int(j)])
                for j in theirs for scores in score_sets
            ), f"pick {int(i)} moved to one of {theirs.tolist()} without a tie"
    return len(only_a)
