"""Self-adaptive per-criterion weights computed fresh each query iteration.

Non-committee criteria are weighted by the best-versus-second-best gap of
their score list: the sharper the drop right after the would-be selected
batch, the stronger the criterion's opinion.  Committee criteria, whose
score lists are ladder-like with many duplicates, are weighted by how
rarely the remaining samples tie with the last selected score.  The two
groups then share the total mass proportionally to their head counts.

Both raw weights take the normalized scores in any order and read order
statistics of them (one ``np.partition``), not a sorted copy.  The query
loop computes the raw weights and blends them once per fused step, only
while more than N samples remain unlabeled (the last, draining batch ranks
nothing); the blended array becomes the step's ``{criterion: weight}``
record.
"""

from __future__ import annotations

import numpy as np

from .checks import check_int

_EPS = 1e-12


def _order_statistics(scores, n_select):
    """``scores`` as a float array partitioned so that positions 0, N - 1, N
    and -1 hold the smallest, N-th smallest, (N+1)-th smallest and largest
    score.  ValueError unless N is an integer >= 1 below the score count."""
    check_int("n_select", n_select, 1)
    s = np.asarray(scores, dtype=float)
    if len(s) <= n_select:
        raise ValueError(f"need more than N={n_select} scores, got {len(s)}")
    return np.partition(s, (0, n_select - 1, n_select, len(s) - 1))


def bvsb_weight(scores, n_select) -> float:
    """Gap between the last selected and first rejected score, range-scaled.

    ``scores`` are the normalized scores, in any order; ``n_select`` is the
    batch size N.  With S*(k) the k-th smallest score, returns
    (S*(N) - S*(N+1)) / (S*(1) - S*(end)), which is 1 for an ideal step
    list and 0 for a constant list (0/0 -> 0).
    """
    s = _order_statistics(scores, n_select)
    denom = s[0] - s[-1]
    if abs(denom) < _EPS:
        return 0.0
    w = (s[n_select - 1] - s[n_select]) / denom
    return float(np.clip(w, 0.0, 1.0))


def duplicate_weight(scores, n_select) -> float:
    """Fraction of scores above the N-th smallest, #{s > S*(N)} / n: on the
    sorted list, the post-batch scores that differ from the last selected
    one.  ``scores`` may come in any order."""
    s = _order_statistics(scores, n_select)
    return int(np.count_nonzero(s > s[n_select - 1])) / len(s)


def blend_weights(raw_weights, committee_flags) -> np.ndarray:
    """Combine raw group weights into one normalized weight vector.

    Non-committee criteria share mass c1/L proportionally to their raw BVSB
    weights; committee criteria share c2/L proportionally to their duplicate
    weights.  A group whose raw weights are all zero splits its mass
    uniformly; a NaN, infinite or negative raw weight is a ValueError.
    Returns the weights, one per criterion, summing to 1.
    """
    raw = np.asarray(raw_weights, dtype=float)
    flags = np.asarray(committee_flags, dtype=bool)
    if raw.shape != flags.shape or raw.ndim != 1:
        raise ValueError("raw_weights and committee_flags must be equal-length vectors")
    total = len(raw)
    if total == 0:
        raise ValueError("need at least one criterion")
    # NaN reaches both extremes, a negative or infinite weight one of them
    if not (raw.min() >= 0 and raw.max() < np.inf):
        raise ValueError("raw weights must be finite and non-negative")

    weights = np.empty(total)  # every criterion is in one of the two groups
    for members in (~flags, flags):
        group = raw[members]
        count = len(group)
        if count == 0:
            continue
        mass = count / total
        group_sum = group.sum()
        weights[members] = mass * group / group_sum if group_sum > _EPS else mass / count
    return weights
