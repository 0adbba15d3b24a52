"""Self-adaptive per-criterion weights computed fresh each query iteration.

Non-committee criteria are weighted by the best-versus-second-best gap of
their sorted score list: the sharper the drop right after the would-be
selected batch, the stronger the criterion's opinion.  Committee criteria,
whose score lists are ladder-like with many duplicates, are weighted by how
rarely the remaining samples tie with the last selected score.  The two
groups then share the total mass proportionally to their head counts.

The query loop computes the raw weights and blends them once per fused step,
only while more than N samples remain unlabeled (the last, draining batch
ranks nothing); the blended array becomes the step's ``{criterion: weight}``
record.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-12


def _sorted_scores(sorted_scores, n_select):
    """``sorted_scores`` as a float array, or ValueError unless it is longer than N."""
    s = np.asarray(sorted_scores, dtype=float)
    if len(s) <= n_select:
        raise ValueError(f"need more than N={n_select} scores, got {len(s)}")
    return s


def bvsb_weight(sorted_scores, n_select) -> float:
    """Gap between the last selected and first rejected score, range-scaled.

    ``sorted_scores`` is the ascending normalized score list; ``n_select`` is
    the batch size N.  Returns (S*(N) - S*(N+1)) / (S*(1) - S*(end)), which
    is 1 for an ideal step list and 0 for a constant list (0/0 -> 0).
    """
    s = _sorted_scores(sorted_scores, n_select)
    denom = s[0] - s[-1]
    if abs(denom) < _EPS:
        return 0.0
    w = (s[n_select - 1] - s[n_select]) / denom
    return float(np.clip(w, 0.0, 1.0))


def duplicate_weight(sorted_scores, n_select) -> float:
    """Fraction of post-batch scores that differ from the last selected score."""
    s = _sorted_scores(sorted_scores, n_select)
    pivot = s[n_select - 1]
    count = int(np.sum(s[n_select:] != pivot))
    return count / len(s)


def blend_weights(raw_weights, committee_flags) -> np.ndarray:
    """Combine raw group weights into one normalized weight vector.

    Non-committee criteria share mass c1/L proportionally to their raw BVSB
    weights; committee criteria share c2/L proportionally to their duplicate
    weights.  A group whose raw weights are all zero splits its mass
    uniformly.  Returns the weights, one per criterion, summing to 1.
    """
    raw = np.asarray(raw_weights, dtype=float)
    flags = np.asarray(committee_flags, dtype=bool)
    if raw.shape != flags.shape or raw.ndim != 1:
        raise ValueError("raw_weights and committee_flags must be equal-length vectors")
    total = len(raw)
    if total == 0:
        raise ValueError("need at least one criterion")
    if np.any(raw < 0):
        raise ValueError("raw weights must be non-negative")

    weights = np.zeros(total)
    for members in (~flags, flags):
        count = int(members.sum())
        if count == 0:
            continue
        mass = count / total
        group = raw[members]
        if group.sum() > _EPS:
            weights[members] = mass * group / group.sum()
        else:
            weights[members] = mass / count
    return weights
