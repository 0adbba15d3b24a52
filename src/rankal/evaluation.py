"""Classification metrics, paired t-tests and win/tie/loss tabulation.

The Student-t CDF is the exact finite series for integer degrees of freedom
(the paired test's n - 1), so no statistics library is needed at run time.
Verdicts follow the fixed convention: a comparison ties when the two-sided
p-value is >= alpha, or when the paired differences have zero variance and
zero mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import check_int


def _paired(pred, true):
    """``pred`` and ``true`` as arrays, or ValueError unless of equal length and non-empty."""
    pred = np.asarray(pred)
    true = np.asarray(true)
    if pred.shape != true.shape or len(pred) == 0:
        raise ValueError("pred and true must be equal-length, non-empty")
    return pred, true


def accuracy(pred, true) -> float:
    pred, true = _paired(pred, true)
    return float(np.mean(pred == true))


def f1(pred, true) -> float:
    """Harmonic mean of precision and recall for the class +1; degenerate
    cases return 0."""
    pred, true = _paired(pred, true)
    tp = np.sum((pred == 1) & (true == 1))
    fp = np.sum((pred == 1) & (true != 1))
    fn = np.sum((pred != 1) & (true == 1))
    if tp + fp == 0 or tp + fn == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    if precision + recall == 0:
        return 0.0
    return float(2.0 * precision * recall / (precision + recall))


def auc(scores, true) -> float:
    """Rank-based (Mann-Whitney) AUC of the class +1; tied scores contribute 1/2.

    ``scores`` and ``true`` are checked as ``accuracy`` checks its pair, and
    a NaN score is a ValueError: it has no rank.
    """
    scores, true = _paired(np.asarray(scores, dtype=float), true)
    pos = true == 1
    n_pos = int(pos.sum())
    n_neg = len(true) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes in the true labels")
    values, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    if np.isnan(values[-1]):  # np.unique sorts NaN last
        raise ValueError("scores must not be NaN")
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]  # average rank for ties
    rank_sum = ranks[pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def t_cdf(t, df) -> float:
    """Student-t cumulative distribution function for an integer ``df`` >= 1.

    The exact finite series of Abramowitz & Stegun 26.7.3-4 in
    theta = atan(t / sqrt(df)): A = P(|T| <= t), signed with t, is
    sin(theta) times a sum of df // 2 terms in cos^2(theta) for even df, and
    (2/pi) (theta + sin(theta) times (df - 1) // 2 terms) for odd df.
    """
    check_int("df", df, 1)
    theta = math.atan(t / math.sqrt(df))
    odd = df % 2
    c2 = df / (df + t * t)  # cos^2(theta)
    term, total = (math.sqrt(c2) if odd else 1.0), 0.0
    for k in range(1, (df - odd) // 2 + 1):
        total += term
        term *= (2 * k - 1 + odd) / (2 * k + odd) * c2
    a = math.sin(theta) * total
    if odd:
        a = 2.0 / math.pi * (theta + a)
    return 0.5 + 0.5 * a


@dataclass(frozen=True)
class PairedTestResult:
    mean_diff: float
    t_stat: float
    p_value: float
    verdict: str  # win | tie | loss


def paired_t_test(a, b, alpha=0.05) -> PairedTestResult:
    """Two-sided paired Student t-test of a over b.

    'win' means a is significantly larger, 'loss' significantly smaller.
    Zero-variance differences short-circuit: equal means tie, otherwise the
    sign decides.  ``a`` and ``b`` are equal-length finite vectors, n >= 2,
    whose differences a - b have a finite mean and standard deviation in
    float64 (else ValueError: an overflowed statistic gives no verdict).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise ValueError("need two equal-length vectors with n >= 2")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("a and b must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        d = a - b
        mean = float(d.mean())
        sd = float(d.std(ddof=1))
    if not (math.isfinite(mean) and math.isfinite(sd)):
        raise ValueError("a - b overflows: its mean or standard deviation is not finite")
    n = len(d)
    if sd == 0.0:
        if mean == 0.0:
            return PairedTestResult(0.0, 0.0, 1.0, "tie")
        verdict = "win" if mean > 0 else "loss"
        return PairedTestResult(mean, math.inf if mean > 0 else -math.inf, 0.0, verdict)
    t = mean / (sd / math.sqrt(n))
    p = 2.0 * (1.0 - t_cdf(abs(t), n - 1))
    if p >= alpha:
        verdict = "tie"
    else:
        verdict = "win" if mean > 0 else "loss"
    return PairedTestResult(mean, t, p, verdict)


@dataclass(frozen=True)
class LearningCurve:
    """Per-seed metric trajectories for one method on a shared checkpoint grid."""

    method: str
    fractions: tuple
    values: np.ndarray  # (n_seeds, n_checkpoints)

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] != len(self.fractions):
            raise ValueError("values must be (n_seeds, n_checkpoints)")

    @property
    def mean(self):
        return self.values.mean(axis=0)

    @property
    def sd(self):
        return self.values.std(axis=0, ddof=1) if len(self.values) > 1 else np.zeros(
            self.values.shape[1]
        )

    @classmethod
    def from_traces(cls, traces, metric="accuracy"):
        fractions = tuple(cp.fraction for cp in traces[0].checkpoints)
        rows = []
        for trace in traces:
            got = tuple(cp.fraction for cp in trace.checkpoints)
            if got != fractions:
                raise ValueError(
                    f"checkpoint grids differ: {got} vs {fractions}"
                )
            rows.append([getattr(cp, metric) for cp in trace.checkpoints])
        return cls(method=traces[0].method, fractions=fractions,
                   values=np.array(rows, dtype=float))


def _tally(verdicts):
    """(wins, ties, losses) among ``verdicts``."""
    return tuple(sum(v == kind for v in verdicts) for kind in ("win", "tie", "loss"))


@dataclass(frozen=True)
class WinTieLossTable:
    """Verdicts of a target method against baselines, per checkpoint."""

    target: str
    baselines: tuple
    fractions: tuple
    verdicts: list  # [baseline][checkpoint] -> 'win' | 'tie' | 'loss'

    def counts(self):
        """(wins, ties, losses) over every baseline and checkpoint."""
        return _tally([v for row in self.verdicts for v in row])

    def format(self):
        lines = [f"{self.target} vs baselines (win/tie/loss per checkpoint)"]
        header = "baseline".ljust(18) + "".join(
            f"{f:>8.0%}" for f in self.fractions
        ) + "   total"
        lines.append(header)
        for name, row in zip(self.baselines, self.verdicts):
            cells = "".join(f"{v[:1].upper():>8}" for v in row)
            w, t, l = _tally(row)
            lines.append(name.ljust(18) + cells + f"   {w}/{t}/{l}")
        w, t, l = self.counts()
        lines.append(f"IN ALL: {w}/{t}/{l}")
        return "\n".join(lines)


def win_tie_loss(target: LearningCurve, baselines, alpha=0.05) -> WinTieLossTable:
    """Paired-test verdict of the target against each baseline per checkpoint."""
    verdicts = []
    for base in baselines:
        if base.fractions != target.fractions:
            raise ValueError("checkpoint grids must match")
        if base.values.shape[0] != target.values.shape[0]:
            raise ValueError("seed counts must match")
        verdicts.append(
            [
                paired_t_test(target.values[:, j], base.values[:, j], alpha).verdict
                for j in range(len(target.fractions))
            ]
        )
    return WinTieLossTable(
        target=target.method,
        baselines=tuple(b.method for b in baselines),
        fractions=target.fractions,
        verdicts=verdicts,
    )
