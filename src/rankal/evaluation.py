"""Classification metrics, paired t-tests and win/tie/loss tabulation.

The Student-t CDF is implemented from scratch via the regularized incomplete
beta function (modified Lentz continued fraction), so no statistics library
is needed at run time.  Verdicts follow the fixed convention: a comparison
ties when the two-sided p-value is >= alpha, or when the paired differences
have zero variance and zero mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def accuracy(pred, true) -> float:
    pred = np.asarray(pred)
    true = np.asarray(true)
    if pred.shape != true.shape or len(pred) == 0:
        raise ValueError("pred and true must be equal-length, non-empty")
    return float(np.mean(pred == true))


def f1(pred, true, positive_class=1) -> float:
    """Harmonic mean of precision and recall; degenerate cases return 0."""
    pred = np.asarray(pred)
    true = np.asarray(true)
    if pred.shape != true.shape or len(pred) == 0:
        raise ValueError("pred and true must be equal-length, non-empty")
    tp = np.sum((pred == positive_class) & (true == positive_class))
    fp = np.sum((pred == positive_class) & (true != positive_class))
    fn = np.sum((pred != positive_class) & (true == positive_class))
    if tp + fp == 0 or tp + fn == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    if precision + recall == 0:
        return 0.0
    return float(2.0 * precision * recall / (precision + recall))


def auc(scores, true, positive_class=1) -> float:
    """Rank-based (Mann-Whitney) AUC; tied scores contribute 1/2."""
    scores = np.asarray(scores, dtype=float)
    true = np.asarray(true)
    pos = true == positive_class
    n_pos = int(pos.sum())
    n_neg = len(true) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes in the true labels")
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]  # average rank for ties
    rank_sum = ranks[pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _betacf(a, b, x, max_iter=300, eps=3e-14):
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def reg_inc_beta(a, b, x) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x < 0.0 or x > 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0 or x == 1.0:
        return float(x)
    ln_bt = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def t_cdf(t, df) -> float:
    """Student-t cumulative distribution function."""
    if df <= 0:
        raise ValueError("df must be positive")
    x = df / (df + t * t)
    p = 0.5 * reg_inc_beta(df / 2.0, 0.5, x)
    return p if t < 0 else 1.0 - p


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
    sign decides.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise ValueError("need two equal-length vectors with n >= 2")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
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


@dataclass(frozen=True)
class WinTieLossTable:
    """Verdicts of a target method against baselines, per checkpoint."""

    target: str
    baselines: tuple
    fractions: tuple
    verdicts: list  # [baseline][checkpoint] -> 'win' | 'tie' | 'loss'

    def counts(self):
        flat = [v for row in self.verdicts for v in row]
        return (
            sum(v == "win" for v in flat),
            sum(v == "tie" for v in flat),
            sum(v == "loss" for v in flat),
        )

    def format(self):
        lines = [f"{self.target} vs baselines (win/tie/loss per checkpoint)"]
        header = "baseline".ljust(18) + "".join(
            f"{f:>8.0%}" for f in self.fractions
        ) + "   total"
        lines.append(header)
        for name, row in zip(self.baselines, self.verdicts):
            cells = "".join(f"{v[:1].upper():>8}" for v in row)
            w = sum(v == "win" for v in row)
            t = sum(v == "tie" for v in row)
            l = sum(v == "loss" for v in row)
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
            raise ValueError("seed sets must match")
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
