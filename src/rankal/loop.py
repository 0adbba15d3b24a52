"""Query loops: rank-fusion selection plus serial, parallel and random baselines.

Every strategy follows the same skeleton: label an initial batch, then
repeatedly pick N unlabeled samples, reveal their labels, and evaluate the
classifier on the held-out test set whenever the labeled fraction crosses a
checkpoint.  The fused strategy scores the pool under every configured
criterion, turns the score lists into tie-aware rank lists, computes
self-adaptive weights, and feeds everything to the configured aggregator.

``CRITERIA`` is the one table of query criteria; a criterion is added by
adding an entry.  It lives here, not in ``criteria``: its scorers look up
``score_margin`` and the others in this module's namespace when called, so
a wrapper installed on ``rankal.loop.score_margin`` (as the benchmark's
tracer does) sees every call.

``ALConfig`` checks every field when it is built, including the ones a run
only reads later: ``checkpoints`` must be finite, positive, strictly
increasing and at most ``budget``; ``seed`` a non-negative integer; and
``fixed_weights`` and ``serial_layers`` are accepted only with the one
strategy that reads them.  Each error is a ValueError naming the field.

Self-reconstruction (ted) scores depend only on the initial pool, so they
are computed once per run (never for a random run) and sliced per
iteration; a caller that runs several methods on one pool (``rankal run``)
computes them once with ``pool_ted_scores`` and passes them in.  The solve itself works in the
feature-space span of the pool (see ``criteria.solve_ted``).

Each run keeps one ``WarmStart``: the kernel between every pool row and the
labeled rows, and the latest fit on the labeled set.  The loop only appends
labeled rows, so after each ``oracle_label`` the block gains the new rows'
columns from one ``kernel_matrix`` call; the fits take their Gram matrix as
the block's labeled rows, and the margin, diversity and qbc scorers take its
unlabeled rows.  Every fit starts Newton from the latest fit's coefficients
padded with 0 for the new rows.  When the criteria need the committee, its
members (solved on the same labeled set, undrawn rows weighing 0) and the
margin problem share one stacked Newton, and its margin model becomes the
latest fit; otherwise the margin fit is ``WarmStart.fit``, which reuses a
fit on an unchanged labeled set (a checkpoint fit, then the next margin fit)
as it is.  The step functions take the state as ``warm``; a step called
without it uses a throwaway one, so every fit in that step is cold.  The
optimum of each fit is unchanged and the cached kernel entries differ from
recomputed ones only by round-off, so picks move only at near-ties.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import aggregation as agg
from .criteria import normalize_and_rank, score_diversity, score_margin, score_qbc, score_ted
from .data import Dataset, PoolState, oracle_label
from .evaluation import accuracy, auc, f1
from . import learner
from .learner import LearnerConfig, check_int, fit, fit_committee, is_real
from .weighting import blend_weights, bvsb_weight, duplicate_weight

STRATEGIES = ("fused", "serial", "parallel", "random")


@dataclass(frozen=True)
class Criterion:
    """One query criterion of the ``CRITERIA`` table.

    ``committee`` picks the weighting rule: ``duplicate_weight`` when true,
    ``bvsb_weight`` otherwise (it is also the criterion's group in
    ``blend_weights`` and in Markov-chain truncation).  ``needs`` names the
    input the scorer reads beyond the pool: ``"model"`` (the margin fit),
    ``"committee"``, ``"kernel"`` (the kernel between the unlabeled and the
    labeled rows, which every fit reads too), ``"ted"`` (the pool's
    self-reconstruction scores) or None.  ``score`` maps one iteration's
    inputs (``pool``, ``cfg``, ``model``, ``committee``, ``kernel``,
    ``ted``) to one score per unlabeled sample, the most valuable sample
    scoring lowest.
    """

    committee: bool
    needs: str | None
    score: Callable


CRITERIA = {
    "margin": Criterion(False, "model", lambda i: score_margin(
        i.model, i.pool.unlabeled_features, kernel=i.kernel)),
    "diversity": Criterion(False, "kernel", lambda i: score_diversity(
        i.pool.labeled_features, i.pool.unlabeled_features, i.cfg.learner,
        reduce=i.cfg.diversity_reduce, kernel=i.kernel)),
    "qbc": Criterion(True, "committee", lambda i: score_qbc(
        i.committee, i.pool.unlabeled_features, kernel=i.kernel)),
    "ted": Criterion(False, "ted", lambda i: i.ted[i.pool.unlabeled_idx]),
    "random": Criterion(False, None, lambda i: _rng(i.cfg, 910, i.pool.iteration).random(
        i.pool.n_unlabeled)),
}


@dataclass(frozen=True)
class ALConfig:
    criteria: tuple = ("diversity", "margin", "qbc")
    aggregator: str = "mc2"
    strategy: str = "fused"
    n_select: int = 1
    initial_batch: str = "ted"  # ted | random
    n_initial: int = 4
    budget: float = 0.3
    checkpoints: tuple = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
    tun1: float = 0.05
    tun2: int = 5
    p: float = 1.0
    g: int = 5
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    seed: int = 0
    diversity_reduce: str = "max"
    ted_lambda: float = 0.1
    serial_layers: tuple | None = None
    fixed_weights: tuple | None = None
    name: str = ""

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.aggregator not in agg.METHODS:
            raise ValueError(f"aggregator must be one of {agg.METHODS}")
        check_int("n_select", self.n_select, 1)
        check_int("n_initial", self.n_initial, 2)
        check_int("tun2", self.tun2, 0)
        check_int("g", self.g, 2)
        if not (is_real(self.budget) and 0.0 < self.budget <= 1.0):
            raise ValueError("budget must lie in (0, 1]")
        if not (is_real(self.tun1) and 0.0 < self.tun1 < 1.0):
            raise ValueError("tun1 must lie in (0, 1)")
        if not (is_real(self.p) and self.p >= 1.0):
            raise ValueError("p must be a finite number >= 1")
        if not (is_real(self.ted_lambda) and self.ted_lambda > 0.0):
            raise ValueError("ted_lambda must be a positive finite number")
        if self.initial_batch not in ("ted", "random"):
            raise ValueError("initial_batch must be 'ted' or 'random'")
        if self.diversity_reduce not in ("max", "min"):
            raise ValueError("diversity_reduce must be 'max' or 'min'")
        if not isinstance(self.name, str):
            raise ValueError("name must be a string")
        if not self.criteria:
            raise ValueError("criteria must name at least one criterion")
        for c in self.criteria:
            if c not in CRITERIA:
                raise ValueError(f"unknown criterion {c!r}")
        if self.strategy == "parallel" and self.fixed_weights is None:
            raise ValueError("parallel strategy requires fixed_weights")
        for key, strategy in (("serial_layers", "serial"), ("fixed_weights", "parallel")):
            if getattr(self, key) is not None and self.strategy != strategy:
                raise ValueError(f"{key} applies only to strategy {strategy!r}")
        if self.serial_layers is not None:
            layers = self.serial_layers
            for size in layers:
                check_int("each serial layer size", size, 1)
            if len(layers) != len(self.criteria):
                raise ValueError("serial_layers must give one size per criterion")
            if any(b > a for a, b in zip(layers, layers[1:])):
                raise ValueError(f"serial layer sizes must be non-increasing: {list(layers)}")
            if layers[-1] != self.n_select:
                raise ValueError("last serial layer size must equal n_select")
        w = self.fixed_weights
        if w is not None and (len(w) != len(self.criteria)
                              or not all(is_real(v) and v >= 0 for v in w) or sum(w) <= 0):
            raise ValueError(
                "fixed_weights must be finite, non-negative, not all zero, "
                "one per criterion"
            )
        check_int("seed", self.seed, 0)
        points = (0.0, *self.checkpoints)  # the leading 0 makes "increasing" imply "> 0"
        if not (all(map(is_real, points)) and all(a < b for a, b in zip(points, points[1:]))):
            raise ValueError("checkpoints must be finite, positive and strictly increasing")
        if points[-1] > self.budget:
            raise ValueError(f"checkpoint {points[-1]:g} exceeds budget {self.budget:g} "
                             "and would never be reached")

    @property
    def label(self):
        return self.name or f"{self.strategy}-{self.aggregator}"


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    selected: tuple
    weights: dict


@dataclass(frozen=True)
class CheckpointRecord:
    fraction: float
    n_labeled: int
    accuracy: float
    f1: float
    auc: float


@dataclass(frozen=True)
class RunTrace:
    method: str
    seed: int
    iterations: tuple
    checkpoints: tuple


def _rng(cfg, *stream):
    return np.random.default_rng((cfg.seed,) + stream)


def pool_ted_scores(pool: PoolState, cfg: ALConfig):
    """Self-reconstruction scores over the full pool, or None if the run uses none.

    A random run reads no criterion and draws its initial batch at random.
    """
    if cfg.strategy != "random" and (cfg.initial_batch == "ted" or any(
            CRITERIA[name].needs == "ted" for name in cfg.criteria)):
        return score_ted(pool.data.features, lam=cfg.ted_lambda)
    return None


class WarmStart:
    """One run's kernel block and latest fit, kept up to date with its labeled set.

    ``block`` is the n_pool x n_labeled kernel between every pool row and
    the labeled rows, in ``labeled_idx`` order.  The loop only appends to
    ``labeled_idx``, so bringing the block up to date costs one
    ``kernel_matrix`` call for the rows labeled since, and the latest fit's
    dual coefficients, padded with 0 for those rows, start the next fit's
    Newton solve; a fit asked for on an unchanged labeled set (the
    checkpoint fit, then the next margin fit) is returned as it is.  A
    labeled set that does not extend the last one, another pool or another
    learner config rebuilds the block and fits cold.  Holds no randomness,
    so a seeded run stays deterministic.
    """

    def __init__(self):
        self.data = None
        self.config = None
        self.labeled_idx = np.empty(0, dtype=int)
        self.block = None
        self.model = None

    def kernel(self, pool: PoolState, config: LearnerConfig):
        """The kernel block between the pool and ``pool``'s labeled rows."""
        idx, prev = pool.labeled_idx, self.labeled_idx
        x = pool.data.features
        # learner.kernel_matrix, looked up per call, is the name a tracer wraps
        if not (pool.data is self.data and config == self.config
                and np.array_equal(idx[:len(prev)], prev)):
            self.data, self.config, self.model = pool.data, config, None
            self.block = learner.kernel_matrix(config, x, x[idx])
        elif len(idx) > len(prev):
            new = learner.kernel_matrix(config, x, x[idx[len(prev):]])
            self.block = np.concatenate([self.block, new], axis=1)
        self.labeled_idx = idx
        return self.block

    def start(self, n):
        """The latest fit's (alpha, intercept) padded with 0 to ``n`` rows; None if none."""
        model = self.model
        if model is None:
            return None
        alpha = np.zeros(n)
        alpha[:len(model.dual_coeffs)] = model.dual_coeffs
        return alpha, model.intercept

    def fit(self, pool: PoolState, cfg: ALConfig):
        """The model fitted on ``pool``'s labeled set."""
        block = self.kernel(pool, cfg.learner)
        n, model = pool.n_labeled, self.model
        if model is not None and len(model.dual_coeffs) == n:
            return model
        self.model = fit(cfg.learner, pool.labeled_features, pool.labeled_labels,
                         init=self.start(n), gram=block[pool.labeled_idx])
        return self.model


def _inputs(pool, cfg, ted_scores, warm=None):
    """The scorers' inputs: the fits and the kernel that the configured criteria need.

    ``warm`` is the run's ``WarmStart``; without one a throwaway one is
    used.  When a criterion needs the committee, one stacked Newton solves
    its members and the margin problem (``Committee.model``), which becomes
    the run's latest fit; otherwise the margin model, if a criterion needs
    it, is ``WarmStart.fit``.  ``kernel`` is the block's unlabeled rows, or
    None when no criterion reads the kernel or a fit.
    """
    warm = WarmStart() if warm is None else warm
    needs = {CRITERIA[name].needs for name in cfg.criteria}
    model = committee = kernel = None
    if needs & {"model", "committee", "kernel"}:
        block = warm.kernel(pool, cfg.learner)
        kernel = block[pool.unlabeled_idx]
    if "committee" in needs:
        committee = fit_committee(
            cfg.learner, pool.labeled_features, pool.labeled_labels,
            g=cfg.g, seed=(cfg.seed, pool.iteration), init=warm.start(pool.n_labeled),
            gram=block[pool.labeled_idx],
        )
        model = warm.model = committee.model
    elif "model" in needs:
        model = warm.fit(pool, cfg)
    return SimpleNamespace(pool=pool, cfg=cfg, model=model, committee=committee,
                           kernel=kernel, ted=ted_scores)


def criterion_scores(pool: PoolState, cfg: ALConfig, ted_scores, warm=None):
    """Every configured criterion's scores on the unlabeled pool, in config order."""
    inputs = _inputs(pool, cfg, ted_scores, warm)
    return [CRITERIA[name].score(inputs) for name in cfg.criteria]


def top_positions(scores, k):
    """Positions of the k lowest scores, ties broken by ascending position."""
    return np.argsort(scores, kind="stable")[:k]


def _fuse(pool: PoolState, cfg: ALConfig, scores):
    """Rank, weight and aggregate one iteration's criterion scores.

    Returns (ranking, weights, rank lists): the ``AggregatedRanking`` of the
    unlabeled pool, the ``WeightVector`` and the (L, n_unlabeled) ranks.
    """
    n_batch = min(cfg.n_select, pool.n_unlabeled)
    flags = [CRITERIA[name].committee for name in cfg.criteria]
    rank_rows, raw_weights = [], []
    for s, committee_based in zip(scores, flags):
        normalized, ranks = normalize_and_rank(s)
        if pool.n_unlabeled > n_batch:
            weight = duplicate_weight if committee_based else bvsb_weight
            raw = weight(normalized.sorted_values, n_batch)
        else:
            raw = 0.0  # final batch drains the pool; weights are moot
        rank_rows.append(ranks)
        raw_weights.append(raw)

    wv = blend_weights(raw_weights, flags)
    rank_lists = np.array(rank_rows, dtype=float)
    ranking = agg.aggregate(
        cfg.aggregator, rank_lists, wv.weights,
        ids=pool.unlabeled_idx, n_select=n_batch, tun1=cfg.tun1, tun2=cfg.tun2,
        p=cfg.p, committee_flags=np.array(flags),
    )
    return ranking, wv, rank_lists


def fused_step(pool: PoolState, cfg: ALConfig, ted_scores, warm=None):
    """One aggregation-driven selection: returns (batch, weights).

    ``warm`` is the run's ``WarmStart``; None fits every model cold.
    """
    ranking, wv, _ = _fuse(pool, cfg, criterion_scores(pool, cfg, ted_scores, warm))
    return ranking.top(min(cfg.n_select, pool.n_unlabeled)), wv


def _serial_layer_sizes(cfg, n_unlabeled):
    if cfg.serial_layers is not None:
        sizes = list(cfg.serial_layers)
    else:
        total = len(cfg.criteria)
        sizes = [
            max(cfg.n_select, math.ceil(n_unlabeled * 0.1 ** ((k + 1) / total)))
            for k in range(total)
        ]
        sizes[-1] = cfg.n_select
    # ALConfig checks the given sizes; no layer keeps more than the pool holds
    return [min(size, n_unlabeled) for size in sizes]


def serial_step(pool: PoolState, cfg: ALConfig, ted_scores, warm=None):
    """Multi-layer filtering: each criterion keeps its top slice of survivors."""
    sizes = _serial_layer_sizes(cfg, pool.n_unlabeled)
    survivors = np.arange(pool.n_unlabeled)
    for scores, size in zip(criterion_scores(pool, cfg, ted_scores, warm), sizes):
        survivors = survivors[top_positions(scores[survivors], min(size, len(survivors)))]
    return pool.unlabeled_idx[survivors]


def parallel_step(pool: PoolState, cfg: ALConfig, ted_scores, warm=None):
    """Fixed-weight sum of normalized score lists; lowest total wins."""
    w = np.asarray(cfg.fixed_weights, dtype=float)
    total = np.zeros(pool.n_unlabeled)
    for scores, wk in zip(criterion_scores(pool, cfg, ted_scores, warm), w):
        total += wk * normalize_and_rank(scores)[0].values
    n_batch = min(cfg.n_select, pool.n_unlabeled)
    return pool.unlabeled_idx[top_positions(total, n_batch)]


def random_step(pool: PoolState, cfg: ALConfig, ted_scores, warm=None):
    """Uniform draw without replacement from the unlabeled pool (fits nothing)."""
    n_batch = min(cfg.n_select, pool.n_unlabeled)
    return _rng(cfg, 2, pool.iteration).choice(
        pool.unlabeled_idx, size=n_batch, replace=False
    )


def initial_batch(pool: PoolState, cfg: ALConfig, ted_scores) -> PoolState:
    """Label the starting batch; top up randomly until both classes appear.

    Top-up draws go on until the second class turns up or the pool runs
    out, so a pool with both classes always yields a two-class start.
    """
    if pool.n_unlabeled < cfg.n_initial:
        raise ValueError("pool smaller than the initial batch")
    rng = _rng(cfg, 1)
    if cfg.initial_batch == "ted" and cfg.strategy != "random":
        scores = ted_scores[pool.unlabeled_idx]
        batch = pool.unlabeled_idx[top_positions(scores, cfg.n_initial)]
    else:
        batch = rng.choice(pool.unlabeled_idx, size=cfg.n_initial, replace=False)
    state = oracle_label(pool, batch)
    while len(np.unique(state.labeled_labels)) < 2 and state.n_unlabeled > 0:
        extra = rng.choice(state.unlabeled_idx, size=1, replace=False)
        state = oracle_label(state, extra)
    if len(np.unique(state.labeled_labels)) < 2:
        raise RuntimeError(
            "could not assemble a two-class initial labeled set "
            f"(all {state.n_labeled} pool labels are one class)"
        )
    return state


def _evaluate(pool: PoolState, test: Dataset, cfg: ALConfig, warm: WarmStart):
    model = warm.fit(pool, cfg)
    p_pos = model.predict_proba(test.features)
    preds = np.where(p_pos >= 0.5, 1, -1)
    return (
        accuracy(preds, test.labels),
        f1(preds, test.labels),
        auc(p_pos, test.labels),
    )


def run_active_learning(pool: PoolState, test: Dataset, cfg: ALConfig,
                        ted_scores=None) -> RunTrace:
    """Run one seeded query loop to the budget; returns the full trace.

    ``ted_scores`` are ``pool_ted_scores(pool, cfg)`` when the caller already
    has them; by default they are computed here.
    """
    if ted_scores is None:
        ted_scores = pool_ted_scores(pool, cfg)
    n_pool = len(pool.data)
    target = math.ceil(cfg.budget * n_pool)
    state = initial_batch(pool, cfg, ted_scores)
    warm = WarmStart()

    iterations = []
    cp_records = []
    next_cp = 0

    def note_checkpoints(state):
        nonlocal next_cp
        while next_cp < len(cfg.checkpoints) and state.n_labeled >= math.ceil(
            cfg.checkpoints[next_cp] * n_pool
        ):
            acc, f1v, aucv = _evaluate(state, test, cfg, warm)
            cp_records.append(
                CheckpointRecord(
                    fraction=cfg.checkpoints[next_cp],
                    n_labeled=state.n_labeled,
                    accuracy=acc, f1=f1v, auc=aucv,
                )
            )
            next_cp += 1

    note_checkpoints(state)
    while state.n_labeled < target and state.n_unlabeled > 0:
        weights = {}
        if state.n_unlabeled <= cfg.n_select:
            batch = state.unlabeled_idx  # drain the pool; nothing to rank
        elif cfg.strategy == "fused":
            batch, wv = fused_step(state, cfg, ted_scores, warm=warm)
            weights = dict(zip(cfg.criteria, wv.weights.tolist()))
        else:
            # looked up per call so that a wrapped module attribute takes effect
            step = {"serial": serial_step, "parallel": parallel_step, "random": random_step}
            batch = step[cfg.strategy](state, cfg, ted_scores, warm=warm)
        state = oracle_label(state, batch)
        iterations.append(
            IterationRecord(
                iteration=state.iteration,
                selected=tuple(state.data.ids[np.asarray(batch)].tolist()),
                weights=weights,
            )
        )
        note_checkpoints(state)

    return RunTrace(
        method=cfg.label, seed=cfg.seed,
        iterations=tuple(iterations), checkpoints=tuple(cp_records),
    )
