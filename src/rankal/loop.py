"""Query loops: rank-fusion selection plus serial, parallel and random baselines.

Every strategy follows the same skeleton: label an initial batch, then
repeatedly pick N unlabeled samples, reveal their labels, and evaluate the
classifier on the held-out test set whenever the labeled fraction crosses a
checkpoint.  The fused strategy scores the pool under every configured
criterion, turns the score lists into tie-aware rank lists, computes
self-adaptive weights, and feeds everything to the configured aggregator.

Self-reconstruction (ted) scores depend only on the initial pool, so they
are computed once per run and sliced per iteration; a caller that runs
several methods on one pool (``rankal run``) computes them once with
``pool_ted_scores`` and passes them in.  The solve itself works in the
feature-space span of the pool (see ``criteria.solve_ted``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import aggregation as agg
from .criteria import (
    is_committee,
    normalize_and_rank,
    score_diversity,
    score_margin,
    score_qbc,
    score_random,
    score_ted,
)
from .data import Dataset, PoolState, oracle_label
from .evaluation import accuracy, auc, f1
from .learner import LearnerConfig, fit, fit_committee
from .weighting import blend_weights, bvsb_weight, duplicate_weight

STRATEGIES = ("fused", "serial", "parallel", "random")


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
        if self.n_select < 1:
            raise ValueError("n_select must be >= 1")
        if self.n_initial < 2:
            raise ValueError("n_initial must be >= 2")
        if not 0.0 < self.budget <= 1.0:
            raise ValueError("budget must lie in (0, 1]")
        if self.initial_batch not in ("ted", "random"):
            raise ValueError("initial_batch must be 'ted' or 'random'")
        for c in self.criteria:
            is_committee(c)

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
    """Self-reconstruction scores over the full pool, or None if the run uses none."""
    if "ted" in cfg.criteria or (cfg.strategy != "random" and cfg.initial_batch == "ted"):
        return score_ted(pool.data.features, lam=cfg.ted_lambda)
    return None


def _criterion_scores(name, pool, cfg, ted_scores, model=None, committee=None):
    if name == "margin":
        return score_margin(model, pool.unlabeled_features)
    if name == "diversity":
        return score_diversity(
            pool.labeled_features, pool.unlabeled_features,
            cfg.learner, reduce=cfg.diversity_reduce,
        )
    if name == "qbc":
        return score_qbc(committee, pool.unlabeled_features)
    if name == "ted":
        return ted_scores[pool.unlabeled_idx]
    if name == "random":
        return score_random(pool.n_unlabeled, _rng(cfg, 910, pool.iteration))
    raise ValueError(f"unknown criterion {name!r}")


def _fit_needed(pool, cfg, t):
    model = committee = None
    if "margin" in cfg.criteria:
        model = fit(cfg.learner, pool.labeled_features, pool.labeled_labels)
    if "qbc" in cfg.criteria:
        committee = fit_committee(
            cfg.learner, pool.labeled_features, pool.labeled_labels,
            g=cfg.g, seed=(cfg.seed, t),
        )
    return model, committee


def top_positions(scores, k):
    """Positions of the k lowest scores, ties broken by ascending position."""
    order = np.lexsort((np.arange(len(scores)), scores))
    return order[:k]


def fused_step(pool: PoolState, cfg: ALConfig, ted_scores):
    """One aggregation-driven selection: returns (batch, weights, ranking)."""
    n_batch = min(cfg.n_select, pool.n_unlabeled)
    model, committee = _fit_needed(pool, cfg, pool.iteration)

    rank_rows, raw_weights, flags = [], [], []
    for name in cfg.criteria:
        scores = _criterion_scores(name, pool, cfg, ted_scores, model, committee)
        normalized, ranks = normalize_and_rank(scores)
        committee_based = is_committee(name)
        sorted_vals = normalized.sorted_values
        if pool.n_unlabeled > n_batch:
            raw = (
                duplicate_weight(sorted_vals, n_batch)
                if committee_based
                else bvsb_weight(sorted_vals, n_batch)
            )
        else:
            raw = 0.0  # final batch drains the pool; weights are moot
        rank_rows.append(ranks)
        raw_weights.append(raw)
        flags.append(committee_based)

    wv = blend_weights(raw_weights, flags)
    ranking = agg.aggregate(
        cfg.aggregator, np.array(rank_rows, dtype=float), wv.weights,
        ids=pool.unlabeled_idx, n_select=n_batch, tun1=cfg.tun1, tun2=cfg.tun2,
        p=cfg.p, committee_flags=np.array(flags),
    )
    return ranking.top(n_batch), wv, ranking


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
    if sizes[0] > n_unlabeled:
        sizes[0] = n_unlabeled
    for a, b in zip(sizes, sizes[1:]):
        if b > a:
            raise ValueError(f"serial layer sizes must be non-increasing: {sizes}")
    if sizes[-1] != cfg.n_select:
        raise ValueError("last serial layer size must equal n_select")
    return sizes


def serial_step(pool: PoolState, cfg: ALConfig, ted_scores):
    """Multi-layer filtering: each criterion keeps its top slice of survivors."""
    model, committee = _fit_needed(pool, cfg, pool.iteration)
    sizes = _serial_layer_sizes(cfg, pool.n_unlabeled)
    survivors = np.arange(pool.n_unlabeled)
    for name, size in zip(cfg.criteria, sizes):
        scores = _criterion_scores(name, pool, cfg, ted_scores, model, committee)
        scores = scores[survivors]
        survivors = survivors[top_positions(scores, min(size, len(survivors)))]
    return pool.unlabeled_idx[survivors]


def parallel_step(pool: PoolState, cfg: ALConfig, ted_scores):
    """Fixed-weight sum of normalized score lists; lowest total wins."""
    if cfg.fixed_weights is None:
        raise ValueError("parallel strategy requires fixed_weights")
    w = np.asarray(cfg.fixed_weights, dtype=float)
    if len(w) != len(cfg.criteria) or np.any(w < 0) or w.sum() <= 0:
        raise ValueError("fixed_weights must be non-negative, not all zero, one per criterion")
    model, committee = _fit_needed(pool, cfg, pool.iteration)
    total = np.zeros(pool.n_unlabeled)
    for name, wk in zip(cfg.criteria, w):
        scores = _criterion_scores(name, pool, cfg, ted_scores, model, committee)
        total += wk * normalize_and_rank(scores)[0].values
    n_batch = min(cfg.n_select, pool.n_unlabeled)
    return pool.unlabeled_idx[top_positions(total, n_batch)]


def random_step(pool: PoolState, cfg: ALConfig, ted_scores):
    """Uniform draw without replacement from the unlabeled pool."""
    n_batch = min(cfg.n_select, pool.n_unlabeled)
    return _rng(cfg, 2, pool.iteration).choice(
        pool.unlabeled_idx, size=n_batch, replace=False
    )


def initial_batch(pool: PoolState, cfg: ALConfig, ted_scores) -> PoolState:
    """Label the starting batch; top up randomly until both classes appear."""
    if pool.n_unlabeled < cfg.n_initial:
        raise ValueError("pool smaller than the initial batch")
    rng = _rng(cfg, 1)
    if cfg.initial_batch == "ted" and cfg.strategy != "random":
        scores = ted_scores[pool.unlabeled_idx]
        batch = pool.unlabeled_idx[top_positions(scores, cfg.n_initial)]
    else:
        batch = rng.choice(pool.unlabeled_idx, size=cfg.n_initial, replace=False)
    state = oracle_label(pool, batch)
    for _ in range(10):
        if len(np.unique(state.labeled_labels)) == 2 or state.n_unlabeled == 0:
            break
        extra = rng.choice(state.unlabeled_idx, size=1, replace=False)
        state = oracle_label(state, extra)
    if len(np.unique(state.labeled_labels)) < 2:
        raise RuntimeError(
            "could not assemble a two-class initial labeled set "
            f"({state.n_labeled} labels drawn, pool exhausted or capped)"
        )
    return state


def _evaluate(pool: PoolState, test: Dataset, cfg: ALConfig):
    model = fit(cfg.learner, pool.labeled_features, pool.labeled_labels)
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
    checkpoints = sorted(cfg.checkpoints)
    state = initial_batch(pool, cfg, ted_scores)

    iterations = []
    cp_records = []
    next_cp = 0

    def note_checkpoints(state):
        nonlocal next_cp
        while next_cp < len(checkpoints) and state.n_labeled >= math.ceil(
            checkpoints[next_cp] * n_pool
        ):
            acc, f1v, aucv = _evaluate(state, test, cfg)
            cp_records.append(
                CheckpointRecord(
                    fraction=checkpoints[next_cp],
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
            batch, wv, _ = fused_step(state, cfg, ted_scores)
            weights = dict(zip(cfg.criteria, wv.weights.tolist()))
        else:
            # looked up per call so that a wrapped module attribute takes effect
            step = {"serial": serial_step, "parallel": parallel_step, "random": random_step}
            batch = step[cfg.strategy](state, cfg, ted_scores)
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
