"""Query loops: rank-fusion selection plus serial, parallel and random baselines.

Every strategy follows the same skeleton: label an initial batch, then
repeatedly pick N unlabeled samples, reveal their labels, and evaluate the
classifier on the held-out test set whenever the labeled fraction crosses a
checkpoint.  The fused strategy scores the pool under every configured
criterion, normalizes the score lists, computes self-adaptive weights from
them, and feeds everything to the configured aggregator.  ``_fuse``
dispatches once on the aggregator family: the Borda fusions and Bucklin
read competition ranks (``normalize_and_rank``) through
``aggregation.aggregate``; the Markov chains read the normalized values
(``normalize_scores``), which order each list as its ranks do, through
``aggregation.markov_from_values``, which ranks nothing and repeats none of
the checks that ``ALConfig`` and ``blend_weights`` made.

Each strategy is one step function, ``<strategy>_step(pool, cfg, ted_scores,
warm=None)``, returning ``(batch, weights)``: the pool indices to label and
the ``{criterion: blended weight}`` dict recorded in ``IterationRecord``
(``{}`` for every strategy but fused).  ``run_active_learning`` makes the one
drain decision: when at most ``n_select`` samples remain unlabeled it labels
them all, with weights ``{}``, and calls no step; so a step is only ever
called with ``pool.n_unlabeled > cfg.n_select``.

``CRITERIA`` is the one table of query criteria; a criterion is added by
adding an entry.  It lives here, not in ``criteria``: its scorers look up
``score_margin`` and the others in this module's namespace when called, so
a wrapper installed on ``rankal.loop.score_margin`` (as the benchmark's
tracer does) sees every call.

``ALConfig`` checks every field when it is built, including the ones a run
only reads later: ``checkpoints`` must be finite, positive, strictly
increasing and at most ``budget``; ``seed`` a non-negative integer; and
``fixed_weights`` and ``serial_layers`` are accepted only with the one
strategy that reads them.  The aggregation options (``n_select``,
``tun1``, ``tun2``, ``p``) are checked by ``aggregation.check_options``,
the one statement of their ranges; the other fields by the rules of
``rankal.checks``: the names (``strategy``, ``aggregator``,
``initial_batch``, ``diversity_reduce``, each criterion) by
``check_choice``, ``budget`` and ``ted_lambda`` by ``check_real`` and
``fixed_weights`` by ``check_weights`` (one per criterion).  Each error is
a ValueError naming the field.

Self-reconstruction (ted) scores depend only on the initial pool, so they
are computed once per run (never for a random run) and sliced per
iteration; a caller that runs several methods on one pool (``rankal run``)
computes them once with ``pool_ted_scores`` and passes them in.  The solve itself works in the
feature-space span of the pool (see ``criteria.solve_ted``).

Each run keeps one ``WarmStart``: the kernel between every pool row and the
labeled rows, and the latest fit and committee on the labeled set.  The
block is a view of a buffer whose column capacity doubles as the labeled set
grows.  The loop only appends labeled rows, so after each ``oracle_label``
the new rows' columns come from one ``kernel_matrix`` call, written into the
buffer in place, once per labeled set; the fits take their Gram matrix as
the block's labeled rows, and the margin, diversity and qbc scorers take its
unlabeled rows.  Every fit of a run, margin, committee or checkpoint, is one
call of ``WarmStart.fit``, which alone decides reuse and builds each Newton
start.  When the criteria need the committee, its members (solved on the
same labeled set, undrawn rows weighing 0) and the margin problem share one
stacked Newton, and its margin model becomes the latest fit.  The members'
draw counts come from one stream per run, ``(seed, 3)``, so a labeled row
keeps its counts as the set grows (online bagging, see ``rankal.learner``);
the ``WarmStart`` keeps the stream's generator and the counts drawn so far,
so a committee fit draws only the rows labeled since the last one.  The
margin row starts from the latest fit and each member from its own last fit,
padded with 0 for the new rows; a margin-only fit on an unchanged labeled
set (a checkpoint fit, then the next margin fit) is reused as it is.  The
step functions take the state as ``warm``; a step called without it uses a
throwaway one, so every fit in that step is cold.  The optimum of each fit
is unchanged and the cached kernel entries differ from recomputed ones only
by round-off, so picks move only at near-ties.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import aggregation as agg
from .checks import check_choice, check_int, check_real, check_weights, is_real
from .criteria import (DIVERSITY_REDUCE, normalize_and_rank, normalize_scores, score_diversity,
                       score_margin, score_qbc, score_ted)
from .data import Dataset, PoolState, oracle_label
from .evaluation import accuracy, auc, f1
from . import learner
from .learner import LearnerConfig, fit, fit_committee, posterior
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
    ``unlabeled``, the unlabeled rows' features, and ``ted``) to one score
    per unlabeled sample, the most valuable sample scoring lowest.
    """

    committee: bool
    needs: str | None
    score: Callable


CRITERIA = {
    "margin": Criterion(False, "model", lambda i: score_margin(
        i.model, i.unlabeled, kernel=i.kernel)),
    "diversity": Criterion(False, "kernel", lambda i: score_diversity(
        i.pool.labeled_features, i.unlabeled, i.cfg.learner,
        reduce=i.cfg.diversity_reduce, kernel=i.kernel)),
    "qbc": Criterion(True, "committee", lambda i: score_qbc(
        i.committee, i.unlabeled, kernel=i.kernel)),
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
        check_choice("strategy", self.strategy, STRATEGIES)
        check_choice("aggregator", self.aggregator, agg.METHODS)
        agg.check_options(self.n_select, self.tun1, self.tun2, self.p)
        check_int("n_initial", self.n_initial, 2)
        check_int("g", self.g, 2)
        check_real("budget", self.budget, 0, 1, open_low=True)
        check_real("ted_lambda", self.ted_lambda, 0, open_low=True)
        check_choice("initial_batch", self.initial_batch, ("ted", "random"))
        check_choice("diversity_reduce", self.diversity_reduce, DIVERSITY_REDUCE)
        if not isinstance(self.name, str):
            raise ValueError("name must be a string")
        if not self.criteria:
            raise ValueError("criteria must name at least one criterion")
        for c in self.criteria:
            check_choice("each criterion", c, CRITERIA)
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
        if self.fixed_weights is not None:
            check_weights("fixed_weights", self.fixed_weights, len(self.criteria), "criterion")
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
    """One run's kernel block, latest fit and latest committee, kept up to date.

    The block is the n_pool x n_labeled kernel between every pool row and
    the labeled rows, in ``labeled_idx`` order: the view ``buf[:, :n_labeled]``
    of a buffer whose column capacity doubles whenever the labeled set
    outgrows it.  The loop only appends to ``labeled_idx``, so bringing the
    block up to date costs one ``kernel_matrix`` call for the rows labeled
    since, written into the buffer in place; a second request for the same
    ``labeled_idx`` array returns the block as it is, since a ``PoolState``
    is immutable and ``oracle_label`` makes a new index array.  ``fit``
    makes every fit of the run from the block's labeled rows, warm-started
    from the latest fit and committee.  A labeled set that does not extend the last one, another
    pool or another learner config starts a new buffer and fits cold.

    It also keeps the run's bagging stream: the generator seeded ``(seed,
    3)`` and the (g, n) draw counts of the rows it has drawn so far, so a
    committee fit draws only the rows labeled since the last one.  A row's
    counts depend only on the seed and its position (see ``draw_counts``),
    so the stream outlives a new buffer and a seeded run stays
    deterministic.
    """

    def __init__(self):
        self.data = None
        self.config = None
        self.labeled_idx = np.empty(0, dtype=int)
        self.buf = None
        self.model = None
        self.committee = None
        self.stream = self.rng = self.counts = None  # bagging stream: (seed, g), generator, draws

    def draw_counts(self, n, seed, g):
        """(g, n) bagging counts of the first n labeled rows: ``learner._draw_counts(n, g, seed)``.

        Draws from the stream only the rows past those drawn so far.
        """
        if self.stream != (seed, g):
            self.stream, self.rng = (seed, g), np.random.default_rng(seed)
            self.counts = np.empty((g, 0))
        m = self.counts.shape[1]
        if n > m:
            self.counts = np.concatenate([self.counts, learner.draw_rows(self.rng, n - m, g)], 1)
        return self.counts[:, :n]

    def kernel(self, pool: PoolState, config: LearnerConfig):
        """The kernel block between the pool and ``pool``'s labeled rows."""
        idx, m = pool.labeled_idx, len(self.labeled_idx)
        same = pool.data is self.data and config == self.config
        if same and idx is self.labeled_idx:
            return self.buf[:, :m]  # already up to date: a PoolState is immutable
        x = pool.data.features
        # learner.kernel_matrix, looked up per call, is the name a tracer wraps
        if not (same and np.array_equal(idx[:m], self.labeled_idx)):
            self.data, self.config, self.model, self.committee = pool.data, config, None, None
            self.buf = learner.kernel_matrix(config, x, x[idx])
        elif len(idx) > m:
            new = learner.kernel_matrix(config, x, x[idx[m:]])
            if len(idx) > self.buf.shape[1]:
                grown = np.empty((len(x), max(len(idx), 2 * self.buf.shape[1])))
                grown[:, :m] = self.buf[:, :m]
                self.buf = grown
            self.buf[:, m:len(idx)] = new
        self.labeled_idx = idx
        return self.buf[:, :len(idx)]

    def fit(self, pool: PoolState, cfg: ALConfig, g=0):
        """The model fitted on ``pool``'s labeled set; with ``g``, also a g-member committee.

        With ``g`` one stacked Newton solves the margin problem and the
        committee (``fit_committee``, on the draw counts of the run's one
        stream ``(cfg.seed, 3)``), kept as ``self.committee``; its margin model
        is returned.  Without, a fit on an unchanged labeled set is returned
        as it is.  Row 0 starts from the latest fit, member j from member j
        of the latest g-member committee (else from the latest fit), each
        padded with 0; with no fit yet every row starts cold.
        """
        block = self.kernel(pool, cfg.learner)
        n, model, committee = pool.n_labeled, self.model, self.committee
        if not g and model is not None and len(model.dual_coeffs) == n:
            return model
        init = None
        if model is not None:
            alpha, intercept = np.zeros((g + 1, n)), np.full(g + 1, model.intercept)
            own = g and committee is not None and len(committee.coeffs) == g
            alpha[:1 if own else None, :len(model.dual_coeffs)] = model.dual_coeffs
            if own:
                alpha[1:, :committee.coeffs.shape[1]] = committee.coeffs
                intercept[1:] = committee.intercepts
            init = alpha, intercept
        args = cfg.learner, pool.labeled_features, pool.labeled_labels
        if g:
            self.committee = fit_committee(*args, g=g, init=init, gram=block[pool.labeled_idx],
                                           counts=self.draw_counts(n, (cfg.seed, 3), g))
            self.model = self.committee.model
        else:
            self.model = fit(*args, init=init, gram=block[pool.labeled_idx])
        return self.model


def _inputs(pool, cfg, ted_scores, warm=None):
    """The scorers' inputs: the fits and the kernel that the configured criteria need.

    ``warm`` is the run's ``WarmStart``; without one a throwaway one is
    used.  The fits are one ``WarmStart.fit``, with the committee when a
    criterion needs it.  ``kernel`` is the block's unlabeled rows and
    ``unlabeled`` their features, gathered once for every scorer; both are
    None when no criterion reads the kernel or a fit.
    """
    warm = WarmStart() if warm is None else warm
    needs = {CRITERIA[name].needs for name in cfg.criteria}
    model = committee = kernel = unlabeled = None
    if needs & {"model", "committee", "kernel"}:
        kernel = warm.kernel(pool, cfg.learner)[pool.unlabeled_idx]
        unlabeled = pool.unlabeled_features
    if needs & {"model", "committee"}:
        model = warm.fit(pool, cfg, cfg.g if "committee" in needs else 0)
        committee = warm.committee if "committee" in needs else None
    return SimpleNamespace(pool=pool, cfg=cfg, model=model, committee=committee,
                           kernel=kernel, unlabeled=unlabeled, ted=ted_scores)


def criterion_scores(pool: PoolState, cfg: ALConfig, ted_scores, warm=None):
    """Every configured criterion's scores on the unlabeled pool, in config order."""
    inputs = _inputs(pool, cfg, ted_scores, warm)
    return [CRITERIA[name].score(inputs) for name in cfg.criteria]


def top_positions(scores, k):
    """Positions of the k lowest scores, ties broken by ascending position."""
    return np.argsort(scores, kind="stable")[:k]


def _fuse(pool: PoolState, cfg: ALConfig, scores):
    """Normalize, weight and aggregate one iteration's criterion scores.

    Returns (ranking, weights, lists): the ``AggregatedRanking`` of the
    unlabeled pool, the blended weights and the (L, n_unlabeled) lists the
    aggregator read.  The Markov chains read the normalized values, which
    order each list as its ranks do, through ``markov_from_values``, which
    repeats none of the checks ``ALConfig`` and ``blend_weights`` made; the
    Borda fusions and Bucklin read competition ranks, through ``aggregate``.
    Needs ``pool.n_unlabeled > cfg.n_select``, as every step does.
    """
    flags = np.array([CRITERIA[name].committee for name in cfg.criteria])
    markov = cfg.aggregator in agg.MARKOV_VARIANTS
    rows, raw_weights = [], []
    for s, committee_based in zip(scores, flags):
        if markov:
            values = row = normalize_scores(s)
        else:
            values, row = normalize_and_rank(s)
        weight = duplicate_weight if committee_based else bvsb_weight
        rows.append(row)
        raw_weights.append(weight(values, cfg.n_select))

    weights = blend_weights(raw_weights, flags)
    lists = np.array(rows, dtype=float)
    if markov:
        ranking = agg.markov_from_values(
            lists, weights, cfg.aggregator, flags, n_select=cfg.n_select, tun1=cfg.tun1,
            tun2=cfg.tun2, ids=pool.unlabeled_idx,
        )
    else:
        ranking = agg.aggregate(
            cfg.aggregator, lists, weights, ids=pool.unlabeled_idx, n_select=cfg.n_select,
            tun1=cfg.tun1, tun2=cfg.tun2, p=cfg.p, committee_flags=flags,
        )
    return ranking, weights, lists


def fused_step(pool: PoolState, cfg: ALConfig, ted_scores, warm=None):
    """Rank fusion with self-adaptive weights: (batch, {criterion: blended weight}).

    A criterion listed more than once records the sum of its lists' weights.
    Needs ``pool.n_unlabeled > cfg.n_select``.
    """
    ranking, weights, _ = _fuse(pool, cfg, criterion_scores(pool, cfg, ted_scores, warm))
    record = {}
    for name, wk in zip(cfg.criteria, weights.tolist()):
        record[name] = record.get(name, 0.0) + wk
    return ranking.top(cfg.n_select), record


def _serial_layer_sizes(cfg, n_unlabeled):
    if cfg.serial_layers is not None:
        return cfg.serial_layers
    total = len(cfg.criteria)
    sizes = [
        max(cfg.n_select, math.ceil(n_unlabeled * 0.1 ** ((k + 1) / total)))
        for k in range(total)
    ]
    sizes[-1] = cfg.n_select
    return sizes


def serial_step(pool: PoolState, cfg: ALConfig, ted_scores, warm=None):
    """Multi-layer filtering: each criterion keeps its top slice of survivors.

    A layer larger than its survivors keeps them all.  Returns (batch, {});
    needs ``pool.n_unlabeled > cfg.n_select``.
    """
    sizes = _serial_layer_sizes(cfg, pool.n_unlabeled)
    survivors = np.arange(pool.n_unlabeled)
    for scores, size in zip(criterion_scores(pool, cfg, ted_scores, warm), sizes):
        survivors = survivors[top_positions(scores[survivors], size)]
    return pool.unlabeled_idx[survivors], {}


def parallel_step(pool: PoolState, cfg: ALConfig, ted_scores, warm=None):
    """Fixed-weight sum of normalized score lists, lowest total wins: (batch, {}).

    Needs ``pool.n_unlabeled > cfg.n_select``.
    """
    w = np.asarray(cfg.fixed_weights, dtype=float)
    total = np.zeros(pool.n_unlabeled)
    for scores, wk in zip(criterion_scores(pool, cfg, ted_scores, warm), w):
        total += wk * normalize_scores(scores)
    return pool.unlabeled_idx[top_positions(total, cfg.n_select)], {}


def random_step(pool: PoolState, cfg: ALConfig, ted_scores, warm=None):
    """Uniform draw without replacement, fitting nothing: (batch, {}).

    Needs ``pool.n_unlabeled > cfg.n_select``.
    """
    return _rng(cfg, 2, pool.iteration).choice(
        pool.unlabeled_idx, size=cfg.n_select, replace=False
    ), {}


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
    cp_counts = [math.ceil(f * n_pool) for f in cfg.checkpoints]
    state = initial_batch(pool, cfg, ted_scores)
    warm = WarmStart()
    iterations, cp_records = [], []
    # looked up once per run, through the module's names, so that a wrapper
    # installed on one of them (as the benchmark's tracer does) takes effect
    step = {"fused": fused_step, "serial": serial_step, "parallel": parallel_step,
            "random": random_step}[cfg.strategy]
    while True:
        # evaluate every checkpoint the labeled count has reached
        while len(cp_records) < len(cp_counts) and state.n_labeled >= cp_counts[len(cp_records)]:
            p_pos, preds, _ = posterior(warm.fit(state, cfg), test.features)
            cp_records.append(CheckpointRecord(
                fraction=cfg.checkpoints[len(cp_records)], n_labeled=state.n_labeled,
                accuracy=accuracy(preds, test.labels), f1=f1(preds, test.labels),
                auc=auc(p_pos, test.labels),
            ))
        if state.n_labeled >= target or state.n_unlabeled == 0:
            break
        if state.n_unlabeled <= cfg.n_select:
            batch, weights = state.unlabeled_idx, {}  # drain the pool; nothing to rank
        else:
            batch, weights = step(state, cfg, ted_scores, warm=warm)
        state = oracle_label(state, batch)
        iterations.append(
            IterationRecord(
                iteration=state.iteration,
                selected=tuple(state.data.ids[np.asarray(batch)].tolist()),
                weights=weights,
            )
        )

    return RunTrace(
        method=cfg.label, seed=cfg.seed,
        iterations=tuple(iterations), checkpoints=tuple(cp_records),
    )
