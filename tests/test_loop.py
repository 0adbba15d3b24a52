import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rankal.aggregation
import rankal.learner
import rankal.loop
from certify import certify
from rankal.aggregation import markov_aggregate, truncate_candidates
from rankal.cli import main
from rankal.criteria import (
    normalize_and_rank,
    score_diversity,
    score_margin,
    score_qbc,
    score_ted,
    solve_ted,
)
from rankal.data import (
    Dataset,
    PoolState,
    SplitSpec,
    make_two_blobs,
    normalize_features,
    oracle_label,
    split_pool,
)
from rankal.learner import LearnerConfig, fit, kernel_matrix, posterior
from rankal.weighting import blend_weights, bvsb_weight, duplicate_weight
from rankal.loop import (
    CRITERIA,
    ALConfig,
    Criterion,
    WarmStart,
    _fuse,
    _inputs,
    criterion_scores,
    fused_step,
    initial_batch,
    parallel_step,
    pool_ted_scores,
    run_active_learning,
    serial_step,
    top_positions,
)

AGGS = ("borda-min", "borda-median", "borda-geo", "borda-pnorm", "bucklin", "mc1", "mc2", "mc3")


# per strategy, the ALConfig fields a step of it needs besides the defaults
STEP_CONFIGS = {
    "fused": {},
    "serial": dict(criteria=("margin", "diversity")),
    "parallel": dict(criteria=("margin", "diversity"), fixed_weights=(0.5, 0.5)),
    "random": {},
}


def prepared_pool(n=120, seed=0, n_labeled=8):
    d = normalize_features(make_two_blobs(n=n, seed=seed))
    _, pool = split_pool(d, SplitSpec(0.5, seed))
    rng = np.random.default_rng(seed)
    while True:
        batch = rng.choice(pool.unlabeled_idx, size=n_labeled, replace=False)
        if len(np.unique(pool.data.labels[batch])) == 2:
            return oracle_label(pool, batch)


class TestFusedStep:
    def test_single_criterion_identity_all_aggregators(self):
        state = prepared_pool()
        model = fit(LearnerConfig(), state.labeled_features, state.labeled_labels)
        raw = score_margin(model, state.unlabeled_features)
        expected = state.unlabeled_idx[top_positions(raw, 3)]
        for aggregator in AGGS:
            cfg = ALConfig(criteria=("margin",), aggregator=aggregator, n_select=3)
            batch, weights = fused_step(state, cfg, pool_ted_scores(state, cfg))
            assert batch.tolist() == expected.tolist(), aggregator
            assert weights == {"margin": 1.0}

    def test_group_mass_law_live(self):
        state = prepared_pool(seed=1)
        cfg = ALConfig(criteria=("diversity", "margin", "qbc"), aggregator="mc2")
        _, weights = fused_step(state, cfg, pool_ted_scores(state, cfg))
        non_committee = weights["diversity"] + weights["margin"]
        assert non_committee == pytest.approx(2 / 3, abs=1e-12)
        assert weights["qbc"] == pytest.approx(1 / 3, abs=1e-12)

    def test_duplicated_criterion_splits_weight_and_keeps_batch(self):
        state = prepared_pool(seed=2)
        single = ALConfig(criteria=("margin",), aggregator="borda-pnorm", n_select=2)
        double = ALConfig(criteria=("margin", "margin"), aggregator="borda-pnorm", n_select=2)
        b1, _ = fused_step(state, single, pool_ted_scores(state, single))
        b2, weights = fused_step(state, double, pool_ted_scores(state, double))
        assert weights == {"margin": pytest.approx(1.0)}  # both halves, under one key
        assert b1.tolist() == b2.tolist()


@st.composite
def tied_score_lists(draw):
    """(scores, criteria) for one fused query under heavy ties: L lists of n
    scores, each a few levels, constant, a span of at most 1e-12, a qbc-like
    ladder with round-off or untied, and a criterion per list (qbc is the
    committee criterion), all of them qbc in some draws."""
    n_select = draw(st.integers(1, 4))
    n = draw(st.integers(n_select + 1, 40))  # n <= N* = n_select + tun2 in some draws
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores, criteria = [], []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("levels", "constant", "tiny", "ladder", "untied")))
        if kind == "levels":
            s = rng.integers(0, draw(st.integers(2, 4)), n) * draw(st.floats(1e-3, 1e3))
        elif kind == "constant":
            s = np.full(n, draw(st.floats(-5, 5)))
        elif kind == "tiny":  # round-off, which normalization maps to all 0.5
            s = 0.3 + rng.uniform(0.0, 1e-12, n)
        elif kind == "ladder":  # std of g member votes, with qbc's round-off
            p = rng.integers(0, 6, n) / 5
            s = -np.sqrt(p * (1 - p)) - rng.choice([0.0, 5.6e-17], n)
        else:
            s = rng.normal(size=n)
        scores.append(s)
        criteria.append(draw(st.sampled_from(("margin", "qbc"))))
    return scores, tuple(criteria), n_select


class TestMarkovFusionReadsValues:
    """The mc1-mc3 fused step reads normalized values, never ranks, and
    equals the ranked path: ``markov_aggregate`` on ``normalize_and_rank``."""

    @given(tied_score_lists(), st.sampled_from(("mc1", "mc2", "mc3")), st.integers(0, 6),
           st.floats(0.01, 0.5), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    @example((([0.0, 0.5, 1.0, 1.0],), ("qbc",), 1), "mc2", 5, 0.05, 0)
    def test_equals_the_ranked_path(self, instance, variant, tun2, tun1, seed):
        scores, criteria, n_select = instance
        n = len(scores[0])
        cfg = ALConfig(criteria=criteria, aggregator=variant, n_select=n_select, tun1=tun1,
                       tun2=tun2)
        ids = np.random.default_rng(seed).permutation(n + 3)
        data = Dataset(np.zeros((n + 3, 1)), np.ones(n + 3), np.arange(n + 3))
        pool = PoolState(data, np.sort(ids[n:]), ids[:n])
        flags = np.array([c == "qbc" for c in criteria])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ranking, weights, _ = _fuse(pool, cfg, scores)
        assert any("committee-based" in str(w.message) for w in caught) == flags.all()

        normalized = [normalize_and_rank(s) for s in scores]
        expected_weights = blend_weights(
            [(duplicate_weight if f else bvsb_weight)(v, n_select)
             for (v, _), f in zip(normalized, flags)], flags)
        ranks = np.array([r for _, r in normalized], dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = markov_aggregate(ranks, expected_weights, variant, n_select, tun1, tun2,
                                        committee_flags=flags, ids=pool.unlabeled_idx)
            cand = truncate_candidates(ranks, flags, n_select, tun2)
        np.testing.assert_array_equal(weights, expected_weights)
        np.testing.assert_array_equal(ranking.ids, expected.ids)
        np.testing.assert_array_equal(ranking.scores, expected.scores)
        np.testing.assert_array_equal(ranking.ranks, expected.ranks)
        # the candidates lead the ranking, each with a positive stationary probability
        n_cand = np.count_nonzero(ranking.scores)
        np.testing.assert_array_equal(np.flatnonzero(ranking.ranks <= n_cand), cand)
        if flags.all():
            assert n_cand == n

    @pytest.mark.parametrize("variant", ["mc1", "mc2", "mc3"])
    def test_step_runs_without_ranks_or_checks(self, variant, monkeypatch):
        state = prepared_pool(seed=8)
        cfg = ALConfig(aggregator=variant, n_select=2)
        expected = fused_step(state, cfg, None)

        def forbidden(*args, **kwargs):
            raise AssertionError("the fused Markov step ranked or re-checked its input")

        monkeypatch.setattr(rankal.loop, "normalize_and_rank", forbidden)
        for name in ("check_options", "check_weights", "_as_rank_matrix", "truncate_candidates",
                     "build_transition", "stationary_distribution", "markov_aggregate"):
            monkeypatch.setattr(rankal.aggregation, name, forbidden)
        batch, weights = fused_step(state, cfg, None)
        assert batch.tolist() == expected[0].tolist() and weights == expected[1]


class TestStrategiesAgainstDirectComputation:
    def test_serial_single_layer_equals_criterion(self):
        state = prepared_pool(seed=3)
        cfg = ALConfig(
            strategy="serial", criteria=("margin",), serial_layers=(1,), n_select=1
        )
        batch, _ = serial_step(state, cfg, pool_ted_scores(state, cfg))
        model = fit(LearnerConfig(), state.labeled_features, state.labeled_labels)
        raw = score_margin(model, state.unlabeled_features)
        assert batch.tolist() == state.unlabeled_idx[top_positions(raw, 1)].tolist()

    def test_serial_margin_then_diversity(self):
        state = prepared_pool(seed=4)
        cfg = ALConfig(
            strategy="serial",
            criteria=("margin", "diversity"),
            serial_layers=(10, 1),
            n_select=1,
        )
        batch, _ = serial_step(state, cfg, pool_ted_scores(state, cfg))
        model = fit(LearnerConfig(), state.labeled_features, state.labeled_labels)
        margin = score_margin(model, state.unlabeled_features)
        survivors = top_positions(margin, 10)
        div = score_diversity(
            state.labeled_features,
            state.unlabeled_features[survivors],
            LearnerConfig(),
        )
        expected = state.unlabeled_idx[survivors[top_positions(div, 1)]]
        assert batch.tolist() == expected.tolist()

    def test_serial_vacuous_first_layer(self):
        state = prepared_pool(seed=5)
        n_u = state.n_unlabeled
        cfg = ALConfig(
            strategy="serial",
            criteria=("diversity", "margin"),
            serial_layers=(n_u, 1),
            n_select=1,
        )
        batch, _ = serial_step(state, cfg, pool_ted_scores(state, cfg))
        cfg2 = ALConfig(strategy="serial", criteria=("margin",), serial_layers=(1,))
        assert batch.tolist() == serial_step(state, cfg2, pool_ted_scores(state, cfg2))[0].tolist()

    def test_parallel_null_weight_is_single_criterion(self):
        state = prepared_pool(seed=6)
        cfg = ALConfig(
            strategy="parallel",
            criteria=("margin", "diversity"),
            fixed_weights=(1.0, 0.0),
            n_select=2,
        )
        batch, _ = parallel_step(state, cfg, pool_ted_scores(state, cfg))
        model = fit(LearnerConfig(), state.labeled_features, state.labeled_labels)
        raw = score_margin(model, state.unlabeled_features)
        assert batch.tolist() == state.unlabeled_idx[top_positions(raw, 2)].tolist()

    def test_parallel_matches_brute_force_argmin(self):
        state = prepared_pool(seed=7)
        cfg = ALConfig(
            strategy="parallel",
            criteria=("margin", "diversity"),
            fixed_weights=(0.5, 0.5),
            n_select=1,
        )
        batch, _ = parallel_step(state, cfg, pool_ted_scores(state, cfg))
        model = fit(LearnerConfig(), state.labeled_features, state.labeled_labels)
        total = (
            0.5 * normalize_and_rank(score_margin(model, state.unlabeled_features))[0]
            + 0.5 * normalize_and_rank(
                score_diversity(state.labeled_features, state.unlabeled_features, LearnerConfig())
            )[0]
        )
        assert batch[0] == state.unlabeled_idx[int(np.argmin(total))]

    def test_parallel_rejects_zero_weights(self):
        # the config is checked where it is made, before any step runs
        with pytest.raises(ValueError, match="fixed_weights"):
            ALConfig(strategy="parallel", criteria=("margin",), fixed_weights=(0.0,))


class TestInitialBatch:
    def test_ted_init_takes_lowest_scores(self):
        d = normalize_features(make_two_blobs(n=60, seed=9))
        _, pool = split_pool(d, SplitSpec(0.5, 9))
        cfg = ALConfig(initial_batch="ted", n_initial=4)
        ted_scores = pool_ted_scores(pool, cfg)
        state = initial_batch(pool, cfg, ted_scores)
        expected = pool.unlabeled_idx[top_positions(ted_scores, 4)]
        assert set(expected.tolist()) <= set(state.labeled_idx.tolist())

    def test_random_init_reproducible(self):
        d = normalize_features(make_two_blobs(n=60, seed=10))
        _, pool = split_pool(d, SplitSpec(0.5, 10))
        cfg = ALConfig(initial_batch="random", n_initial=4, strategy="random")
        s1 = initial_batch(pool, cfg, pool_ted_scores(pool, cfg))
        s2 = initial_batch(pool, cfg, pool_ted_scores(pool, cfg))
        assert s1.labeled_idx.tolist() == s2.labeled_idx.tolist()

    def test_both_classes_probability_and_topup(self):
        # Monte Carlo over the label distribution: 4 random draws find both
        # classes most of the time; the retry tops up the remainder.
        d = normalize_features(make_two_blobs(n=200, seed=11))
        _, pool = split_pool(d, SplitSpec(0.5, 11))
        both = 0
        rng = np.random.default_rng(0)
        for _ in range(1000):
            batch = rng.choice(pool.unlabeled_idx, size=4, replace=False)
            if len(np.unique(pool.data.labels[batch])) == 2:
                both += 1
        assert both / 1000 > 0.85
        for seed in range(10):
            cfg = ALConfig(initial_batch="random", n_initial=4, seed=seed, strategy="random")
            state = initial_batch(pool, cfg, pool_ted_scores(pool, cfg))
            assert len(np.unique(state.labeled_labels)) == 2

    def test_top_up_goes_on_until_the_second_class(self):
        from rankal.data import Dataset, PoolState

        d = make_two_blobs(n=40, seed=12)
        labels = -np.ones(20, dtype=int)
        labels[7] = 1  # one positive among 20: some starts need over 10 top-ups
        pool = PoolState(
            data=Dataset(d.features[:20], labels, np.arange(20)),
            labeled_idx=np.array([], dtype=int),
            unlabeled_idx=np.arange(20),
        )
        sizes = []
        for seed in range(10):
            cfg = ALConfig(initial_batch="random", n_initial=4, strategy="random", seed=seed)
            state = initial_batch(pool, cfg, pool_ted_scores(pool, cfg))
            assert len(np.unique(state.labeled_labels)) == 2
            sizes.append(state.n_labeled)
        assert max(sizes) > 4 + 10

    def test_single_class_pool_aborts(self):
        from rankal.data import Dataset, PoolState

        d = make_two_blobs(n=40, seed=12)
        pool = PoolState(  # every pool label positive: no second class to find
            data=Dataset(d.features[:20], np.ones(20, dtype=int), np.arange(20)),
            labeled_idx=np.array([], dtype=int),
            unlabeled_idx=np.arange(20),
        )
        cfg = ALConfig(initial_batch="random", n_initial=4, strategy="random")
        with pytest.raises(RuntimeError, match="two-class"):
            initial_batch(pool, cfg, pool_ted_scores(pool, cfg))


class TestRuns:
    def test_budget_one_step(self):
        d = normalize_features(make_two_blobs(n=80, seed=13))
        test, pool = split_pool(d, SplitSpec(0.5, 13))
        cfg = ALConfig(n_initial=4, n_select=1, budget=5 / 40, checkpoints=(5 / 40,), seed=13)
        trace = run_active_learning(pool, test, cfg)
        assert len(trace.iterations) == 1

    def test_same_seed_identical_traces(self):
        d = normalize_features(make_two_blobs(n=100, seed=14))
        test, pool = split_pool(d, SplitSpec(0.5, 14))
        cfg = ALConfig(budget=0.2, checkpoints=(0.1, 0.2), seed=14)
        t1 = run_active_learning(pool, test, cfg)
        t2 = run_active_learning(pool, test, cfg)
        assert t1 == t2

    def test_no_sample_queried_twice_and_batch_growth(self):
        d = normalize_features(make_two_blobs(n=100, seed=15))
        test, pool = split_pool(d, SplitSpec(0.5, 15))
        cfg = ALConfig(budget=0.4, checkpoints=(0.4,), seed=15, n_select=3)
        trace = run_active_learning(pool, test, cfg)
        seen = [s for rec in trace.iterations for s in rec.selected]
        assert len(seen) == len(set(seen))
        for rec in trace.iterations[:-1]:
            assert len(rec.selected) == 3
        for rec in trace.iterations:
            if rec.weights:
                assert sum(rec.weights.values()) == pytest.approx(1.0)

    def test_random_full_budget_labels_everything(self):
        d = normalize_features(make_two_blobs(n=40, seed=16))
        test, pool = split_pool(d, SplitSpec(0.5, 16))
        cfg = ALConfig(strategy="random", budget=1.0, checkpoints=(1.0,), seed=16)
        trace = run_active_learning(pool, test, cfg)
        labeled = 4 + sum(len(r.selected) for r in trace.iterations)
        assert labeled == 20

    @pytest.mark.parametrize("strategy", STEP_CONFIGS)
    def test_last_batch_drains_the_pool(self, monkeypatch, strategy):
        # 23 pool samples, n_select 3: the last batch is shorter and no step ranks it
        d = normalize_features(make_two_blobs(n=46, seed=22))
        test, pool = split_pool(d, SplitSpec(0.5, 22))
        cfg = ALConfig(strategy=strategy, n_select=3, budget=1.0, checkpoints=(1.0,),
                       seed=22, **STEP_CONFIGS[strategy])
        name = f"{strategy}_step"
        real, called = getattr(rankal.loop, name), []

        def recording(state, cfg, *args, **kwargs):
            called.append(state.n_unlabeled > cfg.n_select)
            return real(state, cfg, *args, **kwargs)

        monkeypatch.setattr(rankal.loop, name, recording)
        trace = run_active_learning(pool, test, cfg)
        *steps, last = trace.iterations
        assert called == [True] * len(steps)
        assert 0 < len(last.selected) < cfg.n_select and last.weights == {}
        assert all(set(r.weights) == (set(cfg.criteria) if strategy == "fused" else set())
                   for r in steps)
        assert trace.checkpoints[-1].n_labeled == len(pool.data)  # every pool sample

    @pytest.mark.parametrize("strategy", STEP_CONFIGS)
    def test_every_step_returns_batch_and_weights(self, strategy):
        state = prepared_pool(seed=24)
        cfg = ALConfig(strategy=strategy, n_select=2, seed=24, **STEP_CONFIGS[strategy])
        result = getattr(rankal.loop, f"{strategy}_step")(state, cfg, pool_ted_scores(state, cfg))
        assert type(result) is tuple and len(result) == 2
        batch, weights = result
        assert type(batch) is np.ndarray and batch.dtype.kind == "i" and len(batch) == 2
        assert set(batch.tolist()) <= set(state.unlabeled_idx.tolist())
        assert type(weights) is dict
        if strategy == "fused":
            assert list(weights) == list(cfg.criteria)
            assert all(type(w) is float for w in weights.values())
        else:
            assert weights == {}

    def test_random_trend_monotone_within_noise(self):
        accs = []
        for seed in range(10):
            d = normalize_features(make_two_blobs(n=120, seed=seed))
            test, pool = split_pool(d, SplitSpec(0.5, seed))
            cfg = ALConfig(
                strategy="random", budget=0.5, seed=seed,
                checkpoints=(0.1, 0.3, 0.5),
            )
            trace = run_active_learning(pool, test, cfg)
            accs.append([cp.accuracy for cp in trace.checkpoints])
        mean = np.array(accs).mean(axis=0)
        assert np.all(np.diff(mean) >= -0.02)

    def test_ted_cache_consistent_across_iterations(self):
        d = normalize_features(make_two_blobs(n=60, seed=17))
        test, pool = split_pool(d, SplitSpec(0.5, 17))
        cfg = ALConfig(criteria=("ted", "margin"), budget=0.3, seed=17)
        ted_scores = pool_ted_scores(pool, cfg)
        direct = score_ted(pool.data.features, lam=cfg.ted_lambda)
        np.testing.assert_array_equal(ted_scores, direct)
        state = initial_batch(pool, cfg, ted_scores)
        for _ in range(3):
            batch, _ = fused_step(state, cfg, ted_scores)
            state = oracle_label(state, batch)
        np.testing.assert_array_equal(ted_scores, direct)

    def test_random_run_solves_no_ted(self):
        # a random run reads no criterion and draws its initial batch at random
        d = normalize_features(make_two_blobs(n=60, seed=17))
        _, pool = split_pool(d, SplitSpec(0.5, 17))
        assert pool_ted_scores(pool, ALConfig(strategy="random", criteria=("ted",))) is None

    @pytest.mark.parametrize("criteria", [("margin",), ("margin", "qbc")])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_candidate_chain_runs_to_budget(self, criteria, seed):
        # N* = n_select + tun2 = 1: the one non-committee list nominates only its
        # rank-1 sample, so the chain has one state
        d = normalize_features(make_two_blobs(n=200, seed=seed))
        test, pool = split_pool(d, SplitSpec(0.5, seed))
        cfg = ALConfig(criteria=criteria, aggregator="mc2", tun2=0, n_select=1, seed=seed)
        trace = run_active_learning(pool, test, cfg)
        assert trace.checkpoints[-1].n_labeled == 30
        assert all(len(rec.selected) == 1 for rec in trace.iterations)

    def test_serial_layers_larger_than_the_remaining_pool(self):
        # every layer is cut to what the pool still holds, so a fixed layer
        # plan runs until the pool is drained
        d = normalize_features(make_two_blobs(n=40, seed=20))
        test, pool = split_pool(d, SplitSpec(0.5, 20))
        cfg = ALConfig(strategy="serial", criteria=("diversity", "margin", "margin"),
                       serial_layers=(15, 10, 1), budget=1.0, checkpoints=(1.0,), seed=20)
        trace = run_active_learning(pool, test, cfg)
        assert trace.checkpoints[-1].n_labeled == 20

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(criteria=()), "at least one criterion"),
            (dict(g=1), "g must be an integer >= 2"),
            (dict(n_select=2.0), "n_select must be an integer >= 1"),
            (dict(tun1=1.0), "tun1 must lie in"),
            (dict(tun2=True), "tun2 must be an integer >= 0"),
            (dict(p=0.5), "p must be"),
            (dict(ted_lambda=0.0), "ted_lambda must be"),
            (dict(diversity_reduce="mean"), "diversity_reduce"),
            (dict(name=5), "name must be a string"),
            (dict(strategy="serial", criteria=("margin",), serial_layers=(3, 1)),
             "one size per criterion"),
            (dict(strategy="serial", criteria=("margin", "diversity"), serial_layers=(1, 3)),
             "non-increasing"),
            (dict(strategy="serial", criteria=("margin", "diversity"), serial_layers=(5, 2)),
             "must equal n_select"),
            (dict(strategy="parallel", criteria=("margin",)), "requires fixed_weights"),
            (dict(strategy="parallel", criteria=("margin",), fixed_weights=(0.5, 0.5)),
             "one per criterion"),
            (dict(budget=0.2, checkpoints=(0.1, 0.3)), "checkpoint 0.3 exceeds budget 0.2"),
            (dict(checkpoints=(0.1, 0.1)), "positive and strictly increasing"),
            (dict(checkpoints=(0.2, 0.1)), "positive and strictly increasing"),
            (dict(checkpoints=(float("nan"),)), "checkpoints must be finite"),
            (dict(checkpoints=(0.0, 0.1)), "positive and strictly increasing"),
            (dict(seed=-1), "seed must be an integer >= 0"),
            (dict(seed=True), "seed must be an integer >= 0"),
            (dict(criteria=("margin",), fixed_weights=(1.0,)),
             "fixed_weights applies only to strategy 'parallel'"),
            (dict(criteria=("margin",), serial_layers=(1,)),
             "serial_layers applies only to strategy 'serial'"),
        ],
    )
    def test_config_value_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ALConfig(**kwargs)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ALConfig(strategy="bandit")
        with pytest.raises(ValueError):
            ALConfig(aggregator="condorcet")
        with pytest.raises(ValueError):
            ALConfig(budget=0.0)
        with pytest.raises(ValueError):
            ALConfig(criteria=("margin", "entropy"))


class TestWarmStart:
    """A run's warm-started fits agree with cold ones; only near-ties may move a pick."""

    @staticmethod
    def pool(n, d, n_labeled, seed):
        rng = np.random.default_rng(seed)
        y = rng.choice([-1, 1], size=n)
        y[:2] = (1, -1)
        data = Dataset(rng.normal(size=(n, d)), y, np.arange(n))
        labeled = np.concatenate([[0, 1], 2 + rng.permutation(n - 2)[: n_labeled - 2]])
        return PoolState(data, labeled, np.setdiff1d(np.arange(n), labeled))

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(20, 80), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
        labeled_frac=st.floats(0.0, 1.0), n_select=st.integers(1, 3),
    )
    @example(n=20, d=2, seed=1, labeled_frac=0.0, n_select=1)  # 2 labels: one-class draws
    @example(n=30, d=3, seed=2, labeled_frac=0.9, n_select=3)  # ends with the drain step
    @example(n=25, d=2, seed=1760396249, labeled_frac=0.0, n_select=2)  # qbc all round-off
    def test_fused_run_warm_matches_cold(self, n, d, seed, labeled_frac, n_select):
        state = self.pool(n, d, 2 + round(labeled_frac * (n - 3)), seed)
        cfg = ALConfig(criteria=("diversity", "margin", "qbc"), n_select=n_select, seed=seed % 997)
        warm = WarmStart()
        for step in range(6):
            if state.n_unlabeled <= n_select:
                batch = state.unlabeled_idx  # the drain step fits nothing
            else:
                x = state.unlabeled_features
                warm_in, cold_in = [_inputs(state, cfg, None, w) for w in (warm, None)]
                np.testing.assert_allclose(
                    warm_in.model.predict_proba(x), cold_in.model.predict_proba(x),
                    rtol=0, atol=1e-6,
                )
                np.testing.assert_allclose(
                    warm_in.committee.member_proba(x), cold_in.committee.member_proba(x),
                    rtol=0, atol=1e-6,
                )
                b_warm = fused_step(state, cfg, None, warm=warm)[0]
                batch = fused_step(state, cfg, None)[0]
                certify(state, cfg, b_warm, batch,
                        [criterion_scores(state, cfg, None, w) for w in (warm, None)])
            state = oracle_label(state, batch)
            if step % 2 or state.n_unlabeled == 0:
                # a checkpoint fit, from which the next step's stack starts
                x = state.data.features
                np.testing.assert_allclose(
                    warm.fit(state, cfg).predict_proba(x),
                    WarmStart().fit(state, cfg).predict_proba(x), rtol=0, atol=1e-6,
                )
            if state.n_unlabeled == 0:
                break

    def test_checkpoint_fit_is_reused_by_the_next_margin_fit(self):
        state = prepared_pool(seed=18)
        cfg = ALConfig(criteria=("margin",))
        warm = WarmStart()
        model = warm.fit(state, cfg)
        assert _inputs(state, cfg, None, warm).model is model
        grown = oracle_label(state, state.unlabeled_idx[:2])
        assert warm.fit(grown, cfg) is not model

    def test_run_warm_starts_and_stays_deterministic(self, monkeypatch):
        import rankal.loop as loop

        d = normalize_features(make_two_blobs(n=100, seed=19))
        test, pool = split_pool(d, SplitSpec(0.5, 19))
        cfg = ALConfig(budget=0.4, checkpoints=(0.2, 0.4), seed=19, n_select=2)
        inits = []

        def recording(real):
            def wrapped(*args, **kwargs):
                inits.append(kwargs.get("init") is not None)
                return real(*args, **kwargs)
            return wrapped

        # checkpoint fits go through fit, margin fits through the committee's stack
        for name in ("fit", "fit_committee"):
            monkeypatch.setattr(loop, name, recording(getattr(loop, name)))
        first = run_active_learning(pool, test, cfg)
        assert inits[0] is False and all(inits[1:])
        assert run_active_learning(pool, test, cfg) == first


@pytest.mark.filterwarnings("ignore:all rank lists are committee-based")  # qbc alone
@pytest.mark.parametrize("criteria", [("diversity", "margin", "qbc"), ("qbc",), ("margin",)])
def test_one_newton_call_per_query_step(monkeypatch, criteria):
    calls = []
    real = rankal.learner._newton

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(rankal.learner, "_newton", counting)
    state = prepared_pool(seed=23)
    cfg = ALConfig(criteria=criteria, seed=23)
    warm = WarmStart()
    for _ in range(3):
        del calls[:]
        batch = fused_step(state, cfg, None, warm=warm)[0]
        # with the committee, the margin problem is one more row of its stack
        assert len(calls) == 1
        state = oracle_label(state, batch)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), g=st.integers(2, 6),
       growth=st.lists(st.integers(0, 7), min_size=1, max_size=10),
       restart_at=st.integers(0, 10), restart_labels=st.integers(2, 30))
def test_committee_counts_are_the_run_stream(seed, g, growth, restart_at, restart_labels):
    # each committee fit's counts are the stream's first n rows, drawn only as far
    # as needed; a labeled set that does not extend the last one (a restart) resets
    # the kernel block but reads the same stream
    handed = []
    real = rankal.loop.fit_committee

    def spy(*args, **kwargs):
        handed.append((len(args[2]), kwargs["counts"].copy()))
        return real(*args, **kwargs)

    cfg = ALConfig(seed=seed % 997, g=g)
    state = TestWarmStart.pool(40, 2, 2, seed)
    warm = WarmStart()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(rankal.loop, "fit_committee", spy)
        for step, k in enumerate(growth):
            if step == restart_at:
                state = TestWarmStart.pool(40, 2, restart_labels, seed + 1)
            state = oracle_label(state, state.unlabeled_idx[:k])
            warm.fit(state, cfg, g)
    assert len(handed) == len(growth)
    for n, counts in handed:
        np.testing.assert_array_equal(counts, rankal.learner._draw_counts(n, g, (cfg.seed, 3)))


kernel_runs = st.fixed_dictionaries(dict(
    n=st.integers(20, 80), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
    labeled_frac=st.floats(0.0, 1.0), n_select=st.integers(1, 3),
    kernel=st.sampled_from(["rbf", "linear"]),
))


def fused_run(n, d, seed, labeled_frac, n_select, kernel, steps=6):
    """(state, cfg, warm) before each of up to ``steps`` fused steps of one run."""
    state = TestWarmStart.pool(n, d, 2 + round(labeled_frac * (n - 3)), seed)
    cfg = ALConfig(criteria=("diversity", "margin", "qbc"), n_select=n_select,
                   seed=seed % 997, learner=LearnerConfig(kernel=kernel))
    warm = WarmStart()
    for _ in range(steps):
        if state.n_unlabeled <= n_select:
            return
        yield state, cfg, warm
        state = oracle_label(state, fused_step(state, cfg, None, warm=warm)[0])


class TestKernelBlock:
    """The run's pool x labeled kernel block stands in for every kernel the step needs."""

    @settings(max_examples=25, deadline=None)
    @given(run=kernel_runs)
    def test_block_matches_a_fresh_kernel(self, run):
        for state, cfg, warm in fused_run(**run):
            x = state.data.features
            fresh = kernel_matrix(cfg.learner, x, x[state.labeled_idx])
            np.testing.assert_allclose(warm.kernel(state, cfg.learner), fresh, rtol=0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(run=kernel_runs)
    def test_cached_scores_match_the_public_scorers(self, run):
        for state, cfg, warm in fused_run(**run):
            inputs = _inputs(state, cfg, None, warm)
            cached = [CRITERIA[name].score(inputs) for name in cfg.criteria]
            labeled, unlabeled = state.labeled_features, state.unlabeled_features
            fresh = [
                score_diversity(labeled, unlabeled, cfg.learner, reduce=cfg.diversity_reduce),
                score_margin(inputs.model, unlabeled),
                score_qbc(inputs.committee, unlabeled),
            ]
            for name, a, b in zip(cfg.criteria, cached, fresh):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)
            n_batch = min(cfg.n_select, state.n_unlabeled)
            picks = [_fuse(state, cfg, scores)[0].top(n_batch) for scores in (cached, fresh)]
            certify(state, cfg, *picks, [cached, fresh])

    @settings(max_examples=25, deadline=None)
    @given(run=kernel_runs)
    def test_labeled_set_that_does_not_extend_the_block_rebuilds_it(self, run):
        inits = []
        real_fit = rankal.loop.fit

        def recording_fit(*args, **kwargs):
            inits.append(kwargs.get("init"))
            return real_fit(*args, **kwargs)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(rankal.loop, "fit", recording_fit)
            for state, cfg, warm in fused_run(**run):
                idx = state.labeled_idx
                for other in (idx[::-1], idx[:-1]):  # reordered, then shrunk
                    moved = PoolState(state.data, other,
                                      np.setdiff1d(np.arange(len(state.data)), other))
                    fresh = kernel_matrix(cfg.learner, state.data.features,
                                          state.data.features[other])
                    np.testing.assert_allclose(warm.kernel(moved, cfg.learner), fresh,
                                               rtol=0, atol=1e-12)
                    del inits[:]
                    warm.fit(moved, cfg)
                    assert inits == [None]  # a cold fit

    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    def test_block_grows_in_place_across_capacity_doublings(self, kernel):
        rng = np.random.default_rng(31)
        n = 60
        data = Dataset(rng.normal(size=(n, 3)), rng.choice([-1, 1], size=n), np.arange(n))
        x, order = data.features, rng.permutation(n)
        cfg = LearnerConfig(kernel=kernel)

        def state(labeled):
            return PoolState(data, labeled, np.setdiff1d(np.arange(n), labeled))

        warm, batches, capacities = WarmStart(), [], []
        m = 0
        for k in (2, 1, 1, 3, 1, 5, 9, 2, 17):
            buf = warm.buf
            block = warm.kernel(state(order[:m + k]), cfg)
            batches.append(kernel_matrix(cfg, x, x[order[m:m + k]]))
            m += k
            # the block holds each batch's one kernel_matrix call, bit for bit; one
            # call over every labeled row differs from it by round-off only
            assert np.array_equal(block, np.concatenate(batches, axis=1))
            np.testing.assert_allclose(block, kernel_matrix(cfg, x, x[order[:m]]),
                                       rtol=0, atol=1e-12)
            assert block.base is warm.buf  # a view of the buffer
            if buf is not None and buf.shape[1] >= m:
                assert warm.buf is buf  # written in place
            capacities.append(warm.buf.shape[1])
        assert capacities == [2, 4, 4, 8, 8, 16, 32, 32, 64]
        # a labeled set that does not extend the last one starts a new buffer
        buf, other = warm.buf, order[1:10]
        block = warm.kernel(state(other), cfg)
        assert warm.buf is not buf
        assert np.array_equal(block, kernel_matrix(cfg, x, x[other]))

    @settings(max_examples=25, deadline=None)
    @given(run=kernel_runs)
    def test_one_kernel_call_per_labeled_batch(self, run):
        calls = []
        real = rankal.learner.kernel_matrix

        def counting(*args, **kwargs):
            calls.append(np.shape(args[2]))
            return real(*args, **kwargs)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(rankal.learner, "kernel_matrix", counting)
            m.setattr(rankal.criteria, "kernel_matrix", counting)
            batches = [len(state.labeled_idx) for state, _, _ in fused_run(**run)]
        # the first step builds the block on the initial labels, each later one
        # adds the columns of the batch labeled since
        assert [shape[0] for shape in calls] == np.diff([0] + batches).tolist()


def _entropy_score(inputs):
    """Negated binary entropy of the top posterior: the most uncertain sample scores lowest."""
    p_max = posterior(inputs.model, inputs.pool.unlabeled_features, kernel=inputs.kernel)[2]
    q = np.minimum(p_max, 1 - 1e-15)
    return q * np.log(q) + (1 - q) * np.log1p(-q)


def _max_kernel_angle(cfg, x, labeled):
    """Widest kernel angle from each row of x to the labeled rows, from the kernel's formula."""
    if cfg.learner.kernel == "linear":
        k = x @ labeled.T
        norms = np.outer(np.linalg.norm(x, axis=1), np.linalg.norm(labeled, axis=1))
        cos = k / norms
    else:
        gamma = cfg.learner.gamma or 1.0 / x.shape[1]
        sq = ((x[:, None, :] - labeled[None, :, :]) ** 2).sum(axis=2)
        cos = np.exp(-gamma * sq)  # k(x, x) = 1
    return np.arccos(np.clip(cos, -1.0, 1.0)).max(axis=1)


# each criterion's natural quantity per unlabeled sample, larger = more valuable
NATURAL = {
    "margin": lambda i: -np.abs(i.model.predict_proba(i.pool.unlabeled_features) - 0.5),
    "diversity": lambda i: _max_kernel_angle(
        i.cfg, i.pool.unlabeled_features, i.pool.labeled_features),
    "qbc": lambda i: np.array([
        np.std(i.committee.member_proba(x[None, :])[:, 0])
        for x in i.pool.unlabeled_features
    ]),
    "ted": lambda i: np.abs(solve_ted(i.pool.data.features, lam=i.cfg.ted_lambda).Z)
    .sum(axis=1)[i.pool.unlabeled_idx],
}


class TestCriteriaTable:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(6, 30), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
        labeled_frac=st.floats(0.0, 1.0), kernel=st.sampled_from(["rbf", "linear"]),
    )
    def test_most_valuable_sample_scores_lowest(self, n, d, seed, labeled_frac, kernel):
        assert set(NATURAL) == set(CRITERIA) - {"random"}
        state = TestWarmStart.pool(n, d, 2 + round(labeled_frac * (n - 3)), seed)
        cfg = ALConfig(criteria=tuple(NATURAL), learner=LearnerConfig(kernel=kernel),
                       seed=seed % 997)
        inputs = _inputs(state, cfg, pool_ted_scores(state, cfg))
        for name, natural in NATURAL.items():
            scores = CRITERIA[name].score(inputs)
            best = np.argmax(natural(inputs))
            assert scores[best] <= scores.min() + 1e-6, name

    def test_added_criterion_runs_through_every_strategy(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setitem(CRITERIA, "entropy", Criterion(False, "model", _entropy_score))
        d = normalize_features(make_two_blobs(n=80, seed=21))
        test, pool = split_pool(d, SplitSpec(0.5, 21))

        def picks(first, **kwargs):
            cfg = ALConfig(criteria=(first,) + kwargs.pop("rest", ()), budget=0.3,
                           checkpoints=(0.3,), seed=21, **kwargs)
            trace = run_active_learning(pool, test, cfg)
            assert all(set(r.weights) in (set(), set(cfg.criteria)) for r in trace.iterations)
            return [r.selected for r in trace.iterations]

        # entropy falls as the top posterior rises, so it ranks as margin does
        for aggregator in AGGS:
            assert (picks("entropy", aggregator=aggregator, n_select=2)
                    == picks("margin", aggregator=aggregator, n_select=2)), aggregator
        for kwargs in (
            dict(strategy="serial", rest=("diversity",), serial_layers=(6, 1)),
            dict(strategy="parallel", rest=("diversity",), fixed_weights=(1.0, 0.0)),
        ):
            assert picks("entropy", **kwargs) == picks("margin", **kwargs), kwargs["strategy"]

        out_dir = tmp_path / "results"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dataset": {"synthetic": {"n": 40, "seed": 0}}, "seeds": [0, 1],
            "checkpoints": [0.2], "output_dir": str(out_dir),
            "methods": [{"criteria": ["entropy", "diversity", "qbc"], "budget": 0.2},
                        {"strategy": "random", "budget": 0.2}],
        }))
        assert main(["run", str(cfg_path)]) == 0
        header = (out_dir / "trace_fused-mc2_seed0.csv").read_text().splitlines()[0]
        assert header == "iteration,selected,w_entropy,w_diversity,w_qbc"

        monkeypatch.undo()
        with pytest.raises(ValueError, match="each criterion must be one of .*, got 'entropy'"):
            ALConfig(criteria=("margin", "entropy"))
