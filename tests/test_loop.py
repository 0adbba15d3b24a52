import numpy as np
import pytest

from rankal.criteria import normalize_and_rank, score_margin, score_diversity, score_ted
from rankal.data import SplitSpec, make_two_blobs, normalize_features, oracle_label, split_pool
from rankal.learner import LearnerConfig, fit
from rankal.loop import (
    ALConfig,
    fused_step,
    initial_batch,
    parallel_step,
    pool_ted_scores,
    run_active_learning,
    serial_step,
    top_positions,
)

AGGS = ("borda-min", "borda-median", "borda-geo", "borda-pnorm", "bucklin", "mc1", "mc2", "mc3")


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
            batch, wv, _ = fused_step(state, cfg, pool_ted_scores(state, cfg))
            assert batch.tolist() == expected.tolist(), aggregator
            assert wv.weights.tolist() == [1.0]

    def test_group_mass_law_live(self):
        state = prepared_pool(seed=1)
        cfg = ALConfig(criteria=("diversity", "margin", "qbc"), aggregator="mc2")
        _, wv, _ = fused_step(state, cfg, pool_ted_scores(state, cfg))
        non_committee = wv.weights[:2].sum()
        assert non_committee == pytest.approx(2 / 3, abs=1e-12)
        assert wv.weights[2] == pytest.approx(1 / 3, abs=1e-12)

    def test_duplicated_criterion_splits_weight_and_keeps_batch(self):
        state = prepared_pool(seed=2)
        single = ALConfig(criteria=("margin",), aggregator="borda-pnorm", n_select=2)
        double = ALConfig(criteria=("margin", "margin"), aggregator="borda-pnorm", n_select=2)
        b1, _, _ = fused_step(state, single, pool_ted_scores(state, single))
        b2, wv, _ = fused_step(state, double, pool_ted_scores(state, double))
        assert wv.weights[0] == pytest.approx(wv.weights[1])
        assert b1.tolist() == b2.tolist()


class TestStrategiesAgainstDirectComputation:
    def test_serial_single_layer_equals_criterion(self):
        state = prepared_pool(seed=3)
        cfg = ALConfig(
            strategy="serial", criteria=("margin",), serial_layers=(1,), n_select=1
        )
        batch = serial_step(state, cfg, pool_ted_scores(state, cfg))
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
        batch = serial_step(state, cfg, pool_ted_scores(state, cfg))
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
        batch = serial_step(state, cfg, pool_ted_scores(state, cfg))
        cfg2 = ALConfig(strategy="serial", criteria=("margin",), serial_layers=(1,))
        assert batch.tolist() == serial_step(state, cfg2, pool_ted_scores(state, cfg2)).tolist()

    def test_parallel_null_weight_is_single_criterion(self):
        state = prepared_pool(seed=6)
        cfg = ALConfig(
            strategy="parallel",
            criteria=("margin", "diversity"),
            fixed_weights=(1.0, 0.0),
            n_select=2,
        )
        batch = parallel_step(state, cfg, pool_ted_scores(state, cfg))
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
        batch = parallel_step(state, cfg, pool_ted_scores(state, cfg))
        model = fit(LearnerConfig(), state.labeled_features, state.labeled_labels)
        total = (
            0.5 * normalize_and_rank(score_margin(model, state.unlabeled_features))[0].values
            + 0.5 * normalize_and_rank(
                score_diversity(state.labeled_features, state.unlabeled_features, LearnerConfig())
            )[0].values
        )
        assert batch[0] == state.unlabeled_idx[int(np.argmin(total))]

    def test_parallel_rejects_zero_weights(self):
        state = prepared_pool(seed=8)
        cfg = ALConfig(
            strategy="parallel", criteria=("margin",), fixed_weights=(0.0,)
        )
        with pytest.raises(ValueError):
            parallel_step(state, cfg, pool_ted_scores(state, cfg))


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
            batch, _, _ = fused_step(state, cfg, ted_scores)
            state = oracle_label(state, batch)
        np.testing.assert_array_equal(ted_scores, direct)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ALConfig(strategy="bandit")
        with pytest.raises(ValueError):
            ALConfig(aggregator="condorcet")
        with pytest.raises(ValueError):
            ALConfig(budget=0.0)
        with pytest.raises(ValueError):
            ALConfig(criteria=("margin", "entropy"))
