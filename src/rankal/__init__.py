"""Pool-based active learning with multi-criteria selection via weighted
rank aggregation."""

from .aggregation import (
    AggregatedRanking,
    BordaConfig,
    METHODS,
    aggregate,
    borda_aggregate,
    brute_force_aggregate,
    bucklin_aggregate,
    build_transition,
    kendall_distance,
    markov_aggregate,
    ordinalize,
    spearman_distance,
    stationary_distribution,
    truncate_candidates,
)
from .criteria import (
    TedSolution,
    normalize_and_rank,
    score_diversity,
    score_margin,
    score_qbc,
    score_ted,
    solve_ted,
)
from .data import (
    Dataset,
    PoolState,
    SplitSpec,
    benchmark_blobs,
    load_table,
    make_two_blobs,
    normalize_features,
    oracle_label,
    split_pool,
)
from .evaluation import (
    LearningCurve,
    PairedTestResult,
    accuracy,
    auc,
    f1,
    paired_t_test,
    t_cdf,
    win_tie_loss,
)
from .learner import Committee, LearnerConfig, Model, fit, fit_committee, posterior
from .loop import ALConfig, RunTrace, run_active_learning
from .weighting import blend_weights, bvsb_weight, duplicate_weight

__version__ = "0.1.0"
