"""Weighted rank aggregation backends and the built-in benchmark.

Shows the three aggregation families on hand-made lists, the candidate
truncation that keeps the Markov chain small, and the frozen 10-sample
benchmark reproduction.
"""

import numpy as np

from rankal import (
    BordaConfig,
    borda_aggregate,
    bucklin_aggregate,
    kendall_distance,
    markov_aggregate,
    spearman_distance,
    truncate_candidates,
)
from rankal.toy import format_toy_report, run_toy_benchmark

# --- three lists that mostly agree, one dissenter ------------------------
lists = np.array([
    [1, 2, 3, 4, 5],
    [2, 1, 3, 4, 5],
    [5, 4, 1, 2, 3],
], dtype=float)
weights = np.array([0.4, 0.4, 0.2])

for name, ranking in [
    ("borda p-norm", borda_aggregate(lists, weights, BordaConfig("pnorm"))),
    ("bucklin", bucklin_aggregate(lists, weights)),
    ("markov mc2", markov_aggregate(lists, weights, variant="mc2", truncate=False)),
]:
    print(f"{name:14s} order={ranking.ids.tolist()} ranks={ranking.ranks.tolist()}")

# --- distances between rankings ------------------------------------------
a, b = lists[0], lists[2]
print(f"\nkendall([1..5], dissenter) = {kendall_distance(a, b)}, "
      f"spearman = {spearman_distance(a, b)}")

# --- truncation keeps the chain tiny even for huge pools ------------------
rng = np.random.default_rng(0)
big = np.array([rng.permutation(5000) + 1 for _ in range(3)], dtype=float)
cand = truncate_candidates(big, [False, False, False], n_select=1, tun2=5)
print(f"\n5000-sample pool truncates to {len(cand)} candidates "
      f"(top-6 union across 3 lists)")

# --- the embedded benchmark with frozen expectations ----------------------
print("\nbuilt-in 10-sample benchmark:")
print(format_toy_report(run_toy_benchmark()))
