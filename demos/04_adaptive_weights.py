"""Self-adaptive criterion weights and how they evolve over a run.

A criterion whose sorted score list drops sharply right after the batch
boundary is being decisive, so it earns a high weight.  Committee criteria
are scored by how rarely the rest of the pool ties the boundary score.
Weights are recomputed every iteration, so the trade-off between criteria
shifts as labeling progresses.
"""

import numpy as np

from rankal import (
    ALConfig,
    SplitSpec,
    benchmark_blobs,
    normalize_features,
    run_active_learning,
    split_pool,
)
from rankal.weighting import blend_weights, bvsb_weight, duplicate_weight

# --- the two raw weight rules on hand-made score lists -------------------
step = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])    # ideal: batch clearly separated
flat = np.full(6, 0.5)                              # useless: no signal at all
print("BVSB weight, ideal step list:", bvsb_weight(step, 2))
print("BVSB weight, constant list:  ", bvsb_weight(flat, 2))

ladder = np.array([0.1, 0.1, 0.1, 0.4, 0.4, 0.9])   # committee-style duplicates
print("duplicate weight, ladder list:", duplicate_weight(ladder, 1))

# --- group-mass law: committee and non-committee split the mass ----------
wv = blend_weights([0.9, 0.2, 0.6], [False, False, True])
print("\nweights for (diversity, margin, qbc):", np.round(wv.weights, 4))
print("non-committee mass:", wv.weights[:2].sum(), " committee mass:", wv.weights[2])

# --- live weight trajectory over a short run ------------------------------
data = normalize_features(benchmark_blobs(seed=0))
test, pool = split_pool(data, SplitSpec(0.5, 3))
# 4 initial labels plus one query per iteration: 0.06 of the 300-sample pool
# (18 labels) covers the 12 iterations shown
cfg = ALConfig(criteria=("diversity", "margin", "qbc"), aggregator="mc2", seed=3,
               budget=0.06, checkpoints=(0.06,))
trace = run_active_learning(pool, test, cfg)

print("\niter   diversity   margin      qbc")
for rec in trace.iterations[:12]:
    d, m, q = (rec.weights[c] for c in cfg.criteria)
    print(f"{rec.iteration:4d}   {d:.4f}      {m:.4f}     {q:.4f}")
print("(the committee weight stays at its group share; the other two trade off)")
