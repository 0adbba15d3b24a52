"""The four query criteria and the shared sign convention.

Every criterion scores all unlabeled samples so that the MOST valuable
sample gets the LOWEST score.  Scores are then min-max normalized and turned
into competition-style ranks (tied scores share a rank).
"""

import numpy as np

from rankal import LearnerConfig, fit, fit_committee, normalize_and_rank
from rankal.criteria import score_diversity, score_margin, score_qbc, score_ted

rng = np.random.default_rng(0)
labeled_x = np.array([[0.0, 0.0], [2.0, 2.0]])
labeled_y = np.array([-1, 1])
pool = np.vstack([
    [[1.0, 1.0]],          # on the decision boundary
    [[2.1, 2.0]],          # near a labeled sample
    [[-1.5, 3.5]],         # far from everything
    rng.normal(size=(5, 2)),
])

config = LearnerConfig(kernel="rbf", gamma=1.0)
model = fit(config, labeled_x, labeled_y)
committee = fit_committee(config, labeled_x, labeled_y, g=4, seed=2)

margin = score_margin(model, pool)
diversity = score_diversity(labeled_x, pool, config)
qbc = score_qbc(committee, pool)
ted = score_ted(pool, lam=0.1)

print("sample 0 sits on the boundary -> minimal margin score:",
      np.argmin(margin) == 0)
print("sample 1 mimics a labeled point -> maximal diversity score:",
      np.argmax(diversity) == 1)

print("\nraw scores (lower = more valuable):")
for name, scores in [("margin", margin), ("diversity", diversity),
                     ("qbc", qbc), ("ted", ted)]:
    print(f"  {name:10s}", np.round(scores, 3))

# normalization and tie-aware ranking
normalized, ranks = normalize_and_rank(margin)
print("\nmargin normalized to [0,1]:", np.round(normalized, 3))
print("competition ranks:          ", ranks)

tied, tied_ranks = normalize_and_rank([0.2, 0.5, 0.2])
print("\ntied scores [0.2, 0.5, 0.2] rank as", tied_ranks, "(the '1 3 1' pattern)")
