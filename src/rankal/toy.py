"""Built-in 10-sample aggregation benchmark with frozen expected outputs.

Seven rank lists over ten samples are embedded below together with the
expected aggregate rankings and summed (Kendall, Spearman-footrule)
distances for every aggregation method.  The benchmark doubles as a golden
regression test: ``run_toy_benchmark`` evaluates all eight aggregators and
checks each result against its frozen expectation.

Reproduction conventions (fixed; the frozen expectations assume them):

* the positional (Borda) fusions and the majority-voting aggregator consume
  the lists as total orders -- ties are resolved positionally via
  ``ordinalize`` -- while the Markov chain variants consume the tie-aware
  rank values directly;
* distances are always measured against the tie-aware lists as embedded;
* the Markov chains run without candidate truncation (all ten samples) and
  tun1 = 0.05; the p-norm fusion uses p = 1; weights are uniform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import AggregatedRanking, aggregate, ordinalize, ranking_distances

# rank of sample i (row) in list k (column); ties are competition-style
TOY_RANK_LISTS = np.array(
    [
        [8, 6, 3, 3, 7, 4, 1],
        [10, 8, 2, 2, 9, 5, 1],
        [2, 2, 1, 1, 5, 3, 1],
        [9, 1, 4, 4, 3, 2, 1],
        [5, 7, 8, 10, 10, 7, 5],
        [7, 10, 8, 8, 1, 1, 5],
        [6, 5, 8, 9, 8, 10, 5],
        [1, 9, 6, 7, 2, 8, 5],
        [4, 4, 5, 6, 6, 9, 5],
        [3, 3, 7, 5, 4, 6, 5],
    ],
    dtype=float,
).T  # -> (L=7, n=10)

TOY_SAMPLE_IDS = np.arange(1, 11)

KENDALL_TOL = 2
SPEARMAN_TOL = 4

# method -> (expected distances, exact expected per-sample ranks or None)
EXPECTATIONS = {
    "borda-min": ((93, 178), None),
    "borda-median": ((83, 156), None),
    "borda-pnorm": ((81, 156), (3, 5, 1, 2, 9, 7, 10, 6, 8, 4)),
    "borda-geo": ((84, 166), None),
    "bucklin": ((85, 152), None),
    "mc1": ((99, 172), None),
    "mc2": ((79, 154), None),
    "mc3": ((84, 158), None),
}

MC2_EXPECTED_TOP4 = (3, 4, 1, 2)

TOY_METHODS = tuple(EXPECTATIONS)


@dataclass(frozen=True)
class ToyResult:
    method: str
    ranking: AggregatedRanking
    kendall: int
    spearman: int
    distances_ok: bool
    exact_ok: bool

    @property
    def passed(self):
        return self.distances_ok and self.exact_ok


def aggregate_toy(method: str) -> AggregatedRanking:
    """Run one aggregation method on the embedded lists, uniform weights.

    ``aggregate``'s defaults are the conventions above: tun1 = 0.05, p = 1.
    """
    lists = TOY_RANK_LISTS if method in ("mc1", "mc2", "mc3") else ordinalize(TOY_RANK_LISTS)
    return aggregate(
        method, lists, np.ones(TOY_RANK_LISTS.shape[0]),
        ids=TOY_SAMPLE_IDS, truncate=False,
    )


def run_toy_benchmark() -> list[ToyResult]:
    """Evaluate all aggregators against the frozen expectations."""
    results = []
    for method in TOY_METHODS:
        ranking = aggregate_toy(method)
        kendall, spearman = ranking_distances(ranking.ranks, TOY_RANK_LISTS)
        (exp_k, exp_s), exact = EXPECTATIONS[method]
        distances_ok = (
            abs(kendall - exp_k) <= KENDALL_TOL
            and abs(spearman - exp_s) <= SPEARMAN_TOL
        )
        exact_ok = True
        if exact is not None:
            exact_ok = tuple(ranking.ranks) == exact
        if method == "mc2":
            exact_ok = exact_ok and tuple(ranking.top(4)) == MC2_EXPECTED_TOP4
        results.append(
            ToyResult(
                method=method,
                ranking=ranking,
                kendall=kendall,
                spearman=spearman,
                distances_ok=distances_ok,
                exact_ok=exact_ok,
            )
        )
    return results


def format_toy_report(results) -> str:
    """Human-readable matrix of per-sample ranks, distances and PASS/FAIL."""
    lines = []
    header = "sample  " + "".join(f"{r.method:>13s}" for r in results)
    lines.append(header)
    for i, sid in enumerate(TOY_SAMPLE_IDS):
        row = f"{sid:6d}  " + "".join(f"{r.ranking.ranks[i]:13d}" for r in results)
        lines.append(row)
    lines.append("kendall " + "".join(f"{r.kendall:13d}" for r in results))
    lines.append("spearman" + "".join(f"{r.spearman:13d}" for r in results))
    for r in results:
        (exp_k, exp_s), _ = EXPECTATIONS[r.method]
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status} {r.method}: distances ({r.kendall},{r.spearman}) "
            f"expected ({exp_k},{exp_s}) +-({KENDALL_TOL},{SPEARMAN_TOL})"
        )
    return "\n".join(lines)
