"""Full query loops: multi-criteria fusion against the baselines.

Runs the fused strategy (diversity + margin + committee, Markov-chain
aggregation) next to random sampling and the serial/parallel baselines on
the bundled benchmark blobs, and prints the learning curves.  One seed and
a 20% budget keep this demo quick; add seeds to SEEDS to average over
splits, as the acceptance suite does with ten seeds to 30%.
"""


from rankal import ALConfig, LearningCurve, SplitSpec, benchmark_blobs, normalize_features, run_active_learning, split_pool

CHECKPOINTS = (0.1, 0.15, 0.2)
SEEDS = (0,)

methods = {
    "fused-mc2": dict(
        strategy="fused", criteria=("diversity", "margin", "qbc"), aggregator="mc2"
    ),
    "serial": dict(
        strategy="serial", criteria=("diversity", "margin"), serial_layers=(30, 1)
    ),
    "parallel": dict(
        strategy="parallel", criteria=("diversity", "margin"), fixed_weights=(0.5, 0.5)
    ),
    "random": dict(strategy="random"),
}

curves, traces_by_method = {}, {}
for name, spec in methods.items():
    traces = []
    for seed in SEEDS:
        data = normalize_features(benchmark_blobs(seed=0))
        test, pool = split_pool(data, SplitSpec(0.5, 1000 + seed))
        cfg = ALConfig(name=name, budget=CHECKPOINTS[-1], checkpoints=CHECKPOINTS,
                       seed=seed, **spec)
        traces.append(run_active_learning(pool, test, cfg))
    curves[name] = LearningCurve.from_traces(traces)
    traces_by_method[name] = traces

print(f"mean test accuracy by labeled fraction over seeds {SEEDS}")
print("method      " + "".join(f"{c:>8.0%}" for c in CHECKPOINTS))
for name, curve in curves.items():
    print(f"{name:12s}" + "".join(f"{v:8.3f}" for v in curve.mean))

trace = traces_by_method["fused-mc2"][0]
print("\nfirst queries of the seed-0 fused run (pool ids and weights at selection time):")
for rec in trace.iterations[:5]:
    ws = {k: round(v, 3) for k, v in rec.weights.items()}
    print(f"  iter {rec.iteration}: picked {rec.selected} weights {ws}")
