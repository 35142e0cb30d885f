"""Tour of the built-in benchmarks: reference cross-checks, a full
optimization run, and a budget-matched hybrid vs. plain-GA comparison.

Run:  python3 demos/benchmark_tour.py        (takes several seconds)
"""

import numpy as np

from trussopt import benchmarks, ga, hybrid

# 1. Every built-in carries the best published area vector and weight.
#    Re-evaluating that vector checks our model geometry and analyzer.
print("reference-vector cross-checks")
print(f"{'model':14s} {'weight':>10s} {'published':>10s} {'worst margin':>13s}")
for name, entry in benchmarks.builtin_models().items():
    weight, worst = benchmarks.cross_check(entry)
    print(f"{name:14s} {weight:10.2f} {entry.reference_weight:10.2f} "
          f"{worst * 100:12.3f}%")
print("(margin is the largest normalized constraint violation; 0.5% slack")
print(" covers the 4-digit rounding of published vectors; the 200-bar")
print(" weight gap fits truncated rather than rounded published areas)\n")

# 2. A full run on the 25-bar transmission tower.
model = benchmarks.get_builtin("25bar")
params = hybrid.HybridParams(ga=ga.GaParams(max_generations=300))
record = hybrid.run(model, params, seed=7)
print("25-bar run, seed 7:")
print("  best weight %.2f lb (published optimum 544.88 lb)"
      % record.best.weight)
print("  areas", np.round(record.best.design, 4))
print("  %d analyses in %.1f s\n"
      % (record.total_evaluations, record.wall_time))

# 3. Does the annealing stage actually help? Paired seeds, equal budgets.
summary = hybrid.compare_plain_ga(
    model, hybrid.HybridParams(ga=ga.GaParams(max_generations=150)),
    seeds=range(5))
print("hybrid vs plain GA on 25-bar (5 paired seeds, equal budgets):")
for s, hw, pw in zip(summary.seeds, summary.hybrid_weights,
                     summary.plain_weights):
    print(f"  seed {s}: hybrid {hw:7.2f}  plain {pw:7.2f}")
print("  medians: hybrid %.2f, plain %.2f"
      % (summary.hybrid_median, summary.plain_median))
