"""Build a small truss, analyze it, then size it with the hybrid optimizer.

Run:  python3 demos/quickstart.py
"""

import numpy as np

from trussopt import analysis, ga, hybrid
from trussopt.model import Material, MemberGroup, make_model
from trussopt.penalty import evaluate_constraints

# A three-member planar bracket: two wall anchors, one loaded tip node.
# Units: inches, kips, ksi, lb/in^3.
model = make_model(
    "bracket",
    nodes=[(0, 0), (0, 120), (140, 60)],
    elements=[(0, 2, 0), (1, 2, 0), (0, 1, 1)],
    groups=[
        MemberGroup(0.1, 20.0, 25.0, 25.0),
        MemberGroup(0.1, 20.0, 25.0, 25.0),
    ],
    material=Material(10000.0, 0.1),
    supports=[(0, "xy"), (1, "xy")],
    load_cases=[{2: (0.0, -40.0)}],
    displacement_limits=[([2], "xy", 0.8)],
)

# Linear-elastic analysis at a trial design: two area groups.
trial = np.array([3.0, 1.0])
result = analysis.analyze(model, trial)
print("trial design", trial)
print("  weight          %.1f lb" % result.weight)
print("  tip displacement (%.4f, %.4f) in"
      % tuple(result.cases[0].displacements[2, :2]))
print("  member stresses", np.round(result.cases[0].element_stresses, 2), "ksi")

report = evaluate_constraints(result)
print("  feasible:", report.feasible,
      "(total violation %.4f)" % report.total)

# Optimize. One seed fully determines the run.
params = hybrid.HybridParams(
    t_sa=10,
    ga=ga.GaParams(population_size=30, max_generations=60),
)
record = hybrid.run(model, params, seed=1)

best = record.best
print("\noptimized design", np.round(best.design, 4))
print("  weight          %.1f lb" % best.weight)
print("  feasible:", record.best_is_feasible)
print("  analyses used:", record.total_evaluations)

print("\nconvergence (every 10 generations):")
for st in record.history[::10]:
    w = ("%.1f" % st.best_feasible_weight
         if not np.isnan(st.best_feasible_weight) else "-")
    print(f"  gen {st.generation:3d}  best F {st.best_F:9.2f}  "
          f"best feasible weight {w}")
