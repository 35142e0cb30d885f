"""Truss sizing optimization with a hybrid SA/GA metaheuristic.

Subpackages:
  model       immutable truss problem definitions and validation
  analysis    linear-elastic direct-stiffness analysis
  penalty     normalized constraint handling and penalized objective
  ga          real-coded genetic algorithm
  annealing   simulated annealing with dynamic neighborhood contraction
  hybrid      H-SAGA orchestrator and budget-matched comparisons
  polish      MMA polish of a run's best design (loaded by hybrid.run)
  benchmarks  built-in canonical truss benchmarks with reference optima
  io          JSON model documents
  cli         command-line interface
"""

__version__ = "0.1.0"
