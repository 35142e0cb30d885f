"""Truss sizing optimization with a hybrid SA/GA metaheuristic.

Subpackages:
  model       immutable truss problem definitions and validation
  analysis    linear-elastic direct-stiffness analysis
  penalty     normalized constraint handling and penalized objective
  ga          real-coded genetic algorithm
  annealing   simulated annealing with dynamic neighborhood contraction
  hybrid      H-SAGA orchestrator and budget-matched comparisons
  benchmarks  built-in canonical truss benchmarks with reference optima
  io          JSON model documents
  cli         command-line interface
"""

from .model import (BucklingSpec, DisplacementLimit, LoadCase, Material,
                    MemberGroup, ModelError, TrussModel, ValidationError,
                    make_model, validate)
from .analysis import (AnalysisError, AnalysisResult, Analyzer,
                       SingularStructure, analyze, structure_weight)
from .penalty import (ConstraintReport, PenaltyParams, default_penalty_params,
                      evaluate_constraints, penalized_objective)
from .ga import GaParams, Individual, Population
from .annealing import SaParams
from .hybrid import (ComparisonSummary, HybridParams, RunRecord,
                     compare_plain_ga, run)
from .benchmarks import BenchmarkEntry, builtin_models, builtin_names, get_builtin
from .io import ParseError, models_equal, parse_model, serialize_model

__version__ = "0.1.0"
