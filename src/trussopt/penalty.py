"""Constraint evaluation and the iteration-dependent penalty objective.

Constraints are normalized before aggregation (g = quantity/limit - 1),
so stresses in ksi and displacements in inches contribute on the same
scale and a single penalty factor is meaningful across both families.
Area bounds are never penalized; designs are clamped to bounds before
they are ever analyzed.
"""

from dataclasses import dataclass

import numpy as np

from . import analysis


@dataclass(frozen=True)
class ConstraintReport:
    """Per-constraint violation magnitudes S_i = max(g_i, 0)."""
    violations: np.ndarray   # one entry per constraint instance
    total: float             # sum of violations
    feasible: bool           # total == 0


@dataclass(frozen=True)
class PenaltyParams:
    alpha: float       # penalty scale
    beta_exp: float = 1.0   # exponent on the iteration counter

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta_exp < 0:
            raise ValueError("beta_exp must be non-negative")


def default_penalty_params(model, beta_exp=1.0):
    """Self-scaling alpha: the weight of the all-areas-at-max design.

    A unit total violation then roughly doubles the objective of a
    heavy design, which needs no per-model tuning.
    """
    _, area_max = model.area_bounds()
    alpha = analysis.structure_weight(model, area_max)
    return PenaltyParams(alpha=alpha, beta_exp=beta_exp)


def constraint_rows(model, result, areas=None):
    """The normalized constraints g = quantity/limit - 1 of a design, as an
    (n_cases, n_rows) array over the rows of the model's constraint table
    (analysis.Analyzer), and the mask of the entries in force: a buckling
    row is in force only under compression.

    Stress: against the tension limit for positive stress, the compression
    limit magnitude for negative. Buckling, for groups carrying a buckling
    record, uses the area-dependent Euler bound -K*E*A/L^2, which requires
    `areas` (group order). Displacement limits apply per node/dof/load case
    as |u|/limit - 1.
    """
    an = analysis.get_analyzer(model)
    q = np.array([np.concatenate((case.element_stresses, case.displacements.ravel()))
                  for case in result.cases])[:, an.row_source]
    lower = an.row_lower
    keep = np.ones(q.shape, dtype=bool)
    if an.buckling_row.size:
        if areas is None:
            raise ValueError("areas required for buckling constraints")
        lower = lower.copy()
        lower[an.buckling_row] = (an.buckling_coeff * np.asarray(areas, dtype=float)
                                  [an.buckling_group] / an.buckling_L2)
        keep[:, an.buckling_row] = q[:, an.buckling_row] < 0
    # the limit takes the sign of q, so q/limit = |q|/|limit|
    g = q / np.where(q >= 0, an.row_upper, lower) - 1.0
    return g, keep


def evaluate_constraints(model, result, areas=None):
    """Build a ConstraintReport from an AnalysisResult: one violation per
    row of the constraint table in force, case by case."""
    g, keep = constraint_rows(model, result, areas)
    violations = np.maximum(g[keep], 0.0)
    total = float(violations.sum())
    return ConstraintReport(violations=violations, total=total,
                            feasible=(total == 0.0))


def penalty(report, params, iteration):
    """p = alpha * iteration^beta_exp * sum(S_i); zero iff feasible."""
    if iteration < 1:
        raise ValueError("iteration must be >= 1")
    return params.alpha * iteration ** params.beta_exp * report.total


def penalized_objective(weight, report, params, iteration):
    """F = f + p; equals the raw weight exactly on feasible designs."""
    return weight + penalty(report, params, iteration)
