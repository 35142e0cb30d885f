"""Constraint violations and the iteration-dependent penalty objective.

An analysis returns its constraints normalized (g = quantity/limit - 1,
AnalysisResult.margins), so stresses in ksi and displacements in inches
contribute on the same scale and a single penalty factor is meaningful
across both families; this module clips and sums them.
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
        # written so that a NaN fails each check
        if not 0 < self.alpha < np.inf:
            raise ValueError("alpha must be finite and > 0")
        if not 0 <= self.beta_exp < np.inf:
            raise ValueError("beta_exp must be finite and >= 0")


def default_penalty_params(model):
    """Self-scaling alpha: the weight of the all-areas-at-max design.

    A unit total violation then roughly doubles the objective of a
    heavy design, which needs no per-model tuning.
    """
    _, area_max = model.area_bounds()
    alpha = analysis.structure_weight(model, area_max)
    return PenaltyParams(alpha=alpha)


def evaluate_constraints(result):
    """Build a ConstraintReport from an AnalysisResult: one violation per
    constraint row, case by case."""
    violations = np.maximum(result.margins.ravel(), 0.0)
    total = float(violations.sum())
    return ConstraintReport(violations=violations, total=total,
                            feasible=(total == 0.0))


def penalty(total, params, iteration):
    """p = alpha * iteration^beta_exp * total, where total = sum(S_i)
    is a ConstraintReport's total; zero iff feasible."""
    if iteration < 1:
        raise ValueError("iteration must be >= 1")
    return params.alpha * iteration ** params.beta_exp * total


def penalized_objective(weight, total, params, iteration):
    """F = f + p; equals the raw weight exactly on feasible designs."""
    return weight + penalty(total, params, iteration)
