"""Simulated annealing with dynamic neighborhood search.

The neighborhood is a per-variable box whose radii come from the spread
of the 10 best individuals of the launching population. Radii only ever
shrink: after `radius_beta` consecutive iterations without improving the
best-so-far, every radius is divided by `radius_gamma`. Temperature
drops by `cooling_alpha` once per n_variables iterations.

The annealer itself only needs a scalar objective, so `anneal` works on
any callable; `sa_run` wraps it for truss designs with the penalty
iteration frozen at the launching generation.
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import analysis, ga
from .model import clamp


class DimensionMismatch(ValueError):
    pass


class NonPositiveTemperature(ValueError):
    pass


@dataclass(frozen=True)
class SaParams:
    initial_temperature_fraction: float = 0.1
    cooling_alpha: float = 0.95
    t_min_fraction: float = 1e-4         # T_MIN as a fraction of T0
    epsilon_fraction: float = 1e-6       # search precision as fraction of F(start)
    stagnation_window: int = None        # default 6 * n_variables
    radius_beta: int = None              # default 2 * n_variables
    radius_gamma: float = 2.0
    max_iterations: int = None           # default 200 * n_variables

    def __post_init__(self):
        # each check fails on a NaN; a count of None reads as anneal's
        # default, and a count is an int, as the window indexes the trace
        for name in ("stagnation_window", "radius_beta", "max_iterations"):
            count = getattr(self, name)
            if not (count is None or isinstance(count, Integral) and count >= 1):
                raise ValueError(f"{name} must be None or a whole number >= 1")
        for name, low, high in (("cooling_alpha", 0, 1), ("t_min_fraction", 0, 1),
                                ("radius_gamma", 1, np.inf),
                                ("initial_temperature_fraction", 0, np.inf)):
            if not low < getattr(self, name) < high:
                raise ValueError(f"{name} must lie in ({low}, {high})")
        if not 0 <= self.epsilon_fraction < np.inf:
            raise ValueError("epsilon_fraction must be finite and >= 0")


def initial_radii(top10, lo, hi):
    """Per-variable max-min spread over the 10 best designs.

    A zero spread would freeze that variable, so it is floored at 1% of
    the variable's bound range.
    """
    designs = np.asarray(top10, dtype=float)
    if designs.shape[0] != 10:
        raise DimensionMismatch("exactly 10 designs required")
    if designs.ndim != 2:
        raise DimensionMismatch("designs must share one dimension")
    radii = designs.max(axis=0) - designs.min(axis=0)
    floor = 0.01 * (np.asarray(hi, dtype=float) - np.asarray(lo, dtype=float))
    return np.where(radii > 0, radii, floor)


def acceptance_probability(f_current, f_candidate, temperature):
    if temperature <= 0:
        raise NonPositiveTemperature("temperature must be positive")
    if f_candidate <= f_current:
        return 1.0
    return float(np.exp((f_current - f_candidate) / temperature))


def sample_neighbor(center, radii, rng, lo, hi):
    """Uniform draw in the box [center - radii, center + radii], clamped."""
    center = np.asarray(center, dtype=float)
    if center.shape != np.shape(radii):
        raise DimensionMismatch("center and radii dimensions differ")
    draw = ga.uniform_box(rng, center - radii, center + radii)
    return clamp(draw, lo, hi)


def anneal(objective, start_design, start_value, radii, lo, hi, params, rng):
    """Core SA loop on an arbitrary objective. Returns
    (best_design, best_value, trace) with trace rows
    (iteration, temperature, radii_norm, best_value)."""
    n = len(start_design)
    beta = params.radius_beta or 2 * n
    max_iter = params.max_iterations or 200 * n
    # three radius-halving periods: roughly how long a burst stays productive
    window = params.stagnation_window or 6 * n
    T = params.initial_temperature_fraction * abs(start_value)
    if T <= 0:
        T = params.initial_temperature_fraction
    t_min = params.t_min_fraction * T
    epsilon = params.epsilon_fraction * abs(start_value)

    radii = np.array(radii, dtype=float)
    radii_norm = float(np.linalg.norm(radii))
    center = np.array(start_design, dtype=float)
    since_improvement = 0
    f_cur = start_value
    best = center.copy()
    f_best = f_cur
    trace = []
    it = 0
    while it < max_iter and T >= t_min:
        it += 1
        cand = sample_neighbor(center, radii, rng, lo, hi)
        f_cand = objective(cand)
        if rng.random() < acceptance_probability(f_cur, f_cand, T):
            center = cand
            f_cur = f_cand
        if f_cur < f_best:
            f_best = f_cur
            best = center.copy()
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= beta:
                radii = radii / params.radius_gamma
                radii_norm = float(np.linalg.norm(radii))
                since_improvement = 0
        if it % n == 0:
            T *= params.cooling_alpha
        trace.append((it, T, radii_norm, f_best))
        # stagnation: mean improvement of the best over the last window
        if it > window and (trace[-window][3] - f_best) / window < epsilon:
            break
    return best, f_best, trace


def sa_run(start, top10, model, sa_params, penalty_params, frozen_iteration, rng):
    """SA from the fittest individual; penalty iteration held constant.

    Each candidate is analyzed here, by one Analyzer.evaluate call, and
    priced by one ga.evaluate_design call. Returns (best Individual,
    trace): `start` itself unless a candidate went below it, else the
    first candidate of least penalized objective, which anneal always
    accepts and so returns as its best.
    """
    lo, hi = model.area_bounds()
    radii = initial_radii([ind.design for ind in top10], lo, hi)
    an = analysis.get_analyzer(model)
    best = start

    def objective(design):
        nonlocal best
        ind = ga.evaluate_design(an.evaluate(design), penalty_params,
                                 frozen_iteration)
        if ind.penalized < best.penalized:
            best = ind
        return ind.penalized

    _, _, trace = anneal(objective, start.design, start.penalized, radii,
                         lo, hi, sa_params, rng)
    return best, trace
