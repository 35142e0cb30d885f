import numpy as np
import pytest
from scipy import stats

from trussopt import ga
from trussopt.annealing import (DimensionMismatch, NonPositiveTemperature,
                                SaParams, acceptance_probability, anneal,
                                initial_radii, sa_run, sample_neighbor)
from trussopt.ga import GaParams, init_population
from trussopt.penalty import PenaltyParams, penalized_objective


def test_initial_radii_are_per_variable_spread():
    designs = [np.array([1.0 + 0.1 * k, 5.0]) for k in range(10)]
    radii = initial_radii(designs, np.array([0.0, 0.0]),
                          np.array([10.0, 10.0]))
    assert radii[0] == pytest.approx(0.9, rel=1e-12)
    # identical second variable floors at 1% of the bound range
    assert radii[1] == pytest.approx(0.1, rel=1e-12)


def test_initial_radii_require_exactly_ten():
    designs = [np.zeros(2)] * 9
    with pytest.raises(DimensionMismatch):
        initial_radii(designs, np.zeros(2), np.ones(2))


def test_acceptance_boundary_and_worked_example():
    assert acceptance_probability(5.0, 5.0, 1.0) == 1.0
    assert acceptance_probability(5.0, 4.0, 1.0) == 1.0
    assert acceptance_probability(5.0, 10.0, 5.0) == pytest.approx(
        np.exp(-1.0), rel=1e-12)


def test_acceptance_rejects_nonpositive_temperature():
    with pytest.raises(NonPositiveTemperature):
        acceptance_probability(1.0, 2.0, 0.0)


def test_sample_neighbor_uniform_by_ks():
    # per-dimension KS test against the exact box at the 1% level
    rng = np.random.default_rng(17)
    center = np.array([5.0, 2.0])
    radii = np.array([1.0, 0.5])
    lo = np.array([0.0, 0.0])
    hi = np.array([100.0, 100.0])  # non-binding, box stays intact
    draws = np.array([sample_neighbor(center, radii, rng, lo, hi)
                      for _ in range(100_000)])
    for j in range(2):
        u = (draws[:, j] - (center[j] - radii[j])) / (2 * radii[j])
        assert stats.kstest(u, "uniform").pvalue > 0.01


def test_sample_neighbor_clamped_to_bounds():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        x = sample_neighbor(np.array([0.05]), np.array([0.5]), rng,
                            np.array([0.0]), np.array([1.0]))
        assert 0.0 <= x[0] <= 1.0


def test_sample_neighbor_dimension_mismatch():
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionMismatch):
        sample_neighbor(np.zeros(3), np.zeros(2), rng, np.zeros(3), np.ones(3))


def test_trace_best_value_monotone():
    rng = np.random.default_rng(9)
    params = SaParams(max_iterations=300, stagnation_window=10_000)
    _, _, trace = anneal(lambda x: float((x[0] - 2) ** 2), np.array([4.0]),
                         4.0, np.array([1.0]), np.array([0.1]),
                         np.array([5.0]), params, rng)
    bests = [row[3] for row in trace]
    assert all(b <= a + 1e-15 for a, b in zip(bests, bests[1:]))


def test_anneal_never_worse_than_start():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        _, f_best, _ = anneal(lambda x: float(np.sin(7 * x[0]) + x[0] ** 2),
                              np.array([3.0]), float(np.sin(21.0) + 9.0),
                              np.array([1.0]), np.array([-5.0]),
                              np.array([5.0]), SaParams(), rng)
        assert f_best <= np.sin(21.0) + 9.0 + 1e-15


def test_convex_surrogate_reaches_grid_optimum():
    # f(a) = (a - 2)^2 on [0.1, 5]; compare with a brute-force grid at
    # resolution 1e-4 and require 95/100 seeds within 10 * epsilon
    lo, hi = 0.1, 5.0
    grid = np.arange(lo, hi + 1e-4, 1e-4)
    f = lambda a: (a - 2.0) ** 2
    grid_best = grid[np.argmin(f(grid))]
    start = 4.5
    epsilon = 1e-6 * f(start)
    # stagnation and temperature exits are disabled so termination is by
    # iteration count; a cool start and a patient radius threshold keep
    # the DNS contraction in step with actual progress
    params = SaParams(max_iterations=4000, stagnation_window=100_000,
                      t_min_fraction=1e-30,
                      initial_temperature_fraction=1e-3, radius_beta=20)
    good = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        best, f_best, _ = anneal(lambda x: float(f(x[0])), np.array([start]),
                                 float(f(start)), np.array([1.0]),
                                 np.array([lo]), np.array([hi]), params, rng)
        if abs(best[0] - grid_best) <= 10 * epsilon:
            good += 1
    assert good >= 95


def test_sa_run_freezes_penalty_iteration(small_model, priced_at):
    pp = PenaltyParams(alpha=100.0)
    pop = init_population(small_model, GaParams(population_size=10), pp, 0)
    order = sorted(pop.individuals, key=lambda i: i.penalized)
    priced = priced_at(ga, "evaluate_design")
    best, trace = sa_run(order[0], order[:10], small_model, SaParams(),
                         pp, frozen_iteration=7, rng=np.random.default_rng(0))
    assert priced == [7] * len(trace)
    assert best.penalized <= order[0].penalized
    assert best.penalized == penalized_objective(
        best.weight, best.violation_total, pp, 7) or best is order[0]
    assert len(trace) >= 1


@pytest.mark.parametrize("field, value", [
    ("stagnation_window", 0), ("stagnation_window", -3),
    ("stagnation_window", 6.0), ("radius_beta", 0), ("radius_beta", np.nan),
    ("max_iterations", -1), ("max_iterations", 0),
    ("initial_temperature_fraction", -0.1),
    ("initial_temperature_fraction", 0.0),
    ("initial_temperature_fraction", np.nan),
    ("t_min_fraction", 0.0), ("t_min_fraction", 1.0),
    ("t_min_fraction", np.nan), ("epsilon_fraction", -1e-6),
    ("epsilon_fraction", np.nan), ("epsilon_fraction", np.inf),
    ("radius_gamma", np.nan),
])
def test_params_reject_values_that_break_or_empty_a_burst(field, value):
    # 0 would silently read as the default, -3 raised IndexError inside
    # anneal, and a negative iteration cap or temperature ran no iteration
    with pytest.raises(ValueError, match=field):
        SaParams(**{field: value})
