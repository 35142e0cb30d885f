import numpy as np
import pytest

from trussopt import ga
from trussopt.ga import (GaParams, Individual, Population, best_index,
                         crossover, evaluate_design, fitness_values,
                         init_population, mutate, select_mating_pool,
                         step_generation)
from trussopt.penalty import PenaltyParams


PP = PenaltyParams(alpha=100.0)


def _pop_from_values(values, seed=0):
    individuals = [Individual(design=np.array([float(v)]), weight=v,
                              violation_total=0.0, penalized=v,
                              evaluated_at_generation=1)
                   for v in values]
    return Population(individuals=individuals, generation=1,
                      rng=np.random.default_rng(seed))


def test_params_reject_tiny_population():
    with pytest.raises(ValueError):
        GaParams(population_size=9)


def test_params_reject_negative_generations():
    with pytest.raises(ValueError):
        GaParams(max_generations=-3)


def test_default_mutation_rate_is_one_over_n():
    assert GaParams().resolved_mutation_rate(8) == pytest.approx(1 / 8)
    assert GaParams(mutation_rate=0.3).resolved_mutation_rate(8) == 0.3


def test_init_population_within_bounds_and_evaluated(small_model):
    pop = init_population(small_model, GaParams(population_size=20), PP, 3)
    lo, hi = small_model.area_bounds()
    assert pop.generation == 0
    for ind in pop.individuals:
        assert np.all(ind.design >= lo) and np.all(ind.design <= hi)
        assert np.isfinite(ind.penalized)
        assert ind.evaluated_at_generation == 1


def test_evaluate_design_clamps_before_analysis(small_model):
    ind = evaluate_design(small_model, np.array([99.0]), PP, 1)
    assert ind.design[0] == 5.0  # area_max of the fixture


def test_fitness_shifted_reciprocal():
    fit = fitness_values(_pop_from_values([10.0, 11.0, 14.0]).individuals)
    np.testing.assert_allclose(fit, [1.0, 0.5, 0.2], rtol=1e-12)


def test_fitness_of_failed_analysis_is_zero():
    pop = _pop_from_values([10.0, np.inf])
    fit = fitness_values(pop.individuals)
    assert fit[1] == 0.0 and fit[0] == 1.0


def test_selection_frequencies_match_fitness():
    # fitness 1.0, 0.5, 0.2 -> p = (10/17, 5/17, 2/17); 3 sigma over 1e5
    pop = _pop_from_values([10.0, 11.0, 14.0], seed=11)
    rng = np.random.default_rng(7)
    draws = 100_000 // len(pop.individuals)
    counts = np.zeros(3)
    total = 0
    for _ in range(draws):
        idx = select_mating_pool(pop, rng=rng)
        assert len(idx) == len(pop.individuals)
        for i in idx:
            counts[i] += 1
        total += len(idx)
    p = np.array([10, 5, 2]) / 17.0
    sigma = np.sqrt(total * p * (1 - p))
    assert np.all(np.abs(counts - total * p) <= 3 * sigma)


def test_crossover_children_in_extended_interval():
    rng = np.random.default_rng(5)
    lo, hi = np.array([0.0, 0.0]), np.array([10.0, 10.0])
    a = np.array([2.0, 6.0])
    b = np.array([4.0, 3.0])
    low = np.minimum(a, b) - 0.5 * np.abs(a - b)
    high = np.maximum(a, b) + 0.5 * np.abs(a - b)
    for _ in range(10_000 // 2):
        c1, c2 = crossover(a, b, rng, lo, hi, crossover_rate=1.0)
        for c in (c1, c2):
            assert np.all(c >= np.maximum(low, lo) - 1e-12)
            assert np.all(c <= np.minimum(high, hi) + 1e-12)


def test_crossover_rate_zero_copies_parents():
    rng = np.random.default_rng(0)
    a, b = np.array([1.0]), np.array([2.0])
    c1, c2 = crossover(a, b, rng, np.array([0.0]), np.array([5.0]),
                       crossover_rate=0.0)
    assert c1[0] == 1.0 and c2[0] == 2.0
    assert c1 is not a  # children are copies, parents untouched


def test_mutation_mean_is_zero():
    # with symmetric Gaussian noise the mean displacement over 1e5
    # mutated variables stays within 3 sigma of zero
    rng = np.random.default_rng(13)
    lo, hi = np.array([0.0]), np.array([1000.0])
    design = np.array([500.0])
    sigma = 0.1 * 1000.0
    n = 100_000
    total = 0.0
    hits = 0
    for _ in range(n):
        out = mutate(design, rng, lo, hi, mutation_rate=1.0,
                     sigma_fraction=0.1)
        total += out[0] - 500.0
        hits += 1
    assert abs(total / hits) <= 3 * sigma / np.sqrt(hits)


def test_mutation_respects_bounds():
    rng = np.random.default_rng(2)
    lo, hi = np.array([0.0]), np.array([1.0])
    for _ in range(1000):
        out = mutate(np.array([0.5]), rng, lo, hi, 1.0, 2.0)
        assert 0.0 <= out[0] <= 1.0


def test_elites_survive_verbatim(small_model):
    params = GaParams(population_size=12, elite_count=2)
    pop = init_population(small_model, params, PP, 1)
    order = sorted(pop.individuals, key=lambda i: i.penalized)
    nxt = step_generation(pop, small_model, params, PP)
    assert nxt.generation == 1
    for elite, kept in zip(order[:2], nxt.individuals[:2]):
        np.testing.assert_array_equal(elite.design, kept.design)
        assert kept.evaluated_at_generation == 1


def test_best_monotone_with_elitism(small_model):
    # beta_exp = 0 makes F comparable across generations
    pp = PenaltyParams(alpha=100.0, beta_exp=0.0)
    params = GaParams(population_size=15, elite_count=1)
    pop = init_population(small_model, params, pp, 4)
    best = pop.individuals[best_index(pop)].penalized
    for _ in range(15):
        pop = step_generation(pop, small_model, params, pp)
        new_best = pop.individuals[best_index(pop)].penalized
        assert new_best <= best + 1e-12
        best = new_best


def test_generation_counter_advances(small_model):
    params = GaParams(population_size=10)
    pop = init_population(small_model, params, PP, 0)
    for g in range(1, 4):
        pop = step_generation(pop, small_model, params, PP)
        assert pop.generation == g
        assert len(pop.individuals) == 10


def _twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_uniform_box_is_generator_uniform(seed):
    # same floats and same stream position as Generator.uniform(low, high)
    a, b = _twins(seed)
    low = np.random.default_rng(100 + seed).uniform(-50.0, 50.0, size=29)
    high = low + np.random.default_rng(200 + seed).uniform(0.0, 80.0, size=29)
    high[3] = low[3]      # a degenerate interval
    for _ in range(50):
        assert ga.uniform_box(a, low, high).tobytes() == \
            b.uniform(low, high).tobytes()
        assert a.random() == b.random()


def _mutate_reference(design, rng, lo, hi, mutation_rate, sigma_fraction):
    # mutate as written with Generator.uniform and Generator.normal
    out = design.copy()
    mask = rng.uniform(size=len(out)) < mutation_rate
    noise = rng.normal(0.0, 1.0, size=len(out)) * sigma_fraction * (hi - lo)
    out[mask] += noise[mask]
    return np.clip(out, lo, hi)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mutate_draws_are_generator_uniform_and_normal(seed):
    # mutate draws random(n) and standard_normal(n): the numbers and
    # stream positions of uniform(size=n) and normal(0, 1, n). The scalar
    # random() of crossover and the SA acceptance test is uniform()
    a, b = _twins(seed)
    for n in (1, 10, 29):
        lo, hi = np.full(n, 0.1), np.full(n, 40.0)
        design = np.linspace(0.1, 40.0, n)
        assert mutate(design, a, lo, hi, 0.3, 0.1).tobytes() == \
            _mutate_reference(design, b, lo, hi, 0.3, 0.1).tobytes()
        assert a.random() == b.random()
        assert a.random() == b.uniform()
        assert a.random() == b.random()
