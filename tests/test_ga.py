from dataclasses import replace

import numpy as np
import pytest

from trussopt import benchmarks, ga
from trussopt.analysis import get_analyzer
from trussopt.ga import (GaParams, Individual, Population, best_index,
                         crossover, draw_children, evaluate_design,
                         evaluate_designs, fitness_values, init_population,
                         mutate, reevaluate, select_mating_pool,
                         step_generation)
from trussopt.penalty import PenaltyParams, penalized_objective


PP = PenaltyParams(alpha=100.0)


def _pop_from_values(values, seed=0):
    individuals = [Individual(design=np.array([float(v)]), weight=v,
                              violation_total=0.0, penalized=v)
                   for v in values]
    return Population(individuals=individuals, generation=1,
                      rng=np.random.default_rng(seed))


@pytest.mark.parametrize("field, value", [
    ("population_size", 12.5), ("population_size", 9), ("elite_count", 1.5),
    ("max_generations", 2.5), ("max_generations", np.nan),
    ("max_generations", -3), ("crossover_rate", np.nan),
    ("crossover_rate", 1.5), ("crossover_rate", -0.1),
    ("mutation_rate", -1.0), ("mutation_rate", 1.5), ("mutation_rate", np.nan),
    ("mutation_sigma_fraction", np.nan), ("mutation_sigma_fraction", -0.1),
    ("mutation_sigma_fraction", np.inf),
])
def test_params_reject_values_that_break_or_empty_the_ga(field, value):
    # a NaN rate crossed or mutated nothing and a NaN sigma made every
    # mutated variable NaN, silently; 2.5 generations ran 3, and a
    # fractional population or elite count raised TypeError mid-run
    with pytest.raises(ValueError, match=field):
        GaParams(**{field: value})


def test_default_mutation_rate_is_one_over_n():
    assert GaParams().resolved_mutation_rate(8) == pytest.approx(1 / 8)
    assert GaParams(mutation_rate=0.3).resolved_mutation_rate(8) == 0.3


def test_init_population_within_bounds_and_evaluated(small_model, priced_at):
    priced = priced_at(ga, "evaluate_design")
    pop = init_population(small_model, GaParams(population_size=20), PP, 3)
    assert priced == [1] * 20
    lo, hi = small_model.area_bounds()
    assert pop.generation == 0
    for ind in pop.individuals:
        assert np.all(ind.design >= lo) and np.all(ind.design <= hi)
        assert np.isfinite(ind.penalized)
        assert ind.penalized == penalized_objective(
            ind.weight, ind.violation_total, PP, 1)


def test_evaluate_design_clamps_before_analysis(small_model):
    ind = evaluate_design(get_analyzer(small_model).evaluate(np.array([99.0])),
                          PP, 1)
    assert ind.design[0] == 5.0  # area_max of the fixture


def test_fitness_shifted_reciprocal():
    fit = fitness_values(_pop_from_values([10.0, 11.0, 14.0]).individuals)
    np.testing.assert_allclose(fit, [1.0, 0.5, 0.2], rtol=1e-12)


def test_fitness_of_failed_analysis_is_zero():
    pop = _pop_from_values([10.0, np.inf])
    fit = fitness_values(pop.individuals)
    assert fit[1] == 0.0 and fit[0] == 1.0


def test_crossover_children_in_extended_interval():
    rng = np.random.default_rng(5)
    lo, hi = np.array([0.0, 0.0]), np.array([10.0, 10.0])
    a = np.array([2.0, 6.0])
    b = np.array([4.0, 3.0])
    low = np.minimum(a, b) - 0.5 * np.abs(a - b)
    high = np.maximum(a, b) + 0.5 * np.abs(a - b)
    for _ in range(10_000 // 2):
        c1, c2 = crossover(a, b, rng.random(2), rng.random(2), lo, hi)
        for c in (c1, c2):
            assert np.all(c >= np.maximum(low, lo) - 1e-12)
            assert np.all(c <= np.minimum(high, hi) + 1e-12)


def test_crossover_rate_zero_copies_parents(small_model):
    # no pair crosses or draws blend numbers, so without mutation child k
    # is a copy of mating-pool parent k
    rng = np.random.default_rng(0)
    crossing, blend, _, _ = draw_children(rng, 9, 1, crossover_rate=0.0)
    assert not crossing.any() and not blend.any()
    params = GaParams(population_size=10, crossover_rate=0.0,
                      mutation_rate=0.0)
    pop = init_population(small_model, params, PP, 0)
    twin = np.random.default_rng()
    twin.bit_generator.state = pop.rng.bit_generator.state
    parents = select_mating_pool(replace(pop, rng=twin))
    nxt = step_generation(pop, small_model, params, PP)
    for k, child in enumerate(nxt.individuals[1:]):
        a = pop.individuals[parents[k]].design
        assert child.design[0] == a[0]
        assert child.design is not a  # children are copies, parents untouched


def test_mutation_mean_is_zero():
    # with symmetric Gaussian noise the mean displacement over 1e5
    # mutated variables stays within 3 sigma of zero
    rng = np.random.default_rng(13)
    lo, hi = np.array([0.0]), np.array([1000.0])
    sigma = 0.1 * 1000.0
    n = 100_000
    designs = np.full((n, 1), 500.0)
    out = mutate(designs, rng.random((n, 1)), rng.standard_normal((n, 1)),
                 lo, hi, mutation_rate=1.0, sigma_fraction=0.1)
    total = (out[:, 0] - 500.0).sum()
    assert abs(total / n) <= 3 * sigma / np.sqrt(n)


def test_mutation_respects_bounds():
    rng = np.random.default_rng(2)
    lo, hi = np.array([0.0]), np.array([1.0])
    out = mutate(np.full((1000, 1), 0.5), rng.random((1000, 1)),
                 rng.standard_normal((1000, 1)), lo, hi, 1.0, 2.0)
    assert np.all((0.0 <= out) & (out <= 1.0))


def test_elites_survive_verbatim(small_model, priced_at):
    params = GaParams(population_size=12, elite_count=2)
    pop = init_population(small_model, params, PP, 1)
    order = sorted(pop.individuals, key=lambda i: i.penalized)
    repriced = priced_at(ga, "reevaluate")
    nxt = step_generation(pop, small_model, params, PP)
    assert repriced == [1, 1]
    assert nxt.generation == 1
    for elite, kept in zip(order[:2], nxt.individuals[:2]):
        np.testing.assert_array_equal(elite.design, kept.design)
        assert kept.penalized == penalized_objective(
            kept.weight, kept.violation_total, PP, 1)


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


def test_step_generation_breeds_the_children_asked_for(small_model, priced_at):
    params = GaParams(population_size=10, elite_count=2)
    pop = init_population(small_model, params, PP, 0)
    repriced = priced_at(ga, "reevaluate")
    priced = priced_at(ga, "evaluate_design")
    nxt = step_generation(pop, small_model, params, PP, need=3)
    assert len(nxt.individuals) == 2 + 3
    assert (repriced, priced) == ([1] * 2, [1] * 3)
    assert [i.penalized for i in nxt.individuals] == [
        penalized_objective(i.weight, i.violation_total, PP, 1)
        for i in nxt.individuals]


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
    # mutate's draws random(n) and standard_normal(n) are the numbers and
    # stream positions of uniform(size=n) and normal(0, 1, n). The scalar
    # random() of crossover and the SA acceptance test is uniform()
    a, b = _twins(seed)
    for n in (1, 10, 29):
        lo, hi = np.full(n, 0.1), np.full(n, 40.0)
        design = np.linspace(0.1, 40.0, n)
        assert mutate(design, a.random(n), a.standard_normal(n), lo, hi,
                      0.3, 0.1).tobytes() == \
            _mutate_reference(design, b, lo, hi, 0.3, 0.1).tobytes()
        assert a.random() == b.random()
        assert a.random() == b.uniform()
        assert a.random() == b.random()


def _step_reference(pop, model, ga_params, penalty_params):
    # step_generation one child at a time: draw, breed and evaluate each
    # child before the next, as written with Generator.uniform
    rng = pop.rng
    lo, hi = model.area_bounds()
    mrate = ga_params.resolved_mutation_rate(len(lo))
    new_gen = pop.generation + 1
    order = sorted(range(len(pop.individuals)),
                   key=lambda i: pop.individuals[i].penalized)
    elites = [reevaluate(pop.individuals[i], penalty_params, new_gen)
              for i in order[:ga_params.elite_count]]
    parents = select_mating_pool(pop)
    children = []
    need = len(pop.individuals) - len(elites)
    k = 0
    while len(children) < need:
        a = pop.individuals[parents[k % len(parents)]].design
        b = pop.individuals[parents[(k + 1) % len(parents)]].design
        k += 2
        if rng.random() >= ga_params.crossover_rate:
            pair = a.copy(), b.copy()
        else:
            low, high = np.minimum(a, b), np.maximum(a, b)
            span = high - low
            pair = tuple(np.clip(rng.uniform(low - 0.5 * span, high + 0.5 * span),
                                 lo, hi) for _ in range(2))
        for c in pair:
            if len(children) < need:
                c = _mutate_reference(c, rng, lo, hi, mrate,
                                      ga_params.mutation_sigma_fraction)
                children.append(evaluate_design(
                    get_analyzer(model).evaluate(c), penalty_params, new_gen))
    return Population(individuals=elites + children, generation=new_gen, rng=rng)


def _same_individuals(xs, ys):
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        assert x.design.tobytes() == y.design.tobytes()
        assert (repr(x.weight), repr(x.violation_total), repr(x.penalized)) == \
            (repr(y.weight), repr(y.violation_total), repr(y.penalized))


@pytest.mark.parametrize("name", ["18bar", "25bar"])
@pytest.mark.parametrize("size, elites", [(50, 1), (11, 2)])
@pytest.mark.parametrize("rate", [0.0, 0.9, 1.0])
def test_step_generation_matches_per_child_reference(name, size, elites, rate):
    # drawing first, breeding stacked and evaluating in batches gives the
    # designs, evaluations and stream position of one child at a time
    model = benchmarks.get_builtin(name)
    params = GaParams(population_size=size, elite_count=elites,
                      crossover_rate=rate, mutation_rate=0.3)
    pop = init_population(model, params, PP, 7)
    twin = Population(list(pop.individuals), pop.generation,
                      np.random.default_rng(7))
    twin.rng.bit_generator.state = pop.rng.bit_generator.state
    for _ in range(4):
        pop = step_generation(pop, model, params, PP)
        twin = _step_reference(twin, model, params, PP)
        _same_individuals(pop.individuals, twin.individuals)
        assert pop.rng.bit_generator.state == twin.rng.bit_generator.state


def test_init_population_matches_per_design_draws():
    model = benchmarks.get_builtin("72bar")
    pop = init_population(model, GaParams(), PP, 3)
    rng = np.random.default_rng(3)
    lo, hi = model.area_bounds()
    _same_individuals(pop.individuals,
                      [evaluate_design(get_analyzer(model).evaluate(
                          rng.uniform(lo, hi)), PP, 1) for _ in range(50)])
    assert pop.rng.bit_generator.state == rng.bit_generator.state


def test_singular_child_is_infinite_and_spares_its_neighbours(zero_bound_pair):
    # the batch's middle design leaves the apex a mechanism and fails alone
    designs = np.array([[1.0, 2.0], [0.0, 2.0], [3.0, 0.5]])
    got = evaluate_designs(zero_bound_pair, designs, PP, 4)
    assert got[1].penalized == np.inf and got[1].weight == np.inf
    assert got[1].design.tobytes() == designs[1].tobytes()
    an = get_analyzer(zero_bound_pair)
    _same_individuals([got[0], got[2]], [evaluate_design(an.evaluate(d), PP, 4)
                                         for d in designs[::2]])


def test_sa_path_scores_a_clamped_singular_design_as_infinite(zero_bound_pair):
    # one design analyzed by Analyzer.evaluate, as an SA burst does:
    # outside the bounds, it clamps to a zero area that leaves the apex a
    # mechanism
    an = get_analyzer(zero_bound_pair)
    ind = evaluate_design(an.evaluate(np.array([-1.0, 2.0])), PP, 4)
    assert ind.design.tobytes() == np.array([0.0, 2.0]).tobytes()
    assert (ind.weight, ind.violation_total, ind.penalized) == (np.inf,) * 3
