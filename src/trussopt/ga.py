"""Real-coded genetic algorithm with fitness-proportionate selection.

Minimization is mapped onto fitness by the shifted reciprocal
fitness = 1/(1 + F - F_min), which is translation invariant and strictly
positive. It is not scale invariant: selection depends on the absolute
differences F - F_min in lb, not only on the ordering of penalized
objectives, so where designs differ by hundreds of lb (200bar) the best
design takes almost the whole mating pool. All randomness flows through
a single numpy Generator owned by the population; evaluation order never
touches the generator, so runs are reproducible bit for bit.
"""

from dataclasses import dataclass, field

import numpy as np

from . import analysis
# evaluate_constraints is not called here since evaluations go through
# Analyzer.evaluate; bench/tracing.py still wraps it as ga.evaluate_constraints
from .penalty import evaluate_constraints, penalized_objective  # noqa: F401


@dataclass
class Individual:
    design: np.ndarray
    weight: float
    violation_total: float
    penalized: float
    evaluated_at_generation: int


@dataclass
class GaParams:
    population_size: int = 50
    crossover_rate: float = 0.9
    mutation_rate: float = None      # default 1/n_variables, resolved per model
    mutation_sigma_fraction: float = 0.1
    elite_count: int = 1
    max_generations: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 10:
            raise ValueError("population_size must be >= 10")
        if not 0 <= self.elite_count < self.population_size:
            raise ValueError("elite_count must be < population_size")

    def resolved_mutation_rate(self, n_variables):
        return 1.0 / n_variables if self.mutation_rate is None else self.mutation_rate


@dataclass
class Population:
    individuals: list
    generation: int
    rng: np.random.Generator = field(repr=False)


def evaluate_design(model, areas, penalty_params, iteration):
    """Analyze one clamped design (Analyzer.evaluate); analysis failure
    maps to +inf objective."""
    try:
        areas, weight, total = analysis.get_analyzer(model).evaluate(areas)
    except analysis.AnalysisError:
        return Individual(design=model.clamp(areas), weight=np.inf,
                          violation_total=np.inf, penalized=np.inf,
                          evaluated_at_generation=iteration)
    F = penalized_objective(weight, total, penalty_params, iteration)
    return Individual(design=areas, weight=weight, violation_total=total,
                      penalized=F, evaluated_at_generation=iteration)


def reevaluate(ind, penalty_params, iteration):
    """Recompute F at a new penalty iteration without re-analyzing."""
    F = penalized_objective(ind.weight, ind.violation_total, penalty_params, iteration)
    return Individual(design=ind.design, weight=ind.weight,
                      violation_total=ind.violation_total, penalized=F,
                      evaluated_at_generation=iteration)


def uniform_box(rng, low, high):
    """One uniform draw in the box [low, high) of 1-D float arrays:
    `rng.uniform(low, high)` bit for bit, drawing the same numbers from
    the stream, since uniform computes low + (high - low) * random()
    too. Bounds must be finite (validate rejects non-finite area
    bounds): where uniform raises OverflowError, this returns inf or nan."""
    return low + (high - low) * rng.random(len(low))


def init_population(model, ga_params, penalty_params):
    rng = np.random.default_rng(ga_params.seed)
    lo, hi = model.area_bounds()
    individuals = []
    for _ in range(ga_params.population_size):
        design = uniform_box(rng, lo, hi)
        individuals.append(evaluate_design(model, design, penalty_params, 1))
    return Population(individuals=individuals, generation=0, rng=rng)


def fitness_values(individuals):
    F = np.array([ind.penalized for ind in individuals])
    finite = F[np.isfinite(F)]
    f_min = finite.min() if finite.size else 0.0
    with np.errstate(over="ignore"):
        fit = 1.0 / (1.0 + F - f_min)
    return np.where(np.isfinite(F), fit, 0.0)


def select_mating_pool(pop, rng=None):
    """Indices of population_size parents, drawn with replacement
    proportionally to fitness."""
    rng = pop.rng if rng is None else rng
    fit = fitness_values(pop.individuals)
    p = fit / fit.sum()
    return rng.choice(len(pop.individuals), size=len(pop.individuals), p=p)


def crossover(parent_a, parent_b, rng, lo, hi, crossover_rate, extension=0.5):
    """Blend crossover: children uniform on the parent interval extended
    by `extension` of its width each side, clamped to bounds."""
    if rng.random() >= crossover_rate:
        return parent_a.copy(), parent_b.copy()
    low = np.minimum(parent_a, parent_b)
    high = np.maximum(parent_a, parent_b)
    span = high - low
    a = low - extension * span
    b = high + extension * span
    c1 = uniform_box(rng, a, b)
    c2 = uniform_box(rng, a, b)
    return np.clip(c1, lo, hi), np.clip(c2, lo, hi)


def mutate(design, rng, lo, hi, mutation_rate, sigma_fraction):
    """Per-variable Gaussian perturbation with probability mutation_rate.
    random() and standard_normal() are uniform(0, 1) and normal(0, 1)
    bit for bit, without their loc/scale arithmetic."""
    out = design.copy()
    mask = rng.random(len(out)) < mutation_rate
    noise = rng.standard_normal(len(out)) * sigma_fraction * (hi - lo)
    out[mask] += noise[mask]
    return np.clip(out, lo, hi)


def step_generation(pop, model, ga_params, penalty_params):
    """One generational replacement step; penalty iteration = new generation."""
    lo, hi = model.area_bounds()
    mrate = ga_params.resolved_mutation_rate(len(lo))
    new_gen = pop.generation + 1
    order = sorted(range(len(pop.individuals)),
                   key=lambda i: pop.individuals[i].penalized)
    # elites carry over verbatim but their F is refreshed at the new iteration
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
        c1, c2 = crossover(a, b, pop.rng, lo, hi, ga_params.crossover_rate)
        for c in (c1, c2):
            if len(children) < need:
                c = mutate(c, pop.rng, lo, hi, mrate,
                           ga_params.mutation_sigma_fraction)
                children.append(evaluate_design(model, c, penalty_params, new_gen))
    return Population(individuals=elites + children, generation=new_gen,
                      rng=pop.rng)


def best_index(pop):
    return min(range(len(pop.individuals)),
               key=lambda i: pop.individuals[i].penalized)
