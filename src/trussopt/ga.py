"""Real-coded genetic algorithm with fitness-proportionate selection.

Minimization is mapped onto fitness by the shifted reciprocal
fitness = 1/(1 + F - F_min), which is translation invariant and strictly
positive. It is not scale invariant: selection depends on the absolute
differences F - F_min in lb, not only on the ordering of penalized
objectives, so where designs differ by hundreds of lb (200bar) the best
design takes almost the whole mating pool. All randomness flows through
a single numpy Generator owned by the population, so runs are
reproducible bit for bit.

A generation's children are made in three stages. `draw_children` makes
every generator call, in the order that breeding one child at a time
would make them; the operators then work on all children stacked as one
(B, n) array, with the same elementwise arithmetic as on one child; and
`Analyzer.evaluate_many` analyzes them EVALUATION_CHUNK at a time, bit
for bit as `Analyzer.evaluate` would one at a time. Analysis never
touches the generator, so drawing first changes no number.
"""

from dataclasses import dataclass, field, replace
from numbers import Integral
from operator import attrgetter

import numpy as np

from . import analysis
from .model import clamp
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

    def __post_init__(self):
        # each check fails on a NaN; a count is an int, as it sizes arrays
        # and slices the population
        for name in ("population_size", "elite_count", "max_generations"):
            if not isinstance(getattr(self, name), Integral):
                raise ValueError(f"{name} must be a whole number")
        if self.population_size < 10:
            raise ValueError("population_size must be >= 10")
        if self.max_generations < 0:
            raise ValueError("max_generations must be >= 0")
        if not 0 <= self.elite_count < self.population_size:
            raise ValueError("elite_count must be < population_size")
        if not 0 <= self.crossover_rate <= 1:
            raise ValueError("crossover_rate must lie in [0, 1]")
        if not (self.mutation_rate is None or 0 <= self.mutation_rate <= 1):
            raise ValueError("mutation_rate must be None or lie in [0, 1]")
        if not 0 <= self.mutation_sigma_fraction < np.inf:
            raise ValueError("mutation_sigma_fraction must be finite and >= 0")

    def resolved_mutation_rate(self, n_variables):
        return 1.0 / n_variables if self.mutation_rate is None else self.mutation_rate


@dataclass
class Population:
    individuals: list
    generation: int
    rng: "np.random.Generator" = field(repr=False)


# designs per Analyzer.evaluate_many call. All 49 children at once ran
# slower on 200bar (CHANGES.md); 8 is the largest size at which any 8
# consecutive evaluate_design calls span a whole chunk's analyses, as
# the pacing of bench/workloads.py assumes
EVALUATION_CHUNK = 8


def evaluate_design(model, areas, penalty_params, iteration, evaluation=None):
    """The Individual of one design: clamp and analyze it (Analyzer.evaluate),
    or take `evaluation`, what that would return, already computed (an
    entry of Analyzer.evaluate_many, or an analysis of the polish). A
    singular design's inf weight and violation total give it F = inf."""
    if evaluation is None:
        evaluation = analysis.get_analyzer(model).evaluate(areas)
    areas, weight, total = evaluation
    F = penalized_objective(weight, total, penalty_params, iteration)
    return Individual(design=areas, weight=weight, violation_total=total,
                      penalized=F, evaluated_at_generation=iteration)


def evaluate_designs(model, designs, penalty_params, iteration):
    """One Individual per row of `designs`, in row order, each made by
    one evaluate_design call from Analyzer.evaluate_many's entry. The
    short chunk goes first, so that any EVALUATION_CHUNK consecutive
    calls span one whole chunk's analyses."""
    an = analysis.get_analyzer(model)
    individuals = []
    start = 0
    for stop in range(len(designs) % EVALUATION_CHUNK or EVALUATION_CHUNK,
                      len(designs) + 1, EVALUATION_CHUNK):
        chunk = designs[start:stop]
        for areas, evaluation in zip(chunk, an.evaluate_many(chunk)):
            individuals.append(evaluate_design(model, areas, penalty_params,
                                               iteration, evaluation))
        start = stop
    return individuals


def reevaluate(ind, penalty_params, iteration):
    """Recompute F at a new penalty iteration without re-analyzing."""
    F = penalized_objective(ind.weight, ind.violation_total, penalty_params, iteration)
    return replace(ind, penalized=F, evaluated_at_generation=iteration)


def uniform_box(rng, low, high, rows=None):
    """One uniform draw in the box [low, high) of 1-D float arrays:
    `rng.uniform(low, high)` bit for bit, drawing the same numbers from
    the stream, since uniform computes low + (high - low) * random()
    too. With `rows`, that many draws stacked, as `rows` calls in turn
    would make them. Bounds must be finite (validate rejects non-finite
    area bounds): where uniform raises OverflowError, this returns inf
    or nan."""
    return low + (high - low) * rng.random(len(low) if rows is None
                                           else (rows, len(low)))


def init_population(model, ga_params, penalty_params, seed):
    rng = np.random.default_rng(seed)
    lo, hi = model.area_bounds()
    designs = uniform_box(rng, lo, hi, ga_params.population_size)
    return Population(individuals=evaluate_designs(model, designs, penalty_params, 1),
                      generation=0, rng=rng)


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


def draw_children(rng, need, n, crossover_rate):
    """Every generator call for `need` children of n variables, in the
    order of breeding them a pair at a time. Per pair: random() decides
    the crossover (crossing below crossover_rate), and a crossing pair
    draws random(n) for each child. Then per child kept: random(n) and
    standard_normal(n) for its mutation; the dropped sibling of an odd
    last child draws nothing. Returns the crossing mask (pairs,), the
    blend draws of the first and second children (2, pairs, n), zero for
    a pair that does not cross, and the mutation draws u and z, (need, n)
    each."""
    pairs = (need + 1) // 2
    crossing = np.zeros(pairs, dtype=bool)
    blend = np.zeros((2, pairs, n))
    u, z = np.empty((need, n)), np.empty((need, n))
    for p in range(pairs):
        if rng.random() < crossover_rate:
            crossing[p] = True
            rng.random(out=blend[0, p])
            rng.random(out=blend[1, p])
        for k in range(2 * p, min(2 * p + 2, need)):
            rng.random(out=u[k])
            rng.standard_normal(out=z[k])
    return crossing, blend, u, z


def crossover(parent_a, parent_b, u1, u2, lo, hi, extension=0.5):
    """Blend crossover: each child uniform on the parent interval
    extended by `extension` of its width each side, at the draws u1 and
    u2 in [0, 1) (uniform_box's arithmetic), clamped to bounds. Parents
    and draws may be stacked (B, n)."""
    low = np.minimum(parent_a, parent_b)
    high = np.maximum(parent_a, parent_b)
    span = high - low
    a = low - extension * span
    b = high + extension * span
    return clamp(a + (b - a) * u1, lo, hi), clamp(a + (b - a) * u2, lo, hi)


def mutate(designs, u, z, lo, hi, mutation_rate, sigma_fraction):
    """Per-variable Gaussian perturbation with probability mutation_rate,
    from uniform draws u in [0, 1) and standard normal draws z shaped as
    `designs`, which may be stacked (B, n). random() and
    standard_normal() are uniform(0, 1) and normal(0, 1) bit for bit,
    without their loc/scale arithmetic."""
    out = designs.copy()
    mask = u < mutation_rate
    noise = z * sigma_fraction * (hi - lo)
    out[mask] += noise[mask]
    return clamp(out, lo, hi)


def step_generation(pop, model, ga_params, penalty_params, need=None):
    """One generational replacement step; penalty iteration = new generation.
    It breeds `need` children (default: the population less its elites)."""
    lo, hi = model.area_bounds()
    mrate = ga_params.resolved_mutation_rate(len(lo))
    new_gen = pop.generation + 1
    ranked = sorted(pop.individuals, key=attrgetter("penalized"))
    # elites carry over verbatim but their F is refreshed at the new iteration
    elites = [reevaluate(ind, penalty_params, new_gen)
              for ind in ranked[:ga_params.elite_count]]

    parents = select_mating_pool(pop)
    if need is None:
        need = len(pop.individuals) - len(elites)
    crossing, blend, u, z = draw_children(pop.rng, need, len(lo),
                                          ga_params.crossover_rate)
    # pair p mates parents 2p and 2p + 1 (cyclically); its children take
    # their rows, copies where the pair does not cross
    mates = parents[np.arange(2 * len(crossing)) % len(parents)]
    children = np.array([pop.individuals[i].design for i in mates])
    a, b = children[0::2], children[1::2]
    a[crossing], b[crossing] = crossover(a[crossing], b[crossing],
                                         *blend[:, crossing], lo, hi)
    children = mutate(children[:need], u, z, lo, hi, mrate,
                      ga_params.mutation_sigma_fraction)
    return Population(individuals=elites + evaluate_designs(
                          model, children, penalty_params, new_gen),
                      generation=new_gen, rng=pop.rng)


def best_index(pop):
    return min(range(len(pop.individuals)),
               key=lambda i: pop.individuals[i].penalized)
