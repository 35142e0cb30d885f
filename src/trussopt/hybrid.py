"""Hybrid annealing/genetic orchestrator.

Runs the GA generation loop; every t_sa generations an SA local search
starts from the fittest individual, with its neighborhood radii taken
from the 10 best individuals and the penalty iteration frozen at the
launching generation. The SA result replaces a victim drawn with
probability proportional to inverse fitness (the current best is never
the victim). One deterministic generator drives everything, so a
(model, params, seed) triple fully determines the RunRecord.

After the last generation, the run's best design is polished by the
method of moving asymptotes (`polish.mma`), an extension of the paper's
algorithm. A run's best design is the first minimum of `_standing` over
the initial population, every child the GA breeds, each SA burst's
result (its least-F design, not every design the burst analyzed) and
every design the polish analyzes: feasible (violation total exactly 0.0)
before infeasible, then by weight if feasible, else by penalized
objective F. So a lighter feasible design that an SA burst analyzed but
did not return is not a candidate, and a polish never makes a run's best
worse.
"""

import math
import time
from dataclasses import dataclass, field, replace
from operator import attrgetter

import numpy as np

from . import analysis, annealing, ga
from .penalty import default_penalty_params


@dataclass(frozen=True)
class HybridParams:
    t_sa: float = 1             # generations between SA launches, a whole
                                # number; inf = plain GA
    ga: "ga.GaParams" = field(default_factory=ga.GaParams)
    sa: "annealing.SaParams" = field(default_factory=annealing.SaParams)

    def __post_init__(self):
        if not (self.t_sa == math.inf
                or (self.t_sa >= 1 and self.t_sa == int(self.t_sa))):
            raise ValueError(f"t_sa must be a whole number >= 1 or inf, "
                             f"got {self.t_sa!r}")


@dataclass
class GenerationStat:
    generation: int
    best_F: float
    mean_F: float
    best_feasible_weight: float   # nan until a feasible design appears
    evaluations: int              # cumulative analysis evaluations
    sa_ran: bool


@dataclass
class RunRecord:
    history: list                 # GenerationStat per generation
    best: ga.Individual           # first minimum of _standing over the
                                  # population, children, SA burst results
                                  # and polish designs: lightest feasible,
                                  # else least F
    best_is_feasible: bool
    total_evaluations: int
    wall_time: float
    seed: int


def remove_victim_index(pop, rng=None):
    """Victim for SA injection: drawn proportionally to inverse fitness,
    with the current best individual excluded."""
    rng = pop.rng if rng is None else rng
    fit = ga.fitness_values(pop.individuals)
    # zero fitness means infinite inverse fitness: those alone are drawn
    weights = (fit == 0).astype(float) if (fit == 0).any() else 1.0 / fit
    weights[ga.best_index(pop)] = 0.0
    return int(rng.choice(len(pop.individuals), p=weights / weights.sum()))


def _standing(ind):
    # the order of merit of a run's best design; min keeps the first of equals
    feasible = ind.violation_total == 0.0
    return (not feasible, ind.weight if feasible else ind.penalized)


def run(model, params, seed=0, max_evaluations=None, polish=True):
    """Full H-SAGA run, with the self-scaling penalty of
    `default_penalty_params`. `max_evaluations` optionally caps the
    analysis budget (used for budget-matched comparisons): a generation
    it cuts breeds only the children it has left and is the last, and no
    SA burst starts once it is spent, but a burst that starts is not cut.
    The cap must be a whole number no smaller than the population, which
    the initial population spends; any other value raises ValueError
    before any analysis. With `polish`, the run's best design is then
    polished by MMA (`polish.mma`) within what is left of the budget; its
    analyses are folded into the last GenerationStat. A mechanism raises
    ModelError before any design is drawn."""
    t0 = time.perf_counter()
    ga_params = params.ga
    # written so that a NaN fails the check
    if max_evaluations is not None and not (
            ga_params.population_size <= max_evaluations < math.inf
            and max_evaluations == int(max_evaluations)):
        raise ValueError(f"max_evaluations must be a whole number >= the "
                         f"population size {ga_params.population_size}, "
                         f"got {max_evaluations!r}")
    analysis.reject_mechanism(model)
    penalty_params = default_penalty_params(model)

    pop = ga.init_population(model, ga_params, penalty_params, seed)
    evals = len(pop.individuals)
    # a whole float such as 60.0 counts as its int
    budget = math.inf if max_evaluations is None else int(max_evaluations)
    best = min(pop.individuals, key=_standing)

    history = []

    def record(sa_ran):
        F = np.array([i.penalized for i in pop.individuals])
        finite = F[np.isfinite(F)]
        history.append(GenerationStat(
            generation=pop.generation,
            best_F=float(F.min()),
            mean_F=float(finite.mean()) if finite.size else math.inf,
            best_feasible_weight=(best.weight if best.violation_total == 0.0
                                  else math.nan),
            evaluations=evals,
            sa_ran=sa_ran,
        ))

    record(False)
    while pop.generation < ga_params.max_generations and evals < budget:
        need = min(ga_params.population_size - ga_params.elite_count,
                   budget - evals)
        pop = ga.step_generation(pop, model, ga_params, penalty_params, need)
        evals += need
        best = min([best, *pop.individuals[ga_params.elite_count:]],
                   key=_standing)

        sa_ran = False
        if evals < budget and math.isfinite(params.t_sa) \
                and pop.generation % int(params.t_sa) == 0:
            top10 = sorted(pop.individuals, key=attrgetter("penalized"))[:10]
            sa_best, trace = annealing.sa_run(
                top10[0], top10, model, params.sa, penalty_params,
                frozen_iteration=pop.generation, rng=pop.rng)
            evals += len(trace)
            best = min((best, sa_best), key=_standing)
            victim = remove_victim_index(pop)
            pop.individuals[victim] = sa_best
            sa_ran = True
        record(sa_ran)

    if polish:
        from .polish import mma
        # the penalty iteration of the last generation (1 after none)
        iteration = max(pop.generation, 1)
        for evaluation in mma(analysis.get_analyzer(model), best.design,
                              budget - evals):
            ind = ga.evaluate_design(model, evaluation[0], penalty_params,
                                     iteration, evaluation)
            evals += 1
            best = min((best, ind), key=_standing)
        record(history.pop().sa_ran)
    return RunRecord(history=history, best=best,
                     best_is_feasible=best.violation_total == 0.0,
                     total_evaluations=evals,
                     wall_time=time.perf_counter() - t0,
                     seed=seed)


@dataclass
class ComparisonSummary:
    seeds: list
    hybrid_weights: list
    plain_weights: list
    hybrid_median: float
    plain_median: float
    hybrid_records: list
    plain_records: list


def compare_plain_ga(model, params, seeds):
    """Paired comparison of the hybrid against a plain GA at an equal
    analysis-evaluation budget per seed. Neither arm is polished, so the
    two searches are compared."""
    if len(seeds) < 5:
        raise ValueError("need at least 5 seeds")
    h_w, p_w, h_rec, p_rec = [], [], [], []
    for seed in seeds:
        rec_h = run(model, params, seed=seed, polish=False)
        # the plain GA gets the hybrid's exact budget, in as many generations
        budget = rec_h.total_evaluations
        plain_ga = replace(params.ga, max_generations=10 ** 9)
        rec_p = run(model, HybridParams(t_sa=math.inf, ga=plain_ga,
                                        sa=params.sa),
                    seed=seed, max_evaluations=budget, polish=False)
        h_rec.append(rec_h)
        p_rec.append(rec_p)
        h_w.append(rec_h.best.weight if rec_h.best_is_feasible else math.inf)
        p_w.append(rec_p.best.weight if rec_p.best_is_feasible else math.inf)
    return ComparisonSummary(
        seeds=list(seeds), hybrid_weights=h_w, plain_weights=p_w,
        hybrid_median=float(np.median(h_w)), plain_median=float(np.median(p_w)),
        hybrid_records=h_rec, plain_records=p_rec)
