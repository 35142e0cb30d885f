"""Hybrid annealing/genetic orchestrator.

Runs the GA generation loop; every t_sa generations an SA local search
starts from the fittest individual, with its neighborhood radii taken
from the 10 best individuals and the penalty iteration frozen at the
launching generation. The SA result replaces a victim drawn with
probability proportional to inverse fitness (the current best is never
the victim). One deterministic generator drives everything, so a
(model, params, seed) triple fully determines the RunRecord.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import annealing, ga


@dataclass
class HybridParams:
    t_sa: float = 1             # generations between SA launches; inf = plain GA
    ga: "ga.GaParams" = field(default_factory=ga.GaParams)
    sa: "annealing.SaParams" = field(default_factory=annealing.SaParams)
    penalty: object = None      # PenaltyParams; None = self-scaling default

    def __post_init__(self):
        if self.t_sa < 1:
            raise ValueError("t_sa must be >= 1")


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
    best: ga.Individual           # best feasible individual (by weight),
                                  # or best penalized if none feasible
    best_is_feasible: bool
    total_evaluations: int
    wall_time: float
    seed: int


def remove_victim_index(pop, rng=None):
    """Victim for SA injection: drawn proportionally to inverse fitness,
    with the current best individual excluded."""
    rng = pop.rng if rng is None else rng
    fit = ga.fitness_values(pop.individuals)
    inv = np.where(fit > 0, 1.0 / np.where(fit > 0, fit, 1.0), np.inf)
    best = ga.best_index(pop)
    inv[best] = 0.0
    if not np.isfinite(inv).all():
        weights = np.where(np.isfinite(inv), 0.0, 1.0)
        weights[best] = 0.0
    else:
        weights = inv
    return int(rng.choice(len(pop.individuals), p=weights / weights.sum()))


def _track_best(current, current_feasible, candidate):
    cand_feasible = candidate.violation_total == 0.0
    if current is None:
        return candidate, cand_feasible
    if cand_feasible and not current_feasible:
        return candidate, True
    if cand_feasible and current_feasible and candidate.weight < current.weight:
        return candidate, True
    if not cand_feasible and not current_feasible \
            and candidate.penalized < current.penalized:
        return candidate, False
    return current, current_feasible


def run(model, params, seed=None, max_evaluations=None):
    """Full H-SAGA run. `max_evaluations` optionally caps the analysis
    budget (used for budget-matched comparisons)."""
    from .penalty import default_penalty_params
    t0 = time.perf_counter()
    ga_params = params.ga
    if seed is not None:
        ga_params = ga.GaParams(**{**ga_params.__dict__, "seed": seed})
    penalty_params = params.penalty or default_penalty_params(model)

    pop = ga.init_population(model, ga_params, penalty_params)
    evals = len(pop.individuals)
    best, best_feasible = None, False
    for ind in pop.individuals:
        best, best_feasible = _track_best(best, best_feasible, ind)

    history = []

    def record(sa_ran):
        F = np.array([i.penalized for i in pop.individuals])
        finite = F[np.isfinite(F)]
        history.append(GenerationStat(
            generation=pop.generation,
            best_F=float(F.min()),
            mean_F=float(finite.mean()) if finite.size else math.inf,
            best_feasible_weight=best.weight if best_feasible else math.nan,
            evaluations=evals,
            sa_ran=sa_ran,
        ))

    record(False)
    while pop.generation < ga_params.max_generations:
        if max_evaluations is not None and evals >= max_evaluations:
            break
        pop = ga.step_generation(pop, model, ga_params, penalty_params)
        evals += len(pop.individuals) - ga_params.elite_count
        for ind in pop.individuals[ga_params.elite_count:]:
            best, best_feasible = _track_best(best, best_feasible, ind)

        sa_ran = False
        if math.isfinite(params.t_sa) and pop.generation % int(params.t_sa) == 0:
            order = sorted(range(len(pop.individuals)),
                           key=lambda i: pop.individuals[i].penalized)
            top10 = [pop.individuals[i] for i in order[:10]]
            sa_best, trace = annealing.sa_run(
                top10[0], top10, model, params.sa, penalty_params,
                frozen_iteration=max(pop.generation, 1), rng=pop.rng)
            evals += len(trace)
            best, best_feasible = _track_best(best, best_feasible, sa_best)
            victim = remove_victim_index(pop)
            pop.individuals[victim] = sa_best
            sa_ran = True
        record(sa_ran)
    return RunRecord(history=history, best=best, best_is_feasible=best_feasible,
                     total_evaluations=evals,
                     wall_time=time.perf_counter() - t0,
                     seed=ga_params.seed)


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
    analysis-evaluation budget per seed."""
    if len(seeds) < 5:
        raise ValueError("need at least 5 seeds")
    h_w, p_w, h_rec, p_rec = [], [], [], []
    for seed in seeds:
        rec_h = run(model, params, seed=seed)
        # give the plain GA the hybrid's budget (extra generations allowed)
        budget = rec_h.total_evaluations
        plain_ga = ga.GaParams(**{**params.ga.__dict__,
                                  "max_generations": 10 ** 9})
        rec_p = run(model, HybridParams(t_sa=math.inf, ga=plain_ga,
                                        sa=params.sa, penalty=params.penalty),
                    seed=seed, max_evaluations=budget)
        h_rec.append(rec_h)
        p_rec.append(rec_p)
        h_w.append(rec_h.best.weight if rec_h.best_is_feasible else math.inf)
        p_w.append(rec_p.best.weight if rec_p.best_is_feasible else math.inf)
    return ComparisonSummary(
        seeds=list(seeds), hybrid_weights=h_w, plain_weights=p_w,
        hybrid_median=float(np.median(h_w)), plain_median=float(np.median(p_w)),
        hybrid_records=h_rec, plain_records=p_rec)
