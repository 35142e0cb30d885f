import dataclasses
import math

import numpy as np
import pytest

from trussopt import analysis, benchmarks, ga
from trussopt.analysis import Analyzer
from trussopt.hybrid import HybridParams, run
from trussopt.polish import mma


def _same_evaluation(got, expected):
    assert got[0].tobytes() == expected[0].tobytes()
    assert (repr(got[1]), repr(got[2])) == (repr(expected[1]), repr(expected[2]))


@pytest.mark.parametrize("name, weight", [
    ("10bar-case1", 5060.85), ("18bar", 6430.53), ("25bar", 545.16),
    ("72bar", 379.61)])
def test_polish_from_the_upper_bounds_reaches_the_polished_weight(name, weight):
    # no search: MMA alone from the heaviest design. Each yield is what
    # `evaluate` gives for its design, bit for bit
    model = benchmarks.get_builtin(name)
    an = Analyzer(model)
    evaluations = list(mma(an, model.area_bounds()[1]))
    for evaluation in evaluations:
        _same_evaluation(evaluation, an.evaluate(evaluation[0]))
    feasible = [w for _, w, total in evaluations if total == 0.0]
    assert min(feasible) == pytest.approx(weight, abs=0.01)


@pytest.mark.parametrize("bound", [0, 1], ids=["lower", "upper"])
@pytest.mark.parametrize("name", sorted(benchmarks.builtin_models()))
def test_polish_ends_on_a_feasible_design(name, bound):
    # the final scale puts the worst ratio, an Euler one (18bar) included,
    # on the boundary. No weight: MMA need not reach the best-known one
    # from every start (10bar-case1 ends at 5061.78 lb from its lower bounds)
    model = benchmarks.get_builtin(name)
    *_, last = mma(Analyzer(model), model.area_bounds()[bound])
    assert last[2] == 0.0


@pytest.mark.parametrize("budget", [0, 1, 2, 3, 7])
def test_polish_keeps_within_its_analyses(budget):
    model = benchmarks.get_builtin("25bar")
    an = Analyzer(model)
    start = model.area_bounds()[1]
    evaluations = list(mma(an, start, budget))
    assert len(evaluations) == (0 if budget < 2 else budget)
    if budget >= 2:
        # the start, then the last iterate scaled onto the boundary
        _same_evaluation(evaluations[0], an.evaluate(start))
        assert evaluations[-1][2] == 0.0


def test_singular_iterate_ends_the_polish(zero_bound_pair):
    an = Analyzer(zero_bound_pair)
    evaluations = list(mma(an, np.array([0.0, 2.0])))
    assert len(evaluations) == 1
    _same_evaluation(evaluations[0], (np.array([0.0, 2.0]), math.inf, math.inf))


def test_a_group_without_a_bound_range_stays_put():
    model = benchmarks.get_builtin("10bar-case1")
    groups = list(model.groups)
    groups[3] = dataclasses.replace(groups[3], area_min=7.5, area_max=7.5)
    model = dataclasses.replace(model, groups=tuple(groups))
    evaluations = list(mma(Analyzer(model), model.area_bounds()[1]))
    assert len(evaluations) > 2
    for areas, weight, total in evaluations:
        assert areas[3] == 7.5 and math.isfinite(weight) and math.isfinite(total)
    # the optimum with that group free is 5060.85 lb
    assert min(w for _, w, total in evaluations if total == 0.0) < 5500


def test_polished_run_is_lighter_and_every_analysis_is_one_evaluation(monkeypatch):
    # each polish analysis, like every other, is one factorization and one
    # ga.evaluate_design call; the last GenerationStat includes them
    model = benchmarks.get_builtin("72bar")
    params = HybridParams(ga=ga.GaParams(max_generations=10))
    plain = run(model, params, seed=3, polish=False)
    counts = {"factorize": 0, "evaluate_design": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(analysis.Analyzer, "factorize",
                        counted("factorize", analysis.Analyzer.factorize))
    monkeypatch.setattr(ga, "evaluate_design",
                        counted("evaluate_design", ga.evaluate_design))
    polished = run(model, params, seed=3)
    # reject_mechanism factors once before the run
    assert counts == {"factorize": polished.total_evaluations + 1,
                      "evaluate_design": polished.total_evaluations}
    assert polished.total_evaluations > plain.total_evaluations
    assert [h.generation for h in polished.history] == list(range(11))
    assert polished.history[:-1] == plain.history[:-1]
    last = polished.history[-1]
    assert last.evaluations == polished.total_evaluations
    assert last.best_feasible_weight == polished.best.weight
    assert polished.best_is_feasible
    assert polished.best.weight < plain.best.weight - 1.0


def test_polish_fits_inside_the_budget():
    model = benchmarks.get_builtin("25bar")
    params = HybridParams(ga=ga.GaParams(max_generations=2))
    plain = run(model, params, seed=0, polish=False)
    for spare in (0, 1, 2, 5):
        rec = run(model, params, seed=0,
                  max_evaluations=plain.total_evaluations + spare)
        assert rec.total_evaluations == plain.total_evaluations + (
            spare if spare >= 2 else 0)
        assert rec.best.weight <= plain.best.weight


def test_polish_after_no_generations():
    # the initial population's best is polished at penalty iteration 1
    model = benchmarks.get_builtin("10bar-case2")
    rec = run(model, HybridParams(ga=ga.GaParams(max_generations=0)), seed=0)
    assert len(rec.history) == 1
    assert rec.history[0].evaluations == rec.total_evaluations > 50
    assert rec.best_is_feasible
    assert rec.best.weight == pytest.approx(4676.92, abs=0.01)
