import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trussopt
from trussopt import analysis, benchmarks
from trussopt.ga import GaParams, Individual, Population
from trussopt.hybrid import (HybridParams, RunRecord, _standing,
                             compare_plain_ga, remove_victim_index, run)
from trussopt.model import Material, MemberGroup, ModelError, make_model


def _pop_from_values(values, seed=0):
    individuals = [Individual(design=np.array([float(v)]), weight=v,
                              violation_total=0.0, penalized=v,
                              evaluated_at_generation=1)
                   for v in values]
    return Population(individuals=individuals, generation=1,
                      rng=np.random.default_rng(seed))


def _small_params(generations=8, t_sa=3, pop=10):
    return HybridParams(t_sa=t_sa,
                        ga=GaParams(population_size=pop,
                                    max_generations=generations))


def test_params_reject_t_sa_below_one():
    with pytest.raises(ValueError):
        HybridParams(t_sa=0)


@pytest.mark.parametrize("t_sa", [math.nan, 2.5])
def test_params_reject_t_sa_not_a_whole_number(t_sa):
    with pytest.raises(ValueError, match="whole number"):
        HybridParams(t_sa=t_sa)


def test_victim_never_best_and_frequencies_match():
    # fitness 1.0, 0.5, 0.2, 0.125 -> inverse weights 0, 2, 5, 8
    pop = _pop_from_values([10.0, 11.0, 14.0, 17.0])
    rng = np.random.default_rng(23)
    n = 100_000
    counts = np.zeros(4)
    for _ in range(n):
        counts[remove_victim_index(pop, rng=rng)] += 1
    assert counts[0] == 0
    p = np.array([0.0, 2.0, 5.0, 8.0]) / 15.0
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 3 * np.maximum(sigma, 1.0))


def test_run_is_deterministic_per_seed(small_model):
    params = _small_params()
    a = run(small_model, params, seed=42)
    b = run(small_model, params, seed=42)
    assert a.total_evaluations == b.total_evaluations
    np.testing.assert_array_equal(a.best.design, b.best.design)
    assert a.best.penalized == b.best.penalized
    for sa, sb in zip(a.history, b.history):
        assert (sa.generation, sa.best_F, sa.mean_F, sa.evaluations,
                sa.sa_ran) == (sb.generation, sb.best_F, sb.mean_F,
                               sb.evaluations, sb.sa_ran)
        assert (math.isnan(sa.best_feasible_weight)
                and math.isnan(sb.best_feasible_weight)) \
            or sa.best_feasible_weight == sb.best_feasible_weight


def test_golden_run_25bar_seed_0():
    # a pinned run: a change that moves the random stream or the
    # arithmetic of an evaluation changes these figures (taken with one
    # OpenBLAS thread; 25bar gives the same under two)
    rec = run(benchmarks.get_builtin("25bar"), HybridParams(), seed=0)
    assert rec.total_evaluations == 19774
    assert repr(rec.best.weight) == "545.1627422902668"


def test_golden_run_200bar_seed_0():
    # a pinned 200bar run: stress rows only, and the largest band
    rec = run(benchmarks.get_builtin("200bar"),
              HybridParams(ga=GaParams(max_generations=30)), seed=0)
    assert rec.total_evaluations == 7844
    assert repr(rec.best.weight) == "25448.812391495765"


def _history_digest(rec):
    # every GenerationStat, floats as repr, then the best design's bytes
    h = hashlib.sha256()
    for s in rec.history:
        h.update(repr((s.generation, s.best_F, s.mean_F, s.best_feasible_weight,
                       s.evaluations, s.sa_ran)).encode())
    h.update(rec.best.design.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name, evaluations, weight, digest", [
    # buckling rows, tension ones at an infinite limit
    ("18bar", 3050, "6430.529170223323",
     "875a7903206cee2ab12a4813d637a40142b530598ea2258e13ea4b2dae5e1fd2"),
    # displacement rows
    ("72bar", 6145, "379.6148399437247",
     "31cb2b1a544d14b419b8580e62bf996393232c2219be6cc7428eb3e520073709"),
], ids=["18bar", "72bar"])
def test_golden_history(name, evaluations, weight, digest):
    # the whole history of a pinned run, not only its end (taken under
    # one and two OpenBLAS threads, which agree)
    rec = run(benchmarks.get_builtin(name),
              HybridParams(ga=GaParams(max_generations=40)), seed=0)
    assert rec.total_evaluations == evaluations
    assert repr(rec.best.weight) == weight
    assert _history_digest(rec) == digest


def test_different_seeds_differ(small_model):
    params = _small_params()
    a = run(small_model, params, seed=1)
    b = run(small_model, params, seed=2)
    # the tiny model converges to the same corner, but the sampled
    # trajectories must differ
    assert [s.best_F for s in a.history] != [s.best_F for s in b.history]


def test_sa_runs_on_schedule(small_model):
    rec = run(small_model, _small_params(generations=9, t_sa=3), seed=5)
    ran = [st.generation for st in rec.history if st.sa_ran]
    assert ran == [3, 6, 9]


def test_infinite_t_sa_is_plain_ga(small_model):
    rec = run(small_model, HybridParams(
        t_sa=math.inf, ga=GaParams(population_size=10, max_generations=6)),
        seed=3)
    assert not any(st.sa_ran for st in rec.history)


def test_t_sa_beyond_max_generations_matches_plain_ga(small_model):
    far = run(small_model, _small_params(generations=6, t_sa=50), seed=9)
    plain = run(small_model, HybridParams(
        t_sa=math.inf, ga=GaParams(population_size=10, max_generations=6)),
        seed=9)
    np.testing.assert_array_equal(far.best.design, plain.best.design)
    assert far.total_evaluations == plain.total_evaluations


def test_best_feasible_weight_trace_non_increasing(small_model):
    rec = run(small_model, _small_params(generations=12), seed=0)
    trace = [st.best_feasible_weight for st in rec.history
             if not math.isnan(st.best_feasible_weight)]
    assert trace, "expected a feasible design on this trivially feasible model"
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_evaluations_strictly_increase(small_model):
    rec = run(small_model, _small_params(generations=10), seed=1)
    evals = [st.evaluations for st in rec.history]
    assert all(b > a for a, b in zip(evals, evals[1:]))
    assert rec.total_evaluations == evals[-1]


def test_max_evaluations_caps_budget(small_model):
    # 10 + 9 per generation: the sixth generation breeds only 5 children
    rec = run(small_model, _small_params(generations=500, t_sa=math.inf),
              seed=0, max_evaluations=60)
    assert rec.history[-1].generation == 6
    assert rec.total_evaluations == 60


@pytest.mark.parametrize("cap", [0, 49, math.nan, math.inf, 60.5])
def test_run_refuses_a_cap_it_cannot_honour(small_model, cap, monkeypatch):
    # the initial population alone spends 50 analyses, and a cap must be
    # a whole number; the refusal comes before any analysis
    factorized = []
    monkeypatch.setattr(analysis.Analyzer, "factorize",
                        lambda self, areas: factorized.append(areas))
    with pytest.raises(ValueError, match="max_evaluations"):
        run(small_model, _small_params(pop=50), seed=0, max_evaluations=cap)
    assert factorized == []


def test_a_cap_of_one_population_leaves_no_polish(small_model):
    rec = run(small_model, _small_params(pop=50), seed=0, max_evaluations=50)
    assert [s.evaluations for s in rec.history] == [50]
    assert rec.total_evaluations == 50


def test_a_whole_float_cap_is_its_int(small_model):
    rec = run(small_model, _small_params(pop=50), seed=0, max_evaluations=60.0)
    assert rec.total_evaluations == 60


def test_budget_cut_generation_is_last_and_starts_no_burst(small_model):
    # a cut generation leaves fewer than the 10 designs a burst needs, so
    # the run must end there rather than anneal
    params = _small_params(generations=8, t_sa=1)
    full = run(small_model, params, seed=4)
    budget = full.history[3].evaluations + 4
    rec = run(small_model, params, seed=4, max_evaluations=budget)
    assert rec.total_evaluations == rec.history[-1].evaluations == budget
    assert [s.generation for s in rec.history] == [0, 1, 2, 3, 4]
    assert [s.sa_ran for s in rec.history] == [False, True, True, True, False]
    assert [s.evaluations for s in rec.history[:4]] \
        == [s.evaluations for s in full.history[:4]]


def _track_best_reference(individuals):
    # the order of merit as explicit rules: a feasible design displaces an
    # infeasible best, and otherwise only a strictly lower weight
    # (both feasible) or F (both infeasible) displaces the best
    best = individuals[0]
    for cand in individuals[1:]:
        cand_ok = cand.violation_total == 0.0
        best_ok = best.violation_total == 0.0
        if (cand_ok and not best_ok
                or cand_ok and best_ok and cand.weight < best.weight
                or not cand_ok and not best_ok
                and cand.penalized < best.penalized):
            best = cand
    return best


def test_best_of_run_rule_matches_the_explicit_rules():
    rng = np.random.default_rng(0)
    values = np.array([1.0, 2.0, 3.0, math.inf])   # few values: many ties
    for _ in range(2000):
        n = int(rng.integers(1, 8))
        individuals = [
            Individual(design=np.zeros(1), weight=float(rng.choice(values)),
                       violation_total=float(rng.choice([0.0, 0.0, 0.5,
                                                         math.inf])),
                       penalized=float(rng.choice(values)),
                       evaluated_at_generation=1)
            for _ in range(n)]
        assert min(individuals, key=_standing) \
            is _track_best_reference(individuals)


def test_best_is_reverified_feasible(small_model):
    from trussopt import analysis
    from trussopt.penalty import evaluate_constraints
    rec = run(small_model, _small_params(generations=10), seed=2)
    assert rec.best_is_feasible
    res = analysis.analyze(small_model, rec.best.design)
    report = evaluate_constraints(res)
    assert report.feasible


def test_mechanism_is_model_error_before_the_run():
    # square frame without a diagonal: every design is singular, so the
    # whole population would score infinite
    mech = make_model(
        "mech", [(0, 0), (100, 0), (100, 100), (0, 100)],
        [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)],
        [MemberGroup(0.1, 10.0, 25.0, 25.0)],
        Material(10000.0, 0.1), [(0, "xy"), (1, "y")], [{2: (5.0, 0.0)}])
    with pytest.raises(ModelError, match="mechanism"):
        run(mech, _small_params(generations=2), seed=0)


def test_z_load_on_a_flat_truss_is_a_mechanism():
    # a z load makes the model 3-D, so no z support is added and the bar
    # cannot carry it
    bar = make_model("bar", [(0, 0), (100, 0)], [(0, 1, 0)],
                     [MemberGroup(0.5, 5.0, 30.0, 30.0)],
                     Material(10000.0, 0.1), [(0, "xy"), (1, "y")],
                     [{1: (10.0, 0.0, 7.0)}])
    with pytest.raises(ModelError, match="mechanism"):
        run(bar, _small_params(generations=2), seed=0)


def test_compare_requires_five_seeds(small_model):
    with pytest.raises(ValueError):
        compare_plain_ga(small_model, _small_params(), seeds=[1, 2, 3])


def test_compare_budgets_match(small_model):
    summary = compare_plain_ga(small_model, _small_params(generations=6),
                               seeds=[0, 1, 2, 3, 4])
    for rh, rp in zip(summary.hybrid_records, summary.plain_records):
        # the plain arm spends exactly the hybrid's budget
        assert rp.total_evaluations <= rh.total_evaluations + 10
        assert rp.total_evaluations == rh.total_evaluations
    assert len(summary.hybrid_weights) == 5
    assert summary.hybrid_median == np.median(summary.hybrid_weights)


_HISTORY_SCRIPT = """
import sys
from trussopt import benchmarks, ga, hybrid
name, generations = sys.argv[1], int(sys.argv[2])
rec = hybrid.run(benchmarks.get_builtin(name),
                 hybrid.HybridParams(ga=ga.GaParams(max_generations=generations)),
                 seed=0)
print(repr([(h.generation, h.best_F, h.mean_F, h.best_feasible_weight,
             h.evaluations, h.sa_ran) for h in rec.history]))
print(rec.best.design.tobytes().hex())
"""


def test_run_is_deterministic_across_processes():
    # string hashing and the BLAS thread count must not reach the history
    # or the polish (25bar has displacement limits on the dofs {x, y, z};
    # 200bar has the widest system, 150 free dofs; 18bar has buckling rows)
    src = str(Path(trussopt.__file__).resolve().parent.parent)

    def histories(name, generations, settings):
        outputs = set()
        for hash_seed, threads in settings:
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed,
                   "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run(
                [sys.executable, "-c", _HISTORY_SCRIPT, name, str(generations)],
                env=env, capture_output=True, text=True, timeout=300, check=True)
            outputs.add(done.stdout)
        return outputs

    assert len(histories("25bar", 10, (("0", "1"), ("1", "1"), ("0", "2")))) == 1
    assert len(histories("200bar", 3, (("0", "1"), ("0", "2")))) == 1
    assert len(histories("18bar", 10, (("0", "1"), ("0", "2")))) == 1
