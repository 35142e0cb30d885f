"""End-to-end acceptance gate.

Each criterion appears as one test (or one parametrized test per
benchmark) so the verdict reads directly off the pytest -v output.
Stochastic criteria use fixed seeds and the documented budgets.
"""

import json
import math

import numpy as np
import pytest
from scipy import stats

from trussopt import analysis, benchmarks, cli, ga, hybrid
from trussopt.annealing import SaParams, acceptance_probability, anneal
from trussopt.ga import GaParams, Individual, Population
from trussopt.hybrid import HybridParams, compare_plain_ga, remove_victim_index, run
from trussopt.io import ParseError, parse_model, serialize_model
from trussopt.model import Material, MemberGroup, make_model
from trussopt.penalty import PenaltyParams, evaluate_constraints, penalty

PAPER_WEIGHTS = {
    "10bar-case1": 5058.66, "10bar-case2": 4675.43, "17bar": 2578.76,
    # Imai & Schmit 1981; the earlier 6419.23 lb pair was internally
    # inconsistent (see tests/test_benchmarks.py::test_18bar_closed_form_optimum)
    "18bar": 6430.0, "22bar": 1019.43, "25bar": 544.88, "72bar": 379.56,
    "200bar": 25443.11,
}


# --- criterion 1: analytic FEM checks -------------------------------------

def test_criterion_1_fem_analytic_checks():
    # single axial bar: u = PL/AE, sigma = P/A
    bar = make_model(
        "bar", [(0, 0), (100, 0)], [(0, 1, 0)],
        [MemberGroup(0.1, 10.0, 1e9, 1e9)],
        Material(10000.0, 0.1), [(0, "xy"), (1, "y")], [{1: (10.0, 0.0)}])
    res = analysis.analyze(bar, [2.0])
    assert abs(res.cases[0].displacements[1, 0] - 10.0 * 100 / (2 * 10000)) \
        <= 1e-10 * (10.0 * 100 / (2 * 10000))
    assert abs(res.cases[0].element_stresses[0] - 5.0) <= 1e-10 * 5.0

    # two-bar pitched truss vs hand statics (3-4-5 geometry)
    two = make_model(
        "two", [(0, 0), (80, 60), (160, 0)], [(0, 1, 0), (1, 2, 0)],
        [MemberGroup(0.1, 10.0, 1e9, 1e9)],
        Material(10000.0, 0.1), [(0, "xy"), (2, "xy")], [{1: (0.0, -12.0)}])
    s = analysis.analyze(two, [1.5]).cases[0].element_stresses
    expected = -(6.0 / 0.6) / 1.5
    assert np.all(np.abs(s - expected) <= 1e-10 * abs(expected))

    # superposition and load scaling on every built-in model
    for name in benchmarks.builtin_names():
        model = benchmarks.get_builtin(name)
        lo, hi = model.area_bounds()
        areas = 0.5 * (lo + hi)
        base = analysis.analyze(model, areas)
        doc = json.loads(serialize_model(model))

        summed = {}
        for lc in doc["load_cases"]:
            for ld in lc["loads"]:
                key = ld["node"]
                fx, fy, fz = summed.get(key, (0.0, 0.0, 0.0))
                summed[key] = (fx + ld["fx"], fy + ld["fy"], fz + ld["fz"])
        doc["load_cases"] = [{"id": 0, "loads": [
            {"node": n, "fx": f[0], "fy": f[1], "fz": f[2]}
            for n, f in sorted(summed.items())]}]
        combined = analysis.analyze(parse_model(json.dumps(doc)), areas)
        expect = sum(c.displacements for c in base.cases)
        scale = np.abs(expect).max()
        assert np.abs(combined.cases[0].displacements - expect).max() \
            <= 1e-10 * scale

        doc3 = json.loads(serialize_model(model))
        for lc in doc3["load_cases"]:
            for ld in lc["loads"]:
                ld["fx"] *= 3.0; ld["fy"] *= 3.0; ld["fz"] *= 3.0
        tripled = analysis.analyze(parse_model(json.dumps(doc3)), areas)
        for c1, c3 in zip(base.cases, tripled.cases):
            scale = np.abs(c1.displacements).max()
            assert np.abs(c3.displacements - 3.0 * c1.displacements).max() \
                <= 1e-10 * scale


# --- criterion 2: published-value cross-checks ----------------------------

@pytest.mark.parametrize("name", sorted(PAPER_WEIGHTS))
def test_criterion_2_reference_cross_check(name):
    entry = benchmarks.builtin_models()[name]
    weight, worst = benchmarks.cross_check(entry)
    assert abs(weight - PAPER_WEIGHTS[name]) <= 0.5, (
        f"{name}: weight {weight:.2f} vs published {PAPER_WEIGHTS[name]}")
    assert worst <= 0.005, (
        f"{name}: reference vector violates constraints by {worst:.4f}")


# --- criterion 3: optimization reproduction -------------------------------

def _best_of_seeds(name, target, seeds, generations=500):
    model = benchmarks.get_builtin(name)
    best = math.inf
    best_design = None
    for seed in seeds:
        params = HybridParams(ga=GaParams(max_generations=generations))
        rec = run(model, params, seed=seed)
        if rec.best_is_feasible and rec.best.weight < best:
            best = rec.best.weight
            best_design = rec.best.design
        if best <= target:
            break  # best-of-seeds criterion already met
    if best_design is not None:
        # independent re-verification of the reported optimum
        res = analysis.analyze(model, best_design)
        report = evaluate_constraints(res)
        assert report.feasible
        assert res.weight == pytest.approx(best, rel=1e-12)
    return best


@pytest.mark.parametrize("name,target", [
    ("10bar-case1", 5084.0), ("25bar", 547.6), ("72bar", 381.5)])
def test_criterion_3_reproduces_published_optimum(name, target):
    best = _best_of_seeds(name, target, seeds=range(10))
    assert best <= target, f"{name}: best of 10 seeds {best:.2f} > {target}"


def test_criterion_3_200bar_within_three_percent():
    target = 1.03 * 25443.11
    best = _best_of_seeds("200bar", target, seeds=range(5))
    assert best <= target, f"200bar: best of 5 seeds {best:.2f} > {target:.1f}"


# --- criterion 4: hybrid beats plain GA at equal budget -------------------

def test_criterion_4_hybrid_beats_plain_ga():
    model = benchmarks.get_builtin("25bar")
    params = HybridParams(ga=GaParams(max_generations=200))
    summary = compare_plain_ga(model, params, seeds=range(10))
    assert summary.hybrid_median <= summary.plain_median, (
        f"hybrid median {summary.hybrid_median:.2f} > "
        f"plain median {summary.plain_median:.2f}")

    reached = 0
    for rec_h, rec_p in zip(summary.hybrid_records, summary.plain_records):
        for st in rec_h.history:
            if not math.isnan(st.best_feasible_weight) \
                    and st.best_feasible_weight <= summary.plain_median:
                if st.evaluations <= rec_p.total_evaluations:
                    reached += 1
                break
    assert reached >= 7, (
        f"hybrid reached the plain-GA median within budget in only "
        f"{reached}/10 seeds")


# --- criterion 5: property suites -----------------------------------------

def test_criterion_5_property_suites(small_model):
    # acceptance law boundary and monotonicity
    assert acceptance_probability(5.0, 5.0, 2.0) == 1.0
    assert acceptance_probability(5.0, 4.0, 2.0) == 1.0
    ps = [acceptance_probability(0.0, d, 2.0) for d in (1, 2, 3)]
    assert ps[0] > ps[1] > ps[2]
    ps = [acceptance_probability(0.0, 2.0, t) for t in (1, 2, 3)]
    assert ps[0] < ps[1] < ps[2]

    # penalty law: zero iff feasible, monotone in iteration
    pp = PenaltyParams(alpha=2.0, beta_exp=1.3)
    assert penalty(0.0, pp, 9) == 0.0
    vals = [penalty(0.2, pp, k) for k in range(1, 10)]
    assert vals[0] > 0 and all(b > a for a, b in zip(vals, vals[1:]))

    # DNS contraction by exactly gamma
    params = SaParams(radius_beta=3, radius_gamma=2.0, max_iterations=30,
                      stagnation_window=10_000)
    _, _, trace = anneal(lambda x: 1.0, np.array([5.0]), 0.5,
                         np.array([2.0]), np.array([0.0]), np.array([10.0]),
                         params, np.random.default_rng(0))
    norms = sorted({round(r[2], 12) for r in trace}, reverse=True)
    assert len(norms) > 1
    for a, b in zip(norms, norms[1:]):
        assert a / b == pytest.approx(2.0, rel=1e-9)

    # selection and removal frequencies within 3 sigma over 1e5 draws
    def pop_of(values, rng):
        inds = [Individual(design=np.array([v]), weight=v, violation_total=0.0,
                           penalized=v)
                for v in values]
        return Population(individuals=inds, generation=1, rng=rng)

    rng = np.random.default_rng(1)
    pop = pop_of([10.0, 11.0, 14.0], rng)
    sel = np.zeros(3)
    rounds = 100_000 // 3
    for _ in range(rounds):
        for i in ga.select_mating_pool(pop):
            sel[i] += 1
    total = rounds * 3
    p = np.array([10, 5, 2]) / 17
    assert np.all(np.abs(sel - total * p)
                  <= 3 * np.sqrt(total * p * (1 - p)))

    pop = pop_of([10.0, 11.0, 14.0, 17.0], rng)
    rem = np.zeros(4)
    for _ in range(100_000):
        rem[remove_victim_index(pop)] += 1
    p = np.array([0, 2, 5, 8]) / 15
    assert rem[0] == 0
    assert np.all(np.abs(rem - 100_000 * p)
                  <= 3 * np.maximum(np.sqrt(100_000 * p * (1 - p)), 1.0))

    # full-run determinism: bit-identical records
    params = HybridParams(t_sa=3, ga=GaParams(population_size=10,
                                              max_generations=8))
    a = run(small_model, params, seed=11)
    b = run(small_model, params, seed=11)
    assert a.best.design.tobytes() == b.best.design.tobytes()
    assert [(s.generation, s.best_F, s.mean_F, s.evaluations, s.sa_ran)
            for s in a.history] \
        == [(s.generation, s.best_F, s.mean_F, s.evaluations, s.sa_ran)
            for s in b.history]


# --- criterion 6: IO round trip and command-line verify -------------------

@pytest.mark.parametrize("name", sorted(PAPER_WEIGHTS))
def test_criterion_6_io_round_trip(name):
    model = benchmarks.get_builtin(name)
    from trussopt.io import models_equal
    assert models_equal(model, parse_model(serialize_model(model)))


def test_criterion_6_located_diagnostics():
    with pytest.raises(ParseError) as exc:
        parse_model('{"name": 1}')
    assert "name" in str(exc.value)
    doc = json.loads(serialize_model(benchmarks.get_builtin("25bar")))
    del doc["material"]
    with pytest.raises(ParseError) as exc:
        parse_model(json.dumps(doc))
    assert "material" in str(exc.value)
    doc = json.loads(serialize_model(benchmarks.get_builtin("25bar")))
    doc["elements"][4]["group"] = "nope"
    with pytest.raises(ParseError) as exc:
        parse_model(json.dumps(doc))
    assert "elements[4]" in str(exc.value)


@pytest.mark.parametrize("name", sorted(PAPER_WEIGHTS))
def test_criterion_6_cli_verify_matches_library(name, capsys):
    entry = benchmarks.builtin_models()[name]
    areas = ",".join(str(a) for a in entry.reference_areas)
    assert cli.main(["verify", "--model", f"builtin:{name}",
                     "--areas", areas]) == 0
    out = capsys.readouterr().out
    weight, worst = benchmarks.cross_check(entry)
    assert f"{weight:.2f}" in out
    assert ("feasible: yes" if worst <= 0.005 else "feasible: no") in out
