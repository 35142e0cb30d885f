import numpy as np
import pytest

from trussopt import analysis
from trussopt.model import (Material, MemberGroup, make_model)
from trussopt.penalty import (PenaltyParams, default_penalty_params,
                              evaluate_constraints, penalized_objective,
                              penalty)


def test_overstress_normalized_magnitude(single_bar):
    # 30 ksi against a 25 ksi tension limit must register S = 0.2
    m = make_model(
        "over", [(0, 0), (100, 0)], [(0, 1, 0)],
        [MemberGroup(0.1, 10.0, 25.0, 25.0)],
        Material(10000.0, 0.1), [(0, "xy"), (1, "y")], [{1: (30.0, 0.0)}])
    res = analysis.analyze(m, [1.0])
    report = evaluate_constraints(res)
    assert report.total == pytest.approx(0.2, rel=1e-12)
    assert not report.feasible


def test_feasible_design_has_zero_violations(single_bar):
    res = analysis.analyze(single_bar, [2.0])  # 5 ksi vs 30 ksi limit
    report = evaluate_constraints(res)
    assert report.feasible and report.total == 0.0
    assert np.all(report.violations == 0.0)


def test_penalty_worked_example_linear():
    p = penalty(0.5, PenaltyParams(alpha=1.0, beta_exp=1.0), 10)
    assert p == pytest.approx(5.0, rel=1e-12)


def test_penalty_worked_example_quadratic():
    p = penalty(0.5, PenaltyParams(alpha=2.0, beta_exp=2.0), 3)
    assert p == pytest.approx(9.0, rel=1e-12)


def test_penalty_zero_iff_feasible():
    params = PenaltyParams(alpha=3.0)
    assert penalty(0.0, params, 50) == 0.0
    assert penalty(1e-9, params, 1) > 0.0


def test_penalized_objective_equals_weight_when_feasible():
    F = penalized_objective(123.0, 0.0, PenaltyParams(alpha=9.0), 7)
    assert F == 123.0


def test_iteration_below_one_rejected():
    with pytest.raises(ValueError):
        penalty(0.1, PenaltyParams(alpha=1.0), 0)


@pytest.mark.parametrize("field, value", [
    ("alpha", float("nan")), ("alpha", float("inf")), ("alpha", -1.0),
    ("alpha", 0.0), ("beta_exp", float("nan")), ("beta_exp", float("inf")),
    ("beta_exp", -0.1)])
def test_params_reject_values_that_poison_the_objective(field, value):
    # a NaN or inf constructed, and a run then died in the GA's selection
    # on "Probabilities contain NaN"
    with pytest.raises(ValueError, match=field):
        PenaltyParams(**{"alpha": 1000.0, field: value})


def test_default_alpha_is_all_max_weight(two_bar):
    params = default_penalty_params(two_bar)
    _, hi = two_bar.area_bounds()
    assert params.alpha == pytest.approx(
        analysis.structure_weight(two_bar, hi), rel=1e-12)


def test_displacement_constraint_enters_report():
    m = make_model(
        "disp", [(0, 0), (100, 0)], [(0, 1, 0)],
        [MemberGroup(0.1, 10.0, 1e6, 1e6)],
        Material(10000.0, 0.1), [(0, "xy"), (1, "y")], [{1: (10.0, 0.0)}],
        [([1], "x", 0.05)])
    res = analysis.analyze(m, [1.0])  # u = 0.1 in > 0.05 in
    report = evaluate_constraints(res)
    assert report.total == pytest.approx(1.0, rel=1e-10)


def test_buckling_constraint_uses_area_dependent_limit():
    # compression 10 ksi; Euler bound -K E A / L^2 = -4 ksi at A = 1
    m = make_model(
        "buck", [(0, 0), (100, 0)], [(0, 1, 0)],
        [MemberGroup(0.1, 10.0, 100.0, 100.0, 1.0)],
        Material(10000.0, 0.1), [(1, "xy"), (0, "y")], [{0: (10.0, 0.0)}])
    res = analysis.analyze(m, [1.0])
    assert res.cases[0].element_stresses[0] == pytest.approx(-10.0, rel=1e-10)
    report = evaluate_constraints(res)
    # sigma/limit - 1 = (-10)/(-1*1e4*1/1e4) - 1 = 9
    assert report.total == pytest.approx(9.0, rel=1e-10)


def test_penalty_submodule_is_importable():
    # the package must not shadow the submodule with a same-named function
    import trussopt.penalty as p
    assert p.default_penalty_params is default_penalty_params
