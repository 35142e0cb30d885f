import math

import numpy as np
import pytest

from trussopt import analysis, benchmarks
from trussopt.model import validate
from trussopt.penalty import evaluate_constraints

# frozen regression values: weight of the reference vector as computed by
# this library, and the worst normalized constraint margin (violations
# only, zero when strictly feasible)
EXPECTED = {
    "10bar-case1": (5058.654, 0.00045),
    "10bar-case2": (4675.418, 0.00050),
    "17bar": (2578.660, 0.00128),
    # Imai & Schmit 1981 vector; the old (6411.227, 0.00818) belonged to a
    # withdrawn pair whose areas were infeasible and under the exact minimum
    "18bar": (6430.325, 0.00020),
    "22bar": (1019.418, 0.00000),
    "25bar": (544.886, 0.00208),
    "72bar": (379.523, 0.00048),
    "200bar": (25442.596, 0.00127),
}


def test_catalog_has_eight_models():
    assert len(benchmarks.builtin_models()) == 8
    assert set(benchmarks.builtin_names()) == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_builtins_validate(name):
    model = benchmarks.get_builtin(name)
    assert validate(model) is model
    assert model.name == name
    assert model.provenance


def test_element_counts():
    counts = {"10bar-case1": 10, "10bar-case2": 10, "17bar": 17, "18bar": 18,
              "22bar": 22, "25bar": 25, "72bar": 72, "200bar": 200}
    for name, n in counts.items():
        assert benchmarks.get_builtin(name).n_elements == n


def test_design_variable_counts():
    counts = {"10bar-case1": 10, "10bar-case2": 10, "17bar": 17, "18bar": 4,
              "22bar": 7, "25bar": 8, "72bar": 16, "200bar": 29}
    for name, n in counts.items():
        assert benchmarks.get_builtin(name).n_groups == n


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_reference_vector_regression(name):
    entry = benchmarks.builtin_models()[name]
    weight, worst = benchmarks.cross_check(entry)
    exp_w, exp_v = EXPECTED[name]
    assert weight == pytest.approx(exp_w, abs=0.01)
    assert worst == pytest.approx(exp_v, abs=0.0005)


def test_reference_areas_within_bounds():
    for entry in benchmarks.builtin_models().values():
        lo, hi = entry.model.area_bounds()
        areas = np.array(entry.reference_areas)
        assert np.all(areas >= lo - 1e-9) and np.all(areas <= hi + 1e-9)


def test_unknown_builtin_name():
    with pytest.raises(KeyError):
        benchmarks.get_builtin("99bar")


def test_18bar_closed_form_optimum():
    # 18 free dofs, 18 members: statically determinate, so member forces
    # are fixed by the loads alone and each group's minimum area follows
    # from its governing stress or Euler buckling limit in closed form
    model = benchmarks.get_builtin("18bar")
    group_of = np.array([g for _, _, g in model.elements])
    for areas in ([1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 5.0, 7.0]):
        areas = np.array(areas)
        stresses = analysis.analyze(model, areas).cases[0].element_stresses
        forces = stresses * areas[group_of]
        assert forces[17] == pytest.approx(-300.0, rel=1e-9)
        assert forces[14] == pytest.approx(-100.0, rel=1e-9)

    exact = np.array([10.0, math.sqrt(468.75), 12.5, math.sqrt(50.0)])
    result = analysis.analyze(model, exact)
    report = evaluate_constraints(result)
    assert result.weight == pytest.approx(6430.53, abs=0.005)
    assert report.violations.max() <= 1e-12
