import dataclasses
import gc
import weakref

import numpy as np
import pytest

from trussopt import benchmarks, io
from trussopt.analysis import (Analyzer, SingularStructure, analyze,
                               structure_weight)
from trussopt.model import (BucklingSpec, Material, MemberGroup, make_model)
from trussopt.penalty import evaluate_constraints


def test_single_bar_matches_hand_statics(single_bar):
    # u = PL/AE, sigma = P/A
    P, L, A, E = 10.0, 100.0, 2.0, 10000.0
    res = analyze(single_bar, [A])
    u = res.cases[0].displacements[1, 0]
    s = res.cases[0].element_stresses[0]
    assert abs(u - P * L / (A * E)) <= 1e-10 * abs(P * L / (A * E))
    assert abs(s - P / A) <= 1e-10 * abs(P / A)


def test_two_bar_pitched_truss_matches_hand_statics(two_bar):
    # symmetric apex load: each 3-4-5 bar carries F = P/2 / sin(theta),
    # sin(theta) = 60/100, in compression
    P, A = 12.0, 1.5
    res = analyze(two_bar, [A])
    force = (P / 2.0) / 0.6
    expected = -force / A
    for s in res.cases[0].element_stresses:
        assert abs(s - expected) <= 1e-10 * abs(expected)


def test_structure_weight_is_density_area_length(two_bar):
    w = structure_weight(two_bar, [1.5])
    assert w == pytest.approx(0.1 * 1.5 * 200.0, rel=1e-12)


def test_superposition_of_load_cases():
    mk = lambda loads: make_model(
        "sup", [(0, 0), (100, 0), (100, 75)],
        [(0, 1, 0), (1, 2, 0), (0, 2, 0)],
        [MemberGroup(0, 0.1, 10.0, 25.0, 25.0)],
        Material(10000.0, 0.1), [(0, "xy"), (2, "xy")], loads)
    a, b = {1: (7.0, 0.0)}, {1: (0.0, -3.0)}
    both = {1: (7.0, -3.0)}
    areas = [1.2]
    ua = analyze(mk([a]), areas).cases[0].displacements
    ub = analyze(mk([b]), areas).cases[0].displacements
    uab = analyze(mk([both]), areas).cases[0].displacements
    np.testing.assert_allclose(uab, ua + ub, rtol=1e-10, atol=1e-14)


def test_load_scaling_linearity(two_bar):
    res1 = analyze(two_bar, [2.0]).cases[0]
    scaled = make_model(
        "scaled", [(0, 0), (80, 60), (160, 0)],
        [(0, 1, 0), (1, 2, 0)], [MemberGroup(0, 0.5, 5.0, 30.0, 30.0)],
        Material(10000.0, 0.1), [(0, "xy"), (2, "xy")], [{1: (0.0, -36.0)}])
    res3 = analyze(scaled, [2.0]).cases[0]
    np.testing.assert_allclose(res3.displacements, 3.0 * res1.displacements,
                               rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(res3.element_stresses,
                               3.0 * res1.element_stresses, rtol=1e-10)


def test_stiffness_matrix_symmetric_positive_definite(two_bar):
    K = Analyzer(two_bar).assemble([2.0])
    np.testing.assert_allclose(K, K.T, rtol=1e-12)
    assert np.all(np.linalg.eigvalsh(K) > 0)


def test_mechanism_raises_singular_structure():
    # square frame without diagonal: a shear mechanism
    m = make_model(
        "mech", [(0, 0), (100, 0), (100, 100), (0, 100)],
        [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)],
        [MemberGroup(0, 0.1, 10.0, 25.0, 25.0)],
        Material(10000.0, 0.1), [(0, "xy"), (1, "y")], [{2: (5.0, 0.0)}])
    with pytest.raises(SingularStructure):
        analyze(m, [1.0])


def test_tension_positive_sign_convention(single_bar):
    res = analyze(single_bar, [1.0])
    assert res.cases[0].element_stresses[0] > 0


def test_buckling_stress_limit_formula():
    # Euler bound -K E A / L^2 = -4 * 1e4 * 2 / 100^2 = -8 ksi; a 32 kip
    # push gives -16 ksi, so the buckling row right after the stress row
    # reads -16 / -8 - 1 = 1
    def bar(push):
        return make_model(
            "buck", [(0, 0), (100, 0)], [(0, 1, 0)],
            [MemberGroup(0, 0.1, 10.0, 25.0, 25.0, BucklingSpec(4.0))],
            Material(10000.0, 0.1), [(0, "xy"), (1, "y")], [{1: (-push, 0)}])
    m = bar(32.0)
    report = evaluate_constraints(analyze(m, [2.0]))
    limit = -4.0 * 10000.0 * 2.0 / 100.0 ** 2
    np.testing.assert_allclose(report.violations, [0.0, -16.0 / limit - 1.0],
                               rtol=1e-12)
    # in tension the buckling row is not in force
    m = bar(-32.0)
    report = evaluate_constraints(analyze(m, [2.0]))
    assert len(report.violations) == 1


def test_multiple_load_cases_solved_together():
    m = make_model(
        "two-cases", [(0, 0), (100, 0), (100, 75)],
        [(0, 1, 0), (1, 2, 0), (0, 2, 0)],
        [MemberGroup(0, 0.1, 10.0, 25.0, 25.0)],
        Material(10000.0, 0.1), [(0, "xy"), (2, "xy")],
        [{1: (5.0, 0.0)}, {1: (0.0, -5.0)}])
    res = analyze(m, [1.0])
    assert len(res.cases) == 2
    assert not np.allclose(res.cases[0].displacements,
                           res.cases[1].displacements)


@pytest.mark.parametrize("name", ["22bar", "25bar", "72bar"])
def test_load_cases_solved_together_match_single_case_analyses(name):
    # one multi-case solve must give, bit for bit, what k single-case
    # analyses give: the stress kernel sums each element's six products in
    # the same order whatever the number of cases
    model = benchmarks.get_builtin(name)
    assert len(model.load_cases) > 1
    lo, hi = model.area_bounds()
    rng = np.random.default_rng(0)
    for areas in [lo, hi, *rng.uniform(lo, hi, size=(5, len(lo)))]:
        together = analyze(model, areas).cases
        for lc, case in zip(model.load_cases, together):
            alone = analyze(dataclasses.replace(model, load_cases=(lc,)),
                            areas).cases[0]
            assert case.displacements.tobytes() == alone.displacements.tobytes()
            assert case.element_stresses.tobytes() == alone.element_stresses.tobytes()


def test_cached_analyzer_does_not_keep_its_model_alive():
    # the per-model analyzer cache is weak: a model that is no longer
    # referenced is freed together with its analyzer
    doc = io.serialize_model(benchmarks.get_builtin("10bar-case1"))
    model = io.parse_model(doc)
    analyze(model, model.area_bounds()[1])
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None
