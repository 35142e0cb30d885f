import dataclasses
import gc
import hashlib
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import trussopt
from trussopt import analysis, benchmarks, io
from trussopt.analysis import (Analyzer, SingularStructure, analyze,
                               reject_mechanism, structure_weight)
from trussopt.model import (Material, MemberGroup, ModelError, clamp,
                            make_model)
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
        [MemberGroup(0.1, 10.0, 25.0, 25.0)],
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
        [(0, 1, 0), (1, 2, 0)], [MemberGroup(0.5, 5.0, 30.0, 30.0)],
        Material(10000.0, 0.1), [(0, "xy"), (2, "xy")], [{1: (0.0, -36.0)}])
    res3 = analyze(scaled, [2.0]).cases[0]
    np.testing.assert_allclose(res3.displacements, 3.0 * res1.displacements,
                               rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(res3.element_stresses,
                               3.0 * res1.element_stresses, rtol=1e-10)


def _dense(band):
    """The symmetric matrix whose LAPACK lower band form is `band`."""
    n = band.shape[1]
    K = np.zeros((n, n))
    for r, diagonal in enumerate(band):
        j = np.arange(n - r)
        K[j + r, j] = K[j, j + r] = diagonal[:n - r]
    return K


def _reference_stiffness(model, areas):
    """Reduced stiffness assembled element by element in dense storage."""
    coords = model.coords
    K = np.zeros((3 * model.n_nodes,) * 2)
    for a, b, g in model.elements:
        delta = coords[b] - coords[a]
        L = np.linalg.norm(delta)
        k = (model.material.elastic_modulus * areas[g] / L
             * np.outer(delta, delta) / L ** 2)
        dofs = np.r_[3 * a:3 * a + 3, 3 * b:3 * b + 3]
        K[np.ix_(dofs, dofs)] += np.block([[k, -k], [-k, k]])
    free = ~model.fixed_dof_mask()
    return K[np.ix_(free, free)]


def test_stiffness_matrix_symmetric_positive_definite(two_bar):
    K = _dense(Analyzer(two_bar).assemble([2.0]))
    np.testing.assert_allclose(K, K.T, rtol=1e-12)
    assert np.all(np.linalg.eigvalsh(K) > 0)


@pytest.mark.parametrize("name", benchmarks.builtin_names())
def test_band_assembly_matches_dense_reference(name):
    model = benchmarks.get_builtin(name)
    an = Analyzer(model)
    lo, hi = model.area_bounds()
    rng = np.random.default_rng(7)
    for _ in range(3):
        areas = rng.uniform(lo, hi)
        ref = _reference_stiffness(model, areas)
        K = _dense(an.assemble(areas))
        np.testing.assert_allclose(K, ref, rtol=0, atol=1e-12 * abs(ref).max())
        # natural dof order: nothing of the reference lies outside the band
        assert not np.tril(ref, -an.kd - 1).any()
        U = np.linalg.solve(ref, an._rhs[:-1])
        result = analyze(model, areas)
        for c, case in enumerate(result.cases):
            u = case.displacements.reshape(-1)[an.free]
            np.testing.assert_allclose(u, U[:, c], rtol=1e-9,
                                       atol=1e-9 * abs(U[:, c]).max())


# sha256 of the assembled bands of 20 random designs (default_rng(12),
# uniform within the bounds) per built-in model: the scatter order of the
# element blocks may change, the band's bytes may not
ASSEMBLE_SHA256 = {
    "10bar-case1": "37c358e0b91afaf8c45276a4cafdba82ecdc299de27574dfba80894b7a20bc6e",
    "10bar-case2": "37c358e0b91afaf8c45276a4cafdba82ecdc299de27574dfba80894b7a20bc6e",
    "17bar": "9a55a8691fba10b365ba3724218c8c505ae015c20a7ca63a6ed836596b6d1c5b",
    "18bar": "c15f09864d0493f9ea4fd7a539a2811b75bcb1abd9edf6c5f6d7ccaad818bee9",
    "200bar": "2c7ebdc8586a6da78ead879d6f5bb9068a9d9b80286d3d6abbe12dba3471e6c6",
    "22bar": "2f0b66dddfc827b0d0630f7b813ecd72abba7ba10a46c5d5d5a0dcc985f41510",
    "25bar": "8f5a87e7bb88218959a8f62e038202bc4e37f46c3f8c8340714b3c42a4da37ae",
    "72bar": "f46e2a5cc72335f70911b757e26b0f9875e47c19aab1fa68a10e7abdad40a151",
}


@pytest.mark.parametrize("name", benchmarks.builtin_names())
def test_band_assembly_bytes_are_pinned(name):
    model = benchmarks.get_builtin(name)
    an = Analyzer(model)
    lo, hi = model.area_bounds()
    rng = np.random.default_rng(12)
    h = hashlib.sha256()
    for areas in rng.uniform(lo, hi, size=(20, len(lo))):
        h.update(an.assemble(areas).tobytes())
    assert h.hexdigest() == ASSEMBLE_SHA256[name]


# sha256 of analyze's response and margins bytes at 10 random
# designs (default_rng(13), uniform within the bounds): 18bar has buckling
# rows, 72bar displacement rows and two load cases, 200bar three cases
ANALYZE_SHA256 = {
    "18bar": "c8c0a8b28c9f41d05f8031c435da0bf550863e611844b79766f4f94a9f8490c0",
    "72bar": "beef9b83ec087e726eeb09e286dc95e87fb4062df2a8e88707403c81b348f0cf",
    "200bar": "d1378e2afa2a2b168275e79b0b112b5f69e7109a6c46efc1ddedf6f82d3ee7f6",
}


@pytest.mark.parametrize("name", sorted(ANALYZE_SHA256))
def test_analyze_arrays_are_pinned(name):
    model = benchmarks.get_builtin(name)
    lo, hi = model.area_bounds()
    rng = np.random.default_rng(13)
    h = hashlib.sha256()
    for areas in rng.uniform(lo, hi, size=(10, len(lo))):
        result = analyze(model, areas)
        for array in (result.response, result.margins):
            h.update(array.tobytes())
    assert h.hexdigest() == ANALYZE_SHA256[name]


def test_mechanism_raises_singular_structure():
    # square frame without diagonal: a shear mechanism
    m = make_model(
        "mech", [(0, 0), (100, 0), (100, 100), (0, 100)],
        [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)],
        [MemberGroup(0.1, 10.0, 25.0, 25.0)],
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
            [MemberGroup(0.1, 10.0, 25.0, 25.0, 4.0)],
            Material(10000.0, 0.1), [(0, "xy"), (1, "y")], [{1: (-push, 0)}])
    m = bar(32.0)
    report = evaluate_constraints(analyze(m, [2.0]))
    limit = -4.0 * 10000.0 * 2.0 / 100.0 ** 2
    np.testing.assert_allclose(report.violations, [0.0, -16.0 / limit - 1.0],
                               rtol=1e-12)
    # in tension the buckling row's limit is inf: it reads -1 and never binds
    m = bar(-32.0)
    result = analyze(m, [2.0])
    assert result.margins[0, 1] == -1.0
    report = evaluate_constraints(result)
    np.testing.assert_array_equal(report.violations, [0.0, 0.0])


def test_multiple_load_cases_solved_together():
    m = make_model(
        "two-cases", [(0, 0), (100, 0), (100, 75)],
        [(0, 1, 0), (1, 2, 0), (0, 2, 0)],
        [MemberGroup(0.1, 10.0, 25.0, 25.0)],
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


def _outcome(fn, *args):
    """The SingularStructure message a call raises, or None."""
    try:
        fn(*args)
    except SingularStructure as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", benchmarks.builtin_names())
def test_evaluate_is_analyze_plus_evaluate_constraints(name):
    # the optimizer's fused evaluation must give, bit for bit, the clamped
    # design, weight and violation total of the CLI's analysis path
    model = benchmarks.get_builtin(name)
    an = Analyzer(model)
    lo, hi = model.area_bounds()
    margin = 0.2 * (hi - lo)
    rng = np.random.default_rng(8)
    designs = [*rng.uniform(lo, hi, size=(4, len(lo))),
               *rng.uniform(lo - margin, hi + margin, size=(4, len(lo)))]
    assert any(np.any((d < lo) | (d > hi)) for d in designs)
    for areas in designs:
        clamped, weight, total = an.evaluate(areas)
        result = an.analyze(clamp(areas, lo, hi))
        assert clamped.tobytes() == clamp(areas, lo, hi).tobytes()
        assert weight == result.weight
        assert total == evaluate_constraints(result).total


def _same_evaluation(got, expected):
    areas, weight, total = expected
    assert got[0].tobytes() == areas.tobytes()
    assert (repr(got[1]), repr(got[2])) == (repr(weight), repr(total))


@pytest.mark.parametrize("name", benchmarks.builtin_names())
def test_evaluate_many_is_evaluate_byte_for_byte(name):
    # the stacked post-solve and the per-design sums reproduce evaluate
    # on every design of a batch, clamping included
    model = benchmarks.get_builtin(name)
    an = Analyzer(model)
    lo, hi = model.area_bounds()
    margin = 0.2 * (hi - lo)
    rng = np.random.default_rng(11)
    for size in (1, 8, 49):
        designs = rng.uniform(lo - margin, hi + margin, size=(size, len(lo)))
        got = an.evaluate_many(designs)
        assert len(got) == size
        for areas, evaluation in zip(designs, got):
            _same_evaluation(evaluation, an.evaluate(areas))


def _buckling(model):
    """The model with an Euler buckling constant on every group."""
    groups = tuple(dataclasses.replace(g, buckling_k=4.0)
                   for g in model.groups)
    return dataclasses.replace(model, groups=groups)


@pytest.mark.parametrize("variant", [lambda m: m, _buckling],
                         ids=["stress", "buckling"])
def test_evaluate_many_scores_a_singular_design_as_infinite(zero_bound_pair, variant):
    # with buckling rows, the stacked Euler bounds and in-force mask also
    # meet the zero-filled solution of the singular design
    an = Analyzer(variant(zero_bound_pair))
    assert an.buckling_row.size == (2 if variant is _buckling else 0)
    designs = np.array([[1.0, 2.0], [4.0, 0.5], [0.0, 2.0], [3.0, 0.5],
                        [2.5, 2.5]])
    with pytest.raises(SingularStructure):
        an.factorize(designs[2])
    singular = (designs[2], math.inf, math.inf)
    _same_evaluation(an.evaluate(designs[2]), singular)
    got = an.evaluate_many(designs)
    _same_evaluation(got[2], singular)
    for i in (0, 1, 3, 4):
        _same_evaluation(got[i], an.evaluate(designs[i]))
    alone, = an.evaluate_many(designs[2:3])
    _same_evaluation(alone, singular)


@pytest.mark.parametrize("name", benchmarks.builtin_names())
def test_sensitivities_match_central_differences(name):
    # the direct-method dg/dA of every (case, row), 18bar's buckling rows
    # included, against central differences of `analyze` at step 1e-6 * A;
    # the evaluation is `evaluate`'s, bit for bit
    model = benchmarks.get_builtin(name)
    an = Analyzer(model)
    lo, hi = model.area_bounds()
    areas = np.random.default_rng(5).uniform(lo + 0.25 * (hi - lo),
                                             hi - 0.25 * (hi - lo))
    evaluation, margins, jacobian = an.sensitivities(areas)
    _same_evaluation(evaluation, an.evaluate(areas))
    result = an.analyze(areas)
    assert margins.tobytes() == result.margins.tobytes()
    assert jacobian.shape == (len(lo), *margins.shape)
    differences = np.empty_like(jacobian)
    for g in range(len(lo)):
        up, down = areas.copy(), areas.copy()
        up[g] += 1e-6 * areas[g]
        down[g] -= 1e-6 * areas[g]
        differences[g] = ((an.analyze(up).margins - an.analyze(down).margins)
                          / (up[g] - down[g]))
    np.testing.assert_allclose(jacobian, differences, rtol=1e-5,
                               atol=1e-6 * np.abs(differences).max())


@pytest.mark.parametrize("variant", [lambda m: m, _buckling],
                         ids=["stress", "buckling"])
def test_sensitivities_of_a_singular_design(zero_bound_pair, variant):
    an = Analyzer(variant(zero_bound_pair))
    evaluation, *rest = an.sensitivities([0.0, 2.0])
    _same_evaluation(evaluation, (np.array([0.0, 2.0]), math.inf, math.inf))
    assert rest == [None, None]


def test_model_without_elements_is_a_mechanism():
    bare = make_model("bare", [(0, 0), (100, 0)], [], [], Material(1e4, 0.1),
                      [(0, "xy")], [{1: (5.0, 0.0)}])
    with pytest.raises(ModelError, match="bare is a mechanism"):
        reject_mechanism(bare)


def test_evaluate_is_infinite_exactly_where_factorize_raises():
    # a square frame without a diagonal is a mechanism at every design; a
    # pitched pair of bars goes numerically singular when one bar is some
    # 1e20 times stiffer than the other, and is sound otherwise
    mech = make_model(
        "mech", [(0, 0), (100, 0), (100, 100), (0, 100)],
        [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)],
        [MemberGroup(0.1, 10.0, 25.0, 25.0)],
        Material(10000.0, 0.1), [(0, "xy"), (1, "y")], [{2: (5.0, 0.0)}])
    pair = make_model(
        "pair", [(0, 0), (80, 60), (160, 0)], [(0, 1, 0), (1, 2, 1)],
        [MemberGroup(1e-20, 5.0, 30.0, 30.0),
         MemberGroup(1e-20, 5.0, 30.0, 30.0)],
        Material(10000.0, 0.1), [(0, "xy"), (2, "xy")], [{1: (0.0, -12.0)}])
    cases = [(mech, [1.0]), (mech, [50.0]), (pair, [1.0, 2.0]),
             (pair, [1e-20, 5.0]), (pair, [-1.0, 9.0]), (pair, [5.0, 5.0])]
    outcomes = []
    for model, areas in cases:
        an = Analyzer(model)
        clamped = clamp(np.asarray(areas, dtype=float), *model.area_bounds())
        singular = _outcome(an.factorize, clamped) is not None
        got, weight, total = an.evaluate(areas)
        assert got.tobytes() == clamped.tobytes()
        if singular:
            assert (weight, total) == (math.inf, math.inf)
        else:
            assert math.isfinite(weight) and math.isfinite(total)
        outcomes.append(not singular)
    assert outcomes == [False, False, True, False, False, True]


def _load_vectors_by_loop(model):
    # one slice-add per point load, in load order: the reference for the
    # vectorized accumulation in Analyzer.__init__
    F = np.zeros((3 * model.n_nodes, len(model.load_cases)))
    for j, loads in enumerate(model.load_cases):
        for nid, f in loads:
            F[3 * nid:3 * nid + 3, j] += f
    return F[~model.fixed_dof_mask()]


def test_load_vectors_match_per_load_accumulation():
    repeated = make_model(
        "repeated", [(0, 0), (100, 0)], [(0, 1, 0)],
        [MemberGroup(0.5, 5.0, 30.0, 30.0)], Material(10000.0, 0.1),
        [(0, "xy")],
        [[(1, (0.1, 0.2, 0.0)), (1, (0.7, 1e16, 0.0)), (1, (0.3, -1e16, 0.0))],
         [(1, (1.0, 2.0, 0.0))]])
    models = [e.model for e in benchmarks.builtin_models().values()]
    for model in [*models, repeated]:
        assert (Analyzer(model)._rhs[:-1].tobytes()
                == _load_vectors_by_loop(model).tobytes())


@pytest.mark.parametrize("name", benchmarks.builtin_names())
def test_padded_solve_reads_fixed_dofs_as_positive_zero(name):
    # fixed dofs read the zero row below the free dofs of the padded
    # solution: exactly +0.0, and that row is never written
    model = benchmarks.get_builtin(name)
    an = Analyzer(model)
    assert an._rhs.flags.f_contiguous and not an._rhs[-1].any()
    rhs = an._rhs.tobytes()
    lo, hi = model.area_bounds()
    fixed = model.fixed_dof_mask()
    for areas in [lo, hi, *np.random.default_rng(4).uniform(lo, hi, size=(3, len(lo)))]:
        an.evaluate(areas)
        for case in an.analyze(areas).cases:
            u = case.displacements.reshape(-1)[fixed]
            assert (u == 0.0).all() and not np.signbit(u).any()
    assert an._rhs.tobytes() == rhs


def _constraint_table_by_loop(model):
    """(source, upper, lower, kind, where) of every constraint row in table
    order: each element's stress row, followed by its buckling row if its
    group buckles, then each displacement limit's rows in sorted (node,
    dof) order. A displacement row's source is n_el plus the dof's row in
    the padded solution, whose last row every fixed dof reads."""
    n_el = model.n_elements
    free = np.flatnonzero(~model.fixed_dof_mask()).tolist()
    rows = []
    for i, (_, _, gid) in enumerate(model.elements):
        g = model.groups[gid]
        rows.append((i, g.stress_tension_limit, -g.stress_compression_limit,
                     "stress", {"element": i}))
        if g.buckling_k is not None:
            rows.append((i, np.inf, np.nan, "buckling", {"element": i}))
    for nodes, dofs, limit in model.displacement_limits:
        for nid in sorted(nodes):
            for dof in sorted(dofs):
                d = 3 * nid + "xyz".index(dof)
                row = free.index(d) if d in free else len(free)
                rows.append((n_el + row, limit, -limit,
                             "displacement", {"node": nid, "dof": dof}))
    return rows


@pytest.mark.parametrize("name", benchmarks.builtin_names())
def test_constraint_table_row_order(name):
    model = benchmarks.get_builtin(name)
    an = Analyzer(model)
    rows = _constraint_table_by_loop(model)
    source, upper, lower, kinds, where = zip(*rows)
    assert an.row_source.tobytes() == np.array(source).tobytes()
    assert an.row_upper.tobytes() == np.array(upper, dtype=float).tobytes()
    assert an.row_lower.tobytes() == np.array(lower, dtype=float).tobytes()
    expected = [{"kind": kind, "case": case, **w}
                for case in range(len(model.load_cases))
                for kind, w in zip(kinds, where)]
    labels = an.constraint_labels()
    assert labels == expected
    # key order is what result.json prints
    assert [list(label) for label in labels] == [list(e) for e in expected]
    if name == "18bar":
        assert list(kinds) == ["stress", "buckling"] * model.n_elements
    if name in ("25bar", "72bar"):
        pairs = [(w["node"], w["dof"]) for kind, w in zip(kinds, where)
                 if kind == "displacement"]
        assert pairs and pairs == sorted(pairs)


# a user's command in a fresh interpreter; prints whether scipy.linalg was
# imported, then whether the analysis holds scipy.linalg.lapack's routines
_STARTUP_SCRIPT = """
import sys
from trussopt import analysis, cli
code = cli.main(["verify", "--model", "builtin:18bar",
                 "--areas", "10,21.6506,12.5,7.0711"])
print(code, "scipy.linalg" in sys.modules)
import scipy.linalg.lapack as lapack
print(analysis.dpbtrf is lapack.dpbtrf, analysis.dpbtrs is lapack.dpbtrs)
"""


def test_a_command_starts_without_importing_scipy_linalg():
    src = str(Path(trussopt.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.splitlines()[-2:] == ["0 False", "True True"]


def test_lapack_routines_fall_back_to_the_public_import(monkeypatch):
    # a scipy layout where the extension file is not found: the routines
    # come from scipy.linalg.lapack, and an analysis gives the same bytes
    import scipy.linalg.lapack as lapack
    entry = benchmarks.builtin_models()["18bar"]
    expected = analyze(entry.model, entry.reference_areas)
    calls = []
    for name in ("dpbtrf", "dpbtrs"):
        def spy(*args, _routine=getattr(lapack, name), _name=name, **kwargs):
            calls.append(_name)
            return _routine(*args, **kwargs)
        monkeypatch.setattr(lapack, name, spy)
    searched = []

    class NotFound:
        def __init__(self, path, *loader_details):
            searched.append(path)

        def find_spec(self, fullname, target=None):
            return None

    monkeypatch.setattr(analysis, "FileFinder", NotFound)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    routines = analysis._lapack_routines()
    assert [Path(p).name for p in searched] == ["linalg"]
    assert routines == (lapack.dpbtrf, lapack.dpbtrs)
    monkeypatch.setattr(analysis, "dpbtrf", routines[0])
    monkeypatch.setattr(analysis, "dpbtrs", routines[1])
    got = analyze(entry.model, entry.reference_areas)
    assert calls == ["dpbtrf", "dpbtrs"]
    for field in ("response", "margins"):
        assert getattr(got, field).tobytes() == getattr(expected, field).tobytes()
    assert repr(got.weight) == repr(expected.weight)


@pytest.mark.parametrize("name", benchmarks.builtin_names())
def test_a_parsed_document_gives_the_same_analyzer(name):
    # the JSON reader hands make_model loads and element triples already
    # in model form, where a built-in's pass through its normalization
    model = benchmarks.get_builtin(name)
    built = Analyzer(model)
    parsed = Analyzer(io.parse_model(io.serialize_model(model)))
    for attr in ("lengths", "_scatter_idx", "_scatter_coeff", "_scatter_el",
                 "_elem_take", "_q_take", "row_source", "row_upper",
                 "row_lower", "_rhs"):
        a, b = getattr(parsed, attr), getattr(built, attr)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), attr
