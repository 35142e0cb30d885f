import dataclasses
import gc
import weakref

import numpy as np
import pytest

from trussopt import benchmarks, io
from trussopt.analysis import (Analyzer, SingularStructure, analyze,
                               reject_mechanism, structure_weight)
from trussopt.model import (BucklingSpec, Material, MemberGroup, ModelError,
                            clamp, make_model)
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
    group = model.element_group_indices()
    K = np.zeros((3 * model.n_nodes,) * 2)
    for i, (a, b, _) in enumerate(model.elements):
        delta = coords[b] - coords[a]
        L = np.linalg.norm(delta)
        k = (model.material.elastic_modulus * areas[group[i]] / L
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
        U = np.linalg.solve(ref, an.F_free)
        result = analyze(model, areas)
        for c, case in enumerate(result.cases):
            u = case.displacements.reshape(-1)[an.free]
            np.testing.assert_allclose(u, U[:, c], rtol=1e-9,
                                       atol=1e-9 * abs(U[:, c]).max())


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
            [MemberGroup(0.1, 10.0, 25.0, 25.0, BucklingSpec(4.0))],
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


def test_evaluate_many_maps_a_singular_design_to_none(zero_bound_pair):
    an = Analyzer(zero_bound_pair)
    designs = np.array([[1.0, 2.0], [4.0, 0.5], [0.0, 2.0], [3.0, 0.5],
                        [2.5, 2.5]])
    with pytest.raises(SingularStructure):
        an.evaluate(designs[2])
    got = an.evaluate_many(designs)
    assert got[2] is None
    for i in (0, 1, 3, 4):
        _same_evaluation(got[i], an.evaluate(designs[i]))
    assert an.evaluate_many(designs[2:3]) == [None]


def test_model_without_elements_is_a_mechanism():
    bare = make_model("bare", [(0, 0), (100, 0)], [], [], Material(1e4, 0.1),
                      [(0, "xy")], [{1: (5.0, 0.0)}])
    with pytest.raises(ModelError, match="bare is a mechanism"):
        reject_mechanism(bare)


def test_evaluate_raises_exactly_where_factorize_does():
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
        expected = _outcome(an.factorize, clamp(np.asarray(areas, dtype=float),
                                                *model.area_bounds()))
        assert _outcome(an.evaluate, areas) == expected
        outcomes.append(expected is None)
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
        assert (Analyzer(model).F_free.tobytes()
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
        if g.buckling is not None:
            rows.append((i, np.inf, np.nan, "buckling", {"element": i}))
    for dl in model.displacement_limits:
        for nid in sorted(dl.nodes):
            for dof in sorted(dl.dofs):
                d = 3 * nid + "xyz".index(dof)
                row = free.index(d) if d in free else len(free)
                rows.append((n_el + row, dl.limit, -dl.limit,
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
    mask = np.ones((len(model.load_cases), len(rows)), dtype=bool)
    expected = [{"kind": kind, "case": case, **w}
                for case in range(len(model.load_cases))
                for kind, w in zip(kinds, where)]
    labels = an.constraint_labels(mask)
    assert labels == expected
    # key order is what result.json prints
    assert [list(label) for label in labels] == [list(e) for e in expected]
    if name == "18bar":
        assert list(kinds) == ["stress", "buckling"] * model.n_elements
    if name in ("25bar", "72bar"):
        pairs = [(w["node"], w["dof"]) for kind, w in zip(kinds, where)
                 if kind == "displacement"]
        assert pairs and pairs == sorted(pairs)
