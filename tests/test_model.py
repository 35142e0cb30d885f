import numpy as np
import pytest

from trussopt.model import (Material, MemberGroup, ValidationError, clamp,
                            make_model, validate)


def _groups(n=1, **kw):
    defaults = dict(area_min=0.1, area_max=10.0,
                    stress_tension_limit=25.0, stress_compression_limit=25.0)
    defaults.update(kw)
    return [MemberGroup(defaults["area_min"], defaults["area_max"],
                        defaults["stress_tension_limit"],
                        defaults["stress_compression_limit"])] * n


MAT = Material(10000.0, 0.1)


def _make(nodes=((0, 0), (100, 0)), elements=((0, 1, 0),), groups=None,
          supports=((0, "xy"), (1, "y")), loads=({1: (10, 0)},), **kw):
    return make_model("t", nodes, elements, groups or _groups(),
                      MAT, supports, loads, **kw)


def test_planar_models_fix_z_everywhere():
    m = _make()
    for _, dofs in m.supports:
        assert "z" in dofs
    assert (m.coords[:, 2] == 0.0).all()


def test_coords_are_one_read_only_float_array():
    m = _make(nodes=[(0, 0), (100, 0, 0), (50, 80)])
    assert m.coords.dtype == np.float64 and m.coords.shape == (3, 3)
    assert m.coords.tolist() == [[0.0, 0.0, 0.0], [100.0, 0.0, 0.0],
                                 [50.0, 80.0, 0.0]]
    with pytest.raises(ValueError):
        m.coords[0, 0] = 1.0
    assert m.elements == ((0, 1, 0),)


def test_explicit_3d_coordinates_kept():
    m = make_model("t3", [(0, 0, 0), (0, 0, 100), (100, 0, 100)],
                   [(0, 1, 0), (1, 2, 0), (0, 2, 0)], _groups(),
                   MAT, [(0, "xyz"), (2, "xyz")], [{1: (0, 5, -5)}])
    assert m.coords[1].tolist() == [0.0, 0.0, 100.0]
    assert m.fixed_dof_mask().sum() == 6


def test_area_bounds_and_clamp():
    m = _make()
    lo, hi = m.area_bounds()
    assert lo.tolist() == [0.1] and hi.tolist() == [10.0]
    assert clamp(np.array([25.0]), lo, hi).tolist() == [10.0]
    assert clamp(np.array([0.0]), lo, hi).tolist() == [0.1]


def test_zero_length_element_rejected():
    with pytest.raises(ValidationError) as exc:
        _make(elements=[(0, 0, 0)])
    assert any(code == "ZeroLengthElement" for code, _ in exc.value.problems)


def test_dangling_node_reference_rejected():
    with pytest.raises(ValidationError) as exc:
        _make(elements=[(0, 7, 0)])
    assert any(code == "DanglingReference" for code, _ in exc.value.problems)


def test_dangling_group_reference_rejected():
    with pytest.raises(ValidationError) as exc:
        _make(elements=[(0, 1, 3)])
    assert any(code == "DanglingReference" for code, _ in exc.value.problems)


def test_empty_group_rejected():
    with pytest.raises(ValidationError) as exc:
        _make(groups=_groups(2))
    assert any(code == "EmptyGroup" for code, _ in exc.value.problems)


def test_bad_area_bounds_rejected():
    with pytest.raises(ValidationError) as exc:
        _make(groups=[MemberGroup(5.0, 1.0, 25.0, 25.0)])
    assert any(code == "NonPositiveLimit" for code, _ in exc.value.problems)


@pytest.mark.parametrize("area_min, area_max", [
    (0.1, float("inf")), (float("nan"), 10.0), (-float("inf"), 10.0),
    (float("inf"), float("inf"))])
def test_non_finite_area_bound_rejected(area_min, area_max):
    with pytest.raises(ValidationError) as exc:
        _make(groups=_groups(area_min=area_min, area_max=area_max))
    assert exc.value.problems == [
        ("NonFiniteBound", "group 0 has a non-finite area bound")]


@pytest.mark.parametrize("material, buckling_k, message", [
    (Material(float("inf"), 0.1), None,
     "material constants must be positive and finite"),
    (Material(10000.0, float("inf")), None,
     "material constants must be positive and finite"),
    (Material(float("nan"), 0.1), None,
     "material constants must be positive and finite"),
    (MAT, float("inf"), "group 0 buckling constant must be positive and finite"),
    (MAT, float("nan"), "group 0 buckling constant must be positive and finite"),
    (MAT, 0.0, "group 0 buckling constant must be positive and finite")])
def test_non_finite_material_or_buckling_constant_rejected(material, buckling_k,
                                                           message):
    # an inf modulus gave NaN margins and an inf density an inf weight, and
    # an inf buckling constant gave buckling rows that never bind
    with pytest.raises(ValidationError) as exc:
        make_model("t", [(0, 0), (100, 0)], [(0, 1, 0)],
                   [MemberGroup(0.1, 10.0, 25.0, 25.0, buckling_k)], material,
                   [(0, "xy"), (1, "y")], [{1: (10, 0)}])
    assert exc.value.problems == [("NonPositiveLimit", message)]


def test_all_dofs_fixed_rejected():
    with pytest.raises(ValidationError) as exc:
        _make(supports=[(0, "xy"), (1, "xy")])
    assert any(code == "NoFreeDofs" for code, _ in exc.value.problems)


def test_model_without_load_cases_rejected():
    with pytest.raises(ValidationError) as exc:
        make_model("t", [(0, 0), (100, 0)], [(0, 1, 0)], _groups(), MAT,
                   [(0, "xy"), (1, "y")], load_cases=[])
    assert exc.value.problems == [("NoLoadCase", "model has no load case")]


def test_all_problems_collected_not_just_first():
    with pytest.raises(ValidationError) as exc:
        _make(elements=[(0, 0, 0), (0, 9, 5)],
              groups=[MemberGroup(0.1, 10.0, -1.0, 25.0)])
    codes = {code for code, _ in exc.value.problems}
    assert {"ZeroLengthElement", "DanglingReference",
            "NonPositiveLimit"} <= codes


def test_validate_returns_model_unchanged():
    m = _make()
    assert validate(m) is m


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_load_rejected(bad):
    with pytest.raises(ValidationError) as exc:
        _make(loads=({1: (10, 0)}, {1: (10, bad)}))
    assert exc.value.problems == [
        ("NonFiniteLoad", "load case 1 has a non-finite load on node 1")]


def test_unknown_support_dof_rejected():
    with pytest.raises(ValidationError) as exc:
        _make(supports=[(0, "xw"), (1, "y")])
    assert exc.value.problems == [
        ("UnknownDof", "support on node 0 fixes unknown dofs ['w']")]


def test_unknown_displacement_limit_dof_rejected():
    with pytest.raises(ValidationError) as exc:
        _make(displacement_limits=[([1], ("x", "q"), 1.0)])
    assert exc.value.problems == [
        ("UnknownDof", "displacement limit names unknown dofs ['q']")]


def test_z_load_makes_a_flat_model_3d():
    m = _make(loads=({1: (10, 0, 7)},))
    assert list(m.supports) == [
        (0, frozenset("xy")), (1, frozenset("y"))]


def test_problems_are_reported_in_model_order():
    # the zero-length check reads one vectorized norm of all lengths, yet
    # each element's problems still follow the node problems in element
    # order: coincident nodes 1 and 2, a self-loop, a NaN node, and ends
    # that name a missing node or group
    with pytest.raises(ValidationError) as exc:
        _make(nodes=[(0, 0), (100, 0), (100, 0), (float("nan"), 5), (0, 50)],
              elements=[(0, 1, 0), (1, 2, 0), (2, 2, 0), (3, 0, 0),
                        (4, 9, 0), (9, 9, 0), (2, 1, 3), (4, 0, 0)],
              supports=[(0, "xy"), (4, "xy")])
    assert exc.value.problems == [
        ("NonFiniteCoords", "node 3 has non-finite coordinates"),
        ("ZeroLengthElement", "element 1 has zero length"),
        ("ZeroLengthElement", "element 2 connects node 2 to itself"),
        ("DanglingReference", "element 4 references missing node 9"),
        ("ZeroLengthElement", "element 5 connects node 9 to itself"),
        ("DanglingReference", "element 5 references missing node 9"),
        ("DanglingReference", "element 5 references missing node 9"),
        ("DanglingReference", "element 6 references missing group 3"),
        ("ZeroLengthElement", "element 6 has zero length")]


def test_overflowing_length_rejected_and_located():
    # finite coordinates whose difference or squared length overflows: an
    # inf length would give a zero stiffness and an inf weight. A NaN node
    # and a missing node are reported as before, not as a length
    with pytest.raises(ValidationError) as exc:
        _make(nodes=[(1e308, 0), (-1e308, 0), (1e200, 50), (float("nan"), 0),
                     (0, 50)],
              elements=[(0, 1, 0), (2, 4, 0), (3, 4, 0), (0, 9, 0)],
              supports=[(0, "xy"), (4, "xy")])
    assert exc.value.problems == [
        ("NonFiniteCoords", "node 3 has non-finite coordinates"),
        ("NonFiniteLength", "element 0 has a non-finite length"),
        ("NonFiniteLength", "element 1 has a non-finite length"),
        ("DanglingReference", "element 3 references missing node 9")]


def test_planar_supports_union_every_entry_of_a_node():
    m = _make(supports=[(0, "x"), (1, "y"), (0, ["y"])])
    assert list(m.supports) == [
        (0, frozenset("xyz")), (1, frozenset("yz"))]


def test_planar_support_naming_no_node_rejected():
    with pytest.raises(ValidationError) as exc:
        _make(supports=[(0, "xy"), (9, "xy"), (1, "y"), (-1, "w")])
    assert exc.value.problems == [
        ("DanglingReference", "support references missing node 9"),
        ("DanglingReference", "support references missing node -1"),
        ("UnknownDof", "support on node -1 fixes unknown dofs ['w']")]


def test_3d_supports_keep_every_entry():
    m = make_model("t3", [(0, 0, 0), (0, 0, 100), (100, 0, 100)],
                   [(0, 1, 0), (1, 2, 0), (0, 2, 0)], _groups(),
                   MAT, [(0, "xy"), (2, "xyz"), (0, "z")], [{1: (0, 5, -5)}])
    assert list(m.supports) == [
        (0, frozenset("xy")), (2, frozenset("xyz")), (0, frozenset("z"))]
    assert m.fixed_dof_mask().sum() == 6
