import pytest

from trussopt.model import (Material, MemberGroup, ValidationError,
                            make_model, validate)


def _groups(n=1, **kw):
    defaults = dict(area_min=0.1, area_max=10.0,
                    stress_tension_limit=25.0, stress_compression_limit=25.0)
    defaults.update(kw)
    return [MemberGroup(i, defaults["area_min"], defaults["area_max"],
                        defaults["stress_tension_limit"],
                        defaults["stress_compression_limit"])
            for i in range(n)]


MAT = Material(10000.0, 0.1)


def _make(nodes=((0, 0), (100, 0)), elements=((0, 1, 0),), groups=None,
          supports=((0, "xy"), (1, "y")), loads=({1: (10, 0)},), **kw):
    return make_model("t", nodes, elements, groups or _groups(),
                      MAT, supports, loads, **kw)


def test_planar_models_fix_z_everywhere():
    m = _make()
    for s in m.supports:
        assert "z" in s.fixed_dofs
    assert all(n.coords[2] == 0.0 for n in m.nodes)


def test_explicit_3d_coordinates_kept():
    m = make_model("t3", [(0, 0, 0), (0, 0, 100), (100, 0, 100)],
                   [(0, 1, 0), (1, 2, 0), (0, 2, 0)], _groups(),
                   MAT, [(0, "xyz"), (2, "xyz")], [{1: (0, 5, -5)}])
    assert m.nodes[1].coords == (0.0, 0.0, 100.0)
    assert m.fixed_dof_mask().sum() == 6


def test_area_bounds_and_clamp():
    m = _make()
    lo, hi = m.area_bounds()
    assert lo.tolist() == [0.1] and hi.tolist() == [10.0]
    assert m.clamp([25.0]).tolist() == [10.0]
    assert m.clamp([0.0]).tolist() == [0.1]


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
        _make(groups=[MemberGroup(0, 5.0, 1.0, 25.0, 25.0)])
    assert any(code == "NonPositiveLimit" for code, _ in exc.value.problems)


@pytest.mark.parametrize("area_min, area_max", [
    (0.1, float("inf")), (float("nan"), 10.0), (-float("inf"), 10.0),
    (float("inf"), float("inf"))])
def test_non_finite_area_bound_rejected(area_min, area_max):
    with pytest.raises(ValidationError) as exc:
        _make(groups=_groups(area_min=area_min, area_max=area_max))
    assert exc.value.problems == [
        ("NonFiniteBound", "group 0 has a non-finite area bound")]


def test_all_dofs_fixed_rejected():
    with pytest.raises(ValidationError) as exc:
        _make(supports=[(0, "xy"), (1, "xy")])
    assert any(code == "NoFreeDofs" for code, _ in exc.value.problems)


def test_all_problems_collected_not_just_first():
    with pytest.raises(ValidationError) as exc:
        _make(elements=[(0, 0, 0), (0, 9, 5)],
              groups=[MemberGroup(0, 0.1, 10.0, -1.0, 25.0)])
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
    assert [(s.node, s.fixed_dofs) for s in m.supports] == [
        (0, frozenset("xy")), (1, frozenset("y"))]
