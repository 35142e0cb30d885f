"""JSON model documents: parsing with located diagnostics, serialization.

The document schema mirrors the TrussModel structure one to one. Parsing
is strict: unknown keys are rejected and every diagnostic names the path
of the offending field (e.g. "nodes[3].x"), so files can be fixed
without reading tracebacks.
"""

import json

from .model import (DOF_NAMES, BucklingSpec, LoadCase, Material, MemberGroup,
                    ModelError, ValidationError, make_model)


class ParseError(ModelError):
    def __init__(self, location, message):
        self.location = location
        super().__init__(f"{location}: {message}")


class _Bad(Exception):
    """A checker's complaint about one field; _fields adds the location."""


def _check(types, message, convert=None):
    # json.loads makes values of exactly these types, and a bool is no int
    def check(value):
        if type(value) not in types:
            raise _Bad(message)
        return value if convert is None else convert(value)
    return check


def _float(value):
    try:
        return float(value)
    except OverflowError:  # an int literal beyond the float range
        raise _Bad("number out of float range") from None


_int = _check((int,), "expected int")
_number = _check((int, float), "expected a number", _float)
# a null stress limit means unconstrained, stored as inf
_number_or_null = _check((int, float, type(None)), "expected a number or null",
                         lambda v: float("inf") if v is None else _float(v))
_str, _list, _object = (_check((t,), f"expected {t.__name__}")
                        for t in (str, list, dict))


def _dofs(value):
    for d in _list(value):
        if d not in DOF_NAMES:
            raise _Bad(f"unknown dof '{d}'")
    return value


def _node_ids(value):
    if any(type(n) is not int for n in _list(value)):
        raise _Bad("expected a list of int node ids")
    return value


def _limit_list(value):
    # located at the key alone, not under "document"
    if not isinstance(value, list):
        raise ParseError("displacement_limits", "expected a list")
    return value


# one field table per object kind: JSON key -> checker, in reading order
_DOCUMENT = {"name": _str, "material": _object, "nodes": _list,
             "groups": _list, "elements": _list, "supports": _list,
             "load_cases": _list, "displacement_limits": _limit_list}
_MATERIAL = {"elastic_modulus": _number, "weight_density": _number}
_NODE = {"id": _int, "x": _number, "y": _number, "z": _number}
_GROUP = {"id": _int, "area_min": _number, "area_max": _number,
          "stress_tension": _number_or_null,
          "stress_compression": _number_or_null, "buckling_k": _number}
_ELEMENT = {"id": _int, "a": _int, "b": _int, "group": _int}
_SUPPORT = {"node": _int, "fixed": _dofs}
_LOAD_CASE = {"id": _int, "loads": _list}
_LOAD = {"node": _int, "fx": _number, "fy": _number, "fz": _number}
_LIMIT = {"nodes": _node_ids, "dofs": _dofs, "limit": _number}


def _fields(obj, loc, table, optional=()):
    """Read one JSON object at `loc`: it must be an object with no key
    outside `table` and every key not in `optional`. Returns each field's
    checked value in table order, None for an absent optional field."""
    if type(obj) is not dict:
        raise ParseError(loc, "expected an object")
    if not obj.keys() <= table.keys():
        raise ParseError(loc, f"unknown key '{min(obj.keys() - table.keys())}'")
    values = []
    try:
        for key, check in table.items():
            if key in obj:
                values.append(check(obj[key]))
            elif key in optional:
                values.append(None)
            else:
                raise ParseError(loc, f"missing required field '{key}'")
    except _Bad as bad:
        raise ParseError(f"{loc}.{key}", str(bad)) from None
    return values


def _by_id(rows, loc, code):
    """The fields of rows [id, *fields] in id order; ids must be 0..n-1."""
    by_id = {row[0]: row[1:] for row in rows}
    if sorted(by_id) != list(range(len(rows))):
        raise ValidationError([(code, f"{loc}: ids must be unique and contiguous from 0")])
    return [by_id[i] for i in range(len(rows))]


def parse_model(text):
    """Parse a JSON model document into a validated TrussModel."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}", exc.msg) from None
    if not isinstance(doc, dict):
        raise ParseError("document", "top level must be an object")
    (name, mat, raw_nodes, raw_groups, raw_elements, raw_supports, raw_cases,
     raw_limits) = _fields(doc, "document", _DOCUMENT,
                           optional=("displacement_limits",))

    material = Material(*_fields(mat, "material", _MATERIAL))
    nodes = _by_id([_fields(nd, f"nodes[{i}]", _NODE)
                    for i, nd in enumerate(raw_nodes)], "nodes", "BadNodeIds")
    groups = [MemberGroup(gid, area_min, area_max, tension, compression,
                          None if k is None else BucklingSpec(K=k))
              for gid, area_min, area_max, tension, compression, k in (
                  _fields(g, f"groups[{i}]", _GROUP, optional=("buckling_k",))
                  for i, g in enumerate(raw_groups))]
    elements = _by_id([_fields(e, f"elements[{i}]", _ELEMENT)
                       for i, e in enumerate(raw_elements)], "elements", "BadIds")
    supports = [_fields(s, f"supports[{i}]", _SUPPORT)
                for i, s in enumerate(raw_supports)]
    cases = []
    for i, lc in enumerate(raw_cases):
        loc = f"load_cases[{i}]"
        case_id, raw_loads = _fields(lc, loc, _LOAD_CASE)
        loads = sorted((node, tuple(force)) for node, *force in (
            _fields(ld, f"{loc}.loads[{j}]", _LOAD) for j, ld in enumerate(raw_loads)))
        cases.append(LoadCase(id=case_id, point_loads=tuple(loads)))
    limits = [_fields(dl, f"displacement_limits[{i}]", _LIMIT)
              for i, dl in enumerate(raw_limits or ())]
    return make_model(name, nodes, elements, groups, material, supports,
                      cases, limits)


def _limit_out(v):
    return None if v == float("inf") else v


def serialize_model(model):
    """Serialize a TrussModel to a JSON document string. parse_model of
    the result reproduces the model's semantic content exactly."""
    doc = {
        "name": model.name,
        "material": {
            "elastic_modulus": model.material.elastic_modulus,
            "weight_density": model.material.weight_density,
        },
        "nodes": [{"id": n.id, "x": n.coords[0], "y": n.coords[1],
                   "z": n.coords[2]} for n in model.nodes],
        "groups": [
            {"id": g.id, "area_min": g.area_min, "area_max": g.area_max,
             "stress_tension": _limit_out(g.stress_tension_limit),
             "stress_compression": _limit_out(g.stress_compression_limit),
             **({"buckling_k": g.buckling.K} if g.buckling is not None else {})}
            for g in model.groups],
        "elements": [{"id": e.id, "a": e.node_a, "b": e.node_b,
                      "group": e.group} for e in model.elements],
        "supports": [{"node": s.node, "fixed": sorted(s.fixed_dofs)}
                     for s in model.supports],
        "load_cases": [
            {"id": lc.id,
             "loads": [{"node": nid, "fx": f[0], "fy": f[1], "fz": f[2]}
                       for nid, f in lc.point_loads]}
            for lc in model.load_cases],
        "displacement_limits": [
            {"nodes": sorted(dl.nodes), "dofs": sorted(dl.dofs),
             "limit": dl.limit} for dl in model.displacement_limits],
    }
    return json.dumps(doc, indent=2)


def models_equal(a, b):
    """Semantic equality of two models (identity-compared dataclasses)."""
    return (a.name == b.name
            and a.material == b.material
            and tuple(n.coords for n in a.nodes) == tuple(n.coords for n in b.nodes)
            and a.elements == b.elements
            and a.groups == b.groups
            and a.supports == b.supports
            and a.load_cases == b.load_cases
            and set(a.displacement_limits) == set(b.displacement_limits))
