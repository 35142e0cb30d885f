"""JSON model documents: parsing with located diagnostics, serialization.

The document schema mirrors the TrussModel structure one to one, except
that nodes, elements, groups and load cases carry an "id": a document may
list them in any order, but must number each kind 0..n-1, once each, and
the model keeps them at those positions. Parsing is strict: unknown keys
are rejected and every diagnostic names the path of the offending field
(e.g. "nodes[3].x"), so files can be fixed without reading tracebacks.
"""

import json

from .model import (DOF_NAMES, BucklingSpec, Material, MemberGroup, ModelError,
                    ValidationError, make_model)


class ParseError(ModelError):
    def __init__(self, location, message):
        self.location = location
        super().__init__(f"{location}: {message}")


class _Bad(Exception):
    """A converter's complaint about one field; _fields adds the location."""


def _number_or_inf(value):
    # a null stress limit means unconstrained, stored as inf
    return float("inf") if value is None else float(value)


def _dofs(value):
    for d in value:
        if d not in DOF_NAMES:
            raise _Bad(f"unknown dof '{d}'")
    return value


def _node_ids(value):
    if any(type(n) is not int for n in value):
        raise _Bad("expected a list of int node ids")
    return value


def _limit_list(value):
    # located at the key alone, not under "document"
    if type(value) is not list:
        raise ParseError("displacement_limits", "expected a list")
    return value


# A field's check: the JSON types it accepts (json.loads makes values of
# exactly these types, and a bool is no int), the complaint about any
# other, and the converter of an accepted value, None to keep it. A
# converter may raise _Bad, and float's OverflowError (an int literal
# beyond the float range) is a complaint too
_INT = ((int,), "expected int", None)
_NUMBER = ((int, float), "expected a number", float)
_NUMBER_OR_NULL = ((int, float, type(None)), "expected a number or null",
                   _number_or_inf)
_STR, _LIST, _OBJECT = (((t,), f"expected {t.__name__}", None)
                        for t in (str, list, dict))
_DOF_LIST = ((list,), "expected list", _dofs)
_NODE_ID_LIST = ((list,), "expected list", _node_ids)
# every JSON type passes, and _limit_list locates its own complaint
_LIMIT_LIST = ((dict, list, str, int, float, bool, type(None)), None,
               _limit_list)
_ABSENT = object()     # the value of an absent field: of no type above

# one field table per object kind: JSON key -> check, in reading order
_DOCUMENT = {"name": _STR, "material": _OBJECT, "nodes": _LIST,
             "groups": _LIST, "elements": _LIST, "supports": _LIST,
             "load_cases": _LIST, "displacement_limits": _LIMIT_LIST}
_MATERIAL = {"elastic_modulus": _NUMBER, "weight_density": _NUMBER}
_NODE = {"id": _INT, "x": _NUMBER, "y": _NUMBER, "z": _NUMBER}
_GROUP = {"id": _INT, "area_min": _NUMBER, "area_max": _NUMBER,
          "stress_tension": _NUMBER_OR_NULL,
          "stress_compression": _NUMBER_OR_NULL, "buckling_k": _NUMBER}
_ELEMENT = {"id": _INT, "a": _INT, "b": _INT, "group": _INT}
_SUPPORT = {"node": _INT, "fixed": _DOF_LIST}
_LOAD_CASE = {"id": _INT, "loads": _LIST}
_LOAD = {"node": _INT, "fx": _NUMBER, "fy": _NUMBER, "fz": _NUMBER}
_LIMIT = {"nodes": _NODE_ID_LIST, "dofs": _DOF_LIST, "limit": _NUMBER}


def _fields(obj, table, loc, *index, optional=()):
    """Read one JSON object at location `loc`.format(*index), formatted
    only for a diagnostic: it must be an object with no key outside
    `table` and every key not in `optional`. Returns each field's checked
    value in table order, None for an absent optional field."""
    if type(obj) is not dict:
        raise ParseError(loc.format(*index), "expected an object")
    if not obj.keys() <= table.keys():
        raise ParseError(loc.format(*index),
                         f"unknown key '{min(obj.keys() - table.keys())}'")
    values = []
    get = obj.get
    try:
        for key, (types, message, convert) in table.items():
            value = get(key, _ABSENT)
            if type(value) not in types:
                if value is not _ABSENT:
                    raise _Bad(message)
                if key not in optional:
                    raise ParseError(loc.format(*index),
                                     f"missing required field '{key}'")
                values.append(None)
            else:
                values.append(value if convert is None else convert(value))
    except _Bad as bad:
        raise ParseError(f"{loc.format(*index)}.{key}", str(bad)) from None
    except OverflowError:
        raise ParseError(f"{loc.format(*index)}.{key}",
                         "number out of float range") from None
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
     raw_limits) = _fields(doc, _DOCUMENT, "document",
                           optional=("displacement_limits",))

    material = Material(*_fields(mat, _MATERIAL, "material"))
    nodes = _by_id([_fields(nd, _NODE, "nodes[{}]", i)
                    for i, nd in enumerate(raw_nodes)], "nodes", "BadNodeIds")
    groups = [MemberGroup(area_min, area_max, tension, compression,
                          None if k is None else BucklingSpec(K=k))
              for area_min, area_max, tension, compression, k in _by_id(
                  [_fields(g, _GROUP, "groups[{}]", i, optional=("buckling_k",))
                   for i, g in enumerate(raw_groups)], "groups", "BadGroupIds")]
    elements = _by_id([_fields(e, _ELEMENT, "elements[{}]", i)
                       for i, e in enumerate(raw_elements)], "elements", "BadIds")
    supports = [_fields(s, _SUPPORT, "supports[{}]", i)
                for i, s in enumerate(raw_supports)]
    cases = []
    for i, lc in enumerate(raw_cases):
        case_id, raw_loads = _fields(lc, _LOAD_CASE, "load_cases[{}]", i)
        cases.append((case_id, [(node, force) for node, *force in (
            _fields(ld, _LOAD, "load_cases[{}].loads[{}]", i, j)
            for j, ld in enumerate(raw_loads))]))
    cases = [loads for loads, in _by_id(cases, "load_cases", "BadCaseIds")]
    limits = [_fields(dl, _LIMIT, "displacement_limits[{}]", i)
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
        "nodes": [{"id": i, "x": x, "y": y, "z": z}
                  for i, (x, y, z) in enumerate(model.coords.tolist())],
        "groups": [
            {"id": i, "area_min": g.area_min, "area_max": g.area_max,
             "stress_tension": _limit_out(g.stress_tension_limit),
             "stress_compression": _limit_out(g.stress_compression_limit),
             **({"buckling_k": g.buckling.K} if g.buckling is not None else {})}
            for i, g in enumerate(model.groups)],
        "elements": [{"id": i, "a": a, "b": b, "group": g}
                     for i, (a, b, g) in enumerate(model.elements)],
        "supports": [{"node": s.node, "fixed": sorted(s.fixed_dofs)}
                     for s in model.supports],
        "load_cases": [
            {"id": i,
             "loads": [{"node": nid, "fx": f[0], "fy": f[1], "fz": f[2]}
                       for nid, f in loads]}
            for i, loads in enumerate(model.load_cases)],
        "displacement_limits": [
            {"nodes": sorted(dl.nodes), "dofs": sorted(dl.dofs),
             "limit": dl.limit} for dl in model.displacement_limits],
    }
    return json.dumps(doc, indent=2)


def models_equal(a, b):
    """Semantic equality of two models (identity-compared dataclasses)."""
    return (a.name == b.name
            and a.material == b.material
            and a.coords.tolist() == b.coords.tolist()
            and a.elements == b.elements
            and a.groups == b.groups
            and a.supports == b.supports
            and a.load_cases == b.load_cases
            and set(a.displacement_limits) == set(b.displacement_limits))
