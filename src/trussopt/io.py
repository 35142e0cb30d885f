"""JSON model documents: parsing with located diagnostics, serialization.

The document schema mirrors the TrussModel structure one to one, except
that nodes, elements, groups and load cases carry an "id": a document may
list them in any order, but must number each kind 0..n-1, once each, and
the model keeps them at those positions. Parsing is strict: unknown keys
are rejected and every diagnostic names the path of the offending field
(e.g. "nodes[3].x"), so files can be fixed without reading tracebacks.

A list of objects (nodes, groups, elements, supports, the loads of each
load case) is read in column passes (`_columns`): every object must have
one key set, each field's values are checked against its JSON types as
one set of types, and the field's converter is mapped over them once.
Ids in document order pass with one comparison against 0..n-1. A list
that fails any of these checks is read again object by object with
`_fields`, which defines what a valid object is. The column pass raises
no ParseError itself, so every diagnostic about an object or field comes
from `_fields` and names the first fault in reading order, whichever
pass found that the list is not clean. The few load cases and
displacement limits, the material and the document itself are read by
`_fields` alone.
"""

import json
from operator import itemgetter

from .model import (DOF_NAMES, Material, MemberGroup, ModelError,
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


def _columns(raw, table, loc, *index, optional=()):
    """Read the JSON list `raw` of objects with `table`, object i located
    at `loc`.format(*index, i): one list of values per field, in table
    order, None for an absent optional field. The column pass takes a
    list whose objects all have one key set, the table's keys less some
    optional ones, and whose fields all pass their checks; any other list
    is read object by object with _fields, which raises the ParseError of
    its first fault, or returns the fields of a valid list the pass does
    not take (an optional field on some objects only)."""
    if set(map(type, raw)) == {dict}:
        absent = table.keys() - raw[0].keys()
        # every object has as many keys as the first has of the table,
        # and each of those (a KeyError if not): so all have one key set
        if (absent.issubset(optional)
                and set(map(len, raw)) == {len(table) - len(absent)}):
            columns = []
            try:
                for key, (types, _, convert) in table.items():
                    if key in absent:
                        columns.append([None] * len(raw))
                        continue
                    column = list(map(itemgetter(key), raw))
                    if not set(map(type, column)).issubset(types):
                        break
                    columns.append(column if convert is None
                                   else list(map(convert, column)))
                else:
                    return columns
            except (KeyError, _Bad, OverflowError):
                pass
    rows = [_fields(obj, table, loc, *index, i, optional=optional)
            for i, obj in enumerate(raw)]
    return [[row[k] for row in rows] for k in range(len(table))]


def _in_id_order(ids, columns, loc, code):
    """`columns` reordered so that entry i is the one with id i; the ids
    must be 0..n-1, each once."""
    n = len(ids)
    if ids != list(range(n)):
        position = {i: k for k, i in enumerate(ids)}
        if sorted(position) != list(range(n)):
            raise ValidationError([(code, f"{loc}: ids must be unique and contiguous from 0")])
        columns = [[column[position[i]] for i in range(n)] for column in columns]
    return columns


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
    ids, *xyz = _columns(raw_nodes, _NODE, "nodes[{}]")
    nodes = list(zip(*_in_id_order(ids, xyz, "nodes", "BadNodeIds")))
    ids, *fields = _columns(raw_groups, _GROUP, "groups[{}]",
                            optional=("buckling_k",))
    groups = [MemberGroup(*group) for group in zip(
        *_in_id_order(ids, fields, "groups", "BadGroupIds"))]
    ids, *abg = _columns(raw_elements, _ELEMENT, "elements[{}]")
    elements = list(zip(*_in_id_order(ids, abg, "elements", "BadIds")))
    supports = list(zip(*_columns(raw_supports, _SUPPORT, "supports[{}]")))
    # a load case's loads are read before the next load case, so that
    # the first fault in reading order is the one reported
    case_ids, cases = [], []
    for i, lc in enumerate(raw_cases):
        case_id, raw_loads = _fields(lc, _LOAD_CASE, "load_cases[{}]", i)
        node, *force = _columns(raw_loads, _LOAD, "load_cases[{}].loads[{}]", i)
        case_ids.append(case_id)
        cases.append(list(zip(node, zip(*force))))
    cases, = _in_id_order(case_ids, [cases], "load_cases", "BadCaseIds")
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
             **({"buckling_k": g.buckling_k} if g.buckling_k is not None else {})}
            for i, g in enumerate(model.groups)],
        "elements": [{"id": i, "a": a, "b": b, "group": g}
                     for i, (a, b, g) in enumerate(model.elements)],
        "supports": [{"node": node, "fixed": sorted(dofs)}
                     for node, dofs in model.supports],
        "load_cases": [
            {"id": i,
             "loads": [{"node": nid, "fx": f[0], "fy": f[1], "fz": f[2]}
                       for nid, f in loads]}
            for i, loads in enumerate(model.load_cases)],
        "displacement_limits": [
            {"nodes": sorted(nodes), "dofs": sorted(dofs), "limit": limit}
            for nodes, dofs, limit in model.displacement_limits],
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
