import hashlib
import json

import pytest

from trussopt import benchmarks
from trussopt.io import ParseError, models_equal, parse_model, serialize_model
from trussopt.model import ValidationError


@pytest.mark.parametrize("name", benchmarks.builtin_names())
def test_round_trip_identity_on_builtins(name):
    model = benchmarks.get_builtin(name)
    text = serialize_model(model)
    again = parse_model(text)
    assert models_equal(model, again)
    # a second round trip is textually identical
    assert serialize_model(again) == text


# sha256 of serialize_model's text for each built-in: the documents a
# user writes out must not change by a byte when the model's containers do
DOCUMENT_SHA256 = {
    "10bar-case1": "eb767d520da9345c13ee1dc7101330d83ee18e25767dcfb370c130b172261d6a",
    "10bar-case2": "69bed8bcc6b074dc765ef4918defa2ed2a56d7897267ddfb2b783a5273b0f967",
    "17bar": "f5ecd7fd7f723ed30cd1bf27255eaa833a8b25e84b27f91ae9f86bb30d12e234",
    "18bar": "a9af52c4fa54a63b0d96c545ac3658c81ca7d92cf4332ec8e7f42458ecabf848",
    "200bar": "9d8f6772c6034b3eb3610ded4c6f3eb7b5b55f8bdd91d0fcf6a0b386eae13990",
    "22bar": "974b97cebe6ea83d0bf00a6e43c959f7723bdf3d5aa2ad54c0303749665358ed",
    "25bar": "513dc6666b7f172a88b670eff733a0b85fd9a0e431fc6a33b40158cb1fe9f265",
    "72bar": "df5bd1b4c665d5dbb76d1ca159fbf9d80d878a0892019a65ead6b321f52e12c8",
}


def test_builtin_documents_are_pinned():
    assert sorted(DOCUMENT_SHA256) == sorted(benchmarks.builtin_names())
    for name, digest in DOCUMENT_SHA256.items():
        text = serialize_model(benchmarks.get_builtin(name))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_loads_in_any_order_give_the_sorted_model():
    # a model keeps each case's loads sorted by node, also when the
    # reader hands them over in model form
    model = benchmarks.get_builtin("200bar")
    doc = json.loads(serialize_model(model))
    for case in doc["load_cases"]:
        case["loads"].reverse()
    assert models_equal(parse_model(json.dumps(doc)), model)


def _doc(name="10bar-case1"):
    return json.loads(serialize_model(benchmarks.get_builtin(name)))


def test_missing_material_names_the_field():
    doc = _doc()
    del doc["material"]
    with pytest.raises(ParseError) as exc:
        parse_model(json.dumps(doc))
    assert "material" in str(exc.value)


def test_duplicate_node_id_is_validation_error():
    doc = _doc()
    doc["nodes"][1]["id"] = 0
    with pytest.raises(ValidationError):
        parse_model(json.dumps(doc))


def test_unknown_top_level_key_rejected():
    doc = _doc()
    doc["unexpected"] = 1
    with pytest.raises(ParseError) as exc:
        parse_model(json.dumps(doc))
    assert "unexpected" in str(exc.value)


def test_unknown_nested_key_is_located():
    doc = _doc()
    doc["nodes"][3]["weight"] = 5
    with pytest.raises(ParseError) as exc:
        parse_model(json.dumps(doc))
    assert exc.value.location == "nodes[3]"


def test_bad_number_is_located():
    doc = _doc()
    doc["groups"][0]["area_min"] = "tiny"
    with pytest.raises(ParseError) as exc:
        parse_model(json.dumps(doc))
    assert "groups[0]" in exc.value.location


def test_syntax_error_reports_line():
    text = '{\n  "name": "x",\n  broken\n}'
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert "line 3" in exc.value.location


def test_non_object_document_rejected():
    with pytest.raises(ParseError):
        parse_model("[1, 2, 3]")


def test_null_stress_limit_means_unconstrained():
    doc = _doc("17bar")
    assert doc["groups"][0]["stress_tension"] is None
    model = parse_model(json.dumps(doc))
    assert model.groups[0].stress_tension_limit == float("inf")


def test_bad_dof_name_rejected():
    doc = _doc()
    doc["supports"][0]["fixed"] = ["x", "q"]
    with pytest.raises(ParseError) as exc:
        parse_model(json.dumps(doc))
    assert "q" in str(exc.value)


def test_parse_from_disk(tmp_path):
    p = tmp_path / "model.json"
    p.write_text(serialize_model(benchmarks.get_builtin("72bar")))
    model = parse_model(p.read_text())
    assert model.n_elements == 72


_DELETE = object()


def _faulty(path, value):
    """The 10bar-case1 document with the field at `path` set to `value`
    (or deleted); an empty path replaces the whole document."""
    if not path:
        return value
    doc = _doc()
    *head, last = path
    obj = doc
    for key in head:
        obj = obj[key]
    if value is _DELETE:
        del obj[last]
    else:
        obj[last] = value
    return doc


LOAD = ("load_cases", 0, "loads", 0)
LIMIT = ("displacement_limits", 0)

# (object kind, path, value, location, message): for each kind, the value
# is not an object, has an unknown key, lacks a required field, and holds
# a field of the wrong type; a number field also holds an int literal
# beyond the float range
FAULTS = [
    ("document", (), [1, 2, 3], "document", "top level must be an object"),
    ("document", ("unexpected",), 1, "document", "unknown key 'unexpected'"),
    ("document", ("material",), _DELETE, "document",
     "missing required field 'material'"),
    ("document", ("name",), 5, "document.name", "expected str"),
    ("document", ("displacement_limits",), {}, "displacement_limits",
     "expected a list"),
    ("material", ("material",), [], "document.material", "expected dict"),
    ("material", ("material", "poisson"), 0.3, "material",
     "unknown key 'poisson'"),
    ("material", ("material", "weight_density"), _DELETE, "material",
     "missing required field 'weight_density'"),
    ("material", ("material", "elastic_modulus"), "stiff",
     "material.elastic_modulus", "expected a number"),
    ("node", ("nodes", 3), 5, "nodes[3]", "expected an object"),
    ("node", ("nodes", 3, "weight"), 5, "nodes[3]", "unknown key 'weight'"),
    ("node", ("nodes", 3, "y"), _DELETE, "nodes[3]",
     "missing required field 'y'"),
    ("node", ("nodes", 3, "x"), "left", "nodes[3].x", "expected a number"),
    ("group", ("groups", 2), "g", "groups[2]", "expected an object"),
    ("group", ("groups", 2, "color"), "red", "groups[2]",
     "unknown key 'color'"),
    ("group", ("groups", 2, "stress_compression"), _DELETE, "groups[2]",
     "missing required field 'stress_compression'"),
    ("group", ("groups", 2, "stress_tension"), "high",
     "groups[2].stress_tension", "expected a number or null"),
    ("group", ("groups", 2, "buckling_k"), None, "groups[2].buckling_k",
     "expected a number"),
    ("group", ("groups", 2, "area_max"), 10 ** 400, "groups[2].area_max",
     "number out of float range"),
    ("group", ("groups", 2, "stress_tension"), 10 ** 400,
     "groups[2].stress_tension", "number out of float range"),
    ("element", ("elements", 4), [0, 1], "elements[4]", "expected an object"),
    ("element", ("elements", 4, "length"), 1, "elements[4]",
     "unknown key 'length'"),
    ("element", ("elements", 4, "group"), _DELETE, "elements[4]",
     "missing required field 'group'"),
    ("element", ("elements", 4, "group"), "two", "elements[4].group",
     "expected int"),
    ("support", ("supports", 1), "pin", "supports[1]", "expected an object"),
    ("support", ("supports", 1, "rotation"), 0, "supports[1]",
     "unknown key 'rotation'"),
    ("support", ("supports", 1, "fixed"), _DELETE, "supports[1]",
     "missing required field 'fixed'"),
    ("support", ("supports", 1, "fixed"), "xy", "supports[1].fixed",
     "expected list"),
    ("load case", ("load_cases", 0), 1, "load_cases[0]", "expected an object"),
    ("load case", ("load_cases", 0, "name"), "wind", "load_cases[0]",
     "unknown key 'name'"),
    ("load case", ("load_cases", 0, "loads"), _DELETE, "load_cases[0]",
     "missing required field 'loads'"),
    ("load case", ("load_cases", 0, "id"), "first", "load_cases[0].id",
     "expected int"),
    ("load", LOAD, None, "load_cases[0].loads[0]", "expected an object"),
    ("load", LOAD + ("mz",), 0, "load_cases[0].loads[0]", "unknown key 'mz'"),
    ("load", LOAD + ("fz",), _DELETE, "load_cases[0].loads[0]",
     "missing required field 'fz'"),
    ("load", LOAD + ("fx",), "big", "load_cases[0].loads[0].fx",
     "expected a number"),
    ("displacement limit", LIMIT, 2.0, "displacement_limits[0]",
     "expected an object"),
    ("displacement limit", LIMIT + ("case",), 0, "displacement_limits[0]",
     "unknown key 'case'"),
    ("displacement limit", LIMIT + ("limit",), _DELETE,
     "displacement_limits[0]", "missing required field 'limit'"),
    ("displacement limit", LIMIT + ("dofs",), ["x", "w"],
     "displacement_limits[0].dofs", "unknown dof 'w'"),
]


@pytest.mark.parametrize("kind, path, value, location, message", FAULTS,
                         ids=[f"{f[0]}-{f[3]}-{f[4]}" for f in FAULTS])
def test_fault_is_located(kind, path, value, location, message):
    with pytest.raises(ParseError) as exc:
        parse_model(json.dumps(_faulty(path, value)))
    assert type(exc.value) is ParseError
    assert exc.value.location == location
    assert str(exc.value) == f"{location}: {message}"


@pytest.mark.parametrize("path, value, location", [
    (("elements", 4, "group"), True, "elements[4].group"),
    (("nodes", 2, "id"), False, "nodes[2].id"),
    (LOAD + ("node",), True, "load_cases[0].loads[0].node"),
])
def test_boolean_is_not_an_int(path, value, location):
    with pytest.raises(ParseError) as exc:
        parse_model(json.dumps(_faulty(path, value)))
    assert str(exc.value) == f"{location}: expected int"


@pytest.mark.parametrize("nodes", [["a"], [1.5], [[1]], [True], 3])
def test_displacement_limit_nodes_are_node_ids(nodes):
    with pytest.raises(ParseError) as exc:
        parse_model(json.dumps(_faulty(LIMIT + ("nodes",), nodes)))
    assert exc.value.location == "displacement_limits[0].nodes"


@pytest.mark.parametrize("path, value, code", [
    (("nodes", 1, "id"), 0, "BadNodeIds"),
    (("nodes", 5, "id"), 6, "BadNodeIds"),
    (("elements", 0, "id"), 9, "BadIds"),
    (("elements", 3, "id"), -1, "BadIds"),
    (("groups", 9, "id"), 8, "BadGroupIds"),
    (("groups", 0, "id"), 10, "BadGroupIds"),
    (("load_cases", 0, "id"), 1, "BadCaseIds"),
])
def test_ids_must_be_contiguous(path, value, code):
    with pytest.raises(ValidationError) as exc:
        parse_model(json.dumps(_faulty(path, value)))
    assert exc.value.problems == [
        (code, f"{path[0]}: ids must be unique and contiguous from 0")]


def test_huge_int_references_stay_python_ints():
    # an element end beyond int64 names no node, and a group reference
    # beyond it names no group
    with pytest.raises(ValidationError) as exc:
        parse_model(json.dumps(_faulty(("elements", 2, "a"), 10 ** 30)))
    assert exc.value.problems == [
        ("DanglingReference", f"element 2 references missing node {10 ** 30}")]
    with pytest.raises(ValidationError) as exc:
        parse_model(json.dumps(_faulty(("elements", 9, "group"), 10 ** 30)))
    assert exc.value.problems == [
        ("DanglingReference", f"element 9 references missing group {10 ** 30}"),
        ("EmptyGroup", "group 9 has no elements")]


def _with_faults(name, *edits):
    """The `name` document with several (path, value) edits applied, in
    order; a value of _DELETE deletes the field."""
    doc = _doc(name)
    for path, value in edits:
        *head, last = path
        obj = doc
        for key in head:
            obj = obj[key]
        if value is _DELETE:
            del obj[last]
        else:
            obj[last] = value
    return doc


# (model, edits, the one fault parse_model reports): a document with
# several faults reports the first one it reads
SEVERAL_FAULTS = [
    # an unknown key before a missing field of the same object
    ("10bar-case1", [(("nodes", 3, "weight"), 5), (("nodes", 3, "x"), _DELETE)],
     "nodes[3]: unknown key 'weight'"),
    ("10bar-case1", [(("groups", 2, "area_min"), _DELETE),
                     (("groups", 2, "color"), "red")],
     "groups[2]: unknown key 'color'"),
    # of two bad fields, the first in table order
    ("10bar-case1", [(("nodes", 3, "z"), "up"), (("nodes", 3, "x"), "left")],
     "nodes[3].x: expected a number"),
    ("10bar-case1", [(("nodes", 3, "y"), "up"), (("nodes", 3, "x"), _DELETE)],
     "nodes[3]: missing required field 'x'"),
    ("10bar-case1", [(("nodes", 3, "y"), _DELETE), (("nodes", 3, "x"), "left")],
     "nodes[3].x: expected a number"),
    ("10bar-case1", [(("groups", 2, "buckling_k"), "k"),
                     (("groups", 2, "stress_tension"), "high")],
     "groups[2].stress_tension: expected a number or null"),
    # an earlier object before a later one, a node before a group
    ("10bar-case1", [(("nodes", 3, "x"), "left"), (("nodes", 1, "y"), _DELETE)],
     "nodes[1]: missing required field 'y'"),
    ("10bar-case1", [(("groups", 0, "area_min"), "tiny"),
                     (("nodes", 3, "x"), "left")],
     "nodes[3].x: expected a number"),
    ("10bar-case1", [(("elements", 0, "a"), "one"), (("groups", 9), 5)],
     "groups[9]: expected an object"),
    # a nested location names its load case and its load
    ("22bar", [(("load_cases", 1, "loads", 2, "fx"), "big"),
               (("load_cases", 2, "loads", 0, "fy"), "big")],
     "load_cases[1].loads[2].fx: expected a number"),
]


@pytest.mark.parametrize("name, edits, reported", SEVERAL_FAULTS,
                         ids=[f[2] for f in SEVERAL_FAULTS])
def test_first_of_several_faults_is_reported(name, edits, reported):
    with pytest.raises(ParseError) as exc:
        parse_model(json.dumps(_with_faults(name, *edits)))
    assert str(exc.value) == reported
    assert exc.value.location == reported.split(": ")[0]


# faults the column pass does not take, in long 200bar lists: each list
# is read again object by object, and the ParseError is the one the object
# reader gave before lists were read in columns
COLUMN_FALLBACK_FAULTS = [
    # in the last object of a long list
    (("elements", 199, "b"), "7", "elements[199].b: expected int"),
    (("supports", 76, "fixed"), ["x", "w"],
     "supports[76].fixed: unknown dof 'w'"),
    (("load_cases", 2, "loads", -1, "fz"), _DELETE,
     "load_cases[2].loads[54]: missing required field 'fz'"),
    # in a later column only, and in a converter
    (("nodes", 40, "z"), "up", "nodes[40].z: expected a number"),
    (("nodes", 5, "x"), 10 ** 400, "nodes[5].x: number out of float range"),
    (("elements", 199, "group"), True, "elements[199].group: expected int"),
]


@pytest.mark.parametrize("path, value, reported", COLUMN_FALLBACK_FAULTS,
                         ids=[f[2] for f in COLUMN_FALLBACK_FAULTS])
def test_a_list_the_column_pass_refuses_is_read_by_object(path, value, reported):
    with pytest.raises(ParseError) as exc:
        parse_model(json.dumps(_with_faults("200bar", (path, value))))
    assert str(exc.value) == reported
    assert exc.value.location == reported.split(": ")[0]


def test_an_empty_element_list_leaves_every_group_empty():
    with pytest.raises(ValidationError) as exc:
        parse_model(json.dumps(_with_faults("200bar", (("elements",), []))))
    assert exc.value.problems == [
        ("EmptyGroup", f"group {i} has no elements") for i in range(29)]


def test_200bar_problems_keep_model_order():
    # several faults in one document are reported in model order: the
    # elements, then the supports, then each load case
    doc = _doc("200bar")
    elements = doc["elements"]
    elements[3]["b"] = elements[3]["a"]
    elements[150]["a"] = 77
    elements[199]["group"] = 29
    doc["supports"].append({"node": 99, "fixed": ["x", "y"]})
    doc["load_cases"][1]["loads"][3]["fx"] = float("nan")
    for load in doc["load_cases"][2]["loads"]:
        load["fx"] = load["fy"] = load["fz"] = 0.0
    with pytest.raises(ValidationError) as exc:
        parse_model(json.dumps(doc))
    assert exc.value.problems == [
        ("ZeroLengthElement", "element 3 connects node 3 to itself"),
        ("DanglingReference", "element 150 references missing node 77"),
        ("DanglingReference", "element 199 references missing group 29"),
        ("DanglingReference", "support references missing node 99"),
        ("NonFiniteLoad", "load case 1 has a non-finite load on node 3"),
        ("NonPositiveLimit", "load case 2 has no nonzero load")]
