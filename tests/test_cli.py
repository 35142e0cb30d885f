import csv
import json

import numpy as np
import pytest

from trussopt import analysis, benchmarks
from trussopt.cli import constraint_margins, main
from trussopt.io import serialize_model
from trussopt.model import Material, MemberGroup, make_model
from trussopt.penalty import evaluate_constraints

AREAS_10BAR = ("30.5091,0.1000,23.2004,15.1926,0.1000,"
               "0.5559,7.4612,21.0714,21.4731,0.1000")


def test_list_exits_zero(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in benchmarks.builtin_names():
        assert name in out


def test_verify_prints_weight_and_feasibility(capsys):
    code = main(["verify", "--model", "builtin:10bar-case1",
                 "--areas", AREAS_10BAR])
    assert code == 0
    out = capsys.readouterr().out
    assert "5058.65" in out
    assert "feasible: yes" in out


def test_verify_builds_no_constraint_labels(monkeypatch, capsys):
    def refuse(self, mask):
        raise AssertionError("verify built constraint labels")
    monkeypatch.setattr(analysis.Analyzer, "constraint_labels", refuse)
    assert main(["verify", "--model", "builtin:18bar",
                 "--areas", "10,21.6506,12.5,7.0711"]) == 0
    assert "feasible:" in capsys.readouterr().out


def test_verify_wrong_vector_length(capsys):
    assert main(["verify", "--model", "builtin:10bar-case1",
                 "--areas", "1,2,3"]) == 1


def test_verify_non_numeric_areas(capsys):
    assert main(["verify", "--model", "builtin:10bar-case1",
                 "--areas", "a,b"]) == 1


def test_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--model", "builtin:10bar-case1", "--seed", "3",
                 "--generations", "5", "--population", "10",
                 "--tsa", "3", "--out", str(out)])
    assert code == 0
    with open(out / "convergence.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["generation", "best_F", "mean_F",
                       "best_feasible_weight", "evaluations", "sa_ran"]
    assert len(rows) - 1 == 5
    evals = [int(r[4]) for r in rows[1:]]
    assert all(b > a for a, b in zip(evals, evals[1:]))
    doc = json.loads((out / "result.json").read_text())
    assert doc["model"] == "10bar-case1"
    assert len(doc["best_areas"]) == 10
    assert isinstance(doc["feasible"], bool)
    assert doc["constraint_margins"]


def test_run_missing_model_file(capsys):
    assert main(["run", "--model", "missing.file"]) == 2
    assert "not found" in capsys.readouterr().err


def test_unknown_builtin_is_model_error(capsys):
    assert main(["run", "--model", "builtin:nope"]) == 2


def test_malformed_model_file_is_model_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["run", "--model", str(bad)]) == 2


def test_usage_error_exit_code(capsys):
    assert main(["run"]) == 1          # --model is required
    assert main(["frobnicate"]) == 1   # unknown subcommand


def test_run_accepts_model_file(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(serialize_model(benchmarks.get_builtin("10bar-case1")))
    out = tmp_path / "out"
    code = main(["run", "--model", str(p), "--generations", "3",
                 "--population", "10", "--out", str(out)])
    assert code == 0
    assert (out / "result.json").exists()


def test_mechanism_model_is_model_error(tmp_path, capsys):
    # square frame without a diagonal: a shear mechanism at every design
    mech = make_model(
        "mech", [(0, 0), (100, 0), (100, 100), (0, 100)],
        [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)],
        [MemberGroup(0, 0.1, 10.0, 25.0, 25.0)],
        Material(10000.0, 0.1), [(0, "xy"), (1, "y")], [{2: (5.0, 0.0)}])
    p = tmp_path / "mech.json"
    p.write_text(serialize_model(mech))
    assert main(["run", "--model", str(p), "--generations", "2",
                 "--population", "10", "--out", str(tmp_path / "out")]) == 2
    assert "mechanism" in capsys.readouterr().err
    assert main(["verify", "--model", str(p), "--areas", "1"]) == 2
    assert "mechanism" in capsys.readouterr().err


def _write_10bar(tmp_path, path, value):
    doc = json.loads(serialize_model(benchmarks.get_builtin("10bar-case1")))
    *head, last = path
    obj = doc
    for key in head:
        obj = obj[key]
    obj[last] = value
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize("nodes", [["a"], [1.5], [[1]]])
def test_bad_displacement_limit_nodes_exit_2(tmp_path, capsys, nodes):
    p = _write_10bar(tmp_path, ("displacement_limits", 0, "nodes"), nodes)
    assert main(["verify", "--model", p, "--areas", AREAS_10BAR]) == 2
    assert "displacement_limits[0].nodes" in capsys.readouterr().err


def test_non_finite_load_exit_2(tmp_path, capsys):
    p = _write_10bar(tmp_path, ("load_cases", 0, "loads", 0, "fy"),
                     float("nan"))
    assert main(["verify", "--model", p, "--areas", AREAS_10BAR]) == 2
    assert "NonFiniteLoad" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "verify"])
def test_non_finite_area_bound_exit_2(tmp_path, capsys, command):
    p = _write_10bar(tmp_path, ("groups", 0, "area_max"), float("inf"))
    argv = (["run", "--model", p, "--generations", "2", "--population", "10",
             "--out", str(tmp_path / "out")] if command == "run" else
            ["verify", "--model", p, "--areas", AREAS_10BAR])
    assert main(argv) == 2
    assert "NonFiniteBound: group 0 has a non-finite area bound" \
        in capsys.readouterr().err


def test_z_load_on_a_flat_truss_exit_2(tmp_path, capsys):
    bar = make_model("bar", [(0, 0), (100, 0)], [(0, 1, 0)],
                     [MemberGroup(0, 0.5, 5.0, 30.0, 30.0)],
                     Material(10000.0, 0.1), [(0, "xy"), (1, "y")],
                     [{1: (10.0, 0.0, 7.0)}])
    p = tmp_path / "bar.json"
    p.write_text(serialize_model(bar))
    assert main(["verify", "--model", str(p), "--areas", "1"]) == 2
    assert "mechanism" in capsys.readouterr().err


@pytest.mark.parametrize("name", benchmarks.builtin_names())
def test_margins_are_the_penalty_rows(name):
    entry = benchmarks.builtin_models()[name]
    model, areas = entry.model, entry.reference_areas
    _, margins, in_force = constraint_margins(model, areas)
    labels = analysis.get_analyzer(model).constraint_labels(in_force)
    report = evaluate_constraints(analysis.analyze(model, areas))
    np.testing.assert_array_equal(np.maximum(margins, 0.0), report.violations)
    assert len(labels) == len(margins)
    kinds = {label["kind"] for label in labels}
    assert ("buckling" in kinds) == (name == "18bar")
    # displacement rows run in sorted (node, dof) order within a case
    for case in model.load_cases:
        where = [(label["node"], label["dof"]) for label in labels
                 if label["kind"] == "displacement" and label["case"] == case.id]
        assert where == sorted(where)
