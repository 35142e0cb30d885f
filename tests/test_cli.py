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


@pytest.mark.parametrize("name", benchmarks.builtin_names())
def test_margins_are_the_penalty_rows(name):
    entry = benchmarks.builtin_models()[name]
    model, areas = entry.model, entry.reference_areas
    _, margins, labels = constraint_margins(model, areas)
    report = evaluate_constraints(model, analysis.analyze(model, areas), areas)
    np.testing.assert_array_equal(np.maximum(margins, 0.0), report.violations)
    assert len(labels) == len(margins)
    kinds = {label["kind"] for label in labels}
    assert ("buckling" in kinds) == (name == "18bar")
    # displacement rows run in sorted (node, dof) order within a case
    for case in model.load_cases:
        where = [(label["node"], label["dof"]) for label in labels
                 if label["kind"] == "displacement" and label["case"] == case.id]
        assert where == sorted(where)
