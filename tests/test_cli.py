import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trussopt
from trussopt import analysis, benchmarks, ga, hybrid
from trussopt.cli import build_parser, constraint_margins, main
from trussopt.io import parse_model, serialize_model
from trussopt.model import Material, MemberGroup, ValidationError, make_model
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


def _with_area(position, value):
    """AREAS_10BAR with its entry at 1-based `position` set to `value`."""
    areas = AREAS_10BAR.split(",")
    areas[position - 1] = value
    return ",".join(areas)


@pytest.mark.parametrize("position, value", [
    (1, "nan"), (1, "inf"), (3, "-inf"), (2, "-1"), (2, "-0.001"),
])
def test_verify_rejects_non_finite_or_negative_areas(capsys, position, value):
    assert main(["verify", "--model", "builtin:10bar-case1",
                 "--areas", _with_area(position, value)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --areas entry {position} is "
                            f"{float(value)!r}; areas must be finite and "
                            f"non-negative\n")


def test_verify_names_the_first_bad_area(capsys):
    areas = _with_area(4, "nan").replace("23.2004", "-2", 1)
    assert main(["verify", "--model", "builtin:10bar-case1",
                 "--areas", areas]) == 1
    assert "--areas entry 3 is -2.0;" in capsys.readouterr().err


def test_verify_allows_a_zero_area(capsys):
    assert main(["verify", "--model", "builtin:10bar-case1",
                 "--areas", _with_area(2, "0")]) == 0
    assert capsys.readouterr().out.startswith("weight: ")


VERIFY_18BAR = ["verify", "--model", "builtin:18bar",
                "--areas", "10,21.6506,12.5,7.0711"]


def test_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize("slack", ["nan", "inf", "-inf"])
def test_non_finite_slack_exit_1_before_the_model(tmp_path, capsys, slack):
    argv = ["verify", "--model", str(tmp_path / "missing.json"),
            "--areas", "10,21.6506,12.5,7.0711", f"--slack={slack}"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "error: --slack must be finite" in captured.err
    assert captured.out == ""


def test_negative_slack_demands_a_reserve(capsys):
    # the closed-form 18bar optimum has active constraints: feasible at
    # the default slack, not when a 1% reserve is demanded
    assert main([*VERIFY_18BAR, "--slack", "-0.01"]) == 0
    out = capsys.readouterr().out
    assert "(slack -1.0%)" in out and "feasible: no" in out
    assert main(VERIFY_18BAR) == 0
    assert "feasible: yes" in capsys.readouterr().out


def test_reused_parser_forgets_an_earlier_slack(capsys):
    assert main([*VERIFY_18BAR, "--slack", "0.2"]) == 0
    assert "(slack 20.0%)" in capsys.readouterr().out
    assert main(VERIFY_18BAR) == 0
    assert "(slack 0.5%)" in capsys.readouterr().out


def test_usage_error_between_good_calls(capsys):
    assert main(VERIFY_18BAR) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--model", "builtin:18bar"]) == 1   # no --areas
    assert "--areas" in capsys.readouterr().err
    assert main(VERIFY_18BAR) == 0
    assert capsys.readouterr().out == first


def test_run_defaults_survive_a_verify(capsys):
    defaults = {"command": "run", "model": "m.json", "seed": 0,
                "generations": ga.GaParams().max_generations,
                "population": ga.GaParams().population_size,
                "tsa": hybrid.HybridParams().t_sa, "out": None}
    args = vars(build_parser().parse_args(["run", "--model", "m.json"]))
    assert {k: args[k] for k in defaults} == defaults
    assert main([*VERIFY_18BAR, "--slack", "0.2"]) == 0
    again = vars(build_parser().parse_args(["run", "--model", "m.json"]))
    assert again == args


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


def test_compare_arms_end_on_one_evaluation_count(tmp_path, capsys):
    # the plain-GA arm runs as many generations as the hybrid's analysis
    # count buys it, and its last one breeds only what that count has left
    out = tmp_path / "out"
    assert main(["compare", "--model", "builtin:10bar-case1", "--seeds", "5",
                 "--generations", "4", "--population", "10",
                 "--out", str(out)]) == 0
    for seed in range(5):
        hybrid_rows, plain_rows = (
            (out / f"{arm}-seed{seed}.csv").read_text().splitlines()
            for arm in ("hybrid", "plain"))
        assert len(hybrid_rows) - 1 == 4 and len(plain_rows) - 1 > 4
        assert plain_rows[-1].split(",")[4] == hybrid_rows[-1].split(",")[4]


def test_run_lists_every_constraint_row(tmp_path, capsys):
    # 18bar has one load case and a buckling row per element: a tension
    # element's buckling row has an infinite limit, so it reads -1.0
    out = tmp_path / "out"
    assert main(["run", "--model", "builtin:18bar", "--generations", "1",
                 "--population", "10", "--out", str(out)]) == 0
    doc = json.loads((out / "result.json").read_text())
    rows = doc["constraint_margins"]
    assert [r["kind"] for r in rows] == ["stress", "buckling"] * 18
    assert [r["element"] for r in rows] == [e for e in range(18) for _ in "sb"]
    model = benchmarks.get_builtin("18bar")
    stresses = analysis.analyze(model, doc["best_areas"]).cases[0].element_stresses
    tension = [r["margin"] for r in rows[1::2] if stresses[r["element"]] >= 0]
    assert tension and tension == [-1.0] * len(tension)
    assert doc["worst_constraint_margin"] == max(r["margin"] for r in rows)


def test_run_missing_model_file(capsys):
    assert main(["run", "--model", "missing.file"]) == 2
    assert "not found" in capsys.readouterr().err


def test_unreadable_model_file_is_model_error_naming_it(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"name": "fa\u00e7ade"}'.encode("latin-1"))
    for path, reason in ((tmp_path, "Is a directory"),
                         (latin1, "'utf-8' codec can't decode")):
        assert main(["verify", "--model", str(path), "--areas", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("model error: ")
        assert str(path) in err and reason in err


def test_model_file_is_read_as_utf8_under_an_ascii_locale(tmp_path):
    # the C locale without UTF-8 mode or locale coercion makes ASCII the
    # default text encoding of a fresh interpreter
    doc = json.loads(serialize_model(benchmarks.get_builtin("18bar")))
    doc["name"] = "18bar-fa\u00e7ade"
    path = tmp_path / "utf8.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    src = str(Path(trussopt.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONCOERCECLOCALE": "0"}
    done = subprocess.run(
        [sys.executable, "-m", "trussopt.cli", *VERIFY_18BAR[:2], str(path),
         *VERIFY_18BAR[3:]], env=env, capture_output=True, text=True,
        timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("weight: 6430.53 lb\n")


# a `trussopt` command in a fresh interpreter; prints its exit code and
# which of the modules that only the optimizer needs were imported
_COMMAND_SCRIPT = """
import sys
from trussopt import cli
code = cli.main(sys.argv[1:])
print(code, [m for m in ("scipy.linalg", "numpy.random", "trussopt.polish")
             if m in sys.modules])
"""


@pytest.mark.parametrize("command", ["verify", "list"])
def test_verify_and_list_start_without_optimizer_modules(tmp_path, command):
    # only the optimizer draws random numbers or polishes, and the banded
    # Cholesky routines load without scipy.linalg; the verify reads the
    # serialized 200bar document at its catalog areas
    entry = benchmarks.builtin_models()["200bar"]
    path = tmp_path / "200bar.json"
    path.write_text(serialize_model(entry.model))
    argv = (["verify", "--model", str(path),
             "--areas", ",".join(map(repr, entry.reference_areas))]
            if command == "verify" else ["list"])
    src = str(Path(trussopt.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _COMMAND_SCRIPT, *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120, check=True)
    lines = done.stdout.splitlines()
    assert lines[-1] == "0 []"
    if command == "verify":
        assert lines[0] == "weight: 25442.60 lb"


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


def test_run_default_out_stays_under_runs(tmp_path, monkeypatch, capsys):
    # the document's name becomes one entry of runs/: its path separators
    # and leading dots are replaced
    doc = json.loads(serialize_model(benchmarks.get_builtin("10bar-case1")))
    doc["name"] = "../escaped"
    work = tmp_path / "work"
    work.mkdir()
    (work / "m.json").write_text(json.dumps(doc))
    monkeypatch.chdir(work)
    assert main(["run", "--model", "m.json", "--generations", "1",
                 "--population", "10"]) == 0
    out = os.path.join("runs", "___escaped-seed0")
    assert capsys.readouterr().out.endswith(f"results written to {out}\n")
    assert sorted(os.listdir(tmp_path)) == ["work"]
    assert sorted(os.listdir(work)) == ["m.json", "runs"]
    assert os.listdir(work / "runs") == ["___escaped-seed0"]
    assert sorted(os.listdir(work / out)) == ["convergence.csv", "result.json"]


def test_mechanism_model_is_model_error(tmp_path, capsys):
    # square frame without a diagonal: a shear mechanism at every design
    mech = make_model(
        "mech", [(0, 0), (100, 0), (100, 100), (0, 100)],
        [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)],
        [MemberGroup(0.1, 10.0, 25.0, 25.0)],
        Material(10000.0, 0.1), [(0, "xy"), (1, "y")], [{2: (5.0, 0.0)}])
    p = tmp_path / "mech.json"
    p.write_text(serialize_model(mech))
    assert main(["run", "--model", str(p), "--generations", "2",
                 "--population", "10", "--out", str(tmp_path / "out")]) == 2
    assert "mechanism" in capsys.readouterr().err
    assert main(["verify", "--model", str(p), "--areas", "1"]) == 2
    assert "mechanism" in capsys.readouterr().err


def test_verify_of_a_mechanism_design_is_an_analysis_error(capsys):
    # the model is sound, but every area 0 removes every member
    assert main(["verify", "--model", "builtin:10bar-case1",
                 "--areas", ",".join(["0"] * 10)]) == 3
    assert "analysis error" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["run", "verify"])
def test_model_without_load_cases_exit_2(tmp_path, capsys, command):
    # a model error before any run, not a numpy error after one
    p = _write_10bar(tmp_path, ("load_cases",), [])
    out = tmp_path / "out"
    argv = (["run", "--model", p, "--generations", "2", "--population", "10",
             "--out", str(out)] if command == "run" else
            ["verify", "--model", p, "--areas", AREAS_10BAR])
    assert main(argv) == 2
    assert "NoLoadCase: model has no load case" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_overflowing_element_length_exit_2(tmp_path, capsys, command):
    # finite coordinates, but the squared length of element 1 (nodes 0 and
    # 2) overflows, and so do those of the other elements at nodes 0 and 1
    doc = json.loads(serialize_model(benchmarks.get_builtin("10bar-case1")))
    doc["nodes"][0]["x"], doc["nodes"][1]["x"] = 1e308, -1e308
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = (["run", "--model", str(p), "--generations", "3",
             "--population", "10", "--out", str(out)] if command == "run" else
            ["verify", "--model", str(p), "--areas", AREAS_10BAR])
    assert main(argv) == 2
    assert "NonFiniteLength: element 1 has a non-finite length" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("path, literal, message", [
    # an int literal beyond the float range is a located parse error
    (("groups", 0, "area_max"), "1" + "0" * 400,
     "groups[0].area_max: number out of float range"),
    # json reads a float literal beyond it as inf, which validation refuses
    (("material", "elastic_modulus"), "1e999",
     "NonPositiveLimit: material constants must be positive and finite"),
], ids=["int", "float"])
def test_number_literal_beyond_the_float_range_exit_2(tmp_path, capsys, path,
                                                      literal, message):
    p = Path(_write_10bar(tmp_path, path, "literal"))
    p.write_text(p.read_text().replace('"literal"', literal))
    assert main(["verify", "--model", str(p), "--areas", AREAS_10BAR]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name, edits, areas, code", [
    # two groups numbered 8, the second with its element: design variable
    # 9 would have no members
    ("10bar-case1", [(("groups", 9, "id"), 8), (("elements", 9, "group"), 8)],
     AREAS_10BAR, "BadGroupIds"),
    # two load cases numbered 0
    ("25bar", [(("load_cases", 1, "id"), 0)], "1,1,1,1,1,1,1,1", "BadCaseIds"),
], ids=["two-groups-numbered-8", "two-cases-numbered-0"])
def test_repeated_group_or_case_id_exit_2(tmp_path, capsys, name, edits,
                                          areas, code):
    doc = json.loads(serialize_model(benchmarks.get_builtin(name)))
    for (kind, i, key), value in edits:
        doc[kind][i][key] = value
    text = json.dumps(doc)
    loc = edits[0][0][0]
    with pytest.raises(ValidationError) as exc:
        parse_model(text)
    assert exc.value.problems == [
        (code, f"{loc}: ids must be unique and contiguous from 0")]
    p = tmp_path / "m.json"
    p.write_text(text)
    assert main(["verify", "--model", str(p), "--areas", areas]) == 2
    assert f"{code}: {loc}: ids must be unique" in capsys.readouterr().err


BAD_OPTIMIZER_OPTIONS = [["--tsa", "nan"], ["--tsa", "2.5"], ["--tsa", "0"],
                         ["--generations", "-3"], ["--population", "5"]]


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("option", BAD_OPTIMIZER_OPTIONS,
                         ids=[" ".join(o) for o in BAD_OPTIMIZER_OPTIONS])
def test_bad_optimizer_parameters_exit_1(tmp_path, capsys, command, option):
    out = tmp_path / "out"
    argv = [command, "--model", "builtin:10bar-case1", "--out", str(out),
            *option]
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_unmakeable_out_dir_exit_1_before_the_run(tmp_path, capsys,
                                                  monkeypatch, command):
    # an existing file as --out ended in a FileExistsError traceback, and
    # only after the whole optimization had run
    def no_run(*args, **kwargs):
        raise AssertionError("the optimizer ran")
    monkeypatch.setattr(hybrid, "run", no_run)
    monkeypatch.setattr(hybrid, "compare_plain_ga", no_run)
    out = tmp_path / "file"
    out.write_text("")
    argv = [command, "--model", "builtin:10bar-case1", "--generations", "1",
            "--population", "10", "--out", str(out)]
    assert main(argv) == 1
    assert (f"error: cannot create output directory {out}: File exists"
            in capsys.readouterr().err)
    assert out.read_text() == ""


@pytest.mark.parametrize("command, option, flag", [
    ("run", ["--seed", "-1"], "--seed"),
    ("compare", ["--seed", "-1"], "--seed"),
    ("compare", ["--seeds", "3"], "--seeds"),
])
def test_bad_seed_options_exit_1_before_the_model(tmp_path, capsys, command,
                                                  option, flag):
    # checked before the model is read, so a missing file is not reached
    out = tmp_path / "out"
    argv = [command, "--model", str(tmp_path / "missing.json"),
            "--out", str(out), *option]
    assert main(argv) == 1
    assert f"error: {flag} must be" in capsys.readouterr().err
    assert not out.exists()


def test_planar_support_naming_no_node_exit_2(tmp_path, capsys):
    doc = json.loads(serialize_model(benchmarks.get_builtin("10bar-case1")))
    doc["supports"].append({"node": 99, "fixed": ["x", "y"]})
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    assert main(["verify", "--model", str(p), "--areas", AREAS_10BAR]) == 2
    assert "DanglingReference: support references missing node 99" \
        in capsys.readouterr().err


def test_split_planar_support_prints_as_the_whole_one(tmp_path, capsys):
    doc = json.loads(serialize_model(benchmarks.get_builtin("10bar-case1")))
    whole, split = tmp_path / "whole.json", tmp_path / "split.json"
    whole.write_text(json.dumps(doc))
    assert doc["supports"][4] == {"node": 4, "fixed": ["x", "y", "z"]}
    doc["supports"][4]["fixed"] = ["x", "z"]
    doc["supports"].append({"node": 4, "fixed": ["y"]})
    split.write_text(json.dumps(doc))
    outputs = []
    for p in (whole, split):
        assert main(["verify", "--model", str(p), "--areas", AREAS_10BAR]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert "feasible: yes" in outputs[0].out


def test_z_load_on_a_flat_truss_exit_2(tmp_path, capsys):
    bar = make_model("bar", [(0, 0), (100, 0)], [(0, 1, 0)],
                     [MemberGroup(0.5, 5.0, 30.0, 30.0)],
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
    _, margins = constraint_margins(model, areas)
    labels = analysis.get_analyzer(model).constraint_labels()
    margins = margins.ravel()
    report = evaluate_constraints(analysis.analyze(model, areas))
    np.testing.assert_array_equal(np.maximum(margins, 0.0), report.violations)
    assert len(labels) == len(margins)
    kinds = {label["kind"] for label in labels}
    assert ("buckling" in kinds) == (name == "18bar")
    # displacement rows run in sorted (node, dof) order within a case
    for case in range(len(model.load_cases)):
        where = [(label["node"], label["dof"]) for label in labels
                 if label["kind"] == "displacement" and label["case"] == case]
        assert where == sorted(where)
