import csv
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from switchgame.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _load(name):
    with open(CONFIG_DIR / name) as handle:
        return json.load(handle)


def _stage(tmp_path, doc, name="config.json"):
    tmp_path = Path(tmp_path)
    tmp_path.mkdir(parents=True, exist_ok=True)
    doc = dict(doc)
    doc["output"] = str(tmp_path / "out")
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path, Path(doc["output"])


def _csv_rows(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


def _small_heat(tmp_path):
    doc = _load("e0_heat.json")
    doc["grid"] = {"nt": 41, "nx": 41}
    return _stage(tmp_path, doc)


def test_validate_separated_spec_passes(tmp_path):
    path, out = _stage(tmp_path, _load("e1_separated_2x2.json"))
    assert main(["validate", str(path)]) == 0
    report = json.loads((out / "validate_report.json").read_text())
    assert report["all_passed"]


@pytest.mark.parametrize(
    "name,expected_failure",
    [
        ("fail_zero_cost_loop.json", "non_free_loop"),
        ("fail_consistency.json", "terminal_consistency"),
        ("fail_triangle.json", "strict_triangle"),
        ("fail_nonseparated.json", "separation"),
    ],
)
def test_validate_failing_specs_fail_only_their_check(tmp_path, name, expected_failure):
    path, out = _stage(tmp_path, _load(name))
    assert main(["validate", str(path)]) == 1
    report = json.loads((out / "validate_report.json").read_text())
    failed = [n for n, c in report["checks"].items() if not c["passed"]]
    assert failed == [expected_failure]
    assert report["checks"][expected_failure]["witnesses"]


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["validate", str(path)]) == 2


def test_schema_error_exits_2(tmp_path):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"modes": {"player1": [1], "player2": [1]}}))
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize(
    "command,section,key,value",
    [
        ("game", "grid", "nt", 1),
        ("solve", "grid", "nx", 2),
        ("validate", "validation", "t_samples", 0),
        ("validate", "validation", "x_samples", -1),
        ("solve", "penalties", "max_iterations", 0),
        ("solve", "penalties", "fixed_point_tol", 0.0),
        ("solve", "penalties", "fixed_point_tol", math.nan),
        ("solve", "penalties", "levels", [1.0, math.nan, 16.0]),
        ("solve", "penalties", "levels", [1.0, 4.0, math.inf]),
        ("validate", None, "horizon", math.inf),
        ("validate", "domain", "max", math.inf),
        pytest.param("validate", None, "horizon", 10**400, id="validate-horizon-huge-int"),
        pytest.param("validate", "domain", "min", -10**400, id="validate-domain-min-huge-int"),
        ("game", "simulation.start", "x", math.nan),
        ("game", "simulation.start", "x", math.inf),
        ("game", "simulation.start", "x", 50.0),
        ("game", "simulation", "seed", -1),
        pytest.param("game", "simulation", "seed", 2**128 - 2, id="game-simulation-seed-2**128-2"),
        ("game", "simulation", "seed", 1.5),
        ("game", "simulation", "paths", 1.5),
        ("solve", "grid", "nt", 2.9),
        ("solve", "penalties", "max_iterations", 2.7),
        ("game", "simulation", "antithetic", "no"),
        ("validate", None, "horizon", True),
        ("game", "simulation.start", "mode1", True),
        ("validate", "validation", "loop_length_bound", 0),
        ("validate", "validation", "loop_length_bound", -3),
    ],
)
def test_out_of_range_parameter_exits_2_with_location(tmp_path, capsys, command, section,
                                                       key, value):
    # non-finite values go through json.dumps as the NaN/Infinity literals
    # that json.load accepts
    doc = _small_game_doc()
    target = doc
    for part in section.split(".") if section else ():
        target = target.setdefault(part, {})
    target[key] = value
    path, _ = _stage(tmp_path, doc)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    location = f"{section}.{key}" if section else key
    assert f".{location}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,section,key", [
    ("game", "grid", "nt"),
    ("game", "simulation", "paths"),
    ("solve", "penalties", "max_iterations"),
    ("validate", "validation", "x_samples"),
])
def test_infinite_integer_parameter_exits_2_with_location(tmp_path, capsys, command, section,
                                                          key):
    doc = _small_game_doc()
    doc.setdefault(section, {})[key] = math.inf
    path, _ = _stage(tmp_path, doc)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert f".{section}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("t", [5.0, -0.5, 1.0])
def test_start_time_outside_horizon_exits_2_with_location(tmp_path, capsys, t):
    doc = _small_game_doc()  # horizon 1
    doc["simulation"]["start"]["t"] = t
    path, _ = _stage(tmp_path, doc)
    assert main(["game", str(path)]) == 2
    err = capsys.readouterr().err
    assert "simulation.start.t" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("labels", [[1, 1], [1, True]])
def test_duplicate_or_boolean_mode_labels_exit_2_with_location(tmp_path, capsys, labels):
    doc = _small_game_doc()
    doc["modes"]["player1"] = labels
    path, _ = _stage(tmp_path, doc)
    assert main(["game", str(path)]) == 2
    err = capsys.readouterr().err
    assert "modes.player1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("section", ["validation", "penalties", "simulation", "drivers",
                                     "terminals"])
def test_section_of_wrong_json_type_exits_2_with_location(tmp_path, capsys, section):
    doc = _small_game_doc()
    doc[section] = [5]
    path, _ = _stage(tmp_path, doc)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert f".{section}: must be a JSON object" in err
    assert "Traceback" not in err


def test_bad_expression_reports_location(tmp_path, capsys):
    doc = _load("e0_heat.json")
    doc["drivers"] = {"1,1": "x +"}
    path, _ = _stage(tmp_path, doc)
    assert main(["validate", str(path)]) == 2
    assert "drivers" in capsys.readouterr().err


def test_invalid_system_name_exits_2(tmp_path):
    path, _ = _small_heat(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(path), "--system", "sideways"])
    assert exc.value.code == 2


def test_solve_heat_writes_value_near_one(tmp_path):
    path, out = _small_heat(tmp_path)
    assert main(["solve", str(path), "--system", "minmax"]) == 0
    rows = _csv_rows(out / "value_minmax.csv")
    at_origin = [r for r in rows if r["t_index"] == "0" and abs(float(r["x"])) < 1e-9]
    assert len(at_origin) == 1
    assert float(at_origin[0]["value"]) == pytest.approx(1.0, abs=1e-2)
    report = json.loads((out / "solve_report_minmax.json").read_text())
    assert report["system"] == "minmax"


def test_solve_both_writes_gap_file(tmp_path):
    doc = _load("e1_equality_2x2.json")
    doc["grid"] = {"nt": 21, "nx": 21}
    doc["penalties"] = {"levels": [1, 4], "fixed_point_tol": 1e-12}
    path, out = _stage(tmp_path, doc)
    assert main(["solve", str(path)]) == 0
    for name in ("value_minmax.csv", "value_maxmin.csv", "gap_minmax_maxmin.csv",
                 "value_minmax_meta.json", "value_maxmin_meta.json",
                 "solve_report_minmax.json", "solve_report_maxmin.json"):
        assert (out / name).exists()
    report = json.loads((out / "solve_report_minmax.json").read_text())
    assert report["final_gap"] is not None
    meta = json.loads((out / "value_minmax_meta.json").read_text())
    assert meta["system"] == "minmax" and meta["penalty"] == 4
    gap_rows = _csv_rows(out / "gap_minmax_maxmin.csv")
    assert max(float(r["gap"]) for r in gap_rows) <= report["final_gap"] + 1e-15


def test_solve_gate_rejects_invalid_costs(tmp_path):
    path, out = _stage(tmp_path, _load("fail_zero_cost_loop.json"))
    assert main(["solve", str(path)]) == 1
    assert (out / "solve_gate_report.json").exists()


def test_oracle_command_and_solver_deltas(tmp_path):
    path, out = _stage(tmp_path, _load("e5_oracle_2x2.json"))
    assert main(["oracle", str(path)]) == 0
    report = json.loads((out / "oracle_report.json").read_text())
    assert report["minmax"]["1,1"] == pytest.approx(1.0, abs=1e-12)
    assert main(["solve", str(path)]) == 0
    assert main(["oracle", str(path)]) == 0
    report = json.loads((out / "oracle_report.json").read_text())
    assert "solver_deltas" in report
    worst = max(abs(v) for deltas in report["solver_deltas"].values() for v in deltas.values())
    assert worst <= 0.2


def test_oracle_precondition_failure(tmp_path):
    doc = _load("e5_oracle_2x2.json")
    doc["diffusion"] = {"drift": "0", "volatility": "1"}
    path, _ = _stage(tmp_path, doc)
    assert main(["oracle", str(path)]) == 1


def test_game_rejects_non_separated(tmp_path):
    path, out = _stage(tmp_path, _load("fail_nonseparated.json"))
    assert main(["game", str(path)]) == 1
    gate = json.loads((out / "game_gate_report.json").read_text())
    assert gate["witness"]


def _small_game_doc():
    doc = _load("g1_game_2x2.json")
    doc["grid"] = {"nt": 51, "nx": 41}
    doc["simulation"] = {"paths": 1500, "steps": 50, "seed": 77,
                         "start": {"t": 0.0, "x": 0.0, "mode1": 1, "mode2": 1}}
    return doc


def test_game_small_run_passes(tmp_path):
    path, out = _stage(tmp_path, _small_game_doc())
    assert main(["game", str(path)]) == 0
    report = json.loads((out / "game_report.json").read_text())
    assert report["all_passed"]
    payoffs = _csv_rows(out / "payoffs.csv")
    assert len(payoffs) == 1500
    mean = np.mean([float(r["payoff"]) for r in payoffs])
    assert mean == pytest.approx(report["saddle_mean"], abs=1e-9)


def test_zero_cost_trivial_game_exact_equalities(tmp_path):
    doc = _small_game_doc()
    doc["costs"] = {"player1": {"1->2": "0", "2->1": "0"},
                    "player2": {"1->2": "0", "2->1": "0"}}
    doc["drivers"] = {"1,1": "0.2*x", "1,2": "0.2*x", "2,1": "0.2*x", "2,2": "0.2*x"}
    doc["terminals"] = {k: "0.1*x^2" for k in ("1,1", "1,2", "2,1", "2,2")}
    doc["simulation"]["paths"] = 400
    path, out = _stage(tmp_path, doc)
    assert main(["game", str(path)]) == 0
    report = json.loads((out / "game_report.json").read_text())
    for entry in report["challenger1"] + report["challenger2"]:
        assert abs(entry["mean_difference"]) < 1e-10


def _file_bytes(folder):
    return {p.name: p.read_bytes() for p in sorted(Path(folder).iterdir())}


def test_outputs_byte_reproducible(tmp_path):
    doc = _load("e1_equality_2x2.json")
    doc["grid"] = {"nt": 21, "nx": 21}
    doc["penalties"] = {"levels": [1, 4], "fixed_point_tol": 1e-12}
    path_a, out_a = _stage(tmp_path / "a", doc)
    path_b, out_b = _stage(tmp_path / "b", doc)
    assert main(["solve", str(path_a)]) == 0
    assert main(["solve", str(path_b)]) == 0
    assert {n: b for n, b in _file_bytes(out_a).items()} == _file_bytes(out_b)
