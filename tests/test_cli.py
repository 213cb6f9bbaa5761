import contextlib
import csv
import errno
import gc
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import re
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from switchgame import cli as cli_mod, game as game_mod
from switchgame.cli import _write_json, _write_payoffs, main
from switchgame.config import load_config
from switchgame.errors import ConvergenceError, SwitchgameError
from switchgame.game import (PayoffEstimate, default_challengers, saddle_from_fields,
                            verify_saddle)
from switchgame.grid import build_grid
from switchgame.simulate import simulate_paths
from switchgame.solver import (ValueField, solve_maxmin, solve_minmax, solve_single_obstacle,
                               sup_gap)

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


# validate_report.json bytes of the shipped configs; they depend on the
# (t, x) sampling lattice of the validators and of game's separation gate
# (model.sample_lattice)
VALIDATE_DIGESTS = {
    "e1_separated_2x2.json": "51a969dba91e1428a843ba3bf8447ecbb14ede578cba9411ddd2f2726aa6b899",
    "fail_zero_cost_loop.json": "7c75f143275bd1a90ae79c6012ff917cfff35e6d2c3bda973b35f2df231c4376",
    "fail_consistency.json": "e3dfb6d3a48436c5e8b1c5ca7dbbccfb34433210880e920004ccac39c0b1dad1",
    "fail_triangle.json": "43fa887f070c68fd0964d9cecadedf3fac0e5f0d916ecfde0fbfea822852ea38",
    "fail_nonseparated.json": "dbc5c8ad41443c841cd9efa54a348f0156d931ecd7ba7d8094cab76a82934eac",
}


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_validate_separated_spec_passes(tmp_path):
    path, out = _stage(tmp_path, _load("e1_separated_2x2.json"))
    assert main(["validate", str(path)]) == 0
    report = json.loads((out / "validate_report.json").read_text())
    assert report["all_passed"]
    assert _sha256(out / "validate_report.json") == VALIDATE_DIGESTS["e1_separated_2x2.json"]


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
    assert _sha256(out / "validate_report.json") == VALIDATE_DIGESTS[name]


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("command", ["validate", "solve", "game"])
def test_json_nested_too_deep_exits_2(tmp_path, capsys, command):
    doc = _load("e1_equality_2x2.json")
    doc["validation"] = "NESTED"
    path = tmp_path / "nested.json"
    depth = 100000
    path.write_text(json.dumps(doc).replace('"NESTED"', "[" * depth + "]" * depth))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: invalid JSON: ")
    assert "Traceback" not in err


def test_schema_error_exits_2(tmp_path):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"modes": {"player1": [1], "player2": [1]}}))
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize(
    "command,section,key,value",
    [
        ("game", "grid", "nt", 1),
        ("solve", "grid", "nx", 2),
        ("solve", "grid", "nt", 2.9),
        ("validate", None, "horizon", math.inf),
        ("validate", None, "horizon", True),
        ("solve", "penalties", "fixed_point_tol", 0.0),
        ("solve", "penalties", "fixed_point_tol", math.nan),
        ("solve", "penalties", "levels", [1.0, math.nan, 16.0]),
        ("solve", "penalties", "levels", [1.0, 4.0, math.inf]),
        ("solve", "penalties", "levels", [True, 4.0, 16.0]),
        ("solve", "penalties", "levels", [1.0, "4", 16.0]),
        ("solve", "penalties", "levels", "1248"),
        ("solve", "penalties", "levels", 16.0),
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
        ("game", "simulation.start", "mode1", True),
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


@pytest.mark.parametrize("command", ["validate", "solve", "game"])
@pytest.mark.parametrize("key,value", [
    ("horizon", 1e308),  # the sample times T * k overflow
    ("domain", {"min": -1e308, "max": 1e308}),  # max - min overflows
])
def test_config_whose_samples_overflow_exits_2_with_location(tmp_path, capsys, command, key,
                                                              value):
    doc = _small_game_doc()
    doc[key] = value
    path, _ = _stage(tmp_path, doc)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}.{key}: ")
    assert "Traceback" not in err


def _tiny_game_doc(key, value):
    doc = _small_game_doc()
    doc["grid"] = {"nt": 11, "nx": 9}
    doc["simulation"].update(paths=200, steps=10)
    doc[key] = value
    return doc


@pytest.mark.parametrize("command", ["validate", "solve", "game"])
def test_terminal_that_overflows_exits_1_without_traceback(tmp_path, capsys, command):
    # the terminals' x^2 overflows a float at x = 1e200
    path, _ = _stage(tmp_path, _tiny_game_doc("domain", {"min": -1e200, "max": 1e200}))
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite result at offset ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "game"])
def test_implicit_step_that_overflows_exits_1_naming_the_level(tmp_path, capsys, command):
    # dt * f reaches 1e199 * 1.1e200 at the first step back from the horizon
    path, _ = _stage(tmp_path, _tiny_game_doc("horizon", 1e200))
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err == ("error: the implicit step overflows at time level 9: "
                                       "its right-hand side is not finite\n")


@pytest.mark.parametrize(
    "command,section,key,value,message",
    [
        # a key is rejected even when its value equals the constant that replaced it
        ("validate", None, "validation", {"t_samples": 5, "x_samples": 21}, "unknown key"),
        ("solve", "penalties", "max_iterations", 500, "unknown key"),
        ("solve", "penalties", "penalizer", "sum", "unknown key"),
        ("game", "simulation", "antithetic", False, "unknown key"),
        ("solve", "penalties", "fixed_point_tolerance", 1e-12, "unknown key"),
        ("validate", "modes", "player3", [1], "unknown key"),
        ("validate", "costs", "player3", {}, "unknown key"),
        ("validate", "diffusion", "jump", "0", "unknown key"),
        ("validate", "domain", "mid", 0.0, "unknown key"),
        ("solve", "grid", "nz", 3, "unknown key"),
        ("game", "simulation.start", "y", 0.0, "unknown key"),
        ("validate", "drivers", "3,3", "1", "not declared"),
        ("solve", "terminals", "1,5", "0", "not declared"),
        ("game", "costs.player1", "1->9", "1", "not declared"),
        ("game", "costs.player2", "7->1", "1", "not declared"),
    ],
)
def test_unknown_key_exits_2_with_location(tmp_path, capsys, command, section, key, value,
                                           message):
    doc = _small_game_doc()  # modes {1, 2} for both players
    target = doc
    for part in section.split(".") if section else ():
        target = target[part]
    target[key] = value
    path, _ = _stage(tmp_path, doc)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    location = f"{section}.{key}" if section else key
    assert f".{location}: " in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "solve", "game", "oracle"])
def test_output_that_cannot_be_a_directory_exits_2_with_location(tmp_path, capsys, command):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    doc = _small_game_doc()
    doc["output"] = str(blocker / "out")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}.output: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,section,key", [
    ("game", "grid", "nt"),
    ("game", "simulation", "paths"),
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


@pytest.mark.parametrize("section", ["penalties", "simulation", "drivers", "terminals"])
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


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("drift", [
    "(" * 3000 + "1" + ")" * 3000,
    "-" * 3000 + "1",
    "abs(" * 3000 + "x" + ")" * 3000,
    "+".join(["x"] * 3001),  # parses by a loop, but is 3000 nodes deep
], ids=["parentheses", "negations", "calls", "sum"])
def test_expression_nested_too_deep_exits_2_with_location(tmp_path, capsys, command, drift):
    doc = _load("e1_equality_2x2.json")
    doc["grid"] = {"nt": 11, "nx": 9}
    doc["diffusion"]["drift"] = drift
    path, _ = _stage(tmp_path, doc)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}.diffusion.drift: expression nested deeper than ")
    assert "Traceback" not in err


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


@pytest.mark.parametrize("fixed_point_cap,cap,message", [
    (1, None, "fixed point stalled"),
    (500, 1, "still changing after 1 "),
])
def test_solve_that_does_not_converge_exits_1_with_its_residual(tmp_path, capsys, monkeypatch,
                                                                 fixed_point_cap, cap, message):
    # the fixed-point budget of a level, and the level solve's policy cap
    monkeypatch.setattr("switchgame.solver.FIXED_POINT_CAP", fixed_point_cap)
    if cap is not None:
        monkeypatch.setattr("switchgame.solver._ACTIVE_SET_CAP", cap)
    doc = _load("e1_equality_2x2.json")
    doc["grid"] = {"nt": 11, "nx": 9}
    path, out = _stage(tmp_path, doc)
    assert main(["solve", str(path)]) == 1
    error = json.loads((out / "solve_error.json").read_text())
    assert message in error["error"]
    # the scheme, penalty level, time level and (for a level solve) mode pair
    where = (r"minmax fixed point stalled at penalty 1, time level \d+ " if cap is None
             else r"minmax at penalty 1, time level \d+, pair \(\d+,\d+\): ")
    assert re.match(where, error["error"])
    assert math.isfinite(error["residual"]) and error["residual"] > 0
    assert error["error"].endswith(f"(residual {error['residual']:.3e})")
    assert error["error"].count("residual") == 1
    assert "did not converge" in capsys.readouterr().err
    assert not (out / "value_minmax.csv").exists()


def _small_e1(tmp_path):
    doc = _load("e1_equality_2x2.json")
    doc["grid"] = {"nt": 11, "nx": 9}
    return _stage(tmp_path, doc)


def _raise(exc):
    def solver(spec, grid, schedule):
        raise exc
    return solver


@pytest.mark.parametrize("failing", [("minmax",), ("maxmin",), ("minmax", "maxmin")])
def test_solve_both_failure_writes_only_the_error(tmp_path, capsys, monkeypatch, failing):
    # max-min runs in a forked child; a failure on either side still writes
    # no value file, and min-max's error is the one reported
    for name in failing:
        monkeypatch.setattr(f"switchgame.cli.solve_{name}",
                            _raise(ConvergenceError(f"{name} fixed point stalled", 0.25)))
    path, out = _small_e1(tmp_path)
    assert main(["solve", str(path)]) == 1
    assert [p.name for p in out.iterdir()] == ["solve_error.json"]
    message = f"{failing[0]} fixed point stalled (residual 2.500e-01)"
    assert (out / "solve_error.json").read_text() == json.dumps(
        {"error": message, "residual": 0.25}, indent=2, sort_keys=True) + "\n"
    assert capsys.readouterr().err == f"solver did not converge: {message}\n"
    assert multiprocessing.active_children() == []


def test_solve_both_raises_what_the_max_min_child_raised(tmp_path, monkeypatch):
    monkeypatch.setattr("switchgame.cli.solve_maxmin", _raise(ValueError("array must be finite")))
    path, out = _small_e1(tmp_path)
    with pytest.raises(ValueError, match="array must be finite") as caught:
        main(["solve", str(path)])
    # the child's traceback comes along as the cause
    cause = str(caught.value.__cause__)
    assert cause.startswith("raised in the max-min child process:\nTraceback")
    assert cause.rstrip().endswith("ValueError: array must be finite")
    assert list(out.iterdir()) == []
    assert multiprocessing.active_children() == []


# Both `solve --system both` and `game` fork one child through one helper;
# each check of the fork below runs through both commands.  The child's work
# is what only it does: the max-min solve, or the roster payoffs on the
# upper half of the game's paths.
_CHILD_WORK = {"solve": (cli_mod, "solve_maxmin"), "game": (game_mod, "roster_payoffs")}


def _forking_run(tmp_path, command):
    """The argv and output directory of a small run of a command that forks."""
    if command == "solve":
        path, out = _small_e1(tmp_path)
    else:
        doc = _small_game_doc()
        doc["simulation"]["paths"] = 200
        path, out = _stage(tmp_path, doc)
    return [command, str(path)], out


def _in_the_child(monkeypatch, command, action):
    """Make the forked child of ``command`` run ``action`` in place of its
    work; the command's own process works as usual."""
    owner, name = _CHILD_WORK[command]
    original = getattr(owner, name)
    parent = os.getpid()
    monkeypatch.setattr(owner, name,
                        lambda *args: original(*args) if os.getpid() == parent else action())


def _cpus(monkeypatch, n):
    """Make this process see ``n`` CPUs it may run on: game forks its
    upper-half child only when it sees two or more."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _child_dies(tmp_path, monkeypatch, command):
    _cpus(monkeypatch, 2)
    _in_the_child(monkeypatch, command, lambda: os._exit(3))
    argv, out = _forking_run(tmp_path, command)
    with pytest.raises(ChildProcessError, match="exited with code 3"):
        main(argv)
    assert list(out.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_solve_both_raises_when_the_max_min_child_dies(tmp_path, monkeypatch):
    _child_dies(tmp_path, monkeypatch, "solve")


def test_game_raises_when_the_upper_half_child_dies(tmp_path, monkeypatch):
    _child_dies(tmp_path, monkeypatch, "game")


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _forks_although_python_warns_about_threads(tmp_path, monkeypatch, command):
    # Python 3.12+ warns like this on a fork in a process with threads, and
    # numpy's OpenBLAS pool is such a thread; the suite turns warnings into
    # errors
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    _cpus(monkeypatch, 2)
    argv, out = _forking_run(tmp_path, command)
    assert main(argv) == 0
    assert (out / {"solve": "value_maxmin.csv", "game": "payoffs.csv"}[command]).exists()
    assert multiprocessing.active_children() == []


def test_solve_both_forks_although_python_warns_about_threads(tmp_path, monkeypatch):
    _forks_although_python_warns_about_threads(tmp_path, monkeypatch, "solve")


def test_game_forks_although_python_warns_about_threads(tmp_path, monkeypatch):
    _forks_although_python_warns_about_threads(tmp_path, monkeypatch, "game")


def _closes_its_pipe_when_the_child_does_not_start(tmp_path, monkeypatch, command):
    def no_fork(process):
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    _cpus(monkeypatch, 2)
    argv, out = _forking_run(tmp_path, command)
    # pipes that earlier tests left to the garbage collector are closed
    # now, not while the call below allocates
    gc.collect()
    before = _open_fds()
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_fork)
    try:
        main(argv)
    except BlockingIOError:
        # the frames of the failed call, and what they hold, are alive here
        assert _open_fds() == before
    else:
        pytest.fail("the failed start was not raised")
    assert list(out.iterdir()) == []


def test_solve_both_closes_its_pipe_when_the_child_does_not_start(tmp_path, monkeypatch):
    _closes_its_pipe_when_the_child_does_not_start(tmp_path, monkeypatch, "solve")


def test_game_closes_its_pipe_when_the_child_does_not_start(tmp_path, monkeypatch):
    _closes_its_pipe_when_the_child_does_not_start(tmp_path, monkeypatch, "game")


@contextlib.contextmanager
def _no_collection():
    """Hold the garbage collector off, so that what a call leaves open is
    closed by the call itself or not at all."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _child_raises():
    raise ValueError("raised in the child")


@pytest.mark.parametrize("work", [lambda: 7, _child_raises], ids=["succeeds", "raises"])
def test_forked_closes_every_pipe_it_opens(work):
    with _no_collection():
        before = set(os.listdir("/proc/self/fd"))
        with contextlib.suppress(ValueError):
            with cli_mod._forked(work, "test") as result:
                assert result() == 7
        assert set(os.listdir("/proc/self/fd")) == before
    assert multiprocessing.active_children() == []


def test_failing_solve_both_closes_every_pipe_it_opens(tmp_path, monkeypatch):
    monkeypatch.setattr("switchgame.cli.solve_maxmin",
                        _raise(ConvergenceError("maxmin fixed point stalled", 0.25)))
    path, _ = _small_e1(tmp_path)
    with _no_collection():
        before = set(os.listdir("/proc/self/fd"))
        assert main(["solve", str(path)]) == 1
        assert set(os.listdir("/proc/self/fd")) == before


def test_game_plays_every_path_here_when_the_child_raises(tmp_path, monkeypatch):
    # the child's half is discarded with the parent's, and this process plays
    # all the paths again: the files are those of an undisturbed run
    _cpus(monkeypatch, 2)
    argv, out = _forking_run(tmp_path / "undisturbed", "game")
    assert main(argv) == 0
    undisturbed = _file_bytes(out)

    def array_must_be_finite():
        raise ValueError("array must be finite")

    _in_the_child(monkeypatch, "game", array_must_be_finite)
    argv, out = _forking_run(tmp_path / "child_raises", "game")
    assert main(argv) == 0
    assert _file_bytes(out) == undisturbed
    assert multiprocessing.active_children() == []


def test_game_raises_what_one_process_raises_when_both_halves_raise(tmp_path, monkeypatch):
    calls = []

    def roster_payoffs(spec, bundle, *args):
        calls.append(bundle.n_paths)
        raise ValueError(f"array must be finite ({bundle.n_paths} paths)")

    monkeypatch.setattr(game_mod, "roster_payoffs", roster_payoffs)
    _cpus(monkeypatch, 2)
    argv, out = _forking_run(tmp_path, "game")
    with pytest.raises(ValueError, match=r"^array must be finite \(200 paths\)$") as caught:
        main(argv)
    # the lower half here, then all 200 paths; neither error of a half shows
    assert calls == [100, 200]
    assert caught.value.__cause__ is None and caught.value.__context__ is None
    assert list(out.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_solve_both_writes_the_bytes_of_two_separate_runs(tmp_path):
    doc = _load("e1_equality_2x2.json")
    doc["grid"] = {"nt": 41, "nx": 33}
    runs = {}
    for system in ("both", "minmax", "maxmin"):
        path, out = _stage(tmp_path / system, doc)
        assert main(["solve", str(path), "--system", system]) == 0
        runs[system] = _file_bytes(out)
    assert multiprocessing.active_children() == []
    both = runs["both"]
    for system in ("minmax", "maxmin"):
        for name in (f"value_{system}.csv", f"value_{system}_meta.json"):
            assert both[name] == runs[system][name]
        reports = [json.loads(files[f"solve_report_{system}.json"])
                   for files in (both, runs[system])]
        assert reports[0].pop("final_gap") is not None
        assert reports[1].pop("final_gap") is None
        assert reports[0] == reports[1]


def test_sup_gap_is_the_max_of_the_gap_table(tmp_path):
    doc = _load("e1_equality_2x2.json")
    doc["grid"] = {"nt": 41, "nx": 33}
    path, out = _stage(tmp_path, doc)
    assert main(["solve", str(path)]) == 0
    table = max(float(row["gap"]) for row in _csv_rows(out / "gap_minmax_maxmin.csv"))
    config = load_config(str(path))
    grid = build_grid(config.spec, config.nt, config.nx)
    gap = sup_gap(solve_minmax(config.spec, grid, config.schedule)[0],
                  solve_maxmin(config.spec, grid, config.schedule)[0])
    assert gap.hex() == table.hex()
    report = json.loads((out / "solve_report_minmax.json").read_text())
    assert report["final_gap"].hex() == gap.hex()


def test_solve_both_does_not_send_the_max_min_field_through_the_pipe(tmp_path, monkeypatch):
    # the child copies its field into memory shared with this process; what
    # it pickles into the pipe is its report and the field's metadata
    sizes = []
    from_child = cli_mod._from_child

    class Measured:
        def __init__(self, conn):
            self.conn = conn

        def recv(self):
            data = self.conn.recv_bytes()
            sizes.append(len(data))
            return pickle.loads(data)

    monkeypatch.setattr(cli_mod, "_from_child",
                        lambda child, conn, name: from_child(child, Measured(conn), name))
    doc = _load("e1_equality_2x2.json")
    path, out = _stage(tmp_path, doc)
    assert main(["solve", str(path)]) == 0
    field_bytes = 4 * doc["grid"]["nt"] * doc["grid"]["nx"] * 8
    assert len(sizes) == 1 and sizes[0] < 0.01 * field_bytes
    values = np.array([float(row["value"]) for row in _csv_rows(out / "value_maxmin.csv")])
    gaps = np.array([float(row["gap"]) for row in _csv_rows(out / "gap_minmax_maxmin.csv")])
    assert values.size * 8 == field_bytes and np.all(np.isfinite(values))
    assert 0.0 < gaps.max() < 1e-2


def _mmaps_made(monkeypatch):
    """The shared mappings that cli makes, recorded."""
    made = []

    class Recorded(cli_mod.mmap.mmap):
        def __new__(cls, *args):
            made.append(super().__new__(cls, *args))
            return made[-1]

    monkeypatch.setattr(cli_mod, "mmap", types.SimpleNamespace(mmap=Recorded))
    return made


@pytest.mark.parametrize("outcome", ["succeeds", "does_not_converge", "raises"])
def test_solve_both_releases_its_shared_mapping(tmp_path, monkeypatch, outcome):
    made = _mmaps_made(monkeypatch)
    if outcome == "does_not_converge":
        monkeypatch.setattr("switchgame.solver.FIXED_POINT_CAP", 1)
    elif outcome == "raises":
        monkeypatch.setattr("switchgame.cli.solve_minmax", _raise(ValueError("array must be finite")))
    path, _ = _small_e1(tmp_path)
    if outcome == "raises":
        with pytest.raises(ValueError, match="array must be finite"):
            main(["solve", str(path)])
    else:
        assert main(["solve", str(path)]) == (0 if outcome == "succeeds" else 1)
    assert len(made) == 1 and made[0].closed
    assert multiprocessing.active_children() == []


_TO_CSV = ValueField.to_csv
_E1_SOLVE_FILES = ["gap_minmax_maxmin.csv", "solve_report_maxmin.json", "solve_report_minmax.json",
                   "value_maxmin.csv", "value_maxmin_meta.json", "value_minmax.csv",
                   "value_minmax_meta.json"]


def _stalled(name):
    return _raise(ConvergenceError(f"{name} fixed point stalled", 0.25))


@pytest.mark.parametrize("failing", ["minmax", "maxmin"])
def test_solve_both_failure_after_the_other_value_file_is_written(tmp_path, monkeypatch, failing):
    # each process writes its value file under a temporary name; the failing
    # side fails only once the other side's file is on disk, and neither file
    # is published nor left behind
    child_wrote = multiprocessing.get_context("fork").Event()
    parent = os.getpid()
    written = []

    def to_csv(fld, path):
        _TO_CSV(fld, path)
        written.append(os.path.basename(path))
        if os.getpid() != parent:
            child_wrote.set()

    def minmax_after_the_child_wrote(spec, grid, schedule):
        assert child_wrote.wait(timeout=120)
        raise ConvergenceError("minmax fixed point stalled", 0.25)

    monkeypatch.setattr(ValueField, "to_csv", to_csv)
    monkeypatch.setattr(f"switchgame.cli.solve_{failing}",
                        minmax_after_the_child_wrote if failing == "minmax" else _stalled(failing))
    path, out = _small_e1(tmp_path)
    assert main(["solve", str(path)]) == 1
    if failing == "maxmin":
        assert written == [".value_minmax.csv.part"]
    assert child_wrote.is_set() == (failing == "minmax")
    assert [p.name for p in out.iterdir()] == ["solve_error.json"]
    assert multiprocessing.active_children() == []


def test_solve_both_child_that_dies_while_writing_leaves_no_part_file(tmp_path, monkeypatch):
    parent = os.getpid()

    def to_csv(fld, path):
        if os.getpid() == parent:
            return _TO_CSV(fld, path)
        with open(path, "w") as handle:
            handle.write("i,j,t_index,x_index,t,x,value\r\n")
            handle.flush()
            os._exit(3)

    monkeypatch.setattr(ValueField, "to_csv", to_csv)
    path, out = _small_e1(tmp_path)
    with pytest.raises(ChildProcessError, match="exited with code 3"):
        main(["solve", str(path)])
    assert list(out.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_solve_both_writes_seven_files_that_a_failed_rerun_keeps(tmp_path, monkeypatch):
    doc = _load("e1_equality_2x2.json")
    doc["grid"] = {"nt": 41, "nx": 33}
    path, out = _stage(tmp_path, doc)
    assert main(["solve", str(path)]) == 0
    earlier = _file_bytes(out)
    assert list(earlier) == _E1_SOLVE_FILES
    for failing in ("minmax", "maxmin"):
        with monkeypatch.context() as patch:
            patch.setattr(f"switchgame.cli.solve_{failing}", _stalled(failing))
            assert main(["solve", str(path)]) == 1
        files = _file_bytes(out)
        assert json.loads(files.pop("solve_error.json"))["error"].startswith(failing)
        assert files == earlier
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("system", ["minmax", "maxmin"])
def test_solve_one_scheme_whose_csv_write_fails_leaves_no_value_file(tmp_path, monkeypatch,
                                                                      system):
    def to_csv(fld, path):
        with open(path, "w") as handle:
            handle.write("i,j,t_index,x_index,t,x,value\r\n")
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(ValueField, "to_csv", to_csv)
    path, out = _small_e1(tmp_path)
    with pytest.raises(OSError, match="No space left on device"):
        main(["solve", str(path), "--system", system])
    assert list(out.iterdir()) == []


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


def test_game_without_simulation_section_exits_2_at_the_config_path(tmp_path, capsys):
    path, out = _stage(tmp_path, _load("e1_equality_2x2.json"))
    assert main(["game", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}.simulation: ")
    assert not (out / "game_report.json").exists()


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


@pytest.mark.parametrize("block", [5000, 300])
def test_g1_game_output_digests(tmp_path, monkeypatch, block):
    # the shipped G1 game at 2000 paths; any change to these bytes is a change
    # in what the game command computes or how it writes it, and the size of
    # the path blocks changes none of them
    monkeypatch.setattr(cli_mod, "PLAY_BLOCK", block)
    doc = _load("g1_game_2x2.json")
    doc["simulation"]["paths"] = 2000
    path, out = _stage(tmp_path, doc)
    assert main(["game", str(path)]) == 0
    digests = {name: _sha256(out / name) for name in ("game_report.json", "payoffs.csv")}
    assert digests == {
        "game_report.json": "66afef0fea87636c39e5951d207f8c949e5029732fa49c6d0d86676b0ae2f6c8",
        "payoffs.csv": "c27d2485da589b10b04b90601df19e4e61d19d4ff871dac7ec46bc930631f768",
    }


def test_e1_solve_output_digests(tmp_path):
    # both schemes of the shipped E1 solve at 41x33; any change to these bytes
    # is a change in what the solve command computes or how it writes it
    doc = _load("e1_equality_2x2.json")
    doc["grid"] = {"nt": 41, "nx": 33}
    path, out = _stage(tmp_path, doc)
    assert main(["solve", str(path), "--system", "both"]) == 0
    assert {p.name: _sha256(p) for p in out.iterdir()} == {
        "gap_minmax_maxmin.csv": "55822bbd9cedce7b9487586fcfefbcdfc6f904995623b56360b5634074fba23d",
        "solve_report_maxmin.json": "9818e3cb108e7c8a3aa6ed5cf70e9176851582d1f8a72b50073a08885178d6ed",
        "solve_report_minmax.json": "8ac96a15ca709fb58d2b3bd02a31ef3c602f63a89709c1a4a7f5a99b4239409b",
        "value_maxmin.csv": "485718b91c6279d6f85b15ae0f07d19cde6eff5003386e8d5133545c7de63298",
        "value_maxmin_meta.json": "031e218d5280d30e6bd0d794e936a06c021182c123fb0ca4436e089ca685005c",
        "value_minmax.csv": "0c754c3086744bfb77cc1f600511ddacb040952ae599145373c723847c112517",
        "value_minmax_meta.json": "5effbfaa03dac637d59fcb081b2714bfa3238eaf98562a78b7701765578adcfc",
    }


@pytest.mark.parametrize("name,digests", [
    ("e0_heat.json", {
        "gap_minmax_maxmin.csv": "dedd83e3a2dfd25cd5952eff8ca6ecfe5f8ad8b0bd9ed3617c606a258dac3f9c",
        "solve_report_maxmin.json": "8fa3daef76c4971b33b08d8723b119c05a65f2feb8f8bdcdf1122bb4d7dfccd7",
        "solve_report_minmax.json": "8e240e94672422182501564b1662ddbbd3f49c17ee827be1f35cdda470b06897",
        "value_maxmin.csv": "2a7fe624211d0ddbdabf1c83624d3beb2c48d9f8ba83454f637161030ec9005b",
        "value_maxmin_meta.json": "6a9c1f4593e46960da93c4c04abcd2e9cf74f89cd97f972ca89d6b0191c77e40",
        "value_minmax.csv": "2a7fe624211d0ddbdabf1c83624d3beb2c48d9f8ba83454f637161030ec9005b",
        "value_minmax_meta.json": "67c58ebf00cfe0cbf87234c521b388b887708d5351e2ea62e5b7fe93b7cf1a79",
    }),
    # E5's value files hold exact zeros, so a sign flip of a zero shows here
    ("e5_oracle_2x2.json", {
        "gap_minmax_maxmin.csv": "78d002a174e3d11ceaafe2b5e5957fa4594699596add5ac0917311ab1c3fc976",
        "solve_report_maxmin.json": "53e06ac49af7ad5629db3bb68c795dce81f55fb2055dcec0eea6ea84c74d76c0",
        "solve_report_minmax.json": "b4ad0b8b9daa105906610af0fcc288ec7cb0ddec5659035ba108eef57599372c",
        "value_maxmin.csv": "bbb684decab65e34836da12bec99ad7c00831d6f64e27e64fd7bc40cb3bba924",
        "value_maxmin_meta.json": "dd4f3457fb282c1392f60f792350d191a92d23b7cfe434aefd6be2a2ad23981a",
        "value_minmax.csv": "fdb7db587ec29900d877c57ca09788983608f71ff38cfaff31b7e7c055e622fb",
        "value_minmax_meta.json": "436258930ebb1a395d3bbe4d209e947a477f9f1c17f30c76203bbd525bc5fdeb",
    }),
], ids=["e0", "e5"])
def test_shipped_solve_output_digests(tmp_path, name, digests):
    # both schemes of the shipped E0 and E5 solves at their own grids
    path, out = _stage(tmp_path, _load(name))
    assert main(["solve", str(path), "--system", "both"]) == 0
    assert {p.name: _sha256(p) for p in out.iterdir()} == digests


_CSV_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e16, -1e16, 1e-5, 0.1, 1 / 3, 1e300]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


def _payoffs_match_csv_writer(folder, data, n):
    floats = lambda: np.array(data.draw(st.lists(_CSV_FLOATS, min_size=n, max_size=n)))
    counts = lambda: np.array(data.draw(st.lists(st.integers(0, 64), min_size=n, max_size=n)))
    payoff = PayoffEstimate(mean=0.0, stderr=0.0, per_path=floats(),
                            cost1_per_path=floats(), cost2_per_path=floats(),
                            switches1=counts(), switches2=counts())
    _write_payoffs(folder / "fast.csv", payoff)
    # the csv.writer loop the block write replaced
    with open(folder / "reference.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["path", "payoff", "switches1", "switches2", "costA", "costB"])
        for p in range(n):
            writer.writerow([p, repr(float(payoff.per_path[p])), int(payoff.switches1[p]),
                             int(payoff.switches2[p]), repr(float(payoff.cost1_per_path[p])),
                             repr(float(payoff.cost2_per_path[p]))])
    assert (folder / "fast.csv").read_bytes() == (folder / "reference.csv").read_bytes()


@given(data=st.data(), n=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_payoffs_csv_writes_csv_writer_bytes(tmp_path_factory, data, n):
    _payoffs_match_csv_writer(tmp_path_factory.mktemp("payoffs"), data, n)


@given(data=st.data(), n=st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_payoffs_csv_in_blocks_of_two_writes_csv_writer_bytes(tmp_path_factory, data, n):
    # blocks of two rows: the path index runs on across every block boundary
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli_mod, "PLAY_BLOCK", 2)
        _payoffs_match_csv_writer(tmp_path_factory.mktemp("payoffs"), data, n)


def _payoffs_write_peak(folder, n):
    rng = np.random.default_rng(n)
    payoff = PayoffEstimate(mean=0.0, stderr=0.0, per_path=rng.standard_normal(n),
                            cost1_per_path=rng.standard_normal(n),
                            cost2_per_path=rng.standard_normal(n),
                            switches1=rng.integers(0, 9, n), switches2=rng.integers(0, 9, n))
    tracemalloc.start()
    try:
        _write_payoffs(folder / f"payoffs_{n}.csv", payoff)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_payoffs_csv_memory_is_bounded_by_its_block(tmp_path):
    # the rows are formatted and written PLAY_BLOCK paths at a time, so
    # eight blocks of paths need about one block's memory
    block = cli_mod.PLAY_BLOCK
    assert _payoffs_write_peak(tmp_path, 8 * block) <= 1.5 * _payoffs_write_peak(tmp_path, block)


def _serial_game(path, out):
    """The game command's two files as saddle_from_fields and verify_saddle
    make them in one process on the whole path bundle, written as the
    command writes them; or the error that raises."""
    config = load_config(str(path))
    grid = build_grid(config.spec, config.nt, config.nx)
    field1, field2 = solve_single_obstacle(config.spec, grid)
    i0, j0 = config.start_modes
    challengers = [default_challengers(config.spec, player, mode, config.sim.seed + player,
                                       config.sim.n_steps)
                   for player, mode in ((1, i0), (2, j0))]
    start = (config.sim.t0, config.sim.x0, i0, j0)
    saddle1, saddle2, pde_value = saddle_from_fields(field1, field2, start)
    report = verify_saddle(config.spec, simulate_paths(config.spec, config.sim),
                           saddle1, saddle2, *challengers, start=start, pde_value=pde_value)
    out.mkdir()
    _write_json(out / "game_report.json", report.to_dict())
    _write_payoffs(out / "payoffs.csv", report.saddle_payoff)
    return _file_bytes(out)


def _counting_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("paths,forks", [(2001, 1), (1, 0)])
def test_game_writes_the_bytes_of_one_process(tmp_path, monkeypatch, paths, forks):
    # 2001 paths split into 1000 here and 1001 in the child; one path is not split
    doc = _small_game_doc()
    doc["simulation"]["paths"] = paths
    path, out = _stage(tmp_path, doc)
    _cpus(monkeypatch, 2)
    forked = _counting_forks(monkeypatch)
    assert main(["game", str(path)]) == 0
    assert len(forked) == forks
    assert multiprocessing.active_children() == []
    assert _file_bytes(out) == _serial_game(path, tmp_path / "serial")


def _switching_game_doc(paths, seed):
    """A separated game whose saddle rules switch up to 8 times on a path."""
    doc = _small_game_doc()
    doc["costs"] = {"player1": {"1->2": "0.02", "2->1": "0.02"},
                    "player2": {"1->2": "0.02", "2->1": "0.02"}}
    doc["drivers"] = {"1,1": "0", "1,2": "-2*sin(x)", "2,1": "3*x", "2,2": "3*x + -2*sin(x)"}
    doc["terminals"] = {pair: "0" for pair in ("1,1", "1,2", "2,1", "2,2")}
    doc["diffusion"] = {"drift": "0", "volatility": "1"}
    doc["simulation"].update(paths=paths, seed=seed)
    return doc


@pytest.mark.parametrize("seed,cap,volatility,failing_path", [
    # only path 683 switches 7 times
    (2, 6, "1", 683),
    # the first path over the cap is 938, and some paths of the lower half pass it later
    (77, 3, "1", 938),
    # only paths of the upper half pass x = 3.1, where the volatility fails
    (5, 64, "1 + 0*sqrt(3.1 - x)", 705),
])
def test_game_failing_on_the_upper_half_fails_as_one_process(tmp_path, monkeypatch, capsys, seed,
                                                              cap, volatility, failing_path):
    monkeypatch.setattr(game_mod, "SWITCH_CAP", cap)
    doc = _switching_game_doc(1001, seed)
    doc["diffusion"]["volatility"] = volatility
    path, out = _stage(tmp_path, doc)
    with pytest.raises(SwitchgameError) as serial:
        _serial_game(path, tmp_path / "serial")
    assert f"path {failing_path}" in str(serial.value)
    assert failing_path >= 1001 // 2
    _cpus(monkeypatch, 2)
    forked = _counting_forks(monkeypatch)
    assert main(["game", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {serial.value}\n"
    assert len(forked) == 1
    assert list(out.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_game_on_one_cpu_forks_nothing_and_writes_the_same_bytes(tmp_path, monkeypatch):
    doc = _small_game_doc()
    doc["simulation"]["paths"] = 2001
    path, out = _stage(tmp_path, doc)
    _cpus(monkeypatch, 1)
    forked = _counting_forks(monkeypatch)
    assert main(["game", str(path)]) == 0
    assert forked == []
    assert _file_bytes(out) == _serial_game(path, tmp_path / "serial")


def _spy_on_simulate_paths(monkeypatch, log):
    """Append the pid of the process that makes each simulate_paths call,
    and the start and stop of the call's paths, to the file ``log``."""
    original = cli_mod.simulate_paths

    def spy(spec, params, paths):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {paths.start} {paths.stop}\n")
        return original(spec, params, paths)

    monkeypatch.setattr(cli_mod, "simulate_paths", spy)


def test_game_in_uneven_blocks_writes_the_bytes_of_one_process(tmp_path, monkeypatch):
    # 1000 paths here in blocks of 300, 300, 300 and 100, and 1001 in the
    # child in blocks of 300, 300, 300 and 101
    monkeypatch.setattr(cli_mod, "PLAY_BLOCK", 300)
    doc = _small_game_doc()
    doc["simulation"]["paths"] = 2001
    path, out = _stage(tmp_path, doc)
    _cpus(monkeypatch, 2)
    forked = _counting_forks(monkeypatch)
    assert main(["game", str(path)]) == 0
    assert len(forked) == 1
    assert _file_bytes(out) == _serial_game(path, tmp_path / "serial")


def test_game_simulates_no_more_than_a_block_of_paths_at_a_time(tmp_path, monkeypatch):
    monkeypatch.setattr(cli_mod, "PLAY_BLOCK", 300)
    doc = _small_game_doc()
    doc["simulation"]["paths"] = 2001
    path, out = _stage(tmp_path, doc)
    _cpus(monkeypatch, 2)
    log = tmp_path / "calls.log"
    _spy_on_simulate_paths(monkeypatch, log)
    assert main(["game", str(path)]) == 0
    calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    # both processes play, and their blocks tile the paths once
    assert len({pid for pid, _, _ in calls}) == 2
    assert all(stop - start <= 300 for _, start, stop in calls)
    ranges = sorted((start, stop) for _, start, stop in calls)
    assert [start for start, _ in ranges] == [0] + [stop for _, stop in ranges[:-1]]
    assert ranges[-1][1] == 2001


@pytest.mark.parametrize("seed,cap,failing_path,cpus,calls", [
    # only the lower half's second block, paths [300, 500), fails
    (6, 6, 345, 2, [300, 200, 1001]),
    # on one CPU this process plays every block; the second, [300, 600), fails
    (6, 6, 345, 1, [300, 300, 1001]),
    # the first block fails too, at path 228 and a later step than path 476
    (2, 3, 476, 2, [300, 1001]),
    (2, 3, 476, 1, [300, 1001]),
], ids=["seed6-two-cpus", "seed6-one-cpu", "seed2-two-cpus", "seed2-one-cpu"])
def test_game_failing_in_a_later_block_fails_as_one_process(tmp_path, monkeypatch, capsys, seed,
                                                            cap, failing_path, cpus, calls):
    monkeypatch.setattr(game_mod, "SWITCH_CAP", cap)
    monkeypatch.setattr(cli_mod, "PLAY_BLOCK", 300)
    path, out = _stage(tmp_path, _switching_game_doc(1001, seed))
    with pytest.raises(SwitchgameError) as serial:
        _serial_game(path, tmp_path / "serial")
    assert f"path {failing_path}" in str(serial.value)
    _cpus(monkeypatch, cpus)
    log = tmp_path / "calls.log"
    _spy_on_simulate_paths(monkeypatch, log)
    forked = _counting_forks(monkeypatch)
    assert main(["game", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {serial.value}\n"
    assert len(forked) == (1 if cpus == 2 else 0)
    # this process's blocks up to the one that raises, then all paths at once
    mine = [stop - start for pid, start, stop in
            (map(int, line.split()) for line in log.read_text().splitlines())
            if pid == os.getpid()]
    assert mine == calls
    assert list(out.iterdir()) == []
    assert multiprocessing.active_children() == []


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
