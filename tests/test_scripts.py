"""The experiment scripts run end to end from the repository root; the
benchmark pairing script's summary is checked on synthetic runs, and the
byte-identity check on a reduced matrix."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(*args):
    done = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_equality_experiment_prints_the_penalty_table():
    lines = _run("scripts/run_equality_experiment.py")
    header = next(n for n, line in enumerate(lines) if line.split()[:2] == ["penalty", "inner"])
    rows = [line.split() for line in lines[header + 1:header + 6]]
    assert [float(row[0]) for row in rows] == [1.0, 4.0, 16.0, 64.0, 256.0]
    gaps = [float(row[1]) for row in rows]
    assert gaps == sorted(gaps, reverse=True)
    assert sum(": ok (worst" in line for line in lines) == 2


def test_game_experiment_verifies_the_saddle():
    lines = _run("scripts/run_game_experiment.py", "--paths", "500")
    assert lines[0].startswith("paths = 500,")
    assert any(line.startswith("decomposition gap") for line in lines)
    assert lines[-1] == "saddle verified"


def _bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "scripts" / "bench_pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _metrics(wall, setup=0.5, rss=100.0, cpu=40.0, tree_rss=150.0):
    return {"wall_s": {"value": wall, "unit": "s"}, "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"}, "cpu_s": {"value": cpu, "unit": "s"},
            "max_rss_mb": {"value": tree_rss, "unit": "MB"}}


def test_bench_pair_summary_of_synthetic_runs(tmp_path):
    bench_pair = _bench_pair()
    baseline = [_metrics(w) for w in (5.0, 4.0, 6.0, 3.0, 7.0)]
    change = [_metrics(w, setup=0.6, cpu=c, tree_rss=t)
              for w, c, t in zip((3.0, 4.5, 2.0, 2.5, 3.5), (60.0, 30.0, 70.0, 65.0, 62.0),
                                 (140.0, 150.0, 160.0, 120.0, 130.0))]
    summary = bench_pair.summarize({"baseline": baseline, "change": change})
    wall = summary["wall_s"]
    assert wall["baseline"] == {"median": 5.0, "q1": 4.0, "q3": 6.0}
    assert wall["change"] == {"median": 3.0, "q1": 2.5, "q3": 3.5}
    assert wall["ratio"] == 0.6
    assert (wall["wins"], wall["pairs"]) == (4, 5)  # pair 1 is slower
    assert summary["setup_s"]["wins"] == 0
    assert summary["peak_rss_mb"]["wins"] == 0  # a tie is no win
    cpu = summary["cpu_s"]
    assert cpu["change"] == {"median": 62.0, "q1": 60.0, "q3": 65.0}
    assert (cpu["ratio"], cpu["wins"]) == (62.0 / 40.0, 1)
    tree = summary["max_rss_mb"]
    assert tree["change"] == {"median": 140.0, "q1": 130.0, "q3": 150.0}
    assert (tree["ratio"], tree["wins"]) == (140.0 / 150.0, 3)
    one = bench_pair.summarize({"baseline": baseline[:1], "change": change[:1]})
    assert one["wall_s"]["change"] == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    with pytest.raises(ValueError):
        bench_pair.summarize({"baseline": baseline, "change": change[:4]})
    # the line count of a checkout's package modules, other files left out
    package = tmp_path / "src" / "switchgame"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3\n")
    (package / "notes.txt").write_text("not\ncounted\n")
    assert bench_pair.src_lines(tmp_path) == 3


_FAKE_RUN = '''\
import importlib.util, json, os, sys
from pathlib import Path

here = Path(__file__).resolve().parent
cache = importlib.util.cache_from_source(str(here / "probe.py"))
compiled = not os.path.exists(cache)
import probe

with open(here / "runs.jsonl", "a") as log:
    log.write(json.dumps({"prefix": sys.pycache_prefix, "cached": probe.__cached__,
                          "compiled": compiled,
                          "dont_write": os.environ.get("PYTHONDONTWRITEBYTECODE")}) + "\\n")
print("environment " + json.dumps({"python": "x"}))
metric = {"value": 1.0, "unit": "s"}
print(json.dumps({"correct": True, "attempted": 1,
                  "metrics": {"wall_s": metric, "setup_s": metric, "peak_rss_mb": metric}}))
'''


def test_bench_pair_gives_each_side_its_own_fresh_bytecode_cache(tmp_path, monkeypatch):
    # two synthetic checkouts whose run.py logs where its imports' bytecode
    # lives; each tree holds a stale __pycache__ that must not be read
    bench_pair = _bench_pair()
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    sides = {side: tmp_path / side for side in bench_pair.SIDES}
    for checkout in sides.values():
        (checkout / "perfbench" / "__pycache__").mkdir(parents=True)
        (checkout / "perfbench" / "run.py").write_text(_FAKE_RUN)
        (checkout / "perfbench" / "probe.py").write_text("VALUE = 1\n")
        stale = importlib.util.cache_from_source(str(checkout / "perfbench" / "probe.py"))
        Path(stale).write_bytes(b"not bytecode")
    doc = bench_pair.bench(sides["baseline"], sides["change"], ["g1-game"], pairs=2, seed=1,
                           seconds=1.0)
    prefixes = []
    for side, checkout in sides.items():
        logs = [json.loads(line)
                for line in (checkout / "perfbench" / "runs.jsonl").read_text().splitlines()]
        prefix = doc["environment"][side]["PYTHONPYCACHEPREFIX"]
        assert [log["prefix"] for log in logs] == [prefix, prefix]
        assert all(log["cached"].startswith(prefix + os.sep) for log in logs)
        # compiled on the first run, read from the prefix on the second
        assert [log["compiled"] for log in logs] == [True, False]
        assert [log["dont_write"] for log in logs] == [None, None]
        assert not os.path.exists(prefix)  # removed with the run
        prefixes.append(prefix)
    assert prefixes[0] != prefixes[1]


def _git(repo, *args) -> str:
    return subprocess.run(["git", "-c", "user.name=test", "-c", "user.email=test@example.com",
                           "-c", "commit.gpgsign=false", *args],
                          cwd=repo, check=True, capture_output=True, text=True).stdout


def _worktrees(repo) -> str:
    return _git(repo, "worktree", "list", "--porcelain")


def test_checkout_of_a_revision_registers_no_worktree(tmp_path, monkeypatch):
    # a throwaway repository of its own, so that the test runs in a copy of
    # this one that is not a git work tree as well
    repo = tmp_path / "repo"
    for name in ("src/switchgame/cli.py", "perfbench/run.py"):
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text("")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "tree")
    bench_pair = _bench_pair()
    monkeypatch.setattr(bench_pair, "ROOT", repo)
    before = _worktrees(repo)
    with bench_pair.checkout_of("HEAD") as tree:
        assert (tree / "src" / "switchgame" / "cli.py").is_file()
        assert (tree / "perfbench" / "run.py").is_file()
        assert _worktrees(repo) == before
    assert _worktrees(repo) == before
    assert not tree.exists()


# a reduced fingerprint matrix: a report, the value CSVs of both schemes and an exit-2 error
_REDUCED = ("validate-e0_heat", "solve-e0", "game-fail_triangle")


def _fingerprint(monkeypatch):
    spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "scripts" / "fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "MATRIX", {name: module.MATRIX[name] for name in _REDUCED})
    return module


def test_fingerprint_of_this_checkout_against_itself_exits_0(tmp_path, monkeypatch, capsys):
    fingerprint = _fingerprint(monkeypatch)
    assert fingerprint.main(["--baseline", str(ROOT), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "fingerprint: 3 cases identical"
    prints = {side: json.loads((tmp_path / f"{side}.json").read_text())
              for side in ("baseline", "change")}
    assert prints["baseline"] == prints["change"]
    assert prints["change"]["game-fail_triangle"]["exit"] == 2
    assert "value_minmax.csv" in prints["change"]["solve-e0"]["files"]


def test_fingerprint_names_a_flipped_byte_of_a_value_csv(monkeypatch, capsys):
    # the second solve-e0 run is the change side's: one byte of its min-max
    # value CSV is flipped before the files are hashed
    fingerprint = _fingerprint(monkeypatch)
    run_case, runs = fingerprint.run_case, []

    def flipping(checkout, name, run_dir, pycache):
        result = run_case(checkout, name, run_dir, pycache)
        runs.append(name)
        if runs.count("solve-e0") == 2 and name == "solve-e0":
            csv = run_dir / "out" / "value_minmax.csv"
            data = bytearray(csv.read_bytes())
            data[-2] ^= 1
            csv.write_bytes(bytes(data))
        return result

    monkeypatch.setattr(fingerprint, "run_case", flipping)
    assert fingerprint.main(["--baseline", str(ROOT)]) == 1
    assert runs.count("solve-e0") == 2
    assert capsys.readouterr().err == "fingerprint: solve-e0: file value_minmax.csv differs\n"
