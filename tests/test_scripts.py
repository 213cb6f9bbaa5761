"""The experiment scripts run end to end from the repository root; the
benchmark pairing script's summary is checked on synthetic runs."""

import importlib.util
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


def _metrics(wall, setup=0.5, rss=100.0, cpu=40.0):
    return {"wall_s": {"value": wall, "unit": "s"}, "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"}, "cpu_s": {"value": cpu, "unit": "s"}}


def test_bench_pair_summary_of_synthetic_runs():
    bench_pair = _bench_pair()
    baseline = [_metrics(w) for w in (5.0, 4.0, 6.0, 3.0, 7.0)]
    change = [_metrics(w, setup=0.6, cpu=c)
              for w, c in zip((3.0, 4.5, 2.0, 2.5, 3.5), (60.0, 30.0, 70.0, 65.0, 62.0))]
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
    one = bench_pair.summarize({"baseline": baseline[:1], "change": change[:1]})
    assert one["wall_s"]["change"] == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    with pytest.raises(ValueError):
        bench_pair.summarize({"baseline": baseline, "change": change[:4]})
