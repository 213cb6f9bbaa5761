"""The experiment scripts run end to end from the repository root."""

import subprocess
import sys
from pathlib import Path

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
