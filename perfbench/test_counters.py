"""Self-test of the benchmark: traced counters repeat exactly from run to run,
and the output checks pass on a second simulation seed.

    python3 -m pytest perfbench/test_counters.py -q

Each case runs ``run.py --trace 1 --seconds 1`` (one traced and one untraced
call) as a subprocess; the whole file takes about two minutes on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
SHIPPED_SEED = 20240811  # simulation.seed of configs/g1_game_2x2.json
EXACT = ("solver.fixed_point_iters", "game.switches", "simulate.clamp_events")
RECORDED_FILES = {"e1-solve": 7, "e1-solve-large": 7, "g1-game": 2}


def _traced_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=RUN.parent.parent, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(RECORDED_FILES))
def test_counters_repeat_exactly(workload):
    first, second = _traced_run(workload, SHIPPED_SEED), _traced_run(workload, SHIPPED_SEED)
    assert first["correct"] and second["correct"]
    counters = [m for m in first["metrics"] if m.endswith("_calls") or m in EXACT]
    assert len(counters) == 9
    for metric in counters:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    # outputs at the shipped seed match the digests recorded with the benchmark
    assert first["metrics"]["cli.outputs_identical"]["value"] == RECORDED_FILES[workload]


def test_game_checks_pass_on_a_second_seed():
    result = _traced_run("g1-game", 2)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["game.realize_calls"]["value"] == 14
