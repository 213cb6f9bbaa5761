"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one PASS line (run with ``pytest tests/test_acceptance.py -v -s``).
The problem data comes from the shipped configs in configs/.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from switchgame.cli import main
from switchgame.config import load_config
from switchgame.game import deterministic_dp_oracle
from switchgame.grid import build_grid
from switchgame.solver import (
    barrier_respect_check,
    decomposition_check,
    solve_maxmin,
    solve_minmax,
    solve_single_obstacle,
    sup_gap,
)

from helpers import bilevel_tree_value, prefix_ladder

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _config(name, tmp_dir, **overrides):
    tmp_dir = Path(tmp_dir)
    tmp_dir.mkdir(parents=True, exist_ok=True)
    doc = json.loads((CONFIG_DIR / name).read_text())
    doc.update(overrides)
    doc["output"] = str(tmp_dir / "out")
    path = tmp_dir / name
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def e1(tmp_path_factory):
    cfg = load_config(str(_config("e1_equality_2x2.json", tmp_path_factory.mktemp("e1"))))
    grid = build_grid(cfg.spec, cfg.nt, cfg.nx)
    started = time.perf_counter()
    fmin, rmin = solve_minmax(cfg.spec, grid, cfg.schedule)
    fmax, rmax = solve_maxmin(cfg.spec, grid, cfg.schedule)
    elapsed = time.perf_counter() - started
    return cfg, grid, fmin, rmin, fmax, rmax, elapsed


@pytest.fixture(scope="module")
def e1_passes(e1):
    """Each pass of both schemes' E1 ladders (prefix_ladder): min-max, max-min."""
    cfg, grid = e1[:2]
    return tuple(prefix_ladder(solve, cfg.spec, grid, cfg.schedule)
                 for solve in (solve_minmax, solve_maxmin))


def test_e0_heat_sanity(tmp_path):
    cfg = load_config(str(_config("e0_heat.json", tmp_path)))
    grid = build_grid(cfg.spec, cfg.nt, cfg.nx)
    assert (cfg.nt, cfg.nx) == (201, 161)
    started = time.perf_counter()
    field, _ = solve_minmax(cfg.spec, grid, cfg.schedule)
    elapsed = time.perf_counter() - started
    origin = int(np.argmin(np.abs(grid.xs)))
    value = float(field.values[0, 0, origin])
    assert abs(value - 1.0) <= 1e-2
    assert elapsed < 5.0
    print(f"\n[PASS] E0 heat sanity: v(0,0) = {value:.6f} (target 1.0 +/- 1e-2), "
          f"{elapsed:.2f}s")


def test_e1_equality_of_the_two_schemes(e1, e1_passes):
    elapsed = e1[-1]
    gaps = [sup_gap(a, b) for a, b in zip(*e1_passes)]
    assert gaps[-1] <= 1e-2
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert elapsed < 60.0
    print(f"\n[PASS] E1 equality: inner-half gap sweep "
          f"{[round(g, 6) for g in gaps]} (final <= 1e-2), {elapsed:.1f}s")


def test_e1_gap_falls_as_one_over_the_penalty(e1_passes):
    # E1's ladder multiplies the penalty by 4 each level; a gap of order 1/m
    # falls by about 4 between the last two levels
    gaps = [sup_gap(a, b) for a, b in zip(*e1_passes)]
    ratio = gaps[-2] / gaps[-1]
    assert 3.5 <= ratio <= 4.5
    print(f"\n[PASS] E1 penalty rate: last sup_gap ratio {ratio:.4f} (target [3.5, 4.5])")


def test_e1_grid_order_of_the_value_at_the_origin(e1):
    # dt and dx halve together along 76x61, 151x121 (the shipped grid) and
    # 301x241; implicit Euler is first order in dt, so the differences of
    # v^{11}(0, 0) between successive grids halve
    cfg, grid, fmin, *_ = e1
    assert (grid.nt, grid.nx) == (151, 121)
    fields = [solve_minmax(cfg.spec, build_grid(cfg.spec, 76, 61), cfg.schedule)[0], fmin,
              solve_minmax(cfg.spec, build_grid(cfg.spec, 301, 241), cfg.schedule)[0]]
    values = [f.values[f.index_of((1, 1)), 0, np.argmin(np.abs(f.grid.xs))] for f in fields]
    coarse, fine = abs(values[1] - values[0]), abs(values[2] - values[1])
    order = float(np.log2(coarse / fine))
    assert 0.8 <= order <= 1.2
    print(f"\n[PASS] E1 grid order of v11(0, 0): {order:.4f} from differences "
          f"{coarse:.3e}, {fine:.3e} (target [0.8, 1.2])")


def test_e2_sandwich_ordering(e1_passes):
    pmin, pmax = e1_passes
    tol = 1e-8
    worst = 0.0
    for prev, nxt in zip(pmax, pmax[1:]):
        worst = max(worst, float(np.max(prev.values - nxt.values)))
    for prev, nxt in zip(pmin, pmin[1:]):
        worst = max(worst, float(np.max(nxt.values - prev.values)))
    for asc, desc in zip(pmax, pmin):
        worst = max(worst, float(np.max(asc.values - desc.values)))
    violating = worst > tol
    assert not violating
    print(f"\n[PASS] E2 sandwich: worst ordering violation {worst:.2e} "
          f"(tolerance 1e-8, zero violating nodes)")


def test_e3_barrier_respect(e1):
    cfg, grid, fmin, _, fmax, _ = e1[:6]
    tol = 1e-3
    v1 = barrier_respect_check(fmin, cfg.spec, grid, tol)
    v2 = barrier_respect_check(fmax, cfg.spec, grid, tol)
    assert v1.passed and v2.passed
    worst = max(v1.max_floor_violation, v1.max_ceiling_violation,
                v2.max_floor_violation, v2.max_ceiling_violation)
    print(f"\n[PASS] E3 barrier respect: worst inner-node violation {worst:.2e} "
          f"(tolerance 1e-3)")


def test_e4_penalty_excess_bounded(e1):
    _, _, _, rmin, _, _, _ = e1
    levels = rmin.penalty_levels
    by_level = {m: max(d.values()) for m, d in zip(levels, rmin.penalty_excess)}
    assert by_level[16.0] > 0.0
    assert by_level[256.0] <= 2.0 * by_level[16.0]
    print(f"\n[PASS] E4 penalty excess bounded: {by_level[256.0]:.4f} at m=256 "
          f"<= 2 x {by_level[16.0]:.4f} at m=16")


def test_e5_frozen_state_oracle(tmp_path):
    cfg = load_config(str(_config("e5_oracle_2x2.json", tmp_path)))
    grid = build_grid(cfg.spec, cfg.nt, cfg.nx)
    assert cfg.nt == 11
    started = time.perf_counter()
    oracle = deterministic_dp_oracle(cfg.spec, cfg.nt, 0.0)

    # exhaustive cross-check: fold the full tree of joint switch schedules
    # (4^10 of them), under both intra-step commitment orders
    start = (1, 2)
    tree_p1 = bilevel_tree_value(cfg.spec, cfg.nt, 0.0, start, "p1", memo=False)
    tree_p2 = bilevel_tree_value(cfg.spec, cfg.nt, 0.0, start, "p2", memo=False)
    assert tree_p1 == tree_p2
    assert oracle["minmax"][start] == tree_p1
    assert oracle["maxmin"][start] == tree_p1

    max_f = 1.0
    tol = 2 * grid.dt * max_f
    fmin, _ = solve_minmax(cfg.spec, grid, cfg.schedule)
    fmax, _ = solve_maxmin(cfg.spec, grid, cfg.schedule)
    mid = grid.nx // 2
    worst = 0.0
    for field, variant in ((fmin, "minmax"), (fmax, "maxmin")):
        for idx, pair in enumerate(field.mode_labels):
            worst = max(worst, abs(float(field.values[idx, 0, mid]) - oracle[variant][pair]))
    elapsed = time.perf_counter() - started
    assert worst <= tol
    assert elapsed < 5.0
    print(f"\n[PASS] E5 frozen-state oracle: solver gap {worst:.4f} <= {tol}, "
          f"enumeration cross-check exact, {elapsed:.1f}s")


def test_g1_saddle_point(tmp_path):
    cfg_path = _config("g1_game_2x2.json", tmp_path)
    cfg = load_config(str(cfg_path))
    grid = build_grid(cfg.spec, cfg.nt, cfg.nx)

    started = time.perf_counter()
    code = main(["game", str(cfg_path)])
    elapsed = time.perf_counter() - started
    assert code == 0
    report = json.loads((Path(cfg.output) / "game_report.json").read_text())
    assert report["z"] == 3.0
    assert report["all_passed"], report
    assert report["pde_gap"] <= report["pde_tolerance"]
    assert cfg.sim.n_paths == 50_000

    coupled, _ = solve_minmax(cfg.spec, grid, cfg.schedule)
    gap = decomposition_check(coupled, *solve_single_obstacle(cfg.spec, grid))
    scale = 1.0
    budget = 5.0 * (grid.dx ** 2 + grid.dt) * scale
    assert gap <= budget
    assert elapsed < 120.0
    print(f"\n[PASS] G1 saddle point: all saddle inequalities at z=3, "
          f"|J - v| = {report['pde_gap']:.4f} <= {report['pde_tolerance']:.4f}, "
          f"decomposition gap {gap:.4f} <= {budget:.4f}, {elapsed:.1f}s")


def test_validators_target_exactly_one_check_each(tmp_path):
    cases = {
        "fail_zero_cost_loop.json": "non_free_loop",
        "fail_consistency.json": "terminal_consistency",
        "fail_triangle.json": "strict_triangle",
        "fail_nonseparated.json": "separation",
    }
    for name, target in cases.items():
        cfg_path = _config(name, tmp_path / name.replace(".json", ""))
        assert main(["validate", str(cfg_path)]) == 1
        cfg = load_config(str(cfg_path))
        report = json.loads((Path(cfg.output) / "validate_report.json").read_text())
        failed = sorted(n for n, c in report["checks"].items() if not c["passed"])
        assert failed == [target], (name, failed)
    cfg_path = _config("e1_separated_2x2.json", tmp_path / "passing")
    assert main(["validate", str(cfg_path)]) == 0
    print("\n[PASS] Validators: every shipped failing spec fails exactly its "
          "targeted check; the separated spec passes all checks")


def _collect_bytes(folder):
    return {p.name: p.read_bytes() for p in sorted(Path(folder).iterdir())}


def test_determinism_byte_identical_outputs(tmp_path):
    replays = {}
    for label, name, command in (
        ("E1", "e1_equality_2x2.json", "solve"),
        ("G1", "g1_game_2x2.json", "game"),
    ):
        outputs = []
        for attempt in ("first", "second"):
            cfg_path = _config(name, tmp_path / f"{label}_{attempt}")
            assert main([command, str(cfg_path)]) == 0
            outputs.append(_collect_bytes(Path(load_config(str(cfg_path)).output)))
        assert outputs[0].keys() == outputs[1].keys()
        for fname in outputs[0]:
            assert outputs[0][fname] == outputs[1][fname], f"{label}:{fname} differs"
        replays[label] = sorted(outputs[0])
    print(f"\n[PASS] Determinism: byte-identical reruns for E1 {replays['E1']} "
          f"and G1 {replays['G1']}")
