#!/usr/bin/env python3
"""Sweep the penalty ladder on the coupled 2x2 problem and print how the
descending and ascending schemes close on each other.

Usage: python scripts/run_equality_experiment.py [--config configs/e1_equality_2x2.json]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from switchgame.config import load_config
from switchgame.grid import build_grid
from switchgame.solver import (PenaltySchedule, barrier_respect_check, solve_maxmin, solve_minmax,
                               sup_gap)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", default="configs/e1_equality_2x2.json")
    args = parser.parse_args()

    cfg = load_config(args.config)
    grid = build_grid(cfg.spec, cfg.nt, cfg.nx)
    fmin, rmin = solve_minmax(cfg.spec, grid, cfg.schedule)
    fmax, rmax = solve_maxmin(cfg.spec, grid, cfg.schedule)

    print(f"grid {cfg.nt} x {cfg.nx}, dt = {grid.dt:.5f}, dx = {grid.dx:.5f}")
    print(f"{'penalty':>10} {'inner gap':>12} {'desc excess':>12} {'asc excess':>12}")
    for idx, m in enumerate(rmin.penalty_levels):
        # a pass does not see the passes after it: pass idx is the last field
        # of the ladder of the first idx + 1 levels
        prefix = PenaltySchedule(cfg.schedule.levels[:idx + 1], cfg.schedule.fixed_point_tol)
        gap = sup_gap(solve_minmax(cfg.spec, grid, prefix)[0],
                      solve_maxmin(cfg.spec, grid, prefix)[0])
        exc_d = max(rmin.penalty_excess[idx].values())
        exc_a = max(rmax.penalty_excess[idx].values())
        print(f"{m:>10.0f} {gap:>12.6f} {exc_d:>12.5f} {exc_a:>12.5f}")

    tol = 1e-3
    for field, name in ((fmin, "descending"), (fmax, "ascending")):
        verdict = barrier_respect_check(field, cfg.spec, grid, tol)
        worst = max(verdict.max_floor_violation, verdict.max_ceiling_violation)
        print(f"{name} barriers at {tol}: {'ok' if verdict.passed else 'VIOLATED'} "
              f"(worst {worst:.2e})")


if __name__ == "__main__":
    main()
