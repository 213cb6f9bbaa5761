#!/usr/bin/env python3
"""Build the feedback saddle strategies for a separated game, pit them
against the challenger roster under common random numbers, and compare the
Monte Carlo value to the PDE value.

Usage: python scripts/run_game_experiment.py [--config configs/g1_game_2x2.json] [--paths N]
"""

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from switchgame import game as gm
from switchgame.config import load_config
from switchgame.grid import build_grid
from switchgame.simulate import simulate_paths
from switchgame.solver import decomposition_check, solve_minmax, solve_single_obstacle


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", default="configs/g1_game_2x2.json")
    parser.add_argument("--paths", type=int, default=None)
    args = parser.parse_args()

    cfg = load_config(args.config)
    sim = cfg.sim
    if args.paths:
        sim = dataclasses.replace(sim, n_paths=args.paths)
    grid = build_grid(cfg.spec, cfg.nt, cfg.nx)
    field1, field2 = solve_single_obstacle(cfg.spec, grid)
    bundle = simulate_paths(cfg.spec, sim)
    i0, j0 = cfg.start_modes

    report = gm.verify_saddle_from_fields(
        cfg.spec, bundle, field1, field2,
        gm.default_challengers(cfg.spec, 1, i0, sim.seed + 1, sim.n_steps),
        gm.default_challengers(cfg.spec, 2, j0, sim.seed + 2, sim.n_steps),
        start=(sim.t0, sim.x0, i0, j0),
    )

    print(f"paths = {bundle.n_paths}, steps = {bundle.n_steps}, seed = {sim.seed}")
    print(f"J(saddle, saddle) = {report.saddle_mean:.5f} +/- {report.saddle_stderr:.5f}")
    print(f"PDE value v({i0},{j0})(0, {sim.x0}) = {report.pde_value:.5f} "
          f"(gap {report.pde_gap:.5f}, tolerance {report.pde_tolerance:.5f})")
    for side, entries in (("player 1", report.challenger1), ("player 2", report.challenger2)):
        for entry in entries:
            print(f"  {side} challenger {entry['name']:>16}: margin {entry['mean_difference']:+.5f} "
                  f"(stderr {entry['stderr']:.5f}) {'ok' if entry['passed'] else 'VIOLATED'}")
    coupled, _ = solve_minmax(cfg.spec, grid, cfg.schedule)
    gap = decomposition_check(coupled, field1, field2)
    print(f"decomposition gap (coupled vs per-player sum): {gap:.5f}")
    print("saddle verified" if report.all_passed() else "SADDLE CHECK FAILED")


if __name__ == "__main__":
    main()
