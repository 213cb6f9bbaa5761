"""Batch front door: validate / solve / game / oracle, one JSON config per run.

Exit codes: 0 success, 1 domain failure (failed assumption, non-convergence,
unmet precondition), 2 usage or parse error or an output directory that
cannot be made.  All persisted outputs are byte-reproducible for a fixed
config and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import multiprocessing
import os
import sys
import traceback
import warnings

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError, ConvergenceError, PreconditionError, SwitchgameError
from .grid import Grid, build_grid
from .model import AssumptionReport, run_all_checks, validate_consistency, validate_costs
from .simulate import simulate_paths
from .solver import csv_rows, solve_maxmin, solve_minmax, solve_single_obstacle
from . import game as game_mod


def _write_json(path, payload: dict):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_validate(config: RunConfig) -> int:
    out = config.output
    report = run_all_checks(config.spec, config.samples())
    _write_json(os.path.join(out, "validate_report.json"), report.to_dict())
    return 0 if report.all_passed() else 1


def _core_checks_pass(config: RunConfig) -> tuple[bool, dict]:
    samples = config.samples()
    report = AssumptionReport({
        **validate_costs(config.spec, samples).checks,
        **validate_consistency(config.spec, sorted({x for _, x in samples})).checks,
    })
    return report.all_passed(), report.to_dict()


def _solve(name: str, config: RunConfig, grid: Grid):
    solver = solve_minmax if name == "minmax" else solve_maxmin
    fld, report = solver(config.spec, grid, config.schedule)
    # only the last level's field is written; let the others go
    report.sweep_fields.clear()
    return fld, report


def _write_field(out: str, name: str, fld) -> None:
    fld.to_csv(os.path.join(out, f"value_{name}.csv"))
    _write_json(os.path.join(out, f"value_{name}_meta.json"), fld.meta_dict())


def _not_converged(out: str, exc: ConvergenceError) -> int:
    _write_json(os.path.join(out, "solve_error.json"),
                {"error": str(exc), "residual": exc.residual})
    print(f"solver did not converge: {exc}", file=sys.stderr)
    return 1


def cmd_solve(config: RunConfig, system: str) -> int:
    out = config.output
    ok, gate = _core_checks_pass(config)
    if not ok:
        _write_json(os.path.join(out, "solve_gate_report.json"), gate)
        print("cost/consistency checks failed; see solve_gate_report.json", file=sys.stderr)
        return 1
    grid = build_grid(config.spec, config.nt, config.nx)
    if system == "both":
        return _solve_both(config, grid)
    try:
        fld, report = _solve(system, config, grid)
    except ConvergenceError as exc:
        return _not_converged(out, exc)
    _write_field(out, system, fld)
    _write_json(os.path.join(out, f"solve_report_{system}.json"), report.to_dict())
    return 0


class _ChildTraceback(Exception):
    """The traceback of an exception raised in the max-min child, as text:
    a pickled exception does not carry its own."""

    def __str__(self) -> str:
        return "raised in the max-min child process:\n" + self.args[0]


def _maxmin_child(config: RunConfig, grid: Grid, to_parent, from_child) -> None:
    """The forked half of ``_solve_both``: send the max-min field and report,
    or the exception raised on the way and its traceback."""
    from_child.close()  # so that a send to a parent that is gone fails, not blocks
    try:
        message = (None, _solve("maxmin", config, grid))
    except Exception as exc:
        message = (exc, traceback.format_exc())
    to_parent.send(message)


def _from_child(child, conn):
    """The child's field and report; an exception it sent, or its death, is
    raised here."""
    try:
        exc, payload = conn.recv()
    except EOFError:
        child.join()
        raise ChildProcessError(
            f"the max-min solve process exited with code {child.exitcode}") from None
    if exc is not None:
        raise exc from _ChildTraceback(payload)
    return payload


def _solve_both(config: RunConfig, grid: Grid) -> int:
    """Both schemes at once: a forked child solves max-min while this
    process solves min-max.  The files, exit codes and errors are those of
    solving them one after the other: when either scheme fails, no value file
    is written and the min-max error comes first."""
    out = config.output
    # fork, not spawn: the child starts from this process's modules as they
    # are, without a fresh import, and its target is not pickled
    ctx = multiprocessing.get_context("fork")
    from_child, to_parent = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_maxmin_child, args=(config, grid, to_parent, from_child))
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork while other threads run, and
            # numpy's OpenBLAS keeps idle worker threads.  OpenBLAS shuts its
            # pool down before a fork (pthread_atfork), and the child runs
            # only the solver.
            warnings.filterwarnings("ignore", r".*fork\(\) may lead to deadlocks",
                                    DeprecationWarning)
            child.start()
        to_parent.close()
        try:
            fa, report_a = _solve("minmax", config, grid)
            fb, report_b = _from_child(child, from_child)
        except ConvergenceError as exc:
            return _not_converged(out, exc)
    finally:
        # past here the child has sent all it will: a live one is stopped
        if child.is_alive():
            child.kill()
        if child.pid is not None:
            child.join()
        from_child.close()
        to_parent.close()

    mask = grid.inner_mask()
    # max over the pairs of |minmax - maxmin| per (t, inner x); its max is sup_gap
    diff = np.max(np.abs(fa.values - fb.values), axis=0)[:, mask]
    for name, fld, report in (("minmax", fa, report_a), ("maxmin", fb, report_b)):
        _write_field(out, name, fld)
        report.final_gap = float(np.max(diff))
        _write_json(os.path.join(out, f"solve_report_{name}.json"), report.to_dict())
    x_texts = [repr(x) for x in grid.xs[mask].tolist()]
    with open(os.path.join(out, "gap_minmax_maxmin.csv"), "w", newline="") as handle:
        handle.write("t,x,gap\r\n")
        for t, row in zip(grid.times.tolist(), diff):
            handle.write(csv_rows(f"{t!r},", x_texts, row))
    return 0


def cmd_game(config: RunConfig) -> int:
    out = config.output
    grid = build_grid(config.spec, config.nt, config.nx)
    try:
        field1, field2 = solve_single_obstacle(config.spec, grid)
    except PreconditionError as exc:
        _write_json(os.path.join(out, "game_gate_report.json"),
                    {"error": str(exc), "witness": exc.witness})
        print(f"separation check failed: {exc}", file=sys.stderr)
        return 1

    bundle = simulate_paths(config.spec, config.sim)
    i0, j0 = config.start_modes
    challengers1 = game_mod.default_challengers(
        config.spec, 1, i0, config.sim.seed + 1, config.sim.n_steps)
    challengers2 = game_mod.default_challengers(
        config.spec, 2, j0, config.sim.seed + 2, config.sim.n_steps)
    report = game_mod.verify_saddle_from_fields(
        config.spec, bundle, field1, field2, challengers1, challengers2,
        start=(config.sim.t0, config.sim.x0, i0, j0),
    )
    _write_json(os.path.join(out, "game_report.json"), report.to_dict())

    _write_payoffs(os.path.join(out, "payoffs.csv"), report.saddle_payoff)
    return 0 if report.all_passed() else 1


def _write_payoffs(path, payoff: game_mod.PayoffEstimate) -> None:
    """payoffs.csv: path, payoff, switches1, switches2, costA, costB per path,
    as one block of csv.writer's rows."""
    cells = [f"{p},{v!r},{a},{b},{c!r}" for p, (v, a, b, c) in enumerate(zip(
        payoff.per_path.tolist(), payoff.switches1.tolist(), payoff.switches2.tolist(),
        payoff.cost1_per_path.tolist()))]
    with open(path, "w", newline="") as handle:
        handle.write("path,payoff,switches1,switches2,costA,costB\r\n")
        handle.write(csv_rows("", cells, payoff.cost2_per_path))


def cmd_oracle(config: RunConfig) -> int:
    out = config.output
    x0 = config.sim.x0 if config.sim is not None else 0.5 * sum(config.spec.domain)
    try:
        values = game_mod.deterministic_dp_oracle(config.spec, config.nt, x0)
    except PreconditionError as exc:
        _write_json(os.path.join(out, "oracle_report.json"), {"error": str(exc)})
        print(f"oracle precondition failed: {exc}", file=sys.stderr)
        return 1
    payload = {
        "x": x0,
        "nt": config.nt,
        "minmax": {f"{i},{j}": v for (i, j), v in values["minmax"].items()},
        "maxmin": {f"{i},{j}": v for (i, j), v in values["maxmin"].items()},
    }
    deltas = {}
    for name in ("minmax", "maxmin"):
        csv_path = os.path.join(out, f"value_{name}.csv")
        if os.path.exists(csv_path):
            solved = _read_solver_values(csv_path, x0)
            deltas[name] = {
                key: solved[key] - payload[name][key] for key in payload[name] if key in solved
            }
    if deltas:
        payload["solver_deltas"] = deltas
    _write_json(os.path.join(out, "oracle_report.json"), payload)
    return 0


def _read_solver_values(csv_path: str, x0: float) -> dict:
    """Value at the first time level, at the node nearest x0, per mode pair."""
    best: dict[str, tuple[float, float]] = {}
    with open(csv_path) as handle:
        for row in csv.DictReader(handle):
            if int(row["t_index"]) != 0:
                continue
            key = f"{row['i']},{row['j']}"
            dist = abs(float(row["x"]) - x0)
            if key not in best or dist < best[key][0]:
                best[key] = (dist, float(row["value"]))
    return {key: val for key, (_, val) in best.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="switchgame",
        description="Solve and verify two-player switching games on a 1-D state.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="run the assumption checks")
    p_validate.add_argument("config")

    p_solve = sub.add_parser("solve", help="run the penalized backward solvers")
    p_solve.add_argument("config")
    p_solve.add_argument("--system", choices=["minmax", "maxmin", "both"], default="both")

    p_game = sub.add_parser("game", help="build saddle strategies and verify them")
    p_game.add_argument("config")

    p_oracle = sub.add_parser("oracle", help="frozen-state backward-induction values")
    p_oracle.add_argument("config")

    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        try:
            os.makedirs(config.output, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"{args.config}.output", f"cannot make the directory: {exc}") from exc
        if args.command == "game" and config.sim is None:
            raise ConfigError(f"{args.config}.simulation",
                              "the game command needs a simulation section")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "validate":
            return cmd_validate(config)
        if args.command == "solve":
            return cmd_solve(config, args.system)
        if args.command == "game":
            return cmd_game(config)
        return cmd_oracle(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SwitchgameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():  # console script
    sys.exit(main())


if __name__ == "__main__":
    entry()
