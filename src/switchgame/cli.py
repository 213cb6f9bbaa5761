"""Batch front door: validate / solve / game / oracle, one JSON config per run.

Exit codes: 0 success, 1 domain failure (failed assumption, non-convergence,
unmet precondition), 2 usage or parse error or an output directory that
cannot be made.  All persisted outputs are byte-reproducible for a fixed
config and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import mmap
import multiprocessing
import os
import sys
import traceback
import warnings
from dataclasses import replace

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError, ConvergenceError, PreconditionError, SwitchgameError
from .grid import Grid, build_grid
from .model import (AssumptionReport, run_all_checks, sample_lattice, validate_consistency,
                    validate_costs)
from .simulate import simulate_paths
from .solver import csv_rows, gap_table, solve_maxmin, solve_minmax, solve_single_obstacle
from . import game as game_mod

PLAY_BLOCK = 5000  # paths that game simulates, realizes and prices at a time


def _write_json(path, payload: dict):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_validate(config: RunConfig) -> int:
    out = config.output
    report = run_all_checks(config.spec, sample_lattice(config.spec))
    _write_json(os.path.join(out, "validate_report.json"), report.to_dict())
    return 0 if report.all_passed() else 1


def _core_checks_pass(config: RunConfig) -> tuple[bool, dict]:
    samples = sample_lattice(config.spec)
    report = AssumptionReport({
        **validate_costs(config.spec, samples).checks,
        **validate_consistency(config.spec, sorted({x for _, x in samples})).checks,
    })
    return report.all_passed(), report.to_dict()


def _part_path(out: str, name: str) -> str:
    return os.path.join(out, f".value_{name}.csv.part")


def _solve(name: str, config: RunConfig, grid: Grid):
    """Solve one scheme and write its value CSV under a hidden temporary
    name in the output directory; ``_publish`` gives it its own name."""
    solver = solve_minmax if name == "minmax" else solve_maxmin
    fld, report = solver(config.spec, grid, config.schedule)
    fld.to_csv(_part_path(config.output, name))
    return fld, report


def _publish(out: str, name: str, fld) -> None:
    os.replace(_part_path(out, name), os.path.join(out, f"value_{name}.csv"))
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
    try:
        if system == "both":
            return _solve_both(config, grid)
        try:
            fld, report = _solve(system, config, grid)
        except ConvergenceError as exc:
            return _not_converged(out, exc)
        _publish(out, system, fld)
        _write_json(os.path.join(out, f"solve_report_{system}.json"), report.to_dict())
        return 0
    finally:
        # a value file reaches its own name whole or not at all; no process
        # writes here any more (_solve_both has joined its child)
        for name in ("minmax", "maxmin"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(_part_path(out, name))


class _ChildTraceback(Exception):
    """The traceback of an exception raised in a forked child, as text: a
    pickled exception does not carry its own."""

    def __str__(self) -> str:
        name, text = self.args
        return f"raised in the {name} child process:\n{text}"


def _child_main(work, to_parent, from_child) -> None:
    """The forked side of ``_forked``: send work's result, or the exception
    it raised and its traceback."""
    from_child.close()  # so that a send to a parent that is gone fails, not blocks
    try:
        message = (None, work())
    except Exception as exc:
        message = (exc, traceback.format_exc())
    to_parent.send(message)


def _from_child(child, conn, name: str):
    """The child's result; an exception it sent, or its death, is raised here."""
    try:
        exc, payload = conn.recv()
    except EOFError:
        child.join()
        raise ChildProcessError(
            f"the {name} child process exited with code {child.exitcode}") from None
    if exc is not None:
        raise exc from _ChildTraceback(name, payload)
    return payload


@contextlib.contextmanager
def _forked(work, name: str):
    """Run ``work()`` in a forked child while the ``with`` block runs here.

    Yields a function that waits for the child's one message and returns
    work's result.  An exception work raised is raised again there, with the
    child's traceback as its cause, and a child that dies raises
    ChildProcessError.  On leaving the block a child still alive is killed,
    since it has sent all it will or is not wanted, and it is joined and
    closed, with every pipe of the call.
    """
    # fork, not spawn: the child starts from this process's modules as they
    # are, without a fresh import, and its work is not pickled
    ctx = multiprocessing.get_context("fork")
    from_child, to_parent = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_main, args=(work, to_parent, from_child))
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork while other threads run, and
            # numpy's OpenBLAS keeps idle worker threads.  OpenBLAS shuts its
            # pool down before a fork (pthread_atfork), and the child runs
            # only numpy code of this package.
            warnings.filterwarnings("ignore", r".*fork\(\) may lead to deadlocks",
                                    DeprecationWarning)
            child.start()
        to_parent.close()
        yield lambda: _from_child(child, from_child, name)
    finally:
        if child.is_alive():
            child.kill()
        if child.pid is not None:
            child.join()
        child.close()  # else multiprocessing holds its sentinel pipe until the next fork
        from_child.close()
        to_parent.close()


def _solve_both(config: RunConfig, grid: Grid) -> int:
    """Both schemes at once: a forked child solves max-min while this
    process solves min-max, and each writes its own value file under a
    temporary name.  The child copies its field into a shared anonymous
    mapping made before the fork and sends only its report and the field's
    metadata, so the field is not pickled.  The files, exit codes and errors
    are those of solving the schemes one after the other: the value files
    are published only once both schemes have succeeded, and when either
    fails, no value file is written and the min-max error comes first."""
    out = config.output
    shape = (len(config.spec.modes.pairs), grid.nt, grid.nx)
    with mmap.mmap(-1, 8 * math.prod(shape)) as shared:
        def solve_maxmin_into_shared():
            fld, report = _solve("maxmin", config, grid)
            np.frombuffer(shared).reshape(shape)[...] = fld.values
            return replace(fld, values=None), report

        with _forked(solve_maxmin_into_shared, "max-min") as maxmin:
            try:
                fa, report_a = _solve("minmax", config, grid)
                fb, report_b = maxmin()
            except ConvergenceError as exc:
                return _not_converged(out, exc)
        diff = gap_table(fa, replace(fb, values=np.frombuffer(shared).reshape(shape)))

    _publish(out, "minmax", fa)
    _publish(out, "maxmin", fb)
    for name, report in (("minmax", report_a), ("maxmin", report_b)):
        report.final_gap = float(np.max(diff))
        _write_json(os.path.join(out, f"solve_report_{name}.json"), report.to_dict())
    x_texts = [repr(x) for x in grid.xs[grid.inner_mask()].tolist()]
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

    i0, j0 = config.start_modes
    start = (config.sim.t0, config.sim.x0, i0, j0)
    saddle1, saddle2, pde_value = game_mod.saddle_from_fields(field1, field2, start)
    challengers1 = game_mod.default_challengers(
        config.spec, 1, i0, config.sim.seed + 1, config.sim.n_steps)
    challengers2 = game_mod.default_challengers(
        config.spec, 2, j0, config.sim.seed + 2, config.sim.n_steps)

    def play(paths: range):
        bundle = simulate_paths(config.spec, config.sim, paths)
        saddle, *attempts = game_mod.roster_payoffs(config.spec, bundle, saddle1, saddle2,
                                                    challengers1, challengers2)
        # the report reads a challenger's payoff per path and nothing else of it
        return [saddle] + [game_mod.PayoffEstimate.of_paths(a.per_path) for a in attempts]

    payoffs = _play_halves(play, config.sim.n_paths)
    report = game_mod.saddle_report(payoffs, challengers1, challengers2, start, pde_value)
    _write_json(os.path.join(out, "game_report.json"), report.to_dict())

    _write_payoffs(os.path.join(out, "payoffs.csv"), report.saddle_payoff)
    return 0 if report.all_passed() else 1


def _play_blocks(play, paths: range) -> list:
    """``play`` on consecutive blocks of at most PLAY_BLOCK of the paths, in
    path order: only one block's bundle, tracks and tables are alive at a
    time."""
    return [play(paths[start:start + PLAY_BLOCK]) for start in range(0, len(paths), PLAY_BLOCK)]


def _play_halves(play, n_paths: int) -> list:
    """``play(range(n_paths))``, as ``play`` on blocks (``_play_blocks``)
    joined in path order.  When this process may run on two CPUs, a forked
    child plays the upper half's blocks while this process plays the lower
    half's.  When any block raises, all of them are discarded and
    ``play(range(n_paths))`` is called here as one unblocked call, so what
    is raised is what playing all paths in one process raises; a child that
    dies raises ChildProcessError."""
    half = n_paths // 2
    if half == 0 or len(os.sched_getaffinity(0)) < 2:
        with contextlib.suppress(Exception):
            return game_mod.join_payoffs(_play_blocks(play, range(n_paths)))
        return play(range(n_paths))
    with _forked(lambda: _play_blocks(play, range(half, n_paths)), "upper-half game") as upper:
        try:
            return game_mod.join_payoffs(_play_blocks(play, range(half)) + upper())
        except ChildProcessError:
            raise
        except Exception:
            pass
    return play(range(n_paths))


def _write_payoffs(path, payoff: game_mod.PayoffEstimate) -> None:
    """payoffs.csv: path, payoff, switches1, switches2, costA, costB per path,
    as csv.writer's rows (no number or float repr needs quoting), formatted
    and written PLAY_BLOCK paths at a time."""
    columns = (payoff.per_path, payoff.switches1, payoff.switches2,
               payoff.cost1_per_path, payoff.cost2_per_path)
    with open(path, "w", newline="") as handle:
        handle.write("path,payoff,switches1,switches2,costA,costB\r\n")
        for start in range(0, len(payoff.per_path), PLAY_BLOCK):
            stop = start + PLAY_BLOCK
            block = [column[start:stop].tolist() for column in columns]
            handle.write("".join([f"{p},{v!r},{a},{b},{c!r},{d!r}\r\n"
                                  for p, v, a, b, c, d in zip(range(start, stop), *block)]))


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
