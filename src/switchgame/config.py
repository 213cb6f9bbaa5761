"""Run configuration: a single JSON document per run.

Schema (sections):

    modes       {"player1": [int...], "player2": [int...]}
    costs       {"player1": {"i->k": expr}, "player2": {"j->l": expr}}
    drivers     {"i,j": expr}           running rewards f(t, x)
    terminals   {"i,j": expr}           terminal rewards h(x)
    diffusion   {"drift": expr, "volatility": expr}
    horizon     float > 0
    domain      {"min": float, "max": float}
    grid        {"nt": int, "nx": int}
    penalties   {"levels": [..], "fixed_point_tol": float,
                 "max_iterations": int, "penalizer": "sum"|"max"}   (optional)
    simulation  {"paths": int, "steps": int, "seed": int,
                 "start": {"t":, "x":, "mode1":, "mode2":},
                 "antithetic": bool}                                 (optional)
    validation  {"t_samples": int, "x_samples": int,
                 "loop_length_bound": int|null}                      (optional)
    output      directory path

Expressions use the closed grammar of switchgame.expressions.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

from .errors import ConfigError, ExpressionSyntaxError, SpecificationError
from .expressions import parse_expression
from .model import (
    DiffusionCoefficients,
    DriverTable,
    ModeSets,
    ProblemSpec,
    SwitchCostTable,
    TerminalTable,
)
from .simulate import SimParams
from .solver import PenaltySchedule


@dataclass(frozen=True)
class ValidationParams:
    t_samples: int = 5
    x_samples: int = 21
    loop_length_bound: int | None = None


@dataclass(frozen=True)
class RunConfig:
    spec: ProblemSpec
    nt: int
    nx: int
    schedule: PenaltySchedule
    sim: SimParams | None
    start_modes: tuple[int, int] | None
    validation: ValidationParams
    output: str

    def samples(self) -> list[tuple[float, float]]:
        """(t, x) lattice used by the validators."""
        nt, nx = self.validation.t_samples, self.validation.x_samples
        T = self.spec.horizon
        lo, hi = self.spec.domain
        ts = [T * k / (nt - 1) if nt > 1 else 0.0 for k in range(nt)]
        xs = [lo + (hi - lo) * k / (nx - 1) if nx > 1 else lo for k in range(nx)]
        return [(t, x) for t in ts for x in xs]


def _need(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(where, f"missing required key {key!r}")
    return doc[key]


def _section(doc: dict, key: str, where: str, required: bool = True) -> dict:
    """The JSON object under ``key``; an optional section defaults to {}."""
    if key not in doc and not required:
        return {}
    section = _need(doc, key, where)
    if not isinstance(section, dict):
        raise ConfigError(f"{where}.{key}", "must be a JSON object")
    return section


def _finite(doc: dict, key: str, where: str) -> float:
    """The number under ``key`` as a finite float."""
    try:
        value = float(_need(doc, key, where))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}.{key}", "must be a finite number") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{where}.{key}", "must be a finite number")
    return value


def _parse_expr(text, where: str):
    if not isinstance(text, str):
        raise ConfigError(where, "expression must be a string")
    try:
        return parse_expression(text)
    except ExpressionSyntaxError as exc:
        raise ConfigError(where, str(exc)) from exc


def _mode_list(raw, where: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or not raw or not all(
            isinstance(m, int) and not isinstance(m, bool) for m in raw):
        raise ConfigError(where, "must be a non-empty list of integers")
    if len(set(raw)) != len(raw):
        raise ConfigError(where, "mode labels must be distinct")
    return tuple(raw)


def _pair_key(key: str, where: str) -> tuple[int, int]:
    parts = key.split(",")
    if len(parts) != 2:
        raise ConfigError(where, f"key {key!r} must look like 'i,j'")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(where, f"key {key!r} must hold integers") from exc


def _transition_key(key: str, where: str) -> tuple[int, int]:
    parts = key.split("->")
    if len(parts) != 2:
        raise ConfigError(where, f"key {key!r} must look like 'a->b'")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(where, f"key {key!r} must hold integers") from exc


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(path, f"cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(path, "top level must be an object")
    return parse_config(doc, where=path)


def parse_config(doc: dict, where: str = "<config>") -> RunConfig:
    modes_doc = _section(doc, "modes", where)
    modes = ModeSets(
        modes1=_mode_list(_need(modes_doc, "player1", f"{where}.modes"), f"{where}.modes.player1"),
        modes2=_mode_list(_need(modes_doc, "player2", f"{where}.modes"), f"{where}.modes.player2"),
    )

    costs_doc = _section(doc, "costs", where)
    costs1 = {
        _transition_key(k, f"{where}.costs.player1"): _parse_expr(v, f"{where}.costs.player1.{k}")
        for k, v in _section(costs_doc, "player1", f"{where}.costs").items()
    }
    costs2 = {
        _transition_key(k, f"{where}.costs.player2"): _parse_expr(v, f"{where}.costs.player2.{k}")
        for k, v in _section(costs_doc, "player2", f"{where}.costs").items()
    }

    drivers = {
        _pair_key(k, f"{where}.drivers"): _parse_expr(v, f"{where}.drivers.{k}")
        for k, v in _section(doc, "drivers", where).items()
    }
    terminals = {
        _pair_key(k, f"{where}.terminals"): _parse_expr(v, f"{where}.terminals.{k}")
        for k, v in _section(doc, "terminals", where).items()
    }

    diff_doc = _section(doc, "diffusion", where)
    diffusion = DiffusionCoefficients(
        drift=_parse_expr(_need(diff_doc, "drift", f"{where}.diffusion"), f"{where}.diffusion.drift"),
        volatility=_parse_expr(
            _need(diff_doc, "volatility", f"{where}.diffusion"), f"{where}.diffusion.volatility"
        ),
    )

    horizon = _need(doc, "horizon", where)
    # an integer beyond the float range is not a finite float either
    if not isinstance(horizon, (int, float)) or not 0 < horizon <= sys.float_info.max:
        raise ConfigError(f"{where}.horizon", "must be a positive finite number")

    domain_doc = _section(doc, "domain", where)
    domain = tuple(_finite(domain_doc, key, f"{where}.domain") for key in ("min", "max"))

    try:
        spec = ProblemSpec(
            modes=modes,
            costs=SwitchCostTable.full(modes, costs1, costs2),
            drivers=DriverTable(drivers),
            terminals=TerminalTable(terminals),
            diffusion=diffusion,
            horizon=float(horizon),
            domain=domain,
        )
    except SpecificationError as exc:
        raise ConfigError(where, str(exc)) from exc

    grid_doc = _section(doc, "grid", where)
    try:
        nt, nx = int(grid_doc["nt"]), int(grid_doc["nx"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}.grid", "must carry integer 'nt' and 'nx'") from exc
    if nt < 2:
        raise ConfigError(f"{where}.grid.nt", "must be at least 2")
    if nx < 3:
        raise ConfigError(f"{where}.grid.nx", "must be at least 3")

    pen_doc = _section(doc, "penalties", where, required=False)
    try:
        levels = tuple(float(v) for v in pen_doc.get("levels", (1.0, 4.0, 16.0, 64.0, 256.0)))
        fixed_point_tol = float(pen_doc.get("fixed_point_tol", 1e-10))
        max_iterations = int(pen_doc.get("max_iterations", 500))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}.penalties", str(exc)) from exc
    if not all(math.isfinite(m) for m in levels):
        raise ConfigError(f"{where}.penalties.levels", "entries must be finite numbers")
    if not 0 < fixed_point_tol < math.inf:
        raise ConfigError(f"{where}.penalties.fixed_point_tol", "must be a positive finite number")
    if max_iterations < 1:
        raise ConfigError(f"{where}.penalties.max_iterations", "must be at least 1")
    try:
        schedule = PenaltySchedule(levels=levels, fixed_point_tol=fixed_point_tol,
                                   max_iterations=max_iterations,
                                   penalizer=pen_doc.get("penalizer", "sum"))
    except ValueError as exc:
        raise ConfigError(f"{where}.penalties", str(exc)) from exc

    sim = None
    start_modes = None
    if "simulation" in doc:
        sim_doc = _section(doc, "simulation", where)
        start = _section(sim_doc, "start", f"{where}.simulation", required=False)
        try:
            sim = SimParams(
                n_paths=int(_need(sim_doc, "paths", f"{where}.simulation")),
                n_steps=int(_need(sim_doc, "steps", f"{where}.simulation")),
                seed=int(_need(sim_doc, "seed", f"{where}.simulation")),
                t0=float(start.get("t", 0.0)),
                x0=float(start.get("x", 0.0)),
                antithetic=bool(sim_doc.get("antithetic", False)),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{where}.simulation", str(exc)) from exc
        if not 0.0 <= sim.t0 < spec.horizon:
            raise ConfigError(f"{where}.simulation.start.t", "must lie in [0, horizon)")
        if not math.isfinite(sim.x0):
            raise ConfigError(f"{where}.simulation.start.x", "must be a finite number")
        m1 = start.get("mode1", modes.modes1[0])
        m2 = start.get("mode2", modes.modes2[0])
        if m1 not in modes.modes1 or m2 not in modes.modes2:
            raise ConfigError(f"{where}.simulation.start", "start modes must belong to the mode sets")
        start_modes = (int(m1), int(m2))

    val_doc = _section(doc, "validation", where, required=False)
    try:
        validation = ValidationParams(
            t_samples=int(val_doc.get("t_samples", 5)),
            x_samples=int(val_doc.get("x_samples", 21)),
            loop_length_bound=(
                int(val_doc["loop_length_bound"])
                if val_doc.get("loop_length_bound") is not None else None
            ),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}.validation", str(exc)) from exc
    for key in ("t_samples", "x_samples"):
        if getattr(validation, key) < 1:
            raise ConfigError(f"{where}.validation.{key}", "must be at least 1")

    output = _need(doc, "output", where)
    if not isinstance(output, str):
        raise ConfigError(f"{where}.output", "must be a directory path string")

    return RunConfig(
        spec=spec, nt=nt, nx=nx, schedule=schedule, sim=sim,
        start_modes=start_modes, validation=validation, output=output,
    )
