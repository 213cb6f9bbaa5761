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


def _need(doc: dict, key: str, where: str, default=None):
    """doc[key]; ``default`` instead when the key is absent and a default is given."""
    if key in doc:
        return doc[key]
    if default is None:
        raise ConfigError(where, f"missing required key {key!r}")
    return default


def _section(doc: dict, key: str, where: str, required: bool = True) -> dict:
    """The JSON object under ``key``; an optional section defaults to {}."""
    if key not in doc and not required:
        return {}
    section = _need(doc, key, where)
    if not isinstance(section, dict):
        raise ConfigError(f"{where}.{key}", "must be a JSON object")
    return section


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> float:
    """A JSON number as a float; nan for a string, a bool or an integer
    beyond the float range."""
    try:
        return float(value) if _is_int(value) or isinstance(value, float) else math.nan
    except OverflowError:
        return math.nan


def _finite(doc: dict, key: str, where: str, default=None) -> float:
    """The JSON number under ``key`` as a finite float."""
    number = _number(_need(doc, key, where, default))
    if not math.isfinite(number):
        raise ConfigError(f"{where}.{key}", "must be a finite number")
    return number


def _integer(doc: dict, key: str, where: str, minimum: int, default=None) -> int:
    """The JSON integer under ``key``, at least ``minimum``; a fraction, a
    bool or an infinity is not one."""
    value = _need(doc, key, where, default)
    if not _is_int(value):
        raise ConfigError(f"{where}.{key}", "must be an integer")
    if value < minimum:
        raise ConfigError(f"{where}.{key}", f"must be at least {minimum}")
    return value


def _parse_expr(text, where: str):
    if not isinstance(text, str):
        raise ConfigError(where, "expression must be a string")
    try:
        return parse_expression(text)
    except ExpressionSyntaxError as exc:
        raise ConfigError(where, str(exc)) from exc


def _mode_list(raw, where: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or not raw or not all(_is_int(m) for m in raw):
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


def _start_mode(start: dict, key: str, labels: tuple[int, ...], where: str) -> int:
    """The start mode under ``key``, the player's first mode by default."""
    mode = _need(start, key, where, labels[0])
    if not _is_int(mode) or mode not in labels:
        raise ConfigError(f"{where}.{key}", f"must be one of the mode labels {list(labels)}")
    return mode


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

    horizon = _finite(doc, "horizon", where)
    if horizon <= 0:
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
            horizon=horizon,
            domain=domain,
        )
    except SpecificationError as exc:
        raise ConfigError(where, str(exc)) from exc

    grid_doc = _section(doc, "grid", where)
    nt = _integer(grid_doc, "nt", f"{where}.grid", 2)
    nx = _integer(grid_doc, "nx", f"{where}.grid", 3)

    pen_doc = _section(doc, "penalties", where, required=False)
    levels = _need(pen_doc, "levels", f"{where}.penalties", [1.0, 4.0, 16.0, 64.0, 256.0])
    if not isinstance(levels, list) or not all(math.isfinite(_number(m)) for m in levels):
        raise ConfigError(f"{where}.penalties.levels", "must be a list of finite numbers")
    levels = tuple(float(m) for m in levels)
    fixed_point_tol = _finite(pen_doc, "fixed_point_tol", f"{where}.penalties", 1e-10)
    if fixed_point_tol <= 0:
        raise ConfigError(f"{where}.penalties.fixed_point_tol", "must be a positive finite number")
    max_iterations = _integer(pen_doc, "max_iterations", f"{where}.penalties", 1, 500)
    try:
        schedule = PenaltySchedule(levels=levels, fixed_point_tol=fixed_point_tol,
                                   max_iterations=max_iterations,
                                   penalizer=pen_doc.get("penalizer", "sum"))
    except ValueError as exc:
        raise ConfigError(f"{where}.penalties", str(exc)) from exc

    sim = None
    start_modes = None
    if "simulation" in doc:
        at = f"{where}.simulation"
        sim_doc = _section(doc, "simulation", where)
        start = _section(sim_doc, "start", at, required=False)
        # the challengers draw from seed + 1 and seed + 2, and Philox keys
        # lie in [0, 2**128)
        seed = _integer(sim_doc, "seed", at, 0)
        if seed + 2 >= 2**128:
            raise ConfigError(f"{at}.seed", "must be below 2**128 - 2")
        antithetic = _need(sim_doc, "antithetic", at, False)
        if not isinstance(antithetic, bool):
            raise ConfigError(f"{at}.antithetic", "must be true or false")
        t0 = _finite(start, "t", f"{at}.start", 0.0)
        if not 0.0 <= t0 < spec.horizon:
            raise ConfigError(f"{at}.start.t", "must lie in [0, horizon)")
        x0 = _finite(start, "x", f"{at}.start", 0.0)
        if not domain[0] <= x0 <= domain[1]:
            raise ConfigError(f"{at}.start.x", f"must lie in the domain {list(domain)}")
        sim = SimParams(n_paths=_integer(sim_doc, "paths", at, 1),
                        n_steps=_integer(sim_doc, "steps", at, 1),
                        seed=seed, t0=t0, x0=x0, antithetic=antithetic)
        start_modes = tuple(
            _start_mode(start, key, labels, f"{at}.start")
            for key, labels in (("mode1", modes.modes1), ("mode2", modes.modes2)))

    val_doc = _section(doc, "validation", where, required=False)
    at = f"{where}.validation"
    validation = ValidationParams(
        t_samples=_integer(val_doc, "t_samples", at, 1, 5),
        x_samples=_integer(val_doc, "x_samples", at, 1, 21),
        # the shortest switching loop has 2 steps
        loop_length_bound=(None if val_doc.get("loop_length_bound") is None
                           else _integer(val_doc, "loop_length_bound", at, 2)),
    )

    output = _need(doc, "output", where)
    if not isinstance(output, str):
        raise ConfigError(f"{where}.output", "must be a directory path string")

    return RunConfig(
        spec=spec, nt=nt, nx=nx, schedule=schedule, sim=sim,
        start_modes=start_modes, validation=validation, output=output,
    )
