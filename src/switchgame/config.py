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
    penalties   {"levels": [..], "fixed_point_tol": float}     (optional)
    simulation  {"paths": int, "steps": int, "seed": int,
                 "start": {"t":, "x":, "mode1":, "mode2":}}      (optional)
    output      directory path

A key outside this schema, and a pair or transition key that names an
undeclared mode, is an error at its location.  Expressions use the closed
grammar of switchgame.expressions.
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


# the (t, x) sampling lattice of the validators
T_SAMPLES = 5
X_SAMPLES = 21


@dataclass(frozen=True)
class RunConfig:
    spec: ProblemSpec
    nt: int
    nx: int
    schedule: PenaltySchedule
    sim: SimParams | None
    start_modes: tuple[int, int] | None
    output: str

    def samples(self) -> list[tuple[float, float]]:
        """(t, x) lattice used by the validators."""
        T = self.spec.horizon
        lo, hi = self.spec.domain
        ts = [T * k / (T_SAMPLES - 1) for k in range(T_SAMPLES)]
        xs = [lo + (hi - lo) * k / (X_SAMPLES - 1) for k in range(X_SAMPLES)]
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


def _known(doc: dict, keys: tuple[str, ...], where: str) -> dict:
    """``doc`` itself once every key in it is one of ``keys``."""
    for key in doc:
        if key not in keys:
            raise ConfigError(f"{where}.{key}", "unknown key")
    return doc


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


def _integer(doc: dict, key: str, where: str, minimum: int) -> int:
    """The JSON integer under ``key``, at least ``minimum``; a fraction, a
    bool or an infinity is not one."""
    value = _need(doc, key, where)
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


def _expr_table(doc: dict, sep: str, labels: tuple[tuple[int, ...], tuple[int, ...]],
                where: str) -> dict:
    """Expressions keyed 'a<sep>b' as {(a, b): tree}; a must be one of
    labels[0] and b one of labels[1]."""
    table = {}
    for key, text in doc.items():
        parts = key.split(sep)
        if len(parts) != 2:
            raise ConfigError(where, f"key {key!r} must look like 'a{sep}b'")
        try:
            pair = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ConfigError(where, f"key {key!r} must hold integers") from exc
        if any(m not in ms for m, ms in zip(pair, labels)):
            raise ConfigError(f"{where}.{key}", "names a mode that is not declared")
        table[pair] = _parse_expr(text, f"{where}.{key}")
    return table


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
    _known(doc, ("modes", "costs", "drivers", "terminals", "diffusion", "horizon", "domain",
                 "grid", "penalties", "simulation", "output"), where)
    players = ("player1", "player2")
    modes_doc = _known(_section(doc, "modes", where), players, f"{where}.modes")
    modes = ModeSets(
        modes1=_mode_list(_need(modes_doc, "player1", f"{where}.modes"), f"{where}.modes.player1"),
        modes2=_mode_list(_need(modes_doc, "player2", f"{where}.modes"), f"{where}.modes.player2"),
    )
    pair_labels = (modes.modes1, modes.modes2)

    costs_doc = _known(_section(doc, "costs", where), players, f"{where}.costs")
    costs1, costs2 = (
        _expr_table(_section(costs_doc, player, f"{where}.costs"), "->", (labels, labels),
                    f"{where}.costs.{player}")
        for player, labels in zip(players, pair_labels))
    drivers, terminals = (
        _expr_table(_section(doc, key, where), ",", pair_labels, f"{where}.{key}")
        for key in ("drivers", "terminals"))

    diff_doc = _known(_section(doc, "diffusion", where), ("drift", "volatility"),
                      f"{where}.diffusion")
    diffusion = DiffusionCoefficients(
        drift=_parse_expr(_need(diff_doc, "drift", f"{where}.diffusion"), f"{where}.diffusion.drift"),
        volatility=_parse_expr(
            _need(diff_doc, "volatility", f"{where}.diffusion"), f"{where}.diffusion.volatility"
        ),
    )

    horizon = _finite(doc, "horizon", where)
    if horizon <= 0:
        raise ConfigError(f"{where}.horizon", "must be a positive finite number")
    # the sample lattice of RunConfig.samples must not overflow
    if not math.isfinite(horizon * (T_SAMPLES - 1)):
        raise ConfigError(f"{where}.horizon", "is too large: the sample times overflow")

    domain_doc = _known(_section(doc, "domain", where), ("min", "max"), f"{where}.domain")
    domain = tuple(_finite(domain_doc, key, f"{where}.domain") for key in ("min", "max"))
    if not math.isfinite((domain[1] - domain[0]) * (X_SAMPLES - 1)):
        raise ConfigError(f"{where}.domain", "is too wide: the sample states overflow")

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

    grid_doc = _known(_section(doc, "grid", where), ("nt", "nx"), f"{where}.grid")
    nt = _integer(grid_doc, "nt", f"{where}.grid", 2)
    nx = _integer(grid_doc, "nx", f"{where}.grid", 3)

    pen_doc = _known(_section(doc, "penalties", where, required=False),
                     ("levels", "fixed_point_tol"), f"{where}.penalties")
    levels = _need(pen_doc, "levels", f"{where}.penalties", [1.0, 4.0, 16.0, 64.0, 256.0])
    if not isinstance(levels, list) or not all(math.isfinite(_number(m)) for m in levels):
        raise ConfigError(f"{where}.penalties.levels", "must be a list of finite numbers")
    levels = tuple(float(m) for m in levels)
    fixed_point_tol = _finite(pen_doc, "fixed_point_tol", f"{where}.penalties", 1e-10)
    if fixed_point_tol <= 0:
        raise ConfigError(f"{where}.penalties.fixed_point_tol", "must be a positive finite number")
    try:
        schedule = PenaltySchedule(levels=levels, fixed_point_tol=fixed_point_tol)
    except ValueError as exc:
        raise ConfigError(f"{where}.penalties", str(exc)) from exc

    sim = None
    start_modes = None
    if "simulation" in doc:
        at = f"{where}.simulation"
        sim_doc = _known(_section(doc, "simulation", where),
                         ("paths", "steps", "seed", "start"), at)
        start = _known(_section(sim_doc, "start", at, required=False),
                       ("t", "x", "mode1", "mode2"), f"{at}.start")
        # the challengers draw from seed + 1 and seed + 2, and Philox keys
        # lie in [0, 2**128)
        seed = _integer(sim_doc, "seed", at, 0)
        if seed + 2 >= 2**128:
            raise ConfigError(f"{at}.seed", "must be below 2**128 - 2")
        t0 = _finite(start, "t", f"{at}.start", 0.0)
        if not 0.0 <= t0 < spec.horizon:
            raise ConfigError(f"{at}.start.t", "must lie in [0, horizon)")
        x0 = _finite(start, "x", f"{at}.start", 0.0)
        if not domain[0] <= x0 <= domain[1]:
            raise ConfigError(f"{at}.start.x", f"must lie in the domain {list(domain)}")
        sim = SimParams(n_paths=_integer(sim_doc, "paths", at, 1),
                        n_steps=_integer(sim_doc, "steps", at, 1),
                        seed=seed, t0=t0, x0=x0)
        start_modes = tuple(
            _start_mode(start, key, labels, f"{at}.start")
            for key, labels in (("mode1", modes.modes1), ("mode2", modes.modes2)))

    output = _need(doc, "output", where)
    if not isinstance(output, str):
        raise ConfigError(f"{where}.output", "must be a directory path string")

    return RunConfig(
        spec=spec, nt=nt, nx=nx, schedule=schedule, sim=sim,
        start_modes=start_modes, output=output,
    )
