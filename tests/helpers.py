"""Shared spec builders and independent reference oracles for the tests."""

from __future__ import annotations

import ctypes
import math
import random

import numpy as np
from hypothesis import strategies as st

from switchgame import grid
from switchgame.expressions import EvalContext, evaluate
from switchgame.expressions import parse_expression as pe
from switchgame.game import _continuation, _oracle_tables, _require_frozen
from switchgame.model import (
    DiffusionCoefficients,
    DriverTable,
    ModeSets,
    ProblemSpec,
    SwitchCostTable,
    TerminalTable,
    ceiling,
    cost_arrays,
    floor,
)
from switchgame.solver import PenaltySchedule, ValueField, _clamp_pass, _LevelCache


def build_spec(
    modes1=(1, 2),
    modes2=(1, 2),
    costs1=None,
    costs2=None,
    drivers=None,
    terminals=None,
    drift="0",
    volatility="0",
    horizon=1.0,
    domain=(-1.0, 1.0),
):
    """Assemble a ProblemSpec from expression strings (constants by default)."""
    modes = ModeSets(tuple(modes1), tuple(modes2))
    costs1 = costs1 or {}
    costs2 = costs2 or {}
    c1 = {k: pe(str(v)) for k, v in costs1.items()}
    c2 = {k: pe(str(v)) for k, v in costs2.items()}
    drivers = drivers or {p: "0" for p in modes.pairs}
    terminals = terminals or {p: "0" for p in modes.pairs}
    return ProblemSpec(
        modes=modes,
        costs=SwitchCostTable.full(modes, c1, c2),
        drivers=DriverTable({p: pe(str(s)) for p, s in drivers.items()}),
        terminals=TerminalTable({p: pe(str(s)) for p, s in terminals.items()}),
        diffusion=DiffusionCoefficients(pe(str(drift)), pe(str(volatility))),
        horizon=horizon,
        domain=domain,
    )


def gtsv_reporting(info_of):
    """A stand-in for grid.dgtsv, called as LAPACK's gtsv on addresses:
    ``info_of(d)``, given the main diagonal of the row about to be solved,
    returns the INFO to report for it without solving, or None to solve it
    with the real gtsv."""
    real = grid.dgtsv

    def gtsv(n, nrhs, dl, d, du, b, ldb, info):
        size = ctypes.c_int64.from_address(n).value
        reported = info_of(np.ctypeslib.as_array((ctypes.c_double * size).from_address(d)))
        if reported is None:
            real(n, nrhs, dl, d, du, b, ldb, info)
        else:
            ctypes.c_int64.from_address(info).value = reported

    return gtsv


def uniform_costs(modes1, modes2, c1, c2):
    costs1 = {(a, b): c1 for a in modes1 for b in modes1 if a != b}
    costs2 = {(a, b): c2 for a in modes2 for b in modes2 if a != b}
    return costs1, costs2


@st.composite
def generated_specs(draw):
    """1-3 modes per player, one uniform switching cost per player, affine
    drivers, one quadratic terminal shared by every pair (so terminal
    consistency holds) and a constant volatility."""
    def number(lo, hi):
        return draw(st.floats(lo, hi).map(lambda v: round(v, 3)))

    modes1 = tuple(range(1, draw(st.integers(1, 3)) + 1))
    modes2 = tuple(range(1, draw(st.integers(1, 3)) + 1))
    costs1, costs2 = uniform_costs(modes1, modes2, number(0.02, 0.5), number(0.02, 0.5))
    drivers = {(i, j): f"({number(-1, 1)}) + ({number(-1, 1)})*x"
               for i in modes1 for j in modes2}
    terminal = f"{number(0, 1)}*x^2 + ({number(-1, 1)})*x"
    return build_spec(modes1=modes1, modes2=modes2, costs1=costs1, costs2=costs2,
                      drivers=drivers, terminals={p: terminal for p in drivers},
                      volatility=number(0.1, 1), domain=(-2.0, 2.0))


def seeded_spec(seed):
    """A reproducible spec and grid size (spec, nt, nx) drawn from ``seed``:
    1-3 modes per player, switching costs in t and x, drivers in t and x, a
    mean-reverting drift and one quadratic terminal shared by every pair,
    with nt and nx in [11, 25].

    Each player's costs lie in [c, 1.5 c] for one base c, so the triangle
    inequality holds strictly, and the shared terminal is consistent.
    """
    rng = random.Random(seed)  # its stream is stable across Python versions

    def number(lo, hi):
        return round(rng.uniform(lo, hi), 3)

    modes1, modes2 = (tuple(range(1, rng.randint(1, 3) + 1)) for _ in range(2))

    def costs(modes):
        base = number(0.03, 0.3)
        return {(a, b): f"{base}*(1.25 + 0.25*sin({number(0.5, 3)}*x + {number(0, 3)}*t))"
                for a in modes for b in modes if a != b}

    drivers = {(i, j): f"({number(-1, 1)}) + ({number(-1, 1)})*x"
                       f" + ({number(-1, 1)})*t*sin(x)"
               for i in modes1 for j in modes2}
    terminal = f"{number(0, 1)}*x^2 + ({number(-1, 1)})*x"
    spec = build_spec(modes1=modes1, modes2=modes2, costs1=costs(modes1), costs2=costs(modes2),
                      drivers=drivers, terminals={p: terminal for p in drivers},
                      drift=f"{number(0, 1)}*({number(-1, 1)} - x)",
                      volatility=number(0.2, 1), domain=(-2.0, 2.0))
    return spec, rng.randint(11, 25), rng.randint(11, 25)


def heat_spec(nx_domain=(-4.0, 4.0)):
    """Single mode pair, pure diffusion, quadratic terminal."""
    return build_spec(
        modes1=(1,), modes2=(1,),
        drivers={(1, 1): "0"}, terminals={(1, 1): "x^2"},
        drift="0", volatility="1", horizon=1.0, domain=nx_domain,
    )


def frozen_diag_spec(c1=0.25, c2=0.45):
    """2x2 matching-reward game on frozen dynamics; loop-valid costs."""
    costs1, costs2 = uniform_costs((1, 2), (1, 2), c1, c2)
    return build_spec(
        costs1=costs1, costs2=costs2,
        drivers={(1, 1): "1", (1, 2): "0", (2, 1): "0", (2, 2): "1"},
    )


def bilevel_tree_value(spec, nt, x, start, outer, memo=False):
    """Independent game-tree oracle for frozen dynamics.

    Recursively folds the full tree of joint one-switch-per-step actions
    (every root-to-leaf path is one joint switch schedule).  outer == "p1":
    player 1 commits first each step, player 2 responds; outer == "p2" the
    reverse.  With memo=False the fold literally enumerates all
    (|modes1|*|modes2|)^(nt-1) schedules, as numpy arrays over the nodes of
    each depth; with memo=True it recurses over (mode pair, step) states.
    """
    times = np.linspace(0.0, spec.horizon, nt)
    dt = float(times[1] - times[0])
    m1, m2 = spec.modes.modes1, spec.modes.modes2
    f = {
        (i, j, k): float(evaluate(spec.drivers.f[(i, j)], EvalContext(float(times[k]), x))) * dt
        for (i, j) in spec.modes.pairs for k in range(nt - 1)
    }
    g1 = {
        (a, b, k): float(evaluate(spec.costs.costs1[(a, b)], EvalContext(float(times[k]), x)))
        for a in m1 for b in m1 for k in range(nt - 1)
    }
    g2 = {
        (a, b, k): float(evaluate(spec.costs.costs2[(a, b)], EvalContext(float(times[k]), x)))
        for a in m2 for b in m2 for k in range(nt - 1)
    }
    h = {
        (i, j): float(evaluate(spec.terminals.h[(i, j)], EvalContext(spec.horizon, x)))
        for (i, j) in spec.modes.pairs
    }

    if not memo:
        return _every_schedule_value(spec, nt, start, outer, f, g1, g2, h)

    cache: dict = {}

    def rec(i, j, k):
        if k == nt - 1:
            return h[(i, j)]
        if memo and (i, j, k) in cache:
            return cache[(i, j, k)]
        if outer == "p1":
            best = -math.inf
            for a1 in m1:
                inner = math.inf
                for a2 in m2:
                    val = -g1[(i, a1, k)] + g2[(j, a2, k)] + f[(a1, a2, k)] + rec(a1, a2, k + 1)
                    inner = min(inner, val)
                best = max(best, inner)
        else:
            best = math.inf
            for a2 in m2:
                inner = -math.inf
                for a1 in m1:
                    val = -g1[(i, a1, k)] + g2[(j, a2, k)] + f[(a1, a2, k)] + rec(a1, a2, k + 1)
                    inner = max(inner, val)
                best = min(best, inner)
        if memo:
            cache[(i, j, k)] = best
        return best

    i, j = start
    return rec(i, j, 0)


def _every_schedule_value(spec, nt, start, outer, f, g1, g2, h):
    """bilevel_tree_value's fold over every node of the schedule tree, one
    depth at a time, leaves first.

    A node at depth k is a prefix of k joint actions, numbered in base
    n1 * n2 with the last action as its lowest digit, and its state is its
    last action (the start at the root).  Each value is the recursion's
    ((-g1 + g2) + f) + (child value), and the folds are exact, so the result
    is the recursion's bit for bit.
    """
    m1, m2 = spec.modes.modes1, spec.modes.modes2
    n1, n2 = len(m1), len(m2)
    joint = n1 * n2
    # values[node, a1, a2]: the children of each node at the depth below
    values = np.tile(np.array([[h[(a1, a2)] for a2 in m2] for a1 in m1]), (joint ** (nt - 2), 1, 1))
    for k in range(nt - 2, -1, -1):
        # step[(i, j), a1, a2] = (-g1 + g2) + f from state (i, j) at step k
        step = np.array([[[(-g1[(i, a1, k)] + g2[(j, a2, k)]) + f[(a1, a2, k)] for a2 in m2]
                          for a1 in m1] for i in m1 for j in m2])
        if k == 0:
            step = step[m1.index(start[0]) * n2 + m2.index(start[1])]
        else:
            values = values.reshape(-1, joint, n1, n2)
        vals = step + values
        if outer == "p1":
            values = vals.min(axis=-1).max(axis=-1)
        else:
            values = vals.max(axis=-2).min(axis=-1)
        if k:
            values = values.reshape(-1, n1, n2)
    return float(values[0])


def single_player_schedule_oracle(spec, nt, x, player, start_mode, max_switches=3):
    """Exhaustive one-player value on frozen dynamics: enumerate every
    switch schedule (times x target sequences) and take the best payoff."""
    from itertools import combinations, product

    times = np.linspace(0.0, spec.horizon, nt)
    dt = float(times[1] - times[0])
    modes = spec.modes.modes1 if player == 1 else spec.modes.modes2
    table = spec.costs.costs1 if player == 1 else spec.costs.costs2
    sign = 1.0 if player == 1 else -1.0

    # separated reward components relative to the anchor mode of the other player
    anchor2 = spec.modes.modes2[0]
    anchor1 = spec.modes.modes1[0]

    def reward(mode, k):
        if player == 1:
            return float(evaluate(spec.drivers.f[(mode, anchor2)], EvalContext(float(times[k]), x)))
        return float(
            evaluate(spec.drivers.f[(anchor1, mode)], EvalContext(float(times[k]), x))
            - evaluate(spec.drivers.f[(anchor1, anchor2)], EvalContext(float(times[k]), x))
        )

    def terminal(mode):
        if player == 1:
            return float(evaluate(spec.terminals.h[(mode, anchor2)], EvalContext(spec.horizon, x)))
        return float(
            evaluate(spec.terminals.h[(anchor1, mode)], EvalContext(spec.horizon, x))
            - evaluate(spec.terminals.h[(anchor1, anchor2)], EvalContext(spec.horizon, x))
        )

    best = None
    for n_sw in range(max_switches + 1):
        for steps in combinations(range(nt - 1), n_sw):
            for targets in product(modes, repeat=n_sw):
                mode = start_mode
                ok = True
                for tgt in targets:
                    if tgt == mode:
                        ok = False
                        break
                    mode = tgt
                if not ok:
                    continue
                mode = start_mode
                total = 0.0
                sw = dict(zip(steps, targets))
                for k in range(nt - 1):
                    if k in sw:
                        ctx = EvalContext(float(times[k]), x)
                        cost = float(evaluate(table[(mode, sw[k])], ctx))
                        total -= sign * cost
                        mode = sw[k]
                    total += reward(mode, k) * dt
                total += terminal(mode)
                value = total if player == 1 else total
                if best is None:
                    best = value
                elif player == 1:
                    best = max(best, value)
                else:
                    best = min(best, value)
    return best


def prefix_ladder(solve, spec, grid, schedule):
    """Each pass of a penalty ladder as a field: pass p is the last field of
    the ladder of the first p + 1 levels, which is what the full ladder's
    pass p is (a pass does not see the passes after it)."""
    return [solve(spec, grid, PenaltySchedule(schedule.levels[:p + 1],
                                              schedule.fixed_point_tol))[0]
            for p in range(len(schedule.levels))]


def solve_clamped(spec, grid, order="minmax"):
    """Direct double-obstacle cross-check: plain implicit step, then clamp.

    order == "minmax" applies v := max(min(v_step, ceiling), floor);
    order == "maxmin" applies v := min(max(v_step, floor), ceiling).
    Clamps are swept Gauss-Seidel to a fixed point at each level.
    """
    cache = _LevelCache(spec, grid)
    v = _clamp_pass(cache, lambda data: (data.f, data.g1, data.g2), cache.terminal,
                    floor_last=order == "minmax")
    return ValueField(system=f"clamped_{order}", mode_labels=spec.modes.pairs,
                      values=v.reshape(-1, grid.nt, grid.nx), grid=grid, penalty=None)


def oracle_optimal_strategies(spec, nt, x, start, variant="minmax"):
    """Extract the oracle's own-play schedules by walking the value tables.

    At each level the clamp that binds dictates the switch: a binding floor
    is a player-1 declaration, a binding ceiling a player-2 declaration
    (chains within one level are followed through the fixed point).
    Returns (schedule1, schedule2, value at the start pair).
    """
    _require_frozen(spec, x)
    levels = _oracle_tables(spec, nt, x, variant)
    times = np.linspace(0.0, spec.horizon, nt)
    modes1, modes2 = spec.modes.modes1, spec.modes.modes2
    a, b = modes1.index(start[0]), modes2.index(start[1])
    start_value = float(levels[0, a, b])
    sched1, sched2 = [], []
    tol = 1e-11
    for k in range(nt - 1):
        values = levels[k]
        g1, g2 = cost_arrays(spec, EvalContext(float(times[k]), x))
        for _ in range(len(modes1) + len(modes2) + 2):
            cont = _continuation(levels, spec, times, k, a, b, x)
            # a binding obstacle's targets are the candidates the value sits on
            if values[a, b] > cont + tol:
                cands, labels, sched = floor(values, g1, (a, b), each=True), modes1, sched1
            elif values[a, b] < cont - tol:
                cands, labels, sched = ceiling(values, g2, (a, b), each=True), modes2, sched2
            else:
                break
            hits = np.flatnonzero(np.abs(values[a, b] - cands) <= tol)
            if hits.size == 0:
                break
            m = min(hits, key=labels.__getitem__)
            sched.append((k, labels[m]))
            a, b = (m, b) if sched is sched1 else (a, m)
    return sched1, sched2, start_value
