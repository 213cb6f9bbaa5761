"""Problem description for the two-player switching game and its validators.

A ProblemSpec bundles the mode sets of both players, the switching cost
tables, the running-reward drivers f^{ij}(t, x), the terminal rewards
h^{ij}(x), the diffusion coefficients b and sigma, the horizon and the
truncated state interval.  All types are immutable after construction and
every operation here is pure.

The validators are executable versions of the structural standing
assumptions: non-negative costs with no cost-free switching loop, terminal
rewards compatible with the switching obstacles at the horizon, a strict
triangle inequality for the player-2 costs, and (optionally) separability
of rewards across the two players.  Each check evaluates every expression
it needs once, as arrays over one fixed (t, x) lattice (sample_lattice);
exact verification for arbitrary expressions is undecidable, so a pass is
a statement about that lattice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Mapping

import numpy as np

from .errors import ConvergenceError, SpecificationError
from .expressions import ZERO, EvalContext, ExpressionTree, evaluate, free_variables

SEPARATION_TOL = 1e-12
# the (t, x) sampling lattice of the validators and of the separation gate
T_SAMPLES = 5
X_SAMPLES = 21


@dataclass(frozen=True)
class ModeSets:
    """Ordered mode sets for both players."""

    modes1: tuple[int, ...]
    modes2: tuple[int, ...]

    def __post_init__(self):
        if not self.modes1 or not self.modes2:
            raise SpecificationError("both mode sets must be non-empty")
        if len(set(self.modes1)) != len(self.modes1) or len(set(self.modes2)) != len(self.modes2):
            raise SpecificationError("mode labels must be distinct")

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i in self.modes1 for j in self.modes2)


@dataclass(frozen=True)
class SwitchCostTable:
    """Switching costs: costs1[i, k] to move player 1 from i to k, costs2[j, l]
    to move player 2 from j to l.  Diagonal entries are the zero expression."""

    costs1: Mapping[tuple[int, int], ExpressionTree]
    costs2: Mapping[tuple[int, int], ExpressionTree]

    @staticmethod
    def full(modes: ModeSets, costs1, costs2) -> "SwitchCostTable":
        """Build a table, filling zero diagonals and checking coverage."""
        out1, out2 = {}, {}
        for m, given, out in ((modes.modes1, costs1, out1), (modes.modes2, costs2, out2)):
            for a in m:
                for b in m:
                    if a == b:
                        if (a, b) in given and given[(a, b)] != ZERO:
                            raise SpecificationError(f"diagonal cost ({a},{b}) must be zero")
                        out[(a, b)] = ZERO
                    else:
                        if (a, b) not in given:
                            raise SpecificationError(f"missing switching cost ({a},{b})")
                        out[(a, b)] = given[(a, b)]
        return SwitchCostTable(out1, out2)


@dataclass(frozen=True)
class DriverTable:
    """Running reward rates f^{ij}(t, x); one entry per mode pair.

    By construction the drivers depend on (t, x) only, which is the
    restriction required for the game interpretation.
    """

    f: Mapping[tuple[int, int], ExpressionTree]

    def require_cover(self, modes: ModeSets):
        for pair in modes.pairs:
            if pair not in self.f:
                raise SpecificationError(f"missing driver for mode pair {pair}")
            extra = free_variables(self.f[pair]) - {"t", "x"}
            if extra:
                raise SpecificationError(f"driver {pair} uses unknown variables {extra}")


@dataclass(frozen=True)
class TerminalTable:
    """Terminal rewards h^{ij}(x); one entry per mode pair, x-only."""

    h: Mapping[tuple[int, int], ExpressionTree]

    def require_cover(self, modes: ModeSets):
        for pair in modes.pairs:
            if pair not in self.h:
                raise SpecificationError(f"missing terminal reward for mode pair {pair}")
            vars_ = free_variables(self.h[pair])
            if "t" in vars_:
                raise SpecificationError(f"terminal reward {pair} must not depend on t")


@dataclass(frozen=True)
class DiffusionCoefficients:
    """State dynamics: drift b(t, x) and volatility sigma(t, x)."""

    drift: ExpressionTree
    volatility: ExpressionTree


@dataclass(frozen=True)
class ProblemSpec:
    """Complete description of one switching game instance."""

    modes: ModeSets
    costs: SwitchCostTable
    drivers: DriverTable
    terminals: TerminalTable
    diffusion: DiffusionCoefficients
    horizon: float
    domain: tuple[float, float]

    def __post_init__(self):
        if not self.horizon > 0:
            raise SpecificationError("horizon must be positive")
        if not self.domain[0] < self.domain[1]:
            raise SpecificationError("domain must satisfy x_min < x_max")
        self.drivers.require_cover(self.modes)
        self.terminals.require_cover(self.modes)
        # cost coverage incl. zero diagonals
        for i in self.modes.modes1:
            for k in self.modes.modes1:
                if (i, k) not in self.costs.costs1:
                    raise SpecificationError(f"missing player-1 cost ({i},{k})")
        for j in self.modes.modes2:
            for l in self.modes.modes2:
                if (j, l) not in self.costs.costs2:
                    raise SpecificationError(f"missing player-2 cost ({j},{l})")


# ---------------------------------------------------------------------------
# Assumption reports
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    """One assumption check; it fails exactly when it has a witness."""

    name: str
    witnesses: list[dict] = field(default_factory=list)
    assumed: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.witnesses


@dataclass
class AssumptionReport:
    checks: dict[str, CheckResult]

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed(),
            "checks": {name: {**asdict(c), "passed": c.passed} for name, c in self.checks.items()},
        }


def sample_lattice(spec: ProblemSpec) -> EvalContext:
    """The (t, x) lattice at which the checks below evaluate a spec:
    T_SAMPLES times over [0, horizon] as a column by X_SAMPLES states over
    the domain as a row."""
    lo, hi = spec.domain
    ts = [spec.horizon * k / (T_SAMPLES - 1) for k in range(T_SAMPLES)]
    # the last state can round past hi
    xs = [min(lo + (hi - lo) * k / (X_SAMPLES - 1), hi) for k in range(X_SAMPLES)]
    return EvalContext(np.array(ts)[:, np.newaxis], np.array(xs))


def _hits(lattice: EvalContext, mask: np.ndarray):
    """The t, x and index of each true entry of a mask indexed (t, x, ...)
    over the lattice, in row-major order."""
    for at in map(tuple, np.argwhere(mask).tolist()):
        yield float(lattice.t[at[0], 0]), float(lattice.x[at[1]]), at


# ---------------------------------------------------------------------------
# Loop enumeration over the product mode graph
# ---------------------------------------------------------------------------


def _simple_loops(nodes, neighbors, max_len: int):
    """Yield the simple loops of a directed graph with at most max_len steps.

    Depth-first from each node in the order of ``nodes``; a loop is anchored
    at its first node in that order and yielded once per orientation.
    """
    order = {node: idx for idx, node in enumerate(nodes)}

    def walk(start, path, visited):
        for nb in neighbors(path[-1]):
            if nb == start and len(path) >= 2:
                yield path + [start]
            elif nb not in visited and order[nb] > order[start] and len(path) < max_len:
                visited.add(nb)
                yield from walk(start, path + [nb], visited)
                visited.remove(nb)

    for start in nodes:
        yield from walk(start, [start], {start})


def enumerate_product_loops(modes: ModeSets, max_len: int | None = None):
    """Yield simple loops in the product mode graph.

    A loop is a sequence of mode pairs returning to its start, with all
    intermediate pairs distinct and each step changing exactly one player's
    mode.  max_len bounds the number of steps (defaults to |modes1|+|modes2|).
    Each loop is enumerated once per orientation, anchored at its smallest
    pair, so signed sums over both traversal directions are covered.
    """
    if max_len is None:
        max_len = len(modes.modes1) + len(modes.modes2)

    def neighbors(node):
        i, j = node
        yield from ((k, j) for k in modes.modes1 if k != i)
        yield from ((i, l) for l in modes.modes2 if l != j)

    return _simple_loops(modes.pairs, neighbors, max_len)


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------


def _by_label(costs: np.ndarray, modes: tuple[int, ...]) -> dict:
    """A cost_array's entries keyed by the transition's mode labels."""
    return {(i, k): costs[a, b] for a, i in enumerate(modes) for b, k in enumerate(modes)}


def validate_costs(spec: ProblemSpec) -> AssumptionReport:
    """Check cost non-negativity and the no-free-loop condition on the
    sample lattice.

    Produces the cost_nonnegativity and non_free_loop fragments.  The loop
    check covers every simple loop of the product graph up to
    |modes1|+|modes2| steps: the signed sum of costs along the loop
    (player-1 moves count -costs1, player-2 moves +costs2) must be nonzero
    at every sample.  Pure one-player loops must additionally have strictly
    positive total cost.
    """
    lattice = sample_lattice(spec)
    modes = {1: spec.modes.modes1, 2: spec.modes.modes2}
    costs = {player: _by_label(g, modes[player])
             for player, g in zip(modes, cost_arrays(spec, lattice))}
    nonneg = CheckResult("cost_nonnegativity")
    for player, table in costs.items():
        for key in sorted(table):  # a diagonal's +inf is never negative
            value = table[key]
            for t, x, at in _hits(lattice, value < 0):
                nonneg.witnesses.append({"player": player, "transition": list(key), "t": t,
                                         "x": x, "value": float(value[at])})

    loops = CheckResult("non_free_loop")
    for loop in enumerate_product_loops(spec.modes):
        total = 0.0
        for (i1, j1), (i2, j2) in zip(loop[:-1], loop[1:]):
            total = total - costs[1][i1, i2] if i1 != i2 else total + costs[2][j1, j2]
        for t, x, at in _hits(lattice, abs(total) <= 1e-12):
            loops.witnesses.append({"loop": [list(p) for p in loop], "t": t, "x": x,
                                    "sum": float(total[at])})
    for player, labels in modes.items():
        for loop in _simple_loops(labels, lambda cur: (m for m in labels if m != cur),
                                  len(labels)):
            total = sum(costs[player][step] for step in zip(loop[:-1], loop[1:]))
            for t, x, at in _hits(lattice, total <= 1e-12):
                loops.witnesses.append({"player": player, "loop": list(loop), "t": t, "x": x,
                                        "sum": float(total[at])})
    return AssumptionReport({nonneg.name: nonneg, loops.name: loops})


def validate_consistency(spec: ProblemSpec) -> AssumptionReport:
    """Check that terminal rewards are compatible with the obstacles at T:
    max_k (h^{kj} - costs1_{ik}(T)) <= h^{ij} <= min_l (h^{il} + costs2_{jl}(T))
    at each distinct state of the sample lattice."""
    modes = spec.modes
    # not np.unique, whose import of numpy.ma would add to solve's peak memory
    ctx = EvalContext(spec.horizon, np.array(sorted(set(sample_lattice(spec).x.tolist()))))
    h = pair_array(spec.terminals.h, modes, ctx)
    g1, g2 = cost_arrays(spec, ctx)
    lower, upper = floor(h, g1), ceiling(h, g2)
    slack = 1e-12 * (1.0 + np.abs(h))
    outside = (h < lower - slack) | (h > upper + slack)
    result = CheckResult("terminal_consistency")
    for c, a, b in np.argwhere(np.moveaxis(outside, -1, 0)).tolist():
        result.witnesses.append(
            {"pair": [modes.modes1[a], modes.modes2[b]], "x": float(ctx.x[c]),
             "lower": float(lower[a, b, c]), "value": float(h[a, b, c]),
             "upper": float(upper[a, b, c])}
        )
    return AssumptionReport({result.name: result})


def validate_triangle(spec: ProblemSpec) -> AssumptionReport:
    """Check the strict triangle inequality for player-2 costs over every
    triple of distinct player-2 modes on the sample lattice.  Vacuously
    true with fewer than three modes.  Smoothness of the cost surfaces is
    recorded as assumed, not checked."""
    lattice = sample_lattice(spec)
    modes2 = spec.modes.modes2
    # a vacuous check evaluates nothing, so it cannot raise
    costs2 = (_by_label(cost_array(spec.costs.costs2, modes2, lattice), modes2)
              if len(modes2) >= 3 else {})
    result = CheckResult("strict_triangle")
    result.assumed.append("player-2 cost smoothness (C^{1,2}) is assumed, not machine-checked")
    for j1, j2, j3 in itertools.permutations(modes2, 3):
        direct, via = costs2[j1, j3], costs2[j1, j2] + costs2[j2, j3]
        for t, x, at in _hits(lattice, direct >= via - 1e-12):
            result.witnesses.append({"triple": [j1, j2, j3], "t": t, "x": x,
                                     "direct": float(direct[at]), "via": float(via[at])})
    return AssumptionReport({result.name: result})


def check_separation(spec: ProblemSpec) -> AssumptionReport:
    """Check that rewards split as f^{ij} = f1^i + f2^j and h^{ij} = h1^i + h2^j.

    Numerically: f^{ij} - f^{i j0} must not depend on i (and likewise for h)
    at every sample of the lattice, within absolute tolerance 1e-12, with
    j0 the first player-2 mode.  The components are then f1^i = f^{i j0}
    and f2^j = f^{i0 j} - f^{i0 j0}, with i0 the first player-1 mode, as
    solver.solve_single_obstacle reads them.
    """
    lattice = sample_lattice(spec)
    spreads = []
    # the terminals are free of t (TerminalTable): each sample's t gives their value at T
    for table in (spec.drivers.f, spec.terminals.h):
        values = pair_array(table, spec.modes, lattice)
        diffs = values - values[:, :1]
        spreads.append(diffs.max(axis=0) - diffs.min(axis=0))
    # indexed (t, x, field, mode2), the witnesses' order
    spread = np.moveaxis(np.stack(spreads), (0, 1), (2, 3))
    result = CheckResult("separation")
    for t, x, at in _hits(lattice, spread > SEPARATION_TOL):
        result.witnesses.append({"field": ("driver", "terminal")[at[2]],
                                 "mode2": spec.modes.modes2[at[3]], "t": t, "x": x,
                                 "spread": float(spread[at])})
    return AssumptionReport({result.name: result})


def run_all_checks(spec: ProblemSpec) -> AssumptionReport:
    """Run every machine-checkable assumption and merge the fragments."""
    return AssumptionReport({
        **validate_costs(spec).checks,
        **validate_consistency(spec).checks,
        **validate_triangle(spec).checks,
        **check_separation(spec).checks,
    })


# ---------------------------------------------------------------------------
# Obstacle operators
# ---------------------------------------------------------------------------

SWEEP_CAP = 64  # Gauss-Seidel sweeps clamp_sweep may make before it gives up


def broadcast_stack(entries: Mapping[tuple[int, ...], object], lead: tuple[int, ...],
                    shape: tuple[int, ...]) -> np.ndarray:
    """entries[index] at their indices of a lead-shaped array, +inf elsewhere,
    as a read-only view of shape lead + shape that stores the values at their
    own broadcast shape only: a value free of an axis takes no memory along it."""
    own = np.broadcast_shapes(*(np.shape(value) for value in entries.values()))
    out = np.full(lead + (1,) * (len(shape) - len(own)) + own, math.inf)
    for index, value in entries.items():
        out[index] = value
    return np.broadcast_to(out, lead + shape)


def cost_array(table: Mapping[tuple[int, int], ExpressionTree], modes: tuple[int, ...],
               ctx: EvalContext) -> np.ndarray:
    """Switching costs at ctx as an array: out[a, b] = table[modes[a], modes[b]],
    a read-only broadcast view (broadcast_stack) of the broadcast shape of
    ctx.t and ctx.x.  The diagonal is +inf and never evaluated (staying put
    is not a switch), so the own mode drops out of both obstacles and a
    single-mode player gets the obstacle -inf or +inf."""
    n = len(modes)
    entries = {(a, b): evaluate(table[(i, k)], ctx)
               for a, i in enumerate(modes) for b, k in enumerate(modes) if a != b}
    return broadcast_stack(entries, (n, n), np.broadcast_shapes(np.shape(ctx.t), np.shape(ctx.x)))


def pair_array(table: Mapping[tuple[int, int], ExpressionTree], modes: ModeSets,
               ctx: EvalContext) -> np.ndarray:
    """A driver or terminal table at ctx as an array: out[a, b] =
    table[modes1[a], modes2[b]], a read-only broadcast view (broadcast_stack)
    of the broadcast shape of ctx.t and ctx.x."""
    lead = (len(modes.modes1), len(modes.modes2))
    entries = {index: evaluate(table[pair], ctx)
               for index, pair in zip(np.ndindex(lead), modes.pairs)}
    return broadcast_stack(entries, lead, np.broadcast_shapes(np.shape(ctx.t), np.shape(ctx.x)))


def cost_arrays(spec: ProblemSpec, ctx: EvalContext) -> tuple[np.ndarray, np.ndarray]:
    """Both players' cost_array at ctx: player 1's, then player 2's."""
    return (cost_array(spec.costs.costs1, spec.modes.modes1, ctx),
            cost_array(spec.costs.costs2, spec.modes.modes2, ctx))


def floor(values: np.ndarray, costs1: np.ndarray, pair: tuple[int, int] | None = None,
          each: bool = False):
    """Player 1's switching floor max_{k != i} values[k, j] - costs1[i, k].

    values is indexed (i, j, ...) by mode position and costs1 (i, k, ...) is
    a cost_array; trailing axes broadcast.  The result is indexed like
    values, or is the floor of pair=(i, j) alone.  each=True returns the
    candidates values[k, j] - costs1[i, k] for every k (the own mode's at
    -inf) on a new first axis instead of their maximum.
    """
    if pair is None:
        terms = values[:, np.newaxis] - np.swapaxes(costs1, 0, 1)[:, :, np.newaxis]
    else:
        i, j = pair
        terms = values[:, j] - costs1[i]
    return terms if each else terms.max(axis=0)


def ceiling(values: np.ndarray, costs2: np.ndarray, pair: tuple[int, int] | None = None,
            each: bool = False):
    """Player 2's switching ceiling min_{l != j} values[i, l] + costs2[j, l].

    The mirror of floor: costs2 (j, l, ...) is a cost_array, the own mode's
    candidate is +inf, and each=True returns the candidates for every l on
    a new first axis instead of their minimum.
    """
    if pair is None:
        terms = (np.moveaxis(values, 1, 0)[:, :, np.newaxis]
                 + np.moveaxis(costs2, 1, 0)[:, np.newaxis])
    else:
        i, j = pair
        terms = values[i] + costs2[j]
    return terms if each else terms.min(axis=0)


def clamp_sweep(base: np.ndarray, costs1: np.ndarray | None = None,
                costs2: np.ndarray | None = None, floor_last: bool = False) -> np.ndarray:
    """Gauss-Seidel fixed point of v[p] = clamp(base[p]) over the pairs p of
    values indexed (i, j, ...), in lexicographic order.

    The clamp lifts to the floor when costs1 is given and cuts at the
    ceiling when costs2 is given, both formed from the current iterate.
    With both, min(max(base, floor), ceiling) is taken, or
    max(min(base, ceiling), floor) when floor_last.  Axes between the pair
    axes and the last one hold independent rows (one per penalty level in
    the solver): a sweep rewrites only the rows whose values it changes, so
    each row ends as if swept alone.  Raises ConvergenceError when SWEEP_CAP
    sweeps still change a value.
    """
    cur = base.copy()
    for _ in range(SWEEP_CAP):
        changed, residual = False, 0.0
        for p in np.ndindex(base.shape[:2]):
            lo = -math.inf if costs1 is None else floor(cur, costs1, p)
            hi = math.inf if costs2 is None else ceiling(cur, costs2, p)
            if floor_last:
                new = np.maximum(np.minimum(base[p], hi), lo)
            else:
                new = np.minimum(np.maximum(base[p], lo), hi)
            moved = new != cur[p]
            if np.any(moved):
                residual = max(residual, float(np.max(np.abs(new - cur[p]))))
                if moved.ndim > 1:  # rows: rewrite the ones that moved
                    moved = moved.any(axis=-1)
                    cur[p][moved] = new[moved]
                else:
                    cur[p] = new
                changed = True
        if not changed:
            return cur
    raise ConvergenceError(f"clamp sweep still moving after {SWEEP_CAP} sweeps",
                           residual=residual)
