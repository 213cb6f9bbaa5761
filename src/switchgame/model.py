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
of rewards across the two players.  Checks are sampled at user-supplied
(t, x) points; exact verification for arbitrary expressions is
undecidable, so a pass is a statement about the sampled lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ConvergenceError, SpecificationError
from .expressions import ZERO, EvalContext, ExpressionTree, evaluate, free_variables

SEPARATION_TOL = 1e-12


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
    name: str
    passed: bool
    witnesses: list[dict] = field(default_factory=list)
    assumed: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "witnesses": self.witnesses,
            "assumed": self.assumed,
        }


@dataclass
class AssumptionReport:
    checks: dict[str, CheckResult] = field(default_factory=dict)

    def add(self, result: CheckResult):
        self.checks[result.name] = result

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed(),
            "checks": {name: self.checks[name].to_dict() for name in sorted(self.checks)},
        }


def _require_samples(spec: ProblemSpec, samples):
    if not samples:
        raise ValueError("samples must be non-empty")
    lo, hi = spec.domain
    for t, x in samples:
        if not (0.0 <= t <= spec.horizon) or not (lo <= x <= hi):
            raise ValueError(f"sample ({t}, {x}) outside [0, T] x domain")


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


def enumerate_single_loops(modes: tuple[int, ...]):
    """Yield simple loops within one player's mode set."""
    return _simple_loops(modes, lambda cur: (m for m in modes if m != cur), len(modes))


def loop_signed_sum(spec: ProblemSpec, loop, t: float, x: float) -> float:
    """Signed cost sum along a product-graph loop: player-1 moves count
    -costs1, player-2 moves count +costs2."""
    total = 0.0
    ctx = EvalContext(t, x)
    for (i1, j1), (i2, j2) in zip(loop[:-1], loop[1:]):
        if i1 != i2:
            total -= float(evaluate(spec.costs.costs1[(i1, i2)], ctx))
        else:
            total += float(evaluate(spec.costs.costs2[(j1, j2)], ctx))
    return total


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------


def validate_costs(
    spec: ProblemSpec,
    samples: list[tuple[float, float]],
    loop_length_bound: int | None = None,
) -> AssumptionReport:
    """Check cost non-negativity and the no-free-loop condition at samples.

    Produces the cost_nonnegativity and non_free_loop fragments.  The loop
    check covers every simple loop of the product graph up to
    loop_length_bound steps (default |modes1|+|modes2|): the signed sum of
    costs along the loop must be nonzero at every sample.  Pure one-player
    loops must additionally have strictly positive total cost.
    """
    _require_samples(spec, samples)
    report = AssumptionReport()

    nonneg = CheckResult("cost_nonnegativity", True)
    for table, player in ((spec.costs.costs1, 1), (spec.costs.costs2, 2)):
        for key, expr in sorted(table.items()):
            for t, x in samples:
                value = float(evaluate(expr, EvalContext(t, x)))
                if value < 0:
                    nonneg.passed = False
                    nonneg.witnesses.append(
                        {"player": player, "transition": list(key), "t": t, "x": x, "value": value}
                    )
    report.add(nonneg)

    loops = CheckResult("non_free_loop", True)
    for loop in enumerate_product_loops(spec.modes, loop_length_bound):
        for t, x in samples:
            total = loop_signed_sum(spec, loop, t, x)
            if abs(total) <= 1e-12:
                loops.passed = False
                loops.witnesses.append(
                    {"loop": [list(p) for p in loop], "t": t, "x": x, "sum": total}
                )
    for modes, table, player in (
        (spec.modes.modes1, spec.costs.costs1, 1),
        (spec.modes.modes2, spec.costs.costs2, 2),
    ):
        for loop in enumerate_single_loops(modes):
            for t, x in samples:
                ctx = EvalContext(t, x)
                total = sum(
                    float(evaluate(table[(a, b)], ctx)) for a, b in zip(loop[:-1], loop[1:])
                )
                if total <= 1e-12:
                    loops.passed = False
                    loops.witnesses.append(
                        {"player": player, "loop": list(loop), "t": t, "x": x, "sum": total}
                    )
    report.add(loops)
    return report


def validate_consistency(spec: ProblemSpec, x_samples: list[float]) -> AssumptionReport:
    """Check that terminal rewards are compatible with the obstacles at T:
    max_k (h^{kj} - costs1_{ik}(T)) <= h^{ij} <= min_l (h^{il} + costs2_{jl}(T))."""
    if not x_samples:
        raise ValueError("x_samples must be non-empty")
    lo, hi = spec.domain
    for x in x_samples:
        if not (lo <= x <= hi):
            raise ValueError(f"sample x={x} outside domain")
    T = spec.horizon
    modes = spec.modes
    result = CheckResult("terminal_consistency", True)
    for x in x_samples:
        ctx = EvalContext(T, x)
        h = np.array([[float(evaluate(spec.terminals.h[(i, j)], ctx)) for j in modes.modes2]
                      for i in modes.modes1])
        lower = floor(h, cost_array(spec.costs.costs1, modes.modes1, ctx))
        upper = ceiling(h, cost_array(spec.costs.costs2, modes.modes2, ctx))
        for a, b in np.ndindex(h.shape):
            value = float(h[a, b])
            slack = 1e-12 * (1.0 + abs(value))
            if value < lower[a, b] - slack or value > upper[a, b] + slack:
                result.passed = False
                result.witnesses.append(
                    {"pair": [modes.modes1[a], modes.modes2[b]], "x": x,
                     "lower": float(lower[a, b]), "value": value, "upper": float(upper[a, b])}
                )
    report = AssumptionReport()
    report.add(result)
    return report


def validate_triangle(spec: ProblemSpec, samples: list[tuple[float, float]]) -> AssumptionReport:
    """Check the strict triangle inequality for player-2 costs over every
    triple of distinct player-2 modes.  Vacuously true with fewer than three
    modes.  Smoothness of the cost surfaces is recorded as assumed, not
    checked."""
    _require_samples(spec, samples)
    result = CheckResult("strict_triangle", True)
    result.assumed.append("player-2 cost smoothness (C^{1,2}) is assumed, not machine-checked")
    modes2 = spec.modes.modes2
    if len(modes2) >= 3:
        for j1 in modes2:
            for j2 in modes2:
                for j3 in modes2:
                    if len({j1, j2, j3}) != 3:
                        continue
                    for t, x in samples:
                        ctx = EvalContext(t, x)
                        direct = float(evaluate(spec.costs.costs2[(j1, j3)], ctx))
                        via = float(evaluate(spec.costs.costs2[(j1, j2)], ctx)) + float(
                            evaluate(spec.costs.costs2[(j2, j3)], ctx)
                        )
                        if direct >= via - 1e-12:
                            result.passed = False
                            result.witnesses.append(
                                {"triple": [j1, j2, j3], "t": t, "x": x,
                                 "direct": direct, "via": via}
                            )
    report = AssumptionReport()
    report.add(result)
    return report


def check_separation(spec: ProblemSpec, samples: list[tuple[float, float]]) -> AssumptionReport:
    """Check that rewards split as f^{ij} = f1^i + f2^j and h^{ij} = h1^i + h2^j.

    Numerically: f^{ij} - f^{i j0} must not depend on i (and likewise for h)
    at every sample, within absolute tolerance 1e-12, with j0 the first
    player-2 mode.  The components are then f1^i = f^{i j0} and
    f2^j = f^{i0 j} - f^{i0 j0}, with i0 the first player-1 mode, as
    solver.solve_single_obstacle reads them.
    """
    _require_samples(spec, samples)
    modes1, modes2 = spec.modes.modes1, spec.modes.modes2
    j0 = modes2[0]
    result = CheckResult("separation", True)

    for t, x in samples:
        ctx = EvalContext(t, x)
        fvals = {p: float(evaluate(spec.drivers.f[p], ctx)) for p in spec.modes.pairs}
        hvals = {p: float(evaluate(spec.terminals.h[p], EvalContext(spec.horizon, x))) for p in spec.modes.pairs}
        for label, vals in (("driver", fvals), ("terminal", hvals)):
            for j in modes2:
                diffs = [vals[(i, j)] - vals[(i, j0)] for i in modes1]
                spread = max(diffs) - min(diffs)
                if spread > SEPARATION_TOL:
                    result.passed = False
                    result.witnesses.append(
                        {"field": label, "mode2": j, "t": t, "x": x, "spread": spread}
                    )

    report = AssumptionReport()
    report.add(result)
    return report


def run_all_checks(
    spec: ProblemSpec,
    samples: list[tuple[float, float]],
    loop_length_bound: int | None = None,
) -> AssumptionReport:
    """Run every machine-checkable assumption and merge the fragments."""
    report = validate_costs(spec, samples, loop_length_bound)
    x_samples = sorted({x for _, x in samples})
    for fragment in (
        validate_consistency(spec, x_samples),
        validate_triangle(spec, samples),
        check_separation(spec, samples),
    ):
        for check in fragment.checks.values():
            report.add(check)
    return report


# ---------------------------------------------------------------------------
# Obstacle operators
# ---------------------------------------------------------------------------

SWEEP_CAP = 64  # Gauss-Seidel sweeps clamp_sweep may make before it gives up


def cost_array(table: Mapping[tuple[int, int], ExpressionTree], modes: tuple[int, ...],
               ctx: EvalContext) -> np.ndarray:
    """Switching costs at ctx as an array: out[a, b] = table[modes[a], modes[b]],
    broadcast to the shape of ctx.x.  The diagonal is +inf and never evaluated
    (staying put is not a switch), so the own mode drops out of both
    obstacles and a single-mode player gets the obstacle -inf or +inf."""
    n = len(modes)
    out = np.full((n, n) + np.shape(ctx.x), math.inf)
    for a, i in enumerate(modes):
        for b, k in enumerate(modes):
            if a != b:
                out[a, b] = evaluate(table[(i, k)], ctx)
    return out


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
    max(min(base, ceiling), floor) when floor_last.  Raises ConvergenceError
    when SWEEP_CAP sweeps still change a value.
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
            if np.any(new != cur[p]):
                residual = max(residual, float(np.max(np.abs(new - cur[p]))))
                cur[p] = new
                changed = True
        if not changed:
            return cur
    raise ConvergenceError(f"clamp sweep still moving after {SWEEP_CAP} sweeps",
                           residual=residual)
