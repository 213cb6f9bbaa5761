"""Backward finite-difference solvers for the coupled obstacle systems.

Two penalized schemes are provided.  The descending scheme (solve_minmax)
keeps the switching floor of player 1 as a hard constraint, enforced by
projected Gauss-Seidel after each implicit step, and relaxes the player-2
ceiling through a reaction term

    - m * sum_{l != j} (v^{ij} - v^{il} - costs2_{jl})^+

whose strength m sweeps upward; fields decrease in m.  The ascending
scheme (solve_maxmin) mirrors this: hard ceiling, penalized floor

    + n * sum_{k != i} (v^{kj} - costs1_{ik} - v^{ij})^+

and fields increase in n.  Between them the discrete fields are sandwiched,
and as the penalty grows both converge to the same double-obstacle
solution; sup_gap measures their residual distance.

Within one time level the per-pair implicit steps are iterated to a joint
fixed point in lexicographic Gauss-Seidel order.  The reaction term is
handled semi-implicitly: the own component sits inside the tridiagonal
solve via an active-set (semismooth Newton) iteration, which keeps the
level update stable for arbitrarily large m * dt.

A third, direct clamping scheme ships as a cross-check only: one plain
implicit step followed by clamping between the two obstacles in the order
that matches the system being approximated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .expressions import EvalContext, evaluate
from .grid import (Grid, GeneratorStencil, discretize_generator, solve_banded,  # noqa: F401
                   solve_implicit, solve_tridiagonal)
from .model import ProblemSpec, ceiling, check_separation, clamp_sweep, cost_array, floor

_ACTIVE_SET_CAP = 64
FIXED_POINT_CAP = 500  # Gauss-Seidel sweeps over the pairs of one time level
# relative width of a rounding-level tie in a policy decision (_next_policy)
TIE_TOL = 1e-14


@dataclass(frozen=True)
class PenaltySchedule:
    """Strictly increasing penalty levels plus the fixed-point tolerance."""

    levels: tuple[float, ...] = (1.0, 4.0, 16.0, 64.0, 256.0)
    fixed_point_tol: float = 1e-10

    def __post_init__(self):
        if not self.levels:
            raise ValueError("penalty schedule must be non-empty")
        if any(m <= 0 for m in self.levels):
            raise ValueError("penalty levels must be positive")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("penalty levels must be strictly increasing")


@dataclass(frozen=True, eq=False)
class ValueField:
    """Solution values on the grid.

    For the coupled systems mode_labels holds (i, j) pairs and values has
    shape (pairs, nt, nx).  For single-player systems mode_labels holds the
    player's own modes.  The terminal level is assigned from the terminal
    rewards, never computed.
    """

    system: str  # minmax | maxmin | single_lower | single_upper
    mode_labels: tuple
    values: np.ndarray
    grid: Grid
    penalty: float | None = None

    def index_of(self, label) -> int:
        return self.mode_labels.index(label)

    def interp_x(self, label, level: int, x: np.ndarray) -> np.ndarray:
        """Linear interpolation in x of one mode's values at a time level."""
        return np.interp(x, self.grid.xs, self.values[self.index_of(label), level, :])

    def interp_modes(self, level: int, x: np.ndarray) -> np.ndarray:
        """Every mode's values at a time level, interpolated linearly in x.

        Row m equals ``interp_x(mode_labels[m], level, x)`` bit for bit for
        finite x.  The grid is uniform, so one cell lookup serves every mode:
        the floor guess from the spacing is corrected by one cell against
        ``xs``.  The arithmetic is np.interp's: the cell's slope
        (y[j+1] - y[j]) / (x[j+1] - x[j]), then slope * (x - x[j]) + y[j];
        a node hit returns the node value and points outside the grid the
        end value.
        """
        xs, nx = self.grid.xs, self.grid.nx
        ys = self.values[:, level, :]
        cell = np.clip((x - xs[0]) / self.grid.dx, 0, nx - 2).astype(np.intp)
        cell -= xs.take(cell) > x
        cell += xs.take(cell + 1) <= x
        # cell is -1 below the grid and nx - 1 at or above its last node
        j = np.clip(cell, 0, nx - 2)
        xj = xs.take(j)
        slopes = (ys[:, 1:] - ys[:, :-1]) / (xs[1:] - xs[:-1])
        # far outside the grid the formula may overflow; those points are
        # replaced by the end values below
        with np.errstate(over="ignore", invalid="ignore"):
            out = slopes.take(j, axis=1) * (x - xj) + ys.take(j, axis=1)
        exact = np.flatnonzero((cell < 0) | (cell == nx - 1) | (xj == x))
        out[:, exact] = ys.take(np.clip(cell[exact], 0, nx - 1), axis=1)
        return out

    def meta_dict(self) -> dict:
        return {
            "system": self.system,
            "penalty": self.penalty,
            "mode_labels": [list(p) if isinstance(p, tuple) else p for p in self.mode_labels],
            "nt": self.grid.nt,
            "nx": self.grid.nx,
            "t_range": [float(self.grid.times[0]), float(self.grid.times[-1])],
            "x_range": [float(self.grid.xs[0]), float(self.grid.xs[-1])],
        }

    def to_csv(self, path) -> None:
        """Columns: i, j, t_index, x_index, t, x, value; one row per node."""
        t_texts = [repr(t) for t in self.grid.times.tolist()]
        nodes = [(n, repr(x)) for n, x in enumerate(self.grid.xs.tolist())]
        with open(path, "w", newline="") as handle:
            handle.write("i,j,t_index,x_index,t,x,value\r\n")
            for label, values in zip(self.mode_labels, self.values):
                i, j = label if isinstance(label, tuple) else (label, "")
                for k, t in enumerate(t_texts):
                    cells = [f"{n},{t},{x}" for n, x in nodes]
                    handle.write(csv_rows(f"{i},{j},{k},", cells, values[k]))


def csv_rows(lead: str, cells: list[str], values: np.ndarray) -> str:
    """CSV rows ``lead + cells[n] + "," + repr(values[n])``, each ended by
    "\r\n".

    These are csv.writer's bytes for the same cells as long as none of them
    holds a comma, a quote or a line break, which csv.writer would quote;
    numbers and float reprs never do.
    """
    return "".join([f"{lead}{cell},{v!r}\r\n" for cell, v in zip(cells, values.tolist())])


@dataclass
class SolveReport:
    system: str
    penalty_levels: list[float] = field(default_factory=list)
    sup_deltas: list[float] = field(default_factory=list)
    penalty_excess: list[dict] = field(default_factory=list)
    iterations: list[int] = field(default_factory=list)
    monotonicity_violation: float = 0.0
    final_gap: float | None = None
    sweep_fields: list[ValueField] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "penalty_levels": self.penalty_levels,
            "sup_deltas": self.sup_deltas,
            "penalty_excess": self.penalty_excess,
            "iterations": self.iterations,
            "monotonicity_violation": self.monotonicity_violation,
            "final_gap": self.final_gap,
        }


# ---------------------------------------------------------------------------
# Per-level data cache
# ---------------------------------------------------------------------------


class _LevelCache:
    """Coefficient arrays and stencils evaluated once per time level."""

    def __init__(self, spec: ProblemSpec, grid: Grid):
        self.spec = spec
        self.grid = grid
        self.modes1 = spec.modes.modes1
        self.modes2 = spec.modes.modes2
        n1, n2, nx = len(self.modes1), len(self.modes2), grid.nx
        self.f = np.empty((grid.nt, n1, n2, nx))
        self.stencils: list[GeneratorStencil] = []
        xs = grid.xs
        for k, t in enumerate(grid.times):
            ctx = EvalContext(t, xs)
            for a, i in enumerate(self.modes1):
                for b, j in enumerate(self.modes2):
                    self.f[k, a, b, :] = evaluate(spec.drivers.f[(i, j)], ctx)
            self.stencils.append(discretize_generator(spec, grid, t))
        self.g1, self.g2 = _grid_costs(spec, grid)  # (nt, n, n, nx) switch costs
        self.terminal = np.empty((n1, n2, nx))
        for a, i in enumerate(self.modes1):
            for b, j in enumerate(self.modes2):
                self.terminal[a, b, :] = evaluate(
                    spec.terminals.h[(i, j)], EvalContext(spec.horizon, xs)
                )


def _grid_costs(spec: ProblemSpec, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Both players' cost_array at every grid time, time first."""
    return tuple(
        np.stack([cost_array(table, modes, EvalContext(t, grid.xs)) for t in grid.times])
        for table, modes in ((spec.costs.costs1, spec.modes.modes1),
                             (spec.costs.costs2, spec.modes.modes2))
    )


# ---------------------------------------------------------------------------
# Penalized implicit solve with an active-set handling of the reaction term
# ---------------------------------------------------------------------------


def _next_policy(policy, proposed, lhs, rhs, tie):
    """The boolean policy for the next solve of a policy iteration; the
    ``policy`` object itself once it has settled.

    ``proposed`` is the policy that the decision margins lhs - rhs of the
    last solve ask for.  A row whose margin lies within ``tie`` keeps its
    current policy: clamp_sweep leaves values exactly on their obstacles,
    so margins tie at rounding level, and a plain comparison can flip such
    rows back and forth without end.  The tie test runs only when the plain
    comparison asks for a change.
    """
    if proposed.tobytes() == policy.tobytes():
        return policy
    proposed = np.where(np.abs(lhs - rhs) <= tie, policy, proposed)
    return policy if np.array_equal(proposed, policy) else proposed


def _solve_reaction_rows(bands, dt, rhs, thresholds, weight, side, contact, bound, w, tie):
    """Newton iteration on the penalty active sets with a frozen contact set.

    Contact rows are identity rows pinned to the obstacle; the remaining
    rows carry (I - dt L) w + reaction = rhs, with I - dt L the level's
    ``bands``, and the piecewise-linear reaction linearized on its current
    active set.  The reaction is convex (side "above") or concave (side
    "below") in w, so the active-set iteration is monotone and settles in a
    few tridiagonal solves, rows within ``tie`` of a threshold keeping
    their side (_next_policy).  Raises ConvergenceError when
    _ACTIVE_SET_CAP solves leave the active set unsettled.
    """
    nx = rhs.shape[0]
    active = [w > c for c in thresholds] if side == "above" else [w < c for c in thresholds]
    for _ in range(_ACTIVE_SET_CAP):
        diag = np.zeros(nx)
        extra = np.zeros(nx)
        for act, c in zip(active, thresholds):
            diag += dt * weight * act
            extra += dt * weight * act * c
        ab = bands.copy()
        ab[1] += diag
        b = rhs + extra
        if np.any(contact):
            ab[0, 1:][contact[:-1]] = 0.0
            ab[1][contact] = 1.0
            ab[2, :-1][contact[1:]] = 0.0
            b = np.where(contact, bound, b)
        prev, w = w, solve_tridiagonal(ab, b)
        proposed = [_next_policy(a, w > c if side == "above" else w < c, w, c, tie)
                    for a, c in zip(active, thresholds)]
        if all(p is a for p, a in zip(proposed, active)):
            return w
        active = proposed
    raise ConvergenceError(f"reaction active set still changing after {_ACTIVE_SET_CAP} solves",
                           residual=float(np.max(np.abs(w - prev))))


def _pair_step(stencil, bands, dt, rhs, thresholds, weight, bound, side, w, tie):
    """Solve one pair's implicit step with its reaction term and hard obstacle.

    side == "above" (descending scheme):
        min( w - bound,  (I - dt L) w + dt*weight * sum_c (w - c)^+ - rhs ) = 0
    side == "below" (ascending scheme):
        max( w - bound,  (I - dt L) w - dt*weight * sum_d (d - w)^+ - rhs ) = 0

    with bound the floor (resp. ceiling) built from the current iterate of
    the other mode pairs; it is -inf (resp. +inf) for a single-mode player,
    which leaves the contact set empty.  The obstacle is enforced
    row-by-row through a policy iteration on the contact set (each trial
    policy solved exactly by _solve_reaction_rows); enforcing it inside the
    rows rather than projecting afterwards is what makes the
    discrete comparison between the two schemes exact.  A row where
    w - bound and the residual tie within ``tie`` keeps its policy
    (_next_policy).  Raises ConvergenceError when _ACTIVE_SET_CAP policies
    leave the contact set unsettled.
    """
    contact = w < bound if side == "above" else w > bound
    for _ in range(_ACTIVE_SET_CAP):
        prev = w
        w = _solve_reaction_rows(bands, dt, rhs, thresholds, weight, side, contact, bound, w, tie)
        reaction = np.zeros_like(rhs)
        for c in thresholds:
            if side == "above":
                reaction += dt * weight * np.maximum(w - c, 0.0)
            else:
                reaction -= dt * weight * np.maximum(c - w, 0.0)
        resid = w - dt * stencil.apply(w) + reaction - rhs
        gap = w - bound
        proposed = _next_policy(contact, gap < resid if side == "above" else gap > resid,
                                gap, resid, tie)
        if proposed is contact:
            return w
        contact = proposed
    raise ConvergenceError(f"contact policy still changing after {_ACTIVE_SET_CAP} policies",
                           residual=float(np.max(np.abs(w - prev))))


def _solve_penalized(cache: _LevelCache, penalty: float, direction: str,
                     schedule: PenaltySchedule, warm: np.ndarray | None):
    """One full backward pass at a fixed penalty level.

    Returns (values, iteration_count): values has shape (n1, n2, nt, nx).
    """
    grid = cache.grid
    n1 = len(cache.modes1)
    n2 = len(cache.modes2)
    nt, nx = grid.nt, grid.nx
    dt = grid.dt

    v = np.empty((n1, n2, nt, nx))
    v[:, :, nt - 1, :] = cache.terminal
    total_iters = 0

    for k in range(nt - 2, -1, -1):
        stencil = cache.stencils[k]
        bands = stencil.implicit_bands(dt)
        f_k = cache.f[k]
        g1_k = cache.g1[k]
        g2_k = cache.g2[k]
        vnext = v[:, :, k + 1, :]
        cur = (warm[:, :, k, :] if warm is not None else vnext).copy()
        tie = TIE_TOL * (1.0 + float(np.max(np.abs(cur))))

        residual = math.inf
        for _ in range(FIXED_POINT_CAP):
            total_iters += 1
            residual = 0.0
            for a, b in np.ndindex(n1, n2):
                rhs = vnext[a, b] + dt * f_k[a, b]
                if direction == "minmax":
                    bound, side = floor(cur, g1_k, (a, b)), "above"
                    soft, own, costs = ceiling, b, g2_k
                else:
                    bound, side = ceiling(cur, g2_k, (a, b)), "below"
                    soft, own, costs = floor, a, g1_k
                # the penalized obstacle's candidates, own mode left out; none
                # at all for a single-mode player
                cands = soft(cur, costs, (a, b), each=True)
                thresholds = [c for m, c in enumerate(cands) if m != own]
                try:
                    w = _pair_step(stencil, bands, dt, rhs, thresholds, penalty, bound, side,
                                   cur[a, b], tie)
                except ConvergenceError as exc:
                    raise ConvergenceError(
                        f"{direction} at penalty {penalty:g}, time level {k}, pair "
                        f"({cache.modes1[a]},{cache.modes2[b]}): {exc.message}",
                        residual=exc.residual) from exc
                residual = max(residual, float(np.max(np.abs(w - cur[a, b]))))
                cur[a, b] = w
            if residual < schedule.fixed_point_tol:
                break
        else:
            raise ConvergenceError(
                f"{direction} fixed point stalled at penalty {penalty:g}, time level {k}",
                residual=residual
            )

        if direction == "minmax":
            cur = clamp_sweep(cur, costs1=g1_k)
        else:
            cur = clamp_sweep(cur, costs2=g2_k)
        v[:, :, k, :] = cur

    return v, total_iters


def _excess_by_pair(values, cache: _LevelCache, penalty: float, direction: str) -> dict:
    """Max over the grid of penalty * sum of obstacle excesses, per mode pair.

    The excesses are the reaction term's: (v^{ij} - v^{il} - costs2_{jl})^+
    descending, (v^{kj} - costs1_{ik} - v^{ij})^+ ascending; the own mode's
    is 0 through the infinite diagonal cost.
    """
    g1, g2 = np.moveaxis(cache.g1, 0, 2), np.moveaxis(cache.g2, 0, 2)  # (n, n, nt, nx)
    out = {}
    for a, b in np.ndindex(values.shape[:2]):
        if direction == "minmax":
            excess = values[a, b] - values[a] - g2[b]
        else:
            excess = floor(values, g1, (a, b), each=True) - values[a, b]
        total = np.maximum(excess, 0.0).sum(axis=0)
        out[f"{cache.modes1[a]},{cache.modes2[b]}"] = max(0.0, penalty * float(np.max(total)))
    return out


def _sweep(spec: ProblemSpec, grid: Grid, schedule: PenaltySchedule, direction: str):
    cache = _LevelCache(spec, grid)
    report = SolveReport(system=direction)
    prev = None
    prev_field = None
    labels = spec.modes.pairs
    for m in schedule.levels:
        values, iters = _solve_penalized(cache, m, direction, schedule, warm=prev)
        field_values = values.reshape(len(labels), grid.nt, grid.nx)
        fld = ValueField(system=direction, mode_labels=labels, values=field_values,
                         grid=grid, penalty=m)
        report.penalty_levels.append(m)
        report.iterations.append(iters)
        report.penalty_excess.append(_excess_by_pair(values, cache, m, direction))
        if prev_field is not None:
            delta = float(np.max(np.abs(field_values - prev_field.values)))
            report.sup_deltas.append(delta)
            # descending scheme must not increase, ascending must not decrease
            if direction == "minmax":
                viol = float(np.max(field_values - prev_field.values))
            else:
                viol = float(np.max(prev_field.values - field_values))
            report.monotonicity_violation = max(report.monotonicity_violation, viol)
        report.sweep_fields.append(fld)
        prev = values
        prev_field = fld
    return prev_field, report


def solve_minmax(spec: ProblemSpec, grid: Grid, schedule: PenaltySchedule):
    """Descending penalized scheme: hard floor, penalized ceiling.

    Caller is responsible for having validated costs and terminal
    consistency.  Returns the field at the last penalty level and a report
    holding the whole sweep.
    """
    return _sweep(spec, grid, schedule, "minmax")


def solve_maxmin(spec: ProblemSpec, grid: Grid, schedule: PenaltySchedule):
    """Ascending penalized scheme: hard ceiling, penalized floor."""
    return _sweep(spec, grid, schedule, "maxmin")


def _clamp_pass(cache: _LevelCache, f: np.ndarray, terminal: np.ndarray,
                costs1: np.ndarray | None = None, costs2: np.ndarray | None = None,
                floor_last: bool = False) -> np.ndarray:
    """Backward pass over values indexed (i, j, t, x): per pair one plain
    implicit step from the next level with source f[k, i, j], then
    clamp_sweep with the level's costs1[k] and costs2[k] (either may be None,
    leaving that obstacle out).  f is indexed (t, i, j, x) and terminal
    (i, j, x), like the cache's own arrays, of which they may be slices.
    """
    n1, n2, nx = terminal.shape
    nt, dt = cache.grid.nt, cache.grid.dt
    v = np.empty((n1, n2, nt, nx))
    v[:, :, nt - 1, :] = terminal
    for k in range(nt - 2, -1, -1):
        stepped = np.empty((n1, n2, nx))
        for a, b in np.ndindex(n1, n2):
            stepped[a, b] = solve_implicit(cache.stencils[k], dt, v[a, b, k + 1] + dt * f[k, a, b])
        v[:, :, k, :] = clamp_sweep(stepped, None if costs1 is None else costs1[k],
                                    None if costs2 is None else costs2[k], floor_last)
    return v


def solve_clamped(spec: ProblemSpec, grid: Grid, order: str = "minmax") -> ValueField:
    """Direct double-obstacle cross-check: plain implicit step, then clamp.

    order == "minmax" applies v := max(min(v_step, ceiling), floor);
    order == "maxmin" applies v := min(max(v_step, floor), ceiling).
    Clamps are swept Gauss-Seidel to a fixed point at each level.
    """
    cache = _LevelCache(spec, grid)
    v = _clamp_pass(cache, cache.f, cache.terminal, cache.g1, cache.g2,
                    floor_last=order == "minmax")
    return ValueField(system=f"clamped_{order}", mode_labels=spec.modes.pairs,
                      values=v.reshape(-1, grid.nt, grid.nx), grid=grid, penalty=None)


# ---------------------------------------------------------------------------
# Single-player systems (separated rewards)
# ---------------------------------------------------------------------------


def _grid_samples(spec: ProblemSpec, grid: Grid):
    ts = grid.times[:: max(1, grid.nt // 5)]
    xs = grid.xs[:: max(1, grid.nx // 10)]
    return [(float(t), float(x)) for t in ts for x in xs]


def solve_single_obstacle(spec: ProblemSpec, grid: Grid) -> tuple[ValueField, ValueField]:
    """Backward induction for each player's own switching system, as the
    pair (single_lower, single_upper).

    With separated rewards f^{ij} = f1^i + f2^j (and likewise h) the
    coupled value is v1^i + v2^j, each a one-sided slice of the coupled
    level data, with the anchors i0, j0 the first modes:
    single_lower: player 1 alone, floor obstacle with costs1, f1^i = f^{i j0};
    single_upper: player 2 alone, ceiling obstacle with costs2,
    f2^j = f^{i0 j} - f^{i0 j0}.
    Both come from one level cache.  Requires separated rewards; raises
    PreconditionError otherwise.
    """
    report = check_separation(spec, _grid_samples(spec, grid))
    if not report.all_passed():
        raise PreconditionError(
            "rewards are not separated across players",
            witness=report.checks["separation"].witnesses[:1],
        )
    cache = _LevelCache(spec, grid)
    v1 = _clamp_pass(cache, cache.f[:, :, :1], cache.terminal[:, :1], costs1=cache.g1)
    v2 = _clamp_pass(cache, cache.f[:, :1] - cache.f[:, :1, :1],
                     cache.terminal[:1] - cache.terminal[:1, :1], costs2=cache.g2)
    return tuple(ValueField(system=system, mode_labels=tuple(modes),
                            values=v.reshape(-1, grid.nt, grid.nx), grid=grid)
                 for system, modes, v in (("single_lower", cache.modes1, v1),
                                          ("single_upper", cache.modes2, v2)))


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def sup_gap(field_a: ValueField, field_b: ValueField) -> float:
    """Sup-norm of the difference over the inner nodes (Grid.inner_mask),
    all time levels and all mode pairs."""
    if field_a.values.shape != field_b.values.shape:
        raise ValueError("fields have different shapes")
    if field_a.mode_labels != field_b.mode_labels:
        raise ValueError("fields have different mode labels")
    mask = field_a.grid.inner_mask()
    return float(np.max(np.abs(field_a.values[:, :, mask] - field_b.values[:, :, mask])))


@dataclass
class BarrierVerdict:
    passed: bool
    max_floor_violation: float
    max_ceiling_violation: float
    witnesses: list[dict] = field(default_factory=list)


def barrier_respect_check(field: ValueField, spec: ProblemSpec, grid: Grid,
                          tol: float) -> BarrierVerdict:
    """Check floor - tol <= v <= ceiling + tol at every inner node and pair."""
    modes1, modes2 = spec.modes.modes1, spec.modes.modes2
    values = field.values.reshape(len(modes1), len(modes2), grid.nt, grid.nx)
    g1, g2 = (np.moveaxis(g, 0, 2) for g in _grid_costs(spec, grid))  # (n, n, nt, nx)
    mask = grid.inner_mask()
    worst_by_side, witnesses = {}, []
    for side, excess in (("floor", floor(values, g1) - values),
                         ("ceiling", values - ceiling(values, g2))):
        excess = np.moveaxis(excess[..., mask], 2, 0)  # (nt, n1, n2, inner x)
        worst = excess.max(axis=-1)
        worst_by_side[side] = max(0.0, float(np.max(worst)))
        for k, a, b in np.argwhere(worst > tol):
            witnesses.append(
                {"side": side, "pair": [modes1[a], modes2[b]], "t_index": int(k),
                 "violation": float(worst[k, a, b]),
                 "x": float(grid.xs[mask][np.argmax(excess[k, a, b])])}
            )
    return BarrierVerdict(passed=not witnesses, max_floor_violation=worst_by_side["floor"],
                          max_ceiling_violation=worst_by_side["ceiling"], witnesses=witnesses)


def decomposition_check(coupled: ValueField, field1: ValueField, field2: ValueField) -> float:
    """Sup over the inner half-domain and all pairs of
    |v^{ij} - (v1^i + v2^j)|, with v^{ij} the coupled field (the
    descending-scheme field at the largest penalty) and (v1, v2) the fields
    of solve_single_obstacle on the same grid."""
    mask = coupled.grid.inner_mask()
    gap = 0.0
    for p_idx, (i, j) in enumerate(coupled.mode_labels):
        summed = field1.values[field1.index_of(i)] + field2.values[field2.index_of(j)]
        gap = max(gap, float(np.max(np.abs(coupled.values[p_idx][:, mask] - summed[:, mask]))))
    return gap
