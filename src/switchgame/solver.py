"""Backward finite-difference solvers for the coupled obstacle systems.

Two penalized schemes are provided.  The descending scheme (solve_minmax)
keeps the switching floor of player 1 as a hard constraint, enforced row by
row inside each implicit step and by a clamp sweep at the end of each time
level, and relaxes the player-2 ceiling through a reaction term

    - m * sum_{l != j} (v^{ij} - v^{il} - costs2_{jl})^+

whose strength m sweeps upward; fields decrease in m.  The ascending
scheme (solve_maxmin) mirrors this: hard ceiling, penalized floor

    + n * sum_{k != i} (v^{kj} - costs1_{ik} - v^{ij})^+

and fields increase in n.  Between them the discrete fields are sandwiched,
and as the penalty grows both converge to the same double-obstacle
solution; gap_table and sup_gap measure their residual distance.

The two schemes are mirror images (swap the players and negate the
rewards), so they share one level kernel: a scheme is its hard obstacle,
its penalized obstacle and the comparison and reduction of its side,
chosen once per scheme (_wavefront).  The level data they read,
drivers and switching costs, is indexed (mode, mode, t, x) like the values
and evaluated once over the whole (t, x) lattice (_LevelCache).

Within one time level the per-pair implicit steps are iterated to a joint
fixed point in lexicographic Gauss-Seidel order.  The reaction term is
handled semi-implicitly: the own component sits inside the tridiagonal
solve via an active-set (semismooth Newton) iteration, which keeps the
level update stable for arbitrarily large m * dt.

Each penalty level of the schedule is one backward pass, warm-started
from the pass before it, and a scheme's passes are solved as one backward
wavefront (_wavefront).  Pass p at time level k reads only its own
level k + 1 and, as its warm start, pass p - 1's level k, so it can start
as soon as pass p - 1 is done with that level: at wavefront step s, every
pass p with 0 <= s - p <= nt - 2 works on level nt - 2 - (s - p).  Those
passes are the rows of one array that every numpy operation of the level
kernel covers at once.  Each keeps its own lexicographic Gauss-Seidel
order, policies, tie width, sweep count and caps, and a row that has
settled takes no further update while the others run on; the tridiagonal
solves stay one per row (grid.solve_rows).  A pass is held only as its
latest level, which is all that it and the pass after it read next; only
the last pass, the field that is returned, is kept whole.  The report's
statistics, which cover every pass and level, are taken as the levels
finish.  Fields, reports and errors are those of solving the passes one
after the other: a failed wavefront is solved again one pass at a time
(_solve_ladder), so the first pass that fails raises its error, not a
later pass that failed at an earlier step.

The single-player solves run a plain backward clamp pass (_clamp_pass):
one implicit step per level, a level's mode pairs solved as the rows of one
grid.solve_rows call, then a clamp sweep.  The direct double-obstacle
cross-check of the tests (solve_clamped in tests/helpers.py) runs the same
pass with both obstacles, clamped in the order that matches the system
being approximated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, PreconditionError, SwitchgameError
from .expressions import EvalContext, evaluate, free_variables
from .grid import (CellLookup, GeneratorStencil, Grid, discretize_generator,  # noqa: F401
                   solve_banded, solve_rows)
from .model import (ProblemSpec, broadcast_stack, ceiling, check_separation, clamp_sweep,
                    cost_arrays, floor, sample_lattice)

_ACTIVE_SET_CAP = 64
FIXED_POINT_CAP = 500  # Gauss-Seidel sweeps over the pairs of one time level
# relative width of a rounding-level tie in a policy decision (_next_policy)
TIE_TOL = 1e-14
LEVEL_BLOCK = 32  # time levels per slice of the gap table (gap_table)


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

    def interp_x(self, level: int, x: np.ndarray, lookup: CellLookup | None = None) -> np.ndarray:
        """Every mode's values at a time level, interpolated linearly in x;
        row m is mode_labels[m]'s.  ``lookup`` is ``grid.locate(x)`` when
        the caller has it already (fields on one grid share it).

        Each row equals ``np.interp(x, grid.xs, values[m, level])`` bit for
        bit for finite x.  The grid is uniform, so one cell lookup serves
        every mode.  The arithmetic is np.interp's: the cell's slope
        (y[j+1] - y[j]) / (x[j+1] - x[j]), then slope * (x - x[j]) + y[j];
        a node hit returns the node value and points outside the grid the
        end value.
        """
        if lookup is None:
            lookup = self.grid.locate(x)
        ys = self.values[:, level, :]
        slopes = self._slopes[:, level, :]
        # far outside the grid the formula may overflow; those points are
        # replaced by the end values below
        with np.errstate(over="ignore", invalid="ignore"):
            out = slopes.take(lookup.cell, axis=1) * lookup.offset + ys.take(lookup.cell, axis=1)
        out[:, lookup.exact] = ys.take(lookup.nodes, axis=1)
        return out

    @functools.cached_property
    def _slopes(self) -> np.ndarray:
        """Every cell's slope (y[j+1] - y[j]) / (x[j+1] - x[j]), per mode and
        level: interp_x is called once per step of every path block."""
        xs = self.grid.xs
        return (self.values[..., 1:] - self.values[..., :-1]) / (xs[1:] - xs[:-1])

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
    """A scheme's penalty sweep, one entry per penalty level (sup_deltas
    from the second on), taken while the ladder is solved (_wavefront): no
    pass but the last is kept."""

    system: str
    penalty_levels: list[float] = field(default_factory=list)
    sup_deltas: list[float] = field(default_factory=list)
    penalty_excess: list[dict] = field(default_factory=list)
    iterations: list[int] = field(default_factory=list)
    monotonicity_violation: float = 0.0
    final_gap: float | None = None

    def to_dict(self) -> dict:
        return dict(vars(self))


# ---------------------------------------------------------------------------
# Per-level data cache
# ---------------------------------------------------------------------------


def _lattice(grid: Grid) -> EvalContext:
    """Every (t, x) node of the grid, t down the rows and x along them."""
    return EvalContext(grid.times[:, np.newaxis], grid.xs)


class _LevelCache:
    """The level data of one (spec, grid), shared by the solvers.

    The drivers f and both players' cost arrays g1, g2 are indexed
    (mode, mode, t, x) like the values, each expression evaluated once over
    the whole lattice; terminal is indexed (i, j, x), and the generator
    weights lower, center and upper of every time level are stacked (t, x).
    Each is stored at the shape its expressions need behind a read-only
    broadcast view (model.broadcast_stack); weights free of t are made once.
    """

    def __init__(self, spec: ProblemSpec, grid: Grid):
        self.grid = grid
        self.modes1 = spec.modes.modes1
        self.modes2 = spec.modes.modes2
        n1, n2 = len(self.modes1), len(self.modes2)
        lattice = _lattice(grid)
        drivers = {}
        self.terminal = np.empty((n1, n2, grid.nx))
        for (a, b), pair in zip(np.ndindex(n1, n2), spec.modes.pairs):
            drivers[a, b] = evaluate(spec.drivers.f[pair], lattice)
            self.terminal[a, b] = evaluate(spec.terminals.h[pair], EvalContext(spec.horizon, grid.xs))
        self.f = broadcast_stack(drivers, (n1, n2), (grid.nt, grid.nx))
        self.g1, self.g2 = cost_arrays(spec, lattice)
        free = free_variables(spec.diffusion.drift) | free_variables(spec.diffusion.volatility)
        times = grid.times if "t" in free else grid.times[:1]
        weights = np.empty((3, len(times), grid.nx))
        for k, t in enumerate(times):
            s = discretize_generator(spec, grid, t)
            weights[:, k] = s.lower, s.center, s.upper
        self.lower, self.center, self.upper = np.broadcast_to(weights, (3, grid.nt, grid.nx))

    def stencil(self, k) -> GeneratorStencil:
        """The generator stencil of time level k, or of each level in the
        list k, one row per level."""
        return GeneratorStencil(self.lower[k], self.center[k], self.upper[k])


# ---------------------------------------------------------------------------
# Penalized implicit solve with an active-set handling of the reaction term
# ---------------------------------------------------------------------------


def _next_policy(policy, proposed, lhs, rhs, tie):
    """The boolean policies for the next solve of a policy iteration, one
    row per pass, and the rows in which they differ from ``policy``.

    ``proposed`` is the policy that the decision margins lhs - rhs of the
    last solve ask for.  A node whose margin lies within ``tie`` keeps its
    current policy: clamp_sweep leaves values exactly on their obstacles,
    so margins tie at rounding level, and a plain comparison can flip such
    nodes back and forth without end.  The tie test runs only when the
    plain comparison asks for a change in some row.
    """
    if not (proposed != policy).any():
        return policy, np.zeros(len(policy), dtype=bool)
    proposed = np.where(np.abs(lhs - rhs) <= tie, policy, proposed)
    return proposed, (proposed != policy).any(axis=-1)


def _solve_reaction_rows(bands, rhs, thresholds, scale, beyond, contact, bound, w, tie, live):
    """Newton iteration on the penalty active sets with a frozen contact set.

    Each row of the (rows, nx) arrays is one pass (penalty level m), scale
    is dt * m at each node, and ``bands`` holds each row's I - dt L in
    solve_banded's layout on its first axis; only the ``live`` rows are
    solved.  Contact nodes are identity rows pinned to the obstacle; the
    remaining nodes carry (I - dt L) w + reaction = rhs, with the
    piecewise-linear reaction linearized on its current active set, the
    nodes where ``beyond(w, c)``.  The reaction is convex (beyond
    np.greater) or concave (np.less) in w, so the active-set iteration is
    monotone and settles in a few tridiagonal solves, nodes within ``tie``
    of a threshold keeping their side (_next_policy); a settled row is not
    solved again.  Returns w; raises at the first row whose solve fails, or
    whose active set still changes after _ACTIVE_SET_CAP solves.
    """
    live = live.copy()
    active = [beyond(w, c) for c in thresholds]
    for _ in range(_ACTIVE_SET_CAP):
        diag = np.zeros(rhs.shape)
        extra = np.zeros(rhs.shape)
        for act, c in zip(active, thresholds):
            reacting = scale * act
            diag += reacting
            extra += reacting * c
        ab = bands.copy()
        ab[1] += diag
        b = rhs + extra
        if contact.any():
            ab[0, :, 1:][contact[:, :-1]] = 0.0
            ab[1][contact] = 1.0
            ab[2, :, :-1][contact[:, 1:]] = 0.0
            b = np.where(contact, bound, b)
        prev, w = w, w.copy()
        solve_rows(ab, b, w, live)
        moving = np.zeros_like(live)
        proposed = []
        for act, c in zip(active, thresholds):
            policy, changed = _next_policy(act, beyond(w, c), w, c, tie)
            proposed.append(policy)
            moving |= changed
        live &= moving
        if not live.any():
            return w
        active = proposed
    r = live.argmax()
    raise ConvergenceError(f"reaction active set still changing after {_ACTIVE_SET_CAP} solves",
                           residual=float(np.max(np.abs(w[r] - prev[r]))))


def _pair_step(stencil, bands, dt, rhs, thresholds, scale, bound, side, w, tie, live):
    """Solve one pair's implicit step with its reaction term and hard
    obstacle, for the live rows (passes) of the (rows, nx) arrays.

    side is (np.greater, np.maximum) in the descending scheme:
        min( w - bound,  (I - dt L) w + scale * sum_c max(w - c, 0) - rhs ) = 0
    and (np.less, np.minimum) in the ascending one:
        max( w - bound,  (I - dt L) w + scale * sum_d min(w - d, 0) - rhs ) = 0

    with bound the floor (resp. ceiling) built from the current iterate of
    the other mode pairs; it is -inf (resp. +inf) for a single-mode player,
    which leaves the contact set empty.  min(w - d, 0) is -max(d - w, 0)
    exactly, so the one kernel serves both schemes.  The obstacle is
    enforced node by node through a policy iteration on the contact set
    (each trial policy solved exactly by _solve_reaction_rows); enforcing
    it inside the rows rather than projecting afterwards is what makes the
    discrete comparison between the two schemes exact.  A node where
    w - bound and the residual tie within ``tie`` keeps its policy
    (_next_policy), and a row whose policy has settled is not solved again.
    Returns w; raises at the first row whose level solve fails, or whose
    contact set still changes after _ACTIVE_SET_CAP policies.
    """
    beyond, clip = side
    live = live.copy()
    contact = beyond(bound, w)
    for _ in range(_ACTIVE_SET_CAP):
        prev = w
        w = _solve_reaction_rows(bands, rhs, thresholds, scale, beyond, contact, bound, w, tie,
                                 live)
        reaction = np.zeros(rhs.shape)
        for c in thresholds:
            reaction += scale * clip(w - c, 0.0)
        resid = w - dt * stencil.apply(w) + reaction - rhs
        gap = w - bound
        contact, changed = _next_policy(contact, beyond(resid, gap), gap, resid, tie)
        live &= changed
        if not live.any():
            return w
    r = live.argmax()
    raise ConvergenceError(f"contact policy still changing after {_ACTIVE_SET_CAP} policies",
                           residual=float(np.max(np.abs(w[r] - prev[r]))))


def _level_rhs(vnext: np.ndarray, dt: float, f: np.ndarray, k: int) -> np.ndarray:
    """The implicit step's right-hand side vnext + dt * f at time level k,
    for every pair at once; raises SwitchgameError when it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = vnext + dt * f
    if not np.all(np.isfinite(rhs)):
        raise SwitchgameError(f"the implicit step overflows at time level {k}: "
                              "its right-hand side is not finite")
    return rhs


def _excess_maxima(levels: np.ndarray, soft_k: np.ndarray, direction: str) -> np.ndarray:
    """Max over x of the sum of the reaction term's obstacle excesses,
    (v^{ij} - v^{il} - costs2_{jl})^+ descending and
    (v^{kj} - costs1_{ik} - v^{ij})^+ ascending, indexed (i, j, row) like
    the levels (i, j, row, x); soft_k holds the costs of each row's level.
    The own mode's excess is 0 through the infinite diagonal cost."""
    if direction == "minmax":  # indexed (i, j, l, row, x)
        excess, terms = levels[:, :, np.newaxis] - levels[:, np.newaxis] - soft_k, 2
    else:  # indexed (k, i, j, row, x)
        excess, terms = floor(levels, soft_k, each=True) - levels, 0
    return np.maximum(excess, 0.0).sum(axis=terms).max(axis=-1)


def _wavefront(cache: _LevelCache, direction: str, penalties: tuple[float, ...], tol: float,
               warm: np.ndarray | None = None):
    """The backward passes of the penalty levels ``penalties``, as one
    wavefront (see the module docstring).  The first pass starts each level
    from ``warm``, the field of the pass before it, or from its own next
    level when ``warm`` is None.

    The scheme's hard obstacle, its penalized obstacle, the mode axis of the
    penalized player, the kernel's side and the end-of-level clamp are
    chosen once, here; the level loop is the same for both schemes.  Arrays
    of one wavefront step are indexed (mode, mode, row, x), one row per
    pass.  Each pass keeps only its latest level.

    Returns the last pass's values, shape (n1, n2, nt, nx), and per pass
    its fixed-point sweep count and the report's statistics over its whole
    field: _excess_maxima, indexed (i, j, pass), the max |change| from the
    pass before (``warm`` for the first pass; 0 without it) and the max
    rise against the scheme's direction.  They are running maxima over the
    levels as they finish, seeded with the terminal level; np.maximum keeps
    a NaN as np.max over the field does.  Raises the first error it meets,
    which may be a later pass's than the first that fails (_solve_ladder).
    """
    grid = cache.grid
    n1, n2 = len(cache.modes1), len(cache.modes2)
    nt, nx, dt = grid.nt, grid.nx, grid.dt
    if direction == "minmax":
        hard, hard_costs, soft, soft_costs, own_axis = floor, cache.g1, ceiling, cache.g2, 1
        side, clamp_key = (np.greater, np.maximum), "costs1"
    else:
        hard, hard_costs, soft, soft_costs, own_axis = ceiling, cache.g2, floor, cache.g1, 0
        side, clamp_key = (np.less, np.minimum), "costs2"
    n_passes = len(penalties)
    latest = np.empty((n_passes, n1, n2, nx))  # each pass's latest level
    latest[:] = cache.terminal
    last = np.empty((n1, n2, nt, nx))
    last[:, :, nt - 1, :] = cache.terminal
    iterations = np.zeros(n_passes, dtype=int)
    excess = np.repeat(_excess_maxima(cache.terminal[:, :, np.newaxis],
                                      soft_costs[:, :, [nt - 1]], direction), n_passes, axis=2)
    # the terminal level, which every pass shares, changes by 0
    deltas, rises = np.zeros(n_passes), np.zeros(n_passes)

    for step in range(nt - 2 + n_passes):
        rows = [(p, nt - 2 - (step - p))
                for p in range(max(0, step - (nt - 2)), min(step + 1, n_passes))]
        passes, ks = zip(*rows)
        rhs = np.stack([_level_rhs(latest[p], dt, cache.f[:, :, k], k) for p, k in rows], axis=2)
        # pass p - 1 made its level k one step ago
        start = np.stack([latest[p - 1] if p else latest[p] if warm is None else warm[:, :, k]
                          for p, k in rows], axis=2)
        cur = start.copy()
        hard_k, soft_k = hard_costs[:, :, ks], soft_costs[:, :, ks]
        stencil = cache.stencil(list(ks))
        bands = stencil.implicit_bands(dt)
        # dt * penalty and the tie width (_next_policy) of each row, at every node
        scale = np.repeat(dt * np.array([penalties[p] for p in passes])[:, np.newaxis], nx, axis=1)
        peak = np.abs(cur).max(axis=(0, 1, 3))[:, np.newaxis]
        tie = np.repeat(TIE_TOL * (1.0 + peak), nx, axis=1)
        # a pair's error names the first row, though a later row may have
        # failed: only one-pass wavefronts raise out of _solve_ladder
        where = f"penalty {penalties[passes[0]]:g}, time level {ks[0]}"

        live = np.ones(len(rows), dtype=bool)
        sweeps = np.zeros(len(rows), dtype=int)
        for _ in range(FIXED_POINT_CAP):
            sweeps += live
            residual = np.zeros(len(rows))
            for a, b in np.ndindex(n1, n2):
                bound = hard(cur, hard_k, (a, b))
                # the penalized obstacle's candidates, own mode left out; none
                # at all for a single-mode player
                cands = soft(cur, soft_k, (a, b), each=True)
                thresholds = [c for m, c in enumerate(cands) if m != (a, b)[own_axis]]
                try:
                    w = _pair_step(stencil, bands, dt, rhs[a, b], thresholds, scale, bound, side,
                                   cur[a, b], tie, live)
                except ConvergenceError as exc:
                    raise ConvergenceError(
                        f"{direction} at {where}, pair ({cache.modes1[a]},{cache.modes2[b]}): "
                        f"{exc.message}", residual=exc.residual) from exc
                residual = np.maximum(residual, np.abs(w - cur[a, b]).max(axis=-1))
                cur[a, b] = w
            live &= ~(residual < tol)
            if not live.any():
                break
        if live.any():
            r = live.argmax()  # the first row still live, as _pair_step names it
            raise ConvergenceError(f"{direction} fixed point stalled at penalty "
                                   f"{penalties[passes[r]]:g}, time level {ks[r]}",
                                   residual=float(residual[r]))
        clamped = clamp_sweep(cur, **{clamp_key: hard_k})
        lo, hi = passes[0], passes[-1] + 1
        iterations[lo:hi] += sweeps
        excess[:, :, lo:hi] = np.maximum(excess[:, :, lo:hi],
                                         _excess_maxima(clamped, soft_k, direction))
        # the first pass has no pass before it unless it is warm-started
        first = int(lo == 0 and warm is None)
        change = clamped[:, :, first:] - start[:, :, first:]
        # descending must not increase, ascending must not decrease
        rise = change if direction == "minmax" else -change
        known = slice(lo + first, hi)
        deltas[known] = np.maximum(deltas[known], np.abs(change).max(axis=(0, 1, 3)))
        rises[known] = np.maximum(rises[known], rise.max(axis=(0, 1, 3)))
        latest[lo:hi] = np.moveaxis(clamped, 2, 0)
        if hi == n_passes:
            last[:, :, ks[-1]] = clamped[:, :, -1]
    return last, iterations, excess, deltas, rises


def _solve_ladder(cache: _LevelCache, direction: str, schedule: PenaltySchedule):
    """_wavefront's results for the whole schedule: one wavefront, or when
    that fails one per pass, each warm-started from the whole field of the
    pass before, which raise in pass order."""
    levels, tol = schedule.levels, schedule.fixed_point_tol
    try:
        return _wavefront(cache, direction, levels, tol)
    except Exception:
        warm, per_pass = None, []
        for m in levels:
            warm, *stats = _wavefront(cache, direction, (m,), tol, warm)
            per_pass.append(stats)
        return warm, *(np.concatenate(s, axis=-1) for s in zip(*per_pass))


def _sweep(spec: ProblemSpec, grid: Grid, schedule: PenaltySchedule, direction: str):
    cache = _LevelCache(spec, grid)
    values, iterations, excess, deltas, rises = _solve_ladder(cache, direction, schedule)
    report = SolveReport(system=direction, penalty_levels=list(schedule.levels),
                         iterations=iterations.tolist(), sup_deltas=deltas[1:].tolist())
    for p, m in enumerate(schedule.levels):
        report.penalty_excess.append({f"{cache.modes1[a]},{cache.modes2[b]}":
                                      max(0.0, m * float(excess[a, b, p]))
                                      for a, b in np.ndindex(excess.shape[:2])})
    for rise in rises[1:].tolist():
        report.monotonicity_violation = max(report.monotonicity_violation, rise)
    return ValueField(system=direction, mode_labels=spec.modes.pairs,
                      values=values.reshape(-1, grid.nt, grid.nx), grid=grid,
                      penalty=schedule.levels[-1]), report


def solve_minmax(spec: ProblemSpec, grid: Grid, schedule: PenaltySchedule):
    """Descending penalized scheme: hard floor, penalized ceiling.

    Caller is responsible for having validated costs and terminal
    consistency.  Returns the field at the last penalty level and the
    report of the whole sweep (SolveReport).
    """
    return _sweep(spec, grid, schedule, "minmax")


def solve_maxmin(spec: ProblemSpec, grid: Grid, schedule: PenaltySchedule):
    """Ascending penalized scheme: hard ceiling, penalized floor."""
    return _sweep(spec, grid, schedule, "maxmin")


def _clamp_pass(cache: _LevelCache, f: np.ndarray, terminal: np.ndarray,
                costs1: np.ndarray | None = None, costs2: np.ndarray | None = None,
                floor_last: bool = False) -> np.ndarray:
    """Backward pass over values indexed (i, j, t, x): per pair one plain
    implicit step from the next level with source f[i, j, k], the pairs of
    a level solved as the rows of one solve_rows call, then
    clamp_sweep with the level's costs1[:, :, k] and costs2[:, :, k] (either
    may be None, leaving that obstacle out).  f and the costs are indexed
    (mode, mode, t, x) and terminal (i, j, x), like the cache's own arrays,
    of which they may be slices.  A failed step raises the error of the
    first pair, in pair order, that fails.  solve_single_obstacle and the
    tests' clamped cross-check (tests/helpers.py) call it.
    """
    n1, n2, nx = terminal.shape
    nt, dt = cache.grid.nt, cache.grid.dt
    v = np.empty((n1, n2, nt, nx))
    v[:, :, nt - 1, :] = terminal
    for k in range(nt - 2, -1, -1):
        rhs = _level_rhs(v[:, :, k + 1], dt, f[:, :, k], k).reshape(n1 * n2, nx)
        bands = cache.stencil(k).implicit_bands(dt)  # the level's one I - dt L
        stepped = np.empty_like(rhs)
        solve_rows(np.broadcast_to(bands[:, np.newaxis], (3,) + rhs.shape), rhs, stepped,
                   np.ones(n1 * n2, dtype=bool))
        v[:, :, k, :] = clamp_sweep(stepped.reshape(n1, n2, nx),
                                    None if costs1 is None else costs1[:, :, k],
                                    None if costs2 is None else costs2[:, :, k], floor_last)
    return v


# ---------------------------------------------------------------------------
# Single-player systems (separated rewards)
# ---------------------------------------------------------------------------


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
    report = check_separation(spec, sample_lattice(spec))
    if not report.all_passed():
        raise PreconditionError(
            "rewards are not separated across players",
            witness=report.checks["separation"].witnesses[:1],
        )
    cache = _LevelCache(spec, grid)
    v1 = _clamp_pass(cache, cache.f[:, :1], cache.terminal[:, :1], costs1=cache.g1)
    v2 = _clamp_pass(cache, cache.f[:1] - cache.f[:1, :1],
                     cache.terminal[:1] - cache.terminal[:1, :1], costs2=cache.g2)
    return tuple(ValueField(system=system, mode_labels=tuple(modes),
                            values=v.reshape(-1, grid.nt, grid.nx), grid=grid)
                 for system, modes, v in (("single_lower", cache.modes1, v1),
                                          ("single_upper", cache.modes2, v2)))


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def gap_table(field_a: ValueField, field_b: ValueField) -> np.ndarray:
    """The max over the mode pairs of |a - b| at each time level and inner
    node (Grid.inner_mask), shape (nt, inner nodes), taken over slices of
    LEVEL_BLOCK time levels: the gap table of ``solve --system both``."""
    if field_a.values.shape != field_b.values.shape:
        raise ValueError("fields have different shapes")
    if field_a.mode_labels != field_b.mode_labels:
        raise ValueError("fields have different mode labels")
    grid = field_a.grid
    mask = grid.inner_mask()
    out = np.empty((grid.nt, int(mask.sum())))
    for k in range(0, grid.nt, LEVEL_BLOCK):
        s = slice(k, k + LEVEL_BLOCK)
        out[s] = np.max(np.abs(field_a.values[:, s] - field_b.values[:, s]), axis=0)[:, mask]
    return out


def sup_gap(field_a: ValueField, field_b: ValueField) -> float:
    """Sup-norm of the difference over the inner nodes, all time levels and
    all mode pairs: the max of gap_table."""
    return float(np.max(gap_table(field_a, field_b)))


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
    g1, g2 = cost_arrays(spec, _lattice(grid))
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
