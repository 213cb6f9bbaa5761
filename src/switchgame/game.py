"""Discrete switching game: strategies, payoffs, saddle construction and the
deterministic backward-induction oracle.

Conventions.  A switch declared at grid step k pays its cost at (t_k, X_k)
and changes the mode indicator from step k+1 on (a switch declared at the
final step changes nothing but still pays, so strategies should not do
that).  The running reward on the interval [t_k, t_{k+1}) is integrated by
left-endpoint quadrature in (t, x) using the mode pair that prevails on the
open interval, i.e. after any declaration at step k.  This aligns the
Monte Carlo payoff exactly with the backward-induction oracle on frozen
dynamics: an oracle switch at level k is a declaration at step k.

Player 1 maximizes the payoff

    h(X_T) + sum_k f(t_k, X_k) dt  -  (player-1 switch costs)
                                   +  (player-2 switch costs)

and player 2 minimizes it; player 2's own switching costs are charged
against it by entering the payoff with a plus sign.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityError, ExpressionDomainError, PreconditionError
from .expressions import EvalContext, evaluate, evaluate_all
from .model import ProblemSpec, ceiling, clamp_sweep, cost_arrays, floor
from .simulate import PathBundle
from .solver import ValueField

SWITCH_CAP = 64  # declarations per path
TRIGGER_TOL = 1e-9  # feedback trigger tolerance on value comparisons
RANDOM_SWITCH_RATE = 0.05  # per-step switch probability of the random challenger
Z_SCORE = 3.0  # standard errors a saddle inequality or the PDE comparison may miss by
PDE_ALLOWANCE = 2e-2  # added to the PDE comparison's tolerance


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RealizedStrategy:
    """A strategy materialized against one path bundle.

    track[k, p] is the position in ``labels`` of the player's mode at grid
    step k on path p (left-limit convention: a switch declared at step s
    shows from step s+1).  The extra last row, n_steps + 1, also takes a
    declaration at the final step, which never shows in the mode but still
    pays, so each change between rows k and k+1 is one declaration at step
    k.  Positions are in the smallest unsigned dtype that holds them.  An
    explicit schedule's track is one column broadcast over the paths,
    read-only.
    """

    player: int
    labels: tuple[int, ...]
    track: np.ndarray  # (n_steps + 2, n_paths) mode positions

    @property
    def modes(self) -> np.ndarray:
        """modes[p, k]: the mode label at grid step k on path p."""
        return np.asarray(self.labels)[self.track[:-1]].T


@dataclass(frozen=True)
class SwitchingStrategy:
    """Either an explicit schedule of (step, target) declarations shared by
    every path, or a feedback rule driven by a single-player value field."""

    player: int
    start_mode: int
    schedule: tuple[tuple[int, int], ...] | None = None
    feedback_field: ValueField | None = None

    def realize(self, spec: ProblemSpec, bundle: PathBundle) -> RealizedStrategy:
        return realize_strategies((self,), spec, bundle)[0]


def realize_strategies(strategies, spec: ProblemSpec, bundle: PathBundle) -> list[RealizedStrategy]:
    """Each strategy realized against ``bundle``: the feedback rules
    together in one pass over the steps, then the explicit schedules in
    order.  Should the feedback pass raise, each strategy is realized again
    on its own, in order, so the error raised is the one of the first
    strategy that fails, as realizing them one by one would raise it."""
    try:
        for strategy in strategies:
            if strategy.start_mode not in _player_modes(spec, strategy.player):
                raise ValueError(f"start mode {strategy.start_mode} is not a mode "
                                 f"of player {strategy.player}")
        feedback = [s for s in strategies if s.feedback_field is not None]
        realized = iter(_realize_feedback(feedback, spec, bundle) if feedback else ())
    except (ValueError, ExpressionDomainError, AdmissibilityError):
        if len(strategies) > 1:
            for strategy in strategies:
                realize_strategies((strategy,), spec, bundle)
        raise
    return [next(realized) if s.feedback_field is not None else _realize_explicit(s, spec, bundle)
            for s in strategies]


def _player_modes(spec: ProblemSpec, player: int) -> tuple[int, ...]:
    return spec.modes.modes1 if player == 1 else spec.modes.modes2


def never_switch(player: int, start_mode: int) -> SwitchingStrategy:
    return SwitchingStrategy(player=player, start_mode=start_mode, schedule=())


def switch_at_start(spec: ProblemSpec, player: int, start_mode: int) -> SwitchingStrategy:
    """Jump to the next mode label at the first grid time, then hold."""
    modes = _player_modes(spec, player)
    others = [m for m in modes if m != start_mode]
    if not others:
        return never_switch(player, start_mode)
    return SwitchingStrategy(player=player, start_mode=start_mode,
                             schedule=((0, others[0]),))


def switch_every_step(spec: ProblemSpec, player: int, start_mode: int,
                      cap: int = SWITCH_CAP) -> SwitchingStrategy:
    """Cost-bleeding challenger: alternate between two modes every step."""
    modes = _player_modes(spec, player)
    others = [m for m in modes if m != start_mode]
    if not others:
        return never_switch(player, start_mode)
    schedule = []
    cur = start_mode
    for step in range(cap):
        nxt = others[0] if cur == start_mode else start_mode
        schedule.append((step, nxt))
        cur = nxt
    return SwitchingStrategy(player=player, start_mode=start_mode, schedule=tuple(schedule))


def random_switch(spec: ProblemSpec, player: int, start_mode: int, seed: int,
                  n_steps: int) -> SwitchingStrategy:
    """Seeded random challenger: at each step switch to a uniform other mode
    with probability RANDOM_SWITCH_RATE."""
    modes = _player_modes(spec, player)
    others = [m for m in modes if m != start_mode]
    if not others:
        return never_switch(player, start_mode)
    rng = np.random.Generator(np.random.Philox(key=seed))
    schedule = []
    cur = start_mode
    for step in range(n_steps):
        if rng.random() < RANDOM_SWITCH_RATE and len(schedule) < SWITCH_CAP:
            choices = [m for m in modes if m != cur]
            cur = choices[rng.integers(len(choices))]
            schedule.append((step, cur))
    return SwitchingStrategy(player=player, start_mode=start_mode, schedule=tuple(schedule))


def _realize_explicit(strategy: SwitchingStrategy, spec: ProblemSpec,
                      bundle: PathBundle) -> RealizedStrategy:
    n_paths = bundle.n_paths
    n_steps = bundle.n_steps
    modes = _player_modes(spec, strategy.player)
    schedule = list(strategy.schedule or ())
    if any(s2 < s1 for (s1, _), (s2, _) in zip(schedule, schedule[1:])):
        raise ValueError("switch steps must be non-decreasing")
    if len(schedule) > SWITCH_CAP:
        raise AdmissibilityError("explicit schedule exceeds switch cap", path_index=0)

    # same-step duplicates: the last declaration wins
    deduped: dict[int, int] = {}
    dupes = False
    for step, target in schedule:
        if not (0 <= step <= n_steps):
            raise ValueError(f"switch step {step} outside the simulation grid")
        if target not in modes:
            raise ValueError(f"switch target {target} is not a mode of player {strategy.player}")
        if step in deduped:
            dupes = True
        deduped[step] = target
    if dupes:
        warnings.warn("multiple switches declared at one step; the last one wins")

    track = np.full(n_steps + 2, modes.index(strategy.start_mode),
                    dtype=np.min_scalar_type(len(modes) - 1))
    cur = strategy.start_mode
    for step in sorted(deduped):
        target = deduped[step]
        if target == cur:
            raise ValueError(f"switch at step {step} targets the current mode {cur}")
        track[step + 1:] = modes.index(target)
        cur = target
    return RealizedStrategy(player=strategy.player, labels=modes,
                            track=np.broadcast_to(track[:, None], (n_steps + 2, n_paths)))


def _nearest_level(times: np.ndarray, t: float) -> int:
    return int(np.argmin(np.abs(times - t)))


class _Rollout:
    """One feedback rule's state in the joint pass of _realize_feedback.

    Tables over (mode position, path) are read through ``flat``, each
    path's index cur * n_paths + path, so one take picks every path's entry
    for its current mode.
    """

    def __init__(self, strategy: SwitchingStrategy, spec: ProblemSpec, n_paths: int, n_steps: int):
        self.field = strategy.feedback_field
        self.player = strategy.player
        self.modes = _player_modes(spec, self.player)
        table = spec.costs.costs1 if self.player == 1 else spec.costs.costs2
        # per source position, [(target position, cost)] in the player's mode order
        self.costs = [[(b, table[(source, target)]) for b, target in enumerate(self.modes)
                       if target != source] for source in self.modes]
        rows = [self.field.index_of(m) for m in self.modes]
        self.rows = None if rows == list(range(len(self.field.mode_labels))) else rows
        n = len(self.modes)
        self.n_paths = n_paths
        self.cur = np.full(n_paths, self.modes.index(strategy.start_mode),
                           dtype=np.min_scalar_type(n - 1))
        self.flat = self.cur.astype(np.intp) * n_paths + np.arange(n_paths)
        self.counts = np.zeros(n_paths, dtype=np.int64)
        self.track = np.empty((n_steps + 2, n_paths), dtype=self.cur.dtype)
        self.track[:] = self.cur  # with a single mode nothing fires: the start fills the track
        self.best = np.empty((n, n_paths))
        self.target = np.empty((n, n_paths), dtype=self.cur.dtype)

    def step(self, k: int, t: float, xk: np.ndarray, values: np.ndarray) -> None:
        """Fire the trigger at grid step k on every path; ``values`` are the
        field's rows at (t, xk).

        Every source mode goes at once, over the whole row.  Should that
        raise, the step is replayed as the one-mode-at-a-time rule takes
        it: each source mode in declared order, on the paths that were in
        it when the step began, so the first mode that fails raises and a
        cost that fails only off its mode's paths does not.
        """
        if self.rows is not None:
            values = values[self.rows]
        if self.player == 2:
            values = np.negative(values, out=values)
        try:
            self._fire(t, xk, values, range(len(self.modes)))
        except (ExpressionDomainError, AdmissibilityError):
            for a, paths in [(a, np.flatnonzero(self.cur == a)) for a in range(len(self.modes))]:
                if paths.size:
                    self._fire(t, xk, values, (a,), paths)
        self.track[k + 1:k + 3] = self.cur  # and the row after, until the next step writes it

    def _fire(self, t: float, xk: np.ndarray, values: np.ndarray, sources, paths=None) -> None:
        """Fire the trigger of the source positions ``sources`` on ``paths``
        (every path when None), each of which is in one of them.  Each
        source's best target is found over those paths and every path then
        reads its own mode's entry.  Raises at the first failure, the cap at
        the first path over it, and commits nothing then."""
        if paths is not None:
            xk, values = xk[paths], values[:, paths]
        m = xk.size
        best, target = self.best[:, :m], self.target[:, :m]
        flat = self.flat if paths is None else self.cur[paths].astype(np.intp) * m + np.arange(m)
        costly = []
        for a in sources:
            for n, (b, tree) in enumerate(self.costs[a]):
                cost = evaluate(tree, EvalContext(t, xk))
                if n == 0:
                    np.subtract(values[b], cost, out=best[a])
                    target[a] = b
                    backed = cost > TRIGGER_TOL
                    continue
                cand = values[b] - cost
                better = cand > best[a]
                np.copyto(best[a], cand, where=better)
                target[a][better] = b
                backed = np.where(better, cost > TRIGGER_TOL, backed)
            costly.append((a, backed))
        own = values.take(flat)
        reach = best.take(flat)
        fire = own <= reach + TRIGGER_TOL
        # a touch with an essentially free switch is pure indifference
        # (both modes then carry the same value forever), so only a strict
        # gain or a touch backed by a real cost fires
        if not all(np.ndim(c) == 0 and c for _, c in costly):
            table = np.empty(best.shape, dtype=bool)
            for a, backed in costly:
                table[a] = backed
            fire &= (own < reach - TRIGGER_TOL) | table.take(flat)
        idx = np.flatnonzero(fire)
        if idx.size:
            where = idx if paths is None else paths[idx]
            counts = self.counts[where] + 1
            over = where[counts > SWITCH_CAP]
            if over.size:
                raise AdmissibilityError("feedback strategy exceeded the switch cap",
                                         path_index=int(over[0]))
            new = target.take(flat[idx])
            self.counts[where] = counts
            self.cur[where] = new
            self.flat[where] = new.astype(np.intp) * self.n_paths + where


def _realize_feedback(strategies, spec: ProblemSpec, bundle: PathBundle) -> list[RealizedStrategy]:
    """Vectorized rollout of the value-field trigger rules over all paths,
    every rule in one pass over the steps; the first error met raises.

    At each grid step (the terminal step excluded: a switch there can only
    bleed cost) a rule fires when the current mode's value is dominated,
    within TRIGGER_TOL, by the best reachable value net of switching cost;
    the target is the first maximizing (player 1) or minimizing (player 2)
    mode in the player's declared mode order, which need not be the
    smallest label (the oracle's tie-break).  Field values are interpolated
    linearly in x and looked up at the nearest field time level; fields on
    one grid share the step's cell lookup.

    Player 2's rule is player 1's on negated values: negation is exact and
    rounding symmetric in sign, so (-v) - c == -(v + c) bit for bit, and
    comparisons ignore the sign of zero.
    """
    n_paths, n_steps = bundle.n_paths, bundle.n_steps
    rollouts = [_Rollout(s, spec, n_paths, n_steps) for s in strategies]
    live = [r for r in rollouts if len(r.modes) > 1]
    for k, xk in enumerate(bundle.states.T[:n_steps] if live else ()):
        t = float(bundle.times[k])
        lookups = {}
        for rollout in live:
            fld = rollout.field
            if id(fld.grid) not in lookups:
                lookups[id(fld.grid)] = (_nearest_level(fld.grid.times, t), fld.grid.locate(xk))
            level, lookup = lookups[id(fld.grid)]
            rollout.step(k, t, xk, fld.interp_x(level, xk, lookup))
    return [RealizedStrategy(player=r.player, labels=r.modes, track=r.track) for r in rollouts]


def saddle_strategy(field: ValueField, start_mode: int) -> SwitchingStrategy:
    """The feedback rule of a single-player field: player 1's from a
    single_lower field, switching when its own value touches its switching
    floor, and player 2's from a single_upper field, against its switching
    ceiling.  Raises PreconditionError for any other field."""
    player = {"single_lower": 1, "single_upper": 2}.get(field.system)
    if player is None:
        raise PreconditionError(f"not a single-player field: {field.system}")
    return SwitchingStrategy(player=player, start_mode=start_mode, feedback_field=field)


# ---------------------------------------------------------------------------
# Costs, payoff
# ---------------------------------------------------------------------------


def _switch_costs(realized: RealizedStrategy, spec: ProblemSpec,
                  bundle: PathBundle) -> tuple[np.ndarray, np.ndarray]:
    """Total switching cost and number of declarations per path, read off
    the track; declarations at the final step count.

    Costs are added pair by pair, in the player's mode order of the
    (source, target) pairs, and in step order within a pair.
    """
    table = spec.costs.costs1 if realized.player == 1 else spec.costs.costs2
    track, labels, n_paths = realized.track, realized.labels, bundle.n_paths
    # a change between rows k and k + 1 is a declaration at step k
    if track.strides[1] == 0:
        # one column broadcast over the paths: its steps, on every path, in
        # the row-major order of the general case
        steps = np.flatnonzero(track[1:, 0] != track[:-1, 0])
        step, path = np.repeat(steps, n_paths), np.tile(np.arange(n_paths), len(steps))
    else:
        step, path = np.divmod(np.flatnonzero(track[1:] != track[:-1]), n_paths)
    n = len(labels)
    codes = track[step, path].astype(np.intp) * n + track[step + 1, path]
    t_at, x_at = bundle.times[step], bundle.states[path, step]
    out = np.zeros(n_paths)
    for code in np.unique(codes):
        mask = codes == code
        pair = (labels[code // n], labels[code % n])
        costs = np.asarray(
            evaluate(table[pair], EvalContext(t_at[mask], x_at[mask])), dtype=float
        )
        np.add.at(out, path[mask], np.broadcast_to(costs, (int(mask.sum()),)))
    return out, np.bincount(path, minlength=n_paths)


@dataclass(frozen=True, eq=False)
class PayoffEstimate:
    mean: float
    stderr: float
    n_paths: int
    per_path: np.ndarray
    cost1_per_path: np.ndarray
    cost2_per_path: np.ndarray
    switches1: np.ndarray
    switches2: np.ndarray

    @classmethod
    def of_paths(cls, per_path, cost1_per_path, cost2_per_path, switches1,
                 switches2) -> PayoffEstimate:
        """The estimate whose per-path arrays these are: their mean and its
        standard error."""
        n_paths = per_path.size
        return cls(
            mean=float(np.mean(per_path)),
            stderr=float(np.std(per_path, ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0,
            n_paths=n_paths, per_path=per_path,
            cost1_per_path=cost1_per_path, cost2_per_path=cost2_per_path,
            switches1=switches1, switches2=switches2,
        )


_PER_PATH = ("per_path", "cost1_per_path", "cost2_per_path", "switches1", "switches2")


def join_payoffs(parts) -> list[PayoffEstimate]:
    """Per roster entry, the estimates of consecutive ranges of paths, in
    path order, joined into the estimate of all of them."""
    return [PayoffEstimate.of_paths(*(np.concatenate([getattr(e, name) for e in entry])
                                      for name in _PER_PATH))
            for entry in zip(*parts)]


def _realized(strategy: SwitchingStrategy | RealizedStrategy, spec: ProblemSpec,
              bundle: PathBundle) -> RealizedStrategy:
    if not isinstance(strategy, RealizedStrategy):
        return strategy.realize(spec, bundle)
    if strategy.track.shape != (bundle.n_steps + 2, bundle.n_paths):
        raise ValueError("realized strategy does not match the path bundle")
    return strategy


def payoff_estimate(spec: ProblemSpec, bundle: PathBundle,
                    strategy1: SwitchingStrategy | RealizedStrategy,
                    strategy2: SwitchingStrategy | RealizedStrategy) -> PayoffEstimate:
    """Monte Carlo payoff of a strategy pair on a common path bundle.

    Either strategy may come already realized against this bundle; it is
    then used as is.
    """
    return payoff_estimates(spec, bundle, [(strategy1, strategy2)])[0]


def payoff_estimates(spec: ProblemSpec, bundle: PathBundle, roster) -> list[PayoffEstimate]:
    """payoff_estimate of every (strategy1, strategy2) entry of ``roster``,
    in one pass over the steps.

    At each step every pair's driver (at the terminal step, its terminal)
    is evaluated once on the whole row of paths, with evaluate_all, so a
    subtree that several drivers share is computed once; the values go into
    a path-major (path, pair) table, from which each entry takes its own
    with one index add and one take.  Should a driver fail on the row, that
    step falls back to evaluating each pair only on the paths that some
    entry places in it, so a failure on such a path raises and a failure on
    any other path does not.  Switching costs and counts are read off each
    realized strategy's track once.
    """
    roster = [(_realized(s1, spec, bundle), _realized(s2, spec, bundle)) for s1, s2 in roster]
    n_paths, n_steps = bundle.n_paths, bundle.n_steps
    dt = float(bundle.times[1] - bundle.times[0])
    pairs = spec.modes.pairs
    n2 = len(spec.modes.modes2)
    distinct = {id(r): r for entry in roster for r in entry}
    # a path's flat index into the (path, pair) table is
    # path * n_pairs + position1 * n2 + position2; player 1's share carries the path
    base = np.arange(n_paths) * len(pairs)
    leads = [base + a * n2 for a in range(len(spec.modes.modes1))]
    table = np.empty((n_paths, len(pairs)))

    def flat_indices(step: int) -> list[np.ndarray]:
        shares = {}
        for key, r in distinct.items():
            row = r.track[step]
            if r.track.strides[1] == 0:  # one position on every path
                shares[key] = leads[row[0]] if r.player == 1 else int(row[0])
            elif r.player == 1:
                shares[key] = np.multiply(row, n2, dtype=np.intp)
                shares[key] += base
            else:
                shares[key] = row.astype(np.intp)
        return [shares[id(r1)] + shares[id(r2)] for r1, r2 in roster]

    def entry_values(step: int, exprs, t: float, x: np.ndarray, factor: float):
        flats = flat_indices(step)
        try:
            values = evaluate_all([exprs[pair] for pair in pairs], EvalContext(t, x))
        except ExpressionDomainError:
            visited = np.zeros(table.size, dtype=bool)
            for flat in flats:
                visited[flat] = True
            for pair, column, hit in zip(pairs, table.T, visited.reshape(table.shape).T):
                idx = np.flatnonzero(hit)
                if idx.size:
                    vals = np.asarray(evaluate(exprs[pair], EvalContext(t, x[idx])), dtype=float)
                    column[idx] = np.broadcast_to(vals, idx.shape) * factor
        else:
            for column, vals in zip(table.T, values):
                np.multiply(vals, factor, out=column)
        return [table.take(flat) for flat in flats]

    # the pair on [t_k, t_{k+1}) is the one at step k + 1
    rewards = [np.zeros(n_paths) for _ in roster]
    for k, xk in enumerate(bundle.states.T[:n_steps]):
        steps = entry_values(k + 1, spec.drivers.f, float(bundle.times[k]), xk, dt)
        for reward, step in zip(rewards, steps):
            reward += step
    # the final interval's pair is the pair at the terminal step
    terminals = entry_values(n_steps, spec.terminals.h, spec.horizon, bundle.states.T[-1], 1.0)

    costs = {key: _switch_costs(r, spec, bundle) for key, r in distinct.items()}
    out = []
    for (r1, r2), reward, terminal in zip(roster, rewards, terminals):
        (cost1, switches1), (cost2, switches2) = costs[id(r1)], costs[id(r2)]
        out.append(PayoffEstimate.of_paths(terminal + reward - cost1 + cost2,
                                           cost1, cost2, switches1, switches2))
    return out


# ---------------------------------------------------------------------------
# Saddle verification
# ---------------------------------------------------------------------------


@dataclass
class GameReport:
    start: dict
    z: float
    saddle_mean: float = 0.0
    saddle_stderr: float = 0.0
    pde_value: float | None = None
    pde_gap: float | None = None
    pde_tolerance: float | None = None
    pde_ok: bool | None = None
    challenger1: list[dict] = field(default_factory=list)
    challenger2: list[dict] = field(default_factory=list)
    saddle_payoff: PayoffEstimate | None = None

    def all_passed(self) -> bool:
        ok = all(c["passed"] for c in self.challenger1 + self.challenger2)
        if self.pde_ok is not None:
            ok = ok and self.pde_ok
        return ok

    def to_dict(self) -> dict:
        """Every field but the saddle payoff's per-path arrays, and the verdict."""
        out = {k: v for k, v in vars(self).items() if k != "saddle_payoff"}
        return {**out, "all_passed": self.all_passed()}


def roster_payoffs(spec: ProblemSpec, bundle: PathBundle, saddle1: SwitchingStrategy,
                   saddle2: SwitchingStrategy,
                   challengers1: list[tuple[str, SwitchingStrategy]],
                   challengers2: list[tuple[str, SwitchingStrategy]]) -> list[PayoffEstimate]:
    """The payoffs on ``bundle`` of the saddle pair, of each player-1
    challenger against player 2's saddle strategy, and of player 1's saddle
    strategy against each player-2 challenger, in that order.

    The saddle strategies are realized together, once, and reused across the
    roster.  Every per-path number depends on its own path alone, so the
    estimates of a bundle's paths split into ranges, joined with
    join_payoffs, are those of the whole bundle.
    """
    real1, real2 = realize_strategies((saddle1, saddle2), spec, bundle)
    roster = ([(real1, real2)] + [(c, real2) for _, c in challengers1]
              + [(real1, c) for _, c in challengers2])
    return payoff_estimates(spec, bundle, roster)


def saddle_report(payoffs: list[PayoffEstimate],
                  challengers1: list[tuple[str, SwitchingStrategy]],
                  challengers2: list[tuple[str, SwitchingStrategy]],
                  start: tuple[float, float, int, int],
                  pde_value: float | None = None) -> GameReport:
    """Test the saddle inequalities on the roster payoffs of roster_payoffs.

    For every player-1 challenger d: J(d, s2) <= J(s1, s2), and for every
    player-2 challenger n: J(s1, s2) <= J(s1, n), each up to Z_SCORE
    standard errors of the per-path payoff difference, which common random
    numbers keep small.  Optionally compares the saddle payoff to a PDE
    value within Z_SCORE * stderr + PDE_ALLOWANCE.
    """
    t0, x0, i0, j0 = start
    base, *attempts = payoffs
    report = GameReport(start={"t": t0, "x": x0, "mode1": i0, "mode2": j0}, z=Z_SCORE,
                        saddle_mean=base.mean, saddle_stderr=base.stderr, saddle_payoff=base)

    def diff_entry(name, gain, attempt):
        mean = float(np.mean(gain))
        sem = float(np.std(gain, ddof=1) / np.sqrt(gain.size)) if gain.size > 1 else 0.0
        slack = Z_SCORE * sem if sem > 0 else 1e-9 * (1.0 + abs(base.mean))
        return {
            "name": name,
            "estimate": attempt.mean,
            "estimate_stderr": attempt.stderr,
            "mean_difference": mean,
            "stderr": sem,
            "z_score": mean / sem if sem > 0 else 0.0,
            "tolerance": slack,
            "passed": bool(mean >= -slack),
        }

    for (name, _), attempt in zip(challengers1, attempts):
        report.challenger1.append(diff_entry(name, base.per_path - attempt.per_path, attempt))
    for (name, _), attempt in zip(challengers2, attempts[len(challengers1):]):
        report.challenger2.append(diff_entry(name, attempt.per_path - base.per_path, attempt))

    if pde_value is not None:
        gap = abs(base.mean - pde_value)
        tolerance = Z_SCORE * base.stderr + PDE_ALLOWANCE
        report.pde_value = float(pde_value)
        report.pde_gap = float(gap)
        report.pde_tolerance = float(tolerance)
        report.pde_ok = bool(gap <= tolerance)
    return report


def verify_saddle(
    spec: ProblemSpec,
    bundle: PathBundle,
    saddle1: SwitchingStrategy,
    saddle2: SwitchingStrategy,
    challengers1: list[tuple[str, SwitchingStrategy]],
    challengers2: list[tuple[str, SwitchingStrategy]],
    start: tuple[float, float, int, int],
    pde_value: float | None = None,
) -> GameReport:
    """saddle_report of the roster payoffs on ``bundle``."""
    payoffs = roster_payoffs(spec, bundle, saddle1, saddle2, challengers1, challengers2)
    return saddle_report(payoffs, challengers1, challengers2, start, pde_value)


def saddle_from_fields(field1: ValueField, field2: ValueField,
                       start: tuple[float, float, int, int]
                       ) -> tuple[SwitchingStrategy, SwitchingStrategy, float]:
    """The saddle pair built from the two single-player fields, and the PDE
    comparison value: their sum at the start."""
    t0, x0, i0, j0 = start
    level = _nearest_level(field1.grid.times, t0)
    x = np.array([x0])
    pde_value = float(field1.interp_x(level, x)[field1.index_of(i0), 0]
                      + field2.interp_x(level, x)[field2.index_of(j0), 0])
    return saddle_strategy(field1, i0), saddle_strategy(field2, j0), pde_value


# ---------------------------------------------------------------------------
# Deterministic backward-induction oracle (frozen state)
# ---------------------------------------------------------------------------

ORACLE_MAX_NT = 12
ORACLE_MAX_MODES = 3


def _require_frozen(spec: ProblemSpec, x: float):
    ts = np.linspace(0.0, spec.horizon, 5)
    for t in ts:
        b = float(evaluate(spec.diffusion.drift, EvalContext(float(t), x)))
        s = float(evaluate(spec.diffusion.volatility, EvalContext(float(t), x)))
        if abs(b) > 1e-14 or abs(s) > 1e-14:
            raise PreconditionError("oracle requires zero drift and volatility")


def deterministic_dp_oracle(spec: ProblemSpec, nt: int, x: float) -> dict:
    """Exact backward induction on the time grid with the state frozen at x.

    Both clamp orders are reported: the "minmax" variant applies the
    ceiling first then the floor, max(min(v, ceiling), floor) as
    solve_clamped(order="minmax") does, the "maxmin" variant the reverse,
    each iterated within the step to a fixed point because the obstacles
    reference the values being computed.
    """
    _require_frozen(spec, x)
    if nt > ORACLE_MAX_NT:
        raise PreconditionError(f"oracle limited to nt <= {ORACLE_MAX_NT}")
    if len(spec.modes.modes1) > ORACLE_MAX_MODES or len(spec.modes.modes2) > ORACLE_MAX_MODES:
        raise PreconditionError(f"oracle limited to {ORACLE_MAX_MODES} modes per player")
    out = {}
    for variant in ("minmax", "maxmin"):
        levels = _oracle_tables(spec, nt, x, variant)
        out[variant] = {pair: float(value) for pair, value in zip(spec.modes.pairs, levels[0].flat)}
    return out


def _oracle_tables(spec: ProblemSpec, nt: int, x: float, variant: str) -> np.ndarray:
    """Values per level and mode position, shape (nt, n1, n2), terminal last;
    the "minmax" variant clamps the floor last, the "maxmin" variant the
    ceiling."""
    times = np.linspace(0.0, spec.horizon, nt)
    modes1, modes2 = spec.modes.modes1, spec.modes.modes2
    levels = np.empty((nt, len(modes1), len(modes2)))
    for a, b in np.ndindex(levels.shape[1:]):
        levels[nt - 1, a, b] = evaluate(spec.terminals.h[(modes1[a], modes2[b])],
                                        EvalContext(spec.horizon, x))
    for k in range(nt - 2, -1, -1):
        cont = np.array([[_continuation(levels, spec, times, k, a, b, x)
                          for b in range(len(modes2))] for a in range(len(modes1))])
        levels[k] = clamp_sweep(cont, *cost_arrays(spec, EvalContext(float(times[k]), x)),
                                floor_last=variant == "minmax")
    return levels


def oracle_optimal_strategies(spec: ProblemSpec, nt: int, x: float,
                              start: tuple[int, int], variant: str = "minmax"):
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
    sched1: list[tuple[int, int]] = []
    sched2: list[tuple[int, int]] = []
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


def _continuation(levels, spec, times, k, a, b, x) -> float:
    """Level k + 1's value of the pair at positions (a, b) plus one step of its reward."""
    dt = float(times[1] - times[0])
    f = spec.drivers.f[(spec.modes.modes1[a], spec.modes.modes2[b])]
    return levels[k + 1, a, b] + dt * float(evaluate(f, EvalContext(float(times[k]), x)))


def default_challengers(spec: ProblemSpec, player: int, start_mode: int, seed: int,
                        n_steps: int):
    """The stock challenger roster: never switch, switch at the start, and
    seeded random switching."""
    return [
        ("never_switch", never_switch(player, start_mode)),
        ("switch_at_start", switch_at_start(spec, player, start_mode)),
        ("random_switch", random_switch(spec, player, start_mode, seed, n_steps)),
    ]
