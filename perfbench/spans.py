"""Wall-clock spans at switchgame's layer boundaries, recorded from outside.

``instrument(tracer)`` replaces, for the duration of a ``with`` block, the
module and class attributes through which one layer calls into another with
timing wrappers, and restores the originals on exit.  The program's source is
not changed, so an untraced call made after the block runs the original code.

Spans are aggregated per (parent span, span) edge rather than kept one by one:
the solver makes tens of thousands of tridiagonal solves per command, and the
per-layer metrics only need calls, inclusive time and self time per edge.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


def _boundaries():
    """Span name -> (owners, attribute, counters from the call's result).

    Every owner is patched that holds a name the caller looks up at call time,
    so a crossing is seen whichever module makes it (``cli`` imports the solver
    entry points by name, ``solver`` and ``grid`` both import ``solve_banded``).
    """
    from switchgame import cli, game, grid, model, simulate, solver

    return {
        "solver.minmax": ((cli, solver), "solve_minmax", None),
        "solver.maxmin": ((cli, solver), "solve_maxmin", None),
        "solver.single": ((cli, solver), "solve_single_obstacle", None),
        "solver.tridiag": ((solver, grid), "solve_banded", None),
        "grid.discretize": ((solver, grid), "discretize_generator", None),
        "expressions.evaluate": ((solver, grid, simulate, game, model), "evaluate", None),
        "simulate.paths": ((cli, simulate), "simulate_paths",
                           lambda bundle: {"simulate.clamp_events": bundle.clamp_events}),
        "simulate.increments": ((simulate,), "normal_increments", None),
        "game.verify": ((game,), "verify_saddle", None),
        "game.payoff": ((game,), "payoff_estimate", None),
        "game.switch_costs": ((game,), "_switch_costs", None),
        "game.realize": ((game.SwitchingStrategy,), "realize", None),
        "game.interp": ((solver.ValueField,), "interp_x", None),
        "cli.to_csv": ((solver.ValueField,), "to_csv", None),
    }


class Tracer:
    """Span aggregates of one traced command, plus counters read at spans."""

    def __init__(self):
        self._stack: list[list] = []  # [name, seconds covered by child spans]
        self.edges: dict[tuple[str | None, str], list] = {}  # -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}

    def call(self, name, fn, *args, **kwargs):
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            parent = self._stack[-1] if self._stack else None
            edge = self.edges.setdefault((parent[0] if parent else None, name), [0, 0.0, 0.0])
            edge[0] += 1
            edge[1] += duration
            edge[2] += duration - frame[1]
            if parent is not None:
                parent[1] += duration

    def count(self, name: str, amount: int):
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def calls(self, name: str) -> int:
        return sum(e[0] for (_, n), e in self.edges.items() if n == name)

    def total(self, name: str) -> float:
        return sum((e[1] for (_, n), e in self.edges.items() if n == name), 0.0)

    def self_time(self, name: str) -> float:
        return sum((e[2] for (_, n), e in self.edges.items() if n == name), 0.0)

    def parents(self, name: str) -> list[str]:
        return sorted({p for (p, n) in self.edges if n == name and p is not None})

    def nesting_problems(self, slack: float = 1e-6) -> list[str]:
        """Edges whose child time is not covered by the parent's span."""
        problems = []
        for (parent, name), (_, total, own) in self.edges.items():
            if own < -slack or own > total + slack:
                problems.append(f"{parent}>{name}: self {own:.6f} s outside [0, {total:.6f}] s")
            if parent is not None and own > self.total(parent) + slack:
                problems.append(f"{parent}>{name}: self {own:.6f} s exceeds parent span "
                                f"{self.total(parent):.6f} s")
        return problems


def _wrap(tracer: Tracer, name: str, fn, counters):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if counters is not None:
            for key, amount in counters(result).items():
                tracer.count(key, amount)
        return result

    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Route every layer crossing listed in ``_boundaries`` through ``tracer``."""
    saved = []
    try:
        for name, (owners, attr, counters) in _boundaries().items():
            for owner in owners:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, _wrap(tracer, name, original, counters))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
