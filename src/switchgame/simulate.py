"""Euler-Maruyama simulation of the forward state process, with a
counter-based RNG so increments are a pure function of (seed, path, step).

Each path draws its normals from a Philox stream whose counter is advanced
by path index, so the numbers of a path do not depend on how many paths are
generated or in which order.  Bundles are immutable after construction and
reused across every payoff evaluation in a comparison (common random
numbers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExpressionDomainError
from .expressions import EvalContext, evaluate
from .model import ProblemSpec

_PATH_STRIDE = 1 << 20  # Philox counter blocks reserved per path


@dataclass(frozen=True)
class SimParams:
    n_paths: int
    n_steps: int
    seed: int
    t0: float = 0.0
    x0: float = 0.0
    antithetic: bool = False
    clamp_factor: float = 10.0

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")


@dataclass(frozen=True, eq=False)
class PathBundle:
    states: np.ndarray  # (n_paths, n_steps + 1)
    times: np.ndarray   # (n_steps + 1,)
    params: SimParams
    clamp_events: int = 0

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        return self.states.shape[1] - 1


def normal_increments(seed: int, n_paths: int, n_steps: int) -> np.ndarray:
    """Standard normals keyed by (seed, path, step), independent of call order."""
    out = np.empty((n_paths, n_steps))
    bg = np.random.Philox(key=seed)
    gen = np.random.Generator(bg)
    state = bg.state
    for p in range(n_paths):
        # path p's stream starts p * _PATH_STRIDE blocks into the keyed stream
        state["state"]["counter"] = np.array([p * _PATH_STRIDE, 0, 0, 0], dtype=np.uint64)
        bg.state = state
        gen.standard_normal(n_steps, out=out[p])
    return out


def _first_failing_path(spec: ProblemSpec, t: float, xk: np.ndarray) -> int:
    for p, x in enumerate(xk):
        try:
            evaluate(spec.diffusion.drift, EvalContext(t, float(x)))
            evaluate(spec.diffusion.volatility, EvalContext(t, float(x)))
        except ExpressionDomainError:
            return p
    return -1


def simulate_paths(spec: ProblemSpec, params: SimParams) -> PathBundle:
    """Simulate X_{k+1} = X_k + b(t_k, X_k) dt + sigma(t_k, X_k) dB_k.

    Paths are clamped to a safety box (clamp_factor times the problem
    domain, about its center) so rare excursions cannot push coefficient
    expressions out of their numeric range; clamp events are counted.
    """
    n = params.n_paths
    steps = params.n_steps
    times = np.linspace(params.t0, spec.horizon, steps + 1)
    dt = times[1] - times[0]
    sqrt_dt = np.sqrt(dt)

    if params.antithetic:
        base = normal_increments(params.seed, (n + 1) // 2, steps)
        normals = np.empty((n, steps))
        normals[0::2] = base[: (n + 1) // 2]
        normals[1::2] = -base[: n // 2]
    else:
        normals = normal_increments(params.seed, n, steps)
    normals *= sqrt_dt  # now the Brownian increments dB_k

    lo, hi = spec.domain
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * params.clamp_factor
    box_lo, box_hi = mid - half, mid + half

    states = np.empty((n, steps + 1))
    states[:, 0] = params.x0
    clamp_events = 0
    for k in range(steps):
        xk = states[:, k]
        tk = times[k]
        try:
            b = np.broadcast_to(np.asarray(evaluate(spec.diffusion.drift, EvalContext(tk, xk)), dtype=float), xk.shape)
            sig = np.broadcast_to(np.asarray(evaluate(spec.diffusion.volatility, EvalContext(tk, xk)), dtype=float), xk.shape)
        except ExpressionDomainError as exc:
            path = _first_failing_path(spec, tk, xk)
            raise ExpressionDomainError(
                f"coefficient failed at step {k}, path {path}: {exc}", exc.offset
            ) from exc
        nxt = xk + b * dt + sig * normals[:, k]
        clipped = np.clip(nxt, box_lo, box_hi)
        clamp_events += int(np.sum(clipped != nxt))
        states[:, k + 1] = clipped

    return PathBundle(states=states, times=times, params=params, clamp_events=clamp_events)
