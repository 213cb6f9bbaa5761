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
CLAMP_FACTOR = 10.0  # half-width of the path safety box, in domain half-widths


@dataclass(frozen=True)
class SimParams:
    n_paths: int
    n_steps: int
    seed: int
    t0: float = 0.0
    x0: float = 0.0

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")


@dataclass(frozen=True, eq=False)
class PathBundle:
    # (n_paths, n_steps + 1): the transpose of the step-major buffer into
    # which simulate_paths drew the normals before overwriting them
    states: np.ndarray
    times: np.ndarray   # (n_steps + 1,)
    params: SimParams
    clamp_events: int = 0

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        return self.states.shape[1] - 1


def normal_increments(seed: int, paths: range, out: np.ndarray) -> np.ndarray:
    """Standard normals keyed by (seed, path, step), independent of call order,
    written step-major into ``out`` (n_steps, len(paths)): column i holds path
    ``paths[i]``'s normals, one step a row.  Returns ``out``."""
    # the generator fills only contiguous arrays: a path is drawn into one
    # row, then copied into its column
    row = np.empty(out.shape[0])
    bg = np.random.Philox(key=seed)
    normal = np.random.Generator(bg).standard_normal
    # the state setter reads plain lists as well as arrays; moving a path
    # onto its own stream is then one counter write
    fresh = bg.state
    counter = [0, 0, 0, 0]
    state = {**fresh, "buffer": fresh["buffer"].tolist(),
             "state": {"counter": counter, "key": fresh["state"]["key"].tolist()}}
    for i, p in enumerate(paths):
        # path p's stream starts p * _PATH_STRIDE blocks into the keyed stream
        counter[0] = p * _PATH_STRIDE
        bg.state = state
        out[:, i] = normal(out=row)
    return out


def _first_failing_path(spec: ProblemSpec, t: float, xk: np.ndarray, paths: range) -> int:
    for p, x in zip(paths, xk):
        try:
            evaluate(spec.diffusion.drift, EvalContext(t, float(x)))
            evaluate(spec.diffusion.volatility, EvalContext(t, float(x)))
        except ExpressionDomainError:
            return p
    return -1


def simulate_paths(spec: ProblemSpec, params: SimParams, paths: range | None = None) -> PathBundle:
    """Simulate X_{k+1} = X_k + b(t_k, X_k) dt + sigma(t_k, X_k) dB_k on the
    paths of ``paths`` (by default all ``params.n_paths``), row i of the
    bundle being path ``paths[i]``: each path is a function of its index
    alone, so the rows of a range are those rows of the whole bundle.

    Paths are clamped to a safety box (CLAMP_FACTOR times the problem
    domain, about its center) so rare excursions cannot push coefficient
    expressions out of their numeric range; clamp events are counted.
    """
    if paths is None:
        paths = range(params.n_paths)
    n = len(paths)
    steps = params.n_steps
    times = np.linspace(params.t0, spec.horizon, steps + 1)
    dt = times[1] - times[0]
    sqrt_dt = np.sqrt(dt)

    lo, hi = spec.domain
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * CLAMP_FACTOR
    box_lo, box_hi = mid - half, mid + half

    # step-major, so each step reads and writes one contiguous row.  Row
    # k + 1 holds the Brownian increment dB_k until step k overwrites it with
    # X_{k+1}: one buffer holds a block's normals and states.
    rows = np.empty((steps + 1, n))
    rows[0] = params.x0
    normal_increments(params.seed, paths, rows[1:])
    rows[1:] *= sqrt_dt
    clamp_events = 0
    for k in range(steps):
        xk = rows[k]
        tk = times[k]
        try:
            b = np.broadcast_to(np.asarray(evaluate(spec.diffusion.drift, EvalContext(tk, xk)), dtype=float), xk.shape)
            sig = np.broadcast_to(np.asarray(evaluate(spec.diffusion.volatility, EvalContext(tk, xk)), dtype=float), xk.shape)
        except ExpressionDomainError as exc:
            path = _first_failing_path(spec, tk, xk, paths)
            raise ExpressionDomainError(
                f"coefficient failed at step {k}, path {path}: {exc}", exc.offset
            ) from exc
        nxt = xk + b * dt + sig * rows[k + 1]
        clipped = np.clip(nxt, box_lo, box_hi, out=rows[k + 1])
        clamp_events += int(np.sum(clipped != nxt))

    return PathBundle(states=rows.T, times=times, params=params, clamp_events=clamp_events)
