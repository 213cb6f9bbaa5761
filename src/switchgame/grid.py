"""Uniform time-space grid and the monotone discretization of the state
generator (1/2) sigma^2 d^2/dx^2 + b d/dx.

The stencil uses central differences for diffusion and sign-upwinded
one-sided differences for drift so every off-diagonal weight is
non-negative and each row sums to zero.  Boundary nodes carry zero
curvature (linear extrapolation): the diffusion term is dropped there and
the drift keeps only its inward-pointing upwind part, which preserves the
positive-coefficient structure.  The implicit backward step
(I - dt L) v = v_next + dt source is then an M-matrix solve, giving the
discrete comparison principle and unconditional sup-norm stability.
Every implicit step of the package is solved by solve_rows, the one gtsv call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# no longer called here; the name stays bound because perfbench's
# solver.tridiag span patches it in this module and in solver
from scipy.linalg import solve_banded  # noqa: F401
from scipy.linalg.lapack import dgtsv

from .model import ProblemSpec
from .expressions import EvalContext, evaluate

INNER_FRACTION = 0.5  # central share of the space nodes where diagnostics are read


@dataclass(frozen=True, eq=False)
class Grid:
    nt: int
    nx: int
    times: np.ndarray
    xs: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def dx(self) -> float:
        return float(self.xs[1] - self.xs[0])

    def locate(self, x: np.ndarray) -> "CellLookup":
        """The cells of ``x`` on this uniform grid, as np.interp finds them:
        the floor guess from the spacing is corrected by one cell against
        ``xs``."""
        xs, nx = self.xs, self.nx
        # np.minimum(np.maximum(...)) is np.clip without its per-call overhead
        cell = np.minimum(np.maximum((x - xs[0]) / self.dx, 0), nx - 2).astype(np.intp)
        cell -= xs.take(cell) > x
        cell += xs.take(cell + 1) <= x
        # cell is -1 below the grid and nx - 1 at or above its last node
        j = np.minimum(np.maximum(cell, 0), nx - 2)
        xj = xs.take(j)
        exact = ((cell != j) | (xj == x)).nonzero()[0]
        with np.errstate(over="ignore"):  # only off the grid, where the end values are taken
            offset = x - xj
        return CellLookup(cell=j, offset=offset, exact=exact,
                          nodes=np.minimum(np.maximum(cell[exact], 0), nx - 1))

    def inner_mask(self) -> np.ndarray:
        """Boolean mask selecting the central INNER_FRACTION of the space nodes."""
        lo, hi = self.xs[0], self.xs[-1]
        mid = 0.5 * (lo + hi)
        half = 0.5 * INNER_FRACTION * (hi - lo)
        return np.abs(self.xs - mid) <= half + 1e-12 * (hi - lo)


@dataclass(frozen=True, eq=False)
class CellLookup:
    """Points located on a grid's cells (Grid.locate)."""

    cell: np.ndarray  # left node of each point's cell, in [0, nx - 2]
    offset: np.ndarray  # x - xs[cell]
    exact: np.ndarray  # points that take a node value: node hits and points off the grid
    nodes: np.ndarray  # the node each exact point takes


def build_grid(spec: ProblemSpec, nt: int, nx: int) -> Grid:
    if nt < 2:
        raise ValueError("nt must be at least 2")
    if nx < 3:
        raise ValueError("nx must be at least 3")
    times = np.linspace(0.0, spec.horizon, nt)
    xs = np.linspace(spec.domain[0], spec.domain[1], nx)
    return Grid(nt=nt, nx=nx, times=times, xs=xs)


@dataclass(frozen=True, eq=False)
class GeneratorStencil:
    """Tridiagonal weights of the discrete generator at one time level.

    lower[0] and upper[-1] are structurally zero; center = -(lower + upper)
    so constants lie in the kernel.  The weights may carry leading axes, one
    stencil per row (several time levels at once), with space on the last
    axis; every row is then handled as a stencil of its own.
    """

    lower: np.ndarray
    center: np.ndarray
    upper: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = self.center * values
        out[..., 1:] += self.lower[..., 1:] * values[..., :-1]
        out[..., :-1] += self.upper[..., :-1] * values[..., 1:]
        return out

    def implicit_bands(self, dt: float) -> np.ndarray:
        """I - dt L in solve_banded's (1, 1) layout: super-, main and
        sub-diagonal rows on the first axis, the unused corners zero."""
        ab = np.zeros((3,) + self.center.shape)
        ab[0, ..., 1:] = -dt * self.upper[..., :-1]
        ab[1] = 1.0 - dt * self.center
        ab[2, ..., :-1] = -dt * self.lower[..., 1:]
        return ab


def discretize_generator(spec: ProblemSpec, grid: Grid, t: float) -> GeneratorStencil:
    xs = grid.xs
    dx = grid.dx
    ctx = EvalContext(t, xs)
    b = np.broadcast_to(np.asarray(evaluate(spec.diffusion.drift, ctx), dtype=float), xs.shape).copy()
    sig = np.broadcast_to(np.asarray(evaluate(spec.diffusion.volatility, ctx), dtype=float), xs.shape).copy()

    diff = sig * sig / (2.0 * dx * dx)
    # zero-curvature boundary: no second-difference contribution at the ends
    diff[0] = 0.0
    diff[-1] = 0.0

    up_drift = np.maximum(b, 0.0) / dx
    down_drift = np.maximum(-b, 0.0) / dx

    upper = diff + up_drift
    lower = diff + down_drift
    # one-sided differences at the ends keep only the inward direction
    upper[-1] = 0.0
    lower[0] = 0.0
    center = -(lower + upper)
    return GeneratorStencil(lower=lower, center=center, upper=upper)


def solve_rows(ab: np.ndarray, b: np.ndarray, out: np.ndarray, live: np.ndarray) -> None:
    """out[r] = the solution of the tridiagonal system ab[:, r] x = b[r] for
    each live row r in order, with ``ab`` in solve_banded's (1, 1) layout on
    its first axis: one LAPACK gtsv call per row.

    gtsv gets the diagonals that ``solve_banded((1, 1), ab[:, r], b[r])``
    hands it, so each row is the same bit for bit, without that wrapper's
    per-call overhead.  Its checks are kept per row, and the first live row
    that fails one raises: a non-finite entry anywhere in the row's ``ab``
    (the unused corners included) or ``b`` gives ValueError, a singular
    system LinAlgError.  The live rows before it are written; no dead or
    failing row of ``out`` is, nor any row after it.  Neither ``ab`` nor
    ``b`` is modified.
    """
    # one finiteness check for every row; only when it fails is each row checked
    finite = np.isfinite(ab).all() and np.isfinite(b).all()
    for r in np.flatnonzero(live):
        if not (finite or (np.isfinite(ab[:, r]).all() and np.isfinite(b[r]).all())):
            raise ValueError("array must not contain infs or NaNs")
        *_, x, info = dgtsv(ab[2, r, :-1], ab[1, r], ab[0, r, 1:], b[r])
        if info:
            raise (np.linalg.LinAlgError("singular matrix") if info > 0 else
                   ValueError(f"illegal value in the {-info}-th argument of gtsv"))
        out[r] = x
