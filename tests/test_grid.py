import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scipy.linalg import solve_banded

from switchgame import grid as grid_module
from switchgame.grid import build_grid, discretize_generator, solve_rows

from helpers import build_spec


def _simple_spec(drift="0", volatility="1", domain=(-2.0, 2.0), horizon=1.0):
    return build_spec(modes1=(1,), modes2=(1,), drivers={(1, 1): "0"},
                      terminals={(1, 1): "0"}, drift=drift, volatility=volatility,
                      domain=domain, horizon=horizon)


def _solve(ab, b):
    """solve_rows on the one system ``ab`` x = ``b``."""
    out = np.zeros((1, b.size))
    solve_rows(ab[:, np.newaxis], b[np.newaxis], out, np.ones(1, dtype=bool))
    return out[0]


def _step(stencil, dt, rhs):
    """The implicit backward step: (I - dt L) v = rhs."""
    return _solve(stencil.implicit_bands(dt), rhs)


def test_build_grid_spacing():
    spec = _simple_spec()
    grid = build_grid(spec, 11, 41)
    assert grid.dt == pytest.approx(0.1)
    assert grid.dx == pytest.approx(0.1)

    spec2 = _simple_spec(domain=(0.0, 1.0), horizon=0.5)
    grid2 = build_grid(spec2, 6, 6)
    assert grid2.dt == pytest.approx(0.1)
    assert grid2.dx == pytest.approx(0.2)


def test_build_grid_rejects_degenerate_counts():
    spec = _simple_spec()
    with pytest.raises(ValueError):
        build_grid(spec, 1, 41)
    with pytest.raises(ValueError):
        build_grid(spec, 11, 2)


def test_stencil_constant_diffusion_weights():
    spec = _simple_spec()
    grid = build_grid(spec, 11, 41)  # dx = 0.1
    stencil = discretize_generator(spec, grid, 0.0)
    interior = slice(1, -1)
    assert np.allclose(stencil.lower[interior], 50.0)
    assert np.allclose(stencil.upper[interior], 50.0)
    assert np.allclose(stencil.center[interior], -100.0)


def test_stencil_exact_on_quadratic():
    spec = _simple_spec()
    grid = build_grid(spec, 11, 41)
    stencil = discretize_generator(spec, grid, 0.0)
    applied = stencil.apply(grid.xs ** 2)
    assert np.allclose(applied[1:-1], 1.0, atol=1e-10)


def test_upwind_drift_exact_on_linear():
    spec = _simple_spec(drift="1", volatility="0")
    grid = build_grid(spec, 11, 41)
    stencil = discretize_generator(spec, grid, 0.0)
    applied = stencil.apply(grid.xs.copy())
    assert np.allclose(applied[1:-1], 1.0, atol=1e-12)
    # positive drift uses the forward difference, so the upper weights carry it
    assert np.allclose(stencil.upper[1:-1], 10.0)
    assert np.all(stencil.lower[1:-1] == 0.0)


@given(
    b=st.floats(-3, 3),
    sigma=st.floats(0, 2),
)
@settings(max_examples=40, deadline=None)
def test_stencil_positive_coefficients_and_zero_row_sums(b, sigma):
    spec = _simple_spec(drift=repr(b), volatility=repr(sigma))
    grid = build_grid(spec, 5, 21)
    stencil = discretize_generator(spec, grid, 0.5)
    assert np.all(stencil.lower >= 0)
    assert np.all(stencil.upper >= 0)
    assert np.allclose(stencil.lower + stencil.center + stencil.upper, 0.0, atol=1e-9)
    assert stencil.lower[0] == 0.0 and stencil.upper[-1] == 0.0


def test_backward_step_identity_when_generator_vanishes():
    spec = _simple_spec(volatility="0")
    grid = build_grid(spec, 11, 21)
    stencil = discretize_generator(spec, grid, 0.0)
    v = np.sin(grid.xs)
    out = _step(stencil, 0.1, v)
    assert np.allclose(out, v, atol=1e-14)
    out2 = _step(stencil, 0.1, v + 0.1)
    assert np.allclose(out2, v + 0.1, atol=1e-14)


def test_backward_step_heat_moment():
    # one implicit step on v(x) = x^2 advances the value by sigma^2 * dt
    spec = _simple_spec()
    grid = build_grid(spec, 101, 41)
    dt = grid.dt
    stencil = discretize_generator(spec, grid, 0.0)
    out = _step(stencil, dt, grid.xs ** 2)
    middle = slice(10, -10)
    assert np.allclose(out[middle], grid.xs[middle] ** 2 + dt, atol=1e-8)


def test_backward_step_residual_tolerance():
    spec = _simple_spec(drift="0.5", volatility="1")
    grid = build_grid(spec, 11, 51)
    dt = grid.dt
    stencil = discretize_generator(spec, grid, 0.3)
    rhs = np.cos(grid.xs) + dt * 0.2
    v = _step(stencil, dt, rhs)
    residual = v - dt * stencil.apply(v) - rhs
    assert np.max(np.abs(residual)) < 1e-12


@given(
    seed=st.integers(0, 2**32 - 1),
    b=st.floats(-2, 2),
    sigma=st.floats(0, 1.5),
)
@settings(max_examples=40, deadline=None)
def test_backward_step_monotone(seed, b, sigma):
    # discrete comparison principle: v <= w implies step(v) <= step(w)
    spec = _simple_spec(drift=repr(b), volatility=repr(sigma))
    grid = build_grid(spec, 5, 17)
    stencil = discretize_generator(spec, grid, 0.0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    v = rng.uniform(-1, 1, grid.nx)
    w = v + rng.uniform(0, 1, grid.nx)
    src = rng.uniform(-1, 1, grid.nx)
    out_v = _step(stencil, 0.25, v + 0.25 * src)
    out_w = _step(stencil, 0.25, w + 0.25 * src)
    assert np.all(out_v <= out_w + 1e-11)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_backward_step_sup_stability(seed):
    spec = _simple_spec(drift="-0.7", volatility="1.2")
    grid = build_grid(spec, 5, 17)
    stencil = discretize_generator(spec, grid, 0.0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    v = rng.uniform(-3, 3, grid.nx)
    src = rng.uniform(-2, 2, grid.nx)
    dt = 0.25
    out = _step(stencil, dt, v + dt * src)
    assert np.max(np.abs(out)) <= np.max(np.abs(v)) + dt * np.max(np.abs(src)) + 1e-11


def _tridiagonal_system(rng, nx, pinned):
    """A diagonally dominant system in solve_banded's (1, 1) layout, built
    like a level solve: off-diagonals and diagonal terms over several scales,
    then the rows in ``pinned`` made identity rows."""
    ab = np.zeros((3, nx))
    scale = 10.0 ** rng.uniform(-4, 4)
    ab[0, 1:] = -scale * rng.random(nx - 1)
    ab[2, :-1] = -scale * rng.random(nx - 1)
    ab[1] = 1.0 + 2.0 * scale + 10.0 ** rng.uniform(-6, 6, nx) * (rng.random(nx) < 0.5)
    b = rng.standard_normal(nx) * 10.0 ** rng.uniform(-3, 3, nx)
    ab[0, 1:][pinned[:-1]] = 0.0
    ab[1][pinned] = 1.0
    ab[2, :-1][pinned[1:]] = 0.0
    b = np.where(pinned, rng.standard_normal(nx), b)
    return ab, b


@given(seed=st.integers(0, 2**32 - 1), nx=st.integers(3, 481), rows=st.integers(1, 20),
       pinned_share=st.sampled_from([0.0, 0.3, 1.0]), live_share=st.sampled_from([0.5, 1.0]))
@example(seed=1, nx=121, rows=1, pinned_share=0.3, live_share=1.0)
@example(seed=2, nx=121, rows=4, pinned_share=0.3, live_share=0.5)
@example(seed=3, nx=121, rows=20, pinned_share=0.3, live_share=0.5)
@example(seed=4, nx=481, rows=1, pinned_share=0.3, live_share=1.0)
@example(seed=5, nx=481, rows=4, pinned_share=0.3, live_share=0.5)
@example(seed=6, nx=481, rows=20, pinned_share=0.3, live_share=0.5)
@settings(max_examples=80, deadline=None)
def test_solve_tridiagonal_bitwise_equal_to_solve_banded(seed, nx, rows, pinned_share, live_share):
    # every live row of one solve_rows call, each row a system of its own,
    # as solve_banded solves it alone; no dead row written
    rng = np.random.default_rng(seed)
    systems = [_tridiagonal_system(rng, nx, rng.random(nx) < pinned_share) for _ in range(rows)]
    ab = np.stack([a for a, _ in systems], axis=1)
    b = np.stack([r for _, r in systems])
    live = rng.random(rows) < live_share
    kept = ab.copy(), b.copy(), live.copy()
    out = np.full(b.shape, -7.0)
    solve_rows(ab, b, out, live)
    for r, (ab_r, b_r) in enumerate(systems):
        expected = solve_banded((1, 1), ab_r, b_r) if live[r] else np.full(nx, -7.0)
        assert out[r].tobytes() == expected.tobytes()
    assert ab.tobytes() == kept[0].tobytes() and b.tobytes() == kept[1].tobytes()
    assert (live == kept[2]).all()


def test_solve_implicit_bitwise_equal_to_solve_banded():
    spec = _simple_spec(drift="0.5*x", volatility="1 + 0.1*x^2")
    grid = build_grid(spec, 11, 51)
    stencil = discretize_generator(spec, grid, 0.3)
    ab = np.zeros((3, grid.nx))
    ab[0, 1:] = -grid.dt * stencil.upper[:-1]
    ab[1, :] = 1.0 - grid.dt * stencil.center
    ab[2, :-1] = -grid.dt * stencil.lower[1:]
    rhs = np.cos(grid.xs)
    assert stencil.implicit_bands(grid.dt).tobytes() == ab.tobytes()
    assert _step(stencil, grid.dt, rhs).tobytes() == solve_banded((1, 1), ab, rhs).tobytes()


@pytest.mark.parametrize("row,col", [(1, 0), (1, 4), (0, 3), (2, 2), (0, 0), (2, 5), (None, 2)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_tridiagonal_rejects_non_finite_input(row, col, bad):
    # (0, 0) and (2, 5) are the layout's unused corners, which solve_banded checks too
    ab, b = _tridiagonal_system(np.random.default_rng(0), 6, np.zeros(6, dtype=bool))
    if row is None:
        b[col] = bad
    else:
        ab[row, col] = bad
    with pytest.raises(ValueError):
        solve_banded((1, 1), ab, b)
    kept = ab.copy(), b.copy()
    with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
        _solve(ab, b)
    assert np.array_equal(ab, kept[0], equal_nan=True)
    assert np.array_equal(b, kept[1], equal_nan=True)


def test_solve_tridiagonal_rejects_singular_system():
    ab = np.array([[0.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 1.0, 0.0]])  # first column zero
    b = np.ones(3)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        solve_banded((1, 1), ab, b)
    with pytest.raises(np.linalg.LinAlgError, match="^singular matrix$"):
        _solve(ab, b)


@pytest.mark.parametrize("first,error,text", [
    ("non-finite", ValueError, "array must not contain infs or NaNs"),
    ("singular", np.linalg.LinAlgError, "singular matrix"),
], ids=["non-finite", "singular"])
def test_solve_rows_raises_at_the_first_bad_live_row(first, error, text):
    # row 1 is non-finite but dead, rows 3 and 4 are bad and live, ``first``
    # the earlier: rows 0 and 2 are solved as if alone, and no dead, failing
    # or later row of out is written
    rng = np.random.default_rng(7)
    systems = [_tridiagonal_system(rng, 6, np.zeros(6, dtype=bool)) for _ in range(6)]
    ab = np.stack([a for a, _ in systems], axis=1)
    b = np.stack([r for _, r in systems])
    non_finite, singular = (3, 4) if first == "non-finite" else (4, 3)
    b[1, 2] = np.inf
    ab[0, non_finite, 0] = np.nan  # an unused corner
    ab[:, singular, 0] = 0.0  # first column zero
    kept = ab.copy(), b.copy()
    out = np.full(b.shape, -7.0)
    live = np.array([True, False, True, True, True, True])
    with pytest.raises(error) as err:
        solve_rows(ab, b, out, live)
    assert type(err.value) is error and str(err.value) == text
    for r in (0, 2):
        assert out[r].tobytes() == solve_banded((1, 1), ab[:, r], b[r]).tobytes()
    assert (out[[1, 3, 4, 5]] == -7.0).all()
    assert live.tolist() == [True, False, True, True, True, True]
    assert np.array_equal(ab, kept[0], equal_nan=True) and b.tobytes() == kept[1].tobytes()


def test_solve_rows_leaves_a_read_only_broadcast_ab_and_b_as_they_were():
    # the clamp pass hands every row the same read-only bands
    rng = np.random.default_rng(3)
    bands, _ = _tridiagonal_system(rng, 121, np.zeros(121, dtype=bool))
    ab = np.broadcast_to(bands[:, np.newaxis], (3, 4, 121))
    b = rng.standard_normal((4, 121))
    kept = bands.tobytes(), b.tobytes()
    out = np.empty_like(b)
    solve_rows(ab, b, out, np.ones(4, dtype=bool))
    assert not ab.flags.writeable
    assert (bands.tobytes(), b.tobytes()) == kept
    for r in range(4):
        assert out[r].tobytes() == solve_banded((1, 1), bands, b[r]).tobytes()


def test_solve_rows_of_an_empty_batch_writes_nothing():
    out = np.empty((0, 5))
    solve_rows(np.empty((3, 0, 5)), np.empty((0, 5)), out, np.zeros(0, dtype=bool))
    assert out.shape == (0, 5)


def test_gtsv_loader_fails_loudly_without_the_library(tmp_path):
    with pytest.raises(ImportError) as err:
        grid_module._load_gtsv(tmp_path)
    assert str(tmp_path) in str(err.value) and "scipy_dgtsv_64_" in str(err.value)
