import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from switchgame.grid import build_grid, discretize_generator, solve_implicit

from helpers import build_spec


def _simple_spec(drift="0", volatility="1", domain=(-2.0, 2.0), horizon=1.0):
    return build_spec(modes1=(1,), modes2=(1,), drivers={(1, 1): "0"},
                      terminals={(1, 1): "0"}, drift=drift, volatility=volatility,
                      domain=domain, horizon=horizon)


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
    out = solve_implicit(stencil, 0.1, v)
    assert np.allclose(out, v, atol=1e-14)
    out2 = solve_implicit(stencil, 0.1, v + 0.1)
    assert np.allclose(out2, v + 0.1, atol=1e-14)


def test_backward_step_heat_moment():
    # one implicit step on v(x) = x^2 advances the value by sigma^2 * dt
    spec = _simple_spec()
    grid = build_grid(spec, 101, 41)
    dt = grid.dt
    stencil = discretize_generator(spec, grid, 0.0)
    out = solve_implicit(stencil, dt, grid.xs ** 2)
    middle = slice(10, -10)
    assert np.allclose(out[middle], grid.xs[middle] ** 2 + dt, atol=1e-8)


def test_backward_step_residual_tolerance():
    spec = _simple_spec(drift="0.5", volatility="1")
    grid = build_grid(spec, 11, 51)
    dt = grid.dt
    stencil = discretize_generator(spec, grid, 0.3)
    rhs = np.cos(grid.xs) + dt * 0.2
    v = solve_implicit(stencil, dt, rhs)
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
    out_v = solve_implicit(stencil, 0.25, v + 0.25 * src)
    out_w = solve_implicit(stencil, 0.25, w + 0.25 * src)
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
    out = solve_implicit(stencil, dt, v + dt * src)
    assert np.max(np.abs(out)) <= np.max(np.abs(v)) + dt * np.max(np.abs(src)) + 1e-11
