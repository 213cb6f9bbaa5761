import numpy as np
import pytest

from switchgame.simulate import (
    _PATH_STRIDE,
    SimParams,
    normal_increments,
    simulate_paths,
)

from helpers import build_spec


def _spec(drift="0", volatility="0", domain=(-4.0, 4.0)):
    return build_spec(modes1=(1,), modes2=(1,), drivers={(1, 1): "0"},
                      terminals={(1, 1): "0"}, drift=drift, volatility=volatility,
                      domain=domain)


def test_constant_paths_without_dynamics():
    spec = _spec()
    bundle = simulate_paths(spec, SimParams(n_paths=7, n_steps=10, seed=1, x0=3.0))
    assert np.all(bundle.states == 3.0)
    assert bundle.clamp_events == 0


def test_constant_drift_exact():
    spec = _spec(drift="1")
    bundle = simulate_paths(spec, SimParams(n_paths=5, n_steps=20, seed=2, x0=0.0))
    assert np.allclose(bundle.states[:, -1], 1.0, atol=1e-12)


def test_brownian_terminal_moments():
    spec = _spec(volatility="1")
    n = 100_000
    bundle = simulate_paths(spec, SimParams(n_paths=n, n_steps=50, seed=3, x0=0.0))
    terminal = bundle.states[:, -1]
    assert abs(terminal.mean()) <= 3.0 / np.sqrt(n)
    assert abs(terminal.var() - 1.0) <= 0.05


def test_bitwise_determinism():
    spec = _spec(drift="0.1*x", volatility="0.4")
    params = SimParams(n_paths=100, n_steps=30, seed=42, x0=0.5)
    a = simulate_paths(spec, params)
    b = simulate_paths(spec, params)
    assert np.array_equal(a.states, b.states)


def test_increments_keyed_by_path():
    # path p's stream must not depend on how many paths are generated
    small = normal_increments(7, 4, 16)
    large = normal_increments(7, 9, 16)
    assert np.array_equal(small, large[:4])


def test_increments_match_independent_per_path_streams():
    # the stream of path p is the keyed Philox stream advanced p * _PATH_STRIDE blocks
    rows = normal_increments(3, 12, 25)
    for p in (0, 1, 11):
        bg = np.random.Philox(key=3)
        bg.advance(p * _PATH_STRIDE)
        assert np.array_equal(rows[p], np.random.Generator(bg).standard_normal(25))


def test_antithetic_mean_exact_for_constant_volatility():
    spec = _spec(volatility="2")
    params = SimParams(n_paths=4000, n_steps=25, seed=5, x0=0.25, antithetic=True)
    bundle = simulate_paths(spec, params)
    assert bundle.states[:, -1].mean() == pytest.approx(0.25, abs=1e-12)
    # paired paths take mirrored increments, so with zero drift they mirror about x0
    assert np.allclose(bundle.states[0::2] + bundle.states[1::2], 2 * 0.25, rtol=0, atol=1e-12)


def test_clamp_box_counts_events():
    spec = _spec(volatility="50", domain=(-0.1, 0.1))
    bundle = simulate_paths(spec, SimParams(n_paths=200, n_steps=20, seed=9, clamp_factor=1.0))
    assert bundle.clamp_events > 0
    assert np.all(np.abs(bundle.states) <= 0.1 + 1e-12)


def test_param_validation():
    with pytest.raises(ValueError):
        SimParams(n_paths=0, n_steps=5, seed=1)
    with pytest.raises(ValueError):
        SimParams(n_paths=5, n_steps=0, seed=1)


def test_coefficient_domain_error_carries_path_and_step():
    from switchgame.errors import ExpressionDomainError

    spec = build_spec(modes1=(1,), modes2=(1,), drivers={(1, 1): "0"},
                      terminals={(1, 1): "0"}, drift="0", volatility="1/x",
                      domain=(-1.0, 1.0))
    with pytest.raises(ExpressionDomainError) as err:
        simulate_paths(spec, SimParams(n_paths=4, n_steps=5, seed=13, x0=0.0))
    assert "step 0" in str(err.value)
    assert "path 0" in str(err.value)
