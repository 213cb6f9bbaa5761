import numpy as np
import pytest

from switchgame.simulate import (
    _PATH_STRIDE,
    SimParams,
    load_bundle,
    moment_estimate,
    normal_increments,
    save_bundle,
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
    assert np.array_equal(a.increments, b.increments)


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
    assert np.array_equal(bundle.increments[0::2], -bundle.increments[1::2])


def test_moment_estimate_constant_paths():
    spec = _spec()
    bundle = simulate_paths(spec, SimParams(n_paths=10, n_steps=5, seed=6, x0=3.0))
    est = moment_estimate(bundle, 2)
    assert est.value == 9.0
    assert est.stderr == 0.0
    bundle_neg = simulate_paths(spec, SimParams(n_paths=10, n_steps=5, seed=6, x0=-2.0))
    assert moment_estimate(bundle_neg, 1).value == 2.0


def test_moment_estimate_brownian_sup_regression():
    # E[sup |B|^2] on [0,1] is order one; frozen interval from a reference run
    spec = _spec(volatility="1")
    bundle = simulate_paths(spec, SimParams(n_paths=20_000, n_steps=100, seed=7, x0=0.0))
    est = moment_estimate(bundle, 2)
    assert 0.5 <= est.value <= 4.0


def test_moment_estimate_requires_p_at_least_one():
    spec = _spec()
    bundle = simulate_paths(spec, SimParams(n_paths=3, n_steps=2, seed=8))
    with pytest.raises(ValueError):
        moment_estimate(bundle, 0.5)


def test_clamp_box_counts_events():
    spec = _spec(volatility="50", domain=(-0.1, 0.1))
    bundle = simulate_paths(spec, SimParams(n_paths=200, n_steps=20, seed=9, clamp_factor=1.0))
    assert bundle.clamp_events > 0
    assert np.all(np.abs(bundle.states) <= 0.1 + 1e-12)


def test_binary_dump_roundtrip(tmp_path):
    spec = _spec(drift="0.2", volatility="0.7")
    params = SimParams(n_paths=37, n_steps=11, seed=10, x0=-0.4, antithetic=True)
    bundle = simulate_paths(spec, params)
    path = tmp_path / "bundle.bin"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    assert np.array_equal(loaded.states, bundle.states)
    assert np.array_equal(loaded.increments, bundle.increments)
    assert np.array_equal(loaded.times, bundle.times)
    assert loaded.params == bundle.params
    assert loaded.clamp_events == bundle.clamp_events


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
