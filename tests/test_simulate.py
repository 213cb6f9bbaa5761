import numpy as np
import pytest

from switchgame import simulate
from switchgame.expressions import EvalContext, evaluate
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
    small = normal_increments(7, range(4), 16)
    large = normal_increments(7, range(9), 16)
    assert np.array_equal(small, large[:4])


def test_increments_match_independent_per_path_streams():
    # the stream of path p is the keyed Philox stream advanced p * _PATH_STRIDE blocks
    rows = normal_increments(3, range(12), 25)
    for p in (0, 1, 11):
        bg = np.random.Philox(key=3)
        bg.advance(p * _PATH_STRIDE)
        assert np.array_equal(rows[p], np.random.Generator(bg).standard_normal(25))


def test_clamp_box_counts_events(monkeypatch):
    monkeypatch.setattr(simulate, "CLAMP_FACTOR", 1.0)
    spec = _spec(volatility="50", domain=(-0.1, 0.1))
    bundle = simulate_paths(spec, SimParams(n_paths=200, n_steps=20, seed=9))
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


def _path_major_reference(spec, params):
    """simulate_paths as a path-major loop: one strided column per step."""
    n, steps = params.n_paths, params.n_steps
    times = np.linspace(params.t0, spec.horizon, steps + 1)
    dt = times[1] - times[0]
    normals = normal_increments(params.seed, range(n), steps) * np.sqrt(dt)
    lo, hi = spec.domain
    half = 0.5 * (hi - lo) * simulate.CLAMP_FACTOR
    states = np.empty((n, steps + 1))
    states[:, 0] = params.x0
    for k in range(steps):
        xk = states[:, k]
        b = evaluate(spec.diffusion.drift, EvalContext(times[k], xk))
        sig = evaluate(spec.diffusion.volatility, EvalContext(times[k], xk))
        states[:, k + 1] = np.clip(xk + b * dt + sig * normals[:, k],
                                   0.5 * (lo + hi) - half, 0.5 * (lo + hi) + half)
    return states


def test_states_are_a_view_of_step_major_rows(monkeypatch):
    monkeypatch.setattr(simulate, "CLAMP_FACTOR", 1.5)
    spec = _spec(drift="0.3*sin(x) - 0.2*t", volatility="0.5 + 0.1*cos(x)", domain=(-1.0, 1.0))
    params = SimParams(n_paths=37, n_steps=16, seed=8, x0=0.2)
    bundle = simulate_paths(spec, params)
    assert bundle.states.shape == (37, 17)
    assert bundle.states.T.flags.c_contiguous
    assert bundle.clamp_events > 0
    assert bundle.states.tobytes() == _path_major_reference(spec, params).tobytes()


def _clamping_spec(monkeypatch):
    monkeypatch.setattr(simulate, "CLAMP_FACTOR", 1.5)
    return _spec(drift="0.3*sin(x) - 0.2*t", volatility="0.5 + 0.1*cos(x)", domain=(-1.0, 1.0))


@pytest.mark.parametrize("first,stop", [(0, 18), (18, 37), (5, 23), (13, 14), (0, 37)])
def test_paths_of_a_range_are_those_rows_of_the_whole_bundle(monkeypatch, first, stop):
    spec = _clamping_spec(monkeypatch)
    params = SimParams(n_paths=37, n_steps=16, seed=8, x0=0.2)
    whole = simulate_paths(spec, params)
    part = simulate_paths(spec, params, range(first, stop))
    assert part.n_paths == stop - first
    assert part.states.tobytes() == whole.states[first:stop].tobytes()
    assert part.times.tobytes() == whole.times.tobytes()


def test_clamp_events_of_two_halves_add_up_to_the_whole(monkeypatch):
    monkeypatch.setattr(simulate, "CLAMP_FACTOR", 1.0)
    spec = _spec(volatility="50", domain=(-0.1, 0.1))
    params = SimParams(n_paths=201, n_steps=20, seed=9)
    halves = [simulate_paths(spec, params, paths).clamp_events
              for paths in (range(100), range(100, 201))]
    assert min(halves) > 0
    assert sum(halves) == simulate_paths(spec, params).clamp_events


def test_coefficient_domain_error_names_the_path_of_the_whole_bundle():
    from switchgame.errors import ExpressionDomainError

    spec = build_spec(modes1=(1,), modes2=(1,), drivers={(1, 1): "0"},
                      terminals={(1, 1): "0"}, drift="0", volatility="1/x",
                      domain=(-1.0, 1.0))
    with pytest.raises(ExpressionDomainError, match="step 0, path 3:"):
        simulate_paths(spec, SimParams(n_paths=8, n_steps=5, seed=13, x0=0.0), range(3, 8))
