import csv
import hashlib
import itertools
import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from switchgame.config import load_config
from switchgame.errors import ConvergenceError, PreconditionError
from switchgame.expressions import EvalContext, Neg, evaluate
from switchgame import grid as grid_module, model, solver
from switchgame.game import deterministic_dp_oracle
from switchgame.grid import Grid, build_grid
from switchgame.solver import (
    PenaltySchedule,
    ValueField,
    barrier_respect_check,
    decomposition_check,
    solve_maxmin,
    solve_minmax,
    solve_single_obstacle,
    sup_gap,
)

from helpers import (build_spec, frozen_diag_spec, generated_specs, heat_spec, prefix_ladder,
                     seeded_spec, single_player_schedule_oracle, solve_clamped, uniform_costs)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SCHED = PenaltySchedule(levels=(1.0, 4.0, 16.0), fixed_point_tol=1e-12)
SCHED_FULL = PenaltySchedule(levels=(1.0, 4.0, 16.0, 64.0, 256.0), fixed_point_tol=1e-12)


def _stochastic_2x2():
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 0.07, 0.05)
    drivers = {
        (1, 1): "0.3*sin(x)",
        (1, 2): "0.3*sin(x) - 0.12*(t + 0.2)",
        (2, 1): "0.3*sin(x) + 0.12*(1.2 - t)",
        (2, 2): "0.3*sin(x) + 0.12*(1.2 - t) - 0.12*(t + 0.2) + 0.05*sin(x)*t",
    }
    terminals = {p: "0.25*x^2 - 0.1*cos(x)" for p in ((1, 1), (1, 2), (2, 1), (2, 2))}
    return build_spec(costs1=costs1, costs2=costs2, drivers=drivers, terminals=terminals,
                      volatility="0.5", domain=(-3.0, 3.0))


# ---------------------------------------------------------------------------
# Degenerate single-pair problems
# ---------------------------------------------------------------------------


def test_transport_free_single_pair():
    spec = build_spec(modes1=(1,), modes2=(1,), drivers={(1, 1): "0"},
                      terminals={(1, 1): "x"}, volatility="0")
    grid = build_grid(spec, 6, 11)
    field, _ = solve_minmax(spec, grid, SCHED)
    for k in range(grid.nt):
        assert np.allclose(field.values[0, k], grid.xs, atol=1e-13)


def test_heat_value_at_origin():
    spec = heat_spec()
    grid = build_grid(spec, 101, 81)
    field, _ = solve_minmax(spec, grid, PenaltySchedule(levels=(1.0,)))
    mid = np.argmin(np.abs(grid.xs))
    assert field.values[0, 0, mid] == pytest.approx(1.0, abs=1e-2)


def test_single_pair_minmax_equals_maxmin():
    spec = heat_spec()
    grid = build_grid(spec, 41, 41)
    a, _ = solve_minmax(spec, grid, SCHED)
    b, _ = solve_maxmin(spec, grid, SCHED)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_terminal_level_assigned_exactly():
    spec = _stochastic_2x2()
    grid = build_grid(spec, 21, 31)
    field, _ = solve_minmax(spec, grid, SCHED)
    for idx, pair in enumerate(field.mode_labels):
        expected = evaluate(spec.terminals.h[pair], EvalContext(spec.horizon, grid.xs))
        assert np.array_equal(field.values[idx, -1], expected)


# ---------------------------------------------------------------------------
# Agreement with the frozen-state oracle
# ---------------------------------------------------------------------------


def test_frozen_state_solvers_match_oracle():
    spec = frozen_diag_spec()
    nt = 11
    grid = build_grid(spec, nt, 5)
    oracle = deterministic_dp_oracle(spec, nt, 0.0)
    tol = 2 * grid.dt * 1.0
    fmin, _ = solve_minmax(spec, grid, SCHED_FULL)
    fmax, _ = solve_maxmin(spec, grid, SCHED_FULL)
    for field, variant in ((fmin, "minmax"), (fmax, "maxmin")):
        for idx, pair in enumerate(field.mode_labels):
            assert field.values[idx, 0, 2] == pytest.approx(oracle[variant][pair], abs=tol)


def test_clamped_cross_check_scheme():
    # frozen dynamics make the implicit step the identity, so each clamp
    # order must reproduce the oracle's variant of the same name bit for bit;
    # on the second spec the two orders differ at rounding level (1.1e-16)
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 0.116, 0.177)
    orders_differ = build_spec(costs1=costs1, costs2=costs2, drivers={
        (1, 1): 0.974, (1, 2): 0.565, (2, 1): -0.322, (2, 2): -0.574})
    for spec in (frozen_diag_spec(), orders_differ):
        grid = build_grid(spec, 11, 5)
        oracle = deterministic_dp_oracle(spec, 11, 0.0)
        for order in ("minmax", "maxmin"):
            clamped = solve_clamped(spec, grid, order=order)
            for idx, pair in enumerate(clamped.mode_labels):
                assert clamped.values[idx, 0, 2] == oracle[order][pair]


CLAMPED_SOLVES = {
    "clamped_minmax": lambda spec: solve_clamped(spec, build_grid(spec, 11, 5), order="minmax"),
    "clamped_maxmin": lambda spec: solve_clamped(spec, build_grid(spec, 11, 5), order="maxmin"),
    "single_obstacle": lambda spec: solve_single_obstacle(spec, build_grid(spec, 11, 5)),
}


def _floor_binding_spec():
    # player 1 gains 1 per unit time in mode 1 and pays 0.25 to reach it, so
    # the floor binds and a level needs a second sweep to settle
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 0.25, 0.45)
    return build_spec(costs1=costs1, costs2=costs2,
                      drivers={(1, 1): "1", (1, 2): "1", (2, 1): "0", (2, 2): "0"})


@pytest.mark.parametrize("solve", [*CLAMPED_SOLVES.values(),
                                   lambda spec: deterministic_dp_oracle(spec, 11, 0.0)],
                         ids=[*CLAMPED_SOLVES, "oracle"])
def test_clamp_sweep_raises_at_its_cap(monkeypatch, solve):
    spec = _floor_binding_spec()
    solve(spec)
    monkeypatch.setattr(model, "SWEEP_CAP", 1)
    with pytest.raises(ConvergenceError, match="clamp sweep"):
        solve(spec)


@pytest.mark.parametrize("infos,error,text", [
    ((0, 1, -1), np.linalg.LinAlgError, "singular matrix"),
    ((0, -1, 1), ValueError, "illegal value in the 1-th argument of gtsv"),
], ids=["singular", "illegal"])
@pytest.mark.parametrize("solve", CLAMPED_SOLVES.values(), ids=CLAMPED_SOLVES)
def test_clamped_solves_raise_the_first_pair_error(monkeypatch, solve, infos, error, text):
    # gtsv reports ``infos`` for the first pairs of the first level stepped,
    # in pair order, and an illegal argument for every pair after them: the
    # first failing pair's error is raised, before that level is clamped
    spec = _floor_binding_spec()
    reported = itertools.chain(infos, itertools.repeat(-1))
    monkeypatch.setattr(grid_module, "dgtsv", lambda dl, d, du, b: (dl, d, du, b, next(reported)))
    sweeps = []
    clamp_sweep = solver.clamp_sweep
    monkeypatch.setattr(solver, "clamp_sweep", lambda *args: sweeps.append(1) or clamp_sweep(*args))
    with pytest.raises(error) as err:
        solve(spec)
    assert type(err.value) is error and str(err.value) == text
    assert not sweeps


# ---------------------------------------------------------------------------
# Penalty sweep structure
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_results():
    spec = _stochastic_2x2()
    grid = build_grid(spec, 41, 41)
    fmin, rmin = solve_minmax(spec, grid, SCHED_FULL)
    fmax, rmax = solve_maxmin(spec, grid, SCHED_FULL)
    return spec, grid, fmin, rmin, fmax, rmax


@pytest.fixture(scope="module")
def sweep_passes(sweep_results):
    """Each pass of both schemes' ladders (prefix_ladder): min-max, max-min."""
    spec, grid = sweep_results[:2]
    return tuple(prefix_ladder(solve, spec, grid, SCHED_FULL)
                 for solve in (solve_minmax, solve_maxmin))


def test_sweep_is_monotone_in_penalty(sweep_results, sweep_passes):
    _, _, _, rmin, _, rmax = sweep_results
    pmin, pmax = sweep_passes
    for prev, nxt in zip(pmin, pmin[1:]):
        assert np.max(nxt.values - prev.values) <= 1e-10
    for prev, nxt in zip(pmax, pmax[1:]):
        assert np.max(prev.values - nxt.values) <= 1e-10
    assert rmin.monotonicity_violation <= 1e-10
    assert rmax.monotonicity_violation <= 1e-10


def test_two_schemes_are_ordered(sweep_passes):
    pmin, pmax = sweep_passes
    for asc, desc in zip(pmax, pmin):
        assert np.max(asc.values - desc.values) <= 1e-10


def test_gap_shrinks_along_sweep(sweep_passes):
    pmin, pmax = sweep_passes
    gaps = [sup_gap(a, b) for a, b in zip(pmin, pmax)]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < gaps[0]


def test_penalty_excess_reported(sweep_results):
    _, _, _, rmin, _, _ = sweep_results
    worst = [max(level.values()) for level in rmin.penalty_excess]
    assert any(w > 0 for w in worst)
    assert worst[-1] <= 2.0 * worst[2] + 1e-12


def test_penalty_excess_zero_when_ceiling_inactive():
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 10.0, 11.0)
    spec = build_spec(costs1=costs1, costs2=costs2,
                      drivers={(1, 1): "1", (1, 2): "0", (2, 1): "0", (2, 2): "1"})
    grid = build_grid(spec, 11, 9)
    _, report = solve_minmax(spec, grid, SCHED)
    assert all(v == 0.0 for v in report.penalty_excess[-1].values())


def test_penalty_excess_zero_for_single_mode():
    spec = heat_spec()
    grid = build_grid(spec, 11, 9)
    _, report = solve_minmax(spec, grid, PenaltySchedule(levels=(4.0,)))
    assert all(v == 0.0 for v in report.penalty_excess[-1].values())


def test_barrier_respect(sweep_results):
    spec, grid, fmin, _, fmax, _ = sweep_results
    assert barrier_respect_check(fmin, spec, grid, 1e-3).passed
    assert barrier_respect_check(fmax, spec, grid, 1e-3).passed


def test_barrier_check_flags_injected_fault(sweep_results):
    spec, grid, fmin, _, _, _ = sweep_results
    broken = np.array(fmin.values, copy=True)
    broken[0, grid.nt // 2, grid.nx // 2] -= 1.0
    from switchgame.solver import ValueField
    bad = ValueField(system="minmax", mode_labels=fmin.mode_labels, values=broken,
                     grid=grid, penalty=fmin.penalty)
    verdict = barrier_respect_check(bad, spec, grid, 1e-3)
    assert not verdict.passed
    where = [(w["side"], w["pair"], w["t_index"], w["x"]) for w in verdict.witnesses]
    assert ("floor", [1, 1], grid.nt // 2, float(grid.xs[grid.nx // 2])) in where


def test_sup_gap_basics(sweep_results):
    _, grid, fmin, _, _, _ = sweep_results
    assert sup_gap(fmin, fmin) == 0.0
    from switchgame.solver import ValueField
    shifted = ValueField(system="minmax", mode_labels=fmin.mode_labels,
                         values=fmin.values + 1.0, grid=grid, penalty=fmin.penalty)
    assert sup_gap(fmin, shifted) == pytest.approx(1.0)
    other = ValueField(system="minmax", mode_labels=fmin.mode_labels,
                       values=fmin.values[:, :, ::2], grid=grid, penalty=None)
    with pytest.raises(ValueError):
        sup_gap(fmin, other)


@pytest.mark.parametrize("direction", ["minmax", "maxmin"])
def test_penalty_excess_matches_termwise_loop(direction):
    # 3x3 modes with cheap switches, so several excess terms per pair are active
    modes = (1, 2, 3)
    costs1 = {(a, b): 0.05 * (1 + abs(a - b)) for a in modes for b in modes if a != b}
    costs2 = {(a, b): 0.04 * (1 + abs(a - b)) for a in modes for b in modes if a != b}
    drivers = {(i, j): f"0.5*({i}-2)*sin(x) - 0.4*({j}-2)*cos(x)" for i in modes for j in modes}
    spec = build_spec(modes1=modes, modes2=modes, costs1=costs1, costs2=costs2,
                      drivers=drivers, volatility="0.4", domain=(-2.0, 2.0))
    grid = build_grid(spec, 11, 13)
    solve = solve_minmax if direction == "minmax" else solve_maxmin
    field, report = solve(spec, grid, PenaltySchedule(levels=(8.0,), fixed_point_tol=1e-12))
    m1, m2 = spec.modes.modes1, spec.modes.modes2
    v = field.values.reshape(len(m1), len(m2), grid.nt, grid.nx)
    expected = {}
    for a, i in enumerate(m1):
        for b, j in enumerate(m2):
            worst = 0.0
            for k, t in enumerate(grid.times):
                ctx = EvalContext(t, grid.xs)
                if direction == "minmax":
                    terms = [np.maximum(v[a, b, k] - v[a, c, k]
                                        - evaluate(spec.costs.costs2[(j, l)], ctx), 0.0)
                             for c, l in enumerate(m2) if l != j]
                else:
                    terms = [np.maximum(v[c, b, k] - evaluate(spec.costs.costs1[(i, q)], ctx)
                                        - v[a, b, k], 0.0)
                             for c, q in enumerate(m1) if q != i]
                worst = max(worst, 8.0 * float(np.max(sum(terms))))
            expected[f"{i},{j}"] = worst
    assert report.penalty_excess[-1] == expected
    assert any(w > 0 for w in expected.values())


# ---------------------------------------------------------------------------
# Data comparison invariants
# ---------------------------------------------------------------------------


def _scaled_spec(lam):
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 0.07 * lam, 0.05 * lam)
    drivers = {
        (1, 1): f"{lam}*(0.3*sin(x))",
        (1, 2): f"{lam}*(0.3*sin(x) - 0.12*(t + 0.2))",
        (2, 1): f"{lam}*(0.3*sin(x) + 0.12*(1.2 - t))",
        (2, 2): f"{lam}*(0.3*sin(x) + 0.12*(1.2 - t) - 0.12*(t + 0.2) + 0.05*sin(x)*t)",
    }
    terminals = {p: f"{lam}*(0.25*x^2 - 0.1*cos(x))" for p in ((1, 1), (1, 2), (2, 1), (2, 2))}
    return build_spec(costs1=costs1, costs2=costs2, drivers=drivers, terminals=terminals,
                      volatility="0.5", domain=(-3.0, 3.0))


def test_positive_homogeneity():
    grid_args = (21, 21)
    base = _scaled_spec(1)
    doubled = _scaled_spec(2)
    ga = build_grid(base, *grid_args)
    fa, _ = solve_minmax(base, ga, SCHED)
    fb, _ = solve_minmax(doubled, build_grid(doubled, *grid_args), SCHED)
    assert np.max(np.abs(fb.values - 2.0 * fa.values)) < 1e-9


def test_terminal_shift_equivariance():
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 0.07, 0.05)
    drivers = {(1, 1): "0.1", (1, 2): "0", (2, 1): "0.05", (2, 2): "0.15"}
    base = build_spec(costs1=costs1, costs2=costs2, drivers=drivers,
                      terminals={p: "0.2*x^2" for p in ((1, 1), (1, 2), (2, 1), (2, 2))},
                      volatility="0.5")
    shifted = build_spec(costs1=costs1, costs2=costs2, drivers=drivers,
                         terminals={p: "0.2*x^2 + 3" for p in ((1, 1), (1, 2), (2, 1), (2, 2))},
                         volatility="0.5")
    grid = build_grid(base, 21, 21)
    fa, _ = solve_minmax(base, grid, SCHED)
    fb, _ = solve_minmax(shifted, build_grid(shifted, 21, 21), SCHED)
    assert np.max(np.abs(fb.values - (fa.values + 3.0))) < 1e-9


def test_monotone_in_driver():
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 0.07, 0.05)
    drivers = {(1, 1): "0.1", (1, 2): "0", (2, 1): "0.05", (2, 2): "0.15"}
    bumped = dict(drivers)
    bumped[(1, 1)] = "0.1 + 0.2"
    terminals = {p: "0.1*x^2" for p in ((1, 1), (1, 2), (2, 1), (2, 2))}
    a = build_spec(costs1=costs1, costs2=costs2, drivers=drivers, terminals=terminals,
                   volatility="0.5")
    b = build_spec(costs1=costs1, costs2=costs2, drivers=bumped, terminals=terminals,
                   volatility="0.5")
    grid = build_grid(a, 21, 21)
    fa, _ = solve_minmax(a, grid, SCHED)
    fb, _ = solve_minmax(b, build_grid(b, 21, 21), SCHED)
    assert np.min(fb.values[0] - fa.values[0]) >= -1e-11


@pytest.mark.parametrize("spec,message", [
    # player 1 has one mode, so only the penalized ceiling's active set moves
    (build_spec(modes1=(1,), costs2={(1, 2): 0.05, (2, 1): 0.05},
                drivers={(1, 1): "1", (1, 2): "0"}), "reaction active set"),
    # player 2 has one mode, so only the contact set of the hard floor moves
    (build_spec(modes2=(1,), costs1={(1, 2): 0.25, (2, 1): 0.25},
                drivers={(1, 1): "1", (2, 1): "0"}), "contact policy"),
], ids=["active_set", "contact_policy"])
def test_level_solve_raises_at_its_cap(monkeypatch, spec, message):
    grid = build_grid(spec, 11, 5)
    solve_minmax(spec, grid, SCHED)
    monkeypatch.setattr(solver, "_ACTIVE_SET_CAP", 1)
    with pytest.raises(ConvergenceError, match=message) as err:
        solve_minmax(spec, grid, SCHED)
    assert 0 < err.value.residual < np.inf


def test_g1_data_on_a_coarse_grid_settles_every_policy():
    # rows of the ascending scheme's contact policy tie at rounding level here
    # (clamp_sweep leaves values exactly on their obstacles)
    g1 = load_config(str(CONFIG_DIR / "g1_game_2x2.json"))
    grid = build_grid(g1.spec, 21, 21)
    for solve in (solve_minmax, solve_maxmin):
        _, report = solve(g1.spec, grid, g1.schedule)
        assert report.monotonicity_violation <= g1.schedule.fixed_point_tol


@given(spec=generated_specs(), nt=st.integers(11, 40), nx=st.integers(11, 40))
@settings(max_examples=10, deadline=None)
def test_generated_specs_converge_with_a_monotone_sweep(spec, nt, nx):
    grid = build_grid(spec, nt, nx)
    for solve in (solve_minmax, solve_maxmin):
        _, report = solve(spec, grid, SCHED)
        assert report.monotonicity_violation <= SCHED.fixed_point_tol


def _mirror(spec):
    """The same game with the players swapped and the rewards negated."""
    def flip(table):
        return {(j, i): Neg(expr) for (i, j), expr in table.items()}

    return replace(spec, modes=model.ModeSets(spec.modes.modes2, spec.modes.modes1),
                   costs=model.SwitchCostTable(spec.costs.costs2, spec.costs.costs1),
                   drivers=model.DriverTable(flip(spec.drivers.f)),
                   terminals=model.TerminalTable(flip(spec.terminals.h)))


@given(spec=generated_specs(), nt=st.integers(11, 25), nx=st.integers(11, 25))
@settings(max_examples=10, deadline=None)
def test_schemes_are_mirror_images(spec, nt, nx):
    # the ascending scheme is the descending one of the mirrored game, negated
    # with the pair axes swapped, and the other way round
    grid = build_grid(spec, nt, nx)
    mirror = _mirror(spec)
    n1, n2 = len(spec.modes.modes1), len(spec.modes.modes2)
    for solve, mirrored in ((solve_maxmin, solve_minmax), (solve_minmax, solve_maxmin)):
        direct = solve(spec, grid, SCHED)[0].values.reshape(n1, n2, nt, nx)
        flipped = mirrored(mirror, grid, SCHED)[0].values.reshape(n2, n1, nt, nx)
        assert np.max(np.abs(direct + flipped.transpose(1, 0, 2, 3))) <= SCHED.fixed_point_tol


# ---------------------------------------------------------------------------
# The penalty ladder: one wavefront with the results of solving pass by pass
# ---------------------------------------------------------------------------


@given(spec=generated_specs(), nt=st.integers(11, 25), nx=st.integers(11, 25))
@settings(max_examples=10, deadline=None)
def test_a_pass_does_not_see_the_passes_after_it(spec, nt, nx):
    # the passes of a ladder are solved together; the first three come out
    # as they do when they are the whole ladder, and the last field is that
    # of solving the passes one after the other, each warm-started from the
    # whole field of the one before
    grid = build_grid(spec, nt, nx)
    cache = solver._LevelCache(spec, grid)
    for direction, solve in (("minmax", solve_minmax), ("maxmin", solve_maxmin)):
        field, full = solve(spec, grid, SCHED_FULL)
        _, short = solve(spec, grid, SCHED)
        warm = None
        for m in SCHED_FULL.levels:
            warm = solver._wavefront(cache, direction, (m,), SCHED_FULL.fixed_point_tol, warm)[0]
        assert field.values.tobytes() == warm.tobytes()
        assert full.iterations[:3] == short.iterations
        assert full.sup_deltas[:2] == short.sup_deltas
        assert full.penalty_excess[:3] == short.penalty_excess


def _maxmin_stall_spec():
    # an example that test_a_pass_does_not_see_the_passes_after_it can draw
    modes = (1, 2, 3)
    pairs = [(i, j) for i in modes for j in modes]
    slopes = (-0.557, 0.607, -0.715, 0.086, -0.818, 0.986, 0.75, 0.996, -0.021)
    costs1, costs2 = uniform_costs(modes, modes, 0.288, 0.292)
    spec = build_spec(modes1=modes, modes2=modes, costs1=costs1, costs2=costs2,
                      drivers={p: f"(0.0) + ({c})*x" for p, c in zip(pairs, slopes)},
                      terminals={p: "0.0*x^2 + (0.0)*x" for p in pairs}, volatility=0.338,
                      domain=(-2.0, 2.0))
    return spec, build_grid(spec, 11, 11)


@pytest.mark.xfail(strict=True, raises=ConvergenceError,
                   reason="the max-min Gauss-Seidel fixed point can stall on a 3x3 spec that "
                          "min-max solves: penalty 256, time level 8, residual 1.783e-11")
def test_maxmin_converges_on_a_3x3_spec_that_minmax_solves():
    spec, grid = _maxmin_stall_spec()
    try:
        solve_minmax(spec, grid, SCHED_FULL)
    except ConvergenceError as exc:
        pytest.fail(f"min-max no longer converges here: {exc}")
    solve_maxmin(spec, grid, PenaltySchedule((256.0,), 1e-12))


def test_a_wavefront_stall_names_the_pass_that_stalled():
    # the ladder's error comes from solving the passes one at a time; the
    # wavefront's own error, its context, must name the same pass and level,
    # not a row that had already converged
    spec, grid = _maxmin_stall_spec()
    with pytest.raises(ConvergenceError) as err:
        solve_maxmin(spec, grid, SCHED_FULL)
    wavefront = err.value.__context__
    assert type(wavefront) is ConvergenceError
    assert str(err.value) == ("maxmin fixed point stalled at penalty 256, time level 8 "
                              "(residual 2.165e-11)")
    assert str(wavefront) == str(err.value)


# SHA-256 of values.tobytes() + json.dumps(report.to_dict()), recorded with
# the solver that ran the passes one after the other
LADDER_DIGESTS = {
    0: {"minmax": "10450a3e9fac1c1a36b65e316dca64c7f1f02d37dcbeede862838a5bc7cbb28a",
         "maxmin": "47280485585c930a8cf80fc483003c271f2897a67f8cbebc200a69be8d07af4a"},
    1: {"minmax": "50b2408f4986cff65c5b7a107c0074c5e844b078a0902df93ea4e66bc0b018dd",
         "maxmin": "0d78e8a60a969492114b130fa2fb668285179ef0531fae1fd7f0fb9322f561e9"},
    3: {"minmax": "a13c5ced2e362db94dfb005b338df3010d98432e9b76a38d2c8a45535a28ab73",
         "maxmin": "b467f9c1a231db3e4178da513da563ab84e04cb07e5c00764b05bdf3b1c180fa"},
    5: {"minmax": "13c5ae3bc3fb6f83720a03d3e16d89e4e968403729db1cfc983d98661ca7b54a",
         "maxmin": "9a880ef8af03f8c2868b2055ff279b1b2641e70f3b5b18b3b703d73c7114584a"},
    6: {"minmax": "c1929d2c6f5830a0e3b925d6265a9c04a1699af66911259176e88b0f7a170140",
         "maxmin": "622ea5fa496bf74c0c3198c222a8a49dbaad085c8913fe711e6048e62d5bfd8d"},
    10: {"minmax": "adf2a906471178a52350d9357d2a43c4198d4f75e7bbe3765e96fcacf6063856",
          "maxmin": "7c385b9af23047da455c92132ae8d4820c176e6090c70118dde3e6db3790ce90"},
    11: {"minmax": "91bce23bf6a762dafb0d3617dd96dea234627412e0c8e2122cb3c93602e73ef7",
          "maxmin": "1a7b33d42ad5dcdd243f3858fea82a83f1b050b22ee8bee4b1dbd7a2b6709712"},
    12: {"minmax": "abd1fd400593497ff62bfbb23440e147bc3b9fc307f455b95cc134fb84aa93bc",
          "maxmin": "2fe8088051b3645704e882212ec612d1034e6bbec6535c6d09e5220bdfbbe05b"},
}


@pytest.mark.parametrize("seed", sorted(LADDER_DIGESTS))
def test_generated_solves_keep_their_bytes(seed):
    spec, nt, nx = seeded_spec(seed)
    grid = build_grid(spec, nt, nx)
    for name, solve in (("minmax", solve_minmax), ("maxmin", solve_maxmin)):
        field, report = solve(spec, grid, SCHED_FULL)
        digest = hashlib.sha256(field.values.tobytes() + json.dumps(report.to_dict()).encode())
        assert digest.hexdigest() == LADDER_DIGESTS[seed][name]


def _overflows(vnext, k):
    # on E1 at 11x9 the min-max values fall as the penalty rises: at time
    # level 5 the passes from penalty 16 on overflow, at level 0 penalty 1's
    # does too, so the wavefront meets penalty 16's overflow first
    return (k == 5 and vnext.sum() < 34.28) or (k == 0 and vnext.sum() > 35.6)


def _singular(diagonal):
    # only penalty 256's reaction (dt * 256 = 25.6 on E1 at 11x9) gets here
    return diagonal.max() > 21.0


def _clamp_stalls(values):
    # on E1 at 11x9 the sum of a min-max level lies in this band only at
    # penalty 16's level 5 and above it only at penalty 1's level 0
    return 34.39 < values.sum() < 34.40 or values.sum() > 36.1


def _break(monkeypatch, caps, overflow=False, singular=False, clamp=False):
    """Lower the solver's caps and make chosen level solves fail: _level_rhs
    raises its overflow error where _overflows, gtsv reports a zero pivot
    where _singular, and the end-of-level clamp of a pass, indexed
    (i, j, x), raises where _clamp_stalls."""
    for name, cap in caps.items():
        monkeypatch.setattr(model if name == "SWEEP_CAP" else solver, name, cap)
    if clamp:
        clamp_sweep = solver.clamp_sweep

        def stalling_clamp(base, **costs):
            passes = [base] if base.ndim == 3 else [base[:, :, r] for r in range(base.shape[2])]
            for values in passes:
                if _clamp_stalls(values):
                    raise ConvergenceError(f"clamp stalls below {float(values.max())!r}",
                                           residual=1.0)
            return clamp_sweep(base, **costs)

        monkeypatch.setattr(solver, "clamp_sweep", stalling_clamp)
    if overflow:
        level_rhs = solver._level_rhs
        monkeypatch.setattr(solver, "_level_rhs", lambda vnext, dt, f, k: level_rhs(
            np.full_like(vnext, np.inf) if _overflows(vnext, k) else vnext, dt, f, k))
    if singular:
        dgtsv = grid_module.dgtsv
        monkeypatch.setattr(grid_module, "dgtsv", lambda dl, d, du, b: (
            (dl, d, du, b, 1) if _singular(d) else dgtsv(dl, d, du, b)))


INF_LADDER = PenaltySchedule(levels=(1.0, 4.0, math.inf), fixed_point_tol=1e-12)
# (id, problem: "e1" at 11x9 or a seeded_spec seed, scheme, ladder, caps,
# other breakage) -> the error type, text and residual (float.hex) that the
# passes raise when solved one after the other.  "first" marks a case in
# which a later pass fails at an earlier wavefront step than the pass whose
# error is raised.
LADDER_ERRORS = [
    ("e1-minmax-fpc1", "e1", "minmax", SCHED_FULL, {"FIXED_POINT_CAP": 1}, {}),
    ("e1-maxmin-fpc1", "e1", "maxmin", SCHED_FULL, {"FIXED_POINT_CAP": 1}, {}),
    ("e1-minmax-fpc2", "e1", "minmax", SCHED_FULL, {"FIXED_POINT_CAP": 2}, {}),
    ("e1-maxmin-fpc2", "e1", "maxmin", SCHED_FULL, {"FIXED_POINT_CAP": 2}, {}),
    ("e1-minmax-fpc3", "e1", "minmax", SCHED_FULL, {"FIXED_POINT_CAP": 3}, {}),
    ("e1-maxmin-fpc3", "e1", "maxmin", SCHED_FULL, {"FIXED_POINT_CAP": 3}, {}),
    ("e1-minmax-asc1", "e1", "minmax", SCHED_FULL, {"_ACTIVE_SET_CAP": 1}, {}),
    ("e1-maxmin-asc1", "e1", "maxmin", SCHED_FULL, {"_ACTIVE_SET_CAP": 1}, {}),
    ("e1-maxmin-fpc2-asc2", "e1", "maxmin", SCHED_FULL,
     {"FIXED_POINT_CAP": 2, "_ACTIVE_SET_CAP": 2}, {}),
    ("e1-minmax-nonfinite", "e1", "minmax", INF_LADDER, {}, {}),
    ("e1-maxmin-nonfinite", "e1", "maxmin", INF_LADDER, {}, {}),
    ("e1-minmax-singular", "e1", "minmax", SCHED_FULL, {}, {"singular": True}),
    ("e1-minmax-overflow-first", "e1", "minmax", SCHED_FULL, {}, {"overflow": True}),
    ("e1-minmax-singular-first", "e1", "minmax", SCHED_FULL, {},
     {"overflow": True, "singular": True}),
    ("e1-minmax-clamp-first", "e1", "minmax", SCHED_FULL, {}, {"clamp": True}),
    ("s1-maxmin-fpc2", 1, "maxmin", SCHED_FULL, {"FIXED_POINT_CAP": 2}, {}),
    ("s3-minmax-asc1", 3, "minmax", SCHED_FULL, {"_ACTIVE_SET_CAP": 1}, {}),
    ("s16-minmax-asc2-first", 16, "minmax", SCHED_FULL, {"_ACTIVE_SET_CAP": 2}, {}),
    ("s26-maxmin-asc2-first", 26, "maxmin", SCHED_FULL, {"_ACTIVE_SET_CAP": 2}, {}),
    ("s28-minmax-fpc3-asc2", 28, "minmax", SCHED_FULL,
     {"FIXED_POINT_CAP": 3, "_ACTIVE_SET_CAP": 2}, {}),
    ("s50-minmax-fpc3-asc2-first", 50, "minmax", SCHED_FULL,
     {"FIXED_POINT_CAP": 3, "_ACTIVE_SET_CAP": 2}, {}),
    ("s16-minmax-nonfinite-first", 16, "minmax", INF_LADDER, {"_ACTIVE_SET_CAP": 2}, {}),
    ("s13-minmax-clamp-first", 13, "minmax", SCHED_FULL, {"SWEEP_CAP": 1}, {}),
]
LADDER_ERROR_TEXTS = {
    "e1-minmax-fpc1": (
        "ConvergenceError",
        "minmax fixed point stalled at penalty 1, time level 9 (residual 3.950e-02)",
        "0x1.439c62f0278b0p-5"),
    "e1-maxmin-fpc1": (
        "ConvergenceError",
        "maxmin fixed point stalled at penalty 1, time level 9 (residual 3.950e-02)",
        "0x1.439c62f0278b0p-5"),
    "e1-minmax-fpc2": (
        "ConvergenceError",
        "minmax fixed point stalled at penalty 1, time level 7 (residual 9.177e-04)",
        "0x1.e1216b417f400p-11"),
    "e1-maxmin-fpc2": (
        "ConvergenceError",
        "maxmin fixed point stalled at penalty 1, time level 7 (residual 1.040e-02)",
        "0x1.54b791d0d1f80p-7"),
    "e1-minmax-fpc3": (
        "ConvergenceError",
        "minmax fixed point stalled at penalty 1, time level 3 (residual 1.974e-05)",
        "0x1.4b2fb15160000p-16"),
    "e1-maxmin-fpc3": (
        "ConvergenceError",
        "maxmin fixed point stalled at penalty 1, time level 3 (residual 1.973e-05)",
        "0x1.4aefc70148000p-16"),
    "e1-minmax-asc1": (
        "ConvergenceError",
        "minmax at penalty 1, time level 7, pair (1,1): reaction active set still changing "
        "after 1 solves (residual 3.520e-02)",
        "0x1.205743124f870p-5"),
    "e1-maxmin-asc1": (
        "ConvergenceError",
        "maxmin at penalty 1, time level 7, pair (1,1): contact policy still changing after "
        "1 policies (residual 3.520e-02)",
        "0x1.205743124f870p-5"),
    "e1-maxmin-fpc2-asc2": (
        "ConvergenceError",
        "maxmin fixed point stalled at penalty 1, time level 7 (residual 1.040e-02)",
        "0x1.54b791d0d1f80p-7"),
    "e1-minmax-nonfinite": ("ValueError", "array must not contain infs or NaNs", None),
    "e1-maxmin-nonfinite": ("ValueError", "array must not contain infs or NaNs", None),
    "e1-minmax-singular": ("LinAlgError", "singular matrix", None),
    "e1-minmax-overflow-first": (
        "SwitchgameError",
        "the implicit step overflows at time level 0: its right-hand side is not finite",
        None),
    "e1-minmax-singular-first": (
        "SwitchgameError",
        "the implicit step overflows at time level 0: its right-hand side is not finite",
        None),
    "e1-minmax-clamp-first": (
        "ConvergenceError",
        "clamp stalls below 2.4742222044338247 (residual 1.000e+00)",
        "0x1.0000000000000p+0"),
    "s1-maxmin-fpc2": (
        "ConvergenceError",
        "maxmin fixed point stalled at penalty 1, time level 16 (residual 1.218e-01)",
        "0x1.f2ec04c6fec60p-4"),
    "s3-minmax-asc1": (
        "ConvergenceError",
        "minmax at penalty 1, time level 23, pair (1,2): reaction active set still changing "
        "after 1 solves (residual 3.351e-01)",
        "0x1.5719b7c9db918p-2"),
    "s16-minmax-asc2-first": (
        "ConvergenceError",
        "minmax at penalty 1, time level 10, pair (2,2): contact policy still changing after "
        "2 policies (residual 8.100e-02)",
        "0x1.4bc5d351e8300p-4"),
    "s26-maxmin-asc2-first": (
        "ConvergenceError",
        "maxmin at penalty 4, time level 0, pair (2,1): reaction active set still changing "
        "after 2 solves (residual 1.239e-02)",
        "0x1.9628b121be6f0p-7"),
    "s28-minmax-fpc3-asc2": (
        "ConvergenceError",
        "minmax at penalty 16, time level 2, pair (1,3): reaction active set still changing "
        "after 2 solves (residual 1.140e-02)",
        "0x1.758b266439c00p-7"),
    "s50-minmax-fpc3-asc2-first": (
        "ConvergenceError",
        "minmax at penalty 1, time level 5, pair (1,1): contact policy still changing after "
        "2 policies (residual 4.139e-02)",
        "0x1.5309612db7ab0p-5"),
    "s16-minmax-nonfinite-first": (
        "ConvergenceError",
        "minmax at penalty 1, time level 10, pair (2,2): contact policy still changing after "
        "2 policies (residual 8.100e-02)",
        "0x1.4bc5d351e8300p-4"),
    "s13-minmax-clamp-first": (
        "ConvergenceError",
        "clamp sweep still moving after 1 sweeps (residual 2.220e-16)",
        "0x1.0000000000000p-52"),
}


def _ladder_error(monkeypatch, problem, scheme, ladder, caps, breakage):
    """(type, text, residual as float.hex or None) of the error a broken
    solve raises."""
    if problem == "e1":
        spec, nt, nx = load_config(str(CONFIG_DIR / "e1_equality_2x2.json")).spec, 11, 9
    else:
        spec, nt, nx = seeded_spec(problem)
    grid = build_grid(spec, nt, nx)
    _break(monkeypatch, caps, **breakage)
    solve = solve_minmax if scheme == "minmax" else solve_maxmin
    # an infinite penalty makes inf * 0 in the reaction's diagonal
    with np.errstate(invalid="ignore"), pytest.raises(Exception) as err:
        solve(spec, grid, ladder)
    residual = getattr(err.value, "residual", None)
    return type(err.value).__name__, str(err.value), None if residual is None else residual.hex()


@pytest.mark.parametrize("case", LADDER_ERRORS, ids=[c[0] for c in LADDER_ERRORS])
def test_ladder_raises_the_first_error_in_pass_order(monkeypatch, case):
    assert _ladder_error(monkeypatch, *case[1:]) == LADDER_ERROR_TEXTS[case[0]]


def test_a_pass_never_reached_raises_no_warning_in_place_of_the_error(monkeypatch):
    # under warnings as errors and without np.errstate: the infinite pass,
    # which solving pass by pass never reaches, makes inf * 0 in its
    # reaction's diagonal, and that warning must not replace pass 1's error
    spec, nt, nx = seeded_spec(26)
    monkeypatch.setattr(solver, "_ACTIVE_SET_CAP", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as err:
            solve_maxmin(spec, build_grid(spec, nt, nx), INF_LADDER)
    assert str(err.value) == ("maxmin at penalty 4, time level 0, pair (2,1): reaction active "
                              "set still changing after 2 solves (residual 1.239e-02)")


@pytest.mark.parametrize("problem", ["e1", 0, 3, 12])
def test_a_ladder_that_succeeds_is_solved_once(monkeypatch, problem):
    # a failed ladder is solved again pass by pass; one that succeeds is not,
    # so an error of the all-pass wavefront alone cannot hide behind the replay
    if problem == "e1":
        config = load_config(str(CONFIG_DIR / "e1_equality_2x2.json"))
        spec, nt, nx, ladder = config.spec, 41, 33, config.schedule
    else:
        (spec, nt, nx), ladder = seeded_spec(problem), SCHED_FULL
    runs = []
    wavefront = solver._wavefront
    monkeypatch.setattr(solver, "_wavefront",
                        lambda cache, direction, *rest: runs.append(direction)
                        or wavefront(cache, direction, *rest))
    grid = build_grid(spec, nt, nx)
    for solve in (solve_minmax, solve_maxmin):
        solve(spec, grid, ladder)
    assert runs == ["minmax", "maxmin"]


@pytest.mark.parametrize("problem", [0, 3])
def test_a_ladder_solved_pass_by_pass_reports_what_the_wavefront_does(monkeypatch, problem):
    # the replay's one-pass wavefronts take each pass's statistics against
    # the field it is warm-started from
    spec, nt, nx = seeded_spec(problem)
    grid = build_grid(spec, nt, nx)
    solved = {solve: solve(spec, grid, SCHED_FULL) for solve in (solve_minmax, solve_maxmin)}
    wavefront = solver._wavefront

    def one_pass_only(cache, direction, penalties, *rest):
        if len(penalties) > 1:
            raise ConvergenceError("a wavefront of several passes", residual=1.0)
        return wavefront(cache, direction, penalties, *rest)

    monkeypatch.setattr(solver, "_wavefront", one_pass_only)
    for solve, (field, report) in solved.items():
        replayed, replayed_report = solve(spec, grid, SCHED_FULL)
        assert replayed.values.tobytes() == field.values.tobytes()
        assert replayed_report.to_dict() == report.to_dict()


# ---------------------------------------------------------------------------
# Level data at the shape its expressions need, statistics as the levels finish
# ---------------------------------------------------------------------------


def _e1_grid():
    config = load_config(str(CONFIG_DIR / "e1_equality_2x2.json"))
    grid = build_grid(config.spec, config.nt, config.nx)
    return config, grid


def test_minmax_on_e1_holds_little_beyond_its_passes_and_drivers():
    config, grid = _e1_grid()
    field_bytes = len(config.spec.modes.pairs) * grid.nt * grid.nx * 8
    tracemalloc.start()
    try:
        solve_minmax(config.spec, grid, config.schedule)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the five passes and the drivers f, and one field's worth for the
    # level kernel's and the report's temporaries; whole-lattice costs,
    # per-level weights and whole-field report temporaries need five more
    assert peak <= (5 + 1 + 1) * field_bytes


def test_minmax_on_e1_holds_only_its_last_pass_whole():
    config, grid = _e1_grid()
    field_bytes = len(config.spec.modes.pairs) * grid.nt * grid.nx * 8
    tracemalloc.start()
    try:
        solve_minmax(config.spec, grid, config.schedule)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the last pass, the drivers f and one field's worth for the level
    # kernel's temporaries: the passes before the last keep one level each
    assert peak <= 3 * field_bytes


def test_e1_level_cache_stores_constant_data_once_and_read_only():
    config, grid = _e1_grid()
    cache = solver._LevelCache(config.spec, grid)
    for costs in (cache.g1, cache.g2):  # constant costs
        assert costs.shape == (2, 2, grid.nt, grid.nx) and costs.strides[2:] == (0, 0)
    for weights in (cache.lower, cache.center, cache.upper):  # drift and volatility free of t
        assert weights.shape == (grid.nt, grid.nx) and weights.strides[0] == 0
    for data in (cache.f, cache.g1, cache.g2, cache.lower, cache.center, cache.upper):
        with pytest.raises(ValueError, match="read-only"):
            data[0, ...] = 0.0


def _whole_lattice_cost_array(table, modes, ctx):
    """cost_array as one value per lattice node: the reference."""
    n = len(modes)
    out = np.full((n, n) + np.broadcast_shapes(np.shape(ctx.t), np.shape(ctx.x)), math.inf)
    for a, i in enumerate(modes):
        for b, k in enumerate(modes):
            if a != b:
                out[a, b] = evaluate(table[(i, k)], ctx)
    return out


def test_level_cache_in_t_and_x_equals_per_level_and_whole_lattice_data():
    spec = build_spec(modes1=(1, 2, 3), costs1={(1, 2): "0.1 + 0.05*t", (1, 3): "0.2",
                                                (2, 1): "0.1 + 0.01*x^2", (2, 3): "0.2*(1 + t*x^2)",
                                                (3, 1): "0.3", (3, 2): "0.3"},
                      costs2={(1, 2): "0.1 + 0.02*x", (2, 1): "0.15"},
                      drivers={(i, j): f"{i}*sin(x) - {j}*t" for i in (1, 2, 3) for j in (1, 2)},
                      drift="0.1*t - 0.2*x", volatility="0.3 + 0.1*x^2", domain=(-2.0, 2.0))
    grid = build_grid(spec, 13, 11)
    cache = solver._LevelCache(spec, grid)
    lattice = EvalContext(grid.times[:, np.newaxis], grid.xs)
    stencils = [grid_module.discretize_generator(spec, grid, t) for t in grid.times]
    for name in ("lower", "center", "upper"):
        expected = np.stack([getattr(s, name) for s in stencils])
        assert getattr(cache, name).tobytes() == expected.tobytes()
    for data, table, modes in ((cache.g1, spec.costs.costs1, spec.modes.modes1),
                               (cache.g2, spec.costs.costs2, spec.modes.modes2)):
        assert data.tobytes() == _whole_lattice_cost_array(table, modes, lattice).tobytes()
    assert cache.g2.strides[2] == 0  # player 2's costs are free of t
    drivers = np.stack([evaluate(spec.drivers.f[p], lattice) for p in spec.modes.pairs])
    assert cache.f.tobytes() == drivers.tobytes()


def _whole_field_statistics(spec, grid, passes, direction):
    """The report's sup_deltas, monotonicity_violation and penalty_excess by
    the whole-field formulas, from each pass's field."""
    cache = solver._LevelCache(spec, grid)
    n1, n2 = len(spec.modes.modes1), len(spec.modes.modes2)
    passes = [f.values.reshape(n1, n2, grid.nt, grid.nx) for f in passes]
    deltas, violation = [], 0.0
    for prev, values in zip(passes, passes[1:]):
        deltas.append(float(np.max(np.abs(values - prev))))
        violation = max(violation, float(np.max(values - prev if direction == "minmax"
                                                else prev - values)))
    excess = []
    for m, values in zip(SCHED.levels, passes):
        expected = {}
        for a, b in np.ndindex(n1, n2):
            if direction == "minmax":
                terms = values[a, b] - values[a] - cache.g2[b]
            else:
                terms = model.floor(values, cache.g1, (a, b), each=True) - values[a, b]
            total = np.maximum(terms, 0.0).sum(axis=0)
            expected[f"{spec.modes.modes1[a]},{spec.modes.modes2[b]}"] = max(
                0.0, m * float(np.max(total)))
        excess.append(expected)
    return deltas, violation, excess


@pytest.mark.parametrize("direction", ["minmax", "maxmin"])
def test_sweep_statistics_are_the_whole_field_maxima(monkeypatch, direction):
    # the statistics are taken as the levels finish; they are the maxima of
    # the whole-field formulas over each pass's field, here with a NaN put
    # into the last pass's level 0, the last level solved and one that no
    # other level reads: np.maximum keeps it where the whole-field np.max does
    spec = _stochastic_2x2()
    grid = build_grid(spec, 21, 9)
    solve = solve_minmax if direction == "minmax" else solve_maxmin
    passes = prefix_ladder(solve, spec, grid, SCHED)
    # the wavefront's last step clamps only the last pass's level 0
    steps, clamp_sweep = itertools.count(), solver.clamp_sweep

    def clamp_with_a_nan(base, **costs):
        out = clamp_sweep(base, **costs)
        if next(steps) == grid.nt - 3 + len(SCHED.levels):
            out[1, 0, -1, 4] = math.nan
        return out

    monkeypatch.setattr(solver, "clamp_sweep", clamp_with_a_nan)
    field, report = solve(spec, grid, SCHED)
    passes[-1].values[2, 0, 4] = math.nan
    assert field.values.tobytes() == passes[-1].values.tobytes()

    deltas, violation, excess = _whole_field_statistics(spec, grid, passes, direction)
    assert report.penalty_excess == excess
    np.testing.assert_array_equal(report.sup_deltas, deltas)
    assert not math.isnan(report.sup_deltas[0]) and math.isnan(report.sup_deltas[1])
    assert report.monotonicity_violation == violation


@pytest.mark.parametrize("direction", ["minmax", "maxmin"])
def test_sweep_statistics_include_the_terminal_level(direction):
    # terminal values off their obstacles by 0.9 - 0.1 = 0.8 at (2,1) in
    # min-max and at (1,1) in max-min: the terminal level, which no pass
    # solves, carries the largest excess of every pass
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 0.1, 0.1)
    spec = build_spec(costs1=costs1, costs2=costs2,
                      terminals={(1, 1): "0", (1, 2): "0", (2, 1): "0.9", (2, 2): "0"},
                      volatility="0.3")
    grid = build_grid(spec, 11, 9)
    solve = solve_minmax if direction == "minmax" else solve_maxmin
    passes = prefix_ladder(solve, spec, grid, SCHED)
    _, report = solve(spec, grid, SCHED)
    deltas, violation, excess = _whole_field_statistics(spec, grid, passes, direction)
    assert report.penalty_excess == excess
    assert report.sup_deltas == deltas
    assert report.monotonicity_violation == violation
    pair = "2,1" if direction == "minmax" else "1,1"
    for m, reported in zip(SCHED.levels, report.penalty_excess):
        assert reported[pair] == pytest.approx(m * 0.8, rel=1e-12)
    # without the terminal level the excess is smaller
    solved = [replace(f, values=f.values[:, :-1], grid=Grid(grid.nt - 1, grid.nx,
                                                            grid.times[:-1], grid.xs))
              for f in passes]
    _, _, without = _whole_field_statistics(spec, solved[0].grid, solved, direction)
    assert all(w[pair] < r[pair] for w, r in zip(without, report.penalty_excess))


# ---------------------------------------------------------------------------
# Single-player systems
# ---------------------------------------------------------------------------


def _separated_spec(f1, costs1_value, h1=("0", "0")):
    costs1 = {(1, 2): costs1_value, (2, 1): costs1_value}
    costs2 = {(1, 2): 10.0, (2, 1): 10.0}
    drivers = {(i, j): f1[i - 1] for i in (1, 2) for j in (1, 2)}
    terminals = {(i, j): h1[i - 1] for i in (1, 2) for j in (1, 2)}
    return build_spec(costs1=costs1, costs2=costs2, drivers=drivers, terminals=terminals)


def test_single_obstacle_prohibitive_costs():
    spec = _separated_spec(("1", "0"), 10.0)
    grid = build_grid(spec, 11, 9)
    field, _ = solve_single_obstacle(spec, grid)
    assert field.values[field.index_of(1), 0, 4] == pytest.approx(1.0, abs=1e-10)
    assert field.values[field.index_of(2), 0, 4] == pytest.approx(0.0, abs=1e-10)


def test_single_obstacle_cheap_switch():
    spec = _separated_spec(("0", "1"), 0.1)
    grid = build_grid(spec, 11, 9)
    field, _ = solve_single_obstacle(spec, grid)
    assert field.values[field.index_of(1), 0, 4] == pytest.approx(0.9, abs=1e-10)


def test_single_obstacle_matches_schedule_enumeration():
    spec = _separated_spec(("0.2", "0.9"), 0.25)
    nt = 7
    grid = build_grid(spec, nt, 9)
    field, _ = solve_single_obstacle(spec, grid)
    for mode in (1, 2):
        brute = single_player_schedule_oracle(spec, nt, 0.0, 1, mode, max_switches=3)
        assert field.values[field.index_of(mode), 0, 4] == pytest.approx(brute, abs=1e-10)


def test_single_obstacle_single_mode_plain_pde():
    spec = build_spec(modes1=(1,), modes2=(1,), drivers={(1, 1): "0.5"},
                      terminals={(1, 1): "0"})
    grid = build_grid(spec, 11, 9)
    field, _ = solve_single_obstacle(spec, grid)
    assert field.values[0, 0, 4] == pytest.approx(0.5, abs=1e-10)


def test_single_obstacle_requires_separation():
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 1.0, 2.0)
    drivers = {(i, j): f"{i}*{j}*x" for i in (1, 2) for j in (1, 2)}
    spec = build_spec(costs1=costs1, costs2=costs2, drivers=drivers)
    grid = build_grid(spec, 6, 9)
    with pytest.raises(PreconditionError):
        solve_single_obstacle(spec, grid)


def _one_sided_spec(modes1, modes2, base_cost="0.05"):
    # the other player has one mode, so its obstacle never binds; its anchor
    # pair carries zero data, so player 2's components f^{1j} - f^{11} are
    # the drivers themselves
    modes = modes1 if len(modes1) > 1 else modes2
    costs = {(a, b): f"{base_cost} + 0.02*{abs(a - b)}*(1 + t) + 0.01*x^2"
             for a in modes for b in modes if a != b}
    data = {m: ("0", "0") if m == modes[0] else
            (f"0.3*sin(x + {m}) - 0.1*{m}*t", f"0.05*{m}*x") for m in modes}
    pairs = [(i, j) for i in modes1 for j in modes2]
    other = (lambda p: p[0]) if len(modes1) > 1 else (lambda p: p[1])
    return build_spec(modes1=modes1, modes2=modes2,
                      costs1=costs if modes is modes1 else {},
                      costs2=costs if modes is modes2 else {},
                      drivers={p: data[other(p)][0] for p in pairs},
                      terminals={p: data[other(p)][1] for p in pairs},
                      drift="0.3*(0.2 - x)", volatility="0.4", domain=(-2.0, 2.0))


@pytest.mark.parametrize("which,modes1,modes2", [(1, (1, 2, 3), (1,)), (2, (1,), (1, 2, 3))])
@pytest.mark.parametrize("order", ["minmax", "maxmin"])
def test_single_obstacle_equals_clamped_when_other_player_has_one_mode(which, modes1, modes2,
                                                                       order):
    spec = _one_sided_spec(modes1, modes2)
    grid = build_grid(spec, 21, 25)
    single = solve_single_obstacle(spec, grid)[which - 1]
    clamped = solve_clamped(spec, grid, order)
    assert single.system == ("single_lower" if which == 1 else "single_upper")
    assert single.mode_labels == (modes1 if which == 1 else modes2)
    assert single.values.shape == clamped.values.shape
    assert np.array_equal(single.values.view(np.int64), clamped.values.view(np.int64))
    # the obstacle binds: with prohibitive costs the field is different
    free = solve_clamped(_one_sided_spec(modes1, modes2, base_cost="100"), grid, order)
    assert np.max(np.abs(free.values - clamped.values)) > 1e-3


@pytest.mark.parametrize("drivers", [
    {(i, j): f"{i}*x + {j}*t" for i in (1, 2) for j in (1, 2)},
    {p: "sin(x)*t" for p in ((1, 1), (1, 2), (2, 1), (2, 2))},
], ids=["additive", "identical"])
def test_single_player_sum_rebuilds_unbound_pairs(drivers):
    # with costs too large to bind, each pair's value is the plain backward
    # solve of its own driver, which separates into the two players' solves
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 100.0, 100.0)
    terminals = {(i, j): f"0.1*{i}*x^2 - 0.05*{j}*x" for i in (1, 2) for j in (1, 2)}
    spec = build_spec(costs1=costs1, costs2=costs2, drivers=drivers, terminals=terminals,
                      volatility="0.3")
    grid = build_grid(spec, 21, 17)
    field1, field2 = solve_single_obstacle(spec, grid)
    clamped = solve_clamped(spec, grid, "minmax")
    for idx, (i, j) in enumerate(clamped.mode_labels):
        summed = field1.values[field1.index_of(i)] + field2.values[field2.index_of(j)]
        assert np.max(np.abs(summed - clamped.values[idx])) <= 1e-12
    # player 2's component vanishes at the anchor mode
    assert np.all(field2.values[field2.index_of(1)] == 0.0)


def test_decomposition_single_pair_is_tight():
    spec = build_spec(modes1=(1,), modes2=(1,), drivers={(1, 1): "0.3"},
                      terminals={(1, 1): "0.1*x^2"}, volatility="0.5")
    grid = build_grid(spec, 21, 21)
    coupled, _ = solve_minmax(spec, grid, SCHED)
    gap = decomposition_check(coupled, *solve_single_obstacle(spec, grid))
    assert gap < 1e-9


def test_decomposition_refuses_non_separated():
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 1.0, 2.0)
    drivers = {(i, j): f"{i}*{j}*x" for i in (1, 2) for j in (1, 2)}
    spec = build_spec(costs1=costs1, costs2=costs2, drivers=drivers)
    grid = build_grid(spec, 6, 9)
    with pytest.raises(PreconditionError):
        solve_single_obstacle(spec, grid)


def test_three_by_three_with_drift_keeps_scheme_structure():
    # larger mode sets and a sign-changing drift exercise the general
    # Gauss-Seidel chains and the upwind switching inside one solve
    modes = (1, 2, 3)
    costs1 = {(a, b): 0.2 + 0.05 * abs(a - b) for a in modes for b in modes if a != b}
    costs2 = {(a, b): 0.15 + 0.04 * abs(a - b) for a in modes for b in modes if a != b}
    drivers = {(i, j): f"0.2*sin(x + {i}) - 0.1*{j}*t" for i in modes for j in modes}
    terminals = {(i, j): "0.2*x^2" for i in modes for j in modes}
    spec = build_spec(modes1=modes, modes2=modes, costs1=costs1, costs2=costs2,
                      drivers=drivers, terminals=terminals,
                      drift="0.4*(0 - x)", volatility="0.4", domain=(-2.0, 2.0))
    grid = build_grid(spec, 26, 31)
    sched = PenaltySchedule(levels=(1.0, 8.0, 64.0), fixed_point_tol=1e-12)
    fmin, rmin = solve_minmax(spec, grid, sched)
    fmax, rmax = solve_maxmin(spec, grid, sched)
    assert rmin.monotonicity_violation == 0.0
    assert rmax.monotonicity_violation == 0.0
    pmin, pmax = (prefix_ladder(solve, spec, grid, sched) for solve in (solve_minmax, solve_maxmin))
    for asc, desc in zip(pmax, pmin):
        assert np.max(asc.values - desc.values) <= 1e-10
    gaps = [sup_gap(a, b) for a, b in zip(pmin, pmax)]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert barrier_respect_check(fmin, spec, grid, 5e-3).passed


def test_penalty_schedule_validation():
    with pytest.raises(ValueError):
        PenaltySchedule(levels=())
    with pytest.raises(ValueError):
        PenaltySchedule(levels=(1.0, 1.0))
    with pytest.raises(ValueError):
        PenaltySchedule(levels=(0.0, 4.0))


def test_fixed_point_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(solver, "FIXED_POINT_CAP", 1)
    spec = _stochastic_2x2()
    grid = build_grid(spec, 11, 11)
    tight = PenaltySchedule(levels=(64.0,), fixed_point_tol=1e-16)
    with pytest.raises(ConvergenceError) as err:
        solve_minmax(spec, grid, tight)
    assert err.value.residual > 0


# ---------------------------------------------------------------------------
# Shared-index interpolation
# ---------------------------------------------------------------------------


@given(
    nx=st.integers(3, 200),
    lo=st.floats(-10, 10),
    width=st.floats(1e-3, 20),
    scale=st.floats(1e-6, 1e6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_interp_x_bitwise_equal_to_np_interp(nx, lo, width, scale, seed):
    rng = np.random.default_rng(seed)
    xs = np.linspace(lo, lo + width, nx)
    grid = Grid(nt=2, nx=nx, times=np.array([0.0, 1.0]), xs=xs)
    values = scale * rng.standard_normal((3, 2, nx))
    values[0, 1, ::4] = -0.0  # a node hit must return the node value itself
    values[1, 1, 1::3] = values[1, 1, ::3][: values[1, 1, 1::3].size]  # flat cells
    field = ValueField("single_lower", (4, 1, 7), values, grid)
    points = np.concatenate([
        xs, np.nextafter(xs, np.inf), np.nextafter(xs, -np.inf),
        [xs[0] - 1.0, xs[-1] + 1.0, np.nextafter(xs[-1], np.inf), -1e300, 1e300],
        rng.uniform(lo - 0.1 * width, lo + 1.1 * width, 500),
    ])
    got = field.interp_x(1, points)
    for row, ys in enumerate(values[:, 1]):
        want = np.interp(points, xs, ys)
        assert np.array_equal(got[row].view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# Value CSV
# ---------------------------------------------------------------------------


def _csv_writer_reference(field, path):
    """ValueField.to_csv as it was written with csv.writer, one row per node."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["i", "j", "t_index", "x_index", "t", "x", "value"])
        for m_idx, label in enumerate(field.mode_labels):
            i, j = label if isinstance(label, tuple) else (label, "")
            for t_idx in range(field.grid.nt):
                t = field.grid.times[t_idx]
                for x_idx in range(field.grid.nx):
                    writer.writerow([
                        i, j, t_idx, x_idx, repr(float(t)),
                        repr(float(field.grid.xs[x_idx])),
                        repr(float(field.values[m_idx, t_idx, x_idx])),
                    ])


_CSV_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 1e16, -1e16,
                     1e-5, 1e-4, 0.1, 1 / 3, 1e300]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@given(
    data=st.data(),
    labels=st.one_of(
        st.lists(st.tuples(st.integers(-3, 12), st.integers(-3, 12)), min_size=1, max_size=3),
        st.lists(st.integers(-3, 12), min_size=1, max_size=3),
    ),
    nt=st.integers(1, 3),
    nx=st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_to_csv_writes_csv_writer_bytes(tmp_path_factory, data, labels, nt, nx):
    floats = lambda n: np.array(data.draw(st.lists(_CSV_FLOATS, min_size=n, max_size=n)))
    grid = Grid(nt=nt, nx=nx, times=floats(nt), xs=floats(nx))
    values = floats(len(labels) * nt * nx).reshape(len(labels), nt, nx)
    system = "minmax" if isinstance(labels[0], tuple) else "single_lower"
    field = ValueField(system, tuple(labels), values, grid)
    folder = tmp_path_factory.mktemp("csv")
    field.to_csv(folder / "fast.csv")
    _csv_writer_reference(field, folder / "reference.csv")
    assert (folder / "fast.csv").read_bytes() == (folder / "reference.csv").read_bytes()
