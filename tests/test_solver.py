import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from switchgame.config import load_config
from switchgame.errors import ConvergenceError, PreconditionError
from switchgame.expressions import EvalContext, evaluate
from switchgame import model, solver
from switchgame.game import deterministic_dp_oracle
from switchgame.grid import Grid, build_grid
from switchgame.solver import (
    PenaltySchedule,
    ValueField,
    barrier_respect_check,
    decomposition_check,
    solve_clamped,
    solve_maxmin,
    solve_minmax,
    solve_single_obstacle,
    sup_gap,
)

from helpers import build_spec, frozen_diag_spec, heat_spec, single_player_schedule_oracle, uniform_costs

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
    spec = frozen_diag_spec()
    grid = build_grid(spec, 11, 5)
    oracle = deterministic_dp_oracle(spec, 11, 0.0)
    for order in ("minmax", "maxmin"):
        clamped = solve_clamped(spec, grid, order=order)
        for idx, pair in enumerate(clamped.mode_labels):
            assert clamped.values[idx, 0, 2] == pytest.approx(oracle[order][pair], abs=1e-9)


@pytest.mark.parametrize("solve", [
    lambda spec: solve_clamped(spec, build_grid(spec, 11, 5), order="minmax"),
    lambda spec: solve_clamped(spec, build_grid(spec, 11, 5), order="maxmin"),
    lambda spec: solve_single_obstacle(spec, build_grid(spec, 11, 5)),
    lambda spec: deterministic_dp_oracle(spec, 11, 0.0),
], ids=["clamped_minmax", "clamped_maxmin", "single_obstacle", "oracle"])
def test_clamp_sweep_raises_at_its_cap(monkeypatch, solve):
    # player 1 gains 1 per unit time in mode 1 and pays 0.25 to reach it, so
    # the floor binds and a level needs a second sweep to settle
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 0.25, 0.45)
    spec = build_spec(costs1=costs1, costs2=costs2,
                      drivers={(1, 1): "1", (1, 2): "1", (2, 1): "0", (2, 2): "0"})
    solve(spec)
    monkeypatch.setattr(model, "SWEEP_CAP", 1)
    with pytest.raises(ConvergenceError, match="clamp sweep"):
        solve(spec)


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


def test_sweep_is_monotone_in_penalty(sweep_results):
    _, _, _, rmin, _, rmax = sweep_results
    for prev, nxt in zip(rmin.sweep_fields, rmin.sweep_fields[1:]):
        assert np.max(nxt.values - prev.values) <= 1e-10
    for prev, nxt in zip(rmax.sweep_fields, rmax.sweep_fields[1:]):
        assert np.max(prev.values - nxt.values) <= 1e-10
    assert rmin.monotonicity_violation <= 1e-10
    assert rmax.monotonicity_violation <= 1e-10


def test_two_schemes_are_ordered(sweep_results):
    _, _, _, rmin, _, rmax = sweep_results
    for asc, desc in zip(rmax.sweep_fields, rmin.sweep_fields):
        assert np.max(asc.values - desc.values) <= 1e-10


def test_gap_shrinks_along_sweep(sweep_results):
    _, _, _, rmin, _, rmax = sweep_results
    gaps = [sup_gap(a, b) for a, b in zip(rmin.sweep_fields, rmax.sweep_fields)]
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


@st.composite
def _generated_specs(draw):
    """1-3 modes per player, one uniform switching cost per player, affine
    drivers, one quadratic terminal shared by every pair (so terminal
    consistency holds) and a constant volatility."""
    def number(lo, hi):
        return draw(st.floats(lo, hi).map(lambda v: round(v, 3)))

    modes1 = tuple(range(1, draw(st.integers(1, 3)) + 1))
    modes2 = tuple(range(1, draw(st.integers(1, 3)) + 1))
    costs1, costs2 = uniform_costs(modes1, modes2, number(0.02, 0.5), number(0.02, 0.5))
    drivers = {(i, j): f"({number(-1, 1)}) + ({number(-1, 1)})*x"
               for i in modes1 for j in modes2}
    terminal = f"{number(0, 1)}*x^2 + ({number(-1, 1)})*x"
    return build_spec(modes1=modes1, modes2=modes2, costs1=costs1, costs2=costs2,
                      drivers=drivers, terminals={p: terminal for p in drivers},
                      volatility=number(0.1, 1), domain=(-2.0, 2.0))


@given(spec=_generated_specs(), nt=st.integers(11, 40), nx=st.integers(11, 40))
@settings(max_examples=10, deadline=None)
def test_generated_specs_converge_with_a_monotone_sweep(spec, nt, nx):
    grid = build_grid(spec, nt, nx)
    for solve in (solve_minmax, solve_maxmin):
        _, report = solve(spec, grid, SCHED)
        assert report.monotonicity_violation <= SCHED.fixed_point_tol


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
    for asc, desc in zip(rmax.sweep_fields, rmin.sweep_fields):
        assert np.max(asc.values - desc.values) <= 1e-10
    gaps = [sup_gap(a, b) for a, b in zip(rmin.sweep_fields, rmax.sweep_fields)]
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
def test_interp_modes_bitwise_equal_to_np_interp(nx, lo, width, scale, seed):
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
    got = field.interp_modes(1, points)
    for row, label in enumerate(field.mode_labels):
        want = field.interp_x(label, 1, points)
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
