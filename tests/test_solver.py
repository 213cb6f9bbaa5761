import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from switchgame.config import load_config
from switchgame.errors import ConvergenceError, PreconditionError
from switchgame.expressions import EvalContext, evaluate
from switchgame import model
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
    lambda spec: solve_single_obstacle(spec, build_grid(spec, 11, 5), 1),
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


# ---------------------------------------------------------------------------
# Alternative penalizer forms
# ---------------------------------------------------------------------------


def _three_column_spec():
    # three player-2 modes so the sum and max penalizer forms differ
    modes2 = (1, 2, 3)
    costs1 = {(1, 2): 0.3, (2, 1): 0.3}
    costs2 = {(j, l): 0.2 if abs(j - l) == 1 else 0.35
              for j in modes2 for l in modes2 if j != l}
    drivers = {(i, j): f"0.2*sin(x) - 0.15*{j}*t" for i in (1, 2) for j in modes2}
    terminals = {(i, j): "0.1*x^2" for i in (1, 2) for j in modes2}
    return build_spec(modes2=modes2, costs1=costs1, costs2=costs2, drivers=drivers,
                      terminals=terminals, volatility="0.4", domain=(-2.0, 2.0))


def test_sum_and_max_penalizers_bracket():
    # the sum-form generator sits between the max form at weight m and |modes2| m
    spec = _three_column_spec()
    grid = build_grid(spec, 21, 21)
    m = 8.0
    sum_field, _ = solve_minmax(spec, grid, PenaltySchedule(levels=(m,), fixed_point_tol=1e-12))
    max_m, _ = solve_minmax(
        spec, grid, PenaltySchedule(levels=(m,), fixed_point_tol=1e-12, penalizer="max"))
    max_3m, _ = solve_minmax(
        spec, grid, PenaltySchedule(levels=(3 * m,), fixed_point_tol=1e-12, penalizer="max"))
    assert np.max(max_3m.values - sum_field.values) <= 1e-9
    assert np.max(sum_field.values - max_m.values) <= 1e-9


def test_maxmin_sum_and_max_forms_agree_in_the_limit():
    spec = _three_column_spec()
    grid = build_grid(spec, 21, 21)
    big = PenaltySchedule(levels=(64.0, 256.0), fixed_point_tol=1e-12)
    big_max = PenaltySchedule(levels=(64.0, 256.0), fixed_point_tol=1e-12, penalizer="max")
    a, _ = solve_maxmin(spec, grid, big)
    b, _ = solve_maxmin(spec, grid, big_max)
    assert sup_gap(a, b) <= 5e-3


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


def test_cap_exits_are_counted_and_left_out_of_the_report_dict():
    # the unbumped spec of test_monotone_in_driver: the active-set iteration
    # runs out of solves at large weight * dt
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 0.07, 0.05)
    spec = build_spec(costs1=costs1, costs2=costs2,
                      drivers={(1, 1): "0.1", (1, 2): "0", (2, 1): "0.05", (2, 2): "0.15"},
                      terminals={p: "0.1*x^2" for p in ((1, 1), (1, 2), (2, 1), (2, 2))},
                      volatility="0.5")
    _, report = solve_minmax(spec, build_grid(spec, 21, 21), SCHED)
    assert report.active_set_cap_hits > 0
    assert "active_set_cap_hits" not in report.to_dict()
    assert "contact_cycle_exits" not in report.to_dict()
    # G1's data on a coarse grid: the contact policy of the ascending scheme
    # comes back to one it has tried
    g1 = load_config(str(CONFIG_DIR / "g1_game_2x2.json"))
    _, report = solve_maxmin(g1.spec, build_grid(g1.spec, 21, 21), g1.schedule)
    assert report.contact_cycle_exits > 0


def test_shipped_e1_solve_hits_no_cap():
    e1 = load_config(str(CONFIG_DIR / "e1_equality_2x2.json"))
    grid = build_grid(e1.spec, e1.nt, e1.nx)
    assert (e1.nt, e1.nx) == (151, 121)
    for solve in (solve_minmax, solve_maxmin):
        _, report = solve(e1.spec, grid, e1.schedule)
        assert (report.active_set_cap_hits, report.contact_cycle_exits) == (0, 0)


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
    field = solve_single_obstacle(spec, grid, 1)
    assert field.values[field.index_of(1), 0, 4] == pytest.approx(1.0, abs=1e-10)
    assert field.values[field.index_of(2), 0, 4] == pytest.approx(0.0, abs=1e-10)


def test_single_obstacle_cheap_switch():
    spec = _separated_spec(("0", "1"), 0.1)
    grid = build_grid(spec, 11, 9)
    field = solve_single_obstacle(spec, grid, 1)
    assert field.values[field.index_of(1), 0, 4] == pytest.approx(0.9, abs=1e-10)


def test_single_obstacle_matches_schedule_enumeration():
    spec = _separated_spec(("0.2", "0.9"), 0.25)
    nt = 7
    grid = build_grid(spec, nt, 9)
    field = solve_single_obstacle(spec, grid, 1)
    for mode in (1, 2):
        brute = single_player_schedule_oracle(spec, nt, 0.0, 1, mode, max_switches=3)
        assert field.values[field.index_of(mode), 0, 4] == pytest.approx(brute, abs=1e-10)


def test_single_obstacle_single_mode_plain_pde():
    spec = build_spec(modes1=(1,), modes2=(1,), drivers={(1, 1): "0.5"},
                      terminals={(1, 1): "0"})
    grid = build_grid(spec, 11, 9)
    field = solve_single_obstacle(spec, grid, 1)
    assert field.values[0, 0, 4] == pytest.approx(0.5, abs=1e-10)


def test_single_obstacle_requires_separation():
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 1.0, 2.0)
    drivers = {(i, j): f"{i}*{j}*x" for i in (1, 2) for j in (1, 2)}
    spec = build_spec(costs1=costs1, costs2=costs2, drivers=drivers)
    grid = build_grid(spec, 6, 9)
    with pytest.raises(PreconditionError):
        solve_single_obstacle(spec, grid, 1)


def test_decomposition_single_pair_is_tight():
    spec = build_spec(modes1=(1,), modes2=(1,), drivers={(1, 1): "0.3"},
                      terminals={(1, 1): "0.1*x^2"}, volatility="0.5")
    grid = build_grid(spec, 21, 21)
    gap = decomposition_check(spec, grid, SCHED)
    assert gap < 1e-9


def test_decomposition_refuses_non_separated():
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 1.0, 2.0)
    drivers = {(i, j): f"{i}*{j}*x" for i in (1, 2) for j in (1, 2)}
    spec = build_spec(costs1=costs1, costs2=costs2, drivers=drivers)
    grid = build_grid(spec, 6, 9)
    with pytest.raises(PreconditionError):
        decomposition_check(spec, grid, SCHED)


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
    with pytest.raises(ValueError):
        PenaltySchedule(levels=(1.0,), penalizer="median")


def test_fixed_point_budget_exhaustion_raises():
    spec = _stochastic_2x2()
    grid = build_grid(spec, 11, 11)
    tight = PenaltySchedule(levels=(64.0,), fixed_point_tol=1e-16, max_iterations=1)
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
