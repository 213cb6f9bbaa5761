import hashlib
import warnings

import numpy as np
import pytest

from switchgame import game
from switchgame.errors import AdmissibilityError, ExpressionDomainError, PreconditionError
from switchgame.expressions import EvalContext, evaluate, evaluate_all
from switchgame.game import (
    RealizedStrategy,
    SwitchingStrategy,
    default_challengers,
    deterministic_dp_oracle,
    never_switch,
    oracle_optimal_strategies,
    payoff_estimate,
    payoff_estimates,
    random_switch,
    saddle_from_fields,
    saddle_strategy,
    switch_at_start,
    switch_every_step,
    verify_saddle,
)
from switchgame.grid import build_grid
from switchgame.simulate import SimParams, simulate_paths
from switchgame.solver import ValueField, solve_single_obstacle

from helpers import bilevel_tree_value, build_spec, frozen_diag_spec, uniform_costs


def _frozen_bundle(spec, n_paths=4, n_steps=10, x0=0.0):
    return simulate_paths(spec, SimParams(n_paths=n_paths, n_steps=n_steps, seed=11, x0=x0))


def _plain_spec(**kw):
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 1.0, 2.0)
    defaults = dict(costs1=costs1, costs2=costs2)
    defaults.update(kw)
    return build_spec(**defaults)


# ---------------------------------------------------------------------------
# Indicator process (RealizedStrategy.modes)
# ---------------------------------------------------------------------------


def test_indicator_constant_without_switches():
    spec = _plain_spec()
    bundle = _frozen_bundle(spec)
    assert np.all(never_switch(1, 2).realize(spec, bundle).modes == 2)


def test_indicator_switch_effective_strictly_after_declaration():
    spec = _plain_spec()
    bundle = _frozen_bundle(spec, n_steps=10)
    strategy = SwitchingStrategy(player=1, start_mode=1, schedule=((5, 2),))
    modes = strategy.realize(spec, bundle).modes
    expected = [1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2]
    assert modes[0].tolist() == expected


def test_indicator_same_step_duplicate_warns_and_last_wins():
    spec = build_spec(modes1=(1, 2, 3), modes2=(1,),
                      costs1={(a, b): 1.0 for a in (1, 2, 3) for b in (1, 2, 3) if a != b},
                      costs2={})
    bundle = _frozen_bundle(spec)
    strategy = SwitchingStrategy(player=1, start_mode=1, schedule=((4, 2), (4, 3)))
    with pytest.warns(UserWarning):
        modes = strategy.realize(spec, bundle).modes
    assert modes[0, 5] == 3


def test_indicator_rejects_off_grid_steps():
    spec = _plain_spec()
    bundle = _frozen_bundle(spec, n_steps=10)
    with pytest.raises(ValueError):
        SwitchingStrategy(player=1, start_mode=1, schedule=((11, 2),)).realize(spec, bundle)


@pytest.mark.parametrize("strategy", [
    SwitchingStrategy(player=1, start_mode=3, schedule=()),
    SwitchingStrategy(player=2, start_mode=1, schedule=((2, 300),)),
])
def test_realize_rejects_labels_outside_the_mode_set(strategy):
    spec = _plain_spec()
    with pytest.raises(ValueError):
        strategy.realize(spec, _frozen_bundle(spec))


def test_explicit_realization_is_one_read_only_track_over_paths():
    spec = _plain_spec()
    bundle = _frozen_bundle(spec, n_paths=5, n_steps=10)
    realized = SwitchingStrategy(player=1, start_mode=1, schedule=((3, 2),)).realize(spec, bundle)
    assert realized.track.shape == (12, 5)
    assert realized.track.strides[1] == 0
    assert not realized.track.flags.writeable
    assert realized.track.T.tolist() == [[0] * 4 + [1] * 8] * 5
    assert realized.modes.tolist() == [[1] * 4 + [2] * 7] * 5


def test_explicit_schedule_over_cap_is_inadmissible():
    spec = _plain_spec()
    bundle = _frozen_bundle(spec, n_steps=200)
    schedule = tuple((k, 2 if k % 2 == 0 else 1) for k in range(80))
    with pytest.raises(AdmissibilityError):
        SwitchingStrategy(player=1, start_mode=1, schedule=schedule).realize(spec, bundle)


# ---------------------------------------------------------------------------
# Costs (PayoffEstimate.cost1_per_path / cost2_per_path)
# ---------------------------------------------------------------------------


def _cost1(strategy, spec, bundle):
    return payoff_estimate(spec, bundle, strategy, never_switch(2, 1)).cost1_per_path


def test_cumulative_cost_examples():
    spec = _plain_spec()
    bundle = _frozen_bundle(spec)
    assert np.all(_cost1(never_switch(1, 1), spec, bundle) == 0.0)

    two = SwitchingStrategy(player=1, start_mode=1, schedule=((2, 2), (5, 1)))
    assert np.all(_cost1(two, spec, bundle) == 2.0)
    # player 2's costs (2 per switch here) land in cost2_per_path
    two2 = SwitchingStrategy(player=2, start_mode=1, schedule=((2, 2), (5, 1)))
    est = payoff_estimate(spec, bundle, never_switch(1, 1), two2)
    assert np.all(est.cost1_per_path == 0.0)
    assert np.all(est.cost2_per_path == 4.0)


def test_cumulative_cost_state_dependent():
    costs1 = {(1, 2): "x", (2, 1): "x"}
    spec = build_spec(costs1=costs1, costs2={(1, 2): 1.0, (2, 1): 1.0}, domain=(-4.0, 4.0))
    bundle = _frozen_bundle(spec, x0=2.0)
    one = SwitchingStrategy(player=1, start_mode=1, schedule=((3, 2),))
    assert np.all(_cost1(one, spec, bundle) == 2.0)


def test_cost_charged_for_terminal_step_declaration():
    spec = _plain_spec()
    bundle = _frozen_bundle(spec, n_steps=10)
    at_end = SwitchingStrategy(player=1, start_mode=1, schedule=((10, 2),))
    assert np.all(at_end.realize(spec, bundle).modes == 1)  # never shows in the indicator
    est = payoff_estimate(spec, bundle, at_end, never_switch(2, 1))
    assert np.all(est.cost1_per_path == 1.0)  # but costs
    assert np.all(est.switches1 == 1)  # and counts


# ---------------------------------------------------------------------------
# Payoffs
# ---------------------------------------------------------------------------


def test_payoff_constant_terminal_only():
    spec = _plain_spec(terminals={p: "1" for p in ((1, 1), (1, 2), (2, 1), (2, 2))})
    bundle = _frozen_bundle(spec)
    est = payoff_estimate(spec, bundle, never_switch(1, 1), never_switch(2, 1))
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_payoff_constant_running_reward():
    spec = _plain_spec(drivers={p: "1" for p in ((1, 1), (1, 2), (2, 1), (2, 2))})
    bundle = _frozen_bundle(spec, n_steps=20)
    est = payoff_estimate(spec, bundle, never_switch(1, 1), never_switch(2, 1))
    assert est.mean == pytest.approx(1.0, abs=1e-12)


def test_payoff_on_oracle_play_matches_oracle_exactly():
    spec = frozen_diag_spec()
    nt = 11
    bundle = _frozen_bundle(spec, n_paths=3, n_steps=nt - 1)
    for start in ((1, 1), (1, 2), (2, 1), (2, 2)):
        sched1, sched2, value = oracle_optimal_strategies(spec, nt, 0.0, start)
        s1 = SwitchingStrategy(player=1, start_mode=start[0], schedule=tuple(sched1))
        s2 = SwitchingStrategy(player=2, start_mode=start[1], schedule=tuple(sched2))
        est = payoff_estimate(spec, bundle, s1, s2)
        assert est.stderr == 0.0
        assert est.mean == pytest.approx(value, abs=1e-12)


def test_payoff_linearity_path_by_path():
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 0.5, 0.25)
    drivers = {(1, 1): "0.2*x", (1, 2): "0.1", (2, 1): "0.3*t", (2, 2): "0.15*x"}
    terminals = {p: "0.4*x" for p in ((1, 1), (1, 2), (2, 1), (2, 2))}
    base = build_spec(costs1=costs1, costs2=costs2, drivers=drivers, terminals=terminals,
                      volatility="0.5", domain=(-4.0, 4.0))
    doubled = build_spec(
        costs1={k: 2 * v for k, v in costs1.items()},
        costs2={k: 2 * v for k, v in costs2.items()},
        drivers={k: f"2*({v})" for k, v in drivers.items()},
        terminals={k: f"2*({v})" for k, v in terminals.items()},
        volatility="0.5", domain=(-4.0, 4.0),
    )
    bundle = simulate_paths(base, SimParams(n_paths=500, n_steps=20, seed=3))
    s1 = SwitchingStrategy(player=1, start_mode=1, schedule=((4, 2), (9, 1)))
    s2 = SwitchingStrategy(player=2, start_mode=2, schedule=((6, 1),))
    est = payoff_estimate(base, bundle, s1, s2)
    est2 = payoff_estimate(doubled, bundle, s1, s2)
    assert np.array_equal(est2.per_path, 2.0 * est.per_path)


def test_zero_sum_bookkeeping_mode_independence():
    costs1 = {(1, 2): 0.0, (2, 1): 0.0}
    costs2 = {(1, 2): 0.0, (2, 1): 0.0}
    drivers = {p: "0.3*x + 0.1*t" for p in ((1, 1), (1, 2), (2, 1), (2, 2))}
    terminals = {p: "x^2" for p in ((1, 1), (1, 2), (2, 1), (2, 2))}
    spec = build_spec(costs1=costs1, costs2=costs2, drivers=drivers, terminals=terminals,
                      volatility="0.3", domain=(-5.0, 5.0))
    bundle = simulate_paths(spec, SimParams(n_paths=50, n_steps=12, seed=5))
    reference = payoff_estimate(spec, bundle, never_switch(1, 1), never_switch(2, 1))
    for s1, s2 in [
        (switch_at_start(spec, 1, 1), never_switch(2, 2)),
        (switch_every_step(spec, 1, 1, cap=10), switch_at_start(spec, 2, 1)),
    ]:
        est = payoff_estimate(spec, bundle, s1, s2)
        assert np.allclose(est.per_path, reference.per_path, atol=1e-12)


# ---------------------------------------------------------------------------
# Frozen-state oracle
# ---------------------------------------------------------------------------


def test_oracle_single_pair_integrates_reward():
    spec = build_spec(modes1=(1,), modes2=(1,), drivers={(1, 1): "0.7"},
                      terminals={(1, 1): "0"})
    values = deterministic_dp_oracle(spec, 11, 0.0)
    assert values["minmax"][(1, 1)] == pytest.approx(0.7, abs=1e-12)
    assert values["maxmin"][(1, 1)] == pytest.approx(0.7, abs=1e-12)


def test_oracle_matches_exhaustive_tree_both_orders():
    spec = frozen_diag_spec()
    nt = 8
    values = deterministic_dp_oracle(spec, nt, 0.0)
    for start in ((1, 1), (1, 2), (2, 1), (2, 2)):
        tree_p1 = bilevel_tree_value(spec, nt, 0.0, start, "p1", memo=True)
        tree_p2 = bilevel_tree_value(spec, nt, 0.0, start, "p2", memo=True)
        assert tree_p1 == tree_p2  # the discrete game has a value on this data
        assert values["minmax"][start] == tree_p1
        assert values["maxmin"][start] == tree_p1


def test_every_schedule_fold_equals_the_memoized_recursion():
    # the helper's numpy walk over every schedule against its recursion over
    # states, on 3x2 modes with time- and state-dependent data
    modes1, modes2 = (1, 2, 3), (1, 2)
    costs1, costs2 = uniform_costs(modes1, modes2, 0.2, 0.3)
    spec = build_spec(modes1=modes1, modes2=modes2, costs1=costs1, costs2=costs2,
                      drivers={(i, j): f"{i}*sin(x + {j}*t) - 0.{j}" for i in modes1 for j in modes2},
                      terminals={(i, j): f"0.{i}*x - 0.{j}" for i in modes1 for j in modes2})
    for nt in (2, 3, 6):
        for start in spec.modes.pairs:
            for outer in ("p1", "p2"):
                assert (bilevel_tree_value(spec, nt, 0.3, start, outer)
                        == bilevel_tree_value(spec, nt, 0.3, start, outer, memo=True))


def test_oracle_prohibitive_costs_reduce_to_no_switching():
    spec = frozen_diag_spec(c1=10.0, c2=10.0)
    values = deterministic_dp_oracle(spec, 9, 0.0)
    for (i, j) in spec.modes.pairs:
        stay = 1.0 if i == j else 0.0
        assert values["minmax"][(i, j)] == pytest.approx(stay, abs=1e-12)
        assert values["maxmin"][(i, j)] == pytest.approx(stay, abs=1e-12)


def test_oracle_variant_gap_shrinks_with_dt():
    spec = frozen_diag_spec()
    for nt in (6, 11):
        values = deterministic_dp_oracle(spec, nt, 0.0)
        dt = spec.horizon / (nt - 1)
        gap = max(abs(values["minmax"][p] - values["maxmin"][p]) for p in spec.modes.pairs)
        assert gap <= 2 * dt * 1.0


def test_oracle_preconditions():
    spec = frozen_diag_spec()
    with pytest.raises(PreconditionError):
        deterministic_dp_oracle(spec, 20, 0.0)
    moving = build_spec(costs1={(1, 2): 1, (2, 1): 1}, costs2={(1, 2): 2, (2, 1): 2},
                        volatility="1")
    with pytest.raises(PreconditionError):
        deterministic_dp_oracle(moving, 6, 0.0)


# ---------------------------------------------------------------------------
# Saddle strategies
# ---------------------------------------------------------------------------


def _separated_game_spec(costs1_value=0.1, costs2_value=10.0,
                         f1=("0", "1"), volatility="0"):
    costs1 = {(1, 2): costs1_value, (2, 1): costs1_value}
    costs2 = {(1, 2): costs2_value, (2, 1): costs2_value}
    drivers = {(i, j): f1[i - 1] for i in (1, 2) for j in (1, 2)}
    terminals = {p: "0" for p in ((1, 1), (1, 2), (2, 1), (2, 2))}
    return build_spec(costs1=costs1, costs2=costs2, drivers=drivers, terminals=terminals,
                      volatility=volatility)


def test_saddle_strategy_prohibitive_costs_never_switch():
    spec = _separated_game_spec(costs1_value=10.0)
    grid = build_grid(spec, 11, 9)
    field, _ = solve_single_obstacle(spec, grid)
    bundle = _frozen_bundle(spec, n_steps=10)
    strategy = saddle_strategy(field, 1)
    realized = strategy.realize(spec, bundle)
    assert np.all(game._switch_costs(realized, spec, bundle)[1] == 0)


def test_saddle_strategy_cheap_switch_fires_once_at_start():
    spec = _separated_game_spec(costs1_value=0.1)
    grid = build_grid(spec, 11, 9)
    field, _ = solve_single_obstacle(spec, grid)
    bundle = _frozen_bundle(spec, n_paths=6, n_steps=10)
    strategy = saddle_strategy(field, 1)
    realized = strategy.realize(spec, bundle)
    # one declaration, at step 0, to mode 2 (position 1), on every path
    assert realized.track.T.tolist() == [[0] + [1] * 11] * bundle.n_paths
    est = payoff_estimate(spec, bundle, strategy, never_switch(2, 1))
    assert np.all(est.switches1 == 1)
    assert est.mean == pytest.approx(0.9, abs=1e-12)


def test_saddle_strategy_single_mode_is_empty():
    spec = build_spec(modes1=(1,), modes2=(1,), drivers={(1, 1): "1"},
                      terminals={(1, 1): "0"})
    grid = build_grid(spec, 11, 9)
    field, _ = solve_single_obstacle(spec, grid)
    bundle = _frozen_bundle(spec)
    realized = saddle_strategy(field, 1).realize(spec, bundle)
    assert np.all(realized.track == 0)
    assert np.all(game._switch_costs(realized, spec, bundle)[1] == 0)


def test_saddle_strategy_requires_matching_field():
    # the player is read off the field; a coupled field has none
    spec = _separated_game_spec()
    grid = build_grid(spec, 6, 9)
    field1, field2 = solve_single_obstacle(spec, grid)
    assert saddle_strategy(field1, 1).player == 1
    assert saddle_strategy(field2, 1).player == 2
    coupled = ValueField("minmax", spec.modes.pairs, np.zeros((4, grid.nt, grid.nx)), grid)
    with pytest.raises(PreconditionError):
        saddle_strategy(coupled, 1)


# ---------------------------------------------------------------------------
# Saddle verification
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_game():
    costs1 = {(1, 2): 0.15, (2, 1): 0.15}
    costs2 = {(1, 2): 0.1, (2, 1): 0.1}
    f1 = "1.1*(t - 0.3)"
    f2 = "-0.9*(t - 0.4)"
    drivers = {(1, 1): "0", (1, 2): f2, (2, 1): f1, (2, 2): f"{f1} + {f2}"}
    terminals = {(1, 1): "0.1*x^2", (1, 2): "0.1*x^2 - 0.04",
                 (2, 1): "0.1*x^2 + 0.05", (2, 2): "0.1*x^2 + 0.05 - 0.04"}
    spec = build_spec(costs1=costs1, costs2=costs2, drivers=drivers, terminals=terminals,
                      volatility="0.5", domain=(-3.0, 3.0))
    grid = build_grid(spec, 101, 81)
    field1, field2 = solve_single_obstacle(spec, grid)
    bundle = simulate_paths(spec, SimParams(n_paths=4000, n_steps=100, seed=17))
    saddle1 = saddle_strategy(field1, 1)
    saddle2 = saddle_strategy(field2, 1)
    return spec, grid, field1, field2, bundle, saddle1, saddle2


def test_verify_saddle_against_itself(small_game):
    spec, _, _, _, bundle, saddle1, saddle2 = small_game
    report = verify_saddle(spec, bundle, saddle1, saddle2,
                           [("self", saddle1)], [("self", saddle2)],
                           start=(0.0, 0.0, 1, 1))
    assert report.challenger1[0]["mean_difference"] == 0.0
    assert report.challenger1[0]["stderr"] == 0.0
    assert report.all_passed()


def test_verify_saddle_standard_roster(small_game):
    spec, grid, field1, field2, bundle, saddle1, saddle2 = small_game
    pde_value = float(field1.values[0, 0, 40] + field2.values[0, 0, 40])
    challengers1 = default_challengers(spec, 1, 1, 23, bundle.n_steps)
    challengers2 = default_challengers(spec, 2, 1, 24, bundle.n_steps)
    report = verify_saddle(spec, bundle, saddle1, saddle2, challengers1, challengers2,
                           start=(0.0, 0.0, 1, 1), pde_value=pde_value)
    assert report.all_passed(), report.to_dict()


def test_cost_bleeding_challenger_strictly_dominated(small_game):
    spec, _, _, _, bundle, saddle1, saddle2 = small_game
    bleeder = switch_every_step(spec, 1, 1, cap=40)
    base = payoff_estimate(spec, bundle, saddle1, saddle2)
    bled = payoff_estimate(spec, bundle, bleeder, saddle2)
    # 40 switches at cost 0.15 each, minus the attainable reward spread
    assert base.mean - bled.mean >= 40 * 0.15 - 2.0


def test_saddle_from_fields_builds_the_pair_and_pde_value(small_game):
    spec, grid, field1, field2, bundle, saddle1, saddle2 = small_game
    start = (0.0, 0.0, 1, 1)
    strategy1, strategy2, pde_value = saddle_from_fields(field1, field2, start)
    assert (strategy1, strategy2) == (saddle1, saddle2)
    expected = float(field1.values[0, 0, 40] + field2.values[0, 0, 40])
    assert pde_value == pytest.approx(expected, abs=1e-12)
    report = verify_saddle(
        spec, bundle, strategy1, strategy2,
        [("never_switch", never_switch(1, 1))], [("never_switch", never_switch(2, 1))],
        start=start, pde_value=pde_value,
    )
    assert report.all_passed()
    assert report.pde_value == pde_value


def test_saddle_payoff_between_matrix_extremes(small_game):
    spec, _, _, _, bundle, saddle1, saddle2 = small_game
    strategies1 = [saddle1, never_switch(1, 1), switch_at_start(spec, 1, 1)]
    strategies2 = [saddle2, never_switch(2, 1), switch_at_start(spec, 2, 1)]
    base = payoff_estimate(spec, bundle, saddle1, saddle2).mean
    matrix = [payoff_estimate(spec, bundle, a, b).mean for a in strategies1 for b in strategies2]
    assert min(matrix) - 1e-12 <= base <= max(matrix) + 1e-12


def test_payoff_on_realized_strategies_matches_strategy_call(small_game):
    spec, _, _, _, bundle, saddle1, saddle2 = small_game
    challenger = switch_at_start(spec, 2, 1)
    direct = payoff_estimate(spec, bundle, saddle1, challenger)
    real1 = saddle1.realize(spec, bundle)
    real2 = challenger.realize(spec, bundle)
    for first, second in ((real1, real2), (real1, challenger), (saddle1, real2)):
        again = payoff_estimate(spec, bundle, first, second)
        for name in ("per_path", "cost1_per_path", "cost2_per_path", "switches1", "switches2"):
            assert np.array_equal(getattr(again, name), getattr(direct, name))
        assert (again.mean, again.stderr) == (direct.mean, direct.stderr)


def test_payoff_rejects_strategy_realized_on_another_bundle(small_game):
    spec, _, _, _, bundle, saddle1, saddle2 = small_game
    other = simulate_paths(spec, SimParams(n_paths=10, n_steps=bundle.n_steps, seed=3))
    with pytest.raises(ValueError):
        payoff_estimate(spec, bundle, saddle1.realize(spec, other), saddle2)


def test_verify_saddle_realizes_each_strategy_once(small_game, monkeypatch):
    # every strategy reaches one realization: the saddle pair together in one
    # feedback pass, each challenger through its explicit schedule
    spec, _, _, _, bundle, saddle1, saddle2 = small_game
    calls, passes = {}, []
    feedback, explicit = game._realize_feedback, game._realize_explicit

    def counting_feedback(strategies, spec, bundle):
        passes.append([id(s) for s in strategies])
        for s in strategies:
            calls[id(s)] = calls.get(id(s), 0) + 1
        return feedback(strategies, spec, bundle)

    def counting_explicit(strategy, spec, bundle):
        calls[id(strategy)] = calls.get(id(strategy), 0) + 1
        return explicit(strategy, spec, bundle)

    monkeypatch.setattr(game, "_realize_feedback", counting_feedback)
    monkeypatch.setattr(game, "_realize_explicit", counting_explicit)
    challengers1 = default_challengers(spec, 1, 1, 23, bundle.n_steps)
    challengers2 = default_challengers(spec, 2, 1, 24, bundle.n_steps)
    verify_saddle(spec, bundle, saddle1, saddle2, challengers1, challengers2,
                  start=(0.0, 0.0, 1, 1))
    strategies = [saddle1, saddle2] + [s for _, s in challengers1 + challengers2]
    assert calls == {id(s): 1 for s in strategies}
    assert passes == [[id(saddle1), id(saddle2)]]


def test_joint_realization_matches_one_at_a_time(small_game):
    spec, _, field1, _, bundle, saddle1, saddle2 = small_game
    strategies = (saddle1, never_switch(2, 1), saddle2, saddle_strategy(field1, 2))
    joint = game.realize_strategies(strategies, spec, bundle)
    for strategy, realized in zip(strategies, joint):
        alone = strategy.realize(spec, bundle)
        assert realized.track.tobytes() == alone.track.tobytes()
        assert (realized.player, realized.labels) == (alone.player, alone.labels)


def _flipping_field(system, grid, first_level, diff):
    """A two-mode field whose second mode leads the first by diff(xs) at
    even levels from ``first_level`` on and trails it at odd ones, so a
    trigger that fires at one step can fire back at the next."""
    values = np.zeros((2, grid.nt, grid.nx))
    for level in range(first_level, grid.nt):
        values[1, level] = diff(grid.xs) if level % 2 == 0 else -diff(grid.xs)
    return ValueField(system, (1, 2), values, grid)


def test_switch_cap_error_is_player_one_s_when_both_rules_exceed_it():
    # player 2 passes the cap from step 64 on, player 1 only at a later step
    # and on some paths; realized one at a time, player 1 raised first
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 0.1, 0.1)
    spec = build_spec(costs1=costs1, costs2=costs2, volatility="0.3", domain=(-3.0, 3.0))
    grid = build_grid(spec, 101, 41)
    bundle = simulate_paths(spec, SimParams(n_paths=60, n_steps=100, seed=8, x0=0.5))
    field1 = _flipping_field("single_lower", grid, 10, lambda xs: xs - 0.2)
    field2 = _flipping_field("single_upper", grid, 0, lambda xs: -np.ones_like(xs))
    with pytest.raises(AdmissibilityError) as err:
        saddle_strategy(field2, 1).realize(spec, bundle)
    assert err.value.path_index == 0
    with pytest.raises(AdmissibilityError) as err:
        verify_saddle(spec, bundle, saddle_strategy(field1, 1), saddle_strategy(field2, 1),
                      [], [], start=(0.0, 0.5, 1, 1))
    assert str(err.value) == "feedback strategy exceeded the switch cap (path 1)"
    assert err.value.path_index == 1


@pytest.mark.parametrize("lead", [1.0, -1.0])
def test_switch_cap_path_is_the_first_of_the_first_source_mode(lead):
    # switching pays (negative costs), so every path fires at every step;
    # at step 1 the sign of lead * x sends a path to mode 3 or to mode 1,
    # after which the two groups sit in different modes with equal counts
    # and pass the cap together: the error names the first path of the
    # group whose mode comes first in the declared order
    modes1 = (1, 2, 3)
    spec = build_spec(modes1=modes1, modes2=(1,), costs2={}, volatility="0.5",
                      costs1={(a, b): -0.5 for a in modes1 for b in modes1 if a != b})
    grid = build_grid(spec, 81, 33)
    values = np.zeros((3, grid.nt, grid.nx))
    values[2, 1] = lead * grid.xs
    field = ValueField("single_lower", modes1, values, grid)
    bundle = simulate_paths(spec, SimParams(n_paths=40, n_steps=80, seed=12))
    with pytest.raises(AdmissibilityError) as err:
        saddle_strategy(field, 1).realize(spec, bundle)
    assert err.value.path_index == {1.0: 0, -1.0: 3}[lead]


def test_cost_error_of_an_earlier_source_mode_wins_over_a_later_cap():
    # switching pays, so paths flip at every step, except that at step 1
    # the paths with x <= 0 hold; at step 64 the paths in mode 1 pass the
    # cap while the cost out of mode 1 fails (only at t = 0.8): mode 1
    # comes first, and its cost is evaluated before its cap is checked
    cost = "-0.5 + 0*sqrt((t - 0.8)^2 - 0.000001)"
    spec = build_spec(costs1={(1, 2): cost, (2, 1): -0.5}, costs2={}, modes2=(1,),
                      volatility="0.5")
    grid = build_grid(spec, 81, 33)
    values = np.zeros((2, grid.nt, grid.nx))
    values[1, 1] = np.where(grid.xs <= 0, 10.0, 0.0)
    field = ValueField("single_lower", (1, 2), values, grid)
    bundle = simulate_paths(spec, SimParams(n_paths=40, n_steps=80, seed=12))
    assert 0 < np.sum(bundle.states[:, 1] <= 0) < bundle.n_paths
    with pytest.raises(ExpressionDomainError) as err:
        saddle_strategy(field, 1).realize(spec, bundle)
    assert str(err.value) == "square root of negative value at offset 9"


def test_cost_failing_outside_its_source_mode_does_not_stop_realization():
    # every path leaves mode 1 at step 0; the cost out of mode 1 fails from
    # t = 0.1 on, where no path is in mode 1 any more
    spec = _separated_game_spec(costs1_value=0.1)
    field, _ = solve_single_obstacle(spec, build_grid(spec, 11, 9))
    bundle = _frozen_bundle(spec, n_paths=6, n_steps=10)
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 0.1, 10.0)
    costs1[(1, 2)] = "0.1 + 0*sqrt(0.05 - t)"
    failing = build_spec(costs1=costs1, costs2=costs2,
                         drivers={(i, j): ("0", "1")[i - 1] for i in (1, 2) for j in (1, 2)})
    realized = saddle_strategy(field, 1).realize(failing, bundle)
    assert realized.track.T.tolist() == [[0] + [1] * 11] * bundle.n_paths


def test_steps_replayed_mode_by_mode_keep_the_track(monkeypatch):
    # switching pays, so paths at x >= 0 flip modes at every step, while
    # paths below 0 go to mode 2 and stay; the cost out of mode 1 fails
    # below x = -0.3, where at most steps some paths in mode 2 are and no
    # path in mode 1 is, so those steps go mode by mode, each mode on the
    # paths it held when the step began
    spec = build_spec(costs1={(1, 2): "-0.5 + 0*sqrt(x + 0.3)", (2, 1): -0.5}, costs2={},
                      modes2=(1,), volatility="0.3", domain=(-3.0, 3.0))
    grid = build_grid(spec, 61, 61)
    values = np.zeros((2, grid.nt, grid.nx))
    values[1] = np.where(grid.xs < 0, 10.0, 0.0)
    field = ValueField("single_lower", (1, 2), values, grid)
    bundle = simulate_paths(spec, SimParams(n_paths=60, n_steps=60, seed=8))
    replays = []
    fire = game._Rollout._fire

    def counting_fire(self, t, xk, values, sources, paths=None):
        if paths is not None:
            replays.append(t)
        return fire(self, t, xk, values, sources, paths)

    monkeypatch.setattr(game._Rollout, "_fire", counting_fire)
    track = saddle_strategy(field, 1).realize(spec, bundle).track
    assert len(set(replays)) == sum(np.any(x < -0.3) for x in bundle.states.T[:-1]) == 49
    assert np.sum(track[1:] > track[:-1]) == 970 and np.sum(track[1:] < track[:-1]) == 927
    # the bytes of the mode-by-mode rule's track
    assert hashlib.sha256(track.tobytes()).hexdigest() == (
        "6f9ef770d2aacd636f7da12e9c8b070de123d31c45f48c20a7ec91d0858511b2")


def _capped_pair():
    """Spec, bundle and the two feedback rules of a game in which both rules
    pass the switch cap, player 2's first in time."""
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 0.1, 0.1)
    spec = build_spec(costs1=costs1, costs2=costs2, volatility="0.3", domain=(-3.0, 3.0))
    grid = build_grid(spec, 101, 41)
    bundle = simulate_paths(spec, SimParams(n_paths=60, n_steps=100, seed=8, x0=0.5))
    field1 = _flipping_field("single_lower", grid, 10, lambda xs: xs - 0.2)
    field2 = _flipping_field("single_upper", grid, 0, lambda xs: -np.ones_like(xs))
    return spec, bundle, saddle_strategy(field1, 1), saddle_strategy(field2, 1)


def test_a_failing_feedback_pass_is_replayed_once_per_strategy(monkeypatch):
    spec, bundle, saddle1, saddle2 = _capped_pair()
    passes = []
    feedback = game._realize_feedback

    def counting_feedback(strategies, spec, bundle):
        passes.append([id(s) for s in strategies])
        return feedback(strategies, spec, bundle)

    monkeypatch.setattr(game, "_realize_feedback", counting_feedback)
    with pytest.raises(AdmissibilityError) as err:
        verify_saddle(spec, bundle, saddle1, saddle2, [], [], start=(0.0, 0.5, 1, 1))
    assert err.value.path_index == 1
    # jointly, then player 1's rule alone, which raises
    assert passes == [[id(saddle1), id(saddle2)], [id(saddle1)]]


def test_a_duplicate_step_warns_once_ahead_of_a_failing_rule():
    spec, bundle, _, saddle2 = _capped_pair()
    duplicate = SwitchingStrategy(player=1, start_mode=1, schedule=((4, 2), (4, 1), (4, 2)))
    with pytest.warns(UserWarning) as caught:
        warnings.simplefilter("always")
        with pytest.raises(AdmissibilityError):
            game.realize_strategies((duplicate, saddle2), spec, bundle)
    assert [str(w.message) for w in caught] == [
        "multiple switches declared at one step; the last one wins"]


def _relabel(track, labels, mapping):
    out = np.empty(track.shape, dtype=np.int64)
    for old, new in zip(labels, mapping):
        out[track == old] = new
    return out


@pytest.mark.parametrize("labels", [(-3, 300), (1, 70000), (-200, 5)])
def test_realization_keeps_labels_outside_uint8(labels):
    f1 = ("0", "0.5 + 0.3*x")
    ref_spec = _separated_game_spec(costs1_value=0.1, f1=f1, volatility="0.4")
    a, b = labels
    spec = build_spec(
        modes1=labels, modes2=(1, 2),
        costs1={(a, b): 0.1, (b, a): 0.1}, costs2={(1, 2): 10.0, (2, 1): 10.0},
        drivers={(m, j): f1[i] for i, m in enumerate(labels) for j in (1, 2)},
        terminals={(m, j): "0" for m in labels for j in (1, 2)},
        volatility="0.4",
    )
    bundle = simulate_paths(ref_spec, SimParams(n_paths=200, n_steps=40, seed=9))
    ref_grid = build_grid(ref_spec, 41, 33)
    grid = build_grid(spec, 41, 33)
    ref_field, _ = solve_single_obstacle(ref_spec, ref_grid)
    field, _ = solve_single_obstacle(spec, grid)
    cases = [
        (saddle_strategy(ref_field, 1), saddle_strategy(field, a)),
        (SwitchingStrategy(player=1, start_mode=1, schedule=((3, 2), (17, 1))),
         SwitchingStrategy(player=1, start_mode=a, schedule=((3, b), (17, a)))),
    ]
    for ref_strategy, strategy in cases:
        ref = ref_strategy.realize(ref_spec, bundle)
        got = strategy.realize(spec, bundle)
        assert np.array_equal(got.track, ref.track)
        assert np.array_equal(got.modes, _relabel(ref.modes, (1, 2), labels))
        ref_pay = payoff_estimate(ref_spec, bundle, ref, never_switch(2, 1))
        pay = payoff_estimate(spec, bundle, got, never_switch(2, 1))
        assert pay.switches1.sum() > 0
        assert np.array_equal(pay.switches1, ref_pay.switches1)
        assert np.array_equal(pay.per_path, ref_pay.per_path)


def test_feedback_target_is_the_first_best_mode_in_declared_order():
    # modes 3 and 2 tie for player 1: the trigger takes 3, declared first,
    # while the oracle's tie-break takes the smallest label, 2
    modes1 = (1, 3, 2)
    spec = build_spec(modes1=modes1, modes2=(1,),
                      costs1={(a, b): 0.1 for a in modes1 for b in modes1 if a != b},
                      costs2={}, drivers={(1, 1): "0", (3, 1): "1", (2, 1): "1"})
    field, _ = solve_single_obstacle(spec, build_grid(spec, 11, 9))
    bundle = _frozen_bundle(spec, n_paths=3, n_steps=10)
    realized = saddle_strategy(field, 1).realize(spec, bundle)
    assert realized.modes.tolist() == [[1] + [3] * 10] * 3
    sched1, _, _ = oracle_optimal_strategies(spec, 11, 0.0, (1, 1))
    assert sched1 == [(0, 2)]


# ---------------------------------------------------------------------------
# Switch costs against the declaration-record loop
# ---------------------------------------------------------------------------


def _records_from_modes(modes):
    """Declaration records (path, step, source, target), path-major, read
    off a (n_paths, n_steps + 1) label array.  A declaration at the final
    step does not show there, so this serves only strategies that make none
    (feedback rules, switch_at_start, random_switch)."""
    path, step = np.nonzero(modes[:, 1:] != modes[:, :-1])
    return path, step, modes[path, step], modes[path, step + 1]


def _records_from_schedule(schedule, start_mode, n_paths):
    """Declaration records of an explicit schedule on every path, path-major;
    of same-step duplicates the last one wins."""
    declarations, cur = [], start_mode
    for step, target in sorted(dict(schedule).items()):
        declarations.append((step, cur, target))
        cur = target
    columns = np.array(declarations, dtype=np.int64).reshape(-1, 3).T
    return (np.repeat(np.arange(n_paths), len(declarations)),
            *(np.tile(col, n_paths) for col in columns))


def _reference_switch_costs(spec, bundle, player, records):
    """The record-based loop the mode-position track replaced: cost per
    (source, target) pair in the player's mode order, records in their given
    order within a pair; and the number of records per path."""
    path, step, source, target = records
    table = spec.costs.costs1 if player == 1 else spec.costs.costs2
    modes = spec.modes.modes1 if player == 1 else spec.modes.modes2
    n = len(modes)
    codes = np.array([modes.index(a) * n + modes.index(b)
                      for a, b in zip(source.tolist(), target.tolist())], dtype=np.intp)
    t_at, x_at = bundle.times[step], bundle.states[path, step]
    out = np.zeros(bundle.n_paths)
    for code in np.unique(codes):
        mask = codes == code
        costs = np.asarray(evaluate(table[(modes[code // n], modes[code % n])],
                                    EvalContext(t_at[mask], x_at[mask])), dtype=float)
        np.add.at(out, path[mask], np.broadcast_to(costs, (int(mask.sum()),)))
    return out, np.bincount(path, minlength=bundle.n_paths)


@pytest.mark.filterwarnings("ignore:multiple switches declared at one step")
@pytest.mark.parametrize("player", [1, 2])
@pytest.mark.parametrize("schedule", [
    (),
    ((10, 2),),
    ((0, 3), (4, 2), (4, 1), (9, 3), (10, 2)),
    ((2, 2), (2, 3), (3, 1), (3, 2), (7, 1), (10, 3)),
], ids=["none", "final_step", "final_step_and_duplicates", "back_to_back_duplicates"])
def test_switch_costs_match_the_record_loop_bit_for_bit(player, schedule):
    # 3 modes in non-sorted order, state- and time-dependent costs that
    # differ per (source, target) pair and per player
    modes = (1, 3, 2)
    costs1, costs2 = ({(a, b): f"{a}*{w} + {b}*0.02 + 0.1*{a}*x^2 + 0.03*{b}*t"
                       for a in modes for b in modes if a != b} for w in (0.05, 0.07))
    spec = build_spec(modes1=modes, modes2=modes, costs1=costs1, costs2=costs2,
                      volatility="0.5", domain=(-3.0, 3.0))
    bundle = simulate_paths(spec, SimParams(n_paths=40, n_steps=10, seed=13))
    realized = SwitchingStrategy(player=player, start_mode=1, schedule=schedule).realize(spec, bundle)
    costs, counts = game._switch_costs(realized, spec, bundle)
    records = _records_from_schedule(schedule, 1, bundle.n_paths)
    ref_costs, ref_counts = _reference_switch_costs(spec, bundle, player, records)
    assert costs.tobytes() == ref_costs.tobytes()
    assert np.array_equal(counts, ref_counts)
    assert counts.tolist() == [len(dict(schedule))] * bundle.n_paths


@pytest.mark.filterwarnings("ignore:multiple switches declared at one step")
def test_switch_costs_read_a_broadcast_track_as_its_contiguous_copy():
    # an explicit schedule's track is one column broadcast over the paths,
    # and its declarations are read off that column
    modes = (1, 3, 2)
    costs = {(a, b): f"{a}*0.05 + {b}*0.02 + 0.1*{a}*x^2 + 0.03*{b}*t"
             for a in modes for b in modes if a != b}
    spec = build_spec(modes1=modes, costs1=costs, costs2={(1, 2): "0.1", (2, 1): "0.1"},
                      volatility="0.5", domain=(-3.0, 3.0))
    bundle = simulate_paths(spec, SimParams(n_paths=40, n_steps=10, seed=13))
    schedule = ((0, 3), (4, 2), (4, 1), (9, 3), (10, 2))
    realized = SwitchingStrategy(player=1, start_mode=1, schedule=schedule).realize(spec, bundle)
    assert realized.track.strides[1] == 0
    copy = RealizedStrategy(realized.player, realized.labels, np.ascontiguousarray(realized.track))
    for broadcast, contiguous in zip(game._switch_costs(realized, spec, bundle),
                                     game._switch_costs(copy, spec, bundle)):
        assert broadcast.dtype == contiguous.dtype
        assert broadcast.tobytes() == contiguous.tobytes()


# ---------------------------------------------------------------------------
# Roster payoffs (payoff_estimates)
# ---------------------------------------------------------------------------


def _reference_payoff(spec, bundle, r1, r2):
    """The per-entry loop that payoff_estimates replaced: every pair's driver
    evaluated on this entry's own paths in that pair, path-major reads."""
    n_paths, n_steps = bundle.n_paths, bundle.n_steps
    dt = float(bundle.times[1] - bundle.times[0])
    pairs = spec.modes.pairs
    index = {pair: code for code, pair in enumerate(pairs)}
    # the pair on [t_k, t_{k+1}) is the one at step k + 1
    codes = np.array([[index[(a, b)] for a, b in zip(r1.modes[:, k].tolist(),
                                                     r2.modes[:, k].tolist())]
                      for k in range(1, n_steps + 1)])
    reward = np.zeros(n_paths)
    step_reward = np.empty(n_paths)
    for k in range(n_steps):
        xk = bundle.states[:, k]
        for code, pair in enumerate(pairs):
            idx = np.flatnonzero(codes[k] == code)
            if idx.size:
                vals = np.asarray(evaluate(spec.drivers.f[pair],
                                           EvalContext(float(bundle.times[k]), xk[idx])), dtype=float)
                step_reward[idx] = np.broadcast_to(vals, idx.shape) * dt
        reward += step_reward
    terminal = np.zeros(n_paths)
    xT = bundle.states[:, -1]
    for code, pair in enumerate(pairs):
        idx = np.flatnonzero(codes[-1] == code)
        if idx.size:
            vals = np.asarray(evaluate(spec.terminals.h[pair], EvalContext(spec.horizon, xT[idx])),
                              dtype=float)
            terminal[idx] = np.broadcast_to(vals, idx.shape)
    cost1, switches1 = _reference_switch_costs(spec, bundle, 1, _records_from_modes(r1.modes))
    cost2, switches2 = _reference_switch_costs(spec, bundle, 2, _records_from_modes(r2.modes))
    return terminal + reward - cost1 + cost2, cost1, cost2, switches1, switches2


@pytest.fixture(scope="module")
def roster_game():
    """Separated 2x3 game whose feedback saddle strategies both switch."""
    f1 = {1: "0", 2: "1.2*(t - 0.4) + 0.2*sin(x)"}
    f2 = {1: "0", 2: "-0.8*(t - 0.5)", 3: "0.6*(t - 0.6) - 0.1*x"}
    h1 = {1: "0.1*x^2", 2: "0.1*x^2 + 0.03"}
    h2 = {1: "0", 2: "-0.02", 3: "0.01*x"}
    costs1, costs2 = uniform_costs((1, 2), (1, 2, 3), 0.08, 0.06)
    spec = build_spec(
        modes1=(1, 2), modes2=(1, 2, 3), costs1=costs1, costs2=costs2,
        drivers={(i, j): f"{f1[i]} + {f2[j]}" for i in f1 for j in f2},
        terminals={(i, j): f"{h1[i]} + {h2[j]}" for i in h1 for j in h2},
        volatility="0.6", domain=(-3.0, 3.0),
    )
    grid = build_grid(spec, 41, 33)
    bundle = simulate_paths(spec, SimParams(n_paths=300, n_steps=40, seed=31))
    field1, field2 = solve_single_obstacle(spec, grid)
    real1 = saddle_strategy(field1, 1).realize(spec, bundle)
    real2 = saddle_strategy(field2, 1).realize(spec, bundle)
    assert np.any(real1.modes != 1) and np.any(real2.modes != 1)
    challengers = [
        switch_at_start(spec, 1, 1), random_switch(spec, 1, 1, 5, bundle.n_steps),
        switch_at_start(spec, 2, 1), random_switch(spec, 2, 1, 6, bundle.n_steps),
    ]
    c1a, c1b, c2a, c2b = (c.realize(spec, bundle) for c in challengers)
    roster = [(real1, real2), (c1a, real2), (c1b, real2), (real1, c2a), (real1, c2b),
              (c1b, c2b)]
    return spec, bundle, roster


def test_payoff_estimates_match_the_per_entry_loop_bit_for_bit(roster_game):
    spec, bundle, roster = roster_game
    estimates = payoff_estimates(spec, bundle, roster)
    assert len(estimates) == len(roster)
    for (r1, r2), est in zip(roster, estimates):
        per_path, cost1, cost2, switches1, switches2 = _reference_payoff(spec, bundle, r1, r2)
        assert per_path.tobytes() == est.per_path.tobytes()
        assert cost1.tobytes() == est.cost1_per_path.tobytes()
        assert cost2.tobytes() == est.cost2_per_path.tobytes()
        assert np.array_equal(est.switches1, switches1)
        assert np.array_equal(est.switches2, switches2)
        single = payoff_estimate(spec, bundle, r1, r2)
        assert (est.mean, est.stderr) == (single.mean, single.stderr)


def test_feedback_saddle_tracks_keep_their_bytes(roster_game):
    # player 2 has three modes here, so its trigger picks between two
    # candidate targets (the cand > best comparison), which a 2x2 game never does
    real1, real2 = roster_game[2][0]
    assert np.unique(real2.modes).tolist() == [1, 2, 3]
    digests = [hashlib.sha256(np.ascontiguousarray(r.modes, dtype=np.int64).tobytes()).hexdigest()
               for r in (real1, real2)]
    assert digests == ["1ea7d04a1232739aa6601dda04b1853ebef21e28c2196ce8719f037beffc28f3",
                       "1b149d59d69286c085064fcd6e29b609fb5c1696a62696e3ed33d798ded65784"]


def test_payoff_estimates_evaluate_each_driver_once_per_step(roster_game, monkeypatch):
    spec, bundle, roster = roster_game
    drivers = {id(e) for e in spec.drivers.f.values()}
    terminals = {id(e) for e in spec.terminals.h.values()}
    per_tree = {}
    calls = {"switch_costs": 0}
    original_costs = game._switch_costs

    def record(trees, ctx):
        for expr in trees:
            kind = "f" if id(expr) in drivers else "h" if id(expr) in terminals else None
            if kind is not None:
                key = (kind, id(expr), float(ctx.t))
                per_tree[key] = per_tree.get(key, 0) + 1

    def counting_all(trees, ctx):
        record(trees, ctx)
        return evaluate_all(trees, ctx)

    def counting(expr, ctx):
        record((expr,), ctx)
        return evaluate(expr, ctx)

    def counting_costs(*args):
        calls["switch_costs"] += 1
        return original_costs(*args)

    monkeypatch.setattr(game, "evaluate_all", counting_all)
    monkeypatch.setattr(game, "evaluate", counting)
    monkeypatch.setattr(game, "_switch_costs", counting_costs)
    payoff_estimates(spec, bundle, roster)
    assert len({t for kind, _, t in per_tree if kind == "f"}) == bundle.n_steps
    # each driver tree at most once per step, through whichever seam
    assert max(per_tree.values()) == 1
    # one switching-cost pass per distinct realized strategy
    assert calls["switch_costs"] == len({id(r) for entry in roster for r in entry})


def _split_roster(spec, bundle, into_mode2):
    """Player 1 in mode 2 on the paths where ``into_mode2(x_k)`` holds over
    [t_k, t_{k+1}), mode 1 elsewhere; player 2 never switches."""
    track = np.zeros((bundle.n_steps + 2, bundle.n_paths), dtype=np.uint8)
    track[1:-1] = into_mode2(bundle.states.T[:-1])
    track[-1] = track[-2]
    split = RealizedStrategy(player=1, labels=(1, 2), track=track)
    return [(split, never_switch(2, 1)), (never_switch(1, 1), never_switch(2, 1))]


@pytest.mark.parametrize("driver", ["0.5 + sqrt(x)", "0.5 + exp(1000*x)"])
def test_driver_failing_only_off_its_pair_keeps_the_per_entry_payoffs(driver):
    # the (2, 1) driver fails on paths with x < 0 (or overflows with
    # x > 0), which the roster never places in that pair
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 0.1, 0.1)
    drivers = {(1, 1): "0.5", (1, 2): "x", (2, 1): driver, (2, 2): "t"}
    spec = build_spec(costs1=costs1, costs2=costs2, drivers=drivers, volatility="0.5")
    bundle = simulate_paths(spec, SimParams(n_paths=200, n_steps=20, seed=6))
    safe = (lambda x: x >= 0) if "sqrt" in driver else (lambda x: x <= 0)
    roster = _split_roster(spec, bundle, safe)
    split = roster[0][0].track
    assert 0 < split.sum() < split.size
    estimates = payoff_estimates(spec, bundle, roster)
    for (r1, r2), est in zip(roster, estimates):
        r1, r2 = game._realized(r1, spec, bundle), game._realized(r2, spec, bundle)
        per_path, cost1, cost2, _, _ = _reference_payoff(spec, bundle, r1, r2)
        assert per_path.tobytes() == est.per_path.tobytes()
        assert cost1.tobytes() == est.cost1_per_path.tobytes()


def test_driver_failing_on_its_pair_raises_the_subset_error():
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 0.1, 0.1)
    drivers = {(1, 1): "0.5", (1, 2): "x", (2, 1): "0.5 + sqrt(x)", (2, 2): "t"}
    spec = build_spec(costs1=costs1, costs2=costs2, drivers=drivers, volatility="0.5")
    bundle = simulate_paths(spec, SimParams(n_paths=200, n_steps=20, seed=6))
    roster = _split_roster(spec, bundle, lambda x: x >= -0.2)
    with pytest.raises(ExpressionDomainError) as err:
        payoff_estimates(spec, bundle, roster)
    assert str(err.value) == "square root of negative value at offset 6"


def _domain_spec():
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 0.1, 0.1)
    drivers = {(1, 1): "0.5", (1, 2): "x", (2, 1): "t", (2, 2): "sqrt(x - 10)"}
    return build_spec(costs1=costs1, costs2=costs2, drivers=drivers, volatility="0.3")


def test_payoff_estimates_evaluate_no_pair_that_no_entry_visits():
    spec = _domain_spec()
    bundle = simulate_paths(spec, SimParams(n_paths=50, n_steps=10, seed=4))
    roster = [(never_switch(1, 1), never_switch(2, 1)),
              (switch_at_start(spec, 1, 1), never_switch(2, 1)),
              (never_switch(1, 1), switch_at_start(spec, 2, 1))]
    estimates = payoff_estimates(spec, bundle, roster)
    assert estimates[0].mean == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ExpressionDomainError):
        payoff_estimates(spec, bundle, roster + [(switch_at_start(spec, 1, 1),
                                                  switch_at_start(spec, 2, 1))])
