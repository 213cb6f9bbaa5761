import numpy as np
import pytest

from switchgame.errors import AdmissibilityError, PreconditionError
from switchgame.game import (
    RealizedStrategy,
    SwitchingStrategy,
    default_challengers,
    deterministic_dp_oracle,
    never_switch,
    oracle_optimal_strategies,
    payoff_estimate,
    saddle_strategy_player1,
    saddle_strategy_player2,
    switch_at_start,
    switch_every_step,
    verify_saddle,
)
from switchgame.grid import build_grid
from switchgame.simulate import SimParams, simulate_paths
from switchgame.solver import solve_single_obstacle

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
    assert np.all(_cost1(at_end, spec, bundle) == 1.0)  # but costs


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
    field = solve_single_obstacle(spec, grid, 1)
    bundle = _frozen_bundle(spec, n_steps=10)
    strategy = saddle_strategy_player1(field, 1)
    realized = strategy.realize(spec, bundle)
    assert realized.switch_path.size == 0


def test_saddle_strategy_cheap_switch_fires_once_at_start():
    spec = _separated_game_spec(costs1_value=0.1)
    grid = build_grid(spec, 11, 9)
    field = solve_single_obstacle(spec, grid, 1)
    bundle = _frozen_bundle(spec, n_paths=6, n_steps=10)
    strategy = saddle_strategy_player1(field, 1)
    realized = strategy.realize(spec, bundle)
    assert realized.switch_path.size == bundle.n_paths
    assert np.all(realized.switch_step == 0)
    assert np.all(realized.switch_target == 2)
    est = payoff_estimate(spec, bundle, strategy, never_switch(2, 1))
    assert est.mean == pytest.approx(0.9, abs=1e-12)


def test_saddle_strategy_single_mode_is_empty():
    spec = build_spec(modes1=(1,), modes2=(1,), drivers={(1, 1): "1"},
                      terminals={(1, 1): "0"})
    grid = build_grid(spec, 11, 9)
    field = solve_single_obstacle(spec, grid, 1)
    bundle = _frozen_bundle(spec)
    strategy = saddle_strategy_player1(field, 1)
    assert strategy.realize(spec, bundle).switch_path.size == 0


def test_saddle_strategy_requires_matching_field():
    spec = _separated_game_spec()
    grid = build_grid(spec, 6, 9)
    field1 = solve_single_obstacle(spec, grid, 1)
    bundle = _frozen_bundle(spec)
    with pytest.raises(PreconditionError):
        saddle_strategy_player2(field1, 1)


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
    field1 = solve_single_obstacle(spec, grid, 1)
    field2 = solve_single_obstacle(spec, grid, 2)
    bundle = simulate_paths(spec, SimParams(n_paths=4000, n_steps=100, seed=17))
    saddle1 = saddle_strategy_player1(field1, 1)
    saddle2 = saddle_strategy_player2(field2, 1)
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


def test_verify_saddle_from_fields_wrapper(small_game):
    from switchgame.game import verify_saddle_from_fields

    spec, grid, field1, field2, bundle, _, _ = small_game
    report = verify_saddle_from_fields(
        spec, bundle, field1, field2,
        [("never_switch", never_switch(1, 1))], [("never_switch", never_switch(2, 1))],
        start=(0.0, 0.0, 1, 1),
    )
    assert report.all_passed()
    expected = float(field1.values[0, 0, 40] + field2.values[0, 0, 40])
    assert report.pde_value == pytest.approx(expected, abs=1e-12)


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
    spec, _, _, _, bundle, saddle1, saddle2 = small_game
    calls = {}
    original = SwitchingStrategy.realize

    def counting(self, spec, bundle):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return original(self, spec, bundle)

    monkeypatch.setattr(SwitchingStrategy, "realize", counting)
    challengers1 = default_challengers(spec, 1, 1, 23, bundle.n_steps)
    challengers2 = default_challengers(spec, 2, 1, 24, bundle.n_steps)
    verify_saddle(spec, bundle, saddle1, saddle2, challengers1, challengers2,
                  start=(0.0, 0.0, 1, 1))
    strategies = [saddle1, saddle2] + [s for _, s in challengers1 + challengers2]
    assert calls == {id(s): 1 for s in strategies}


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
    ref_field = solve_single_obstacle(ref_spec, ref_grid, 1)
    field = solve_single_obstacle(spec, grid, 1)
    cases = [
        (saddle_strategy_player1(ref_field, 1),
         saddle_strategy_player1(field, a)),
        (SwitchingStrategy(player=1, start_mode=1, schedule=((3, 2), (17, 1))),
         SwitchingStrategy(player=1, start_mode=a, schedule=((3, b), (17, a)))),
    ]
    for ref_strategy, strategy in cases:
        ref = ref_strategy.realize(ref_spec, bundle)
        got = strategy.realize(spec, bundle)
        assert np.iinfo(got.modes.dtype).min <= min(labels)
        assert max(labels) <= np.iinfo(got.modes.dtype).max
        assert np.array_equal(got.modes, _relabel(ref.modes, (1, 2), labels))
        assert got.switch_path.size > 0
        assert np.array_equal(got.switch_path, ref.switch_path)
        assert np.array_equal(got.switch_step, ref.switch_step)
        assert np.array_equal(got.switch_target, _relabel(ref.switch_target, (1, 2), labels))
        ref_pay = payoff_estimate(ref_spec, bundle, ref, never_switch(2, 1))
        pay = payoff_estimate(spec, bundle, got, never_switch(2, 1))
        assert np.array_equal(pay.per_path, ref_pay.per_path)
