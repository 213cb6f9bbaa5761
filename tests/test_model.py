import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from switchgame.errors import SpecificationError
from switchgame.expressions import EvalContext
from switchgame.expressions import parse_expression as pe
from switchgame.model import (
    ModeSets,
    SwitchCostTable,
    ceiling,
    check_separation,
    cost_array,
    enumerate_product_loops,
    floor,
    loop_signed_sum,
    sample_lattice,
    validate_consistency,
    validate_costs,
    validate_triangle,
)

from helpers import build_spec, uniform_costs

SAMPLES = [(0.0, 0.0), (0.5, -0.5), (1.0, 0.75)]


# ---------------------------------------------------------------------------
# Cost / loop validation
# ---------------------------------------------------------------------------


def test_mixed_loop_costs_pass():
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 1.0, 2.0)
    spec = build_spec(costs1=costs1, costs2=costs2)
    report = validate_costs(spec, SAMPLES)
    assert report.checks["cost_nonnegativity"].passed
    assert report.checks["non_free_loop"].passed
    # the four-step mixed loop sums to -1+2-1+2 = 2 at every sample
    loop = [(1, 1), (2, 1), (2, 2), (1, 2), (1, 1)]
    assert loop_signed_sum(spec, loop, 0.0, 0.0) == pytest.approx(2.0)


def test_equal_costs_create_free_loop():
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 1.0, 1.0)
    spec = build_spec(costs1=costs1, costs2=costs2)
    report = validate_costs(spec, SAMPLES)
    assert not report.checks["non_free_loop"].passed
    witness = report.checks["non_free_loop"].witnesses[0]
    assert len(witness["loop"]) == 5  # the 4-step mixed loop, closed


def test_negative_cost_rejected():
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 1.0, 2.0)
    costs1[(1, 2)] = -0.5
    spec = build_spec(costs1=costs1, costs2=costs2)
    report = validate_costs(spec, SAMPLES)
    assert not report.checks["cost_nonnegativity"].passed
    assert report.checks["cost_nonnegativity"].witnesses


def test_zero_second_player_costs_fail_pure_loop():
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 1.0, 0.0)
    spec = build_spec(costs1=costs1, costs2=costs2)
    report = validate_costs(spec, SAMPLES)
    assert not report.checks["non_free_loop"].passed
    assert report.checks["cost_nonnegativity"].passed


def test_empty_samples_rejected():
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 1.0, 2.0)
    spec = build_spec(costs1=costs1, costs2=costs2)
    with pytest.raises(ValueError):
        validate_costs(spec, [])
    with pytest.raises(ValueError):
        validate_costs(spec, [(0.0, 99.0)])


def _naive_loops(modes: ModeSets, max_len):
    """Independent enumerator: brute force over node subsets and orderings."""
    nodes = [(i, j) for i in modes.modes1 for j in modes.modes2]
    order = {n: k for k, n in enumerate(nodes)}

    def adjacent(a, b):
        return (a[0] == b[0]) != (a[1] == b[1])

    found = set()
    for size in range(2, max_len + 1):
        for subset in itertools.combinations(nodes, size):
            anchor = min(subset, key=order.get)
            rest = [n for n in subset if n != anchor]
            for perm in itertools.permutations(rest):
                cycle = (anchor,) + perm + (anchor,)
                if all(adjacent(a, b) for a, b in zip(cycle[:-1], cycle[1:])):
                    found.add(cycle)
    return found


@pytest.mark.parametrize(
    "modes1,modes2,bound",
    [((1, 2), (1, 2), 4), ((1, 2, 3), (1, 2), 5), ((1, 2, 3), (1, 2, 3), 4),
     ((1, 2, 3, 4), (1, 2, 3, 4), 4)],
)
def test_loop_enumerator_matches_naive(modes1, modes2, bound):
    modes = ModeSets(modes1, modes2)
    mine = {tuple(loop) for loop in enumerate_product_loops(modes, bound)}
    assert mine == _naive_loops(modes, bound)


def test_constant_cost_verdict_matches_naive_oracle():
    # verdicts must agree with a brute-force sum over the naive loop set
    for c1, c2 in ((0.3, 0.5), (0.25, 0.25), (1.0, 2.0)):
        costs1, costs2 = uniform_costs((1, 2, 3), (1, 2), c1, c2)
        spec = build_spec(modes1=(1, 2, 3), modes2=(1, 2), costs1=costs1, costs2=costs2)
        report = validate_costs(spec, [(0.0, 0.0)])
        naive_ok = all(
            abs(loop_signed_sum(spec, list(loop), 0.0, 0.0)) > 1e-12
            for loop in _naive_loops(spec.modes, 5)
        )
        # pure one-player loops always positive with positive constants
        assert report.checks["non_free_loop"].passed == naive_ok


# ---------------------------------------------------------------------------
# Terminal consistency
# ---------------------------------------------------------------------------


def test_consistency_zero_terminals():
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 1.0, 1.0)
    spec = build_spec(costs1=costs1, costs2=costs2)
    report = validate_consistency(spec, [0.0, 0.5])
    assert report.checks["terminal_consistency"].passed


def test_consistency_violation_with_witness():
    spec = build_spec(
        modes1=(1, 2), modes2=(1,),
        costs1={(1, 2): 1.0, (2, 1): 1.0}, costs2={},
        terminals={(1, 1): "5", (2, 1): "1"},
    )
    report = validate_consistency(spec, [0.0])
    check = report.checks["terminal_consistency"]
    assert not check.passed
    assert any(w["pair"] == [2, 1] for w in check.witnesses)


def test_consistency_identical_terminals():
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 0.5, 0.5)
    spec = build_spec(costs1=costs1, costs2=costs2,
                      terminals={p: "x" for p in ((1, 1), (1, 2), (2, 1), (2, 2))})
    report = validate_consistency(spec, [-1.0, 0.0, 1.0])
    assert report.checks["terminal_consistency"].passed


# ---------------------------------------------------------------------------
# Strict triangle
# ---------------------------------------------------------------------------


def _three_mode_spec(c13):
    costs2 = {(1, 2): 1.0, (2, 1): 1.0, (2, 3): 1.0, (3, 2): 1.0,
              (1, 3): c13, (3, 1): c13}
    costs1 = {(1, 2): 0.7, (2, 1): 0.7}
    return build_spec(modes1=(1, 2), modes2=(1, 2, 3), costs1=costs1, costs2=costs2)


def test_triangle_passes_for_uniform_costs():
    spec = _three_mode_spec(1.0)
    report = validate_triangle(spec, SAMPLES)
    assert report.checks["strict_triangle"].passed
    assert report.checks["strict_triangle"].assumed  # smoothness recorded as assumed


def test_triangle_violation():
    spec = _three_mode_spec(3.0)
    report = validate_triangle(spec, SAMPLES)
    check = report.checks["strict_triangle"]
    assert not check.passed
    assert any(w["triple"] == [1, 2, 3] for w in check.witnesses)


def test_triangle_vacuous_for_two_modes():
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 1.0, 2.0)
    spec = build_spec(costs1=costs1, costs2=costs2)
    report = validate_triangle(spec, SAMPLES)
    assert report.checks["strict_triangle"].passed


# ---------------------------------------------------------------------------
# Separation
# ---------------------------------------------------------------------------


def _lattice(n=10):
    return [(t, x) for t in np.linspace(0, 1, n) for x in np.linspace(-1, 1, n)]


def test_separation_additive_rewards():
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 1.0, 2.0)
    drivers = {(i, j): f"{i}*x + {j}*t" for i in (1, 2) for j in (1, 2)}
    spec = build_spec(costs1=costs1, costs2=costs2, drivers=drivers)
    report = check_separation(spec, _lattice())
    assert report.checks["separation"].passed


def test_separation_rejects_cross_term():
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 1.0, 2.0)
    drivers = {(i, j): f"{i}*{j}*x" for i in (1, 2) for j in (1, 2)}
    spec = build_spec(costs1=costs1, costs2=costs2, drivers=drivers)
    report = check_separation(spec, _lattice())
    assert not report.checks["separation"].passed


def test_separation_identical_drivers():
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 1.0, 2.0)
    drivers = {p: "sin(x)*t" for p in ((1, 1), (1, 2), (2, 1), (2, 2))}
    spec = build_spec(costs1=costs1, costs2=costs2, drivers=drivers)
    report = check_separation(spec, _lattice())
    assert report.checks["separation"].passed


@given(lo=st.floats(-1e3, 1e3), width=st.floats(1e-3, 1e3), horizon=st.floats(1e-3, 1e3))
@settings(max_examples=60, deadline=None)
def test_sample_lattice_stays_in_the_domain(lo, width, horizon):
    # lo + (hi - lo) * 20 / 20 can round past hi, as on [-0.1, 0.3], and
    # every check that samples the lattice rejects a point outside it
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 1.0, 2.0)
    for domain in ((lo, lo + width), (-0.1, 0.3)):
        spec = build_spec(costs1=costs1, costs2=costs2, domain=domain, horizon=horizon)
        samples = sample_lattice(spec)
        assert len(samples) == 5 * 21 and samples[0] == (0.0, domain[0])
        assert all(0.0 <= t <= horizon and domain[0] <= x <= domain[1] for t, x in samples)
        assert check_separation(spec, samples).all_passed()
        assert validate_costs(spec, samples).all_passed()


@pytest.mark.parametrize("eps", [1e-6, 1e-3, 1.0])
def test_separation_detects_small_coupling(eps):
    costs1, costs2 = uniform_costs((1, 2), (1, 2), 1.0, 2.0)
    drivers = {(i, j): f"{i}*x + {j}*t + {eps}*{i}*{j}" for i in (1, 2) for j in (1, 2)}
    spec = build_spec(costs1=costs1, costs2=costs2, drivers=drivers)
    report = check_separation(spec, _lattice())
    assert not report.checks["separation"].passed


# ---------------------------------------------------------------------------
# Obstacle evaluators
# ---------------------------------------------------------------------------


def _table(costs1, costs2, modes1=(1, 2), modes2=(1, 2)):
    modes = ModeSets(modes1, modes2)
    c1 = {k: pe(str(v)) for k, v in costs1.items()}
    c2 = {k: pe(str(v)) for k, v in costs2.items()}
    return SwitchCostTable.full(modes, c1, c2)


def _lower(values, costs, pair, modes1=(1, 2)):
    """Floor of one pair (mode positions), checked against the whole-field form."""
    g1 = cost_array(costs.costs1, modes1, EvalContext(0.0, 0.0))
    value = floor(values, g1, pair)
    assert floor(values, g1)[pair] == value
    return value


def _upper(values, costs, pair, modes2=(1, 2)):
    g2 = cost_array(costs.costs2, modes2, EvalContext(0.0, 0.0))
    value = ceiling(values, g2, pair)
    assert ceiling(values, g2)[pair] == value
    return value


def test_obstacle_lower_examples():
    costs = _table({(1, 2): 1.0, (2, 1): 2.0}, {(1, 2): 1.0, (2, 1): 1.0})
    values = np.array([[5.0, 0.0], [3.0, 0.0]])  # rows: player-1 mode, columns: player-2 mode
    assert _lower(values, costs, (0, 0)) == 2.0
    assert _lower(values, costs, (1, 0)) == 3.0

    costs3 = _table(
        {(1, 2): 1.0, (1, 3): 4.0, (2, 1): 1.0, (2, 3): 1.0, (3, 1): 1.0, (3, 2): 1.0},
        {(1, 2): 1.0, (2, 1): 1.0},
        modes1=(1, 2, 3),
    )
    values3 = np.array([[0.0], [4.0], [6.0]])
    assert _lower(values3, costs3, (0, 0), modes1=(1, 2, 3)) == 3.0


def test_obstacle_upper_examples():
    costs = _table({(1, 2): 1.0, (2, 1): 1.0}, {(1, 2): 1.0, (2, 1): 2.0})
    values = np.array([[5.0, 3.0], [0.0, 0.0]])
    assert _upper(values, costs, (0, 0)) == 4.0
    assert _upper(values, costs, (0, 1)) == 7.0

    costs3 = _table(
        {(1, 2): 1.0, (2, 1): 1.0},
        {(1, 2): 2.0, (1, 3): 1.0, (2, 1): 1.0, (2, 3): 1.0, (3, 1): 1.0, (3, 2): 1.0},
        modes2=(1, 2, 3),
    )
    values3 = np.array([[0.0, 0.0, 10.0]])
    assert _upper(values3, costs3, (0, 0), modes2=(1, 2, 3)) == 2.0


def test_obstacle_sentinels_for_single_mode():
    costs = _table({}, {(1, 2): 1.0, (2, 1): 1.0}, modes1=(1,))
    values = np.array([[5.0, 3.0]])
    assert _lower(values, costs, (0, 0), modes1=(1,)) == -math.inf
    costs_u = _table({(1, 2): 1.0, (2, 1): 1.0}, {}, modes2=(1,))
    values_u = np.array([[5.0], [3.0]])
    assert _upper(values_u, costs_u, (0, 0), modes2=(1,)) == math.inf


@given(
    value=st.floats(-50, 50),
    c1=st.floats(0, 5),
    c2=st.floats(0, 5),
)
@settings(max_examples=60, deadline=None)
def test_constant_vector_sits_between_obstacles(value, c1, c2):
    costs = _table({(1, 2): c1, (2, 1): c1}, {(1, 2): c2, (2, 1): c2})
    values = np.full((2, 2), value)
    low = _lower(values, costs, (0, 0))
    up = _upper(values, costs, (0, 0))
    assert low <= value <= up


@given(
    base=st.floats(-10, 10),
    bump=st.floats(0, 10),
)
@settings(max_examples=60, deadline=None)
def test_obstacles_monotone_in_values(base, bump):
    costs = _table({(1, 2): 1.0, (2, 1): 1.0}, {(1, 2): 1.0, (2, 1): 1.0})
    values = np.array([[0.0, base], [base, 0.0]])
    bumped = values.copy()
    bumped[1, 0] = base + bump
    bumped[0, 1] = base + bump
    assert _lower(bumped, costs, (0, 0)) >= _lower(values, costs, (0, 0))
    assert _upper(bumped, costs, (0, 0)) >= _upper(values, costs, (0, 0))


# ---------------------------------------------------------------------------
# Spec construction errors
# ---------------------------------------------------------------------------


def test_spec_validation_errors():
    with pytest.raises(SpecificationError):
        ModeSets((), (1,))
    with pytest.raises(SpecificationError):
        build_spec(horizon=-1.0, costs1={(1, 2): 1, (2, 1): 1}, costs2={(1, 2): 1, (2, 1): 1})
    with pytest.raises(SpecificationError):
        build_spec(domain=(2.0, -2.0), costs1={(1, 2): 1, (2, 1): 1}, costs2={(1, 2): 1, (2, 1): 1})
    with pytest.raises(SpecificationError):
        # missing switching cost
        build_spec(costs1={(1, 2): 1.0}, costs2={(1, 2): 1, (2, 1): 1})
    with pytest.raises(SpecificationError):
        # terminal depending on t
        build_spec(costs1={(1, 2): 1, (2, 1): 1}, costs2={(1, 2): 1, (2, 1): 1},
                   terminals={p: "t*x" for p in ((1, 1), (1, 2), (2, 1), (2, 2))})
