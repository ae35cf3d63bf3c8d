import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from em2gm.population import (
    PopulationState,
    F_pop,
    G_pop,
    QuadratureRule,
    build_rule,
    f_pop,
    invert_q,
    population_trajectory,
    q_pop,
    sandwich_sequences,
)
from oracles import f_pop_com, fg_inequality_violation, fg_pop_separately

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _mix_pdf(v, s):
    return 0.5 * (np.exp(-0.5 * (v - s) ** 2) + np.exp(-0.5 * (v + s) ** 2)) / _SQRT_2PI


def _f_oracle(theta, s):
    val, err = quad(lambda v: v * math.tanh(theta * v) * _mix_pdf(v, s),
                    -np.inf, np.inf, epsabs=1e-13, epsrel=1e-13, limit=400)
    assert err < 1e-11
    return val


def _fg_oracle(alpha, beta, s):
    lim = 12.0 + s

    def fi(w, v):
        return v * math.tanh(alpha * v + beta * w) * _mix_pdf(v, s) * math.exp(-0.5 * w * w) / _SQRT_2PI

    def gi(w, v):
        return w * math.tanh(alpha * v + beta * w) * _mix_pdf(v, s) * math.exp(-0.5 * w * w) / _SQRT_2PI

    f_val, f_err = dblquad(fi, -lim, lim, -lim, lim, epsabs=1e-11, epsrel=1e-11)
    g_val, g_err = dblquad(gi, -lim, lim, -lim, lim, epsabs=1e-11, epsrel=1e-11)
    assert max(f_err, g_err) < 1e-9
    return f_val, g_val


def test_rule_weights_sum_to_sqrt_pi(rule, rule160):
    for r in (rule, rule160):
        assert abs(float(np.sum(r.weights)) - math.sqrt(math.pi)) < 1e-12
        np.testing.assert_allclose(r.nodes, -r.nodes[::-1], atol=1e-14)


def test_rule_rejects_bad_order():
    with pytest.raises(ValueError):
        QuadratureRule(order=0, nodes=np.zeros(1), weights=np.ones(1))
    # build_rule names the order before hermgauss sees it
    for order in (0, -3):
        with pytest.raises(ValueError, match=f"order must be >= 1, got {order}"):
            build_rule(order)


@pytest.mark.parametrize("s", [0.0, 0.35, 1.0, 3.0, 10.0])
@pytest.mark.parametrize("theta", [0.05, 0.5, 1.0, 3.0, 10.0])
def test_f_pop_against_adaptive_quadrature(rule, theta, s):
    assert f_pop(theta, s, rule) == pytest.approx(_f_oracle(theta, s), abs=1e-10)


def test_f_pop_zero_and_oddness(rule):
    for s in (0.0, 0.5, 2.0):
        assert f_pop(0.0, s, rule) == 0.0
        for theta in (0.3, 1.7, 6.0):
            assert f_pop(-theta, s, rule) == pytest.approx(-f_pop(theta, s, rule), abs=1e-14)


def test_f_pop_fixed_point(rule):
    for s in (0.35, 1.0, 2.0, 5.0):
        assert f_pop(s, s, rule) == pytest.approx(s, abs=1e-8)


def test_f_pop_slope_at_origin(rule):
    h = 1e-5
    for s in (0.0, 0.7, 1.5):
        slope = (f_pop(h, s, rule) - f_pop(-h, s, rule)) / (2 * h)
        assert slope == pytest.approx(1.0 + s * s, abs=1e-6)


def test_change_of_measure_route_agrees_where_certified(rule):
    for s in (0.0, 1.0, 3.0):
        for theta in (0.1, 0.6, 1.25):
            assert f_pop_com(theta, s, rule) == pytest.approx(f_pop(theta, s, rule), abs=1e-8)


def test_change_of_measure_route_refuses_large_s(rule):
    with pytest.raises(ValueError):
        f_pop_com(1.0, 3.5, rule)


@pytest.mark.parametrize("alpha,beta,s", [
    (0.3, 0.4, 0.35),
    (1.0, 2.0, 1.0),
    (2.5, 0.7, 3.0),
    (0.0, 1.3, 1.0),
    (4.0, 4.0, 2.0),
])
def test_FG_against_adaptive_quadrature(rule, alpha, beta, s):
    f_ref, g_ref = _fg_oracle(alpha, beta, s)
    assert F_pop(alpha, beta, s, rule) == pytest.approx(f_ref, abs=1e-9)
    assert G_pop(alpha, beta, s, rule) == pytest.approx(g_ref, abs=1e-9)


def test_F_vanishes_on_zero_signal(rule):
    for beta in (0.0, 0.5, 3.0):
        for s in (0.0, 0.35, 1.0):
            assert abs(F_pop(0.0, beta, s, rule)) < 1e-12


def test_G_vanishes_off_plane(rule):
    for alpha in (0.0, 0.5, 3.0):
        for s in (0.0, 0.35, 1.0):
            assert G_pop(alpha, 0.0, s, rule) == 0.0


def test_F_odd_G_even_in_alpha(rule):
    for alpha, beta, s in [(0.4, 0.8, 1.0), (2.0, 0.3, 0.35), (1.1, 1.1, 2.0)]:
        assert F_pop(-alpha, beta, s, rule) == pytest.approx(-F_pop(alpha, beta, s, rule), abs=1e-13)
        assert G_pop(-alpha, beta, s, rule) == pytest.approx(G_pop(alpha, beta, s, rule), abs=1e-13)


def test_f_pop_is_F_on_the_axis(rule):
    for theta, s in [(0.3, 0.0), (1.0, 1.0), (4.0, 2.0)]:
        assert f_pop(theta, s, rule) == F_pop(theta, 0.0, s, rule)


def test_map_values_stable_under_order_doubling(rule, rule160):
    grid = np.linspace(0.0, 3.0, 7)
    for s in (0.0, 0.35, 1.0):
        for a in grid:
            for b in grid:
                assert F_pop(a, b, s, rule) == pytest.approx(F_pop(a, b, s, rule160), abs=1e-10)
                assert G_pop(a, b, s, rule) == pytest.approx(G_pop(a, b, s, rule160), abs=1e-10)


def test_q_limit_and_fixed_point(rule):
    for s in (0.0, 0.5, 1.0, 2.0):
        assert q_pop(0.0, s, rule) == 1.0 + s * s
        if s > 0:
            assert q_pop(s, s, rule) == pytest.approx(1.0, abs=1e-8)


def test_q_strictly_decreasing(rule):
    grid = np.linspace(0.02, 5.0, 80)
    for s in (0.0, 0.5, 1.0, 2.0):
        vals = np.array([q_pop(t, s, rule) for t in grid])
        assert np.all(np.diff(vals) < 0.0)


def test_invert_q_round_trip(rule):
    for c in (0.9, 0.99, 1.01):
        theta = invert_q(c, 1.0, rule)
        assert q_pop(theta, 1.0, rule) == pytest.approx(c, abs=1e-8)


def test_invert_q_known_values(rule):
    for s in (0.5, 1.0, 2.0):
        assert invert_q(1.0, s, rule) == pytest.approx(s, abs=1e-8)
        assert invert_q(1.0 + s * s, s, rule) == 0.0
        assert invert_q(2.0 + s * s, s, rule) == 0.0


def test_invert_q_rejects_nonpositive_level(rule):
    with pytest.raises(ValueError):
        invert_q(0.0, 1.0, rule)
    with pytest.raises(ValueError):
        invert_q(-0.5, 1.0, rule)


def test_population_state_validation():
    with pytest.raises(ValueError):
        PopulationState(0.1, -0.2)
    with pytest.raises(ValueError):
        PopulationState(math.nan, 0.0)


def test_trajectory_fixed_point_is_stationary(rule):
    for s in (0.35, 1.0):
        states = population_trajectory(PopulationState(s, 0.0), s, 20, rule)
        assert len(states) == 21
        for st in states:
            assert abs(st.alpha - s) < 1e-8
            assert st.beta == 0.0


def test_trajectory_on_axis_matches_scalar_iteration(rule):
    states = population_trajectory(PopulationState(0.2, 0.0), 1.0, 15, rule)
    theta = 0.2
    for st in states:
        assert st.alpha == theta  # same code path, so bitwise
        assert st.beta == 0.0
        theta = f_pop(theta, 1.0, rule)


def test_trajectory_recovers_center_from_overshooting_start(rule):
    states = population_trajectory(PopulationState(0.1, 0.7), 0.35, 60, rule)
    alphas = [st.alpha for st in states]
    assert min(alphas) < alphas[0]  # initial dip before the signal recovers
    assert abs(states[-1].alpha - 0.35) < 1e-3
    # beta contracts by roughly 0.95 per step this close to the fixed point,
    # so it is still 2.3e-3 after 60 steps; it crosses 1e-3 at t = 68
    assert states[-1].beta < 2.5e-3
    assert population_trajectory(PopulationState(0.1, 0.7), 0.35, 80, rule)[-1].beta < 1e-3


def test_sandwich_zero_perturbation_collapses(rule):
    upper, lower = sandwich_sequences(0.5, 1.0, 0.0, 30, rule)
    np.testing.assert_array_equal(upper, lower)
    theta = 0.5
    for t in range(31):
        assert upper[t] == theta
        theta = f_pop(theta, 1.0, rule)


def test_sandwich_ordering_and_limits(rule):
    upper, lower = sandwich_sequences(0.5, 1.0, 0.05, 200, rule)
    assert np.all(lower <= upper + 1e-15)
    assert np.all(lower >= 0.0)
    assert upper[-1] == pytest.approx(invert_q(0.95, 1.0, rule), abs=1e-4)
    assert lower[-1] == pytest.approx(invert_q(1.05, 1.0, rule), abs=1e-4)


def test_sandwich_validates_inputs(rule):
    with pytest.raises(ValueError):
        sandwich_sequences(0.0, 1.0, 0.05, 10, rule)
    with pytest.raises(ValueError):
        sandwich_sequences(0.5, 1.0, -0.1, 10, rule)
    # max(0, nan) is 0: a nan start or width would not show in the lower envelope
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="theta0 must be finite and positive"):
            sandwich_sequences(bad, 1.0, 0.05, 10, rule)
        with pytest.raises(ValueError, match="w must be finite and nonnegative"):
            sandwich_sequences(0.5, 1.0, bad, 10, rule)


@pytest.mark.parametrize("s", [-1.0, -1e-300, math.nan, math.inf])
def test_population_runs_reject_a_negative_or_nonfinite_s(rule, s):
    # the rule of ModelSpec.along_axis
    with pytest.raises(ValueError, match="s must be finite and nonnegative"):
        population_trajectory(PopulationState(0.1, 0.7), s, 5, rule)
    with pytest.raises(ValueError, match="s must be finite and nonnegative"):
        sandwich_sequences(0.5, s, 0.05, 5, rule)


def test_build_rule_orders_differ():
    assert build_rule(40).order == 40
    assert build_rule(40)._z.shape == (40,)


def test_build_rule_builds_each_order_once():
    assert build_rule() is build_rule(80) is build_rule(order=80)
    assert build_rule(160) is build_rule(160) and build_rule(160) is not build_rule(80)


def test_rule_arrays_are_read_only_copies():
    nodes, weights = np.polynomial.hermite.hermgauss(20)
    rule = QuadratureRule(order=20, nodes=nodes, weights=weights)
    nodes[0] = weights[0] = 0.0  # the caller's arrays stay writable and apart
    assert rule.nodes[0] != 0.0 and rule.weights[0] != 0.0
    for r in (rule, build_rule()):
        for arr in (r.nodes, r.weights, r._z, r._wz, r._lx, r._lw, r._lg):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0


def test_shared_rule_gives_the_values_of_a_fresh_one():
    # what the criteria print: the scalar maps, the inverse, the trajectories
    # and the envelopes, bit for bit
    shared, fresh = build_rule(), QuadratureRule(80, *np.polynomial.hermite.hermgauss(80))

    def values(rule):
        states = population_trajectory(PopulationState(3.0, 0.5), 1.0, 20, rule)
        upper, lower = sandwich_sequences(0.5, 1.0, 0.05, 20, rule)
        return (f_pop(0.7, 0.3, rule), invert_q(0.9, 1.0, rule),
                [(st_.alpha, st_.beta) for st_ in states], upper.tobytes(), lower.tobytes())

    assert values(shared) == values(fresh)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(-6.0, 6.0), st.sampled_from([0.0, -0.0])),
       st.one_of(st.floats(0.0, 6.0), st.just(0.0)), st.floats(0.0, 4.0))
def test_one_evaluation_per_state_gives_the_bits_of_two(rule, alpha, beta, s):
    # F and G share one pair of Gaussian integrals per state, with the zero
    # cases of the two separate evaluations, so no bit moves
    want = fg_pop_separately(alpha, beta, s, rule)
    got = F_pop(alpha, beta, s, rule), G_pop(alpha, beta, s, rule)
    nxt = population_trajectory(PopulationState(alpha, beta), s, 1, rule)[1]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert np.array([nxt.alpha, nxt.beta]).tobytes() == np.array(
        [want[0], max(0.0, want[1])]).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(0.0, 1.0))
def test_FG_inequality_suite_holds_off_the_grid(rule, alpha, beta, s):
    # criterion 08's six inequalities, with its 1e-6 slack, at any (alpha,
    # beta) in [0, 3]^2 and s in [0, 1], not only on its 13 x 13 grid at three s
    F, G = F_pop(alpha, beta, s, rule), G_pop(alpha, beta, s, rule)
    assert fg_inequality_violation(alpha, beta, s, f_pop(alpha, s, rule), F, G) <= 1e-6
