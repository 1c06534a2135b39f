import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from streampolicy.core import make_rng
from streampolicy.flowmatch import (
    FlowParams, discrete_xi_dot, euler_integrate, extract_action, marginal_sample,
    marginal_variance, target_velocity,
)

FP = FlowParams(k=5.0, sigma0=0.4, h=10)


def test_marginal_variance_values():
    assert math.isclose(marginal_variance(FP, 0.0), 0.16, rel_tol=1e-12)
    assert math.isclose(marginal_variance(FP, 1.0), 0.16 * math.exp(-10.0), rel_tol=1e-12)


def test_contraction_monte_carlo():
    """Fine-step simulation of dx = v dt with the reference velocity field
    around a static path reproduces the closed-form variance envelope."""
    rng = make_rng(123, 99)
    # 2000 Euler steps keep the discretization bias of the variance well
    # under the 5% budget (first-order error ~ k^2 dt at t=1)
    n, steps = 10_000, 2000
    x = marginal_sample(np.zeros(n), FP, 0.0, rng)
    dt = 1.0 / steps
    checkpoints = {0.25: None, 0.5: None, 1.0: None}
    for i in range(steps):
        # xi = 0, xi_dot = 0: pure contraction toward the path
        x = x + target_velocity(0.0, 0.0, x, FP.k) * dt
        t = (i + 1) * dt
        for tc in checkpoints:
            if abs(t - tc) < dt / 2:
                checkpoints[tc] = float(np.var(x))
    for tc, measured in checkpoints.items():
        expect = marginal_variance(FP, tc)
        assert measured is not None
        assert abs(measured - expect) / expect < 0.05, (tc, measured, expect)


def test_target_velocity_on_path_is_path_velocity():
    xi = np.array([0.3, -0.2])
    xi_dot = np.array([1.0, 2.0])
    assert np.array_equal(target_velocity(xi, xi_dot, xi, 5.0), xi_dot)


@given(st.floats(0.01, 50.0), st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=100, deadline=None)
def test_target_velocity_contracts_toward_path(k, xi, x):
    # k*(x - xi) can underflow to 0.0 (xi = 5e-324, x = 0); the sign claim is
    # about the field, not about float64 underflow
    assume(k * abs(x - xi) > 0.0)
    v = target_velocity(xi, 0.0, x, k)
    if x > xi:
        assert v < 0
    elif x < xi:
        assert v > 0


def test_euler_telescoping_exact():
    """x_T - x_0 equals the left-to-right sum of extracted actions bitwise,
    because both are the same additions in the same order."""
    rng = make_rng(5, 1)
    h = 10
    table = rng.normal(size=(h, 3))

    def v_fn(x, t):
        return table[int(round(t * h))]

    xs = euler_integrate(v_fn, rng.normal(size=3), h, h)
    acc = xs[0].copy()
    for T in range(h):
        acc = acc + extract_action(table[T], h)
        assert np.array_equal(acc, xs[T + 1])


def test_sigma0_limit_exactness():
    # as sigma0 -> 0 the t=0 sample collapses onto the mean; 1e-300 still
    # satisfies the positivity validation while being numerically zero noise
    fp = FlowParams(k=5.0, sigma0=1e-300, h=10)
    rng = make_rng(0, 0)
    mean = np.array([0.7, -0.1])
    x = marginal_sample(mean, fp, 0.0, rng)
    assert np.array_equal(x, mean)


def test_marginal_sample_rejects_bad_t():
    with pytest.raises(ValueError):
        marginal_sample(np.zeros(2), FP, 1.5, make_rng(0, 0))


def test_flowparams_validation():
    with pytest.raises(ValueError):
        FlowParams(k=0.0)
    with pytest.raises(ValueError):
        FlowParams(sigma0=-1.0)
    with pytest.raises(ValueError):
        FlowParams(h=0)


def test_extract_action_scales_by_h():
    v = np.array([3.0, -1.0])
    assert np.array_equal(extract_action(v, 10), v / 10.0)


def test_discrete_xi_dot_matches_per_row_loop():
    rng = make_rng(3, 4)
    B, h, D = 64, 10, 2
    W = np.cumsum(rng.normal(size=(B, h + 1, D)), axis=1)
    T = rng.integers(h, size=B)
    got = discrete_xi_dot(W, T, h)
    want = np.stack([(W[b, T[b] + 1] - W[b, T[b]]) * float(h) for b in range(B)])
    assert got.tobytes() == want.tobytes()
    # a longer window is fine: only states 0..h are read
    assert discrete_xi_dot(np.concatenate([W, W[:, :3]], axis=1), T, h).tobytes() == want.tobytes()


def test_discrete_xi_dot_rejects_bad_nodes_and_short_windows():
    W = np.zeros((3, 11, 2))
    for T in ([0, 10, 2], [-1, 0, 0]):
        with pytest.raises(ValueError, match="outside"):
            discrete_xi_dot(W, np.array(T), 10)
    with pytest.raises(ValueError, match="fewer than h\\+1"):
        discrete_xi_dot(W[:, :10], np.zeros(3, dtype=np.int64), 10)


def test_marginal_sample_per_row_times():
    """One time per row scales each row's noise by its own std, from the
    same standard-normal draws a scalar time would use."""
    B = 32
    t = np.arange(B) / float(B)
    mean = make_rng(8, 0).normal(size=(B, 2))
    x = marginal_sample(mean, FP, t, make_rng(8, 1))
    z = make_rng(8, 1).standard_normal((B, 2))
    for b in range(B):
        std = FP.sigma0 * np.exp(-FP.k * t[b])
        assert np.array_equal(x[b], mean[b] + std * z[b])
    with pytest.raises(ValueError):
        marginal_sample(mean, FP, np.where(np.arange(B) == 5, 1.5, t), make_rng(0, 0))
    with pytest.raises(ValueError):
        marginal_sample(mean, FP, np.full(B, np.nan), make_rng(0, 0))
