import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streampolicy.core import DimensionMismatchError
from streampolicy.normkit import (
    NormStats, denormalize, fit_stats, normalize,
    normalize_legacy,
)

STATS = NormStats(q_min=np.array([-0.5, -2.0]), q_max=np.array([1.5, 0.25]),
                  scale=np.array([2.0, 2.25]))


def _ulp_diff(a, b, *terms):
    # ulp at the largest participating magnitude: under cancellation the
    # result's own spacing shrinks but the rounding errors do not, so the
    # 4-ulp bound is only a theorem at the scale of the inputs
    ref = np.maximum(np.abs(a), np.abs(b))
    for t in terms:
        ref = np.maximum(ref, np.abs(t))
    return np.abs(a - b) / np.spacing(ref)


@given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=2),
       st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=2))
@settings(max_examples=200, deadline=None)
def test_additivity_property(x, a):
    x, a = np.array(x), np.array(a)
    nx, na = normalize(x, STATS), normalize(a, STATS)
    lhs = nx + na
    rhs = normalize(x + a, STATS)
    assert np.all(_ulp_diff(lhs, rhs, nx, na) <= 4.0)


def test_legacy_breaks_additivity_on_asymmetric_range():
    # any nonzero q_min injects one offset per summed term
    stats = NormStats(q_min=np.array([0.0, -3.0]), q_max=np.array([4.0, 1.0]),
                      scale=np.array([4.0, 4.0]))
    x = np.array([1.0, 0.5])
    a = np.array([0.5, -1.0])
    lhs = normalize_legacy(x, stats) + normalize_legacy(a, stats)
    rhs = normalize_legacy(x + a, stats)
    assert np.max(np.abs(lhs - rhs)) > 0.1


@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=2))
@settings(max_examples=100, deadline=None)
def test_roundtrip(v):
    v = np.array(v)
    assert np.allclose(denormalize(normalize(v, STATS), STATS), v, atol=1e-12)


def test_fit_stats_covers_actions_and_states(small_demos):
    stats = fit_stats(small_demos)
    for traj in small_demos:
        for block in (traj.actions, traj.action_states):
            assert np.all(block >= stats.q_min - 1e-12)
            assert np.all(block <= stats.q_max + 1e-12)
    # shared scale: actions and running sums divide by one number per dim
    assert stats.scale.shape == (2,)
    assert np.all(stats.scale > 0)


def test_fit_stats_degenerate_dim_gets_unit_scale():
    from streampolicy.core import Trajectory, cumulative_states
    actions = np.array([[0.0, 1.0], [0.0, -1.0]])
    t = Trajectory(features=np.zeros((2, 7)), frame_ids=np.arange(2),
                   capture_times=np.arange(2.0), actions=actions,
                   action_states=cumulative_states(actions, np.zeros(2)))
    stats = fit_stats([t])
    assert stats.scale[0] == 1.0


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        normalize(np.zeros(3), STATS)


def test_fit_stats_empty_raises():
    with pytest.raises(ValueError):
        fit_stats([])
