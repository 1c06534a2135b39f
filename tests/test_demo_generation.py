"""Lockstep demo generation against the attempt-by-attempt reference.

generate_demos rolls out a round of attempts as rows of one array. The
reference below is the per-step loop it replaced: one episode at a time,
built from envsim.observe, step and success and a single-state expert that
draws its noise step by step. Every comparison is byte for byte.
"""

import math

import numpy as np
import pytest

from conftest import expert_episode
from streampolicy import envsim
from streampolicy.cli import main
from streampolicy.core import STREAM_DEMO, Trajectory, make_rng, substreams
from streampolicy.envsim import (
    EXPERT_GAIN, EXPERT_MAX_STEP, EXPERT_NOISE, EXPERT_PARK_STEPS, GOAL_BOX, START_BOX, EnvKind,
    EnvState, GenerationError, KIND_CONTROLLER, KIND_DIRECT, alpha0_for, generate_demos,
    latch_waypoint, observe, step, success,
)

KINDS = {"controller": EnvKind(variant=KIND_CONTROLLER), "direct": EnvKind(variant=KIND_DIRECT)}


# ---------------------------------------------------------------------------
# the reference: one episode at a time, one step at a time
# ---------------------------------------------------------------------------


def _ref_initial_state(rng):
    position = rng.uniform(START_BOX[0], START_BOX[1])
    goal = rng.uniform(GOAL_BOX[0], GOAL_BOX[1])
    return EnvState(position=position, goal=goal, latch=False, step_count=0)


def _ref_expert_action(kind, state, rng, noise):
    target = state.goal if state.latch else latch_waypoint(state.goal)
    a = EXPERT_GAIN * (target - state.position)
    norm = math.sqrt(float(a.dot(a)))
    if norm > EXPERT_MAX_STEP:
        a = a * (EXPERT_MAX_STEP / norm)
    if rng is not None and noise > 0:
        a = a + rng.normal(0.0, noise, size=a.shape)
    return a


def _ref_episode(kind, state, rng, step_cap=120, noise=EXPERT_NOISE):
    frames, actions = [], []
    alpha0 = alpha0_for(kind, state)
    park = 0
    for _ in range(step_cap + EXPERT_PARK_STEPS):
        frames.append(observe(state))
        a = _ref_expert_action(kind, state, rng, noise)
        actions.append(a)
        state = step(kind, state, a)
        if success(state):
            park += 1
            if park > EXPERT_PARK_STEPS:
                break
        elif park == 0 and len(actions) >= step_cap:
            break
    act = np.asarray(actions)
    return Trajectory(features=np.array(frames), actions=act, alpha0=alpha0), success(state)


def _ref_demos(kind, n, seed, step_cap=120, noise=EXPERT_NOISE):
    demos, attempts = [], 0
    while len(demos) < n:
        if attempts >= 10 * n:
            raise GenerationError(f"only {len(demos)}/{n} episodes succeeded after {attempts} attempts")
        rng = make_rng(seed, STREAM_DEMO, attempts)
        traj, ok = _ref_episode(kind, _ref_initial_state(rng), rng, step_cap, noise)
        attempts += 1
        if ok:
            demos.append(traj)
    return demos


def _assert_same_trajectory(got, want):
    for name in ("features", "actions", "alpha0", "action_states"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g.dtype, g.shape) == (w.dtype, w.shape) and g.tobytes() == w.tobytes(), name


def _assert_same_demos(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _assert_same_trajectory(g, w)


# ---------------------------------------------------------------------------
# lockstep == reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", sorted(KINDS))
@pytest.mark.parametrize("n, seed", [(5, 123), (40, 21), (17, 3)])
def test_lockstep_demos_equal_the_reference(variant, n, seed):
    kind = KINDS[variant]
    _assert_same_demos(generate_demos(kind, n, seed), _ref_demos(kind, n, seed))


@pytest.mark.parametrize("variant", sorted(KINDS))
@pytest.mark.parametrize("noise", [0.0, 0.2])
def test_lockstep_demos_equal_the_reference_at_other_noise(variant, noise):
    kind = KINDS[variant]
    _assert_same_demos(generate_demos(kind, 12, 8, noise=noise), _ref_demos(kind, 12, 8, noise=noise))


@pytest.mark.parametrize("variant, step_cap", [("controller", 32), ("direct", 28)])
def test_lockstep_demos_equal_the_reference_when_some_attempts_fail(variant, step_cap, monkeypatch):
    """A step cap that fails some attempts: the failures are dropped and
    resampled in the reference's order."""
    kind = KINDS[variant]
    want = _ref_demos(kind, 12, 4, step_cap=step_cap)
    streams = _count_demo_streams(monkeypatch)
    got = generate_demos(kind, 12, 4, step_cap=step_cap)
    assert len(streams) > 12, "the cap should fail some attempts"
    _assert_same_demos(got, want)


@pytest.mark.parametrize("block", [1, 3, 7])
def test_lockstep_demos_equal_the_reference_across_rounds(block, monkeypatch):
    """More demos than one round holds, with a step cap that fails some
    attempts: later rounds refill the failures in attempt order."""
    kind = KINDS["controller"]
    want = _ref_demos(kind, 10, 4, step_cap=32)
    monkeypatch.setattr(envsim, "DEMO_BLOCK", block)
    streams = _count_demo_streams(monkeypatch)
    got = generate_demos(kind, 10, 4, step_cap=32)
    assert streams == [(STREAM_DEMO, i) for i in range(len(streams))]
    assert len(streams) > 10, "the cap should fail some attempts"
    _assert_same_demos(got, want)


def test_lockstep_raises_like_the_reference():
    kind = KINDS["controller"]
    with pytest.raises(GenerationError) as want:
        _ref_demos(kind, 6, 0, step_cap=26)
    with pytest.raises(GenerationError) as got:
        generate_demos(kind, 6, 0, step_cap=26)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("variant", sorted(KINDS))
@pytest.mark.parametrize("noise", [0.0, EXPERT_NOISE])
def test_expert_episode_equals_the_reference(variant, noise):
    """The lockstep rollout with the expert's action rule, on a batch of one."""
    kind = KINDS[variant]
    for attempt in range(6):
        rng = make_rng(31, STREAM_DEMO, attempt)
        ref_rng = make_rng(31, STREAM_DEMO, attempt)
        state = envsim.make_initial_state(rng)
        want, want_ok = _ref_episode(kind, _ref_initial_state(ref_rng), ref_rng, noise=noise)
        got, got_ok = expert_episode(kind, state, rng, noise=noise)
        assert got_ok is want_ok
        _assert_same_trajectory(got, want)


def test_expert_episode_from_a_latched_mid_episode_state():
    """A start state that is already latched and counted keeps its latch."""
    kind = KINDS["controller"]
    state = EnvState(position=np.array([-0.5, 0.9]), goal=np.array([3.2, 2.0]), latch=True, step_count=17)
    got, got_ok = expert_episode(kind, state, make_rng(2, 9), step_cap=40)
    want, want_ok = _ref_episode(kind, state, make_rng(2, 9), step_cap=40)
    assert got_ok is want_ok
    assert got.features[0, 4] == 1.0
    _assert_same_trajectory(got, want)


def test_expert_action_equals_the_reference():
    rng = np.random.default_rng(12)
    for variant, kind in KINDS.items():
        for _ in range(200):
            state = EnvState(rng.uniform(-5, 5, size=2), rng.uniform(-5, 5, size=2),
                             bool(rng.integers(2)), 0)
            got = envsim._expert_commands(state.position[None], state.goal[None],
                                          np.array([state.latch]))[0]
            assert got.shape == (2,)
            assert got.tobytes() == _ref_expert_action(kind, state, None, 0.0).tobytes()


def test_start_state_matches_one_draw_per_box():
    """lo + span * random(4) gives, byte for byte, the two uniform calls'
    values: 1,200 attempts on each of five seeds."""
    for seed in (7, 0, 11, 2**32 + 1, 8101):
        streams = substreams(seed, STREAM_DEMO, start=0, stop=1200)
        for attempt, rng in enumerate(streams):
            got = envsim.make_initial_state(rng)
            want = _ref_initial_state(make_rng(seed, STREAM_DEMO, attempt))
            assert got.position.tobytes() == want.position.tobytes(), (seed, attempt)
            assert got.goal.tobytes() == want.goal.tobytes(), (seed, attempt)


# ---------------------------------------------------------------------------
# the kernels the rollout relies on for its bits
# ---------------------------------------------------------------------------


def test_row_dot_kernel_matches_the_single_vector_dot():
    rng = np.random.default_rng(0)
    rows = rng.normal(0.0, 1.0, size=(4000, 2)) * rng.uniform(1e-3, 10.0, size=(4000, 1))
    want = [float(r.dot(r)) for r in rows]
    assert np.vecdot(rows, rows).tolist() == want
    picked = np.sort(rng.choice(len(rows), 333, replace=False))
    assert np.vecdot(rows[picked], rows[picked]).tolist() == [want[i] for i in picked]


def test_tanh_kernel_gives_each_row_its_own_bits():
    rng = np.random.default_rng(1)
    c = envsim.SATURATION
    rows = rng.normal(0.0, 0.4, size=(4000, 2)) / c
    batched = np.tanh(rows)
    for b in (1, 2, 3, 5, 8, 17, 4000):
        assert np.tanh(rows[:b]).tobytes() == batched[:b].tobytes()
    assert all(np.tanh(r).tobytes() == batched[i].tobytes() for i, r in enumerate(rows))


def test_noise_block_matches_per_step_draws():
    a, b = make_rng(3, STREAM_DEMO, 0), make_rng(3, STREAM_DEMO, 0)
    block = a.normal(0.0, EXPERT_NOISE, size=(132, 2))
    steps = np.array([b.normal(0.0, EXPERT_NOISE, size=2) for _ in range(132)])
    assert block.tobytes() == steps.tobytes()


# ---------------------------------------------------------------------------
# attempt accounting
# ---------------------------------------------------------------------------


def _count_demo_streams(monkeypatch):
    """Record the substream, (STREAM_DEMO, i), of every attempt generation
    draws: the indices envsim's substreams yield generators for."""
    streams = []
    real = envsim.substreams

    def counting(seed, *prefix, start, stop):
        for i, rng in zip(range(start, stop), real(seed, *prefix, start=start, stop=stop)):
            if prefix == (STREAM_DEMO,):
                streams.append((*prefix, i))
            yield rng

    monkeypatch.setattr(envsim, "substreams", counting)
    return streams


@pytest.mark.parametrize("block", [2, 7, 256])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_generation_error_after_exactly_ten_n_attempts(monkeypatch, n, block):
    monkeypatch.setattr(envsim, "DEMO_BLOCK", block)
    streams = _count_demo_streams(monkeypatch)
    with pytest.raises(GenerationError, match=f"after {10 * n} attempts"):
        generate_demos(KINDS["controller"], n, seed=0, step_cap=4)
    assert streams == [(STREAM_DEMO, i) for i in range(10 * n)]


def test_rounds_shrink_above_the_default_step_cap(monkeypatch):
    """A round holds DEMO_BLOCK attempts at the default cap and fewer at a
    larger one, so its buffers do not grow with the cap."""
    rounds = []
    real = envsim.rollout_rows

    def recording(kind, states, *args):
        rounds.append(len(states))
        return real(kind, states, *args)

    monkeypatch.setattr(envsim, "rollout_rows", recording)
    kind = KINDS["direct"]
    generate_demos(kind, 300, 1)
    assert rounds[:2] == [envsim.DEMO_BLOCK, 300 - envsim.DEMO_BLOCK]
    rounds.clear()
    step_cap = 4 * (120 + EXPERT_PARK_STEPS) - EXPERT_PARK_STEPS
    _assert_same_demos(generate_demos(kind, 150, 1, step_cap=step_cap), _ref_demos(kind, 150, 1, step_cap=step_cap))
    quarter = envsim.DEMO_BLOCK // 4
    assert rounds[:3] == [quarter, quarter, 150 - 2 * quarter]


# ---------------------------------------------------------------------------
# noise validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("noise", [-0.5, -1e-12, float("nan"), float("inf"), float("-inf")])
def test_bad_noise_is_rejected(noise):
    with pytest.raises(ValueError, match="noise must be finite and non-negative"):
        generate_demos(KINDS["controller"], 2, seed=0, noise=noise)


@pytest.mark.parametrize("step_cap", [0, -12, -40])
def test_step_cap_below_one_is_rejected(step_cap):
    with pytest.raises(ValueError, match="step_cap must be at least 1"):
        generate_demos(KINDS["controller"], 2, seed=0, step_cap=step_cap)


@pytest.mark.parametrize("noise", ["-0.5", "nan", "inf"])
def test_gen_data_bad_noise_exits_2(tmp_path, capsys, noise):
    out = tmp_path / "d" / "demos.bin"
    rc = main(["gen-data", "--env", "controller", "--episodes", "2", "--noise", noise, "--out", str(out)])
    assert rc == 2
    assert "noise must be finite and non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_zero_noise_is_valid(tmp_path):
    out = tmp_path / "demos.bin"
    assert main(["gen-data", "--env", "direct", "--episodes", "2", "--noise", "0", "--out", str(out)]) == 0
    assert out.exists()
