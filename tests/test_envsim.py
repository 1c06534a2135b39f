import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import expert_episode
from streampolicy.core import load_dataset, make_rng, save_dataset
from streampolicy.envsim import (
    EXPERT_PARK_STEPS, GOAL_BOX, LATCH_BOX_HI, LATCH_BOX_LO, LATCH_SHIFT, SATURATION, START_BOX,
    SUCCESS_DIST,
    WORKSPACE_HI, WORKSPACE_LO, EnvKind, GenerationError, KIND_CONTROLLER,
    KIND_DIRECT, EnvHandle, EnvState, _expert_commands, alpha0_for, env_metadata, generate_demos,
    latch_waypoint, make_env, make_initial_state, observe, observe_rows,
    state_rows, step, step_rows, success,
)


def test_step_is_deterministic(ctrl_env, rng):
    state = make_initial_state(rng)
    a = np.array([0.3, -0.2])
    s1 = step(ctrl_env, state, a)
    s2 = step(ctrl_env, state, a)
    assert np.array_equal(s1.position, s2.position)
    assert s1.latch == s2.latch and s1.step_count == s2.step_count


def test_direct_action_state_equals_position(direct_env, rng):
    """With direct dynamics and an in-bounds trajectory, the action-state
    ledger reproduces the physical position bitwise."""
    state = make_initial_state(rng)
    traj, ok = expert_episode(direct_env, state, rng)
    assert ok
    pos = state.position
    for i, a in enumerate(traj.actions):
        assert np.array_equal(traj.action_states[i], pos)
        pos = step(direct_env, _mkstate(pos, state.goal), a).position
    assert np.array_equal(traj.action_states[0], state.position)


def _mkstate(pos, goal):
    from streampolicy.envsim import EnvState
    return EnvState(position=pos, goal=goal, latch=True, step_count=0)


def test_controller_diverges_from_direct(ctrl_env, direct_env):
    from streampolicy.envsim import EnvState
    s = EnvState(position=np.zeros(2), goal=np.array([3.0, 3.0]), latch=True, step_count=0)
    big = np.array([2.0, -2.0])
    pc = step(ctrl_env, s, big).position
    pd = step(direct_env, s, big).position
    assert np.all(np.abs(pc) <= SATURATION + 1e-12)
    assert np.linalg.norm(pd - pc) > 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_latch_fires_once_and_sticks(seed):
    kind = EnvKind(variant=KIND_DIRECT)
    rng = np.random.default_rng(seed)
    state = make_initial_state(rng)
    goal0 = state.goal.copy()
    shifts = 0
    prev_latch = False
    for _ in range(50):
        state = step(kind, state, rng.uniform(-0.6, 0.6, size=2))
        if state.latch and not prev_latch:
            shifts += 1
        else:
            assert state.latch == prev_latch or state.latch
        if prev_latch:
            assert state.latch, "latch must never clear"
        prev_latch = state.latch
    assert shifts <= 1
    expected = goal0 + LATCH_SHIFT if state.latch else goal0
    assert np.array_equal(state.goal, expected)


def test_observe_feature_layout(rng):
    state = make_initial_state(rng)
    f = observe(state)
    assert f.shape == (7,) and f.dtype == np.float64
    assert np.array_equal(f[:2], state.position)
    assert np.array_equal(f[2:4], state.goal)
    assert f[4] == 0.0
    assert np.array_equal(f[5:7], state.goal - state.position)


def test_success_requires_latch(rng):
    from streampolicy.envsim import EnvState
    at_goal = EnvState(position=np.array([2.0, 2.5]), goal=np.array([2.0, 2.5]),
                       latch=False, step_count=5)
    assert not success(at_goal)
    latched = EnvState(position=at_goal.position, goal=at_goal.goal, latch=True, step_count=5)
    assert success(latched)


def test_expert_reaches_goal_both_variants():
    for variant in (KIND_DIRECT, KIND_CONTROLLER):
        kind = EnvKind(variant=variant)
        n_ok = 0
        for ep in range(20):
            rng = make_rng(99, 1, ep)
            traj, ok = expert_episode(kind, make_initial_state(rng), rng)
            n_ok += ok
            traj.validate()
        assert n_ok >= 19, f"{variant}: {n_ok}/20"


def test_expert_parks_after_success(ctrl_env):
    """Successful demos must include near-zero hold actions at the tail so
    cloning windows cover the parked state."""
    rng = make_rng(5, 1, 0)
    traj, ok = expert_episode(ctrl_env, make_initial_state(rng), rng)
    assert ok
    tail = traj.actions[-EXPERT_PARK_STEPS // 2:]
    assert np.all(np.linalg.norm(tail, axis=1) < 0.2)


def test_waypoint_inside_latch_region(ctrl_env, rng):
    for _ in range(50):
        goal = rng.uniform(GOAL_BOX[0], GOAL_BOX[1])
        w = latch_waypoint(goal)
        assert np.all((LATCH_BOX_LO <= w) & (w <= LATCH_BOX_HI))


def test_generate_demos_counts_and_metadata(ctrl_env):
    demos = generate_demos(ctrl_env, 5, seed=123)
    assert len(demos) == 5
    for t in demos:
        t.validate()
        assert np.array_equal(t.action_states[0], np.zeros(2))


def test_generate_demos_raises_when_cap_too_small(ctrl_env):
    with pytest.raises(GenerationError):
        generate_demos(ctrl_env, 3, seed=0, step_cap=4)


def test_make_env_reproducible(ctrl_env):
    e1 = make_env(ctrl_env, 42, episode=7)
    e2 = make_env(ctrl_env, 42, episode=7)
    e3 = make_env(ctrl_env, 42, episode=8)
    assert np.array_equal(e1.init_state.position, e2.init_state.position)
    assert np.array_equal(e1.init_state.goal, e2.init_state.goal)
    assert not np.array_equal(e1.init_state.goal, e3.init_state.goal)


def test_start_and_goal_boxes_inside_workspace(rng):
    for _ in range(100):
        s = make_initial_state(rng)
        assert np.all(s.position >= WORKSPACE_LO) and np.all(s.position <= WORKSPACE_HI)
        shifted = s.goal + LATCH_SHIFT
        # the post-latch target must keep a success ball clear of the walls,
        # otherwise position clipping corrupts the action ledger
        assert np.all(shifted >= WORKSPACE_LO + SUCCESS_DIST)
        assert np.all(shifted <= WORKSPACE_HI - SUCCESS_DIST)


def test_expert_action_zero_noise_is_deterministic(ctrl_env, rng):
    state = make_initial_state(rng)
    a1 = _expert_commands(state.position[None], state.goal[None], np.array([state.latch]))[0]
    a2 = _expert_commands(state.position[None], state.goal[None], np.array([state.latch]))[0]
    assert np.array_equal(a1, a2)


def test_alpha0_conventions(ctrl_env, direct_env, rng):
    state = make_initial_state(rng)
    assert np.array_equal(alpha0_for(ctrl_env, state), np.zeros(2))
    assert np.array_equal(alpha0_for(direct_env, state), state.position)


@pytest.mark.parametrize("cap", [0, -3])
def test_step_cap_below_one_is_rejected(ctrl_env, cap):
    with pytest.raises(ValueError, match="step_cap"):
        make_env(ctrl_env, 0, step_cap=cap)
    state = make_env(ctrl_env, 0).init_state
    with pytest.raises(ValueError, match="step_cap"):
        EnvHandle(kind=ctrl_env, init_state=state, step_cap=cap)


# sha256 of save_dataset on the small_demos recipe (40 controller demos, seed
# 21): pins demo generation and the dataset encoding together, byte for byte
SMALL_DEMOS_SHA256 = "408543988312e1c753964b46934c194901ee4ac5c778cc7f37a31a656866d4df"


def test_saved_demos_are_byte_identical_and_reload_to_the_same_bytes(ctrl_env, small_demos, tmp_path):
    path = tmp_path / "demos.bin"
    save_dataset(path, small_demos, dim=2, env_meta=env_metadata(ctrl_env), seed=21)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SMALL_DEMOS_SHA256
    loaded, header = load_dataset(path)
    again = tmp_path / "again.bin"
    save_dataset(again, loaded, dim=header["dim"], env_meta=header["env"], seed=header["seed"])
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("variant", [KIND_DIRECT, KIND_CONTROLLER])
def test_step_rows_give_each_row_the_bits_of_a_lone_step(variant):
    """step_rows and observe_rows on a batch equal step, success and observe
    row by row, bit for bit: rows that leave the workspace, enter the latch
    region, stay latched, and land on either side of the success radius."""
    kind = EnvKind(variant=variant)
    rng = make_rng(12, 3, 0)
    n = 400
    goals = rng.uniform(-4.0, 4.0, size=(n, 2))
    positions = np.where(rng.random((n, 1)) < 0.5, goals + rng.normal(scale=0.2, size=(n, 2)),
                         rng.uniform(-5.0, 5.0, size=(n, 2)))
    states = [EnvState(positions[b], goals[b], bool(rng.random() < 0.5), b) for b in range(n)]
    actions = rng.normal(scale=0.6, size=(n, 2))
    pos, goal, latch = state_rows(states)
    feats = observe_rows(pos, goal, latch)
    new_pos, new_goal, new_latch, won = step_rows(kind, pos, goal, latch, actions)
    for b, state in enumerate(states):
        assert feats[b].tobytes() == observe(state).tobytes(), b
        want = step(kind, state, actions[b])
        assert new_pos[b].tobytes() == want.position.tobytes(), b
        assert new_goal[b].tobytes() == want.goal.tobytes(), b
        assert (bool(new_latch[b]), bool(won[b])) == (want.latch, success(want)), b
    assert 0 < won.sum() < n and 0 < (new_latch & ~latch).sum()
    assert ((pos + actions < WORKSPACE_LO) | (pos + actions > WORKSPACE_HI)).any()


_LO_X, _LO_Y = LATCH_BOX_LO.tolist()
_HI_X, _HI_Y = LATCH_BOX_HI.tolist()
_MID_X, _MID_Y = ((LATCH_BOX_LO + LATCH_BOX_HI) / 2).tolist()
# (position, action, latched after the step or None): a zero action leaves
# the position where it is on both variants
_LATCH_EDGES = [
    *(((x, _MID_Y), (0.0, 0.0), True) for x in (_LO_X, _HI_X)),
    *(((_MID_X, y), (0.0, 0.0), True) for y in (_LO_Y, _HI_Y)),
    ((_LO_X, _LO_Y), (0.0, 0.0), True),
    ((_HI_X, _HI_Y), (0.0, 0.0), True),
    ((_MID_X, _MID_Y), (0.0, 0.0), True),
    # one ulp outside each bound
    ((np.nextafter(_LO_X, -np.inf), _MID_Y), (0.0, 0.0), False),
    ((np.nextafter(_HI_X, np.inf), _MID_Y), (0.0, 0.0), False),
    ((_MID_X, np.nextafter(_LO_Y, -np.inf)), (0.0, 0.0), False),
    ((_MID_X, np.nextafter(_HI_Y, np.inf)), (0.0, 0.0), False),
    # stepping onto a bound
    ((_LO_X - 0.25, _MID_Y), (0.25, 0.0), None),
    ((_MID_X, _HI_Y + 0.25), (0.0, -0.25), None),
    # beyond a workspace wall, so the clip runs
    ((4.9, _MID_Y), (0.5, 0.0), None),
    ((_MID_X, _MID_Y), (0.0, 1e3), None),
    ((-4.9, -4.9), (-1.0, -1.0), None),
    ((_MID_X, 4.8), (-7.0, 0.3), None),
    # non-finite actions
    ((_LO_X - 0.3, _MID_Y), (np.inf, 0.0), None),
    ((_HI_X + 0.3, _MID_Y), (-np.inf, 0.0), None),
    ((_MID_X, _LO_Y - 0.3), (0.0, np.inf), None),
    ((_MID_X, _HI_Y + 0.3), (0.0, -np.inf), None),
    ((_MID_X, _MID_Y), (np.nan, 0.0), False),
    ((_MID_X, _MID_Y), (0.0, np.nan), False),
    ((_LO_X - 0.3, _MID_Y), (np.nan, np.inf), False),
]


@pytest.mark.parametrize("variant", [KIND_CONTROLLER, KIND_DIRECT])
def test_latch_entry_at_its_edges_is_the_same_on_both_paths(variant):
    """step and step_rows give the same position, goal, latch and success
    bits for positions on each bound of the latch region, one ulp outside
    each bound, beyond a workspace wall, and after NaN and infinite
    actions; a position on a bound latches and one an ulp outside does not."""
    kind = EnvKind(variant=variant)
    goal = np.array([_MID_X, _MID_Y]) - LATCH_SHIFT  # the centre is the shifted goal
    states = [EnvState(np.array(p, dtype=np.float64), goal, False, 0) for p, _, _ in _LATCH_EDGES]
    actions = np.array([a for _, a, _ in _LATCH_EDGES], dtype=np.float64)
    pos, goals, latch = state_rows(states)
    new_pos, new_goal, new_latch, won = step_rows(kind, pos, goals, latch, actions)
    for b, (state, (_, _, latched)) in enumerate(zip(states, _LATCH_EDGES)):
        want = step(kind, state, actions[b])
        assert new_pos[b].tobytes() == want.position.tobytes(), b
        assert new_goal[b].tobytes() == want.goal.tobytes(), b
        assert (bool(new_latch[b]), bool(won[b])) == (want.latch, success(want)), b
        if latched is not None:
            assert want.latch is latched, b
    assert won.any() and not won.all()
