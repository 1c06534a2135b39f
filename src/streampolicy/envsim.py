"""Two planar toy environments with a planted mid-episode distribution shift.

Both share a [-5, 5]^2 workspace, a goal, and a fixed latch region
(LATCH_BOX_LO to LATCH_BOX_HI): the first entry into the region sets a sticky
latch flag and translates the goal by a fixed offset. Pre-latch observations
therefore cannot predict the post-latch goal, which is what makes acting on a
stale observation across the latch event costly.

Direct kind: position += action, so the running action sum equals position.
Controller kind: position += c * tanh(action / c) with c = SATURATION, a
saturating actuator that decouples the action-space state from physical space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (ACTION_DIM, ALPHA0_INITIAL_POSITION, ALPHA0_ZERO, OBS_DIM, Trajectory,
                   cumulative_states, make_rng, substreams, STREAM_DEMO, STREAM_INIT)

WORKSPACE_LO = -5.0
WORKSPACE_HI = 5.0
LATCH_SHIFT = np.array([1.5, -1.5])
SUCCESS_DIST = 0.2

# layout boxes: start and goal are sampled per episode, the latch region is
# fixed. Goal box keeps the shifted goal strictly inside the workspace. The
# start box is tight (a home pose with jitter): with the zero-seeded ledger
# convention the accumulated-command state is only recoverable from an
# observation when the episode origin is close to known.
START_BOX = (np.array([-4.05, -4.05]), np.array([-3.75, -3.75]))
# shifted goals stay >= 0.7 from every wall: position clipping at the
# boundary breaks the action-ledger/position correspondence for good
GOAL_BOX = (np.array([1.7, 2.2]), np.array([2.8, 3.3]))
LATCH_BOX_LO = np.array([-1.0, 0.3])
LATCH_BOX_HI = np.array([0.2, 1.5])
# the latch region's bounds as Python floats, for step's scalar test
_LATCH_X_LO, _LATCH_Y_LO = LATCH_BOX_LO.tolist()
_LATCH_X_HI, _LATCH_Y_HI = LATCH_BOX_HI.tolist()
# the controller's per-axis displacement bound c in c * tanh(a / c)
SATURATION = 0.5

EXPERT_GAIN = 0.55
EXPERT_MAX_STEP = 0.35
# noise large enough that demos cover a tube around the canonical path;
# the cloned policy has to recover from its own small overshoots
EXPERT_NOISE = 0.05


KIND_DIRECT = "direct"
KIND_CONTROLLER = "controller"


@dataclass(frozen=True)
class EnvKind:
    """Environment family: the actuator variant. The workspace, latch region
    and saturation are the module's constants."""

    variant: str = KIND_DIRECT

    def __post_init__(self):
        if self.variant not in (KIND_DIRECT, KIND_CONTROLLER):
            raise ValueError(f"unknown variant {self.variant!r}")


class EnvState(NamedTuple):
    """One environment state. A named tuple because the simulated engine
    builds one per step, and a tuple is about three times cheaper to build
    than a frozen dataclass. Never mutated: successive states share arrays,
    and episodes in a streamexec.shared_horizons() scope share states."""

    position: np.ndarray
    goal: np.ndarray
    latch: bool
    step_count: int


def _displacement(kind: EnvKind, action: np.ndarray) -> np.ndarray:
    """Realized displacement of a (B, 2) batch of actions.

    Controller kind passes each action through c * tanh(a / c), bounding the
    displacement by SATURATION per axis; direct kind returns it.
    np.tanh gives each row of a batch the bits it gives that row alone.
    """
    if kind.variant == KIND_CONTROLLER:
        return SATURATION * np.tanh(action / SATURATION)
    return action


def _clip_to_workspace(position: np.ndarray) -> np.ndarray:
    """np.clip of a position (or a batch) to the workspace, without its
    per-call overhead; a position inside the workspace is its own clip."""
    return np.minimum(np.maximum(position, WORKSPACE_LO), WORKSPACE_HI)


def step(kind: EnvKind, state: EnvState, action: np.ndarray) -> EnvState:
    """Apply one action, a (2,) float64 array; returns the successor state.

    The arithmetic is _displacement's and the position update's, operation
    for operation, on Python floats around the one np.tanh: the same IEEE
    float64 divisions, products and sums, so the successor has the bits
    step_rows gives the same row, at a lower per-call cost.
    """
    if kind.variant == KIND_CONTROLLER:
        dx, dy = np.tanh(action / SATURATION).tolist()
        dx, dy = SATURATION * dx, SATURATION * dy
    else:
        dx, dy = action.tolist()
    px, py = state.position.tolist()
    x, y = px + dx, py + dy
    pos = np.array((x, y))
    # the clip runs only when a coordinate left the workspace (or is NaN)
    if not (WORKSPACE_LO <= x <= WORKSPACE_HI and WORKSPACE_LO <= y <= WORKSPACE_HI):
        pos = _clip_to_workspace(pos)
    goal = state.goal
    latch = state.latch
    # on the unclipped x, y: the region lies inside the workspace, so the clip
    # cannot move a point into or out of it, and NaN compares false
    if not latch and _LATCH_X_LO <= x <= _LATCH_X_HI and _LATCH_Y_LO <= y <= _LATCH_Y_HI:
        latch = True
        goal = goal + LATCH_SHIFT
    return EnvState(pos, goal, latch, state.step_count + 1)  # positional: the cheaper call


def observe(state: EnvState) -> np.ndarray:
    """The state's frame: seven raw features, (position, goal, latch flag,
    goal - position), with the bits observe_rows gives its row."""
    # np.concatenate's features, built from one list of floats: cheaper for
    # vectors this short
    pos, goal = state.position.tolist(), state.goal.tolist()
    return np.array(pos + goal + [1.0 if state.latch else 0.0]
                    + [g - p for g, p in zip(goal, pos)], dtype=np.float64)


def success(state: EnvState) -> bool:
    """Latched and strictly within SUCCESS_DIST of the (shifted) goal."""
    if not state.latch:
        return False
    # what np.linalg.norm computes for a real 1-D vector: sqrt(d . d)
    d = state.position - state.goal
    return math.sqrt(float(d.dot(d))) < SUCCESS_DIST


def state_rows(states: list[EnvState]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(positions (B, 2), goals (B, 2), latches (B,)) of B states, the rows
    observe_rows and step_rows take."""
    n = len(states)
    pos = np.array([s.position for s in states], dtype=np.float64).reshape(n, ACTION_DIM)
    goal = np.array([s.goal for s in states], dtype=np.float64).reshape(n, ACTION_DIM)
    return pos, goal, np.array([s.latch for s in states], dtype=bool)


def observe_rows(pos: np.ndarray, goal: np.ndarray, latch: np.ndarray) -> np.ndarray:
    """observe's features for each row of (B, 2) positions and goals and (B,)
    latches, shape (B, 7), with the bits observe gives each row alone."""
    return np.concatenate((pos, goal, latch[:, None], goal - pos), axis=1)


def step_rows(kind: EnvKind, pos: np.ndarray, goal: np.ndarray, latch: np.ndarray,
              action: np.ndarray):
    """step, then success, for each row: B states as (B, 2) positions and
    goals and (B,) latches, each taking its row of the (B, 2) actions.
    Returns the successors' (pos, goal, latch) and their (B,) success flags.

    The displacement, the workspace clip (a position inside is its own clip),
    latch entry and the goal shift are step's elementwise operations, and
    np.vecdot(d, d) is success's d.dot(d) row by row, so every row gets the
    bits a lone step gives it. The step counts are the caller's.
    """
    pos = _clip_to_workspace(pos + _displacement(kind, action))
    enter = ~latch & ((pos >= LATCH_BOX_LO) & (pos <= LATCH_BOX_HI)).all(axis=1)
    if enter.any():
        goal = np.where(enter[:, None], goal + LATCH_SHIFT, goal)
        latch = latch | enter
    d = pos - goal
    return pos, goal, latch, latch & (np.sqrt(np.vecdot(d, d)) < SUCCESS_DIST)


# the start box's and then the goal box's bounds, so one draw of four values
# gives the values, in the order, that one uniform call per box draws
_INIT_LO = np.concatenate((START_BOX[0], GOAL_BOX[0]))
_INIT_SPAN = np.concatenate((START_BOX[1], GOAL_BOX[1])) - _INIT_LO


def make_initial_state(rng: np.random.Generator) -> EnvState:
    # rng.uniform(lo, hi)'s own arithmetic, lo + (hi - lo) * u, without its
    # argument conversion and range checks: about 3 µs a start state
    # against 12-14 µs (timeit)
    u = _INIT_LO + _INIT_SPAN * rng.random(4)
    return EnvState(position=u[:ACTION_DIM], goal=u[ACTION_DIM:], latch=False, step_count=0)


def alpha0_convention(kind: EnvKind) -> str:
    # Direct dynamics make the action-state ledger equal physical position
    # when seeded with the start position; the controller ledger is a pure
    # action accumulator and starts at zero.
    return ALPHA0_INITIAL_POSITION if kind.variant == KIND_DIRECT else ALPHA0_ZERO


def alpha0_for(kind: EnvKind, state: EnvState) -> np.ndarray:
    if alpha0_convention(kind) == ALPHA0_INITIAL_POSITION:
        return state.position.copy()
    return np.zeros(ACTION_DIM)


def env_metadata(kind: EnvKind) -> dict:
    return {
        "variant": kind.variant,
        "saturation": SATURATION if kind.variant == KIND_CONTROLLER else None,
        "latch_region": [LATCH_BOX_LO.tolist(), LATCH_BOX_HI.tolist()],
        "latch_shift": [float(x) for x in LATCH_SHIFT],
        "alpha0": alpha0_convention(kind),
        "obs_dim": OBS_DIM,
    }


class GenerationError(RuntimeError):
    """Demo generation could not collect enough successful episodes."""


# how far the latch waypoint leans toward the episode goal, per axis
_WAYPOINT_GAIN = np.array([0.4, 0.6])
_WAYPOINT_MARGIN = 0.12
_GOAL_MID = 0.5 * (GOAL_BOX[0] + GOAL_BOX[1])
_LATCH_CENTER = (LATCH_BOX_LO + LATCH_BOX_HI) / 2.0


def latch_waypoint(goal: np.ndarray) -> np.ndarray:
    """Goal-dependent interior point of the latch region.

    Anchoring the crossing point to the goal spreads the latch-crossing step
    across horizon phases from episode to episode (a fixed waypoint puts the
    crossing at the same local action index every time), and the map is
    continuous in the observation so a cloned policy reproduces the spread.
    """
    w = _LATCH_CENTER + _WAYPOINT_GAIN * (goal - _GOAL_MID)
    # np.clip's result, without its per-call overhead
    return np.minimum(np.maximum(w, LATCH_BOX_LO + _WAYPOINT_MARGIN), LATCH_BOX_HI - _WAYPOINT_MARGIN)


def _expert_commands(position: np.ndarray, goal: np.ndarray, latch: np.ndarray) -> np.ndarray:
    """The scripted expert's noiseless command for each row of (B, 2)
    positions and goals: head into the latch region, then to the current goal.

    np.vecdot(a, a) is the row-wise a.dot(a), which np.linalg.norm computes
    for one real vector, with the same bits per row.
    """
    target = np.where(latch[:, None], goal, latch_waypoint(goal))
    a = EXPERT_GAIN * (target - position)
    norm = np.sqrt(np.vecdot(a, a))
    over = norm > EXPERT_MAX_STEP
    if over.any():
        a = a * np.divide(EXPERT_MAX_STEP, norm, out=np.ones_like(norm), where=over)[:, None]
    return a


# extra near-zero-action steps recorded after the expert reaches the goal.
# Cloning-window extraction needs a full lookahead of states, so without
# these the data never covers "parked at the goal" and the learned
# velocities there extrapolate into large overshoots.
EXPERT_PARK_STEPS = 12

# most attempts generate_demos rolls out in one lockstep round. A round
# holds about 90 bytes per attempt and step, so a larger step cap than the
# default 120 takes fewer attempts a round: its buffers stay near 3 MB
# whatever --episodes and --step-cap are.
DEMO_BLOCK = 256
_ROUND_STEPS = DEMO_BLOCK * (120 + EXPERT_PARK_STEPS)


def _expert_act(noise: np.ndarray | None):
    """The expert as rollout_rows' action rule: its commands for the running
    rows, read off their observed positions, goals and latches, plus their
    noise[rows, t] unless noise is None."""
    def act(t: int, rows: np.ndarray, features: np.ndarray) -> np.ndarray:
        a = _expert_commands(features[:, :2], features[:, 2:4], features[:, 4] != 0)
        return a if noise is None else a + noise[rows, t]
    return act


def rollout_rows(kind: EnvKind, states: list[EnvState], act, step_cap: int, park_steps: int):
    """Roll one episode from each state in lockstep, one row per episode.

    Each step observes the running rows (observe_rows), asks act(t, rows,
    features) for their (b, 2) raw actions, rows being their indices into
    states and features their (b, 7) observations, and steps them
    (step_rows), so every row gets the bits its lone episode gets if act
    gives it the bits it gets alone. A row stops once it has held success
    for park_steps more steps, at step_cap actions if it has never
    succeeded, or at step step_cap + park_steps. With park_steps 0 that is
    the first success, or else step_cap.

    Returns features (B, T, 7) and actions (B, T, 2), valid in each row's
    first lengths[b] steps, with lengths (B,) and ok (B,), the success of
    each row's last state.
    """
    n, steps = len(states), step_cap + park_steps
    features = np.empty((n, steps, OBS_DIM))
    actions = np.empty((n, steps, ACTION_DIM))
    lengths = np.zeros(n, dtype=np.int64)
    ok = np.zeros(n, dtype=bool)
    rows = np.arange(n)
    pos, goal, latch = state_rows(states)
    park = np.zeros(n, dtype=np.int64)
    for t in range(steps):
        if not rows.size:
            break
        obs = observe_rows(pos, goal, latch)
        features[rows, t] = obs
        a = act(t, rows, obs)
        actions[rows, t] = a
        pos, goal, latch, won = step_rows(kind, pos, goal, latch, a)
        park += won
        if t + 1 == steps:
            stop = np.ones(rows.size, dtype=bool)
        else:
            stop = park > park_steps
            if t + 1 >= step_cap:
                stop |= ~won & (park == 0)
        if stop.any():
            done = rows[stop]
            lengths[done] = t + 1
            ok[done] = won[stop]
            keep = ~stop
            rows, pos, goal, latch, park = rows[keep], pos[keep], goal[keep], latch[keep], park[keep]
    return features, actions, lengths, ok


def rollout_trajectory(kind: EnvKind, state: EnvState, features: np.ndarray, actions: np.ndarray) -> Trajectory:
    """One rollout row as a Trajectory: frame ids and capture times count
    steps from the start state's step_count."""
    ids = np.arange(state.step_count, state.step_count + len(features))
    return Trajectory(features=features.copy(), frame_ids=ids, capture_times=ids.astype(np.float64),
                      actions=actions.copy(),
                      action_states=cumulative_states(actions, alpha0_for(kind, state)))


def generate_demos(kind: EnvKind, n: int, seed: int, *, step_cap: int = 120, noise: float = EXPERT_NOISE) -> list[Trajectory]:
    """Collect n successful expert episodes; failures are resampled.

    Attempt i draws its start state and then its whole noise block, one
    (2,) row per possible step, from make_rng(seed, STREAM_DEMO, i)'s stream,
    which a round takes from substreams. Attempts run in lockstep rounds:
    each round rolls out the attempts still needed, at most DEMO_BLOCK of
    them (fewer above the default step cap), through rollout_rows with the
    expert's commands plus each row's noise and EXPERT_PARK_STEPS park
    steps, and keeps its successes in attempt order, so the demos are the
    ones attempt-by-attempt generation gives, bit for bit.

    Raises ValueError on a step cap below 1 or a negative or non-finite
    noise, and GenerationError after 10 * n attempts, so an unreachable task surfaces as an error
    instead of an infinite loop.
    """
    if step_cap < 1:
        raise ValueError(f"step_cap must be at least 1, got {step_cap}")
    if not (math.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and non-negative, got {noise}")
    steps = step_cap + EXPERT_PARK_STEPS
    per_round = min(DEMO_BLOCK, max(1, _ROUND_STEPS // steps))
    demos: list[Trajectory] = []
    attempts = 0
    while len(demos) < n:
        if attempts >= 10 * n:
            raise GenerationError(f"only {len(demos)}/{n} episodes succeeded after {attempts} attempts")
        block = min(per_round, n - len(demos), 10 * n - attempts)
        states, noises = [], []
        for rng in substreams(seed, STREAM_DEMO, start=attempts, stop=attempts + block):
            states.append(make_initial_state(rng))
            if noise:
                # a Generator fills the block in order: row t holds step t's draws
                noises.append(rng.normal(0.0, noise, size=(steps, ACTION_DIM)))
        attempts += block
        act = _expert_act(np.stack(noises) if noises else None)
        features, actions, lengths, ok = rollout_rows(kind, states, act, step_cap, EXPERT_PARK_STEPS)
        demos.extend(rollout_trajectory(kind, state, features[b, :lengths[b]], actions[b, :lengths[b]])
                     for b, state in enumerate(states) if ok[b])
    return demos


@dataclass
class EnvHandle:
    """An environment instance handed to the executors: family, start state,
    and the episode step cap."""

    kind: EnvKind
    init_state: EnvState
    step_cap: int = 120
    episode_id: int = 0

    def __post_init__(self):
        if self.step_cap < 1:
            raise ValueError(f"step_cap must be at least 1, got {self.step_cap}")


def make_env(kind: EnvKind, seed: int, episode: int = 0, *, step_cap: int = 120) -> EnvHandle:
    rng = make_rng(seed, STREAM_INIT, episode)
    return EnvHandle(kind=kind, init_state=make_initial_state(rng), step_cap=step_cap,
                     episode_id=episode)
