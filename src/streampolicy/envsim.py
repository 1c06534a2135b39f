"""Two planar toy environments with a planted mid-episode distribution shift.

Both share a [-5, 5]^2 workspace, a goal, and a latch region: the first entry
into the region sets a sticky latch flag and translates the goal by a fixed
offset. Pre-latch observations therefore cannot predict the post-latch goal,
which is what makes acting on a stale observation across the latch event
costly.

Direct kind: position += action, so the running action sum equals position.
Controller kind: position += c * tanh(action / c), a saturating actuator that
decouples the action-space state from physical space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import ACTION_DIM, OBS_DIM, Observation, Trajectory, cumulative_states, make_rng, STREAM_DEMO, STREAM_INIT

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

EXPERT_GAIN = 0.55
EXPERT_MAX_STEP = 0.35
# noise large enough that demos cover a tube around the canonical path;
# the cloned policy has to recover from its own small overshoots
EXPERT_NOISE = 0.05


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray
    # (lo, hi) of each axis as Python floats, so contains builds no arrays
    _axes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_axes", tuple(zip(np.asarray(self.lo, dtype=np.float64).tolist(),
                                                    np.asarray(self.hi, dtype=np.float64).tolist())))

    def contains(self, p: np.ndarray) -> bool:
        for (lo, hi), v in zip(self._axes, p.tolist()):
            if not lo <= v <= hi:  # also false for NaN
                return False
        return True

    @property
    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0


DEFAULT_LATCH_REGION = Box(lo=LATCH_BOX_LO, hi=LATCH_BOX_HI)

KIND_DIRECT = "direct"
KIND_CONTROLLER = "controller"


@dataclass(frozen=True)
class EnvKind:
    """Environment family: actuator variant plus the latch geometry."""

    variant: str = KIND_DIRECT
    saturation: float = 0.5
    latch_region: Box = DEFAULT_LATCH_REGION

    def __post_init__(self):
        if self.variant not in (KIND_DIRECT, KIND_CONTROLLER):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == KIND_CONTROLLER and not self.saturation > 0:
            raise ValueError("saturation must be positive")


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
    """Realized displacement of an action, or of a (B, 2) batch of them.

    Controller kind passes the action through c * tanh(a / c), bounding the
    displacement by the saturation constant per axis; direct kind returns it.
    np.tanh gives each row of a batch the bits it gives that row alone.
    """
    if kind.variant == KIND_CONTROLLER:
        c = kind.saturation
        return c * np.tanh(action / c)
    return action


def _clip_to_workspace(position: np.ndarray) -> np.ndarray:
    """np.clip of a position (or a batch) to the workspace, without its
    per-call overhead; a position inside the workspace is its own clip."""
    return np.minimum(np.maximum(position, WORKSPACE_LO), WORKSPACE_HI)


def step(kind: EnvKind, state: EnvState, action: np.ndarray) -> EnvState:
    """Apply one action; returns the successor state."""
    pos = state.position + _displacement(kind, np.asarray(action, dtype=np.float64))
    # the clip runs only when a coordinate left the workspace (or is NaN)
    for v in pos.tolist():
        if not WORKSPACE_LO <= v <= WORKSPACE_HI:
            pos = _clip_to_workspace(pos)
            break
    goal = state.goal
    latch = state.latch
    if not latch and kind.latch_region.contains(pos):
        latch = True
        goal = goal + LATCH_SHIFT
    return EnvState(pos, goal, latch, state.step_count + 1)  # positional: the cheaper call


def observe(state: EnvState, capture_time: float | None = None) -> Observation:
    """Seven raw features: position, goal, latch flag, goal - position."""
    # np.concatenate's features, built from one list of floats: cheaper for
    # vectors this short
    pos, goal = state.position.tolist(), state.goal.tolist()
    feats = np.array(pos + goal + [1.0 if state.latch else 0.0]
                     + [g - p for g, p in zip(goal, pos)], dtype=np.float64)
    t = float(state.step_count) if capture_time is None else float(capture_time)
    return Observation(feats, state.step_count, t)  # positional: the cheaper call


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
    box = kind.latch_region
    enter = ~latch & ((pos >= box.lo) & (pos <= box.hi)).all(axis=1)
    if enter.any():
        goal = np.where(enter[:, None], goal + LATCH_SHIFT, goal)
        latch = latch | enter
    d = pos - goal
    return pos, goal, latch, latch & (np.sqrt(np.vecdot(d, d)) < SUCCESS_DIST)


# the start box's and then the goal box's bounds, so one uniform call draws
# the values, in the order, that one call per box draws
_INIT_LO = np.concatenate((START_BOX[0], GOAL_BOX[0]))
_INIT_HI = np.concatenate((START_BOX[1], GOAL_BOX[1]))


def make_initial_state(rng: np.random.Generator) -> EnvState:
    u = rng.uniform(_INIT_LO, _INIT_HI)
    return EnvState(position=u[:ACTION_DIM], goal=u[ACTION_DIM:], latch=False, step_count=0)


def alpha0_convention(kind: EnvKind) -> str:
    # Direct dynamics make the action-state ledger equal physical position
    # when seeded with the start position; the controller ledger is a pure
    # action accumulator and starts at zero.
    return "initial_position" if kind.variant == KIND_DIRECT else "zero"


def alpha0_for(kind: EnvKind, state: EnvState) -> np.ndarray:
    if alpha0_convention(kind) == "initial_position":
        return state.position.copy()
    return np.zeros(ACTION_DIM)


def env_metadata(kind: EnvKind) -> dict:
    return {
        "variant": kind.variant,
        "saturation": kind.saturation if kind.variant == KIND_CONTROLLER else None,
        "latch_region": [list(map(float, kind.latch_region.lo)), list(map(float, kind.latch_region.hi))],
        "latch_shift": [float(x) for x in LATCH_SHIFT],
        "alpha0": alpha0_convention(kind),
        "obs_dim": 7,
    }


class GenerationError(RuntimeError):
    """Demo generation could not collect enough successful episodes."""


# how far the latch waypoint leans toward the episode goal, per axis
_WAYPOINT_GAIN = np.array([0.4, 0.6])
_WAYPOINT_MARGIN = 0.12
_GOAL_MID = 0.5 * (GOAL_BOX[0] + GOAL_BOX[1])


def latch_waypoint(kind: EnvKind, goal: np.ndarray) -> np.ndarray:
    """Goal-dependent interior point of the latch region.

    Anchoring the crossing point to the goal spreads the latch-crossing step
    across horizon phases from episode to episode (a fixed waypoint puts the
    crossing at the same local action index every time), and the map is
    continuous in the observation so a cloned policy reproduces the spread.
    """
    box = kind.latch_region
    w = box.center + _WAYPOINT_GAIN * (goal - _GOAL_MID)
    # np.clip's result, without its per-call overhead
    return np.minimum(np.maximum(w, box.lo + _WAYPOINT_MARGIN), box.hi - _WAYPOINT_MARGIN)


def _expert_commands(kind: EnvKind, position: np.ndarray, goal: np.ndarray, latch: np.ndarray) -> np.ndarray:
    """The noiseless expert command for each row of (B, 2) positions and goals.

    np.vecdot(a, a) is the row-wise a.dot(a), which np.linalg.norm computes
    for one real vector, with the same bits per row.
    """
    target = np.where(latch[:, None], goal, latch_waypoint(kind, goal))
    a = EXPERT_GAIN * (target - position)
    norm = np.sqrt(np.vecdot(a, a))
    over = norm > EXPERT_MAX_STEP
    if over.any():
        a = a * np.divide(EXPERT_MAX_STEP, norm, out=np.ones_like(norm), where=over)[:, None]
    return a


def expert_action(kind: EnvKind, state: EnvState, rng: np.random.Generator | None = None, noise: float = EXPERT_NOISE) -> np.ndarray:
    """Scripted expert: head into the latch region, then to the current goal."""
    a = _expert_commands(kind, state.position[None], state.goal[None], np.array([state.latch]))[0]
    if rng is not None and noise > 0:
        a = a + rng.normal(0.0, noise, size=a.shape)
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


def _check_expert_args(step_cap: int, noise: float) -> None:
    if step_cap < 1:
        raise ValueError(f"step_cap must be at least 1, got {step_cap}")
    if not (math.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and non-negative, got {noise}")


def _noise_block(rng: np.random.Generator | None, noise: float, step_cap: int) -> np.ndarray | None:
    """An episode's expert noise, one row per possible step, drawn up front.
    A Generator fills the block in order, so row i holds the draws that
    step i would make on its own. None when there is no noise to add."""
    if rng is None or noise == 0:
        return None
    return rng.normal(0.0, noise, size=(step_cap + EXPERT_PARK_STEPS, ACTION_DIM))


def _rollout(kind: EnvKind, states: list[EnvState], noise: np.ndarray | None, step_cap: int):
    """Roll the expert from each state in lockstep, one row per episode.

    noise is None or (B, step_cap + EXPERT_PARK_STEPS, 2). Each step runs
    observe_rows, the expert and step_rows over the b rows still running,
    so every row gets the bits a lone episode gets. A row stops as a lone
    episode does: once it has held success for EXPERT_PARK_STEPS more steps,
    at step_cap actions if it has never succeeded, or at the last step.

    Returns features (B, T, 7) and actions (B, T, 2), valid in each row's
    first lengths[b] steps, with lengths (B,) and ok (B,), the success of
    each row's last state.
    """
    n, steps = len(states), step_cap + EXPERT_PARK_STEPS
    features = np.empty((n, steps, OBS_DIM))
    actions = np.empty((n, steps, ACTION_DIM))
    lengths = np.zeros(n, dtype=np.int64)
    ok = np.zeros(n, dtype=bool)
    rows = np.arange(n)
    pos, goal, latch = state_rows(states)
    park = np.zeros(n, dtype=np.int64)
    for t in range(steps):
        features[rows, t] = observe_rows(pos, goal, latch)
        a = _expert_commands(kind, pos, goal, latch)
        if noise is not None:
            a = a + noise[rows, t]
        actions[rows, t] = a
        pos, goal, latch, won = step_rows(kind, pos, goal, latch, a)
        park += won
        if t + 1 == steps:
            stop = np.ones(rows.size, dtype=bool)
        else:
            stop = park > EXPERT_PARK_STEPS
            if t + 1 >= step_cap:
                stop |= ~won & (park == 0)
        if stop.any():
            done = rows[stop]
            lengths[done] = t + 1
            ok[done] = won[stop]
            keep = ~stop
            rows, pos, goal, latch, park = rows[keep], pos[keep], goal[keep], latch[keep], park[keep]
            if not rows.size:
                break
    return features, actions, lengths, ok


def rollout_trajectory(kind: EnvKind, state: EnvState, features: np.ndarray, actions: np.ndarray) -> Trajectory:
    """One rollout row as a Trajectory: frame ids and capture times count
    steps from the start state's step_count."""
    features, actions = features.copy(), actions.copy()
    ids = range(state.step_count, state.step_count + len(features))
    observations = list(map(Observation._make, zip(features, ids, map(float, ids))))
    return Trajectory(observations=observations, actions=actions,
                      action_states=cumulative_states(actions, alpha0_for(kind, state)))


def run_expert_episode(kind: EnvKind, state: EnvState, rng: np.random.Generator, *, step_cap: int = 120, noise: float = EXPERT_NOISE):
    """Roll the expert until success or the step cap; returns (Trajectory, ok).

    Successful episodes are extended by EXPERT_PARK_STEPS of hold-position
    actions so the demonstrations cover the parked end state. This is the
    lockstep rollout of generate_demos on a batch of one. When noise > 0 the
    episode's whole noise block, step_cap + EXPERT_PARK_STEPS rows, is drawn
    from rng up front, so rng ends past the block however early the episode
    stops.
    """
    _check_expert_args(step_cap, noise)
    block = _noise_block(rng, noise, step_cap)
    features, actions, lengths, ok = _rollout(kind, [state], None if block is None else block[None], step_cap)
    L = lengths[0]
    return rollout_trajectory(kind, state, features[0, :L], actions[0, :L]), bool(ok[0])


def generate_demos(kind: EnvKind, n: int, seed: int, *, step_cap: int = 120, noise: float = EXPERT_NOISE, min_len: int = 1) -> list[Trajectory]:
    """Collect n successful expert episodes; failures are resampled.

    Attempt i draws its start state and then its whole noise block from
    make_rng(seed, STREAM_DEMO, i). Attempts run in lockstep rounds: each
    round rolls out the attempts still needed, at most DEMO_BLOCK of them
    (fewer above the default step cap), and keeps its successes of at least
    min_len actions in attempt order, so the demos are the ones
    attempt-by-attempt generation gives, bit for bit.

    Raises ValueError on a step cap below 1 or a negative or non-finite
    noise, and GenerationError after 10 * n attempts, so an unreachable task surfaces as an error
    instead of an infinite loop.
    """
    _check_expert_args(step_cap, noise)
    per_round = min(DEMO_BLOCK, max(1, _ROUND_STEPS // (step_cap + EXPERT_PARK_STEPS)))
    demos: list[Trajectory] = []
    attempts = 0
    while len(demos) < n:
        if attempts >= 10 * n:
            raise GenerationError(f"only {len(demos)}/{n} episodes succeeded after {attempts} attempts")
        block = min(per_round, n - len(demos), 10 * n - attempts)
        states, noises = [], []
        for i in range(attempts, attempts + block):
            rng = make_rng(seed, STREAM_DEMO, i)
            states.append(make_initial_state(rng))
            noises.append(_noise_block(rng, noise, step_cap))
        attempts += block
        features, actions, lengths, ok = _rollout(kind, states, None if noise == 0 else np.stack(noises), step_cap)
        for b, state in enumerate(states):
            L = lengths[b]
            if ok[b] and L >= min_len:
                demos.append(rollout_trajectory(kind, state, features[b, :L], actions[b, :L]))
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
