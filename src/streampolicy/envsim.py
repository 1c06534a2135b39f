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

from .core import ACTION_DIM, Observation, Trajectory, cumulative_states, make_rng, STREAM_DEMO, STREAM_INIT

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


def step(kind: EnvKind, state: EnvState, action: np.ndarray) -> EnvState:
    """Apply one action; returns the successor state.

    Controller kind passes the action through c * tanh(a / c), bounding the
    realized displacement by the saturation constant per axis.
    """
    a = np.asarray(action, dtype=np.float64)
    if kind.variant == KIND_CONTROLLER:
        c = kind.saturation
        delta = c * np.tanh(a / c)
    else:
        delta = a
    pos = state.position + delta
    # np.clip's result: a position inside the workspace is its own clip, so
    # the clip runs only when a coordinate left it (or is NaN)
    for v in pos.tolist():
        if not WORKSPACE_LO <= v <= WORKSPACE_HI:
            pos = np.minimum(np.maximum(pos, WORKSPACE_LO), WORKSPACE_HI)
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


def make_initial_state(rng: np.random.Generator) -> EnvState:
    position = rng.uniform(START_BOX[0], START_BOX[1])
    goal = rng.uniform(GOAL_BOX[0], GOAL_BOX[1])
    return EnvState(position=position, goal=goal, latch=False, step_count=0)


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


def expert_action(kind: EnvKind, state: EnvState, rng: np.random.Generator | None = None, noise: float = EXPERT_NOISE) -> np.ndarray:
    """Scripted expert: head into the latch region, then to the current goal."""
    if state.latch:
        target = state.goal
    else:
        target = latch_waypoint(kind, state.goal)
    d = target - state.position
    a = EXPERT_GAIN * d
    norm = math.sqrt(float(a.dot(a)))  # np.linalg.norm of a real 1-D vector
    if norm > EXPERT_MAX_STEP:
        a = a * (EXPERT_MAX_STEP / norm)
    if rng is not None and noise > 0:
        a = a + rng.normal(0.0, noise, size=a.shape)
    return a


# extra near-zero-action steps recorded after the expert reaches the goal.
# Cloning-window extraction needs a full lookahead of states, so without
# these the data never covers "parked at the goal" and the learned
# velocities there extrapolate into large overshoots.
EXPERT_PARK_STEPS = 12


def run_expert_episode(kind: EnvKind, state: EnvState, rng: np.random.Generator, *, step_cap: int = 120, noise: float = EXPERT_NOISE):
    """Roll the expert until success or the step cap; returns (Trajectory, ok).

    Successful episodes are extended by EXPERT_PARK_STEPS of hold-position
    actions so the demonstrations cover the parked end state.
    """
    observations: list[Observation] = []
    actions: list[np.ndarray] = []
    alpha0 = alpha0_for(kind, state)
    park = 0
    for _ in range(step_cap + EXPERT_PARK_STEPS):
        observations.append(observe(state))
        a = expert_action(kind, state, rng, noise)
        actions.append(a)
        state = step(kind, state, a)
        if success(state):
            park += 1
            if park > EXPERT_PARK_STEPS:
                break
        elif park == 0 and len(actions) >= step_cap:
            break
    act = np.asarray(actions)
    traj = Trajectory(observations=observations, actions=act, action_states=cumulative_states(act, alpha0))
    return traj, success(state)


def generate_demos(kind: EnvKind, n: int, seed: int, *, step_cap: int = 120, noise: float = EXPERT_NOISE, min_len: int = 1) -> list[Trajectory]:
    """Collect n successful expert episodes; failures are resampled.

    Raises GenerationError after 10 * n attempts, so an unreachable task
    surfaces as an error instead of an infinite loop.
    """
    demos: list[Trajectory] = []
    attempts = 0
    while len(demos) < n:
        if attempts >= 10 * n:
            raise GenerationError(f"only {len(demos)}/{n} episodes succeeded after {attempts} attempts")
        rng = make_rng(seed, STREAM_DEMO, attempts)
        state = make_initial_state(rng)
        traj, ok = run_expert_episode(kind, state, rng, step_cap=step_cap, noise=noise)
        attempts += 1
        if ok and len(traj) >= min_len:
            demos.append(traj)
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
