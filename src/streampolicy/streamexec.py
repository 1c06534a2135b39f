"""Asynchronous three-stage policy execution: observe, generate, execute.

Two scheduling modes share one policy and one pipeline:

* sync_chunk: observe, generate a full h-action chunk, execute the first
  n_replan actions, repeat. Nothing overlaps; halts last the full observation
  plus generation time.
* streaming: actions are generated one at a time and executed as they become
  ready, so generation of action i+1 overlaps execution of action i. The next
  horizon's observation can be launched early, while the final n_eo actions of
  the current horizon are still executing, when an early-observation indicator
  fires at the decision point.

One simulated engine runs both: each horizon observes, plans h actions on
the serial generator lane and executes the first n_replan of them (all h in
streaming). The modes differ only in when an action is ready to execute: at
the end of its own generation (streaming) or of the whole chunk (sync_chunk).
One slot rule on both clocks: every event starts when its input is released
and its lane's previous event has ended and lasts its stage latency
(_lane_slot). One buffer-capacity rule on both clocks: the action buffer has
h slots, so generate g is released by its horizon's observation and by the
start of execution g - h. The engine advances the environment causally: an
observation launched when n_eo executions remain captures the state after
exactly h - n_eo steps of that horizon, which is precisely the staleness
early observation trades away. The next observation is one pending (release,
state), set by a fired decision or by the horizon's last execution.
Event logs are deterministic for fixed seeds, with ties ordered
observe < predict < generate < execute, then by action index.

One _Chunk computes a horizon's actions on both runners (the simulated
engine and the wall-clock runner). It builds the horizon's network inputs
once (Policy.inputs, from its observation) and then computes each action in
index order as one Policy.action on them: the ledger and the time features
written in place, one Euler step of the learned flow through
velocitynet.forward, flowmatch.extract_action (the same flow math the
trainer regresses on) and normkit.denormalize. It keeps the running ledger
after each action.

One _Episode record keeps the executor side of an episode on both runners:
the env state, the executed ledger (read from the chunk's running ledger,
which sums the same actions in the same order), the indicator stream (only
the random indicator has one) and the rules the clocks share (the decision
point, the decision, what an execution records, when the episode ends). At
a decision the simulated engine scores the horizon's whole remaining tail,
the wall runner what its generator has released by then; only the adaptive
indicator observes the frame there. A recorded trajectory is built at the
end, from the state before each execution and the executed actions, by
envsim.rollout_trajectory, which also builds every demo and calibration
trajectory.

On the simulated clock, generate events model the generator lane: every
planned action of a horizon gets one at its modeled time, because the
timeline does not depend on action values. The values are computed only when
an action executes or an early-observation indicator scores it, so an action
that is planned and then replaced (a sync chunk's tail, the rest of a
horizon when the episode ends) costs no forward pass.

Inside a shared_horizons() scope the simulated engine also shares horizons
between episodes: a horizon's actions are a pure function of the policy, h,
its starting ledger and its observation features, so two episodes (of the
same or of different schedules) that observe the same state plan the same
chunk. The scope keeps each horizon's _Chunk under those four, and a later
episode reads the actions an earlier one computed and extends the chunk only
as far as it executes or scores. The env path is shared the same way: the
chunk keeps the successor states its executed actions lead to from each
start state (keyed by the identity of that EnvState and of the EnvKind),
each with its envsim.success flag, and an episode that executes it from the
same start state reads them instead of calling envsim.step and
envsim.success. Episodes that reuse one EnvHandle start from one state
object and then step onto the shared states, so identity hits wherever the
paths repeat. Every result is the one an unshared run gives, bit for bit;
`streampolicy bench` runs its whole matrix in one scope, with one EnvHandle
per episode for every schedule. The scope assumes the policy's weights do
not change inside it.

The wall-clock runner reproduces the same semantics with timestamps from
the wall clock, for both modes, in one loop on the calling thread. Every
observe, generate and execute event is planned by the same _lane_slot, from
the same releases, as on the simulated clock, before its host work runs, so
the loop only keeps the next generate's slot and the next execution's,
sleeps to the earlier start through its clock (_Clock) and runs that event's
host work there; an event ends when its result is released to the next
stage. An observation is taken at its request. An event departs from its
plan only on an overrun: until the host first overruns a budget, the wall
logs the simulated engine's timeline bit for bit, apart from the adaptive
indicator's predict event and the observation it launches, which are timed
by the host. On a virtual clock, where host work takes no time, nothing
overruns. As on the simulated clock, the modes differ only in when a
horizon's actions are released to the executor: each as it is generated
(streaming) or all n_replan after the chunk's last generation (sync_chunk),
which leaves the sync stages strictly serial. It generates every planned
action, with each forward pass inside its t_gen budget, and never shares a
horizon.

calibration_trajectories, the on-policy rollouts that calibrate indicator
thresholds, needs neither clock: plain streaming at zero latency with no
early observation puts every episode at the same action index of its
horizon. lockstep_trajectories runs the episodes as rows of
envsim.rollout_rows, the lockstep loop that also rolls out the expert's
demos, with no park steps, so a row stops on success or at the step cap.
It supplies only the horizon's action rule, through the two Policy methods
_Chunk calls: a horizon's inputs are a stack of one row per running
episode, built by Policy.inputs at the horizon's first index and again
whenever episodes stop, and each action index is one Policy.action, a
stacked velocitynet.forward, then the ledger update. It builds no timeline
events, and each trajectory is the one run_episode records for its
episode, bit for bit.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import envsim, saliency
from .core import OBS_DIM, Trajectory, make_rng, STREAM_INDICATOR
from .envsim import EnvHandle
from .velocitynet import Policy

STAGE_OBSERVE = "observe"
STAGE_PREDICT = "predict"
STAGE_GENERATE = "generate"
STAGE_EXECUTE = "execute"

_STAGE_PRIORITY = {STAGE_OBSERVE: 0, STAGE_PREDICT: 1, STAGE_GENERATE: 2, STAGE_EXECUTE: 3}

MODE_STREAMING = "streaming"
MODE_SYNC_CHUNK = "sync_chunk"


@dataclass(frozen=True)
class StageLatency:
    """Stage durations in milliseconds.

    t_obs: one observation (capture plus encoding).
    t_gen: generating one action.
    t_exec: executing one action.
    t_pred: one saliency-predictor invocation (charged per decision point).
    One slot rule on both clocks: every event lasts its stage's latency, on
    the simulated clock and on the wall, see _lane_slot.
    """

    t_obs: float
    t_gen: float
    t_exec: float
    t_pred: float = 10.0

    def __post_init__(self):
        for name in ("t_obs", "t_gen", "t_exec", "t_pred"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


ZERO_LATENCY = StageLatency(0.0, 0.0, 0.0, 0.0)
# desk-scale reference profile used throughout the benchmarks
REFERENCE_PROFILE = StageLatency(t_obs=58.0, t_gen=18.0, t_exec=27.0, t_pred=10.0)


def _lane_slot(release: float, lane: float, budget: float) -> tuple[float, float]:
    """One event on either clock, in ms: (start, end). It starts when its
    input is released and its lane's previous event has ended, the later of
    release and lane (max's value, bit for bit), and ends budget later, never
    less than budget after start in floats."""
    start = lane if lane > release else release
    end = start + budget
    while end - start < budget:  # start + budget can round down
        end = math.nextafter(end, math.inf)
    return start, end


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduling mode plus horizon, replanning, and early-observation knobs."""

    mode: str = MODE_STREAMING
    h: int = 10
    n_replan: int | None = None
    eo: saliency.Indicator | None = None
    n_eo: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (MODE_STREAMING, MODE_SYNC_CHUNK):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.h < 1:
            raise ValueError("h must be at least 1")
        if self.mode == MODE_SYNC_CHUNK:
            if not 1 <= self.replan <= self.h:
                raise ValueError("n_replan must be in [1, h]")
            if self.eo is not None:
                raise ValueError("early observation applies to streaming mode only")
        elif self.n_replan is not None:
            raise ValueError("n_replan applies to sync_chunk mode only; streaming executes all h")
        if self.eo is not None and not 1 <= self.n_eo < self.h:
            raise ValueError("n_eo must satisfy 1 <= n_eo < h")

    @property
    def replan(self) -> int:
        return self.h if self.n_replan is None else self.n_replan


class TimelineEvent(NamedTuple):
    """One stage interval of an episode, in milliseconds. A named tuple
    because the simulated engine builds two or three per action, and a tuple
    is the cheapest record to build."""

    stage: str
    action_index: int
    horizon_index: int
    start: float
    end: float


def event_sort_key(ev: TimelineEvent):
    return (ev.start, _STAGE_PRIORITY[ev.stage], ev.action_index, ev.end)


@dataclass
class EpisodeResult:
    success: bool
    events: list[TimelineEvent]
    actions_raw: np.ndarray
    actions_norm: np.ndarray
    final_alpha: np.ndarray
    final_state: envsim.EnvState
    n_horizons: int
    eo_fired: int
    steps: int
    trajectory: Trajectory | None = None
    eo_decisions: int = 0
    # wall clock: events whose host work ended after their planned end
    overruns: int = 0


def _decide_eo(scheduler: SchedulerConfig, predictor, features, remaining_raw: np.ndarray,
               rng: np.random.Generator | None) -> tuple[bool, float | None]:
    """Evaluate the early-observation indicator; returns (fired, score or None).
    Only the random mode draws from rng, and only the adaptive one reads the
    frame's features (1, obs_dim)."""
    ind = scheduler.eo
    if ind.mode == saliency.EO_NAIVE:
        return True, None
    if ind.mode == saliency.EO_RANDOM:
        return bool(rng.random() < ind.p), None
    score = float(saliency.score_decisions(ind.mode, predictor, features, [remaining_raw])[0])
    return score <= ind.eta, score


class _Episode:
    """The executor side of one episode, shared by both runners (see the
    module docstring); the runners supply only times, actions and ledgers.

    Each execution's ledger is the generator's running ledger after that
    action (_Chunk.get): the chunk starts from the executed ledger's bytes
    and sums the same actions in the same order, so it is the sum the
    executor would make, without a second add per action. An episode builds
    its indicator stream only for the random indicator, the one mode that
    draws from it, and observes the frame at a decision only for the
    adaptive one, the one mode that scores it. When it records a trajectory
    it keeps the state before each execution."""

    __slots__ = ("scheduler", "predictor", "env", "kind", "step_cap", "decision_idx",
                 "scored", "adaptive", "ind_rng", "state", "alpha", "raw", "norm", "visited",
                 "steps", "succeeded", "horizons", "eo_fired", "eo_decisions")

    def __init__(self, policy: Policy, predictor, env: EnvHandle, scheduler: SchedulerConfig,
                 record_trajectory: bool):
        eo = scheduler.eo
        self.scheduler, self.predictor, self.env = scheduler, predictor, env
        self.kind, self.step_cap = env.kind, env.step_cap
        # n_eo executions remain at the decision point; -1 matches no index
        self.decision_idx = scheduler.h - scheduler.n_eo if eo is not None else -1
        self.scored = eo is not None and eo.mode in saliency.SCORED_MODES
        self.adaptive = eo is not None and eo.mode == saliency.EO_ADAPTIVE  # charges t_pred
        self.ind_rng = (make_rng(scheduler.seed, STREAM_INDICATOR, getattr(env, "episode_id", 0))
                        if eo is not None and eo.mode == saliency.EO_RANDOM else None)
        self.state = env.init_state
        # rebound, never updated in place: a horizon's _Chunk keeps the array it starts from
        self.alpha = policy.initial_alpha(self.state.position)
        self.raw, self.norm = [], []  # the executed actions
        self.visited = [] if record_trajectory else None  # the state before each execution
        self.steps = self.horizons = self.eo_fired = self.eo_decisions = 0
        self.succeeded = False

    def begin(self, horizon: int) -> int:
        """Count the horizon, whose first action executes next; returns its
        decision point's index, or -1 for none, as when the step cap makes it
        the last horizon: then no boundary is left to hide an observation."""
        self.horizons = horizon + 1
        return self.decision_idx if self.horizons * self.scheduler.h < self.step_cap else -1

    def decide(self, remaining) -> bool:
        """Score the indicator on remaining(), the raw actions still to
        execute, which only the scored modes read, and (adaptive only) on the
        current frame; counts the decision and returns whether it fired."""
        tail = remaining() if self.scored else None
        features = envsim.observe(self.state)[None] if self.adaptive else None
        fired, _score = _decide_eo(self.scheduler, self.predictor, features, tail, self.ind_rng)
        self.eo_decisions += 1
        self.eo_fired += fired
        return fired

    def step(self, a_raw: np.ndarray) -> tuple[envsim.EnvState, bool]:
        """The state executing a_raw leads to, with its envsim.success flag."""
        state = envsim.step(self.kind, self.state, a_raw)
        return state, envsim.success(state)

    def execute(self, a_norm: np.ndarray, a_raw: np.ndarray, alpha: np.ndarray,
                state: envsim.EnvState, done: bool) -> bool:
        """Record the execution of (a_norm, a_raw), after which the ledger is
        alpha and which led to state with success flag done; returns whether
        the episode ended, on success or at the step cap."""
        if self.visited is not None:
            self.visited.append(self.state)
        self.state = state
        self.raw.append(a_raw)
        self.norm.append(a_norm)
        self.alpha = alpha
        self.steps += 1
        self.succeeded = done
        return done or self.steps >= self.step_cap

    def result(self, events: list[TimelineEvent]) -> EpisodeResult:
        """The EpisodeResult; final_alpha is a copy of the executed ledger,
        alpha0 plus the executed actions summed in execution order (the
        ledger arrays are the chunks', which episodes in a shared_horizons()
        scope share), and a recorded trajectory is
        envsim.rollout_trajectory's, from the kept states and the executed
        raw actions. Sorts the runner's own events list in place."""
        events.sort(key=event_sort_key)
        # an episode executes at least one action; concatenating the rows
        # copies their bytes at about half np.asarray's cost on a list of arrays
        raw = np.concatenate(self.raw).reshape(self.steps, -1)
        trajectory = None
        if self.visited is not None:
            features = envsim.observe_rows(*envsim.state_rows(self.visited))
            trajectory = envsim.rollout_trajectory(self.kind, self.env.init_state, features, raw)
        return EpisodeResult(
            success=self.succeeded, events=events, actions_raw=raw,
            actions_norm=np.concatenate(self.norm).reshape(self.steps, -1),
            final_alpha=self.alpha.copy(), final_state=self.state, n_horizons=self.horizons,
            eo_fired=self.eo_fired, steps=self.steps, trajectory=trajectory,
            eo_decisions=self.eo_decisions,
        )


class _Chunk:
    """One horizon's h actions from one observation, computed on demand.

    The values are computed in index order, with the generator's ledger
    alpha summed left to right, and only as far as an execution or an
    indicator score reads them. The results are the ones generating the whole
    chunk up front gives. The ledger after each action is kept with it: it
    is the executed ledger of an episode that executes the chunk from its
    start (see _Episode).

    The first action builds the horizon's inputs (policy.inputs: the
    dimension checks and the input row with the observation features in
    place), so on the wall clock that work falls inside its t_gen budget.
    Every action is then one policy.action on them.

    On the simulated clock the chunk also keeps the environment path its
    executed actions take from each start state (see path).
    """

    __slots__ = ("policy", "alpha", "features", "h", "actions", "inputs", "paths")

    def __init__(self, policy: Policy, alpha: np.ndarray, features: np.ndarray, h: int):
        self.policy, self.alpha, self.features, self.h = policy, alpha, features, h
        # (normalized, raw, ledger after it) of each action computed so far, in index order
        self.actions: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.inputs = None
        # (id(start state), id(kind)) -> (start state, kind, [(successor, success)])
        self.paths: dict[tuple[int, int], tuple] = {}

    def _fill(self, stop: int) -> None:
        policy, features = self.policy, self.features
        for n in range(len(self.actions), stop):
            if n == 0:
                self.inputs = policy.inputs(self.alpha, features)
            a_norm, a_raw = policy.action(self.inputs, self.alpha, n)
            self.alpha = self.alpha + a_norm
            self.actions.append((a_norm, a_raw, self.alpha))

    def get(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(normalized action, raw action, the ledger after it) of action i."""
        if i >= len(self.actions):
            self._fill(i + 1)
        return self.actions[i]

    def tail(self, i: int) -> np.ndarray:
        """Raw actions i..h-1, one row each."""
        self._fill(self.h)
        return np.asarray([raw for _, raw, _ in self.actions[i:]])

    def path(self, state: envsim.EnvState, kind: envsim.EnvKind) -> list[tuple[envsim.EnvState, bool]]:
        """The states that executing actions 0, 1, ... of this chunk from
        state under kind leads to, in index order, as far as an episode has
        executed them, each with its envsim.success flag; the caller appends
        each (state, success) it steps to. The key is the identity of state
        and kind: it holds both, so neither id can be reused while the chunk
        lives. A value key would also have to hold the step count, which the
        observation features leave out."""
        key = (id(state), id(kind))
        entry = self.paths.get(key)
        if entry is None:
            entry = self.paths[key] = (state, kind, [])
        return entry[2]


# (id(policy), h, starting ledger bytes, observation feature bytes) -> _Chunk,
# while a shared_horizons() scope is open; a memoized chunk holds its policy,
# so the id cannot be reused while the memo lives. A context variable and not
# a run_episode argument, because wrappers with exactly run_episode's
# parameters stand in for it (a benchmark harness counts episodes that way).
_SHARED_HORIZONS: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "streamexec_shared_horizons", default=None)


@contextlib.contextmanager
def shared_horizons():
    """Within this scope, simulated episodes compute each distinct horizon
    once and step each distinct env path once (see the module docstring).
    A nested scope starts empty and the enclosing one is restored on exit;
    the memo is freed when the outermost scope exits, whether or not by an
    exception."""
    token = _SHARED_HORIZONS.set({})
    try:
        yield
    finally:
        _SHARED_HORIZONS.reset(token)


def _horizon_chunk(memo: dict | None, policy: Policy, alpha: np.ndarray,
                   features: np.ndarray, h: int) -> _Chunk:
    """The horizon's chunk: the shared one inside a scope, else a fresh one."""
    if memo is None:
        return _Chunk(policy, alpha, features, h)
    key = (id(policy), h, alpha.tobytes(), features.tobytes())
    chunk = memo.get(key)
    if chunk is None:
        chunk = memo[key] = _Chunk(policy, alpha, features, h)
    return chunk


def _simulated(policy: Policy, predictor, env: EnvHandle, stage: StageLatency,
               scheduler: SchedulerConfig, record_trajectory: bool) -> EpisodeResult:
    """The discrete-event engine for both modes (see the module docstring)."""
    h, n_rep = scheduler.h, scheduler.replan
    sync = scheduler.mode == MODE_SYNC_CHUNK
    t_obs, t_gen, t_exec, t_pred = stage.t_obs, stage.t_gen, stage.t_exec, stage.t_pred
    ep = _Episode(policy, predictor, env, scheduler, record_trajectory)
    memo = _SHARED_HORIZONS.get()
    events: list[TimelineEvent] = []
    emit = events.append
    event = TimelineEvent._make  # from one tuple: cheaper than binding five arguments

    pending = (0.0, ep.state)  # (release, env state) of the next observation
    base = 0                  # global index of the horizon's first action
    horizon = 0
    # each lane's previous end, all free at 0.0 as on the wall: one slot rule
    # on both clocks, every event's (start, end) is a _lane_slot
    obs_lane = gen_lane = exec_lane = 0.0
    exec_starts: list[float] = []

    while True:
        release, snapshot = pending
        pending = None
        features = envsim.observe(snapshot)
        obs_start, obs_lane = _lane_slot(release, obs_lane, t_obs)
        emit(event((STAGE_OBSERVE, base, horizon, obs_start, obs_lane)))

        # plan all h actions of the horizon on the serial generator lane, each
        # released by the observation and, for the buffer's capacity of h, by
        # the start of execution g - h. A sync chunk's tail beyond n_replan is
        # planned but replaced by the next chunk (its generate events share
        # the indices the next chunk will execute).
        gen_end: list[float] = []
        chunk = _horizon_chunk(memo, policy, ep.alpha, features, h)
        path = chunk.path(ep.state, ep.kind)
        for g in range(base, base + h):
            release = obs_lane if g < h else max(obs_lane, exec_starts[g - h])
            start, gen_lane = _lane_slot(release, gen_lane, t_gen)
            emit(event((STAGE_GENERATE, g, horizon, start, gen_lane)))
            gen_end.append(gen_lane)

        decision = ep.begin(horizon)
        for i in range(n_rep):
            start, exec_lane = _lane_slot(gen_lane if sync else gen_end[i], exec_lane, t_exec)
            if i == decision:
                # a firing indicator launches the next observation here, on this frame
                launch = start
                if ep.adaptive:
                    p_start, p_end = _lane_slot(start - t_pred, gen_lane, t_pred)
                    emit(event((STAGE_PREDICT, base + h, horizon, p_start, p_end)))
                    launch = max(launch, p_end)
                if ep.decide(lambda: chunk.tail(i)):
                    pending = (launch, ep.state)

            emit(event((STAGE_EXECUTE, base + i, horizon, start, exec_lane)))
            exec_starts.append(start)
            a_norm, a_raw, alpha = chunk.get(i)
            if i == len(path):  # no earlier episode stepped here from this start state
                path.append(ep.step(a_raw))
            state, done = path[i]
            if ep.execute(a_norm, a_raw, alpha, state, done):
                return ep.result(events)

        if pending is None:
            pending = (exec_lane, ep.state)
        horizon += 1
        base += n_rep


# ---------------------------------------------------------------------------
# wall-clock runner, for both modes, in one loop on the calling thread. Every
# event is planned by _lane_slot, as on the simulated clock, before its host
# work runs, so the loop makes no timing decision: it keeps the next
# generate's slot and the next execution's, sleeps to the earlier start and
# runs that event's host work there. The generate goes first on a tie; the
# execution goes first while generate g still waits for execution g - h's
# start, the engine's capacity rule: generate g is released by its horizon's
# observation and by the start of execution g - h (in sync_chunk every
# execution g - h has started before the chunk's observation, so the term
# never binds). An event ends at its planned end, which is its result's
# release; a generate or execute event whose host work ends after its planned
# end ends at the measured time and counts one overrun (EpisodeResult.overruns,
# see _ended). The loop reads the time only through one _Clock; tests replace
# the class with a virtual clock, on which host work takes no time, nothing
# overruns and the wall logs the simulated engine's timeline.
#
# The executor requests each observation: at 0.0, at a fired decision and
# otherwise at the end of its n_replan-th execution, so in sync_chunk the
# stages run one at a time. At the request it observes the current state's
# features and logs the observe event; that host work runs before the event
# starts, so an observe event never overruns. It stays the one pending
# observation until the generator has made all h actions of the horizon
# before it. The generator makes each action inside its t_gen budget, owns
# the action-state ledger and releases a horizon's first n_replan actions to
# the executor, each as it is made in streaming and all at once after the
# horizon's last generation in sync_chunk. An execution runs the _Episode bookkeeping at its planned start
# (the decision and the end rule, as on the simulated clock) and the env step
# inside the slot. A decision scores what the generator has released of the
# horizon by the planned start; a fired naive, random or anao decision
# requests the next observation at that start, as the simulated engine
# launches it, and an adaptive one when its predictor has run.
# ---------------------------------------------------------------------------


def _ended(end: float, done: float) -> tuple[float, bool]:
    """(end, overran) of a wall event planned to end at end whose host work
    ended at done: past that deadline it ends at done, one overrun."""
    return (done, True) if done > end else (end, False)


class _Clock:
    """The wall runner's clock: monotonic milliseconds since the episode
    began."""

    def __init__(self):
        self.t0 = time.monotonic()

    def now(self) -> float:
        return (time.monotonic() - self.t0) * 1e3

    def sleep_until(self, ms: float) -> None:
        left = ms / 1e3 - (time.monotonic() - self.t0)
        if left > 0:
            time.sleep(left)


def _wall(policy: Policy, predictor, env: EnvHandle, stage: StageLatency,
          scheduler: SchedulerConfig, record_trajectory: bool) -> EpisodeResult:
    """The wall-clock runner for both modes (see the section comment above)."""
    h, n_rep = scheduler.h, scheduler.replan
    streaming = scheduler.mode == MODE_STREAMING
    ep = _Episode(policy, predictor, env, scheduler, record_trajectory)
    clock = _Clock()
    events: list[TimelineEvent] = []
    emit = events.append
    overruns = 0
    obs_lane = gen_lane = exec_lane = 0.0
    observed = None    # (features, horizon, release) of the observation no chunk has taken
    chunk = None       # the generator's horizon, until it has made all h actions
    ledger = ep.alpha  # the generator's: the next horizon starts from it
    made = []          # (release, raw action) of each action of the generator's horizon
    held = []          # actions made and not yet released to the executor
    ready = deque()    # actions released to the executor, in execution order
    exec_starts = []   # each execution's planned start, in execution order
    fired_for = decision = -1

    def observe(horizon: int, requested: float) -> None:
        nonlocal obs_lane, observed  # the host work runs at the request, before the slot
        features = envsim.observe(ep.state)
        start, obs_lane = _lane_slot(requested, obs_lane, stage.t_obs)
        emit(TimelineEvent(STAGE_OBSERVE, horizon * n_rep, horizon, start, obs_lane))
        observed = (features, horizon, obs_lane)

    observe(0, 0.0)
    while True:
        if chunk is None and observed is not None:
            features, gen_horizon, gen_release = observed
            observed, chunk, made = None, _Chunk(policy, ledger, features, h), []
        gen = exe = None
        if chunk is not None:
            i = len(made)
            g = gen_horizon * n_rep + i
            if g < h or g - h < len(exec_starts):  # else it waits for execution g - h's start
                release = gen_release if g < h else max(gen_release, exec_starts[g - h])
                gen = _lane_slot(release, gen_lane, stage.t_gen)
        if ready:
            exe = _lane_slot(ready[0][-1], exec_lane, stage.t_exec)
        if gen is not None and (exe is None or gen[0] <= exe[0]):
            start, end = gen
            clock.sleep_until(start)
            a_norm, a_raw, a_ledger = chunk.get(i)
            gen_lane, late = _ended(end, clock.now())
            overruns += late
            emit(TimelineEvent(STAGE_GENERATE, g, gen_horizon, start, gen_lane))
            made.append((gen_lane, a_raw))
            if i < n_rep:
                ledger = a_ledger  # the next horizon starts after n_replan actions
                held.append((g, i, gen_horizon, a_norm, a_raw, a_ledger))
            if streaming or i == h - 1:
                ready.extend((*item, gen_lane) for item in held)
                held.clear()
            if i == h - 1:
                chunk = None
            continue

        g, i, horizon, a_norm, a_raw, a_ledger, _ = ready.popleft()
        start, end = exe
        exec_starts.append(start)
        if i == 0:
            decision = ep.begin(horizon)
        clock.sleep_until(start)
        if i == decision:
            # decides at the slot's planned start, on what the generator has
            # released of the horizon by then
            fired = ep.decide(lambda: np.asarray([a for r, a in made[i:] if r <= start]))
            launch = start
            if ep.adaptive:
                launch = clock.now()
                emit(TimelineEvent(STAGE_PREDICT, (horizon + 1) * n_rep, horizon, start, launch))
            if fired:
                fired_for = horizon
                observe(horizon + 1, launch)
        state, done = ep.step(a_raw)
        ended = ep.execute(a_norm, a_raw, a_ledger, state, done)
        exec_lane, late = _ended(end, clock.now())
        overruns += late
        emit(TimelineEvent(STAGE_EXECUTE, g, horizon, start, exec_lane))
        if ended:
            result = ep.result(events)
            result.overruns = overruns
            return result
        if i == n_rep - 1 and fired_for != horizon:
            clock.sleep_until(exec_lane)  # observes once the slot has ended
            observe(horizon + 1, exec_lane)


def run_episode(policy: Policy, predictor, env: EnvHandle, stage: StageLatency,
                scheduler: SchedulerConfig, clock: str = "simulated",
                record_trajectory: bool = False) -> EpisodeResult:
    """Run one episode under the given scheduling mode and clock.

    clock "simulated" uses the deterministic discrete-event engine (identical
    seeds give bitwise-identical logs); clock "wall" runs the same pipeline
    in real time, one loop that sleeps to each planned event and runs its
    host work there. The executed action sequence depends only on
    observation snapshots and the indicator stream, so the two clocks
    execute the same actions for the same configuration, apart from a
    scored decision that the generator has not caught up with on the wall
    (it scores only the actions generated by then)."""
    if clock == "simulated":
        return _simulated(policy, predictor, env, stage, scheduler, record_trajectory)
    if clock == "wall":
        return _wall(policy, predictor, env, stage, scheduler, record_trajectory)
    raise ValueError(f"unknown clock {clock!r}")


def run_episodes(policy: Policy, predictor, envs: Iterable[EnvHandle], stage: StageLatency,
                 scheduler: SchedulerConfig, *, clock: str = "simulated",
                 record_trajectory: bool = False) -> Iterator[EpisodeResult]:
    """Yield one EpisodeResult per handle of envs, in order, as each episode
    ends. Each is a call of this module's run_episode, looked up at the call,
    so a wrapper installed on it sees every episode. No shared_horizons()
    scope is opened here; callers that share horizons run the sweep in one."""
    for env in envs:
        yield run_episode(policy, predictor, env, stage, scheduler, clock=clock,
                          record_trajectory=record_trajectory)


def calibration_trajectories(policy: Policy, kind: envsim.EnvKind, seed: int, episodes: int,
                             step_cap: int) -> list[Trajectory]:
    """The policy's own trajectories on episodes 0 .. episodes-1 of seed, for
    calibrating indicator thresholds: each is the trajectory run_episode
    records for that episode under plain streaming at zero latency with no
    predictor (the scheduler's seed then draws nothing), bit for bit.
    Demonstrations over-represent the parked low-saliency tail after success,
    which skews quantile thresholds; the deployed policy's own horizon grid
    does not.

    The episodes run in lockstep (see lockstep_trajectories) and build no
    timeline events. Raises ValueError on a negative episode count or a
    step cap below 1, whether or not any episode runs.
    """
    if episodes < 0:
        raise ValueError(f"episodes must be at least 0, got {episodes}")
    if step_cap < 1:
        raise ValueError(f"step_cap must be at least 1, got {step_cap}")
    states = [envsim.make_env(kind, seed, ep, step_cap=step_cap).init_state for ep in range(episodes)]
    return lockstep_trajectories(policy, kind, states, step_cap)


def lockstep_trajectories(policy: Policy, kind: envsim.EnvKind, states: list[envsim.EnvState],
                          step_cap: int) -> list[Trajectory]:
    """The trajectory run_episode records from each start state under plain
    streaming at zero latency with no early observation, all of them in
    lockstep, one row per episode, by envsim.rollout_rows with no park
    steps: a row stops on success or at step_cap actions.

    Every running episode sits at the same action index of its horizon, so
    the action rule is the horizon's: one Policy.action over the running
    rows, then their ledger update. A horizon's inputs are built by
    Policy.inputs from the features observed at its first index, one row
    per episode, as _Chunk builds a lone episode's; when rows stop
    mid-horizon, the inputs are built again from the running rows'
    first-index features. Each row gets the bits its lone episode gets.
    """
    h = policy.flow.h
    alpha = np.array([policy.initial_alpha(s.position) for s in states])
    first = np.empty((len(states), OBS_DIM))
    inputs, running = None, 0

    def act(t: int, rows: np.ndarray, features: np.ndarray) -> np.ndarray:
        nonlocal inputs, running
        a = alpha[rows]
        if t % h == 0:
            first[rows] = features
            inputs = policy.inputs(a, features)
        elif rows.size < running:
            inputs = policy.inputs(a, first[rows])
        running = rows.size
        a_norm, a_raw = policy.action(inputs, a, t % h)
        alpha[rows] = a + a_norm
        return a_raw

    features, actions, lengths, _ = envsim.rollout_rows(kind, states, act, step_cap, 0)
    return [envsim.rollout_trajectory(kind, state, features[b, :lengths[b]], actions[b, :lengths[b]])
            for b, state in enumerate(states)]
