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
The engine computes exact event times from the stage-latency algebra and
advances the environment causally: an observation launched when n_eo
executions remain captures the state after exactly h - n_eo steps of that
horizon, which is precisely the staleness early observation trades away.
Event logs are deterministic for fixed seeds, with ties ordered
observe < predict < generate < execute, then by action index.

One _Chunk computes a horizon's actions on both runners (the simulated
engine and the wall-clock runner). It prepares the horizon once
(Policy.prepare, from its observation and starting ledger) and then computes
each action in index order as one Policy.action on the prepared row: one
Euler step of the learned flow, through velocitynet.forward,
flowmatch.extract_action (the same flow math the trainer regresses on) and
normkit.denormalize.

One _Episode record keeps the executor side of an episode on both runners:
the env state, the executed ledger, the indicator stream and the rules the
clocks share (the decision point, the decision, what an execution records,
when the episode ends). At a decision the simulated engine scores the
horizon's whole remaining tail, the wall runner what its generator has
released by then.

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
the wall clock, for both modes, on two threads: the calling thread observes
and executes, one generator thread generates, and a queue in each direction
joins them. Observe and generate events run deadline to deadline: each starts
when its input is released and its lane's previous event has ended, and ends
its stage latency later, when its result is released to the next stage. An
observation is taken at its request, with the request time as its capture
time. The executor starts an action at max(release, previous tick + t_exec)
on a fixed grid, the engine's max(ready, previous end). As on the simulated
clock, the modes differ only in when a horizon's actions are released to
the executor: each as it is generated (streaming) or all n_replan after the
chunk's last generation (sync_chunk), which leaves the sync stages strictly
serial. It generates every planned action, with each forward pass inside
its t_gen budget, and never shares a horizon.

calibration_trajectories, the on-policy rollouts that calibrate indicator
thresholds, needs neither clock: plain streaming at zero latency with no
early observation puts every episode at the same action index of its
horizon. It steps the episodes in lockstep (lockstep_trajectories): one
Policy.action_rows, a stacked forward over the running episodes, per index,
then one envsim.step_rows. It builds no timeline events, and each
trajectory is the one run_episode records for its episode, bit for bit.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import threading
import time
from dataclasses import dataclass
from queue import Empty, Full, Queue, SimpleQueue
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import envsim, saliency
from .core import ACTION_DIM, OBS_DIM, Trajectory, cumulative_states, make_rng, STREAM_INDICATOR
from .envsim import EnvHandle
from .velocitynet import Policy, input_rows

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
    t_exec: executing one action; also the executor's tick period. The
        wall executor starts an action at max(ready, previous tick + t_exec)
        on a fixed grid, as the simulated engine starts it at max(ready,
        previous end); see _next_tick.
    t_pred: one saliency-predictor invocation (charged per decision point).
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


def _decide_eo(scheduler: SchedulerConfig, predictor, obs, remaining_raw: np.ndarray,
               rng: np.random.Generator) -> tuple[bool, float | None]:
    """Evaluate the early-observation indicator; returns (fired, score or None)."""
    ind = scheduler.eo
    if ind.mode == saliency.EO_NAIVE:
        return True, None
    if ind.mode == saliency.EO_RANDOM:
        return bool(rng.random() < ind.p), None
    score = saliency.indicator_score(ind.mode, predictor, obs, remaining_raw)
    return bool(score <= ind.eta), score


def _finish(success, events, raw, norm, final_alpha, state, horizons, eo_fired, steps, traj_parts,
            eo_decisions=0):
    """The EpisodeResult; final_alpha is the executed-action ledger, alpha0
    plus the executed actions summed in execution order. Sorts the runner's
    own events list in place."""
    events.sort(key=event_sort_key)
    raw_arr = np.asarray(raw).reshape(len(raw), -1)
    norm_arr = np.asarray(norm).reshape(len(norm), -1)
    trajectory = None
    if traj_parts is not None:
        observations, alpha0_raw = traj_parts
        trajectory = Trajectory(
            observations=observations,
            actions=raw_arr,
            action_states=cumulative_states(raw_arr, alpha0_raw),
        )
    return EpisodeResult(
        success=success, events=events, actions_raw=raw_arr, actions_norm=norm_arr,
        final_alpha=final_alpha, final_state=state, n_horizons=horizons, eo_fired=eo_fired,
        steps=steps, trajectory=trajectory, eo_decisions=eo_decisions,
    )


class _Episode:
    """The executor side of one episode, shared by both runners (see the
    module docstring); the runners supply only times and actions."""

    __slots__ = ("scheduler", "predictor", "env", "kind", "step_cap", "decision_idx",
                 "scored", "adaptive", "ind_rng", "state", "alpha", "raw", "norm", "record_obs",
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
                        if eo is not None else None)
        self.state = env.init_state
        # rebound, never updated in place: a horizon's _Chunk keeps the array it starts from
        self.alpha = policy.initial_alpha(self.state.position)
        self.raw, self.norm = [], []  # the executed actions
        self.record_obs = [] if record_trajectory else None
        self.steps = self.horizons = self.eo_fired = self.eo_decisions = 0
        self.succeeded = False

    def begin(self, horizon: int) -> int:
        """Count the horizon, whose first action executes next; returns its
        decision point's index, or -1 for none, as when the step cap makes it
        the last horizon: then no boundary is left to hide an observation."""
        self.horizons = horizon + 1
        return self.decision_idx if self.horizons * self.scheduler.h < self.step_cap else -1

    def decide(self, t: float, remaining) -> bool:
        """Score the indicator on the current frame, observed at time t, and
        on remaining(), the raw actions still to execute, which only the
        scored modes read; counts the decision and returns whether it fired."""
        tail = remaining() if self.scored else None
        obs = envsim.observe(self.state, capture_time=t)
        fired, _score = _decide_eo(self.scheduler, self.predictor, obs, tail, self.ind_rng)
        self.eo_decisions += 1
        self.eo_fired += fired
        return fired

    def step(self, a_raw: np.ndarray) -> tuple[envsim.EnvState, bool]:
        """The state executing a_raw leads to, with its envsim.success flag."""
        state = envsim.step(self.kind, self.state, a_raw)
        return state, envsim.success(state)

    def execute(self, a_norm: np.ndarray, a_raw: np.ndarray, state: envsim.EnvState,
                done: bool) -> bool:
        """Record the execution of (a_norm, a_raw), which led to state with
        success flag done; returns whether the episode ended, on success or
        at the step cap."""
        if self.record_obs is not None:
            self.record_obs.append(envsim.observe(self.state, capture_time=float(self.state.step_count)))
        self.state = state
        self.raw.append(a_raw)
        self.norm.append(a_norm)
        self.alpha = self.alpha + a_norm
        self.steps += 1
        self.succeeded = done
        return done or self.steps >= self.step_cap

    def result(self, events: list[TimelineEvent]) -> EpisodeResult:
        traj_parts = None
        if self.record_obs is not None:
            traj_parts = (self.record_obs, envsim.alpha0_for(self.kind, self.env.init_state))
        return _finish(self.succeeded, events, self.raw, self.norm, self.alpha, self.state,
                       self.horizons, self.eo_fired, self.steps, traj_parts, self.eo_decisions)


class _Chunk:
    """One horizon's h actions from one observation, computed on demand.

    The values are computed in index order, with the generator's ledger
    alpha summed left to right, and only as far as an execution or an
    indicator score reads them. The results are the ones generating the whole
    chunk up front gives.

    The first action prepares the horizon (policy.prepare: the dimension
    checks and the input row with the observation features in place), so on
    the wall clock that work falls inside its t_gen budget. Every action is
    then one policy.action on the prepared row.

    On the simulated clock the chunk also keeps the environment path its
    executed actions take from each start state (see path).
    """

    __slots__ = ("policy", "alpha", "features", "h", "norm", "raw", "row", "paths")

    def __init__(self, policy: Policy, alpha: np.ndarray, features: np.ndarray, h: int):
        self.policy, self.alpha, self.features, self.h = policy, alpha, features, h
        self.norm: list[np.ndarray] = []  # the actions computed so far, in index order
        self.raw: list[np.ndarray] = []
        self.row = None
        # (id(start state), id(kind)) -> (start state, kind, [(successor, success)])
        self.paths: dict[tuple[int, int], tuple] = {}

    def _fill(self, stop: int) -> None:
        policy, features = self.policy, self.features
        for n in range(len(self.norm), stop):
            if n == 0:
                self.row = policy.prepare(self.alpha, features)
            a_norm, a_raw = policy.action(self.alpha, n, features, prepared=self.row)
            self.alpha = self.alpha + a_norm
            self.norm.append(a_norm)
            self.raw.append(a_raw)

    def get(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(normalized, raw) action i."""
        self._fill(i + 1)
        return self.norm[i], self.raw[i]

    def tail(self, i: int) -> np.ndarray:
        """Raw actions i..h-1, one row each."""
        self._fill(self.h)
        return np.asarray(self.raw[i:])

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
    ep = _Episode(policy, predictor, env, scheduler, record_trajectory)
    memo = _SHARED_HORIZONS.get()
    events: list[TimelineEvent] = []

    obs_start = 0.0
    snapshot = ep.state       # env state visible to the pending observation
    base = 0                  # global index of the horizon's first action
    horizon = 0
    gen_lane = 0.0            # generator availability time
    exec_starts: list[float] = []
    prev_exec_end: float | None = None
    ended = False

    while not ended:
        obs = envsim.observe(snapshot, capture_time=obs_start)
        obs_end = obs_start + stage.t_obs
        events.append(TimelineEvent(STAGE_OBSERVE, base, horizon, obs_start, obs_end))

        # schedule all h actions of the horizon on the serial generator lane;
        # the queue-capacity constraint keeps the lane from running more than
        # h actions ahead of execution. A sync chunk's tail beyond n_replan is
        # planned but replaced by the next chunk (its generate events share
        # the indices the next chunk will execute).
        gen_end: list[float] = []
        chunk = _horizon_chunk(memo, policy, ep.alpha, obs.features, h)
        path = chunk.path(ep.state, ep.kind)
        lane = max(gen_lane, obs_end)
        for i in range(h):
            g = base + i
            start = lane if g < h else max(lane, exec_starts[g - h])
            lane = start + stage.t_gen
            events.append(TimelineEvent(STAGE_GENERATE, g, horizon, start, lane))
            gen_end.append(lane)
        gen_lane = lane

        fired = False
        next_obs_start: float | None = None
        next_snapshot = None
        decision = ep.begin(horizon)

        for i in range(n_rep):
            g = base + i
            ready = gen_end[h - 1] if sync else gen_end[i]
            start = ready if prev_exec_end is None else max(ready, prev_exec_end)
            end = start + stage.t_exec

            if i == decision:
                # a firing indicator launches the next observation here, on this frame
                fired = ep.decide(start, lambda: chunk.tail(i))
                launch = start
                if ep.adaptive:
                    p_start = max(start - stage.t_pred, gen_end[h - 1])
                    p_end = p_start + stage.t_pred
                    events.append(TimelineEvent(STAGE_PREDICT, base + h, horizon, p_start, p_end))
                    launch = max(launch, p_end)
                if fired:
                    next_obs_start = launch
                    next_snapshot = ep.state

            events.append(TimelineEvent(STAGE_EXECUTE, g, horizon, start, end))
            exec_starts.append(start)
            prev_exec_end = end
            a_norm, a_raw = chunk.get(i)
            if i == len(path):  # no earlier episode stepped here from this start state
                path.append(ep.step(a_raw))
            state, done = path[i]
            if ep.execute(a_norm, a_raw, state, done):
                ended = True
                break

        horizon += 1
        base += n_rep
        if not ended:
            if not fired:
                next_obs_start = prev_exec_end
                next_snapshot = ep.state
            obs_start = next_obs_start
            snapshot = next_snapshot

    return ep.result(events)


# ---------------------------------------------------------------------------
# wall-clock runner, for both modes: the calling thread observes and
# executes, one generator thread generates. The observation slot holds at
# most one observation (the request for horizon k+2 comes only after an
# action of horizon k+1, made from observation k+1, has executed); the action
# buffer holds at most h actions. Every queue item carries the time its
# payload is released. Observe and generate events run deadline to deadline
# (_lane_slot): an event starts at max(its input's release, the end of its
# lane's previous event) and ends its budget later, which is its result's
# release; the thread that takes the result sleeps to that release, so
# neither a wake-up nor a handoff adds to a stage's latency. A generate event
# whose host work ends after its deadline ends at the measured time and
# counts one overrun (EpisodeResult.overruns).
#
# The executor requests each observation: at the start, when the indicator
# fires (at the decision's end) and otherwise at the end of its n_replan-th
# execution, so in sync_chunk the stages run one at a time. At the request it
# observes the current state (capture time: the request time), emits the
# observe event and hands the observation to the generator; that host work
# runs before the event starts, so an observe event never overruns. The
# generator owns the action-state ledger: it makes all h actions of a
# horizon, each inside its t_gen budget, and queues the first n_replan, each
# as it is made in streaming and all at once after the horizon's last
# generation in sync_chunk. The executor ticks on a fixed grid of period
# t_exec (_next_tick): an action starts at max(release, previous tick +
# t_exec), as the simulated engine starts it at max(ready, previous end), and
# the grid restarts at max(now, release) when the supply ran late or a whole
# slot went by. The env step and the _Episode bookkeeping (the decision and
# the end rule, as on the simulated clock) run inside the slot, so host work
# does not stretch the period (past the slot it counts one overrun); an
# execute event can be shorter than t_exec by the executor's own wake-up
# lateness, never by a late supply.
# ---------------------------------------------------------------------------

_POLL = 0.02
# seconds the calling thread waits for the generator to stop
_JOIN_TIMEOUT = 5.0


def _next_tick(tick: float | None, release: float, now: float, t_exec: float) -> float:
    """The planned start of the next execution, in ms: the grid point
    tick + t_exec after the previous planned start tick, or max(now, release)
    when the grid restarts: for the first action (tick None), an action
    released after its grid point (starved), or a whole slot already gone by,
    so the executor never catches up with a burst of zero-length executions.
    An action taken from the queue before its release waits for it."""
    if tick is None:
        return max(now, release)
    on_grid = tick + t_exec
    if release > on_grid or now >= on_grid + t_exec:
        return max(now, release)
    return on_grid


def _lane_slot(release: float, lane: float, budget: float, done: float) -> tuple[float, float, bool]:
    """One observe or generate event on the wall clock, in ms: (start, end,
    overran). It starts at max(release, lane), when its input is released and
    its lane's previous event has ended, and ends budget later, never less
    than budget after start in floats; or at done, when the host work ended
    after that deadline, which counts one overrun."""
    start = max(release, lane)
    end = start + budget
    while end - start < budget:  # start + budget can round down
        end = math.nextafter(end, math.inf)
    if done > end:
        return start, done, True
    return start, end, False


def _now(t0: float) -> float:
    """Monotonic milliseconds since t0."""
    return (time.monotonic() - t0) * 1e3


def _sleep_until(t0: float, ms: float) -> float:
    """Sleep until ms after monotonic time t0; returns the measured time in
    ms since t0, never below ms."""
    left = ms / 1e3 - (time.monotonic() - t0)
    if left > 0:
        time.sleep(left)
    return max(_now(t0), ms)


class _WallShared:
    def __init__(self, h: int):
        self.obs_slot: SimpleQueue = SimpleQueue()
        self.action_queue: Queue = Queue(maxsize=h)
        self.stop = threading.Event()
        self.log_lock = threading.Lock()
        self.events: list[TimelineEvent] = []
        # horizon -> [(release, raw action)], in index order
        self.horizon_actions: dict[int, list[tuple[float, np.ndarray]]] = {}
        # overruns per stage; each entry is written by its own thread only
        self.overruns = dict.fromkeys((STAGE_GENERATE, STAGE_EXECUTE), 0)
        self.error: BaseException | None = None

    def emit(self, ev: TimelineEvent) -> None:
        with self.log_lock:
            self.events.append(ev)

    def put(self, queue: Queue, item) -> bool:
        """Put item on queue, giving up once the episode stops; returns
        whether the queue was full, so that the put waited for room."""
        try:
            queue.put_nowait(item)
            return False
        except Full:
            pass
        while not self.stop.is_set():
            try:
                queue.put(item, timeout=_POLL)
                break
            except Full:
                continue
        return True

    def get(self, queue: Queue | SimpleQueue):
        """The next item of queue, or None once the episode stops."""
        while not self.stop.is_set():
            try:
                return queue.get(timeout=_POLL)
            except Empty:
                continue
        return None


def _wall_generator(shared: _WallShared, policy: Policy, stage: StageLatency,
                    scheduler: SchedulerConfig, alpha0_norm: np.ndarray, t0: float):
    try:
        h, n_rep = scheduler.h, scheduler.replan
        alpha = alpha0_norm
        base = 0
        lane = 0.0
        while (got := shared.get(shared.obs_slot)) is not None:
            obs, horizon, released = got
            made = shared.horizon_actions[horizon] = []
            chunk = _Chunk(policy, alpha, obs.features, h)
            pending = []
            for i in range(h):
                if shared.stop.is_set():
                    return
                _sleep_until(t0, max(released, lane))
                a_norm, a_raw = chunk.get(i)
                start, lane, late = _lane_slot(released, lane, stage.t_gen, _now(t0))
                shared.overruns[STAGE_GENERATE] += late
                shared.emit(TimelineEvent(STAGE_GENERATE, base + i, horizon, start, lane))
                made.append((lane, a_raw))
                if i < n_rep:
                    alpha = chunk.alpha  # the next horizon starts after n_replan actions
                    pending.append((base + i, i, horizon, a_norm, a_raw))
                if scheduler.mode == MODE_STREAMING or i == h - 1:
                    for item in pending:
                        if shared.put(shared.action_queue, (*item, lane)):
                            lane = max(lane, _now(t0))  # the buffer was full: wait for room
                    pending.clear()
            base += n_rep
    except BaseException as exc:  # surfaced by the calling thread
        shared.error = exc
        shared.stop.set()


def _wall_executor(shared: _WallShared, ep: _Episode, stage: StageLatency, t0: float):
    n_rep = ep.scheduler.replan
    tick: float | None = None
    fired_for_horizon = decision = -1
    obs_lane = 0.0

    def observe(horizon: int, requested: float) -> None:
        nonlocal obs_lane  # done at the request: the host work precedes the slot
        obs = envsim.observe(ep.state, capture_time=requested)
        start, obs_lane, _ = _lane_slot(requested, obs_lane, stage.t_obs, requested)
        shared.emit(TimelineEvent(STAGE_OBSERVE, horizon * n_rep, horizon, start, obs_lane))
        shared.obs_slot.put((obs, horizon, obs_lane))

    observe(0, _now(t0))
    while (item := shared.get(shared.action_queue)) is not None:
        g, i, horizon, a_norm, a_raw, released = item
        if i == 0:
            decision = ep.begin(horizon)

        if i == decision:
            # decides once the action is released, and scores what the
            # generator has released of the horizon by then
            dec_time = _sleep_until(t0, released)
            made = shared.horizon_actions[horizon]
            fired = ep.decide(dec_time, lambda: np.asarray(
                [a for r, a in made[i:] if r <= dec_time]))
            decided = _now(t0)
            if ep.adaptive:
                shared.emit(TimelineEvent(STAGE_PREDICT, (horizon + 1) * n_rep, horizon,
                                          dec_time, decided))
            if fired:
                fired_for_horizon = horizon
                observe(horizon + 1, decided)

        tick = _next_tick(tick, released, _now(t0), stage.t_exec)
        start = _sleep_until(t0, tick)
        state, done = ep.step(a_raw)
        ended = ep.execute(a_norm, a_raw, state, done)
        shared.overruns[STAGE_EXECUTE] += _now(t0) > tick + stage.t_exec
        end = _sleep_until(t0, tick + stage.t_exec)
        shared.emit(TimelineEvent(STAGE_EXECUTE, g, horizon, start, end))

        if ended:
            break
        if i == n_rep - 1 and fired_for_horizon != horizon:
            observe(horizon + 1, end)


def _wall(policy: Policy, predictor, env: EnvHandle, stage: StageLatency,
          scheduler: SchedulerConfig, record_trajectory: bool) -> EpisodeResult:
    """The wall-clock runner for both modes (see the section comment above)."""
    shared = _WallShared(scheduler.h)
    ep = _Episode(policy, predictor, env, scheduler, record_trajectory)
    t0 = time.monotonic()
    generator = threading.Thread(target=_wall_generator, daemon=True, name="generator",
                                 args=(shared, policy, stage, scheduler, ep.alpha, t0))
    generator.start()
    try:
        _wall_executor(shared, ep, stage, t0)
    finally:
        shared.stop.set()
        generator.join(timeout=_JOIN_TIMEOUT)
    if shared.error is not None:
        raise shared.error
    if generator.is_alive():
        raise RuntimeError(f"wall-clock generator thread still running "
                           f"{_JOIN_TIMEOUT} s after the episode ended")
    result = ep.result(shared.events)
    result.overruns = sum(shared.overruns.values())
    return result


def run_episode(policy: Policy, predictor, env: EnvHandle, stage: StageLatency,
                scheduler: SchedulerConfig, clock: str = "simulated",
                record_trajectory: bool = False) -> EpisodeResult:
    """Run one episode under the given scheduling mode and clock.

    clock "simulated" uses the deterministic discrete-event engine (identical
    seeds give bitwise-identical logs); clock "wall" runs the real threaded
    pipeline. The executed action sequence depends only on observation
    snapshots and the indicator stream, so the two clocks execute the same
    actions for the same configuration.
    """
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
    lockstep, one row per episode.

    Every running episode sits at the same action index of its horizon, so
    each step is one Policy.action_rows over the running rows (a horizon's
    input rows are built once by velocitynet.input_rows, at its first index,
    from the state then observed), then one envsim.step_rows. A row stops on success or at
    step_cap actions. Each row gets the bits its lone episode gets.
    """
    n, h = len(states), policy.flow.h
    if not n:
        return []
    features = np.empty((n, step_cap, OBS_DIM))
    actions = np.empty((n, step_cap, ACTION_DIM))
    lengths = np.full(n, step_cap)
    rows = np.arange(n)
    pos, goal, latch = envsim.state_rows(states)
    alpha = np.array([policy.initial_alpha(s.position) for s in states])
    for t in range(step_cap):
        obs = envsim.observe_rows(pos, goal, latch)
        features[rows, t] = obs
        if t % h == 0:
            inputs = input_rows(policy.model, alpha, obs)
        a_norm, a_raw = policy.action_rows(inputs, alpha, t % h)
        actions[rows, t] = a_raw
        alpha = alpha + a_norm
        pos, goal, latch, won = envsim.step_rows(kind, pos, goal, latch, a_raw)
        if won.any():
            lengths[rows[won]] = t + 1
            keep = ~won
            rows, pos, goal, latch, alpha, inputs = (
                rows[keep], pos[keep], goal[keep], latch[keep], alpha[keep], inputs[keep])
            if not rows.size:
                break
    return [envsim.rollout_trajectory(kind, state, features[b, :lengths[b]], actions[b, :lengths[b]])
            for b, state in enumerate(states)]
