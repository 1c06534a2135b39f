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

One _Chunk computes a horizon's actions on all three runners (the
simulated engine and both wall-clock runners). It prepares the horizon once
(Policy.prepare, from its observation and starting ledger) and then computes
each action in index order as one Policy.action on the prepared row: one
Euler step of the learned flow, through velocitynet.forward,
flowmatch.extract_action (the same flow math the trainer regresses on) and
normkit.denormalize.

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
as far as it executes or scores. Every result is the one an unshared run
gives, bit for bit; `streampolicy bench` runs its whole matrix in one scope.
The scope assumes the policy's weights do not change inside it.

The wall-clock runners reproduce the same semantics with timestamps from the
wall clock: streaming with three real threads and bounded queues, sync_chunk
sequentially, since nothing in it overlaps. They generate every planned
action, with each forward pass inside its t_gen budget, and never share a
horizon.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
import time
from dataclasses import dataclass
from queue import Empty, Full, Queue

import numpy as np

from . import envsim, saliency
from .core import Trajectory, cumulative_states, make_rng, STREAM_INDICATOR
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
    t_exec: executing one action; also the executor's tick period.
    t_pred: one saliency-predictor invocation (charged per decision point).
    """

    t_obs: float
    t_gen: float
    t_exec: float
    t_pred: float = 10.0

    def __post_init__(self):
        for name in ("t_obs", "t_gen", "t_exec", "t_pred"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


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


@dataclass(frozen=True)
class TimelineEvent:
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


def _decide_eo(scheduler: SchedulerConfig, predictor, obs, remaining_raw: np.ndarray,
               rng: np.random.Generator) -> tuple[bool, float | None]:
    """Evaluate the early-observation indicator; returns (fired, score or None)."""
    ind = scheduler.eo
    if ind.mode == saliency.EO_NAIVE:
        return True, None
    if ind.mode == saliency.EO_RANDOM:
        return bool(rng.random() < ind.p), None
    if ind.mode == saliency.EO_ACTION_NORM:
        score = saliency.action_norm_score(remaining_raw)
        return bool(score <= ind.eta), score
    if ind.mode == saliency.EO_ADAPTIVE:
        if predictor is None:
            raise ValueError("adaptive early observation requires a predictor")
        score = saliency.saliency_score(predictor, obs, remaining_raw)
        return bool(score <= ind.eta), score
    raise ValueError(f"unknown indicator mode {ind.mode!r}")


def _finish(success, events, raw, norm, final_alpha, state, horizons, eo_fired, steps, traj_parts,
            eo_decisions=0):
    """The EpisodeResult; final_alpha is the executed-action ledger, alpha0
    plus the executed actions summed in execution order."""
    events = sorted(events, key=event_sort_key)
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


# indicators that read the remaining actions' values; naive and random do not
_SCORED_MODES = (saliency.EO_ACTION_NORM, saliency.EO_ADAPTIVE)


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
    """

    __slots__ = ("policy", "alpha", "features", "h", "norm", "raw", "row")

    def __init__(self, policy: Policy, alpha: np.ndarray, features: np.ndarray, h: int):
        self.policy, self.alpha, self.features, self.h = policy, alpha, features, h
        self.norm: list[np.ndarray] = []  # the actions computed so far, in index order
        self.raw: list[np.ndarray] = []
        self.row = None

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
    once (see the module docstring). A nested scope starts empty and the
    enclosing one is restored on exit; the memo is freed when the outermost
    scope exits, whether or not by an exception."""
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
    kind = env.kind
    state = env.init_state
    ind_rng = (make_rng(scheduler.seed, STREAM_INDICATOR, getattr(env, "episode_id", 0))
               if scheduler.eo is not None else None)
    memo = _SHARED_HORIZONS.get()

    alpha_exec = policy.initial_alpha(state.position)
    events: list[TimelineEvent] = []
    executed_raw: list[np.ndarray] = []
    executed_norm: list[np.ndarray] = []
    record_obs = [] if record_trajectory else None
    alpha0_raw = envsim.alpha0_for(kind, state)

    obs_start = 0.0
    snapshot = state          # env state visible to the pending observation
    base = 0                  # global index of the horizon's first action
    horizon = 0
    gen_lane = 0.0            # generator availability time
    exec_starts: list[float] = []
    prev_exec_end: float | None = None
    steps = 0
    succeeded = False
    ended = False
    eo_fired_count = 0
    eo_decision_count = 0
    decision_idx = h - scheduler.n_eo if scheduler.eo is not None else None

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
        chunk = _horizon_chunk(memo, policy, alpha_exec, obs.features, h)
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

        for i in range(n_rep):
            g = base + i
            ready = gen_end[h - 1] if sync else gen_end[i]
            start = ready if prev_exec_end is None else max(ready, prev_exec_end)
            end = start + stage.t_exec

            if decision_idx is not None and i == decision_idx \
                    and (horizon + 1) * h < env.step_cap:
                # n_eo executions remain; score against the current frame and
                # the still-pending actions, launching the next observation
                # right here when the indicator fires. Skipped when the step
                # cap makes this horizon the last: there is no boundary for
                # an early observation to hide.
                remaining = chunk.tail(i) if scheduler.eo.mode in _SCORED_MODES else None
                dec_obs = envsim.observe(state, capture_time=start)
                fired, _score = _decide_eo(scheduler, predictor, dec_obs, remaining, ind_rng)
                eo_decision_count += 1
                launch = start
                if scheduler.eo.mode == saliency.EO_ADAPTIVE:
                    p_start = max(start - stage.t_pred, gen_end[h - 1])
                    p_end = p_start + stage.t_pred
                    events.append(TimelineEvent(STAGE_PREDICT, base + h, horizon, p_start, p_end))
                    launch = max(launch, p_end)
                if fired:
                    eo_fired_count += 1
                    next_obs_start = launch
                    next_snapshot = state

            events.append(TimelineEvent(STAGE_EXECUTE, g, horizon, start, end))
            exec_starts.append(start)
            prev_exec_end = end
            if record_obs is not None:
                record_obs.append(envsim.observe(state, capture_time=float(state.step_count)))
            a_norm, a_raw = chunk.get(i)
            state = envsim.step(kind, state, a_raw)
            executed_raw.append(a_raw)
            executed_norm.append(a_norm)
            alpha_exec = alpha_exec + a_norm
            steps += 1
            if envsim.success(state):
                succeeded = True
                ended = True
                break
            if steps >= env.step_cap:
                ended = True
                break

        horizon += 1
        base += n_rep
        if not ended:
            if not fired:
                next_obs_start = prev_exec_end
                next_snapshot = state
            obs_start = next_obs_start
            snapshot = next_snapshot

    traj_parts = (record_obs, alpha0_raw) if record_trajectory else None
    return _finish(succeeded, events, executed_raw, executed_norm, alpha_exec, state,
                   horizon, eo_fired_count, steps, traj_parts, eo_decision_count)


# ---------------------------------------------------------------------------
# wall-clock runner: three threads (observer, generator, executor) joined by
# bounded queues. The observation slot holds at most one latent; the action
# buffer holds at most h actions. The executor owns the environment and the
# early-observation decision; the generator owns the action-state ledger.
# ---------------------------------------------------------------------------

_POLL = 0.02
# seconds the main thread waits for the observer and generator to stop
_JOIN_TIMEOUT = 5.0


def _sleep_rest(began: float, budget_ms: float) -> None:
    """Sleep what is left of a stage's budget_ms since monotonic time began,
    so host compute inside the stage counts toward its modeled latency."""
    left = budget_ms / 1e3 - (time.monotonic() - began)
    if left > 0:
        time.sleep(left)


class _WallShared:
    def __init__(self, h: int):
        self.obs_requests: Queue = Queue()
        self.obs_slot: Queue = Queue(maxsize=1)
        self.action_queue: Queue = Queue(maxsize=h)
        self.stop = threading.Event()
        self.log_lock = threading.Lock()
        self.events: list[TimelineEvent] = []
        self.horizon_actions: dict[int, list[np.ndarray]] = {}
        self.error: BaseException | None = None

    def emit(self, ev: TimelineEvent) -> None:
        with self.log_lock:
            self.events.append(ev)


def _wall_observer(shared: _WallShared, stage: StageLatency, t0: float):
    try:
        while not shared.stop.is_set():
            try:
                req = shared.obs_requests.get(timeout=_POLL)
            except Empty:
                continue
            if req is None:
                return
            snapshot, horizon, first_action = req
            start = (time.monotonic() - t0) * 1e3
            time.sleep(stage.t_obs / 1e3)
            end = (time.monotonic() - t0) * 1e3
            obs = envsim.observe(snapshot, capture_time=start)
            shared.emit(TimelineEvent(STAGE_OBSERVE, first_action, horizon, start, end))
            while not shared.stop.is_set():
                try:
                    shared.obs_slot.put((obs, horizon), timeout=_POLL)
                    break
                except Full:
                    continue
    except BaseException as exc:  # surfaced by the main thread
        shared.error = exc
        shared.stop.set()


def _wall_generator(shared: _WallShared, policy: Policy, stage: StageLatency,
                    scheduler: SchedulerConfig, alpha0_norm: np.ndarray, t0: float):
    try:
        h = scheduler.h
        alpha = alpha0_norm
        base = 0
        while not shared.stop.is_set():
            try:
                obs, horizon = shared.obs_slot.get(timeout=_POLL)
            except Empty:
                continue
            shared.horizon_actions[horizon] = []
            chunk = _Chunk(policy, alpha, obs.features, h)
            for i in range(h):
                if shared.stop.is_set():
                    return
                began = time.monotonic()
                a_norm, a_raw = chunk.get(i)
                _sleep_rest(began, stage.t_gen)
                start = (began - t0) * 1e3
                end = (time.monotonic() - t0) * 1e3
                shared.emit(TimelineEvent(STAGE_GENERATE, base + i, horizon, start, end))
                shared.horizon_actions[horizon].append(a_raw)
                item = (base + i, i, horizon, a_norm, a_raw)
                while not shared.stop.is_set():
                    try:
                        shared.action_queue.put(item, timeout=_POLL)
                        break
                    except Full:
                        continue
            alpha = chunk.alpha
            base += h
    except BaseException as exc:
        shared.error = exc
        shared.stop.set()


def _wall_executor(shared: _WallShared, alpha0_norm: np.ndarray, predictor, env: EnvHandle,
                   stage: StageLatency, scheduler: SchedulerConfig, t0: float,
                   record_trajectory: bool, out: dict):
    try:
        h = scheduler.h
        kind = env.kind
        state = env.init_state
        alpha_exec = alpha0_norm
        ind_rng = (make_rng(scheduler.seed, STREAM_INDICATOR, getattr(env, "episode_id", 0))
                   if scheduler.eo is not None else None)
        executed_raw, executed_norm, record_obs = [], [], ([] if record_trajectory else None)
        steps = 0
        succeeded = False
        horizons_seen = 0
        eo_count = 0
        eo_decision_count = 0
        prev_start: float | None = None
        fired_for_horizon = -1

        # observation for horizon 0
        shared.obs_requests.put((state, 0, 0))
        decision_idx = h - scheduler.n_eo if scheduler.eo is not None else None

        while not shared.stop.is_set():
            try:
                g, i, horizon, a_norm, a_raw = shared.action_queue.get(timeout=_POLL)
            except Empty:
                continue
            horizons_seen = max(horizons_seen, horizon + 1)

            if decision_idx is not None and i == decision_idx \
                    and (horizon + 1) * h < env.step_cap:
                known = shared.horizon_actions.get(horizon, [])
                remaining = np.asarray(known[i:]) if len(known) > i else a_raw.reshape(1, -1)
                dec_time = (time.monotonic() - t0) * 1e3
                dec_obs = envsim.observe(state, capture_time=dec_time)
                fired, _ = _decide_eo(scheduler, predictor, dec_obs, remaining, ind_rng)
                eo_decision_count += 1
                if scheduler.eo.mode == saliency.EO_ADAPTIVE:
                    p_end = (time.monotonic() - t0) * 1e3
                    shared.emit(TimelineEvent(STAGE_PREDICT, (horizon + 1) * h, horizon, dec_time, p_end))
                if fired:
                    eo_count += 1
                    fired_for_horizon = horizon
                    shared.obs_requests.put((state, horizon + 1, (horizon + 1) * h))

            # tick pacing: period t_exec, or immediately when supply lags
            now = (time.monotonic() - t0) * 1e3
            start = now if prev_start is None else max(now, prev_start + stage.t_exec)
            if start > now:
                time.sleep((start - now) / 1e3)
            start = (time.monotonic() - t0) * 1e3
            time.sleep(stage.t_exec / 1e3)
            end = (time.monotonic() - t0) * 1e3
            prev_start = start
            shared.emit(TimelineEvent(STAGE_EXECUTE, g, horizon, start, end))

            if record_obs is not None:
                record_obs.append(envsim.observe(state, capture_time=float(state.step_count)))
            state = envsim.step(kind, state, a_raw)
            executed_raw.append(a_raw)
            executed_norm.append(a_norm)
            alpha_exec = alpha_exec + a_norm
            steps += 1
            if envsim.success(state):
                succeeded = True
                break
            if steps >= env.step_cap:
                break
            if i == h - 1 and fired_for_horizon != horizon:
                shared.obs_requests.put((state, horizon + 1, (horizon + 1) * h))

        out["state"] = state
        out["raw"] = executed_raw
        out["norm"] = executed_norm
        out["alpha"] = alpha_exec
        out["steps"] = steps
        out["success"] = succeeded
        out["horizons"] = horizons_seen
        out["eo"] = eo_count
        out["eo_decisions"] = eo_decision_count
        out["record_obs"] = record_obs
    except BaseException as exc:
        shared.error = exc
    finally:
        shared.stop.set()


def _wall_streaming(policy: Policy, predictor, env: EnvHandle, stage: StageLatency,
                    scheduler: SchedulerConfig, record_trajectory: bool) -> EpisodeResult:
    shared = _WallShared(scheduler.h)
    t0 = time.monotonic()
    alpha0_norm = policy.initial_alpha(env.init_state.position)
    out: dict = {}
    threads = [
        threading.Thread(target=_wall_observer, args=(shared, stage, t0), daemon=True,
                         name="observer"),
        threading.Thread(target=_wall_generator, args=(shared, policy, stage, scheduler, alpha0_norm, t0),
                         daemon=True, name="generator"),
        threading.Thread(target=_wall_executor, args=(shared, alpha0_norm, predictor, env, stage, scheduler, t0, record_trajectory, out),
                         daemon=True, name="executor"),
    ]
    for th in threads:
        th.start()
    threads[2].join()
    shared.stop.set()
    shared.obs_requests.put(None)
    for th in threads[:2]:
        th.join(timeout=_JOIN_TIMEOUT)
    if shared.error is not None:
        raise shared.error
    stuck = [th.name for th in threads[:2] if th.is_alive()]
    if stuck:
        raise RuntimeError(f"wall-clock {' and '.join(stuck)} thread still running "
                           f"{_JOIN_TIMEOUT} s after the episode ended")

    traj_parts = None
    if record_trajectory:
        traj_parts = (out["record_obs"], envsim.alpha0_for(env.kind, env.init_state))
    return _finish(out["success"], shared.events, out["raw"], out["norm"], out["alpha"],
                   out["state"], out["horizons"], out["eo"], out["steps"], traj_parts,
                   out.get("eo_decisions", 0))


def _wall_sync(policy: Policy, predictor, env: EnvHandle, stage: StageLatency,
               scheduler: SchedulerConfig, record_trajectory: bool) -> EpisodeResult:
    """Sequential wall-clock sync_chunk: nothing overlaps, so no threads needed."""
    h, n_rep = scheduler.h, scheduler.replan
    kind = env.kind
    state = env.init_state
    alpha = policy.initial_alpha(state.position)
    events: list[TimelineEvent] = []
    executed_raw, executed_norm = [], []
    record_obs = [] if record_trajectory else None
    t0 = time.monotonic()
    now = lambda: (time.monotonic() - t0) * 1e3

    base = 0
    horizon = 0
    steps = 0
    succeeded = False
    ended = False
    while not ended:
        start = now()
        obs = envsim.observe(state, capture_time=start)
        time.sleep(stage.t_obs / 1e3)
        events.append(TimelineEvent(STAGE_OBSERVE, base, horizon, start, now()))
        chunk = _Chunk(policy, alpha, obs.features, h)
        for i in range(h):
            began = time.monotonic()
            chunk.get(i)
            _sleep_rest(began, stage.t_gen)
            events.append(TimelineEvent(STAGE_GENERATE, base + i, horizon, (began - t0) * 1e3, now()))
        for i in range(n_rep):
            a_norm, a_raw = chunk.get(i)
            e_start = now()
            time.sleep(stage.t_exec / 1e3)
            events.append(TimelineEvent(STAGE_EXECUTE, base + i, horizon, e_start, now()))
            if record_obs is not None:
                record_obs.append(envsim.observe(state, capture_time=float(state.step_count)))
            state = envsim.step(kind, state, a_raw)
            executed_raw.append(a_raw)
            executed_norm.append(a_norm)
            alpha = alpha + a_norm
            steps += 1
            if envsim.success(state):
                succeeded = True
                ended = True
                break
            if steps >= env.step_cap:
                ended = True
                break
        horizon += 1
        base += n_rep

    traj_parts = (record_obs, envsim.alpha0_for(kind, env.init_state)) if record_trajectory else None
    return _finish(succeeded, events, executed_raw, executed_norm, alpha, state,
                   horizon, 0, steps, traj_parts)


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
        if scheduler.mode == MODE_STREAMING:
            return _wall_streaming(policy, predictor, env, stage, scheduler, record_trajectory)
        return _wall_sync(policy, predictor, env, stage, scheduler, record_trajectory)
    raise ValueError(f"unknown clock {clock!r}")
