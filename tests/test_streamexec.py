import dataclasses
import math
import threading
import time

import numpy as np
import pytest

from streampolicy import envsim, metrics, saliency, streamexec, velocitynet
from streampolicy.core import STREAM_INDICATOR, DimensionMismatchError, make_rng
from streampolicy.envsim import EnvHandle, EnvKind, KIND_CONTROLLER, KIND_DIRECT, make_env, step as env_step
from streampolicy.saliency import Indicator
from streampolicy.streamexec import (
    MODE_STREAMING, MODE_SYNC_CHUNK, REFERENCE_PROFILE, STAGE_EXECUTE,
    STAGE_GENERATE, STAGE_OBSERVE, STAGE_PREDICT, EpisodeResult, SchedulerConfig,
    StageLatency, TimelineEvent, ZERO_LATENCY, _decide_eo, _finish, run_episode,
    shared_horizons,
)
from streampolicy.velocitynet import Policy, init_velocity_model
DIRECT = EnvKind(variant=KIND_DIRECT)
CTRL = EnvKind(variant=KIND_CONTROLLER)
# a tenth of the reference profile keeps wall-clock runs fast while preserving
# every ordering relation (t_gen < t_exec < t_obs)
FAST_PROFILE = StageLatency(t_obs=5.8, t_gen=1.8, t_exec=2.7, t_pred=1.0)


class _ConstPolicy:
    """Outputs a fixed raw action and records the observation features each
    horizon was generated from, which exposes snapshot staleness exactly."""

    def __init__(self, raw_action):
        self.raw = np.asarray(raw_action, dtype=np.float64)
        self.seen = []

    def initial_alpha(self, position):
        return np.zeros(2)

    def prepare(self, alpha_norm, obs_features):
        return None

    def action(self, alpha_norm, T, obs_features, prepared=None):
        if T == 0:
            self.seen.append(obs_features.copy())
        return 0.5 * self.raw, self.raw.copy()


@pytest.fixture(scope="module")
def null_policy(idle_policy):
    return idle_policy


def _by_stage(events, stage):
    return [e for e in events if e.stage == stage]


def test_scheduler_validation():
    with pytest.raises(ValueError):
        SchedulerConfig(mode="warp")
    with pytest.raises(ValueError):
        SchedulerConfig(mode=MODE_STREAMING, h=0)
    with pytest.raises(ValueError):
        SchedulerConfig(mode=MODE_SYNC_CHUNK, n_replan=11)
    with pytest.raises(ValueError):
        SchedulerConfig(mode=MODE_SYNC_CHUNK, eo=Indicator(mode="naive"))
    with pytest.raises(ValueError):
        SchedulerConfig(mode=MODE_STREAMING, eo=Indicator(mode="naive"), n_eo=10)
    # streaming executes every planned action; a replan count would be ignored
    for n in (1, 5, 10):
        with pytest.raises(ValueError, match="n_replan"):
            SchedulerConfig(mode=MODE_STREAMING, n_replan=n)
    assert SchedulerConfig(mode=MODE_SYNC_CHUNK).replan == 10
    assert SchedulerConfig(mode=MODE_STREAMING).replan == 10


def test_stage_latency_validation():
    with pytest.raises(ValueError):
        StageLatency(-1.0, 0.0, 0.0)
    # nan < 0 is False, so a plain sign check would let these through
    for field in ("t_obs", "t_gen", "t_exec", "t_pred"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                dataclasses.replace(REFERENCE_PROFILE, **{field: bad})


def test_streaming_event_causality(null_policy):
    env = make_env(DIRECT, 0, step_cap=25)
    sched = SchedulerConfig(mode=MODE_STREAMING)
    res = run_episode(null_policy, None, env, REFERENCE_PROFILE, sched)
    gens = {e.action_index: e for e in _by_stage(res.events, STAGE_GENERATE)}
    execs = {e.action_index: e for e in _by_stage(res.events, STAGE_EXECUTE)}
    obs = sorted(_by_stage(res.events, STAGE_OBSERVE), key=lambda e: e.start)

    for g, ev in execs.items():
        assert gens[g].end <= ev.start + 1e-12, f"action {g} executed before generated"
    by_horizon = {}
    for e in gens.values():
        by_horizon.setdefault(e.horizon_index, []).append(e)
    for ob in obs:
        first_gen = min(by_horizon[ob.horizon_index], key=lambda e: e.start)
        assert ob.end <= first_gen.start + 1e-12

    ordered = sorted(execs.values(), key=lambda e: e.action_index)
    for a, b in zip(ordered, ordered[1:]):
        assert b.action_index == a.action_index + 1
        assert b.start >= a.end - 1e-12, "execute events overlap"


def test_generation_never_runs_h_ahead(null_policy):
    """Bounded action buffer: generating action g waits until action g-h has
    started executing."""
    env = make_env(DIRECT, 1, step_cap=35)
    sched = SchedulerConfig(mode=MODE_STREAMING)
    res = run_episode(null_policy, None, env, REFERENCE_PROFILE, sched)
    gens = {e.action_index: e for e in _by_stage(res.events, STAGE_GENERATE)}
    execs = {e.action_index: e for e in _by_stage(res.events, STAGE_EXECUTE)}
    h = sched.h
    checked = 0
    for g, ev in gens.items():
        if g >= h and (g - h) in execs:
            assert ev.start >= execs[g - h].start - 1e-12
            checked += 1
    assert checked > 10


def test_final_alpha_is_exact_ordered_sum(null_policy):
    for mode, kw in ((MODE_STREAMING, {}), (MODE_SYNC_CHUNK, {"n_replan": 5})):
        env = make_env(DIRECT, 2, step_cap=23)
        sched = SchedulerConfig(mode=mode, **kw)
        res = run_episode(null_policy, None, env, ZERO_LATENCY, sched)
        alpha = null_policy.initial_alpha(env.init_state.position).copy()
        for a in res.actions_norm:
            alpha = alpha + a
        assert np.array_equal(res.final_alpha, alpha)
        assert len(res.actions_norm) == res.steps


def test_sync_replan_semantics(null_policy):
    env = make_env(DIRECT, 3, step_cap=20)
    sched = SchedulerConfig(mode=MODE_SYNC_CHUNK, n_replan=5)
    res = run_episode(null_policy, None, env, REFERENCE_PROFILE, sched)
    assert res.steps == 20 and res.n_horizons == 4
    execs = sorted(_by_stage(res.events, STAGE_EXECUTE), key=lambda e: e.start)
    # executed indices are contiguous: the unexecuted chunk tail is replanned
    assert [e.action_index for e in execs] == list(range(20))
    for h_idx in range(4):
        gens = [e for e in res.events if e.stage == STAGE_GENERATE and e.horizon_index == h_idx]
        assert len(gens) == 10
        hx = [e for e in execs if e.horizon_index == h_idx]
        assert len(hx) == 5
        # nothing overlaps in sync mode: every generate of this chunk ends
        # before its first execution starts
        first_exec = min(e.start for e in hx)
        assert all(g.end <= first_exec + 1e-12 for g in gens)


def test_eo_snapshot_taken_at_decision_point():
    """With early observation firing every horizon, horizon k+1 is generated
    from the state after exactly h - n_eo executions of horizon k, and the
    observation launches at the decision action's execution start."""
    n_eo = 3
    c = np.array([0.01, 0.01])
    policy = _ConstPolicy(c)
    env = make_env(DIRECT, 4, step_cap=25)
    sched = SchedulerConfig(mode=MODE_STREAMING, eo=Indicator(mode="naive"), n_eo=n_eo)
    res = run_episode(policy, None, env, REFERENCE_PROFILE, sched)
    assert res.steps == 25 and res.n_horizons == 3

    execs = {e.action_index: e for e in _by_stage(res.events, STAGE_EXECUTE)}
    obs = sorted(_by_stage(res.events, STAGE_OBSERVE), key=lambda e: e.start)
    h = sched.h
    for k in range(res.n_horizons - 1):
        decision_g = k * h + h - n_eo
        assert obs[k + 1].start == execs[decision_g].start

    # bitwise check of what the policy saw: position advances by c per step
    seen_steps = [0] + [k * h + h - n_eo for k in range(res.n_horizons - 1)]
    for features, n in zip(policy.seen, seen_steps):
        expect = env.init_state.position.copy()
        for _ in range(n):
            expect = expect + c
        assert np.array_equal(features[:2], expect), n


def test_no_eo_snapshot_is_fresh():
    c = np.array([0.01, 0.01])
    policy = _ConstPolicy(c)
    env = make_env(DIRECT, 4, step_cap=25)
    res = run_episode(policy, None, env, REFERENCE_PROFILE, SchedulerConfig(mode=MODE_STREAMING))
    for k, features in enumerate(policy.seen):
        expect = env.init_state.position.copy()
        for _ in range(k * 10):
            expect = expect + c
        assert np.array_equal(features[:2], expect)


def test_eo_counters(null_policy):
    env = make_env(DIRECT, 5, step_cap=25)
    naive = SchedulerConfig(mode=MODE_STREAMING, eo=Indicator(mode="naive"), n_eo=3)
    res = run_episode(null_policy, None, env, REFERENCE_PROFILE, naive)
    # horizon 2 hits the step cap before its decision point
    assert res.eo_decisions == 2
    assert res.eo_fired == 2

    never = SchedulerConfig(mode=MODE_STREAMING, eo=Indicator(mode="random", p=0.0), n_eo=3)
    res2 = run_episode(null_policy, None, env, REFERENCE_PROFILE, never)
    assert res2.eo_fired == 0 and res2.eo_decisions == 2


def test_simulated_runs_are_deterministic(null_policy):
    env = make_env(DIRECT, 6, step_cap=25)
    sched = SchedulerConfig(mode=MODE_STREAMING, eo=Indicator(mode="random", p=0.5), n_eo=2, seed=9)
    r1 = run_episode(null_policy, None, env, REFERENCE_PROFILE, sched)
    r2 = run_episode(null_policy, None, env, REFERENCE_PROFILE, sched)
    assert r1.events == r2.events
    assert np.array_equal(r1.actions_raw, r2.actions_raw)
    assert r1.eo_fired == r2.eo_fired


def test_recorded_trajectory_validates(null_policy):
    env = make_env(DIRECT, 7, step_cap=23)
    res = run_episode(null_policy, None, env, ZERO_LATENCY,
                      SchedulerConfig(mode=MODE_STREAMING), record_trajectory=True)
    res.trajectory.validate()
    assert len(res.trajectory) == res.steps


@pytest.mark.wall_clock
def test_wall_execute_events_never_overlap(null_policy):
    env = make_env(DIRECT, 8, step_cap=22)
    for sched in (SchedulerConfig(mode=MODE_STREAMING, eo=Indicator(mode="naive"), n_eo=3),
                  SchedulerConfig(mode=MODE_SYNC_CHUNK, n_replan=5)):
        res = run_episode(null_policy, None, env, FAST_PROFILE, sched, clock="wall")
        execs = sorted(_by_stage(res.events, STAGE_EXECUTE), key=lambda e: e.start)
        assert len(execs) == 22
        for a, b in zip(execs, execs[1:]):
            assert b.start >= a.end - 1e-9, (sched.mode, a, b)


@pytest.mark.wall_clock
@pytest.mark.parametrize("n_replan", [1, 5, 10])
def test_wall_sync_chunk_runs_one_stage_at_a_time(null_policy, n_replan):
    """Nothing in a sync chunk overlaps on the wall clock: the executor gets
    a chunk's actions only after its last generation and requests the next
    observation after its last execution. The actions are the simulated
    clock's."""
    sched = SchedulerConfig(mode=MODE_SYNC_CHUNK, n_replan=n_replan)
    env = make_env(DIRECT, 23, step_cap=22)
    res = run_episode(null_policy, None, env, FAST_PROFILE, sched, clock="wall")
    events = sorted(res.events, key=lambda e: e.start)
    assert len(_by_stage(events, STAGE_GENERATE)) == res.n_horizons * sched.h
    assert len(_by_stage(events, STAGE_OBSERVE)) == res.n_horizons
    for a, b in zip(events, events[1:]):
        assert b.start >= a.end - 1e-9, (a, b)
    sim = run_episode(null_policy, None, env, FAST_PROFILE, sched)
    _assert_results_identical(res, sim, events=False)


@pytest.mark.wall_clock
@pytest.mark.parametrize("sched", [
    SchedulerConfig(mode=MODE_STREAMING, eo=Indicator(mode="naive"), n_eo=3),
    SchedulerConfig(mode=MODE_STREAMING, eo=Indicator(mode="random", p=0.5), n_eo=3),
    SchedulerConfig(mode=MODE_SYNC_CHUNK, n_replan=5),
], ids=["streaming_naive", "streaming_random", "sync_replan5"])
def test_wall_matches_simulated_actions(null_policy, sched):
    env = make_env(DIRECT, 9, step_cap=22)
    sim = run_episode(null_policy, None, env, FAST_PROFILE, sched)
    wall = run_episode(null_policy, None, env, FAST_PROFILE, sched, clock="wall")
    assert np.array_equal(sim.actions_raw, wall.actions_raw)
    assert np.array_equal(sim.final_alpha, wall.final_alpha)
    assert sim.success == wall.success and sim.steps == wall.steps
    assert (sim.eo_decisions, sim.eo_fired) == (wall.eo_decisions, wall.eo_fired)


@pytest.mark.wall_clock
def test_wall_overlap_matches_simulated(null_policy):
    """Wall-clock overlap accounting lands near the discrete-event schedule.
    Sleep jitter puts a floor on the achievable agreement, hence the loose
    relative tolerance."""
    sched = SchedulerConfig(mode=MODE_STREAMING, eo=Indicator(mode="naive"), n_eo=3)
    env = make_env(DIRECT, 10, step_cap=30)
    sim = metrics.measure(run_episode(null_policy, None, env, FAST_PROFILE, sched).events)
    wall = metrics.measure(run_episode(null_policy, None, env, FAST_PROFILE, sched, clock="wall").events)
    assert wall.o_ge_per_horizon == pytest.approx(sim.o_ge_per_horizon, rel=0.2, abs=2.0)
    assert wall.o_oe_per_horizon == pytest.approx(sim.o_oe_per_horizon, rel=0.2, abs=2.0)


# ---------------------------------------------------------------------------
# lazy generation on the simulated clock against the eager reference: the
# two engine loops below generate every horizon's h actions up front, as the
# simulated clock once did. The engines now compute an action only when it is
# executed or scored, and must give the same results bit for bit.
# ---------------------------------------------------------------------------

def _eager_streaming(policy: Policy, predictor, env: EnvHandle, stage: StageLatency,
                     scheduler: SchedulerConfig, record_trajectory: bool) -> EpisodeResult:
    h = scheduler.h
    kind = env.kind
    state = env.init_state
    ind_rng = make_rng(scheduler.seed, STREAM_INDICATOR, getattr(env, "episode_id", 0))

    alpha0_norm = policy.initial_alpha(state.position)
    alpha_exec = alpha0_norm.copy()
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

    while not ended:
        obs = envsim.observe(snapshot, capture_time=obs_start)
        obs_end = obs_start + stage.t_obs
        events.append(TimelineEvent(STAGE_OBSERVE, base, horizon, obs_start, obs_end))

        # generate all h actions of the horizon on the serial generator lane;
        # the queue-capacity constraint keeps the lane from running more than
        # h actions ahead of execution
        gen_end = np.empty(h)
        acts_norm = np.empty((h, alpha_exec.shape[0]))
        acts_raw = np.empty_like(acts_norm)
        gen_alpha = alpha_exec.copy()
        lane = max(gen_lane, obs_end)
        for i in range(h):
            g = base + i
            start = lane
            if g >= h:
                start = max(start, exec_starts[g - h])
            end = start + stage.t_gen
            events.append(TimelineEvent(STAGE_GENERATE, g, horizon, start, end))
            a_norm, a_raw = policy.action(gen_alpha, i, obs.features)
            gen_alpha = gen_alpha + a_norm
            acts_norm[i] = a_norm
            acts_raw[i] = a_raw
            gen_end[i] = end
            lane = end
        gen_lane = lane

        decision_idx = h - scheduler.n_eo if scheduler.eo is not None else None
        fired = False
        next_obs_start: float | None = None
        next_snapshot = None

        for i in range(h):
            g = base + i
            start = gen_end[i] if prev_exec_end is None else max(gen_end[i], prev_exec_end)
            end = start + stage.t_exec

            if decision_idx is not None and i == decision_idx \
                    and (horizon + 1) * h < env.step_cap:
                # n_eo executions remain; score against the current frame and
                # the still-pending actions, launching the next observation
                # right here when the indicator fires. Skipped when the step
                # cap makes this horizon the last: there is no boundary for
                # an early observation to hide.
                remaining = acts_raw[i:]
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
            state = envsim.step(kind, state, acts_raw[i])
            executed_raw.append(acts_raw[i])
            executed_norm.append(acts_norm[i])
            alpha_exec = alpha_exec + acts_norm[i]
            steps += 1
            if envsim.success(state):
                succeeded = True
                ended = True
                break
            if steps >= env.step_cap:
                ended = True
                break

        horizon += 1
        base += h
        if not ended:
            if not fired:
                next_obs_start = prev_exec_end
                next_snapshot = state
            obs_start = next_obs_start
            snapshot = next_snapshot

    traj_parts = (record_obs, alpha0_raw) if record_trajectory else None
    return _finish(succeeded, events, executed_raw, executed_norm, alpha_exec, state,
                   horizon, eo_fired_count, steps, traj_parts, eo_decision_count)


def _eager_sync(policy: Policy, predictor, env: EnvHandle, stage: StageLatency,
                scheduler: SchedulerConfig, record_trajectory: bool) -> EpisodeResult:
    h, n_rep = scheduler.h, scheduler.replan
    kind = env.kind
    state = env.init_state

    alpha0_norm = policy.initial_alpha(state.position)
    alpha_exec = alpha0_norm.copy()
    events: list[TimelineEvent] = []
    executed_raw: list[np.ndarray] = []
    executed_norm: list[np.ndarray] = []
    record_obs = [] if record_trajectory else None
    alpha0_raw = envsim.alpha0_for(kind, state)

    t = 0.0
    base = 0
    horizon = 0
    steps = 0
    succeeded = False
    ended = False

    while not ended:
        obs = envsim.observe(state, capture_time=t)
        obs_end = t + stage.t_obs
        events.append(TimelineEvent(STAGE_OBSERVE, base, horizon, t, obs_end))

        # full chunk generated before anything executes; the tail beyond
        # n_replan is planned but replaced by the next chunk (its generate
        # events share the indices the next chunk will execute)
        gen_alpha = alpha_exec.copy()
        acts_norm = np.empty((h, alpha_exec.shape[0]))
        acts_raw = np.empty_like(acts_norm)
        lane = obs_end
        for i in range(h):
            end = lane + stage.t_gen
            events.append(TimelineEvent(STAGE_GENERATE, base + i, horizon, lane, end))
            a_norm, a_raw = policy.action(gen_alpha, i, obs.features)
            gen_alpha = gen_alpha + a_norm
            acts_norm[i] = a_norm
            acts_raw[i] = a_raw
            lane = end

        exec_start = lane
        for i in range(n_rep):
            end = exec_start + stage.t_exec
            events.append(TimelineEvent(STAGE_EXECUTE, base + i, horizon, exec_start, end))
            if record_obs is not None:
                record_obs.append(envsim.observe(state, capture_time=float(state.step_count)))
            state = envsim.step(kind, state, acts_raw[i])
            executed_raw.append(acts_raw[i])
            executed_norm.append(acts_norm[i])
            alpha_exec = alpha_exec + acts_norm[i]
            exec_start = end
            steps += 1
            if envsim.success(state):
                succeeded = True
                ended = True
                break
            if steps >= env.step_cap:
                ended = True
                break

        t = exec_start
        horizon += 1
        base += n_rep

    traj_parts = (record_obs, alpha0_raw) if record_trajectory else None
    return _finish(succeeded, events, executed_raw, executed_norm, alpha_exec, state,
                   horizon, 0, steps, traj_parts)


GENERATOR_BOUND = StageLatency(t_obs=2.0, t_gen=4.0, t_exec=1.0, t_pred=0.5)
N_EO = 3


@pytest.fixture(scope="module")
def calibrated_etas(ctrl_policy, ctrl_predictor):
    """anao and adaptive thresholds that fire on about half the decisions."""
    trajs = streamexec.calibration_trajectories(ctrl_policy, CTRL, 1, 6, 42)
    return {mode: saliency.calibrate_threshold(
                saliency.decision_scores(ctrl_predictor, trajs, ctrl_policy.flow.h, N_EO, mode), 0.5)
            for mode in (saliency.EO_ACTION_NORM, saliency.EO_ADAPTIVE)}


def _grid_schedulers(etas):
    out = [SchedulerConfig(mode=MODE_SYNC_CHUNK, n_replan=n, seed=3) for n in (10, 1, 5)]
    out.append(SchedulerConfig(mode=MODE_STREAMING, seed=3))
    for ind in (Indicator(mode=saliency.EO_NAIVE), Indicator(mode=saliency.EO_RANDOM, p=0.5),
                Indicator(mode=saliency.EO_ACTION_NORM, eta=etas[saliency.EO_ACTION_NORM]),
                Indicator(mode=saliency.EO_ADAPTIVE, eta=etas[saliency.EO_ADAPTIVE])):
        out.append(SchedulerConfig(mode=MODE_STREAMING, eo=ind, n_eo=N_EO, seed=3))
    return out


def _assert_results_identical(a: EpisodeResult, b: EpisodeResult, events: bool = True):
    """Bitwise equal results; events=False skips the event logs and the
    overrun count, whose wall-clock times differ from run to run."""
    if events:
        assert a.events == b.events
    for name in ("actions_raw", "actions_norm", "final_alpha"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert a.final_state.position.tobytes() == b.final_state.position.tobytes()
    assert a.final_state.goal.tobytes() == b.final_state.goal.tobytes()
    assert (a.final_state.latch, a.final_state.step_count) == (b.final_state.latch, b.final_state.step_count)
    assert (a.success, a.n_horizons, a.eo_fired, a.eo_decisions, a.steps) == \
        (b.success, b.n_horizons, b.eo_fired, b.eo_decisions, b.steps)
    if events:
        assert a.overruns == b.overruns
    assert (a.trajectory is None) == (b.trajectory is None)
    if a.trajectory is not None:
        ta, tb = a.trajectory, b.trajectory
        assert ta.actions.tobytes() == tb.actions.tobytes()
        assert ta.action_states.tobytes() == tb.action_states.tobytes()
        assert len(ta.observations) == len(tb.observations)
        for oa, ob in zip(ta.observations, tb.observations):
            assert oa.features.tobytes() == ob.features.tobytes()
            assert (oa.frame_id, oa.capture_time) == (ob.frame_id, ob.capture_time)


@pytest.mark.parametrize("stage", [ZERO_LATENCY, REFERENCE_PROFILE, GENERATOR_BOUND],
                         ids=["zero", "reference", "generator_bound"])
def test_lazy_generation_matches_eager_reference(stage, ctrl_policy, ctrl_predictor, calibrated_etas):
    covered = {"success": 0, "cap_mid_horizon": 0, "fired": 0, "held": 0}
    for sched in _grid_schedulers(calibrated_etas):
        eager = _eager_streaming if sched.mode == MODE_STREAMING else _eager_sync
        for cap in (7, 23, 42, 120):
            for record in (False, True):
                for ep in range(2):
                    env = make_env(CTRL, 0, ep, step_cap=cap)
                    got = run_episode(ctrl_policy, ctrl_predictor, env, stage, sched,
                                      record_trajectory=record)
                    want = eager(ctrl_policy, ctrl_predictor, env, stage, sched, record)
                    _assert_results_identical(got, want)
                    covered["success"] += got.success
                    covered["cap_mid_horizon"] += (not got.success and cap % sched.replan != 0)
                    covered["fired"] += got.eo_fired
                    covered["held"] += got.eo_decisions - got.eo_fired
    assert all(covered.values()), covered


def test_run_episodes_yields_each_handles_result_in_order(ctrl_policy, ctrl_predictor,
                                                         calibrated_etas):
    """The sweep gives, handle by handle and in order, the results of direct
    run_episode calls on the simulated clock, field for field."""
    envs = [make_env(CTRL, 5, ep, step_cap=cap) for ep, cap in enumerate((7, 42, 120))]
    for sched in _grid_schedulers(calibrated_etas):
        for record in (False, True):
            want = [run_episode(ctrl_policy, ctrl_predictor, env, REFERENCE_PROFILE, sched,
                                record_trajectory=record) for env in envs]
            got = list(streamexec.run_episodes(ctrl_policy, ctrl_predictor, iter(envs),
                                               REFERENCE_PROFILE, sched, record_trajectory=record))
            assert len(got) == len(want)
            for g, w in zip(got, want):
                _assert_results_identical(g, w)


def _counting_run_episode(monkeypatch, seen):
    """Install a wrapper on streamexec.run_episode, as a benchmark harness
    does, that appends (episode id, clock, record_trajectory) to seen."""
    real = streamexec.run_episode

    def wrapper(policy, predictor, env, stage, scheduler, clock="simulated",
                record_trajectory=False):
        seen.append((env.episode_id, clock, record_trajectory))
        return real(policy, predictor, env, stage, scheduler, clock=clock,
                    record_trajectory=record_trajectory)

    monkeypatch.setattr(streamexec, "run_episode", wrapper)


def test_run_episodes_runs_each_episode_as_its_result_is_taken(null_policy, monkeypatch):
    """run_episode is looked up at each episode, so a wrapper installed
    midway through a sweep sees every later one, and each runs only when the
    caller takes its result."""
    envs = [make_env(DIRECT, 6, ep, step_cap=12) for ep in range(4)]
    sweep = streamexec.run_episodes(null_policy, None, envs, ZERO_LATENCY, SchedulerConfig())
    next(sweep)
    seen = []
    _counting_run_episode(monkeypatch, seen)
    next(sweep)
    assert seen == [(1, "simulated", False)]
    assert len(list(sweep)) == 2
    assert seen == [(ep, "simulated", False) for ep in (1, 2, 3)]


def _assert_same_trajectories(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.actions.shape == w.actions.shape and g.actions.tobytes() == w.actions.tobytes()
        assert g.action_states.tobytes() == w.action_states.tobytes()
        assert [o.features.tobytes() for o in g.observations] == \
            [o.features.tobytes() for o in w.observations]
        assert [(o.frame_id, o.capture_time) for o in g.observations] == \
            [(o.frame_id, o.capture_time) for o in w.observations]


def _recorded_plain_streaming(policy, envs):
    """The trajectories run_episode records for envs under plain streaming at
    zero latency, the reference calibration rollouts must equal."""
    sched = SchedulerConfig(mode=MODE_STREAMING, h=policy.flow.h)
    return [run_episode(policy, None, env, ZERO_LATENCY, sched, record_trajectory=True).trajectory
            for env in envs]


def test_calibration_trajectories_record_plain_streaming_at_zero_latency(ctrl_policy, direct_policy):
    """The lockstep calibration rollouts are, episode for episode and byte
    for byte, the trajectories run_episode records under plain streaming at
    zero latency with no predictor: on both variants, at caps below h, at h
    multiples and mid-horizon, for 0, 1 and 100 episodes."""
    covered = {"success": 0, "capped": 0}
    for policy, kind in ((ctrl_policy, CTRL), (direct_policy, DIRECT)):
        for cap in (1, 7, 23, 42, 120):
            for episodes in (0, 1, 100):
                got = streamexec.calibration_trajectories(policy, kind, 4, episodes, cap)
                want = _recorded_plain_streaming(
                    policy, [make_env(kind, 4, ep, step_cap=cap) for ep in range(episodes)])
                _assert_same_trajectories(got, want)
                covered["success"] += sum(len(t) < cap for t in got)
                covered["capped"] += sum(len(t) == cap for t in got)
    assert all(covered.values()), covered


def test_lockstep_rows_that_succeed_inside_their_first_horizon_drop_out(direct_policy):
    """Rows that succeed before index h leave the batch mid-horizon, and the
    rows still running keep their bits: two latched start states short of
    the goal next to ordinary ones."""
    h = direct_policy.flow.h
    starts = [make_env(DIRECT, 8, ep, step_cap=42).init_state for ep in range(6)]
    for b, offset in ((1, 0.1), (4, 0.8)):
        goal = starts[b].goal + envsim.LATCH_SHIFT
        starts[b] = envsim.EnvState(goal - offset, goal, True, 0)
    got = streamexec.lockstep_trajectories(direct_policy, DIRECT, starts, 42)
    want = _recorded_plain_streaming(direct_policy, [EnvHandle(DIRECT, s, step_cap=42) for s in starts])
    _assert_same_trajectories(got, want)
    assert len(got[1]) < len(got[4]) < h
    assert all(len(got[b]) > h for b in (0, 2, 3, 5))


@pytest.mark.parametrize("episodes,cap", [(-1, 10), (0, 0), (3, 0), (0, -5)])
def test_calibration_trajectories_reject_bad_counts(null_policy, episodes, cap):
    """A negative episode count or a step cap below 1 raises, also when no
    episode would run."""
    with pytest.raises(ValueError):
        streamexec.calibration_trajectories(null_policy, DIRECT, 0, episodes, cap)


def _wall_grid_schedulers(etas):
    """The grid's schedules whose executed actions the wall clock reproduces:
    anao and adaptive score what the wall generator has made by then."""
    return [s for s in _grid_schedulers(etas)
            if s.eo is None or s.eo.mode in (saliency.EO_NAIVE, saliency.EO_RANDOM)]


@pytest.mark.wall_clock
def test_wall_chunk_path_matches_eager_reference(ctrl_policy, ctrl_predictor, calibrated_etas):
    """Both wall runners generate through the same prepared chunk as the
    simulated clock, carrying its ledger from horizon to horizon: everything
    but the wall-clock event times equals the eager reference bit for bit."""
    covered = {"success": 0, "cap_mid_horizon": 0, "fired": 0}
    for sched in _wall_grid_schedulers(calibrated_etas):
        eager = _eager_streaming if sched.mode == MODE_STREAMING else _eager_sync
        for cap in (7, 23, 42):
            for record in (False, True):
                for ep in range(2):
                    env = make_env(CTRL, 0, ep, step_cap=cap)
                    got = run_episode(ctrl_policy, ctrl_predictor, env, ZERO_LATENCY, sched,
                                      clock="wall", record_trajectory=record)
                    want = eager(ctrl_policy, ctrl_predictor, env, ZERO_LATENCY, sched, record)
                    _assert_results_identical(got, want, events=False)
                    covered["success"] += got.success
                    covered["cap_mid_horizon"] += (not got.success and cap % sched.replan != 0)
                    covered["fired"] += got.eo_fired
    assert all(covered.values()), covered


def test_final_alpha_is_the_resummed_ledger_on_every_schedule(ctrl_policy, ctrl_predictor,
                                                              calibrated_etas):
    """The engine hands its running ledger to the result; it is alpha0 plus
    the executed actions summed in order, bit for bit."""
    scheds = _grid_schedulers(calibrated_etas)
    assert len(scheds) == 8
    for sched in scheds:
        for stage in (ZERO_LATENCY, REFERENCE_PROFILE):
            for cap in (7, 23, 120):
                env = make_env(CTRL, 2, cap, step_cap=cap)
                res = run_episode(ctrl_policy, ctrl_predictor, env, stage, sched)
                alpha = ctrl_policy.initial_alpha(env.init_state.position)
                for a in res.actions_norm:
                    alpha = alpha + a
                assert res.final_alpha.tobytes() == alpha.tobytes()


@pytest.mark.parametrize("clock, mode", [
    ("simulated", MODE_STREAMING), ("simulated", MODE_SYNC_CHUNK),
    pytest.param("wall", MODE_STREAMING, marks=pytest.mark.wall_clock),
    pytest.param("wall", MODE_SYNC_CHUNK, marks=pytest.mark.wall_clock)])
def test_wrong_observation_dimension_raises(null_policy, clock, mode):
    """A policy trained on 5 observation features cannot run on the 7 the
    environment gives; preparing the first horizon says so."""
    model = init_velocity_model(2, 5, (8,), rng=make_rng(0, 1))
    policy = Policy(model=model, stats=null_policy.stats, flow=null_policy.flow)
    with pytest.raises(DimensionMismatchError, match="obs dim 7 != 5"):
        run_episode(policy, None, make_env(DIRECT, 17, step_cap=5), ZERO_LATENCY,
                    SchedulerConfig(mode=mode), clock=clock)


def test_assert_results_identical_covers_every_field():
    """The shared-horizon tests compare results field by field; a new
    EpisodeResult field must be added to _assert_results_identical."""
    assert [f.name for f in dataclasses.fields(EpisodeResult)] == [
        "success", "events", "actions_raw", "actions_norm", "final_alpha", "final_state",
        "n_horizons", "eo_fired", "steps", "trajectory", "eo_decisions", "overruns"]


def _count_forward_passes(monkeypatch) -> list:
    """Counts velocitynet.forward calls, the one forward pass of each
    computed action on the prepared path every Policy takes."""
    calls = []
    real = velocitynet.forward

    def counting_forward(*args, **kwargs):
        calls.append(kwargs.get("prepared") is not None)
        return real(*args, **kwargs)

    monkeypatch.setattr(velocitynet, "forward", counting_forward)
    return calls


@pytest.mark.parametrize("sched", [
    SchedulerConfig(mode=MODE_SYNC_CHUNK, n_replan=5),
    SchedulerConfig(mode=MODE_STREAMING),
    SchedulerConfig(mode=MODE_STREAMING, eo=Indicator(mode="naive"), n_eo=3),
    SchedulerConfig(mode=MODE_STREAMING, eo=Indicator(mode="random", p=0.5), n_eo=3),
], ids=["sync_replan5", "streaming", "streaming_naive", "streaming_random"])
@pytest.mark.parametrize("cap", [7, 23, 42])
def test_simulated_clock_computes_only_executed_actions(monkeypatch, null_policy, sched, cap):
    """Indicators that never read the remaining actions leave no action
    computed that is not executed; every planned action keeps its generate
    event."""
    calls = _count_forward_passes(monkeypatch)
    res = run_episode(null_policy, None, make_env(DIRECT, 11, step_cap=cap), REFERENCE_PROFILE, sched)
    assert res.steps == cap
    assert len(calls) == res.steps and all(calls)
    assert len(_by_stage(res.events, STAGE_GENERATE)) == res.n_horizons * sched.h


@pytest.mark.wall_clock
@pytest.mark.parametrize("sched, calls", [
    (SchedulerConfig(mode=MODE_SYNC_CHUNK, n_replan=5), 0),
    (SchedulerConfig(mode=MODE_STREAMING), 0),
    (SchedulerConfig(mode=MODE_STREAMING, eo=Indicator(mode="naive"), n_eo=3), 1),
], ids=["sync_replan5", "streaming", "streaming_naive"])
def test_indicator_stream_is_built_only_with_early_observation(monkeypatch, null_policy, sched, calls):
    made = []

    def counting_make_rng(*key):
        made.append(key)
        return make_rng(*key)

    monkeypatch.setattr(streamexec, "make_rng", counting_make_rng)
    run_episode(null_policy, None, make_env(DIRECT, 15, step_cap=23), REFERENCE_PROFILE, sched)
    assert len(made) == calls
    # the wall runner's executor, in both modes
    made.clear()
    run_episode(null_policy, None, make_env(DIRECT, 15, step_cap=23), FAST_PROFILE, sched,
                clock="wall")
    assert len(made) == calls


@pytest.mark.parametrize("sched", [
    SchedulerConfig(mode=MODE_SYNC_CHUNK, n_replan=5),
    SchedulerConfig(mode=MODE_STREAMING, eo=Indicator(mode="naive"), n_eo=3),
], ids=["sync_replan5", "streaming_naive"])
def test_simulated_trace_csv_round_trips(tmp_path, null_policy, sched):
    """Event times are plain floats, so the CSV trace reads back equal."""
    res = run_episode(null_policy, None, make_env(DIRECT, 16, step_cap=23), REFERENCE_PROFILE, sched)
    assert all(type(t) is float for e in res.events for t in (e.start, e.end))
    path = tmp_path / "trace.csv"
    metrics.write_trace_csv(path, res.events)
    assert metrics.read_trace_csv(path) == res.events


def test_scored_indicator_reads_the_whole_remaining_tail(monkeypatch, null_policy):
    """An anao decision scores the n_eo remaining actions of its horizon,
    computed before they execute, with the values that then execute."""
    scored = []

    def recording_score(remaining):
        scored.append(np.array(remaining))
        return 1.0

    monkeypatch.setattr(saliency, "action_norm_score", recording_score)
    sched = SchedulerConfig(mode=MODE_STREAMING, eo=Indicator(mode="action_norm", eta=0.0), n_eo=3)
    calls = _count_forward_passes(monkeypatch)
    # decision at step 7 of horizon 0; the cap leaves horizon 1 without one
    res = run_episode(null_policy, None, make_env(DIRECT, 12, step_cap=18), ZERO_LATENCY, sched)
    assert res.steps == 18 and res.eo_decisions == 1 and res.eo_fired == 0
    assert len(scored) == 1
    assert scored[0].tobytes() == res.actions_raw[7:10].tobytes()
    assert len(calls) == res.steps and all(calls)


@pytest.mark.wall_clock
def test_wall_scored_indicator_reads_the_whole_remaining_tail(monkeypatch, null_policy):
    """On the wall clock an anao decision scores what the generator has
    released of its horizon by the decision. With generation far faster than
    execution that is the whole horizon, so it scores exactly the n_eo
    actions that then execute."""
    scored = []

    def recording_score(remaining):
        scored.append(np.array(remaining))
        return 1.0

    monkeypatch.setattr(saliency, "action_norm_score", recording_score)
    sched = SchedulerConfig(mode=MODE_STREAMING, eo=Indicator(mode="action_norm", eta=0.0), n_eo=3)
    stage = StageLatency(t_obs=1.0, t_gen=0.2, t_exec=4.0, t_pred=0.0)
    # decision at step 7 of horizon 0; the cap leaves horizon 1 without one
    res = run_episode(null_policy, None, make_env(DIRECT, 12, step_cap=18), stage, sched,
                      clock="wall")
    assert res.steps == 18 and res.eo_decisions == 1 and res.eo_fired == 0
    assert len(scored) == 1
    assert scored[0].shape == (3, 2)
    assert scored[0].tobytes() == res.actions_raw[7:10].tobytes()


# ---------------------------------------------------------------------------
# shared horizons: inside a shared_horizons() scope an identical horizon is
# computed once, an env path from one start state is stepped once, and every
# result is the unshared one bit for bit
# ---------------------------------------------------------------------------

def _grid_cells(etas, share_envs: bool = False):
    """The grid's cells. With share_envs every cell of one episode and cap
    runs on one EnvHandle, as bench's schedules do; otherwise each cell
    gets a fresh handle."""
    handles: dict[tuple[int, int], EnvHandle] = {}
    for sched in _grid_schedulers(etas):
        for cap in (7, 23, 42, 120):
            for record in (False, True):
                for ep in range(2):
                    env = make_env(CTRL, 0, ep, step_cap=cap)
                    if share_envs:
                        env = handles.setdefault((ep, cap), env)
                    yield sched, env, record


def _count_env_steps(monkeypatch) -> list:
    """Counts envsim.step calls, one list entry each."""
    calls = []
    real = envsim.step

    def counting_step(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(envsim, "step", counting_step)
    return calls


@pytest.mark.parametrize("stage", [ZERO_LATENCY, REFERENCE_PROFILE, GENERATOR_BOUND],
                         ids=["zero", "reference", "generator_bound"])
def test_shared_horizons_match_unshared_on_the_grid(monkeypatch, stage, ctrl_policy,
                                                    ctrl_predictor, calibrated_etas):
    """The lazy-vs-eager grid (8 schedules, caps 7/23/42/120, recording on
    and off) run once unshared and once in one scope: every EpisodeResult
    field agrees byte for byte, events included, for fewer forward passes.
    Every cell has its own EnvHandle, so no env path is shared."""
    calls = _count_forward_passes(monkeypatch)
    steps = _count_env_steps(monkeypatch)
    cells = list(_grid_cells(calibrated_etas))
    want = [run_episode(ctrl_policy, ctrl_predictor, env, stage, sched, record_trajectory=record)
            for sched, env, record in cells]
    unshared = len(calls)
    calls.clear()
    steps.clear()
    with shared_horizons():
        got = [run_episode(ctrl_policy, ctrl_predictor, env, stage, sched, record_trajectory=record)
               for sched, env, record in cells]
    assert len(calls) < unshared
    assert len(steps) == sum(r.steps for r in got)
    for a, b in zip(got, want):
        _assert_results_identical(a, b)


@pytest.mark.parametrize("stage", [ZERO_LATENCY, REFERENCE_PROFILE, GENERATOR_BOUND],
                         ids=["zero", "reference", "generator_bound"])
def test_shared_env_paths_match_unshared_on_the_grid(monkeypatch, stage, ctrl_policy,
                                                     ctrl_predictor, calibrated_etas):
    """The same grid with one EnvHandle per (episode, cap) for every
    schedule, as in bench: in one scope the episodes also share env paths,
    so envsim.step runs strictly fewer times, and every EpisodeResult field
    still agrees byte for byte with the unshared run."""
    steps = _count_env_steps(monkeypatch)
    cells = list(_grid_cells(calibrated_etas, share_envs=True))
    assert len({id(env) for _, env, _ in cells}) == 8
    want = [run_episode(ctrl_policy, ctrl_predictor, env, stage, sched, record_trajectory=record)
            for sched, env, record in cells]
    unshared = len(steps)
    assert unshared == sum(r.steps for r in want)
    steps.clear()
    with shared_horizons():
        got = [run_episode(ctrl_policy, ctrl_predictor, env, stage, sched, record_trajectory=record)
               for sched, env, record in cells]
    assert 0 < len(steps) < unshared
    for a, b in zip(got, want):
        _assert_results_identical(a, b)


def _count_success_tests(monkeypatch) -> list:
    """Counts envsim.success calls, one list entry (the state) each."""
    calls = []
    real = envsim.success

    def counting_success(state):
        calls.append(state)
        return real(state)

    monkeypatch.setattr(envsim, "success", counting_success)
    return calls


def test_a_shared_env_path_keeps_each_states_success_flag(monkeypatch, ctrl_policy,
                                                          ctrl_predictor, calibrated_etas):
    """envsim.success runs once per executed action outside a scope, and
    once per newly stepped state inside one: a state read from a shared env
    path carries its flag. Every EpisodeResult field agrees byte for byte."""
    steps = _count_env_steps(monkeypatch)
    tests = _count_success_tests(monkeypatch)
    cells = list(_grid_cells(calibrated_etas, share_envs=True))
    want = [run_episode(ctrl_policy, ctrl_predictor, env, REFERENCE_PROFILE, sched,
                        record_trajectory=record) for sched, env, record in cells]
    executed = sum(r.steps for r in want)
    assert len(tests) == len(steps) == executed
    assert sum(r.success for r in want) > 0
    steps.clear()
    tests.clear()
    with shared_horizons():
        got = [run_episode(ctrl_policy, ctrl_predictor, env, REFERENCE_PROFILE, sched,
                           record_trajectory=record) for sched, env, record in cells]
    assert 0 < len(tests) == len(steps) < executed
    for a, b in zip(got, want):
        _assert_results_identical(a, b)


def test_an_env_path_is_shared_only_from_the_same_start_state_and_kind(monkeypatch, null_policy):
    """A chunk executed from another start state, or under another EnvKind,
    steps its own environment even where it shares the horizon: here the
    first horizon, whose observation features and starting ledger agree."""
    env = make_env(DIRECT, 23, step_cap=12)
    sched = SchedulerConfig(mode=MODE_STREAMING)
    # the same features, so the same first chunk, but a later step count
    later = EnvHandle(kind=DIRECT, init_state=env.init_state._replace(step_count=5), step_cap=12)
    # the same start state object, under other dynamics
    other_kind = EnvHandle(kind=CTRL, init_state=env.init_state, step_cap=12)
    # the same dynamics in another EnvKind object
    same_variant = EnvHandle(kind=EnvKind(variant=KIND_DIRECT), init_state=env.init_state,
                             step_cap=12)
    variants = (later, other_kind, same_variant)
    want = [run_episode(null_policy, None, e, ZERO_LATENCY, sched) for e in variants]
    steps = _count_env_steps(monkeypatch)
    calls = _count_forward_passes(monkeypatch)
    with shared_horizons():
        run_episode(null_policy, None, env, ZERO_LATENCY, sched)
        for e, w in zip(variants, want):
            steps.clear()
            calls.clear()
            got = run_episode(null_policy, None, e, ZERO_LATENCY, sched)
            assert len(steps) == got.steps == 12
            assert len(calls) < got.steps  # the first horizon is shared
            _assert_results_identical(got, w)
    assert later.init_state.step_count == 5 and want[0].final_state.step_count == 17
    assert want[1].final_state.position.tobytes() != want[2].final_state.position.tobytes()


def test_outside_a_scope_every_episode_steps_its_own_env(monkeypatch, null_policy):
    env = make_env(DIRECT, 24, step_cap=23)
    sched = SchedulerConfig(mode=MODE_SYNC_CHUNK, n_replan=5)
    steps = _count_env_steps(monkeypatch)
    for _ in range(2):
        steps.clear()
        res = run_episode(null_policy, None, env, REFERENCE_PROFILE, sched)
        assert len(steps) == res.steps == 23
    with shared_horizons():
        want = run_episode(null_policy, None, env, REFERENCE_PROFILE, sched)
        steps.clear()
        got = run_episode(null_policy, None, env, REFERENCE_PROFILE, sched)
        assert steps == []
        assert got.final_state is want.final_state  # the scope's own state
    steps.clear()
    res = run_episode(null_policy, None, env, REFERENCE_PROFILE, sched)
    assert len(steps) == res.steps
    assert res.final_state is not want.final_state
    _assert_results_identical(res, got)


def test_a_horizon_extended_by_another_schedule_gives_the_unshared_values(monkeypatch, null_policy):
    """sync_replan5 computes the first 5 actions of the first horizon; the
    streaming run that follows in the same scope reads them and computes the
    other 5 itself, and its result is the unshared one."""
    env = make_env(DIRECT, 18, step_cap=23)
    replan5 = SchedulerConfig(mode=MODE_SYNC_CHUNK, n_replan=5)
    streaming = SchedulerConfig(mode=MODE_STREAMING)
    want = run_episode(null_policy, None, env, REFERENCE_PROFILE, streaming)
    calls = _count_forward_passes(monkeypatch)
    with shared_horizons():
        run_episode(null_policy, None, env, REFERENCE_PROFILE, replan5)
        first = next(iter(streamexec._SHARED_HORIZONS.get().values()))
        assert len(first.norm) == 5
        calls.clear()
        got = run_episode(null_policy, None, env, REFERENCE_PROFILE, streaming)
        assert len(first.norm) == 10
    # the rest of the streaming episode observes states sync_replan5 never did
    assert got.steps == 23 and len(calls) == got.steps - 5
    _assert_results_identical(got, want)


def test_shared_horizons_scope_resets_after_an_exception_and_nests(null_policy):
    env = make_env(DIRECT, 19, step_cap=12)
    sched = SchedulerConfig(mode=MODE_STREAMING)
    assert streamexec._SHARED_HORIZONS.get() is None
    with pytest.raises(RuntimeError, match="inside the scope"):
        with shared_horizons():
            run_episode(null_policy, None, env, ZERO_LATENCY, sched)
            assert len(streamexec._SHARED_HORIZONS.get()) == 2
            raise RuntimeError("inside the scope")
    assert streamexec._SHARED_HORIZONS.get() is None

    with shared_horizons():
        outer = streamexec._SHARED_HORIZONS.get()
        run_episode(null_policy, None, env, ZERO_LATENCY, sched)
        held = dict(outer)
        with shared_horizons():
            inner = streamexec._SHARED_HORIZONS.get()
            assert inner == {} and inner is not outer
            run_episode(null_policy, None, make_env(DIRECT, 20, step_cap=12), ZERO_LATENCY, sched)
            assert len(inner) == 2
        assert streamexec._SHARED_HORIZONS.get() is outer
        assert outer.keys() == held.keys()
        assert all(outer[k] is held[k] for k in held)
    assert streamexec._SHARED_HORIZONS.get() is None


def test_outside_a_scope_every_episode_computes_its_own_horizons(monkeypatch, null_policy):
    env = make_env(DIRECT, 21, step_cap=23)
    sched = SchedulerConfig(mode=MODE_STREAMING)
    calls = _count_forward_passes(monkeypatch)
    for _ in range(2):
        calls.clear()
        res = run_episode(null_policy, None, env, REFERENCE_PROFILE, sched)
        assert len(calls) == res.steps == 23
    with shared_horizons():
        run_episode(null_policy, None, env, REFERENCE_PROFILE, sched)
        calls.clear()
        run_episode(null_policy, None, env, REFERENCE_PROFILE, sched)
        assert calls == []
    calls.clear()
    res = run_episode(null_policy, None, env, REFERENCE_PROFILE, sched)
    assert len(calls) == res.steps


@pytest.mark.wall_clock
def test_the_wall_clock_never_shares(monkeypatch, null_policy):
    env = make_env(DIRECT, 22, step_cap=7)
    calls = _count_forward_passes(monkeypatch)
    with shared_horizons():
        for _ in range(2):
            calls.clear()
            run_episode(null_policy, None, env, ZERO_LATENCY, SchedulerConfig(mode=MODE_SYNC_CHUNK),
                        clock="wall")
            assert len(calls) == 10  # the whole chunk, each action inside its t_gen
        assert streamexec._SHARED_HORIZONS.get() == {}


# ---------------------------------------------------------------------------
# wall-clock runner
# ---------------------------------------------------------------------------


class _BlockingPolicy:
    """Duck-typed policy whose action blocks on an event from the call given
    by block_at onward, as a hung generator would."""

    def __init__(self, block_at: int):
        self.block_at, self.calls = block_at, 0
        self.release = threading.Event()

    def initial_alpha(self, position):
        return np.zeros(2)

    def prepare(self, alpha_norm, obs_features):
        return None

    def action(self, alpha_norm, T, obs_features, prepared=None):
        self.calls += 1
        if self.calls > self.block_at:
            self.release.wait(timeout=30.0)
        return np.full(2, 0.001), np.full(2, 0.002)


@pytest.mark.wall_clock
def test_wall_runner_fails_when_a_stage_thread_outlives_the_episode(monkeypatch):
    monkeypatch.setattr(streamexec, "_JOIN_TIMEOUT", 0.2)
    policy = _BlockingPolicy(block_at=3)
    env = make_env(DIRECT, 13, step_cap=3)
    try:
        with pytest.raises(RuntimeError, match="generator thread still running"):
            run_episode(policy, None, env, ZERO_LATENCY, SchedulerConfig(mode=MODE_STREAMING),
                        clock="wall")
    finally:
        policy.release.set()


class _SlowPolicy:
    """Duck-typed policy whose action takes compute_s of host time."""

    def __init__(self, compute_s: float):
        self.compute_s = compute_s

    def initial_alpha(self, position):
        return np.zeros(2)

    def prepare(self, alpha_norm, obs_features):
        return None

    def action(self, alpha_norm, T, obs_features, prepared=None):
        time.sleep(self.compute_s)
        return np.full(2, 0.001), np.full(2, 0.002)


@pytest.mark.wall_clock
@pytest.mark.parametrize("mode", [MODE_SYNC_CHUNK, MODE_STREAMING])
def test_wall_generator_computes_within_t_gen(mode):
    """Host compute counts toward the modeled t_gen: with 4 ms of compute in
    a 10 ms budget, generate events last about 10 ms, not 14."""
    stage = StageLatency(t_obs=1.0, t_gen=10.0, t_exec=1.0, t_pred=0.0)
    res = run_episode(_SlowPolicy(0.004), None, make_env(DIRECT, 14, step_cap=10), stage,
                      SchedulerConfig(mode=mode), clock="wall")
    durations = [e.end - e.start for e in _by_stage(res.events, STAGE_GENERATE)]
    assert len(durations) == 10
    assert min(durations) >= stage.t_gen
    assert float(np.median(durations)) < stage.t_gen + 3.0


# the wall executor's tick rule, with t_exec 2.5 and the previous planned
# start at 10.0: the next grid point is 12.5 and a whole slot is gone at 15.0
@pytest.mark.parametrize("tick, release, now, planned", [
    (None, 3.0, 4.0, 4.0),       # the first action starts the grid now
    (10.0, 11.0, 12.0, 12.5),    # on grid: the executor waits for its grid point
    (10.0, 12.5, 12.75, 12.5),   # on grid: released at the grid point, executor a little late
    (10.0, 13.0, 13.25, 13.25),  # starved: released after the grid point
    (10.0, 11.0, 15.0, 15.0),    # a whole slot missed: the grid restarts, no catch-up burst
    (10.0, 13.0, 12.75, 13.0),   # starved, taken from the queue before its release: waits for it
], ids=["first", "early", "late_by_less_than_a_slot", "starved", "slot_missed",
        "dequeued_before_release"])
def test_next_tick_follows_the_engine_start_rule(tick, release, now, planned):
    assert streamexec._next_tick(tick, release, now, 2.5) == planned


@pytest.mark.wall_clock
@pytest.mark.parametrize("sched", [
    SchedulerConfig(mode=MODE_STREAMING, eo=Indicator(mode="naive"), n_eo=3),
    SchedulerConfig(mode=MODE_SYNC_CHUNK, n_replan=5),
], ids=["streaming_naive", "sync_replan5"])
def test_wall_executions_follow_their_release(null_policy, sched):
    """Causality on the wall clock, with no timing tolerance: every execution
    lasts a positive time and starts at or after the end of the generation
    that released its action (its own in streaming, its chunk's last in
    sync_chunk), and no two executions overlap."""
    res = run_episode(null_policy, None, make_env(DIRECT, 15, step_cap=22), FAST_PROFILE, sched,
                      clock="wall")
    gen_end = {(e.horizon_index, e.action_index): e.end for e in _by_stage(res.events, STAGE_GENERATE)}
    chunk_end = {}
    for (horizon, _), end in gen_end.items():
        chunk_end[horizon] = max(end, chunk_end.get(horizon, end))
    execs = sorted(_by_stage(res.events, STAGE_EXECUTE), key=lambda e: e.start)
    assert len(execs) == 22
    for e in execs:
        released = (gen_end[e.horizon_index, e.action_index] if sched.mode == MODE_STREAMING
                    else chunk_end[e.horizon_index])
        assert e.end > e.start, e
        assert e.start >= released, e
    for a, b in zip(execs, execs[1:]):
        assert b.start >= a.end, (a, b)


# one observe or generate event on the wall clock, with a 1.8 ms budget and
# the thread's previous event ending at 10.0: (release, done) -> (start, end,
# overran), done being the time its host work ended
@pytest.mark.parametrize("release, done, slot", [
    (10.0, 10.5, (10.0, 11.8, False)),   # on time: released as the lane frees
    (10.6, 11.0, (10.6, 12.4, False)),   # input released late: starts at the release
    (9.0, 10.3, (10.0, 11.8, False)),    # lane still busy at the release: starts when it frees
    (10.0, 12.5, (10.0, 12.5, True)),    # host work past the deadline: ends at done, one overrun
], ids=["on_time", "released_late", "lane_busy", "overrun"])
def test_lane_slot_runs_deadline_to_deadline(release, done, slot):
    start, end, overran = streamexec._lane_slot(release, 10.0, 1.8, done)
    assert (start, overran) == (slot[0], slot[2])
    assert end == pytest.approx(slot[1], abs=1e-12) and end - start >= 1.8


def test_lane_slot_never_lasts_less_than_its_budget_in_floats():
    """start + budget can round to a float less than budget after start;
    the slot's end then moves up by an ulp."""
    start, budget = 5.8, 1.8  # (5.8 + 1.8) - 5.8 == 1.8 - 1 ulp
    assert (start + budget) - start < budget
    got_start, end, overran = streamexec._lane_slot(start, 0.0, budget, 0.0)
    assert (got_start, overran) == (start, False)
    assert end - start >= budget and end == math.nextafter(start + budget, math.inf)


@pytest.mark.wall_clock
@pytest.mark.parametrize("sched", [
    SchedulerConfig(mode=MODE_STREAMING, eo=Indicator(mode="naive"), n_eo=3),
    SchedulerConfig(mode=MODE_SYNC_CHUNK, n_replan=5),
], ids=["streaming_naive", "sync_replan5"])
def test_wall_observe_and_generate_run_deadline_to_deadline(null_policy, sched):
    """With no timing tolerance: every observe and generate event lasts at
    least its budget in floats, each generate event starts no earlier than
    its horizon's observation ends, and a stage's events follow one another
    on its lane."""
    res = run_episode(null_policy, None, make_env(DIRECT, 15, step_cap=22), FAST_PROFILE, sched,
                      clock="wall")
    observes = sorted(_by_stage(res.events, STAGE_OBSERVE), key=lambda e: e.start)
    generates = sorted(_by_stage(res.events, STAGE_GENERATE), key=lambda e: e.start)
    assert len(observes) == res.n_horizons and len(generates) >= res.steps
    obs_end = {e.horizon_index: e.end for e in observes}
    for e in observes:
        assert e.end - e.start >= FAST_PROFILE.t_obs, e
    for e in generates:
        assert e.end - e.start >= FAST_PROFILE.t_gen, e
        assert e.start >= obs_end[e.horizon_index], e
    for lane in (observes, generates):
        for a, b in zip(lane, lane[1:]):
            assert b.start >= a.end, (a, b)


@pytest.mark.wall_clock
@pytest.mark.parametrize("mode", [MODE_SYNC_CHUNK, MODE_STREAMING])
def test_wall_generator_overrunning_t_gen_counts_overruns(mode):
    """A generator whose compute takes longer than t_gen ends each of its
    events at the measured time and counts an overrun; the episode still
    executes the simulated clock's actions."""
    stage = StageLatency(t_obs=1.0, t_gen=1.0, t_exec=1.0, t_pred=0.0)
    sched = SchedulerConfig(mode=mode)
    env = make_env(DIRECT, 14, step_cap=10)
    res = run_episode(_SlowPolicy(0.003), None, env, stage, sched, clock="wall")
    gens = _by_stage(res.events, STAGE_GENERATE)
    assert len(gens) == 10
    assert res.overruns >= len(gens)
    assert all(e.end - e.start > stage.t_gen for e in gens)
    sim = run_episode(_SlowPolicy(0.0), None, env, stage, sched)
    assert sim.overruns == 0
    _assert_results_identical(res, sim, events=False)


def _started_threads(monkeypatch) -> list[str]:
    """Record the name of every thread started from here on."""
    names, start = [], threading.Thread.start

    def recording_start(thread):
        names.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return names


@pytest.mark.wall_clock
def test_wall_runner_starts_one_generator_thread(monkeypatch, null_policy):
    """The calling thread executes and observes; the generator is the only
    thread the runner starts, and it is joined before run_episode returns."""
    started = _started_threads(monkeypatch)
    sched = SchedulerConfig(mode=MODE_STREAMING, eo=Indicator(mode="naive"), n_eo=3)
    before = set(threading.enumerate())
    res = run_episode(null_policy, None, make_env(DIRECT, 16, step_cap=22), FAST_PROFILE, sched,
                      clock="wall")
    assert res.steps == 22
    assert started == ["generator"]
    assert set(threading.enumerate()) == before


@pytest.mark.wall_clock
def test_wall_env_steps_and_observations_run_on_the_calling_thread(monkeypatch, null_policy):
    """The executor observes and steps the environment on the thread that
    called run_episode; the generator thread does neither."""
    threads = {"step": [], "observe": []}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            threads[name].append(threading.current_thread())
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(envsim, "step", recording("step", envsim.step))
    monkeypatch.setattr(envsim, "observe", recording("observe", envsim.observe))
    sched = SchedulerConfig(mode=MODE_STREAMING, eo=Indicator(mode="naive"), n_eo=3)
    res = run_episode(null_policy, None, make_env(DIRECT, 17, step_cap=22), FAST_PROFILE, sched,
                      clock="wall")
    assert len(threads["step"]) == res.steps
    # one observation per horizon, and one more per early-observation decision
    assert len(threads["observe"]) == res.n_horizons + res.eo_decisions
    assert set(threads["step"]) | set(threads["observe"]) == {threading.current_thread()}


class _PredictorFault(Exception):
    pass


class _BrokenPredictor:
    """A predictor that raises as soon as the indicator reads it."""

    def __getattr__(self, name):
        raise _PredictorFault(f"predictor read {name!r}")


@pytest.mark.wall_clock
def test_wall_executor_error_propagates_and_leaves_no_thread(null_policy):
    """An error on the executor side, here in the indicator's decision, is
    the one run_episode raises, after the generator thread has stopped."""
    sched = SchedulerConfig(mode=MODE_STREAMING, eo=Indicator(mode="adaptive", eta=0.0), n_eo=3)
    before = set(threading.enumerate())
    with pytest.raises(_PredictorFault, match="predictor read"):
        run_episode(null_policy, _BrokenPredictor(), make_env(DIRECT, 18, step_cap=22),
                    FAST_PROFILE, sched, clock="wall")
    assert set(threading.enumerate()) == before


@pytest.mark.wall_clock
@pytest.mark.parametrize("sched", [
    SchedulerConfig(mode=MODE_STREAMING),
    SchedulerConfig(mode=MODE_SYNC_CHUNK, n_replan=5),
], ids=["streaming", "sync_replan5"])
def test_wall_observation_is_requested_at_the_end_of_the_last_execution(null_policy, sched):
    """Without early observation, each observe event after the first starts
    exactly when the previous horizon's last execute event ends."""
    res = run_episode(null_policy, None, make_env(DIRECT, 19, step_cap=35), FAST_PROFILE, sched,
                      clock="wall")
    last_end = {}
    for e in _by_stage(res.events, STAGE_EXECUTE):
        last_end[e.horizon_index] = max(e.end, last_end.get(e.horizon_index, e.end))
    observes = sorted(_by_stage(res.events, STAGE_OBSERVE), key=lambda e: e.horizon_index)
    assert [e.horizon_index for e in observes] == list(range(res.n_horizons))
    assert res.n_horizons >= 4
    for e in observes[1:]:
        assert e.start == last_end[e.horizon_index - 1], e
