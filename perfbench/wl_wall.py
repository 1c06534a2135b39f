"""wall: the threaded wall-clock runner at the reference profile scaled by 1/10.

This is the only workload where threads, queues, sleep overshoot and GIL
handoffs matter. At 1/10 scale the host's overhead is a visible share of
each stage; at full scale it falls below the noise and runs take 10x longer.
Timing depends on the schedule and the network shape, not on skill, so the
policy and predictor are untrained at their deployed shapes, and episodes
run to the step cap with many horizon boundaries each.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from common import Segments, derive_seeds, figure, setup_figure, thread_names

SCALE = 0.1
STEP_CAP = 200
N_EO = 3
TARGET_RATE = 0.85
SETUPS = 3
DEMOS = 40
CALIB_EPISODES = 10
MIN_ROUNDS = 2
CONFIGS = ("streaming", "sync_full", "streaming_adaptive")
GATES = ("executed actions equal the simulated clock's", "execute events never overlap",
         "no thread outlives its episode")
# The wall executor scores a truncated action slice when the generator lags,
# so under adaptive early observation the two clocks can execute different
# actions. The package's sim == wall tests cover only configurations without
# it. Those episodes are counted and reported, not failed: the benchmark
# cannot change the runner.
UNGATED_EQUALITY = ("streaming_adaptive",)


def _stage(sp):
    ref = sp.streamexec.REFERENCE_PROFILE
    return sp.streamexec.StageLatency(ref.t_obs * SCALE, ref.t_gen * SCALE,
                                      ref.t_exec * SCALE, ref.t_pred * SCALE)


def _setup(sp, seeds, seg):
    demo_seed, policy_seed, pred_seed, calib_seed = seeds
    kind = sp.envsim.EnvKind(variant=sp.envsim.KIND_CONTROLLER)
    demos = sp.envsim.generate_demos(kind, DEMOS, demo_seed)
    seg.split()
    shape = sp.trainer.TrainConfig(iterations=0, batch_size=128, hidden=(128, 128), seed=policy_seed)
    policy, _, _ = sp.trainer.train(demos, shape, alpha0_convention=sp.envsim.alpha0_convention(kind))
    predictor = sp.saliency.init_predictor(sp.saliency.PredictorConfig(seed=pred_seed))
    seg.split()
    h = policy.flow.h
    plain = sp.streamexec.SchedulerConfig(mode=sp.streamexec.MODE_STREAMING, h=h, seed=calib_seed)
    calib = [sp.streamexec.run_episode(policy, None,
                                       sp.envsim.make_env(kind, calib_seed, ep, step_cap=STEP_CAP),
                                       sp.streamexec.ZERO_LATENCY, plain,
                                       record_trajectory=True).trajectory
             for ep in range(CALIB_EPISODES)]
    scores = sp.saliency.decision_scores(predictor, calib, h, N_EO)
    eta = sp.saliency.calibrate_threshold(scores, TARGET_RATE)
    seg.split()
    return kind, policy, predictor, eta


def _schedulers(sp, h, eta, seed):
    se = sp.streamexec
    adaptive = sp.saliency.Indicator(mode=sp.saliency.EO_ADAPTIVE, eta=eta)
    return {
        "streaming": se.SchedulerConfig(mode=se.MODE_STREAMING, h=h, seed=seed),
        "sync_full": se.SchedulerConfig(mode=se.MODE_SYNC_CHUNK, h=h, seed=seed),
        "streaming_adaptive": se.SchedulerConfig(mode=se.MODE_STREAMING, h=h, eo=adaptive,
                                                 n_eo=N_EO, seed=seed),
    }


def _no_overlap(execs) -> bool:
    execs = sorted(execs, key=lambda e: e.start)
    return all(b.start >= a.end for a, b in zip(execs, execs[1:]))


def _event_figures(events, stage) -> dict[str, list[float]]:
    """Measured minus modeled duration per stage, queue waits and in-horizon gaps (ms)."""
    modeled = {"observe": stage.t_obs, "predict": stage.t_pred,
               "generate": stage.t_gen, "execute": stage.t_exec}
    out: dict[str, list[float]] = {f"{s}_excess": [] for s in modeled}
    out["queue_wait"], out["exec_gap"] = [], []
    gen_end = {}
    for e in events:
        out[f"{e.stage}_excess"].append((e.end - e.start) - modeled[e.stage])
        if e.stage == "generate":
            gen_end[e.action_index] = e.end
    execs = sorted((e for e in events if e.stage == "execute"), key=lambda e: e.start)
    for e in execs:
        if e.action_index in gen_end:
            out["queue_wait"].append(e.start - gen_end[e.action_index])
    for a, b in zip(execs, execs[1:]):
        if a.horizon_index == b.horizon_index:
            out["exec_gap"].append(b.start - a.end)
    return out


def run(ctx) -> dict:
    sp = ctx.sp
    seeds = derive_seeds(ctx.seed, 5)
    episode_seed = seeds[4]
    stage = _stage(sp)

    setups = []
    for _ in range(SETUPS):
        with ctx.span("bench.setup"):
            seg = Segments(ctx.speed)
            kind, policy, predictor, eta = _setup(sp, seeds[:4], seg)
            setups.append(seg.totals())
        ctx.count("saliency.calibration_rounds")
    schedulers = _schedulers(sp, policy.flow.h, eta, episode_seed)

    t_action = {c: [] for c in CONFIGS}  # (t_start, t_end, ms) per episode
    gaps = {c: [] for c in CONFIGS}      # (t_start, t_end, ms) per boundary
    logs = {c: defaultdict(list) for c in CONFIGS}  # event-log figures per config
    fired = decisions = 0
    episodes = rounds = 0
    failures = dict.fromkeys(GATES, 0)
    failed_by_config = dict.fromkeys(CONFIGS, 0)
    differing = dict.fromkeys(UNGATED_EQUALITY, 0)
    with ctx.span("bench.measure"):
        deadline = time.perf_counter() + ctx.seconds
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            for label in CONFIGS:
                sched = schedulers[label]
                pred = predictor if sched.eo is not None else None
                env = sp.envsim.make_env(kind, episode_seed, episodes, step_cap=STEP_CAP)
                before = thread_names()
                t0 = time.perf_counter()
                res = sp.streamexec.run_episode(policy, pred, env, stage, sched, clock="wall")
                t1 = time.perf_counter()
                with ctx.span("bench.gates"):
                    leaked = thread_names() - before
                    sim = sp.streamexec.run_episode(policy, pred, env, stage, sched)
                    ok = dict(zip(GATES, (
                        res.actions_raw.shape == sim.actions_raw.shape
                        and np.array_equal(res.actions_raw, sim.actions_raw),
                        _no_overlap([e for e in res.events if e.stage == "execute"]),
                        not leaked)))
                    if label in differing:
                        differing[label] += int(not ok.pop(GATES[0]))
                    for what, passed in ok.items():
                        failures[what] += int(not passed)
                    failed_by_config[label] += int(not all(ok.values()))
                rep = sp.metrics.measure(res.events, success=res.success)
                with ctx.span("bench.collect"):
                    t_action[label].append((t0, t1, rep.t_action_steady))
                    gaps[label].extend((t0, t1, g) for g in rep.boundary_gaps)
                    for key, vals in _event_figures(res.events, stage).items():
                        logs[label][key].extend(vals)
                    if sched.eo is not None:
                        fired += res.eo_fired
                        decisions += res.eo_decisions
                episodes += 1
                ctx.speed.mark()
            rounds += 1

    stream = logs["streaming"]
    wall_layer = {f"{key}_us_p{q}": float(np.percentile(stream[key], q)) * 1e3
                  for key in ("observe_excess", "generate_excess", "execute_excess",
                              "queue_wait", "exec_gap")
                  for q in (50, 90)}
    wall_layer["sync_t_action_ms"] = float(np.median([v for *_, v in t_action["sync_full"]]))
    wall_layer["eo_halt_ms_p50"] = float(np.median([v for *_, v in gaps["streaming_adaptive"]]))
    # wall timings are mostly modeled sleeps; only their excess over the
    # closed form is host work, so only the excess is normalized
    cf = sp.metrics.closed_form(stage, policy.flow.h, sp.streamexec.MODE_STREAMING)
    halt = figure(gaps["streaming"], ctx.speed, modeled=cf["t_halt"])
    figures = {"setup_s": setup_figure(setups),
               "wall_t_action_ms": figure(t_action["streaming"], ctx.speed, modeled=cf["t_action"]),
               "wall_halt_ms_p50": halt,
               "wall_halt_ms_p90": dict(halt, value=halt["p90"])}
    return {
        "figures": figures,
        "end_to_end": {"setup_s": figures["setup_s"]["value"],
                       "main_op_ms": figures["wall_t_action_ms"]["value"],
                       "second_op_ms": halt["value"]},
        "attempted": episodes,
        "failed": sum(failed_by_config.values()),
        "gates": [(what, n == 0) for what, n in failures.items()],
        "observed": [(f"{label}: executed actions equal the simulated clock's", n == 0,
                      f"{n} of {rounds} episodes differ")
                     for label, n in differing.items()],
        "extra": {"rounds": rounds, "failed_episodes_by_config": failed_by_config,
                  "profile_ms": [stage.t_obs, stage.t_gen, stage.t_exec, stage.t_pred],
                  "fidelity": _fidelity_table(logs, stage),
                  "closed_form_ms": {"t_action": cf["t_action"], "t_halt": cf["t_halt"]},
                  "t_action_ms_median": {c: float(np.median([v for *_, v in b]))
                                         for c, b in t_action.items()}},
        "layer_extra": {"wall": wall_layer, "decisions": {"adaptive": (fired, decisions)}},
        "overhead_unit": lambda: _unit(sp, kind, policy, stage, schedulers["streaming"], episode_seed),
    }


def _fidelity_table(logs, stage) -> list[dict]:
    """Per config and stage: measured against modeled duration, waits and gaps (ms)."""
    modeled = {"observe": stage.t_obs, "predict": stage.t_pred,
               "generate": stage.t_gen, "execute": stage.t_exec}
    rows = []
    for label, fig in logs.items():
        for key, vals in fig.items():
            if not vals:
                continue
            what = key.removesuffix("_excess")
            base = modeled.get(what, 0.0)
            rows.append({"config": label, "quantity": what if what in modeled else key,
                         "modeled_ms": base if what in modeled else None, "n": len(vals),
                         "measured_ms_p50": float(np.percentile(vals, 50)) + base,
                         "measured_ms_p90": float(np.percentile(vals, 90)) + base})
    return rows


def _unit(sp, kind, policy, stage, sched, seed) -> float:
    """One shorter streaming episode, for the tracing-overhead probe."""
    env = sp.envsim.make_env(kind, seed, 0, step_cap=60)
    t0 = time.perf_counter()
    sp.streamexec.run_episode(policy, None, env, stage, sched, clock="wall")
    return time.perf_counter() - t0
