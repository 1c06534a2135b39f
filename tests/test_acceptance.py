"""End-to-end acceptance suite: one test per shipped guarantee, run with
pytest -v for a one-line verdict each. The trained-policy tests share the
session fixtures from conftest, so the whole file trains each network once.

Numbered tests, what they pin down, and their tolerances:

 01 closed-form timing table values (+-0.05 ms)
 02 simulated 20-horizon episode matches the closed forms (one exec period;
    overlaps within 5%)
 03 flow marginal variance contraction, Monte Carlo (5% relative)
 04 additive normalization (<= 4 ulp over 1e5 cases; legacy breaks > 0.1)
 05 analytic gradients vs central differences (< 1e-4 relative, float64)
 06 trained policy success: >= 95% direct, >= 90% controller, 100 episodes
 07 state-alignment ablation costs >= 15 points on the controller env
 08 early-observation ordering at matched firing rate; adaptive halt <= half
    the no-EO halt under the reference profile
 09 streaming halt >= 3x smaller than sync chunking, measured
 10 executed-action ledger is an exact ordered sum; wall-clock execute events
    never overlap
"""

import numpy as np
import pytest

from streampolicy import envsim, flowmatch, metrics, normkit, saliency, streamexec
from streampolicy.core import make_rng
from streampolicy.envsim import make_env
from streampolicy.flowmatch import FlowParams
from streampolicy.saliency import (
    EO_ADAPTIVE, EO_NAIVE, EO_RANDOM, Indicator, calibrate_threshold,
    decision_scores,
)
from streampolicy.streamexec import (
    MODE_STREAMING, MODE_SYNC_CHUNK, REFERENCE_PROFILE, STAGE_EXECUTE,
    SchedulerConfig, StageLatency, ZERO_LATENCY, calibration_trajectories, run_episode,
    run_episodes,
)
from streampolicy import velocitynet

H = 10
FAST_PROFILE = StageLatency(t_obs=5.8, t_gen=1.8, t_exec=2.7, t_pred=1.0)


def test_01_closed_form_timing_table():
    sync5 = metrics.closed_form(REFERENCE_PROFILE, H, MODE_SYNC_CHUNK, n_replan=5)
    assert sync5["t_action"] == pytest.approx(74.6, abs=0.05)
    assert sync5["t_halt"] == pytest.approx(238.0, abs=0.05)

    stream = metrics.closed_form(REFERENCE_PROFILE, H, MODE_STREAMING, n_eo_avg=1.54)
    assert stream["o_ge"] == pytest.approx(162.0, abs=0.05)
    assert stream["o_oe"] == pytest.approx(41.58, abs=0.05)
    assert stream["t_action"] == pytest.approx(30.44, abs=0.05)
    assert stream["t_halt"] == pytest.approx(34.42, abs=0.05)


def test_02_simulated_episode_matches_closed_forms(idle_policy, ctrl_env):
    tol = REFERENCE_PROFILE.t_exec  # one execution period

    # plain streaming, 20 full horizons
    env = make_env(ctrl_env, 0, step_cap=20 * H)
    plain = run_episode(idle_policy, None, env, REFERENCE_PROFILE,
                        SchedulerConfig(mode=MODE_STREAMING))
    rep = metrics.measure(plain.events)
    cf = metrics.closed_form(REFERENCE_PROFILE, H, MODE_STREAMING)
    assert plain.n_horizons == 20
    assert abs(rep.t_action_steady - cf["t_action"]) <= tol
    assert abs(rep.t_halt - cf["t_halt"]) <= tol
    assert rep.o_ge_per_horizon == pytest.approx(cf["o_ge"], rel=0.05)
    assert rep.o_oe_per_horizon == 0.0 == cf["o_oe"]

    # early observation firing every horizon, two actions ahead
    env = make_env(ctrl_env, 0, step_cap=20 * H)
    eo = run_episode(idle_policy, None, env, REFERENCE_PROFILE,
                     SchedulerConfig(mode=MODE_STREAMING,
                                     eo=Indicator(mode=EO_NAIVE), n_eo=2))
    rep_eo = metrics.measure(eo.events)
    cf_eo = metrics.closed_form(REFERENCE_PROFILE, H, MODE_STREAMING, n_eo_avg=2.0)
    assert eo.n_horizons == 20
    assert abs(rep_eo.t_action_steady - cf_eo["t_action"]) <= tol
    assert abs(rep_eo.t_halt - cf_eo["t_halt"]) <= tol
    assert rep_eo.o_ge_per_horizon == pytest.approx(cf_eo["o_ge"], rel=0.05)
    assert rep_eo.o_oe_per_horizon == pytest.approx(cf_eo["o_oe"], rel=0.05)


def test_03_marginal_variance_contraction():
    fp = FlowParams(k=5.0, sigma0=0.4, h=H)
    n, steps = 10_000, 2000
    rng = make_rng(12, 9)
    x = fp.sigma0 * rng.standard_normal(n)  # x_0 ~ N(xi(0), sigma0^2)

    # deterministic reference path; contraction is path-independent
    xi = lambda t: np.sin(1.3 * t) + 0.5 * t
    xi_dot = lambda t: 1.3 * np.cos(1.3 * t) + 0.5

    dt = 1.0 / steps
    checks = {0.25: None, 0.5: None, 1.0: None}
    for i in range(steps):
        t = i * dt
        x = x + flowmatch.target_velocity(xi(t), xi_dot(t), x, fp.k) * dt
        t_next = (i + 1) * dt
        for tc in checks:
            if checks[tc] is None and t_next >= tc - 1e-12:
                checks[tc] = float(np.var(x))
    for tc, measured in checks.items():
        expect = flowmatch.marginal_variance(fp, tc)
        assert measured == pytest.approx(expect, rel=0.05), (tc, measured, expect)


def test_04_normalization_additivity():
    rng = make_rng(7, 3)
    d = 4
    stats = normkit.NormStats(
        q_min=rng.uniform(-8, -1, d), q_max=rng.uniform(1, 8, d),
        scale=rng.uniform(0.3, 6.0, d),
    )
    x = rng.uniform(-50, 50, size=(100_000, d))
    a = rng.uniform(-50, 50, size=(100_000, d))
    nx = normkit.normalize(x, stats)
    na = normkit.normalize(a, stats)
    lhs = nx + na
    rhs = normkit.normalize(x + a, stats)
    # ulp measured at the largest participating magnitude: when x and a
    # nearly cancel, the result's spacing shrinks but the term rounding
    # errors do not, so only this measure admits a uniform 4-ulp bound
    ref = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)),
                     np.maximum(np.abs(nx), np.abs(na)))
    ulp = np.abs(lhs - rhs) / np.spacing(ref)
    assert float(np.max(ulp)) <= 4.0

    legacy_stats = normkit.NormStats(q_min=np.array([0.0, -3.0]),
                                     q_max=np.array([4.0, 1.0]),
                                     scale=np.array([4.0, 4.0]))
    xa = np.array([1.0, 0.5])
    aa = np.array([0.5, -1.0])
    viol = normkit.normalize_legacy(xa, legacy_stats) + normkit.normalize_legacy(aa, legacy_stats) \
        - normkit.normalize_legacy(xa + aa, legacy_stats)
    assert float(np.max(np.abs(viol))) > 0.1


def _max_grad_error(loss_fn, params, grads):
    eps = 1e-6
    worst = 0.0
    for name, g in grads.items():
        flat = params[name].ravel()
        gflat = g.ravel()
        for idx in range(0, flat.size, max(1, flat.size // 5)):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp = loss_fn()
            flat[idx] = orig - eps
            lm = loss_fn()
            flat[idx] = orig
            fd = (lp - lm) / (2 * eps)
            denom = max(abs(fd), abs(gflat[idx]), 1e-8)
            worst = max(worst, abs(fd - gflat[idx]) / denom)
    return worst


def test_05_gradient_checks():
    rng = np.random.default_rng(11)

    model = velocitynet.init_velocity_model(2, 7, hidden=(20, 16), rng=make_rng(0, 7, 5))
    X = rng.normal(size=(6, 2))
    T = rng.uniform(0, 1, size=6)
    OBS = rng.normal(size=(6, 7))
    V = rng.normal(size=(6, 2))
    TF = velocitynet.time_features(T)
    _, grads = velocitynet.loss_and_grad(model, X, TF, OBS, V)
    err = _max_grad_error(lambda: velocitynet.loss_and_grad(model, X, TF, OBS, V)[0],
                          model.params, grads)
    assert err < 1e-4, err

    pred = saliency.init_predictor(saliency.PredictorConfig(seed=1))
    E = rng.normal(size=(5, saliency.EMBED_DIM))
    C = rng.normal(size=(5, saliency.COND_DIM))
    tgt = rng.normal(size=(5, saliency.EMBED_DIM))
    _, pgrads = saliency.loss_and_grad(pred, E, C, tgt)
    perr = _max_grad_error(lambda: saliency.loss_and_grad(pred, E, C, tgt)[0],
                           pred.params, pgrads)
    assert perr < 1e-4, perr


def _success_rate(policy, kind, episodes=100, seed=1000, cap=60) -> float:
    """Closed-loop success over the seed's first episodes: plain streaming at
    zero latency."""
    sched = SchedulerConfig(mode=MODE_STREAMING, h=policy.flow.h, seed=seed)
    envs = (make_env(kind, seed, ep, step_cap=cap) for ep in range(episodes))
    return sum(r.success for r in run_episodes(policy, None, envs, ZERO_LATENCY, sched)) / episodes


def test_06_policy_success_rates(direct_policy, ctrl_policy, direct_env, ctrl_env):
    from conftest import RECIPE

    assert RECIPE.iterations <= 20_000
    direct = _success_rate(direct_policy, direct_env)
    assert direct >= 0.95, direct
    ctrl = _success_rate(ctrl_policy, ctrl_env)
    assert ctrl >= 0.90, ctrl


def test_07_state_alignment_ablation(ctrl_policy, misaligned_policy, ctrl_env):
    aligned = _success_rate(ctrl_policy, ctrl_env)
    ablated = _success_rate(misaligned_policy, ctrl_env)
    assert aligned - ablated >= 0.15, (aligned, ablated)


def test_08_early_observation_ordering_and_halt(ctrl_policy, ctrl_predictor, ctrl_env):
    """Indicator comparison at a matched average firing rate.

    The threshold is calibrated on the policy's own no-EO rollouts (expert
    demonstrations over-represent parked low-saliency frames and skew the
    quantile), then the random baseline is matched to the adaptive
    indicator's realized per-decision rate. The step cap sits just above the
    no-EO policy's worst completion time, so extra steps burned re-tracing
    stale observations convert to failures instead of hiding.
    """
    n_eo, target_rate, cap = 3, 0.85, 42
    bench_seed, calib_seed, episodes = 2000, 3000, 200

    def sched(eo=None):
        return SchedulerConfig(mode=MODE_STREAMING, h=H, eo=eo, n_eo=n_eo, seed=5)

    def run(indicator, pred, *, episodes=episodes, stage=ZERO_LATENCY):
        envs = (make_env(ctrl_env, bench_seed, ep, step_cap=cap) for ep in range(episodes))
        return list(run_episodes(ctrl_policy, pred, envs, stage, sched(indicator)))

    calib = calibration_trajectories(ctrl_policy, ctrl_env, calib_seed, 100, 80)
    eta = calibrate_threshold(decision_scores(ctrl_predictor, calib, H, n_eo), target_rate)

    adaptive = run(Indicator(mode=EO_ADAPTIVE, eta=eta), ctrl_predictor)
    rate = sum(r.eo_fired for r in adaptive) / max(1, sum(r.eo_decisions for r in adaptive))
    assert rate >= 0.5, f"adaptive indicator fired too rarely ({rate:.3f})"

    random = run(Indicator(mode=EO_RANDOM, p=rate), None)
    naive = run(Indicator(mode=EO_NAIVE), None)

    def success(rs):
        return float(np.mean([r.success for r in rs]))

    s_ad, s_rd, s_na = success(adaptive), success(random), success(naive)
    assert s_ad >= s_rd - 0.02, (s_ad, s_rd, s_na, rate)
    assert s_rd >= s_na - 0.02, (s_ad, s_rd, s_na, rate)

    halts_ad = [metrics.measure(r.events).t_halt for r in
                run(Indicator(mode=EO_ADAPTIVE, eta=eta), ctrl_predictor,
                    episodes=30, stage=REFERENCE_PROFILE)]
    halts_no = [metrics.measure(r.events).t_halt for r in
                run(None, None, episodes=30, stage=REFERENCE_PROFILE)]
    assert np.mean(halts_ad) <= 0.5 * np.mean(halts_no), \
        (float(np.mean(halts_ad)), float(np.mean(halts_no)))


def test_09_streaming_vs_sync_halting(idle_policy, ctrl_env):
    env = make_env(ctrl_env, 0, step_cap=60)
    stream = metrics.measure(run_episode(idle_policy, None, env, REFERENCE_PROFILE,
                                         SchedulerConfig(mode=MODE_STREAMING)).events)
    env = make_env(ctrl_env, 0, step_cap=60)
    sync = metrics.measure(run_episode(idle_policy, None, env, REFERENCE_PROFILE,
                                       SchedulerConfig(mode=MODE_SYNC_CHUNK)).events)
    assert sync.t_halt >= 3.0 * stream.t_halt, (sync.t_halt, stream.t_halt)


@pytest.mark.wall_clock
def test_10_ledger_exactness_and_wall_overlap(idle_policy, ctrl_policy, ctrl_env):
    def check_ledger(res, policy, env):
        alpha = policy.initial_alpha(env.init_state.position).copy()
        for a in res.actions_norm:
            alpha = alpha + a
        assert np.array_equal(res.final_alpha, alpha)

    naive = Indicator(mode=EO_NAIVE)
    cases = [
        (idle_policy, SchedulerConfig(mode=MODE_STREAMING, eo=naive, n_eo=3), "simulated", ZERO_LATENCY, 35),
        (idle_policy, SchedulerConfig(mode=MODE_SYNC_CHUNK, n_replan=5), "simulated", ZERO_LATENCY, 35),
        (ctrl_policy, SchedulerConfig(mode=MODE_STREAMING), "simulated", ZERO_LATENCY, 60),
        (idle_policy, SchedulerConfig(mode=MODE_STREAMING, eo=naive, n_eo=3), "wall", FAST_PROFILE, 22),
        (idle_policy, SchedulerConfig(mode=MODE_SYNC_CHUNK, n_replan=5), "wall", FAST_PROFILE, 15),
    ]
    for ep, (policy, scheduler, clock, stage, cap) in enumerate(cases):
        env = make_env(ctrl_env, 100 + ep, step_cap=cap)
        res = run_episode(policy, None, env, stage, scheduler, clock=clock)
        check_ledger(res, policy, env)
        if clock == "wall":
            execs = sorted((e for e in res.events if e.stage == STAGE_EXECUTE),
                           key=lambda e: e.start)
            assert execs
            for a, b in zip(execs, execs[1:]):
                assert b.start >= a.end - 1e-9, "wall execute events overlap"
