"""bench-sim: the mode x indicator matrix of `streampolicy bench`, simulated clock.

Single-row velocitynet.forward, time_features, envsim.step, the
discrete-event engine and metrics.measure do most of the work here, with no
backward pass or Adam. It runs the same MLP as `train`, one row at a time
instead of 128, so a kernel change tuned for one shows on the other.
"""

from __future__ import annotations

import contextlib
import io
import time

from common import Segments, derive_seeds, figure, setup_figure, sha256_file

DEMOS = 600
POLICY_ITERS = 3000
PREDICTOR_ITERS = 3000
SETUPS = 1          # set-up trains for ~15 s; a second one would not fit the run budget
SETUP_SPLIT = 250   # training iterations between host-speed marks in set-up
STEP_CAP = 42
N_EO = 3
TARGET_RATE = 0.85
EPISODES = 50        # per configuration and matrix (the CLI default)
CALIB_EPISODES = 100  # per matrix (the CLI default)
MIN_MATRICES = 3
# acceptance test 08's margins
ORDER_MARGIN = 0.02
_EO_LABEL = {"naive": "naive", "random": "random", "action_norm": "anao", "adaptive": "adaptive"}


def config_label(sp, scheduler) -> str:
    if scheduler.mode == sp.streamexec.MODE_SYNC_CHUNK:
        return "sync_full" if scheduler.replan == scheduler.h else f"sync_replan{scheduler.replan}"
    if scheduler.eo is None:
        return "streaming"
    return "streaming_" + _EO_LABEL[scheduler.eo.mode]


class EpisodeLog:
    """Wraps run_episode and measure to see every episode a bench command runs.

    Calibration rollouts are the only ones that record trajectories. Gaps of
    configurations without early observation are checked against the closed
    form as each episode is measured.
    """

    def __init__(self, sp, ctx, count_events: bool):
        self.sp, self.ctx, self.count_events = sp, ctx, count_events
        self.per_label: dict[str, dict] = {}
        self.matrix_blocks: dict[str, list] = {}  # label -> [actions, seconds, t_start, t_end]
        self.sim_actions = 0
        self.bad_gaps = 0
        self._label = None
        self._expected: dict[str, float] = {}
        self._orig = (sp.streamexec.run_episode, sp.metrics.measure)

    def install(self):
        run_episode, measure = self._orig
        sp = self.sp

        def logged_run_episode(policy, predictor, env, stage, scheduler, clock="simulated",
                               record_trajectory=False):
            label = None if record_trajectory else config_label(sp, scheduler)
            if label != self._label:
                self.ctx.speed.mark()  # a configuration block starts
            t0 = time.perf_counter()
            res = run_episode(policy, predictor, env, stage, scheduler, clock=clock,
                              record_trajectory=record_trajectory)
            dt = time.perf_counter() - t0
            with self.ctx.span("bench.episode_log"):
                self.sim_actions += res.steps
                self._label = label
                if record_trajectory:
                    return res
                if label not in self._expected and scheduler.eo is None:
                    cf = sp.metrics.closed_form(stage, scheduler.h, scheduler.mode,
                                                n_replan=scheduler.replan)
                    self._expected[label] = cf["t_halt"]
                d = self.per_label.setdefault(label, dict(episodes=0, successes=0, fired=0,
                                                          decisions=0, gens=0, execs=0))
                d["episodes"] += 1
                d["successes"] += int(res.success)
                d["fired"] += res.eo_fired
                d["decisions"] += res.eo_decisions
                if self.count_events:
                    d["gens"] += sum(1 for e in res.events if e.stage == sp.streamexec.STAGE_GENERATE)
                    d["execs"] += sum(1 for e in res.events if e.stage == sp.streamexec.STAGE_EXECUTE)
                blk = self.matrix_blocks.setdefault(label, [0, 0.0, t0, 0.0])
                blk[0] += res.steps
                blk[1] += dt
                blk[3] = t0 + dt
            return res

        def logged_measure(events, success=None):
            rep = measure(events, success=success)
            want = self._expected.get(self._label)
            if want is not None and any(g != want for g in rep.boundary_gaps):
                self.bad_gaps += 1
            return rep

        sp.streamexec.run_episode = logged_run_episode
        sp.metrics.measure = logged_measure

    def restore(self):
        self.sp.streamexec.run_episode, self.sp.metrics.measure = self._orig

    def take_blocks(self) -> list:
        """Executed actions per second of simulation, one block per configuration."""
        rates = [(t0, t1, n / dt) for n, dt, t0, t1 in self.matrix_blocks.values() if dt > 0]
        self.matrix_blocks, self._label = {}, None
        return rates


def _setup(sp, ctx, seeds, seg):
    """Demos, short training and a checkpoint round trip, split into parts for seg."""
    demo_seed, train_seed, pred_seed = seeds
    kind = sp.envsim.EnvKind(variant=sp.envsim.KIND_CONTROLLER)
    demos = sp.envsim.generate_demos(kind, DEMOS, demo_seed)
    seg.split()
    recipe = sp.trainer.TrainConfig(iterations=POLICY_ITERS, batch_size=128, lr=2e-3,
                                    lr_schedule="cosine", seed=train_seed, hidden=(128, 128),
                                    log_every=SETUP_SPLIT)
    policy, adam, _ = sp.trainer.train(demos, recipe, progress=seg.split,
                                       alpha0_convention=sp.envsim.alpha0_convention(kind))

    def split_predictor(i, _loss):
        if i % SETUP_SPLIT == 0:
            seg.split()

    predictor, _ = sp.saliency.train_predictor(
        demos, sp.saliency.PredictorConfig(iterations=PREDICTOR_ITERS, seed=pred_seed),
        progress=split_predictor)
    ppath, qpath = ctx.work / "policy.ckpt", ctx.work / "predictor.ckpt"
    sp.velocitynet.save_policy(ppath, policy, adam=adam, iteration=POLICY_ITERS)
    sp.saliency.save_predictor(qpath, predictor, iteration=PREDICTOR_ITERS)
    sp.velocitynet.load_policy(ppath)
    sp.saliency.load_predictor(qpath)
    seg.split()
    return ppath, qpath, (sha256_file(ppath), sha256_file(qpath))


def bench_args(ppath, qpath, out_dir, seed, calib_seed, episodes, calib_episodes) -> list[str]:
    return ["bench", "--policy", str(ppath), "--predictor", str(qpath), "--env", "controller",
            "--profile", "reference", "--step-cap", str(STEP_CAP), "--n-eo", str(N_EO),
            "--target-rate", str(TARGET_RATE), "--eo", "naive,random,anao,adaptive",
            "--episodes", str(episodes), "--calib-episodes", str(calib_episodes),
            "--seed", str(seed), "--calib-seed", str(calib_seed), "--out-dir", str(out_dir)]


def run_bench(sp, args) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return sp.cli.main(args)


def run(ctx) -> dict:
    sp = ctx.sp
    seeds = derive_seeds(ctx.seed, 3)

    setups, digests = [], set()
    for _ in range(SETUPS):
        with ctx.span("bench.setup"):
            seg = Segments(ctx.speed)
            ppath, qpath, digest = _setup(sp, ctx, seeds, seg)
            setups.append(seg.totals())
        digests.add(digest)

    log = EpisodeLog(sp, ctx, count_events=ctx.tracer is not None)
    log.install()
    bench_s, rates, failed_commands, matrices = [], [], 0, 0
    try:
        with ctx.span("bench.measure"):
            deadline = time.perf_counter() + ctx.seconds
            while matrices < MIN_MATRICES or time.perf_counter() < deadline:
                seed, calib_seed = derive_seeds(ctx.seed, 2, matrices + 1)
                args = bench_args(ppath, qpath, ctx.work / "bench_out", seed, calib_seed,
                                  EPISODES, CALIB_EPISODES)
                spent = ctx.speed.spent
                t0 = time.perf_counter()
                rc = run_bench(sp, args)
                t1 = time.perf_counter()
                ctx.speed.mark()
                # host-speed marks taken inside the command are not its work
                busy = t1 - t0 - (ctx.speed.spent - spent)
                failed_commands += int(rc != 0)
                rates.extend(log.take_blocks())
                bench_s.append((t0, t1, busy))
                matrices += 1
                ctx.count("cli.bench_commands")
                ctx.count("saliency.calibration_rounds")
    finally:
        log.restore()

    with ctx.span("bench.gates"):
        per = log.per_label
        succ = {k: d["successes"] / d["episodes"] for k, d in per.items()}
        ad, rd, na = (succ.get(f"streaming_{i}", 0.0) for i in ("adaptive", "random", "naive"))
        # one operation each; episodes and commands are counted on their own
        checks = [("setups give identical checkpoints", len(digests) == 1)]
        gates = [("bench commands exit 0", failed_commands == 0),
                 ("no-EO boundary gaps equal the closed-form t_halt", log.bad_gaps == 0), *checks]
        # The package claims this ordering (acceptance test 08) for its
        # 16k-iteration recipe on the zero-latency profile. The policy here
        # trains POLICY_ITERS on demos drawn from the run's seed and runs at the
        # reference profile. There adaptive beats random on most seeds but falls
        # below it on some (0.74 vs 0.85 on seed 808), so the ordering is
        # reported with its margins and not counted as a failure.
        observed = [(f"adaptive >= random - {ORDER_MARGIN}", ad >= rd - ORDER_MARGIN,
                     f"adaptive {ad:.4f}, random {rd:.4f}"),
                    (f"random >= naive - {ORDER_MARGIN}", rd >= na - ORDER_MARGIN,
                     f"random {rd:.4f}, naive {na:.4f}")]

    episodes = sum(d["episodes"] for d in per.values())
    table = {k: {"episodes": d["episodes"], "success_rate": round(succ[k], 4),
                 "eo_fire_rate": round(d["fired"] / d["decisions"], 4) if d["decisions"] else None,
                 "eo_decisions": d["decisions"],
                 **({"gen_per_exec": round(d["gens"] / d["execs"], 4)} if d["execs"] else {})}
             for k, d in sorted(per.items())}
    figures = {"setup_s": setup_figure(setups),
               "sim_actions_per_s": figure(rates, ctx.speed, rate=True),
               "bench_s": figure(bench_s, ctx.speed)}
    return {
        "figures": figures,
        "end_to_end": {"setup_s": figures["setup_s"]["value"],
                       "main_op_ms": 1e3 / figures["sim_actions_per_s"]["value"],
                       "second_op_ms": figures["bench_s"]["value"] * 1e3},
        "attempted": episodes + matrices + len(checks),
        "failed": log.bad_gaps + failed_commands + sum(1 for _, ok in checks if not ok),
        "gates": gates,
        "observed": observed,
        "extra": {"matrices": matrices, "configs": table},
        "layer_extra": {
            "sim_actions": log.sim_actions,
            "gen_exec": {k: (d["gens"], d["execs"]) for k, d in per.items() if d["execs"]},
            "decisions": {k.split("_", 1)[1]: (d["fired"], d["decisions"])
                          for k, d in per.items() if k.startswith("streaming_")},
        },
        "overhead_unit": lambda: _unit(sp, ctx, ppath, qpath),
    }


def _unit(sp, ctx, ppath, qpath) -> float:
    """A small fixed matrix, for the tracing-overhead probe."""
    args = bench_args(ppath, qpath, ctx.work / "probe_out", 1, 2, 10, 10)
    t0 = time.perf_counter()
    run_bench(sp, args)
    return time.perf_counter() - t0
