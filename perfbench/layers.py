"""Per-layer metrics of the traced run, named by the package's modules.

Times named *_us or *_ms are self time per call: a span's duration minus the
time its wrapped children cover. Names ending in _s are totals per unit of
work stated next to them. A layer that a workload never reaches reads 0.
"""

from __future__ import annotations

BENCH_CONFIGS = ("sync_replan5", "sync_full", "streaming", "streaming_naive",
                 "streaming_random", "streaming_anao", "streaming_adaptive")
INDICATORS = ("naive", "random", "anao", "adaptive")
WALL_STAGES = ("observe", "generate", "execute")

PER_LAYER: list[tuple[str, str, str]] = [
    ("core.make_rng_us", "us", "lower"),
    ("core.make_rng_calls", "count", "lower"),
    ("core.dataset_roundtrip_s", "s", "lower"),
    ("normkit.calls", "count", "lower"),
    ("normkit.us_per_call", "us", "lower"),
    ("flowmatch.calls", "count", "higher"),
    ("velocitynet.forward_us", "us", "lower"),
    ("velocitynet.forward_calls", "count", "lower"),
    ("velocitynet.time_features_us", "us", "lower"),
    ("velocitynet.time_features_calls", "count", "lower"),
    ("velocitynet.loss_and_grad_ms", "ms", "lower"),
    ("velocitynet.adam_ms", "ms", "lower"),
    ("velocitynet.checkpoint_io_ms", "ms", "lower"),
    ("envsim.generate_demos_s", "s", "lower"),
    ("envsim.step_us", "us", "lower"),
    ("envsim.step_calls", "count", "lower"),
    ("envsim.observe_us", "us", "lower"),
    ("envsim.observe_calls", "count", "lower"),
    ("trainer.iter_ms", "ms", "lower"),
    ("trainer.sample_ms", "ms", "lower"),
    ("trainer.step_self_ms", "ms", "lower"),
    ("trainer.windows_per_iter", "count", "higher"),
    ("trainer.iterations", "count", "higher"),
    ("saliency.sample_pairs_ms", "ms", "lower"),
    ("saliency.loss_and_grad_ms", "ms", "lower"),
    ("saliency.score_us", "us", "lower"),
    ("saliency.score_calls", "count", "lower"),
    ("saliency.calibration_s", "s", "lower"),
    *[(f"saliency.fire_rate.{i}", "ratio", "higher") for i in INDICATORS],
    *[(f"saliency.decisions.{i}", "count", "higher") for i in INDICATORS],
    ("streamexec.sim_self_us_per_action", "us", "lower"),
    ("streamexec.executed_actions", "count", "higher"),
    ("streamexec.gen_per_exec", "ratio", "lower"),
    *[(f"streamexec.gen_per_exec.{c}", "ratio", "lower") for c in BENCH_CONFIGS],
    *[(f"streamexec.wall.{s}_excess_us_{q}", "us", "lower")
      for s in WALL_STAGES for q in ("p50", "p90")],
    ("streamexec.wall.queue_wait_us_p50", "us", "lower"),
    ("streamexec.wall.queue_wait_us_p90", "us", "lower"),
    ("streamexec.wall.exec_gap_us_p50", "us", "lower"),
    ("streamexec.wall.exec_gap_us_p90", "us", "lower"),
    ("streamexec.wall.sync_t_action_ms", "ms", "lower"),
    ("streamexec.wall.eo_halt_ms_p50", "ms", "lower"),
    ("metrics.measure_us", "us", "lower"),
    ("cli.bench_self_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.layer_share", "ratio", "higher"),
    ("trace.bench_own_share", "ratio", "lower"),
    ("trace.accounted_share", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
]

_CALIBRATION = ("saliency.calib_rollouts", "saliency.decision_scores",
                "saliency.calibrate_threshold")
# direct children of a bench command that cli.bench_self_s leaves out: the
# command's episodes, calibration and measure, and the benchmark's own spans
_BENCH_WORK = ("streamexec.run_episode.simulated", "metrics.measure", *_CALIBRATION,
               "bench.host_speed", "bench.episode_log")


def _per_call(stats, names, scale):
    calls = sum(stats.get(n, {}).get("calls", 0) for n in names)
    self_s = sum(stats.get(n, {}).get("self_s", 0.0) for n in names)
    return (self_s / calls * scale) if calls else 0.0, calls


def compute(tracer, extra: dict) -> dict[str, float]:
    """Values for every PER_LAYER name from the tracer and workload extras.

    extra holds what the event logs and episode results give directly:
    wall fidelity figures, per-config generate/execute counts, indicator
    decisions, executed simulated actions and the tracing overhead.
    """
    st = tracer.stats()
    main = tracer.stats(main_only=True)
    counts = tracer.counts
    v: dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}

    def calls(name):
        return st.get(name, {}).get("calls", 0)

    def total(name):
        return st.get(name, {}).get("total_s", 0.0)

    v["core.make_rng_us"], v["core.make_rng_calls"] = _per_call(st, ["core.make_rng"], 1e6)
    roundtrips = counts["core.dataset_roundtrips"]
    if roundtrips:
        v["core.dataset_roundtrip_s"] = (total("core.save_dataset") + total("core.load_dataset")) / roundtrips
    v["normkit.us_per_call"], v["normkit.calls"] = _per_call(
        st, ["normkit.normalize", "normkit.denormalize", "normkit.fit_stats"], 1e6)
    v["flowmatch.calls"] = sum(d["calls"] for n, d in st.items() if n.startswith("flowmatch."))
    v["velocitynet.forward_us"], v["velocitynet.forward_calls"] = _per_call(st, ["velocitynet.forward"], 1e6)
    v["velocitynet.time_features_us"], v["velocitynet.time_features_calls"] = _per_call(
        st, ["velocitynet.time_features"], 1e6)
    v["velocitynet.loss_and_grad_ms"] = _per_call(st, ["velocitynet.loss_and_grad"], 1e3)[0]
    v["velocitynet.adam_ms"] = _per_call(st, ["velocitynet.adam_step"], 1e3)[0]
    if calls("velocitynet.checkpoint_io"):
        v["velocitynet.checkpoint_io_ms"] = total("velocitynet.checkpoint_io") / calls("velocitynet.checkpoint_io") * 1e3
    if calls("envsim.generate_demos"):
        v["envsim.generate_demos_s"] = total("envsim.generate_demos") / calls("envsim.generate_demos")
    v["envsim.step_us"], v["envsim.step_calls"] = _per_call(st, ["envsim.step"], 1e6)
    v["envsim.observe_us"], v["envsim.observe_calls"] = _per_call(st, ["envsim.observe"], 1e6)

    iters = calls("trainer.training_step")
    if iters:
        marks = tracer.child_totals("trainer.train").get("bench.host_speed", 0.0)
        v["trainer.iter_ms"] = (total("trainer.train") - marks) / iters * 1e3
        v["trainer.sample_ms"] = _per_call(st, ["trainer.sample_batch"], 1e3)[0]
        v["trainer.step_self_ms"] = _per_call(st, ["trainer.training_step"], 1e3)[0]
    if counts["trainer.iterations"]:
        v["trainer.iterations"] = counts["trainer.iterations"]
        v["trainer.windows_per_iter"] = counts["trainer.windows"] / counts["trainer.iterations"]

    v["saliency.sample_pairs_ms"] = _per_call(st, ["saliency.sample_pairs"], 1e3)[0]
    v["saliency.loss_and_grad_ms"] = _per_call(st, ["saliency.loss_and_grad"], 1e3)[0]
    v["saliency.score_us"], v["saliency.score_calls"] = _per_call(st, ["saliency.score"], 1e6)
    rounds = counts["saliency.calibration_rounds"]
    if rounds:
        # calibration spans are top level in their command, so totals do not nest
        v["saliency.calibration_s"] = sum(main.get(n, {}).get("total_s", 0.0) for n in _CALIBRATION) / rounds
    for ind in INDICATORS:
        dec = extra.get("decisions", {}).get(ind, (0, 0))
        v[f"saliency.decisions.{ind}"] = dec[1]
        v[f"saliency.fire_rate.{ind}"] = dec[0] / dec[1] if dec[1] else 0.0

    sim_actions = extra.get("sim_actions", 0)
    if sim_actions:
        v["streamexec.sim_self_us_per_action"] = (
            st.get("streamexec.run_episode.simulated", {}).get("self_s", 0.0) / sim_actions * 1e6)
    gen_exec = extra.get("gen_exec", {})
    if gen_exec:
        gens = sum(g for g, _ in gen_exec.values())
        execs = sum(e for _, e in gen_exec.values())
        v["streamexec.executed_actions"] = execs
        v["streamexec.gen_per_exec"] = gens / execs
        for cfg, (g, e) in gen_exec.items():
            v[f"streamexec.gen_per_exec.{cfg}"] = g / e
    for key, value in extra.get("wall", {}).items():
        v[f"streamexec.wall.{key}"] = value

    v["metrics.measure_us"] = _per_call(st, ["metrics.measure"], 1e6)[0]
    commands = counts["cli.bench_commands"]
    if commands:
        children = tracer.child_totals("cli.main")
        work = sum(children.get(n, 0.0) for n in _BENCH_WORK)
        v["cli.bench_self_s"] = (total("cli.main") - work) / commands

    # accounting is over the main thread: the wall runner's worker threads run
    # while the main thread waits in run_episode, so their spans overlap it
    wall = tracer.wall_s
    own = sum(d["self_s"] for n, d in main.items() if n.startswith("bench."))
    layers = sum(d["self_s"] for n, d in main.items() if not n.startswith("bench."))
    v["trace.overhead_share"] = extra.get("overhead_share", 0.0)
    v["trace.bench_own_share"] = own / wall
    v["trace.layer_share"] = layers / wall
    v["trace.accounted_share"] = (own + layers) / wall
    v["trace.spans"] = tracer.n_spans()
    return v
