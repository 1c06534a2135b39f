"""Command-line front end.

Subcommands cover the full workflow: generate demonstrations, train the
policy and the saliency predictor, roll out episodes under either scheduler,
benchmark the mode/indicator matrix, and print closed-form timing.

Configuration precedence, lowest to highest: JSON config file (--config),
environment variables (STREAMPOLICY_<OPTION>), command-line flags. Commands
that produce artifacts also write a manifest.json recording the resolved
configuration and sha256 of every artifact.

Exit codes: 0 success, 2 configuration or input errors, 3 runtime failures
(demo generation exhausted, training diverged).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import envsim, metrics, saliency, streamexec, trainer
from .core import DatasetError, load_dataset, save_dataset
from .envsim import GenerationError
from .trainer import TrainConfig, TrainingDivergedError
from .velocitynet import CheckpointError, load_policy, save_policy

ENV_PREFIX = "STREAMPOLICY_"

EO_NAMES = {
    "naive": saliency.EO_NAIVE,
    "random": saliency.EO_RANDOM,
    "anao": saliency.EO_ACTION_NORM,
    "adaptive": saliency.EO_ADAPTIVE,
}


class CliError(Exception):
    """Bad inputs or configuration; maps to exit code 2."""


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise CliError(f"not a boolean: {text!r}")


def _resolve(args: argparse.Namespace, schema: dict[str, tuple]) -> dict:
    """Merge config file < environment < flags for the given option schema.

    schema maps option name -> (type, default). Flags parsed as None are
    treated as unset so lower-precedence sources can fill them.
    """
    file_cfg = {}
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            with open(cfg_path) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config file {cfg_path}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise CliError("config file must hold a JSON object")

    resolved = {}
    for name, (typ, default) in schema.items():
        value = default
        if name in file_cfg:
            raw = file_cfg[name]
            value = _parse_bool(str(raw)) if typ is bool else typ(raw)
        env_val = os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"))
        if env_val is not None:
            value = _parse_bool(env_val) if typ is bool else typ(env_val)
        flag_val = getattr(args, name, None)
        if flag_val is not None:
            value = flag_val
        resolved[name] = value
    return resolved


def _check_step_cap(cfg: dict) -> None:
    if cfg["step_cap"] < 1:
        raise CliError(f"--step-cap must be at least 1, got {cfg['step_cap']}")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(directory, command: str, resolved: dict, artifacts: dict[str, str]) -> None:
    manifest = {
        "command": command,
        "config": {k: (v if not isinstance(v, Path) else str(v)) for k, v in resolved.items()},
        "artifacts": {name: {"path": str(p), "sha256": _sha256(p)} for name, p in artifacts.items()},
    }
    path = Path(directory) / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _env_kind(name: str) -> envsim.EnvKind:
    if name not in (envsim.KIND_DIRECT, envsim.KIND_CONTROLLER):
        raise CliError(f"unknown env {name!r} (expected direct or controller)")
    return envsim.EnvKind(variant=name)


def _policy_env_kind(cfg: dict, policy) -> envsim.EnvKind:
    """The env kind for policy. An explicit env must seed its ledger as the
    policy's training data did; without one, the env whose convention matches
    is taken and recorded in cfg."""
    if not cfg["env"]:
        matching = [n for n in (envsim.KIND_DIRECT, envsim.KIND_CONTROLLER)
                    if envsim.alpha0_convention(_env_kind(n)) == policy.alpha0_convention]
        if not matching:
            raise CliError(f"no env seeds the action-state ledger with "
                           f"{policy.alpha0_convention!r}, as the policy was trained")
        cfg["env"] = matching[0]
    name = cfg["env"]
    kind = _env_kind(name)
    if envsim.alpha0_convention(kind) != policy.alpha0_convention:
        raise CliError(f"--env {name} seeds the action-state ledger with "
                       f"{envsim.alpha0_convention(kind)!r}, but the policy was trained with "
                       f"{policy.alpha0_convention!r}; pass the env it was trained on")
    return kind


def _parse_profile(text: str) -> streamexec.StageLatency:
    if text == "reference":
        return streamexec.REFERENCE_PROFILE
    if text == "zero":
        return streamexec.ZERO_LATENCY
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) not in (3, 4):
        raise CliError("profile must be 'reference', 'zero', or t_obs,t_gen,t_exec[,t_pred]")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise CliError(f"bad profile {text!r}") from exc
    return streamexec.StageLatency(*vals)


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise CliError(f"bad hidden layout {text!r}") from exc
    if not dims:
        raise CliError("hidden layout must name at least one layer width")
    return dims


def _load_trajectories(path):
    try:
        return load_dataset(path)
    except FileNotFoundError as exc:
        raise CliError(f"dataset not found: {path}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_gen_data(args) -> int:
    schema = {
        "env": (str, "direct"),
        "episodes": (int, 200),
        "seed": (int, 0),
        "step_cap": (int, 120),
        "noise": (float, envsim.EXPERT_NOISE),
        "out": (str, "demos.jsonl"),
    }
    cfg = _resolve(args, schema)
    kind = _env_kind(cfg["env"])
    trajectories = envsim.generate_demos(
        kind, cfg["episodes"], cfg["seed"], step_cap=cfg["step_cap"], noise=cfg["noise"]
    )
    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(out, trajectories, dim=trajectories[0].actions.shape[1],
                 env_meta=envsim.env_metadata(kind), seed=cfg["seed"])
    _write_manifest(out.parent, "gen-data", cfg, {"dataset": out})
    lengths = [len(t) for t in trajectories]
    print(f"wrote {len(trajectories)} episodes to {out} "
          f"(steps min/mean/max = {min(lengths)}/{np.mean(lengths):.1f}/{max(lengths)})")
    return 0


def _cmd_train_policy(args) -> int:
    schema = {
        "data": (str, None),
        "out": (str, "policy.ckpt"),
        "iterations": (int, 20000),
        "batch_size": (int, 64),
        "lr": (float, 1e-3),
        "lr_schedule": (str, "constant"),
        "seed": (int, 0),
        "hidden": (str, "128,128"),
        "horizon": (int, 10),
        "no_state_alignment": (bool, False),
        "resume": (str, ""),
        "log": (str, ""),
        "log_every": (int, 100),
    }
    cfg = _resolve(args, schema)
    if not cfg["data"]:
        raise CliError("--data is required")
    trajectories, header = _load_trajectories(cfg["data"])
    convention = header.get("env", {}).get("alpha0", "zero")

    tc = TrainConfig(
        h=cfg["horizon"],
        iterations=cfg["iterations"],
        batch_size=cfg["batch_size"],
        lr=cfg["lr"],
        lr_schedule=cfg["lr_schedule"],
        seed=cfg["seed"],
        use_state_alignment=not cfg["no_state_alignment"],
        hidden=_parse_hidden(cfg["hidden"]),
        log_every=cfg["log_every"],
    )

    resume = None
    if cfg["resume"]:
        policy, adam, iteration = load_policy(cfg["resume"])
        if adam is None or iteration is None:
            raise CliError("checkpoint lacks optimizer state; cannot resume")
        resume = (policy, adam, iteration)
        print(f"resuming from {cfg['resume']} at iteration {iteration}")

    def progress(i, loss, wall_ms):
        print(f"iter {i:>7d}  loss {loss:.6f}  ({wall_ms / 1e3:.1f}s)", flush=True)

    policy, adam, log = trainer.train(
        trajectories, tc, alpha0_convention=convention, resume=resume, progress=progress
    )
    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    save_policy(out, policy, adam=adam, iteration=tc.iterations)
    artifacts = {"policy": out}
    log_path = Path(cfg["log"]) if cfg["log"] else out.with_suffix(".log.csv")
    trainer.write_train_log(log_path, log)
    artifacts["train_log"] = log_path
    _write_manifest(out.parent, "train-policy", cfg, artifacts)
    print(f"saved policy to {out} (final loss {log[-1][1]:.6f})")
    return 0


def _cmd_train_predictor(args) -> int:
    schema = {
        "data": (str, None),
        "out": (str, "predictor.ckpt"),
        "iterations": (int, 3000),
        "batch_size": (int, 64),
        "lr": (float, 1e-4),
        "seed": (int, 0),
    }
    cfg = _resolve(args, schema)
    if not cfg["data"]:
        raise CliError("--data is required")
    trajectories, _header = _load_trajectories(cfg["data"])
    pc = saliency.PredictorConfig(
        iterations=cfg["iterations"], batch_size=cfg["batch_size"],
        lr=cfg["lr"], seed=cfg["seed"],
    )

    def progress(i, loss):
        print(f"iter {i:>6d}  loss {loss:.6f}", flush=True)

    predictor, log = saliency.train_predictor(trajectories, pc, progress=progress)
    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    saliency.save_predictor(out, predictor, iteration=pc.iterations)
    _write_manifest(out.parent, "train-predictor", cfg, {"predictor": out})
    print(f"saved predictor to {out} (final loss {log[-1][1]:.6f})")
    return 0


def _indicator_from(cfg, predictor) -> saliency.Indicator | None:
    name = cfg["eo"]
    if name in ("", "none"):
        return None
    if name not in EO_NAMES:
        raise CliError(f"unknown early-observation mode {name!r}")
    mode = EO_NAMES[name]
    if mode == saliency.EO_ADAPTIVE and predictor is None:
        raise CliError("adaptive early observation needs --predictor")
    return saliency.Indicator(mode=mode, eta=cfg["eta"], p=cfg["p"])


def _cmd_rollout(args) -> int:
    schema = {
        "policy": (str, None),
        "predictor": (str, ""),
        "env": (str, ""),
        "episodes": (int, 20),
        "seed": (int, 0),
        "step_cap": (int, 120),
        "mode": (str, streamexec.MODE_STREAMING),
        "n_replan": (int, 0),
        "eo": (str, "none"),
        "eta": (float, 0.0),
        "p": (float, 1.0),
        "n_eo": (int, 2),
        "profile": (str, "reference"),
        "clock": (str, "simulated"),
        "trace_csv": (str, ""),
        "trace_json": (str, ""),
    }
    cfg = _resolve(args, schema)
    _check_step_cap(cfg)
    if not cfg["policy"]:
        raise CliError("--policy is required")
    policy, _adam, _it = load_policy(cfg["policy"])
    predictor = saliency.load_predictor(cfg["predictor"]) if cfg["predictor"] else None
    kind = _policy_env_kind(cfg, policy)
    stage = _parse_profile(cfg["profile"])
    scheduler = streamexec.SchedulerConfig(
        mode=cfg["mode"], h=policy.flow.h,
        n_replan=cfg["n_replan"] or None,
        eo=_indicator_from(cfg, predictor),
        n_eo=cfg["n_eo"], seed=cfg["seed"],
    )

    reports = []
    successes = 0
    for ep in range(cfg["episodes"]):
        env = envsim.make_env(kind, cfg["seed"], ep, step_cap=cfg["step_cap"])
        result = streamexec.run_episode(policy, predictor, env, stage, scheduler,
                                        clock=cfg["clock"])
        rep = metrics.measure(result.events, success=result.success)
        reports.append(rep)
        successes += int(result.success)
        if ep == 0:
            for key, writer in (("trace_csv", metrics.write_trace_csv),
                                ("trace_json", metrics.write_chrome_trace)):
                if cfg[key]:
                    Path(cfg[key]).parent.mkdir(parents=True, exist_ok=True)
                    writer(cfg[key], result.events)
        dist = float(np.linalg.norm(result.final_state.position - result.final_state.goal))
        print(f"episode {ep:>3d}  success={int(result.success)}  steps={result.steps:>3d}  "
              f"dist={dist:.3f}  t_action={rep.t_action:.2f}ms  t_halt={rep.t_halt:.2f}ms  "
              f"eo_fired={result.eo_fired}/{result.n_horizons}")
    print(f"success rate {successes}/{cfg['episodes']} = {successes / cfg['episodes']:.3f}  "
          f"mean t_action {np.mean([r.t_action for r in reports]):.3f}ms  "
          f"mean t_halt {np.mean([r.t_halt for r in reports]):.3f}ms")
    return 0


def _calib_rollouts(policy, kind, cfg) -> list:
    """On-policy trajectories for threshold calibration: plain streaming, no EO.

    Demonstration datasets over-represent low-saliency frames (they include
    the parked tail after success), which skews quantile thresholds; scoring
    the deployed policy's own horizon grid avoids that.
    """
    scheduler = streamexec.SchedulerConfig(mode=streamexec.MODE_STREAMING,
                                           h=policy.flow.h, seed=cfg["seed"])
    trajs = []
    for ep in range(cfg["calib_episodes"]):
        env = envsim.make_env(kind, cfg["calib_seed"], ep, step_cap=cfg["step_cap"])
        result = streamexec.run_episode(policy, None, env, streamexec.ZERO_LATENCY,
                                        scheduler, record_trajectory=True)
        trajs.append(result.trajectory)
    return trajs


def _bench_configs(cfg, policy, predictor, calib) -> dict[str, tuple]:
    """Label -> (SchedulerConfig, predictor or None) for the requested matrix."""
    h = policy.flow.h
    names = [n.strip() for n in cfg["eo"].split(",") if n.strip()]
    seed = cfg["seed"]
    n_replan = cfg["n_replan"] or max(1, h // 2)
    out: dict[str, tuple] = {}
    out[f"sync_replan{n_replan}"] = (
        streamexec.SchedulerConfig(mode=streamexec.MODE_SYNC_CHUNK, h=h,
                                   n_replan=n_replan, seed=seed), None)
    out["sync_full"] = (
        streamexec.SchedulerConfig(mode=streamexec.MODE_SYNC_CHUNK, h=h, seed=seed), None)
    out["streaming"] = (
        streamexec.SchedulerConfig(mode=streamexec.MODE_STREAMING, h=h, seed=seed), None)

    rate = cfg["target_rate"]
    n_eo = cfg["n_eo"]
    for name in names:
        if name == "none":
            continue
        if name not in EO_NAMES:
            raise CliError(f"unknown early-observation mode {name!r}")
        mode = EO_NAMES[name]
        if mode == saliency.EO_NAIVE:
            ind = saliency.Indicator(mode=mode)
        elif mode == saliency.EO_RANDOM:
            ind = saliency.Indicator(mode=mode, p=rate)
        else:
            if calib is None:
                raise CliError(f"{name} early observation needs calibration data")
            if mode == saliency.EO_ADAPTIVE and predictor is None:
                raise CliError("adaptive early observation needs --predictor")
            scores = saliency.decision_scores(predictor, calib, h, n_eo, mode=mode)
            ind = saliency.Indicator(mode=mode, eta=saliency.calibrate_threshold(scores, rate))
        out[f"streaming+{name}"] = (
            streamexec.SchedulerConfig(mode=streamexec.MODE_STREAMING, h=h, eo=ind,
                                       n_eo=n_eo, seed=seed),
            predictor if mode == saliency.EO_ADAPTIVE else None)
    return out


def _cmd_bench(args) -> int:
    schema = {
        "policy": (str, None),
        "predictor": (str, ""),
        "calib_data": (str, ""),
        "env": (str, ""),
        "episodes": (int, 50),
        "seed": (int, 0),
        "step_cap": (int, 120),
        "n_replan": (int, 0),
        "eo": (str, "naive,random,anao,adaptive"),
        "n_eo": (int, 3),
        "target_rate": (float, 0.85),
        "calib_episodes": (int, 100),
        "calib_seed": (int, 3000),
        "match_random": (bool, True),
        "profile": (str, "reference"),
        "clock": (str, "simulated"),
        "out_dir": (str, "bench_out"),
        "traces": (bool, False),
    }
    cfg = _resolve(args, schema)
    _check_step_cap(cfg)
    if not cfg["policy"]:
        raise CliError("--policy is required")
    policy, _adam, _it = load_policy(cfg["policy"])
    predictor = saliency.load_predictor(cfg["predictor"]) if cfg["predictor"] else None
    kind = _policy_env_kind(cfg, policy)
    stage = _parse_profile(cfg["profile"])

    names = [n.strip() for n in cfg["eo"].split(",") if n.strip()]
    calib = None
    if cfg["calib_data"]:
        calib, _ = _load_trajectories(cfg["calib_data"])
    elif any(EO_NAMES.get(n) in (saliency.EO_ACTION_NORM, saliency.EO_ADAPTIVE)
             for n in names):
        calib = _calib_rollouts(policy, kind, cfg)

    configs = _bench_configs(cfg, policy, predictor, calib)
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    results: dict[str, list[metrics.MetricsReport]] = {}
    rates: dict[str, float] = {}
    artifacts: dict[str, str] = {}

    # every configuration runs the same episodes
    envs = [envsim.make_env(kind, cfg["seed"], ep, step_cap=cfg["step_cap"])
            for ep in range(cfg["episodes"])]

    def run_config(label):
        scheduler, pred = configs[label]
        reports = []
        fired = decisions = 0
        for ep, env in enumerate(envs):
            result = streamexec.run_episode(policy, pred, env, stage, scheduler,
                                            clock=cfg["clock"])
            reports.append(metrics.measure(result.events, success=result.success))
            fired += result.eo_fired
            decisions += result.eo_decisions
            if ep == 0 and cfg["traces"]:
                csv_path = out_dir / f"trace_{label}.csv"
                json_path = out_dir / f"trace_{label}.json"
                metrics.write_trace_csv(csv_path, result.events)
                metrics.write_chrome_trace(json_path, result.events)
                artifacts[f"trace_{label}_csv"] = csv_path
                artifacts[f"trace_{label}_json"] = json_path
        results[label] = reports
        rates[label] = fired / max(1, decisions)
        mean_a = np.mean([r.t_action for r in reports])
        print(f"{label:<24s} t_action {mean_a:8.3f}ms  "
              f"success {np.mean([r.success for r in reports]):.2f}  "
              f"eo_rate {rates[label]:.3f}", flush=True)

    # the random indicator is matched to the adaptive one's realized firing
    # rate, so run it after everything else. Schedules that observe the same
    # state plan the same horizon; the scope computes each one once.
    random_label = "streaming+random"
    with streamexec.shared_horizons():
        for label in configs:
            if label != random_label:
                run_config(label)
        if random_label in configs:
            adaptive_label = "streaming+adaptive"
            if cfg["match_random"] and adaptive_label in rates:
                scheduler, _ = configs[random_label]
                ind = saliency.Indicator(mode=saliency.EO_RANDOM, p=rates[adaptive_label])
                configs[random_label] = (replace(scheduler, eo=ind), None)
            run_config(random_label)
    results = {label: results[label] for label in configs if label in results}

    baseline = next(iter(configs))
    csv_text, table = metrics.aggregate(results, baseline)
    csv_path = out_dir / "results.csv"
    csv_path.write_text(csv_text)
    table_path = out_dir / "results.txt"
    table_path.write_text(table)
    artifacts["results_csv"] = csv_path
    artifacts["results_txt"] = table_path
    _write_manifest(out_dir, "bench", cfg, artifacts)
    print()
    print(table, end="")
    return 0


def _cmd_predict_timing(args) -> int:
    schema = {
        "profile": (str, "reference"),
        "horizon": (int, 10),
        "n_replan": (int, 5),
        "n_eo_avg": (float, 1.54),
    }
    cfg = _resolve(args, schema)
    stage = _parse_profile(cfg["profile"])
    h, n_rep = cfg["horizon"], cfg["n_replan"]

    rows = [
        ("sync_full", metrics.closed_form(stage, h, streamexec.MODE_SYNC_CHUNK)),
        (f"sync_replan{n_rep}",
         metrics.closed_form(stage, h, streamexec.MODE_SYNC_CHUNK, n_replan=n_rep)),
        ("streaming", metrics.closed_form(stage, h, streamexec.MODE_STREAMING)),
        (f"streaming+eo(avg {cfg['n_eo_avg']:g})",
         metrics.closed_form(stage, h, streamexec.MODE_STREAMING, n_eo_avg=cfg["n_eo_avg"])),
    ]
    base = rows[1][1]
    print(f"profile: t_obs={stage.t_obs:g} t_gen={stage.t_gen:g} "
          f"t_exec={stage.t_exec:g} t_pred={stage.t_pred:g} (ms), h={h}")
    print(f"{'config':<26s} {'t_action':>10s} {'t_halt':>10s} {'o_ge':>8s} {'o_oe':>8s} "
          f"{'speedup_a':>10s} {'speedup_h':>10s}")
    for name, cf in rows:
        sa = base["t_action"] / cf["t_action"] if cf["t_action"] else float("inf")
        sh = base["t_halt"] / cf["t_halt"] if cf["t_halt"] else float("inf")
        print(f"{name:<26s} {cf['t_action']:>10.3f} {cf['t_halt']:>10.3f} "
              f"{cf['o_ge']:>8.2f} {cf['o_oe']:>8.2f} {sa:>10.2f} {sh:>10.2f}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streampolicy",
        description="streaming policy execution: data, training, rollout, benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (lowest precedence)")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("gen-data", help="generate scripted demonstrations")
    add_common(p)
    p.add_argument("--env", choices=[envsim.KIND_DIRECT, envsim.KIND_CONTROLLER])
    p.add_argument("--episodes", type=int)
    p.add_argument("--step-cap", dest="step_cap", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--out")

    p = sub.add_parser("train-policy", help="train the streaming flow policy")
    add_common(p)
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--iterations", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--lr-schedule", dest="lr_schedule", choices=["constant", "cosine"])
    p.add_argument("--hidden", help="comma-separated hidden widths, e.g. 128,128")
    p.add_argument("--horizon", type=int)
    p.add_argument("--no-state-alignment", dest="no_state_alignment",
                   action="store_const", const=True,
                   help="ablation: start every horizon ledger at zero")
    p.add_argument("--resume", help="checkpoint to continue training from")
    p.add_argument("--log", help="training-log csv path")
    p.add_argument("--log-every", dest="log_every", type=int)

    p = sub.add_parser("train-predictor", help="train the saliency change predictor")
    add_common(p)
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--iterations", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)

    def add_exec_opts(p):
        p.add_argument("--policy")
        p.add_argument("--predictor")
        p.add_argument("--env", choices=[envsim.KIND_DIRECT, envsim.KIND_CONTROLLER],
                       help="default: the env whose ledger seeding the policy was trained with")
        p.add_argument("--episodes", type=int)
        p.add_argument("--step-cap", dest="step_cap", type=int)
        p.add_argument("--n-eo", dest="n_eo", type=int)
        p.add_argument("--profile", help="'reference', 'zero', or t_obs,t_gen,t_exec[,t_pred]")
        p.add_argument("--clock", choices=["simulated", "wall"])

    p = sub.add_parser("rollout", help="run episodes and report per-episode metrics")
    add_common(p)
    add_exec_opts(p)
    p.add_argument("--mode", choices=[streamexec.MODE_STREAMING, streamexec.MODE_SYNC_CHUNK])
    p.add_argument("--n-replan", dest="n_replan", type=int)
    p.add_argument("--eo", help="none, naive, random, anao, or adaptive")
    p.add_argument("--eta", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--trace-csv", dest="trace_csv")
    p.add_argument("--trace-json", dest="trace_json")

    p = sub.add_parser("bench", help="benchmark the scheduling/indicator matrix")
    add_common(p)
    add_exec_opts(p)
    p.add_argument("--calib-data", dest="calib_data",
                   help="trajectories for threshold calibration "
                        "(default: fresh on-policy rollouts)")
    p.add_argument("--calib-episodes", dest="calib_episodes", type=int)
    p.add_argument("--calib-seed", dest="calib_seed", type=int)
    p.add_argument("--n-replan", dest="n_replan", type=int)
    p.add_argument("--eo", help="comma list drawn from naive,random,anao,adaptive")
    p.add_argument("--target-rate", dest="target_rate", type=float)
    p.add_argument("--no-match-random", dest="match_random", action="store_const",
                   const=False, help="keep the random indicator at the target rate "
                                     "instead of the adaptive one's realized rate")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--traces", action="store_const", const=True,
                   help="write first-episode traces per configuration")

    p = sub.add_parser("predict-timing", help="closed-form latency for a stage profile")
    add_common(p)
    p.add_argument("--profile")
    p.add_argument("--horizon", type=int)
    p.add_argument("--n-replan", dest="n_replan", type=int)
    p.add_argument("--n-eo-avg", dest="n_eo_avg", type=float)

    return parser


_DISPATCH = {
    "gen-data": _cmd_gen_data,
    "train-policy": _cmd_train_policy,
    "train-predictor": _cmd_train_predictor,
    "rollout": _cmd_rollout,
    "bench": _cmd_bench,
    "predict-timing": _cmd_predict_timing,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DatasetError, CheckpointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GenerationError, TrainingDivergedError, FloatingPointError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
