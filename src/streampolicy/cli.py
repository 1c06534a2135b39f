"""Command-line front end.

Subcommands cover the full workflow: generate demonstrations, train the
policy and the saliency predictor, roll out episodes under either scheduler,
benchmark the mode/indicator matrix, and print closed-form timing.

Each subcommand's options are declared once, as rows of _COMMANDS; each row
gives the flag, the STREAMPOLICY_<OPTION> variable and the config-file key.
Configuration precedence, lowest to highest: JSON config file (--config),
environment variables, command-line flags. Values from the file and the
environment are parsed as the flag's text is. Commands that produce artifacts
also write a manifest.json recording the resolved configuration and sha256 of
every artifact.

Exit codes: 0 success, 2 configuration or input errors (a bad or missing
option, an unreadable dataset or checkpoint), 3 runtime failures (demo
generation exhausted, training diverged).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import envsim, metrics, saliency, streamexec, trainer
from .core import DatasetError, load_dataset, save_dataset
from .envsim import GenerationError
from .trainer import TrainConfig, TrainingDivergedError
from .velocitynet import CheckpointError, load_policy, save_policy

ENV_PREFIX = "STREAMPOLICY_"
_ENVS = [envsim.KIND_DIRECT, envsim.KIND_CONTROLLER]

EO_NAMES = {
    "naive": saliency.EO_NAIVE,
    "random": saliency.EO_RANDOM,
    "anao": saliency.EO_ACTION_NORM,
    "adaptive": saliency.EO_ADAPTIVE,
}


class CliError(Exception):
    """Bad inputs or configuration; maps to exit code 2."""


class _Opt(NamedTuple):
    """One option of a subcommand. A None default marks a required option; a
    bool one is a switch whose flag flips its default (--name or --no-name)."""

    name: str
    type: type
    default: object
    choices: list | None = None
    help: str | None = None


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse(opt: _Opt, raw, source: str):
    """raw, a config-file JSON value or an environment variable's text, parsed
    as the flag's text is; source names where it came from in the error."""
    if opt.type is int and isinstance(raw, float) and raw.is_integer():
        raw = int(raw)
    # null, a list, an object, or a boolean for a non-bool option has no flag text
    if isinstance(raw, str) or (isinstance(raw, (int, float))
                                and (opt.type is bool or not isinstance(raw, bool))):
        try:
            return _parse_bool(str(raw)) if opt.type is bool else opt.type(str(raw))
        except ValueError:
            pass
    raise CliError(f"{source}: invalid {opt.type.__name__} value: {json.dumps(raw)}")


def _resolve(args: argparse.Namespace) -> dict:
    """Merge config file < environment < flags for the options of
    args.command. Flags parsed as None are treated as unset so
    lower-precedence sources can fill them."""
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
    for opt in _COMMANDS[args.command][2]:
        value = opt.default
        if opt.name in file_cfg:
            value = _parse(opt, file_cfg[opt.name], f"config key {opt.name!r}")
        env_name = ENV_PREFIX + opt.name.upper()
        if env_name in os.environ:
            value = _parse(opt, os.environ[env_name], env_name)
        if getattr(args, opt.name) is not None:
            value = getattr(args, opt.name)
        if value is None:
            raise CliError(f"--{opt.name.replace('_', '-')} is required")
        resolved[opt.name] = value
    return resolved


def _check_counts(cfg: dict, *names: str, least: int = 1) -> None:
    """Each named count must be at least least; a smaller one would run
    nothing (no episodes, no training iterations) or divide by zero."""
    for name in names:
        if cfg[name] < least:
            raise CliError(f"--{name.replace('_', '-')} must be at least {least}, got {cfg[name]}")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _artifact(path) -> dict:
    """A manifest entry: the artifact's path and sha256."""
    return {"path": str(path), "sha256": _sha256(path)}


def _write_manifest(directory, command: str, resolved: dict, artifacts: dict[str, dict]) -> None:
    """manifest.json: the command, its resolved configuration and each
    artifact's entry (see _artifact)."""
    manifest = {
        "command": command,
        "config": {k: (v if not isinstance(v, Path) else str(v)) for k, v in resolved.items()},
        "artifacts": artifacts,
    }
    path = Path(directory) / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _env_kind(name: str) -> envsim.EnvKind:
    if name not in _ENVS:
        raise CliError(f"unknown env {name!r} (expected direct or controller)")
    return envsim.EnvKind(variant=name)


def _policy_env_kind(cfg: dict, policy) -> envsim.EnvKind:
    """The env kind for policy. An explicit env must seed its ledger as the
    policy's training data did; without one, the env whose convention matches
    is taken and recorded in cfg."""
    if not cfg["env"]:
        matching = [n for n in _ENVS
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


def _cmd_gen_data(cfg) -> int:
    _check_counts(cfg, "episodes", "step_cap")
    kind = _env_kind(cfg["env"])
    trajectories = envsim.generate_demos(
        kind, cfg["episodes"], cfg["seed"], step_cap=cfg["step_cap"], noise=cfg["noise"]
    )
    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(out, trajectories, dim=trajectories[0].actions.shape[1],
                 env_meta=envsim.env_metadata(kind), seed=cfg["seed"])
    _write_manifest(out.parent, "gen-data", cfg, {"dataset": _artifact(out)})
    lengths = [len(t) for t in trajectories]
    print(f"wrote {len(trajectories)} episodes to {out} "
          f"(steps min/mean/max = {min(lengths)}/{np.mean(lengths):.1f}/{max(lengths)})")
    return 0


def _cmd_train_policy(cfg) -> int:
    _check_counts(cfg, "iterations", "log_every")
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
        print(f"resuming from {cfg['resume']} at iteration {iteration}")
        _check_counts(cfg, "iterations", least=iteration + 1)
        resume = (policy, adam, iteration)

    def progress(i, loss, wall_ms):
        print(f"iter {i:>7d}  loss {loss:.6f}  ({wall_ms / 1e3:.1f}s)", flush=True)

    policy, adam, log = trainer.train(
        trajectories, tc, alpha0_convention=convention, resume=resume, progress=progress
    )
    out = Path(cfg["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    save_policy(out, policy, adam=adam, iteration=tc.iterations)
    log_path = Path(cfg["log"]) if cfg["log"] else out.with_suffix(".log.csv")
    trainer.write_train_log(log_path, log)
    # the log's wall_ms differ from run to run; its losses do not
    train_log = {**_artifact(log_path), "iteration_loss_sha256": trainer.train_log_digest(log_path)}
    _write_manifest(out.parent, "train-policy", cfg, {"policy": _artifact(out), "train_log": train_log})
    print(f"saved policy to {out} (final loss {log[-1][1]:.6f})")
    return 0


def _cmd_train_predictor(cfg) -> int:
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
    _write_manifest(out.parent, "train-predictor", cfg, {"predictor": _artifact(out)})
    print(f"saved predictor to {out} (final loss {log[-1][1]:.6f})")
    return 0


def _eo_mode(name: str, predictor) -> str:
    """The indicator mode --eo name selects; adaptive needs a predictor."""
    if name not in EO_NAMES:
        raise CliError(f"unknown early-observation mode {name!r}")
    mode = EO_NAMES[name]
    if mode == saliency.EO_ADAPTIVE and predictor is None:
        raise CliError("adaptive early observation needs --predictor")
    return mode


def _indicator_from(cfg, predictor) -> saliency.Indicator | None:
    if cfg["eo"] in ("", "none"):
        return None
    return saliency.Indicator(mode=_eo_mode(cfg["eo"], predictor), eta=cfg["eta"], p=cfg["p"])


def _sweep(policy, predictor, envs, stage, scheduler, clock, trace_csv="", trace_json=""):
    """Run one episode per handle of envs and yield (result, its
    MetricsReport) as each ends; the first episode's event log is written to
    trace_csv and trace_json, where given."""
    results = streamexec.run_episodes(policy, predictor, envs, stage, scheduler, clock=clock)
    for ep, result in enumerate(results):
        if ep == 0:
            for path, writer in ((trace_csv, metrics.write_trace_csv),
                                 (trace_json, metrics.write_chrome_trace)):
                if path:
                    Path(path).parent.mkdir(parents=True, exist_ok=True)
                    writer(path, result.events)
        yield result, metrics.measure(result.events, success=result.success)


def _load_run(cfg) -> tuple:
    """(policy, predictor or None, env kind, stage profile) that rollout and
    bench run."""
    policy, _adam, _it = load_policy(cfg["policy"])
    predictor = saliency.load_predictor(cfg["predictor"]) if cfg["predictor"] else None
    return policy, predictor, _policy_env_kind(cfg, policy), _parse_profile(cfg["profile"])


def _cmd_rollout(cfg) -> int:
    _check_counts(cfg, "episodes", "step_cap")
    policy, predictor, kind, stage = _load_run(cfg)
    scheduler = streamexec.SchedulerConfig(
        mode=cfg["mode"], h=policy.flow.h,
        n_replan=cfg["n_replan"] or None,
        eo=_indicator_from(cfg, predictor),
        n_eo=cfg["n_eo"], seed=cfg["seed"],
    )

    envs = (envsim.make_env(kind, cfg["seed"], ep, step_cap=cfg["step_cap"])
            for ep in range(cfg["episodes"]))
    runs = _sweep(policy, predictor, envs, stage, scheduler, cfg["clock"],
                  cfg["trace_csv"], cfg["trace_json"])
    # the wall clock also reports its overruns: events whose host work ended late
    wall = cfg["clock"] == "wall"
    reports, overruns = [], 0
    for ep, (result, rep) in enumerate(runs):
        reports.append(rep)
        overruns += result.overruns
        dist = float(np.linalg.norm(result.final_state.position - result.final_state.goal))
        print(f"episode {ep:>3d}  success={int(result.success)}  steps={result.steps:>3d}  "
              f"dist={dist:.3f}  t_action={rep.t_action:.2f}ms  t_halt={rep.t_halt:.2f}ms  "
              f"eo_fired={result.eo_fired}/{result.n_horizons}"
              + (f"  overruns={result.overruns}" if wall else ""))
    successes = sum(int(r.success) for r in reports)
    print(f"success rate {successes}/{cfg['episodes']} = {successes / cfg['episodes']:.3f}  "
          f"mean t_action {np.mean([r.t_action for r in reports]):.3f}ms  "
          f"mean t_halt {np.mean([r.t_halt for r in reports]):.3f}ms"
          + (f"  overruns {overruns}" if wall else ""))
    return 0


def _calib_rollouts(policy, kind, cfg) -> list:
    """On-policy trajectories for threshold calibration (see streamexec)."""
    return streamexec.calibration_trajectories(policy, kind, cfg["calib_seed"],
                                               cfg["calib_episodes"], cfg["step_cap"])


def _bench_configs(cfg, policy, predictor, modes, calib) -> dict[str, tuple]:
    """Label -> (SchedulerConfig, predictor or None) for the requested matrix;
    modes maps each --eo name to its indicator mode."""
    h = policy.flow.h
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
    for name, mode in modes.items():
        if mode == saliency.EO_NAIVE:
            ind = saliency.Indicator(mode=mode)
        elif mode == saliency.EO_RANDOM:
            ind = saliency.Indicator(mode=mode, p=rate)
        else:
            scores = saliency.decision_scores(predictor, calib, h, n_eo, mode=mode)
            ind = saliency.Indicator(mode=mode, eta=saliency.calibrate_threshold(scores, rate))
        out[f"streaming+{name}"] = (
            streamexec.SchedulerConfig(mode=streamexec.MODE_STREAMING, h=h, eo=ind,
                                       n_eo=n_eo, seed=seed),
            predictor if mode == saliency.EO_ADAPTIVE else None)
    return out


def _cmd_bench(cfg) -> int:
    _check_counts(cfg, "episodes", "step_cap")
    policy, predictor, kind, stage = _load_run(cfg)

    names = [n.strip() for n in cfg["eo"].split(",") if n.strip() not in ("", "none")]
    calibrate = not cfg["calib_data"] and any(
        EO_NAMES.get(n) in saliency.SCORED_MODES for n in names)
    if calibrate:
        _check_counts(cfg, "calib_episodes")
        if cfg["step_cap"] < policy.flow.h:
            raise CliError(f"--step-cap {cfg['step_cap']} is below the policy's h={policy.flow.h}: "
                           "calibration rollouts that short hold no decision point")
    if names:
        h, n_eo, rate = policy.flow.h, cfg["n_eo"], cfg["target_rate"]
        if not 1 <= n_eo < h:
            raise CliError(f"--n-eo must satisfy 1 <= n_eo < h={h}, the policy's horizon; got {n_eo}")
        if not 0.0 <= rate <= 1.0:
            raise CliError(f"--target-rate must lie in [0, 1], got {rate}")
    # every indicator is resolved before any calibration rollout
    modes = {n: _eo_mode(n, predictor) for n in names}
    calib = None
    if cfg["calib_data"]:
        calib, _ = _load_trajectories(cfg["calib_data"])
    elif calibrate:
        calib = _calib_rollouts(policy, kind, cfg)

    configs = _bench_configs(cfg, policy, predictor, modes, calib)
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
        traces = ("", "")
        if cfg["traces"]:
            traces = (out_dir / f"trace_{label}.csv", out_dir / f"trace_{label}.json")
            artifacts[f"trace_{label}_csv"], artifacts[f"trace_{label}_json"] = traces
        reports = []
        fired = decisions = 0
        for result, rep in _sweep(policy, pred, envs, stage, scheduler, cfg["clock"], *traces):
            reports.append(rep)
            fired += result.eo_fired
            decisions += result.eo_decisions
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
    _write_manifest(out_dir, "bench", cfg, {name: _artifact(p) for name, p in artifacts.items()})
    print()
    print(table, end="")
    return 0


def _cmd_predict_timing(cfg) -> int:
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
        sa = metrics._ratio(base["t_action"], cf["t_action"])
        sh = metrics._ratio(base["t_halt"], cf["t_halt"])
        print(f"{name:<26s} {cf['t_action']:>10.3f} {cf['t_halt']:>10.3f} "
              f"{cf['o_ge']:>8.2f} {cf['o_oe']:>8.2f} {sa:>10s} {sh:>10s}")
    return 0


# ---------------------------------------------------------------------------
# options and parser
# ---------------------------------------------------------------------------

_SEED = _Opt("seed", int, 0)
_PROFILE = _Opt("profile", str, "reference",
                help="'reference', 'zero', or t_obs,t_gen,t_exec[,t_pred]")


def _run_options(episodes: int, n_eo: int) -> list[_Opt]:
    """The options rollout and bench share, with their two defaults that differ."""
    return [
        _SEED,
        _Opt("policy", str, None),
        _Opt("predictor", str, ""),
        _Opt("env", str, "", _ENVS,
             "default: the env whose ledger seeding the policy was trained with"),
        _Opt("episodes", int, episodes),
        _Opt("step_cap", int, 120),
        _Opt("n_eo", int, n_eo),
        _PROFILE,
        _Opt("clock", str, "simulated", ["simulated", "wall"]),
    ]


# command -> (handler, help, options); each option's row gives its flag, its
# STREAMPOLICY_<NAME> variable and its config-file key
_COMMANDS = {
    "gen-data": (_cmd_gen_data, "generate scripted demonstrations", [
        _SEED,
        _Opt("env", str, envsim.KIND_DIRECT, _ENVS),
        _Opt("episodes", int, 200),
        _Opt("step_cap", int, 120),
        _Opt("noise", float, envsim.EXPERT_NOISE, help="expert action noise std: finite, 0 or more"),
        _Opt("out", str, "demos.jsonl"),
    ]),
    "train-policy": (_cmd_train_policy, "train the streaming flow policy", [
        _SEED,
        _Opt("data", str, None),
        _Opt("out", str, "policy.ckpt"),
        _Opt("iterations", int, 20000),
        _Opt("batch_size", int, 64),
        _Opt("lr", float, 1e-3),
        _Opt("lr_schedule", str, "constant", ["constant", "cosine"]),
        _Opt("hidden", str, "128,128", help="comma-separated hidden widths, e.g. 128,128"),
        _Opt("horizon", int, 10),
        _Opt("no_state_alignment", bool, False,
             help="ablation: start every horizon ledger at zero"),
        _Opt("resume", str, "", help="checkpoint to continue training from"),
        _Opt("log", str, "", help="training-log csv path"),
        _Opt("log_every", int, 100),
    ]),
    "train-predictor": (_cmd_train_predictor, "train the saliency change predictor", [
        _SEED,
        _Opt("data", str, None),
        _Opt("out", str, "predictor.ckpt"),
        _Opt("iterations", int, 3000),
        _Opt("batch_size", int, 64),
        _Opt("lr", float, 1e-4),
    ]),
    "rollout": (_cmd_rollout, "run episodes and report per-episode metrics", [
        *_run_options(episodes=20, n_eo=2),
        _Opt("mode", str, streamexec.MODE_STREAMING,
             [streamexec.MODE_STREAMING, streamexec.MODE_SYNC_CHUNK]),
        _Opt("n_replan", int, 0),
        _Opt("eo", str, "none", help="none, naive, random, anao, or adaptive"),
        _Opt("eta", float, 0.0),
        _Opt("p", float, 1.0),
        _Opt("trace_csv", str, ""),
        _Opt("trace_json", str, ""),
    ]),
    "bench": (_cmd_bench, "benchmark the scheduling/indicator matrix", [
        *_run_options(episodes=50, n_eo=3),
        _Opt("calib_data", str, "", help="trajectories for threshold calibration "
                                          "(default: fresh on-policy rollouts)"),
        _Opt("calib_episodes", int, 100),
        _Opt("calib_seed", int, 3000),
        _Opt("n_replan", int, 0),
        _Opt("eo", str, "naive,random,anao,adaptive",
             help="comma list drawn from naive,random,anao,adaptive"),
        _Opt("target_rate", float, 0.85),
        _Opt("match_random", bool, True, help="keep the random indicator at the target rate "
                                              "instead of the adaptive one's realized rate"),
        _Opt("out_dir", str, "bench_out"),
        _Opt("traces", bool, False, help="write first-episode traces per configuration"),
    ]),
    "predict-timing": (_cmd_predict_timing, "closed-form latency for a stage profile", [
        _PROFILE,
        _Opt("horizon", int, 10),
        _Opt("n_replan", int, 5),
        _Opt("n_eo_avg", float, 1.54),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streampolicy",
        description="streaming policy execution: data, training, rollout, benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_handler, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file (lowest precedence)")
        for opt in options:
            flag = opt.name.replace("_", "-")
            if opt.type is bool:
                p.add_argument(f"--no-{flag}" if opt.default else f"--{flag}", dest=opt.name,
                               action="store_const", const=not opt.default, help=opt.help)
            else:
                # a str option takes the flag's text as it is
                p.add_argument(f"--{flag}", dest=opt.name, choices=opt.choices, help=opt.help,
                               type=None if opt.type is str else opt.type)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_resolve(args))
    except (CliError, DatasetError, CheckpointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GenerationError, TrainingDivergedError, FloatingPointError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
