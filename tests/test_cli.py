import contextlib
import hashlib
import json
import math
import os
import platform
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import streampolicy
from streampolicy import cli, envsim, metrics, saliency, streamexec
from streampolicy.cli import main
from streampolicy.core import (
    TAG_TRAJECTORY_DATASET, CheckpointError, load_dataset, read_container, write_container,
)
from streampolicy.velocitynet import load_policy
from test_core import write_version_2_dataset


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """gen-data + train-policy pipeline shared by the rollout/bench tests."""
    d = tmp_path_factory.mktemp("cli")
    demos = d / "data" / "demos.bin"
    rc = main(["gen-data", "--env", "controller", "--episodes", "25",
               "--seed", "7", "--out", str(demos)])
    assert rc == 0
    policy = d / "policy" / "policy.ckpt"
    rc = main(["train-policy", "--data", str(demos), "--out", str(policy),
               "--iterations", "200", "--batch-size", "16", "--hidden", "16,16",
               "--log-every", "50"])
    assert rc == 0
    return d


def _manifest(directory, command=None) -> dict:
    """The commands' entries of directory's manifest.json, or command's."""
    commands = json.loads((Path(directory) / "manifest.json").read_text())["commands"]
    return commands if command is None else commands[command]


def test_gen_data_writes_dataset_and_manifest(workdir):
    demos = workdir / "data" / "demos.bin"
    trajs, header = load_dataset(demos)
    assert len(trajs) == 25
    assert header["env"]["variant"] == "controller"
    assert header["seed"] == 7

    manifest = _manifest(workdir / "data", "gen-data")
    entry = manifest["artifacts"]["dataset"]
    assert entry["sha256"] == hashlib.sha256(demos.read_bytes()).hexdigest()
    assert manifest["config"]["episodes"] == 25


def test_trained_policy_loads(workdir):
    ckpt = workdir / "policy" / "policy.ckpt"
    policy, adam, iteration = load_policy(ckpt)
    assert iteration == 200
    assert adam is not None
    assert policy.alpha0_convention == "zero"
    assert (workdir / "policy" / "policy.log.csv").exists()
    manifest = _manifest(workdir / "policy", "train-policy")
    assert manifest["artifacts"]["policy"]["sha256"] == \
        hashlib.sha256(ckpt.read_bytes()).hexdigest()


def test_train_policy_manifest_digests_the_logged_losses(workdir, tmp_path):
    """Two identical train-policy runs log the same losses at different
    wall times: the manifest's iteration,loss digest of the log agrees, and
    it is the sha256 of those two columns as the log holds them."""
    manifests = []
    for run in ("a", "b"):
        out = tmp_path / run / "policy.ckpt"
        rc = main(["train-policy", "--data", str(workdir / "data" / "demos.bin"),
                   "--out", str(out), "--iterations", "30", "--batch-size", "16",
                   "--hidden", "16,16", "--log-every", "10"])
        assert rc == 0
        manifests.append(_manifest(out.parent, "train-policy"))
    logs = [m["artifacts"]["train_log"] for m in manifests]
    assert logs[0]["iteration_loss_sha256"] == logs[1]["iteration_loss_sha256"]
    text = Path(logs[0]["path"]).read_text()
    columns = "".join(",".join(line.split(",")[:2]) + "\n" for line in text.splitlines())
    assert columns.startswith("iteration,loss\n")
    assert logs[0]["iteration_loss_sha256"] == hashlib.sha256(columns.encode()).hexdigest()
    assert manifests[0]["artifacts"]["policy"]["sha256"] == manifests[1]["artifacts"]["policy"]["sha256"]


def test_commands_sharing_a_directory_keep_every_manifest_entry(tmp_path):
    """gen-data, train-policy and train-predictor into one directory, as
    scripts/run_pipeline.sh runs them: the manifest keeps every command's
    digests, and a re-run replaces only its own entry."""
    demos, policy, predictor = (tmp_path / n for n in ("demos.bin", "policy.ckpt", "predictor.ckpt"))

    def gen_data(seed):
        return main(["gen-data", "--env", "controller", "--episodes", "12", "--seed", str(seed),
                     "--out", str(demos)])

    assert gen_data(3) == 0
    assert main(["train-policy", "--data", str(demos), "--out", str(policy), "--iterations", "20",
                 "--batch-size", "8", "--hidden", "8", "--log-every", "10"]) == 0
    assert main(["train-predictor", "--data", str(demos), "--out", str(predictor),
                 "--iterations", "20"]) == 0

    def digests():
        return {cmd: {name: a["sha256"] for name, a in entry["artifacts"].items()}
                for cmd, entry in _manifest(tmp_path).items()}

    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    first = digests()
    assert set(first) == {"gen-data", "train-policy", "train-predictor"}
    assert first["gen-data"] == {"dataset": sha(demos)}
    assert first["train-policy"]["policy"] == sha(policy)
    assert first["train-predictor"] == {"predictor": sha(predictor)}

    assert gen_data(4) == 0
    again = digests()
    assert again["gen-data"] == {"dataset": sha(demos)} != first["gen-data"]
    assert {k: v for k, v in again.items() if k != "gen-data"} == \
        {k: v for k, v in first.items() if k != "gen-data"}
    assert _manifest(tmp_path, "gen-data")["config"]["seed"] == 4


def test_an_unreadable_manifest_is_replaced(tmp_path):
    """A manifest.json that is not JSON, or not in the per-command layout
    (the old one-command layout included), gives way to a fresh one."""
    for old in ("not json", "[1, 2]", '{"commands": [1]}', '{"command": "bench"}'):
        (tmp_path / "manifest.json").write_text(old)
        assert main(["gen-data", "--episodes", "2", "--out", str(tmp_path / "demos.bin")]) == 0
        assert set(_manifest(tmp_path)) == {"gen-data"}, old


def test_every_manifest_entry_records_the_software_it_ran_on(workdir, tmp_path, monkeypatch):
    """Each command's entry names the package, Python and numpy versions,
    the BLAS, the CPU count and the git commit of the package's checkout.
    They are looked up once per process, so a second command neither asks
    numpy for its build configuration nor runs git again."""
    cli._software.cache_clear()
    real, asked = np.show_config, []
    monkeypatch.setattr(np, "show_config", lambda *a, **kw: asked.append(kw) or real(*a, **kw))
    run, gits = subprocess.run, []
    monkeypatch.setattr(subprocess, "run", lambda argv, **kw: (
        gits.append(argv) if argv[0] == "git" else None) or run(argv, **kw))
    policy = workdir / "policy" / "policy.ckpt"
    assert main(["train-predictor", "--data", str(workdir / "data" / "demos.bin"),
                 "--out", str(tmp_path / "predictor.ckpt"), "--iterations", "5"]) == 0
    assert main(["bench", "--policy", str(policy), "--env", "controller", "--episodes", "1",
                 "--step-cap", "12", "--eo", "naive", "--out-dir", str(tmp_path)]) == 0
    assert asked == [{"mode": "dicts"}]
    package = str(Path(cli.__file__).parent)
    assert gits == [["git", "-C", package, "rev-parse", "HEAD"]]
    head = run(["git", "-C", package, "rev-parse", "HEAD"], capture_output=True, text=True)
    git_sha = head.stdout.strip() if head.returncode == 0 else None
    assert git_sha is None or re.fullmatch(r"[0-9a-f]{40}", git_sha)

    entries = [*_manifest(tmp_path).values(), _manifest(workdir / "data", "gen-data"),
               _manifest(workdir / "policy", "train-policy")]
    assert set(_manifest(tmp_path)) == {"train-predictor", "bench"}
    blas = real(mode="dicts")["Build Dependencies"]["blas"]
    for entry in entries:
        assert set(entry) == {"config", "artifacts", "software"}
        assert entry["software"] == {
            "streampolicy": streampolicy.__version__, "python": platform.python_version(),
            "numpy": np.__version__, "blas": {"name": blas["name"], "version": blas["version"]},
            "cpu_count": os.cpu_count(), "git_sha": git_sha}
        assert all(isinstance(v, str) and v for v in entry["software"]["blas"].values())
        assert isinstance(entry["software"]["cpu_count"], int)


def _not_a_checkout(argv, **kw):
    return subprocess.CompletedProcess(argv, 128, "", "fatal: not a git repository")


def _no_git(argv, **kw):
    raise FileNotFoundError(2, "No such file or directory", argv[0])


@pytest.mark.parametrize("git", [_not_a_checkout, _no_git], ids=["not_a_checkout", "no_git"])
def test_the_manifest_git_sha_is_null_outside_a_checkout(tmp_path, monkeypatch, git):
    cli._software.cache_clear()
    monkeypatch.setattr(subprocess, "run", git)
    try:
        assert main(["gen-data", "--episodes", "2", "--out", str(tmp_path / "demos.bin")]) == 0
        assert _manifest(tmp_path, "gen-data")["software"]["git_sha"] is None
    finally:
        cli._software.cache_clear()


@pytest.mark.parametrize("command, argv", [
    ("gen-data", ["--seed", "-1"]),
    ("train-policy", ["--data", "demos.bin", "--seed", "-1"]),
    ("train-predictor", ["--data", "demos.bin", "--seed", "-3"]),
    ("rollout", ["--policy", "policy.ckpt", "--seed", "-1"]),
    ("bench", ["--policy", "policy.ckpt", "--seed", "-1"]),
    ("bench", ["--policy", "policy.ckpt", "--calib-seed", "-1"]),
], ids=["gen-data", "train-policy", "train-predictor", "rollout", "bench", "bench-calib-seed"])
def test_a_negative_seed_exits_2_naming_its_option(tmp_path, capsys, monkeypatch, command, argv):
    """A seed below 0 seeds no random stream; it is refused when the options
    are resolved, before any input is read or output written, naming the
    flag, the config key or the environment variable it came from."""
    monkeypatch.chdir(tmp_path)
    flag = next(a for a in argv if a.endswith("seed"))
    value = argv[argv.index(flag) + 1]
    assert main([command, *argv]) == 2
    assert f"error: {flag} must be at least 0, got {value}\n" == capsys.readouterr().err

    key = flag[2:].replace("-", "_")
    rest = argv[:argv.index(flag)] + argv[argv.index(flag) + 2:]
    (tmp_path / "cfg.json").write_text(json.dumps({key: int(value)}))
    assert main([command, "--config", "cfg.json", *rest]) == 2
    assert f"error: config key {key!r} must be at least 0, got {value}\n" == capsys.readouterr().err

    monkeypatch.setenv(f"STREAMPOLICY_{key.upper()}", value)
    assert main([command, *rest]) == 2
    assert (f"error: STREAMPOLICY_{key.upper()} must be at least 0, got {value}\n"
            == capsys.readouterr().err)
    # a valid flag overrides the bad variable, and resolution goes on
    assert cli._resolve(cli.build_parser().parse_args([command, *rest, flag, "0"]))[key] == 0
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


def test_rollout_runs(workdir, capsys):
    rc = main(["rollout", "--policy", str(workdir / "policy" / "policy.ckpt"),
               "--env", "controller", "--episodes", "2", "--step-cap", "25",
               "--profile", "zero", "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("episode") == 2
    assert "success rate" in out


@pytest.mark.wall_clock
def test_wall_rollout_reports_overruns(workdir, capsys):
    """On the wall clock each episode line and the summary line give the
    overrun count; the simulated clock prints none."""
    args = ["rollout", "--policy", str(workdir / "policy" / "policy.ckpt"), "--env", "controller",
            "--episodes", "2", "--step-cap", "12", "--profile", "1,0.3,0.5"]
    assert main(args) == 0
    assert "overrun" not in capsys.readouterr().out
    assert main(args + ["--clock", "wall"]) == 0
    lines = capsys.readouterr().out.splitlines()
    episodes = [line for line in lines if line.startswith("episode")]
    assert len(episodes) == 2 and all(" overruns=" in line for line in episodes)
    assert " overruns " in lines[-1] and lines[-1].startswith("success rate")


def test_rollout_trace_outputs(workdir, tmp_path):
    trace_csv = tmp_path / "t.csv"
    trace_json = tmp_path / "t.json"
    rc = main(["rollout", "--policy", str(workdir / "policy" / "policy.ckpt"),
               "--env", "controller", "--episodes", "1", "--step-cap", "15",
               "--trace-csv", str(trace_csv), "--trace-json", str(trace_json)])
    assert rc == 0
    assert trace_csv.read_text().startswith("stage,")
    json.loads(trace_json.read_text())


def test_rollout_runs_every_episode_through_run_episode(workdir, capsys, monkeypatch):
    """A wrapper installed on streamexec.run_episode sees each rollout
    episode, in order, on the chosen clock and recording no trajectory."""
    real = streamexec.run_episode
    seen = []

    def wrapper(policy, predictor, env, stage, scheduler, clock="simulated",
                record_trajectory=False):
        seen.append((env.episode_id, clock, record_trajectory))
        return real(policy, predictor, env, stage, scheduler, clock=clock,
                    record_trajectory=record_trajectory)

    monkeypatch.setattr(streamexec, "run_episode", wrapper)
    rc = main(["rollout", "--policy", str(workdir / "policy" / "policy.ckpt"),
               "--env", "controller", "--episodes", "3", "--step-cap", "15",
               "--profile", "zero"])
    assert rc == 0
    assert seen == [(ep, "simulated", False) for ep in range(3)]
    assert capsys.readouterr().out.count("episode") == 3


def test_bench_writes_results(workdir, tmp_path, capsys):
    out_dir = tmp_path / "bench"
    rc = main(["bench", "--policy", str(workdir / "policy" / "policy.ckpt"),
               "--env", "controller", "--episodes", "2", "--step-cap", "20",
               "--eo", "naive", "--out-dir", str(out_dir)])
    assert rc == 0
    table = (out_dir / "results.txt").read_text()
    for label in ("sync_replan5", "sync_full", "streaming", "streaming+naive"):
        assert label in table
    csv_lines = (out_dir / "results.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 5
    assert set(_manifest(out_dir)) == {"bench"}


def test_bench_runs_its_default_matrix_without_a_predictor(workdir, tmp_path, monkeypatch):
    """With no --eo and no --predictor, bench runs the naive, random and
    anao indicators beside the three schedules: adaptive, which needs a
    predictor, is left out of the default list rather than refused."""
    for var in [v for v in os.environ if v.startswith(cli.ENV_PREFIX)]:
        monkeypatch.delenv(var)
    out_dir = tmp_path / "bench"
    assert main(["bench", "--policy", str(workdir / "policy" / "policy.ckpt"),
                 "--episodes", "2", "--step-cap", "20", "--calib-episodes", "3",
                 "--out-dir", str(out_dir)]) == 0
    rows = (out_dir / "results.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [
        "sync_replan5", "sync_full", "streaming", "streaming+naive", "streaming+random",
        "streaming+anao"]


def test_bench_default_matrix_adds_adaptive_with_a_predictor(workdir, tmp_path, monkeypatch):
    for var in [v for v in os.environ if v.startswith(cli.ENV_PREFIX)]:
        monkeypatch.delenv(var)
    _out, sweeps = _bench_sweeps(workdir, tmp_path, monkeypatch)
    assert [s[0].eo and s[0].eo.mode for s in sweeps] == [
        None, None, None, saliency.EO_NAIVE, saliency.EO_ACTION_NORM, saliency.EO_ADAPTIVE,
        saliency.EO_RANDOM]


def test_bench_runs_every_episode_through_run_episode(workdir, tmp_path, monkeypatch):
    """A benchmark harness may swap streamexec.run_episode for a wrapper with
    exactly these parameters and count what it sees: every matrix episode
    must pass through it. The calibration rollouts run in lockstep instead,
    and must equal the trajectories run_episode records for them. Sharing
    horizons across the matrix must not change a byte of the results."""
    real = streamexec.run_episode
    seen, calibrations = [], []

    def wrapper(policy, predictor, env, stage, scheduler, clock="simulated",
                record_trajectory=False):
        seen.append(record_trajectory)
        return real(policy, predictor, env, stage, scheduler, clock=clock,
                    record_trajectory=record_trajectory)

    real_calib = cli._calib_rollouts

    def calib_wrapper(policy, kind, cfg):
        trajs = real_calib(policy, kind, cfg)
        calibrations.append((policy, kind, cfg, trajs))
        return trajs

    monkeypatch.setattr(streamexec, "run_episode", wrapper)
    monkeypatch.setattr(cli, "_calib_rollouts", calib_wrapper)
    outputs = {}
    for shared in (True, False):
        if not shared:
            monkeypatch.setattr(streamexec, "shared_horizons", contextlib.nullcontext)
        seen.clear()
        calibrations.clear()
        out_dir = tmp_path / f"shared_{shared}"
        rc = main(["bench", "--policy", str(workdir / "policy" / "policy.ckpt"),
                   "--env", "controller", "--episodes", "4", "--step-cap", "30",
                   "--eo", "naive,random,anao", "--calib-episodes", "3", "--seed", "3",
                   "--out-dir", str(out_dir)])
        assert rc == 0
        # 6 configurations x 4 episodes
        assert seen == [False] * (6 * 4)
        # 3 calibration rollouts, each the trajectory run_episode records
        (policy, kind, cfg, trajs), = calibrations
        sched = streamexec.SchedulerConfig(mode=streamexec.MODE_STREAMING, h=policy.flow.h)
        assert len(trajs) == 3
        for ep, traj in enumerate(trajs):
            env = envsim.make_env(kind, cfg["calib_seed"], ep, step_cap=cfg["step_cap"])
            want = real(policy, None, env, streamexec.ZERO_LATENCY, sched,
                        record_trajectory=True).trajectory
            for name in ("features", "actions", "alpha0", "action_states"):
                x, y = getattr(traj, name), getattr(want, name)
                assert (x.dtype, x.shape) == (y.dtype, y.shape) and x.tobytes() == y.tobytes(), name
        outputs[shared] = [(out_dir / name).read_bytes() for name in ("results.csv", "results.txt")]
    assert outputs[True] == outputs[False]


def test_bench_calibrates_on_a_dataset_without_rollouts(workdir, tmp_path, monkeypatch):
    """--calib-data takes the thresholds from the file's trajectories: no
    calibration rollout runs, and each scored indicator's eta is
    calibrate_threshold of decision_scores on the loaded file."""
    demos = workdir / "data" / "demos.bin"
    predictor_path = tmp_path / "predictor.ckpt"
    assert main(["train-predictor", "--data", str(demos), "--out", str(predictor_path),
                 "--iterations", "5"]) == 0

    def no_rollouts(*args, **kwargs):
        raise AssertionError("a calibration rollout ran")

    real_configs, built = cli._bench_configs, []

    def configs_wrapper(cfg, policy, predictor, modes, calib):
        configs = real_configs(cfg, policy, predictor, modes, calib)
        built.append((cfg, policy, configs))
        return configs

    monkeypatch.setattr(cli, "_calib_rollouts", no_rollouts)
    monkeypatch.setattr(streamexec, "calibration_trajectories", no_rollouts)
    monkeypatch.setattr(cli, "_bench_configs", configs_wrapper)
    assert main(["bench", "--policy", str(workdir / "policy" / "policy.ckpt"),
                 "--predictor", str(predictor_path), "--env", "controller", "--episodes", "2",
                 "--step-cap", "20", "--eo", "anao,adaptive", "--calib-data", str(demos),
                 "--out-dir", str(tmp_path / "bench")]) == 0
    (cfg, policy, configs), = built
    loaded, _ = load_dataset(demos)
    predictor = saliency.load_predictor(predictor_path)
    for label, mode in (("streaming+anao", saliency.EO_ACTION_NORM),
                        ("streaming+adaptive", saliency.EO_ADAPTIVE)):
        scores = saliency.decision_scores(predictor, loaded, policy.flow.h, cfg["n_eo"], mode=mode)
        eta = saliency.calibrate_threshold(scores, cfg["target_rate"])
        assert math.isfinite(eta)
        assert configs[label].eo.mode == mode and configs[label].eo.eta == eta, label


def _bench_sweeps(workdir, tmp_path, monkeypatch, *args):
    """Run bench with a freshly trained predictor and the given flags; returns
    the output directory and, per configuration in run order, its scheduler,
    its trace paths and its episode results."""
    predictor_path = tmp_path / "predictor.ckpt"
    assert main(["train-predictor", "--data", str(workdir / "data" / "demos.bin"),
                 "--out", str(predictor_path), "--iterations", "5"]) == 0
    real_sweep, sweeps = cli._sweep, []

    def recording_sweep(policy, predictor, envs, stage, scheduler, clock, trace_csv="",
                        trace_json=""):
        results = []
        sweeps.append((scheduler, trace_csv, trace_json, results))
        for result, rep in real_sweep(policy, predictor, envs, stage, scheduler, clock,
                                      trace_csv, trace_json):
            results.append(result)
            yield result, rep

    monkeypatch.setattr(cli, "_sweep", recording_sweep)
    out_dir = tmp_path / "bench"
    assert main(["bench", "--policy", str(workdir / "policy" / "policy.ckpt"),
                 "--predictor", str(predictor_path), "--env", "controller", "--episodes", "3",
                 "--step-cap", "30", "--calib-episodes", "3", "--target-rate", "0.3",
                 "--out-dir", str(out_dir), *args]) == 0
    return out_dir, sweeps


def _indicator_runs(sweeps, mode):
    (run,) = [s for s in sweeps if s[0].eo is not None and s[0].eo.mode == mode]
    return run


@pytest.mark.parametrize("match", [True, False], ids=["matched", "no_match_random"])
def test_bench_matches_random_to_the_adaptive_realized_rate(workdir, tmp_path, monkeypatch, match):
    """By default bench runs the random indicator last, at the firing rate
    the adaptive one realized over its episodes; --no-match-random keeps it
    at --target-rate."""
    _out, sweeps = _bench_sweeps(workdir, tmp_path, monkeypatch, "--eo", "random,adaptive",
                                 *([] if match else ["--no-match-random"]))
    adaptive = _indicator_runs(sweeps, saliency.EO_ADAPTIVE)[3]
    realized = (sum(r.eo_fired for r in adaptive)
                / max(1, sum(r.eo_decisions for r in adaptive)))
    assert realized != 0.3
    assert sweeps[-1] is _indicator_runs(sweeps, saliency.EO_RANDOM)
    assert sweeps[-1][0].eo.p == (realized if match else 0.3)


def test_bench_traces_write_each_configuration_s_first_episode(workdir, tmp_path, monkeypatch):
    """--traces writes one CSV and one Chrome JSON per configuration, each of
    its first episode's event log, and the manifest lists every file with
    its sha256."""
    out_dir, sweeps = _bench_sweeps(workdir, tmp_path, monkeypatch, "--eo", "naive,adaptive",
                                    "--traces")
    artifacts = _manifest(out_dir, "bench")["artifacts"]
    assert len(sweeps) == 5
    written = set()
    for _scheduler, trace_csv, trace_json, results in sweeps:
        assert metrics.read_trace_csv(trace_csv) == results[0].events
        assert json.loads(Path(trace_json).read_text())["traceEvents"]
        for path in (trace_csv, trace_json):
            written.add(Path(path).name)
            entry = next(e for e in artifacts.values() if e["path"] == str(path))
            assert entry["sha256"] == hashlib.sha256(Path(path).read_bytes()).hexdigest()
    assert written == {p.name for p in out_dir.glob("trace_*")}
    assert len(written) == 2 * len(sweeps)


def test_predict_timing_reference_values(capsys):
    rc = main(["predict-timing"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "74.600" in out
    assert "238.000" in out
    assert "34.420" in out
    assert "30.442" in out


def test_predict_timing_reads_equal_zero_latencies_as_no_speedup(capsys):
    """At the zero profile every latency is 0; each speedup, over either
    baseline, is 0/0, which reads 1.00 as bench's table reads it, not inf."""
    assert main(["predict-timing", "--profile", "zero"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 4
    for row in rows:
        assert row.split()[-4:] == ["1.00"] * 4, row


def test_predict_timing_rejects_what_it_cannot_predict(capsys):
    """The streaming closed forms do not hold when t_gen > t_exec, and a
    chunk cannot replan after 0 or more than h actions."""
    assert main(["predict-timing", "--profile", "2,4,1,0.5"]) == 2
    assert "t_gen <= t_exec" in capsys.readouterr().err
    for n in ("0", "11"):
        assert main(["predict-timing", "--n-replan", n]) == 2
        assert "n_replan" in capsys.readouterr().err


@pytest.mark.parametrize("n_eo_avg", ["nan", "inf", "-5", "10"])
def test_predict_timing_rejects_an_impossible_n_eo_avg(capsys, n_eo_avg):
    """At h=10 an average early observation lies in [0, 10); outside it the
    closed forms would print nan, inf or a negative o_oe."""
    assert main(["predict-timing", "--n-eo-avg", n_eo_avg]) == 2
    captured = capsys.readouterr()
    assert "n_eo_avg must be finite and in [0, h=10)" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("horizon", ["0", "-3"])
def test_predict_timing_rejects_a_horizon_below_one(capsys, horizon):
    """The error names the horizon the user set, not the n_eo_avg default
    that an empty horizon cannot hold."""
    assert main(["predict-timing", "--horizon", horizon]) == 2
    captured = capsys.readouterr()
    assert f"horizon h must be at least 1, got {horizon}" in captured.err
    assert "n_eo_avg" not in captured.err
    assert captured.out == ""


def test_rollout_rejects_a_nan_eta(workdir, capsys, monkeypatch):
    """A nan threshold would never fire; it exits 2 before any episode."""
    def no_rollout(*args, **kwargs):
        raise AssertionError("rollout ran an episode")

    monkeypatch.setattr(streamexec, "run_episode", no_rollout)
    rc = main(["rollout", "--policy", str(workdir / "policy" / "policy.ckpt"), "--env", "controller",
               "--eo", "anao", "--eta", "nan", "--episodes", "1", "--step-cap", "5"])
    assert rc == 2
    assert "eta must be a number or +-inf, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("eo", ["anao", "adaptive"])
def test_bench_without_calibration_episodes_exits_2(workdir, tmp_path, capsys, monkeypatch, eo):
    """Without --calib-data, anao and adaptive calibrate on --calib-episodes
    rollouts; zero of them is named as the fault, before any rollout."""
    def no_rollout(*args, **kwargs):
        raise AssertionError("bench ran an episode")

    monkeypatch.setattr(streamexec, "run_episode", no_rollout)
    out = tmp_path / "b"
    rc = main(["bench", "--policy", str(workdir / "policy" / "policy.ckpt"), "--eo", eo,
               "--calib-episodes", "0", "--step-cap", "5", "--out-dir", str(out)])
    assert rc == 2
    assert "--calib-episodes must be at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eo, message", [
    ("adaptive", "adaptive early observation needs --predictor"),
    ("anao,bogus", "unknown early-observation mode 'bogus'"),
])
def test_bench_checks_every_indicator_before_calibrating(workdir, tmp_path, capsys, monkeypatch,
                                                         eo, message):
    """A bad --eo list exits 2 before the calibration rollouts its anao or
    adaptive entry would otherwise run first."""
    def no_rollout(*args, **kwargs):
        raise AssertionError("bench ran an episode")

    monkeypatch.setattr(streamexec, "run_episode", no_rollout)
    out = tmp_path / "b"
    rc = main(["bench", "--policy", str(workdir / "policy" / "policy.ckpt"), "--eo", eo,
               "--calib-episodes", "7", "--out-dir", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bench_names_a_step_cap_below_h_before_calibrating(workdir, tmp_path, capsys,
                                                           monkeypatch):
    """Calibration rollouts capped below the policy's h=10 hold no decision
    point; the cap is named as the fault, before any rollout."""
    def no_rollout(*args, **kwargs):
        raise AssertionError("bench ran an episode")

    monkeypatch.setattr(streamexec, "run_episode", no_rollout)
    out = tmp_path / "b"
    rc = main(["bench", "--policy", str(workdir / "policy" / "policy.ckpt"), "--eo", "anao",
               "--step-cap", "9", "--out-dir", str(out)])
    assert rc == 2
    assert "--step-cap 9 is below the policy's h=10" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--n-eo", "10"], "--n-eo must satisfy 1 <= n_eo < h=10, the policy's horizon; got 10"),
    (["--n-eo", "0"], "--n-eo must satisfy 1 <= n_eo < h=10, the policy's horizon; got 0"),
    (["--target-rate", "1.5"], "--target-rate must lie in [0, 1], got 1.5"),
    (["--target-rate", "nan"], "--target-rate must lie in [0, 1], got nan"),
], ids=["n_eo_h", "n_eo_0", "target_rate_above_1", "target_rate_nan"])
@pytest.mark.parametrize("eo", ["anao", "naive"])
def test_bench_names_a_bad_n_eo_or_target_rate_before_calibrating(workdir, tmp_path, capsys,
                                                                  monkeypatch, eo, args, message):
    """An early-observation setting no indicator can use exits 2, naming its
    flag, before any calibration rollout or episode."""
    def no_rollout(*args, **kwargs):
        raise AssertionError("bench ran a rollout")

    monkeypatch.setattr(cli, "_calib_rollouts", no_rollout)
    monkeypatch.setattr(streamexec, "run_episode", no_rollout)
    out = tmp_path / "b"
    rc = main(["bench", "--policy", str(workdir / "policy" / "policy.ckpt"), "--eo", eo,
               "--calib-episodes", "7", "--out-dir", str(out), *args])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_rollout_rejects_n_replan_in_streaming(workdir, capsys):
    rc = main(["rollout", "--policy", str(workdir / "policy" / "policy.ckpt"), "--env", "controller",
               "--mode", "streaming", "--n-replan", "5", "--episodes", "1", "--step-cap", "5"])
    assert rc == 2
    assert "n_replan" in capsys.readouterr().err


def test_resume_with_another_horizon_exits_2(workdir, tmp_path, capsys):
    out = tmp_path / "resumed.ckpt"
    rc = main(["train-policy", "--data", str(workdir / "data" / "demos.bin"),
               "--out", str(out), "--resume", str(workdir / "policy" / "policy.ckpt"),
               "--iterations", "210", "--batch-size", "16", "--hidden", "16,16",
               "--horizon", "5"])
    assert rc == 2
    assert "h (checkpoint 10, config 5)" in capsys.readouterr().err
    assert not out.exists()


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "streampolicy.cli", "predict-timing"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "streaming" in proc.stdout


def test_gen_data_exhaustion_exits_3(tmp_path):
    rc = main(["gen-data", "--env", "controller", "--episodes", "3",
               "--step-cap", "4", "--out", str(tmp_path / "d.bin")])
    assert rc == 3


def test_a_diverging_train_predictor_exits_3(workdir, tmp_path, capsys):
    """A predictor whose loss turns non-finite is a runtime failure, as a
    diverging policy is: exit 3, naming the iteration, and no checkpoint."""
    out = tmp_path / "out" / "predictor.ckpt"
    with np.errstate(all="ignore"):
        rc = main(["train-predictor", "--data", str(workdir / "data" / "demos.bin"),
                   "--out", str(out), "--iterations", "5", "--lr", "1e300"])
    assert rc == 3
    assert "runtime failure: non-finite loss nan at iteration 1 " in capsys.readouterr().err
    assert not out.exists()


def test_corrupt_dataset_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a container at all")
    rc = main(["train-policy", "--data", str(bad), "--out", str(tmp_path / "p.ckpt"),
               "--iterations", "10"])
    assert rc == 2
    assert f"error: {bad}: not a dataset container" in capsys.readouterr().err


def test_missing_dataset_exits_2_naming_the_file(tmp_path, capsys):
    missing = tmp_path / "nonexistent.bin"
    rc = main(["train-policy", "--data", str(missing), "--out", str(tmp_path / "p.ckpt"),
               "--iterations", "10"])
    assert rc == 2
    assert f"error: {missing}: cannot read dataset: " in capsys.readouterr().err


def test_version_1_dataset_exits_2_naming_gen_data(tmp_path, capsys):
    old = tmp_path / "demos.jsonl"
    old.write_text('{"dim":2,"env":{},"episodes":0,"format":"streampolicy-trajectories",'
                   '"seed":0,"version":1}\n')
    rc = main(["train-policy", "--data", str(old), "--out", str(tmp_path / "p.ckpt"),
               "--iterations", "10"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {old}: a version-1 JSON-lines dataset" in err
    assert "regenerate it with gen-data" in err


def _bogus_convention(path):
    assert main(["gen-data", "--env", "controller", "--episodes", "2", "--seed", "3",
                 "--out", str(path)]) == 0
    _, arrays, header = read_container(path, expect_tag=TAG_TRAJECTORY_DATASET)
    header["env"]["alpha0"] = "bogus"
    write_container(path, tag=TAG_TRAJECTORY_DATASET, arrays=list(arrays.items()), config=header)
    return ("unknown ledger convention 'bogus' in the header's env.alpha0, "
            "want 'zero' or 'initial_position'")


@pytest.mark.parametrize("make", [write_version_2_dataset, _bogus_convention],
                         ids=["version_2", "unknown_alpha0_convention"])
def test_train_policy_refuses_a_dataset_it_cannot_read_before_training(tmp_path, capsys,
                                                                       monkeypatch, make):
    """A version-2 file, or a header whose ledger convention no policy
    knows, exits 2 naming the file before any training, and writes no
    checkpoint that rollout would then refuse."""
    def no_training(*args, **kwargs):
        raise AssertionError("train-policy trained on the dataset")

    monkeypatch.setattr(cli.trainer, "train", no_training)
    data = tmp_path / "demos.bin"
    message = make(data)
    out = tmp_path / "out" / "p.ckpt"
    assert main(["train-policy", "--data", str(data), "--out", str(out), "--iterations", "10"]) == 2
    assert capsys.readouterr().err == f"error: {data}: {message}\n"
    assert not out.parent.exists()


def test_malformed_dataset_record_exits_2(tmp_path, capsys):
    """A dataset without its actions is a DatasetError naming the file, not a
    traceback. The file keeps a valid checksum."""
    demos = tmp_path / "demos.bin"
    assert main(["gen-data", "--env", "controller", "--episodes", "2", "--seed", "3",
                 "--out", str(demos)]) == 0
    _, arrays, header = read_container(demos, expect_tag=TAG_TRAJECTORY_DATASET)
    del arrays["actions"]
    write_container(demos, tag=TAG_TRAJECTORY_DATASET, arrays=list(arrays.items()), config=header)
    rc = main(["train-policy", "--data", str(demos), "--out", str(tmp_path / "p.ckpt"),
               "--iterations", "10"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{demos}: dataset metadata does not fit the stored arrays: actions is stored as None" in err


@pytest.mark.parametrize("which", ["policy", "predictor"])
def test_checkpoint_given_as_data_exits_2_naming_its_tag(workdir, tmp_path, capsys, which):
    if which == "policy":
        ckpt, found = workdir / "policy" / "policy.ckpt", "container tag 1 (velocity policy)"
    else:
        ckpt, found = tmp_path / "predictor.ckpt", "container tag 2 (saliency predictor)"
        saliency.save_predictor(ckpt, saliency.init_predictor(saliency.PredictorConfig()))
    rc = main(["train-policy", "--data", str(ckpt), "--out", str(tmp_path / "p.ckpt"),
               "--iterations", "10"])
    assert rc == 2
    assert f"error: {ckpt}: {found}, expected 3 (trajectory dataset)" in capsys.readouterr().err
    assert not (tmp_path / "p.ckpt").exists()


@pytest.mark.parametrize("flag", ["--policy", "--predictor"])
def test_dataset_given_as_checkpoint_exits_2(workdir, capsys, flag):
    demos = workdir / "data" / "demos.bin"
    policy = workdir / "policy" / "policy.ckpt"
    with pytest.raises(CheckpointError, match=re.escape(str(demos))):
        (load_policy if flag == "--policy" else saliency.load_predictor)(demos)
    argv = ["rollout", "--env", "controller", "--episodes", "1", "--step-cap", "5"]
    argv += ["--policy", str(demos)] if flag == "--policy" else \
        ["--policy", str(policy), "--predictor", str(demos)]
    assert main(argv) == 2
    want = "1 (velocity policy)" if flag == "--policy" else "2 (saliency predictor)"
    assert (f"error: {demos}: container tag 3 (trajectory dataset), expected {want}"
            in capsys.readouterr().err)


def test_missing_required_flag_exits_2(capsys):
    assert main(["train-policy", "--iterations", "10"]) == 2
    assert main(["rollout", "--episodes", "1"]) == 2


def test_unknown_eo_mode_exits_2(workdir, capsys):
    rc = main(["rollout", "--policy", str(workdir / "policy" / "policy.ckpt"), "--env", "controller",
               "--eo", "psychic", "--episodes", "1", "--step-cap", "5"])
    assert rc == 2
    assert "unknown early-observation mode 'psychic'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rollout", "bench"])
def test_step_cap_below_one_exits_2(workdir, tmp_path, capsys, command):
    rc = main([command, "--policy", str(workdir / "policy" / "policy.ckpt"),
               "--env", "controller", "--episodes", "1", "--step-cap", "0",
               *(["--out-dir", str(tmp_path / "b")] if command == "bench" else [])])
    assert rc == 2
    assert "--step-cap must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("args, setting, message", [
    (["gen-data", "--episodes", "0"], None, "--episodes must be at least 1, got 0"),
    (["gen-data", "--step-cap", "0"], None, "--step-cap must be at least 1, got 0"),
    (["train-policy", "--iterations", "0"], None, "--iterations must be at least 1, got 0"),
    (["train-policy", "--iterations", "200", "--resume", "{policy}"], None,
     "--iterations must be at least 201, got 200"),
    (["train-policy", "--batch-size", "0"], None, "--batch-size must be at least 1, got 0"),
    (["train-policy", "--horizon", "0"], None, "--horizon must be at least 1, got 0"),
    (["train-predictor", "--iterations", "0"], None, "--iterations must be at least 1, got 0"),
    (["train-predictor", "--batch-size", "0"], None, "--batch-size must be at least 1, got 0"),
    (["train-predictor"], ("environment", "STREAMPOLICY_BATCH_SIZE", "0"),
     "STREAMPOLICY_BATCH_SIZE must be at least 1, got 0"),
    (["rollout", "--episodes", "0"], None, "--episodes must be at least 1, got 0"),
    (["rollout", "--n-replan", "-1"], None, "--n-replan must be at least 0, got -1"),
    (["bench", "--episodes", "0"], None, "--episodes must be at least 1, got 0"),
    (["bench", "--n-replan", "-2"], None, "--n-replan must be at least 0, got -2"),
    (["bench"], ("config", "n_replan", -2), "config key 'n_replan' must be at least 0, got -2"),
], ids=["gen_data", "gen_data_step_cap", "train_policy", "train_policy_resumed",
       "train_policy_batch_size", "train_policy_horizon", "train_predictor",
       "train_predictor_batch_size", "train_predictor_batch_size_env", "rollout",
       "rollout_n_replan", "bench", "bench_n_replan", "bench_n_replan_config"])
def test_counts_that_would_run_nothing_exit_2(workdir, tmp_path, capsys, monkeypatch, args,
                                              setting, message):
    """Zero episodes, steps, iterations, a zero batch or horizon, a negative
    n_replan, or resuming a run that is already done, exit 2 with a message
    naming the flag, config key or environment variable the value came from,
    and write nothing."""
    command, out = args[0], tmp_path / "out"
    extra = {
        "gen-data": ["--out", str(out)],
        "train-policy": ["--data", str(workdir / "data" / "demos.bin"), "--out", str(out),
                         "--batch-size", "16", "--hidden", "16,16"],
        "train-predictor": ["--data", str(workdir / "data" / "demos.bin"), "--out", str(out)],
        "rollout": ["--policy", "{policy}", "--step-cap", "5"],
        "bench": ["--policy", "{policy}", "--step-cap", "5", "--out-dir", str(out)],
    }[command]
    if setting is not None:
        source, name, value = setting
        if source == "config":
            (tmp_path / "cfg.json").write_text(json.dumps({name: value}))
            extra = [*extra, "--config", str(tmp_path / "cfg.json")]
        else:
            monkeypatch.setenv(name, value)
    # the case's own flags come last, so they override the command's defaults above
    argv = [a.replace("{policy}", str(workdir / "policy" / "policy.ckpt"))
            for a in [command, *extra, *args[1:]]]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["config", "environment"])
@pytest.mark.parametrize("command", ["bench", "train-policy"])
def test_a_bound_on_other_inputs_names_the_source_of_its_value(workdir, tmp_path, capsys,
                                                                monkeypatch, command, source):
    """The bounds that depend on other inputs (calibration episodes when
    bench calibrates, iterations past a resumed checkpoint's) name the config
    key or environment variable the value came from, as an option's own
    bound does, and the command writes nothing. A flag's value names the
    flag (test_counts_that_would_run_nothing_exit_2)."""
    monkeypatch.chdir(tmp_path)
    policy = str(workdir / "policy" / "policy.ckpt")
    name, value, least, argv = {
        "bench": ("calib_episodes", 0, 1,
                  ["bench", "--policy", policy, "--eo", "anao", "--step-cap", "5", "--out-dir", "b"]),
        # the workdir policy was trained for 200 iterations
        "train-policy": ("iterations", 5, 201,
                         ["train-policy", "--data", str(workdir / "data" / "demos.bin"),
                          "--out", "p/policy.ckpt", "--resume", policy,
                          "--batch-size", "16", "--hidden", "16,16"]),
    }[command]
    if source == "config":
        (tmp_path / "cfg.json").write_text(json.dumps({name: value}))
        argv, named = [*argv, "--config", "cfg.json"], f"config key {name!r}"
    else:
        named = f"STREAMPOLICY_{name.upper()}"
        monkeypatch.setenv(named, str(value))
    assert main(argv) == 2
    assert f"error: {named} must be at least {least}, got {value}\n" in capsys.readouterr().err
    assert not (tmp_path / "b").exists() and not (tmp_path / "p").exists()


@pytest.mark.parametrize("lr", ["0", "-0.01", "nan", "inf"])
@pytest.mark.parametrize("command", ["train-policy", "train-predictor"])
def test_a_learning_rate_that_trains_nothing_exits_2(workdir, tmp_path, capsys, command, lr):
    """A zero, negative or non-finite --lr would leave the weights where
    they started or walk them uphill; it exits 2 and writes nothing."""
    out = tmp_path / "out" / "model.ckpt"
    extra = ["--batch-size", "16", "--hidden", "16,16"] if command == "train-policy" else []
    rc = main([command, "--data", str(workdir / "data" / "demos.bin"), "--out", str(out),
               "--iterations", "5", "--lr", lr, *extra])
    assert rc == 2
    assert f"lr must be finite and positive, got {float(lr)}" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("hidden, widths", [("0", "(0,)"), ("16,-3", "(16, -3)")])
def test_a_hidden_width_below_one_exits_2(workdir, tmp_path, capsys, hidden, widths):
    """A zero width would divide by zero when the weights are drawn and a
    negative one fails in numpy; either exits 2 naming hidden and writes
    nothing."""
    out = tmp_path / "out" / "policy.ckpt"
    rc = main(["train-policy", "--data", str(workdir / "data" / "demos.bin"), "--out", str(out),
               "--iterations", "5", "--batch-size", "16", f"--hidden={hidden}"])
    assert rc == 2
    assert f"hidden widths must be at least 1, got {widths}" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("args", [
    ["rollout", "--profile", "nan,1,1"],
    ["rollout", "--profile", "1,inf,1", "--clock", "wall"],
    ["predict-timing", "--profile", "nan,1,1"],
], ids=["rollout_nan", "rollout_wall_inf", "predict_timing_nan"])
def test_non_finite_profile_exits_2(workdir, capsys, args):
    if args[0] == "rollout":
        args = args + ["--policy", str(workdir / "policy" / "policy.ckpt"), "--env", "controller",
                       "--episodes", "1", "--step-cap", "5"]
    assert main(args) == 2
    assert "must be finite and non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("profile, message", [
    ("zero,1", "profile must be"),
    ("2,4,1", "t_gen <= t_exec"),
])
def test_predict_timing_exits_2_on_a_profile_it_cannot_tabulate(capsys, profile, message):
    assert main(["predict-timing", "--profile", profile]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("episodes", ["0", "-2"])
def test_golden_digest_script_rejects_episodes_below_one(episodes):
    """No episodes would hash an empty grid: a digest that proves nothing."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "golden_digest.py"
    proc = subprocess.run([sys.executable, str(script), "--policy", "p.ckpt", "--predictor",
                           "q.ckpt", "--episodes", episodes], capture_output=True, text=True)
    assert proc.returncode == 2
    assert f"--episodes must be at least 1, got {episodes}" in proc.stderr
    assert proc.stdout == ""


def test_predict_timing_names_the_baseline_of_each_ratio(capsys):
    """At the reference profile streaming takes 34.6 ms per action against
    50.8 (sync_full) and 74.6 (sync_replan5), and halts 76 ms against 238;
    each speedup is printed under its baseline, beside the paper's."""
    assert main(["predict-timing"]) == 0
    head, columns, *rows = capsys.readouterr().out.splitlines()
    assert columns.split()[-4:] == ["act/full", "halt/full", "act/replan5", "halt/replan5"]
    ratios = {row.split()[0]: row.split()[-4:] for row in rows}
    assert ratios["streaming"] == ["1.47", "3.13", "2.16", "3.13"]
    assert "2.4x per action and 6.5x halt" in head


def test_adaptive_requires_predictor(workdir, capsys):
    rc = main(["rollout", "--policy", str(workdir / "policy" / "policy.ckpt"), "--env", "controller",
               "--eo", "adaptive", "--episodes", "1", "--step-cap", "5"])
    assert rc == 2
    assert "adaptive early observation needs --predictor" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rollout", "bench"])
def test_env_the_policy_was_not_trained_on_exits_2(workdir, tmp_path, capsys, command):
    """The policy was trained on controller demos, whose ledger starts at
    zero; the direct env seeds it with the start position."""
    rc = main([command, "--policy", str(workdir / "policy" / "policy.ckpt"),
               "--env", "direct", "--episodes", "1", "--step-cap", "5",
               *(["--out-dir", str(tmp_path / "b")] if command == "bench" else [])])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--env direct" in err and "'initial_position'" in err and "trained with 'zero'" in err
    assert not (tmp_path / "b").exists()


def test_env_defaults_to_the_one_the_policy_was_trained_on(workdir, tmp_path, capsys):
    """Without --env, a controller policy runs on the controller env: the
    rollout prints what --env controller prints, and bench records it."""
    policy = str(workdir / "policy" / "policy.ckpt")
    rollout = ["rollout", "--policy", policy, "--episodes", "2", "--step-cap", "15",
               "--profile", "zero", "--seed", "5"]
    assert main(rollout) == 0
    implicit = capsys.readouterr().out
    assert main([*rollout, "--env", "controller"]) == 0
    assert implicit == capsys.readouterr().out and "success rate" in implicit

    out_dir = tmp_path / "bench"
    assert main(["bench", "--policy", policy, "--episodes", "1", "--step-cap", "10",
                 "--eo", "naive", "--out-dir", str(out_dir)]) == 0
    assert _manifest(out_dir, "bench")["config"]["env"] == "controller"


def test_legacy_norm_flag_is_gone(workdir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train-policy", "--data", str(workdir / "data" / "demos.bin"),
              "--out", str(tmp_path / "p.ckpt"), "--iterations", "10", "--legacy-norm"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --legacy-norm" in capsys.readouterr().err
    assert not (tmp_path / "p.ckpt").exists()


def test_env_var_and_flag_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"episodes": 4, "step_cap": 60}))

    # config file fills unset options
    out1 = tmp_path / "a.bin"
    rc = main(["gen-data", "--config", str(cfg), "--out", str(out1), "--seed", "1"])
    assert rc == 0
    assert len(load_dataset(out1)[0]) == 4

    # environment beats the config file
    monkeypatch.setenv("STREAMPOLICY_EPISODES", "3")
    out2 = tmp_path / "b.bin"
    rc = main(["gen-data", "--config", str(cfg), "--out", str(out2), "--seed", "1"])
    assert rc == 0
    assert len(load_dataset(out2)[0]) == 3

    # explicit flag beats both
    out3 = tmp_path / "c.bin"
    rc = main(["gen-data", "--config", str(cfg), "--out", str(out3), "--seed", "1",
               "--episodes", "2"])
    assert rc == 0
    assert len(load_dataset(out3)[0]) == 2


def test_bad_config_file_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("not json")
    rc = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x.bin")])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["rollout", "--policy", "{missing}"],
    ["rollout", "--policy", "{policy}", "--predictor", "{missing}"],
    ["bench", "--policy", "{missing}", "--out-dir", "{out}"],
    ["train-policy", "--data", "{demos}", "--resume", "{missing}", "--out", "{out}"],
], ids=["rollout_policy", "rollout_predictor", "bench_policy", "train_policy_resume"])
def test_unreadable_checkpoint_exits_2(workdir, tmp_path, capsys, argv):
    """A checkpoint that cannot be opened is an input error that names the
    file, not a traceback."""
    names = {"{missing}": str(tmp_path / "nonexistent.ckpt"), "{out}": str(tmp_path / "out"),
             "{policy}": str(workdir / "policy" / "policy.ckpt"),
             "{demos}": str(workdir / "data" / "demos.bin")}
    assert main([names.get(a, a) for a in argv]) == 2
    assert f"{names['{missing}']}: cannot read checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _rewrite_metadata(src: Path, dst: Path, edit) -> None:
    """Copy checkpoint src to dst with its metadata JSON replaced by
    edit(metadata). The checksum covers only the array blob, so dst passes it."""
    data = src.read_bytes()
    (meta_len,) = struct.unpack_from("<I", data, 16)
    meta = json.dumps(edit(json.loads(data[20:20 + meta_len]))).encode()
    dst.write_bytes(data[:16] + struct.pack("<I", len(meta)) + meta + data[20 + meta_len:])


def _drop(*path):
    def edit(meta):
        parent = meta
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        return meta
    return edit


def _set_hidden(value):
    def edit(meta):
        meta["config"]["hidden"] = value
        return meta
    return edit


@pytest.mark.parametrize("command, which, edit", [
    ("rollout", "policy", _drop("config", "flow")),
    ("rollout", "policy", _drop("arrays")),
    ("rollout", "policy", lambda meta: []),
    ("rollout", "policy", lambda meta: {**meta, "arrays": [["norm.q_min"]]}),
    ("bench", "predictor", _drop("config", "hidden")),
    ("rollout", "policy", _set_hidden([0])),
    ("rollout", "policy", _set_hidden([16, 16, 16])),
    ("rollout", "predictor", _set_hidden(3)),
    ("rollout", "predictor", _set_hidden(0)),
], ids=["policy_without_flow", "without_arrays", "not_an_object", "array_without_shape",
        "predictor_without_hidden", "policy_hidden_0", "policy_extra_hidden_layer",
        "predictor_hidden_3", "predictor_hidden_0"])
def test_damaged_checkpoint_metadata_exits_2(workdir, tmp_path, capsys, command, which, edit):
    """Metadata that passes the blob's checksum but lacks a field the loader
    reads, or gives widths that are not the stored weights' shapes, is an
    unreadable checkpoint: exit 2 naming the file, no traceback."""
    policy = workdir / "policy" / "policy.ckpt"
    damaged = tmp_path / "damaged.ckpt"
    argv = [command, "--env", "controller", "--episodes", "1", "--step-cap", "5"]
    if which == "policy":
        _rewrite_metadata(policy, damaged, edit)
        argv += ["--policy", str(damaged)]
    else:
        sound = tmp_path / "predictor.ckpt"
        saliency.save_predictor(sound, saliency.init_predictor(saliency.PredictorConfig()))
        _rewrite_metadata(sound, damaged, edit)
        argv += ["--policy", str(policy), "--predictor", str(damaged)]
    if command == "bench":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"error: {damaged}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit, entry", [(_set_hidden(32), "hidden"),
                                         (_drop("config", "gap_choices"), "gap_choices")],
                         ids=["hidden_32", "without_gap_choices"])
def test_a_predictor_of_another_shape_or_gaps_is_refused_naming_the_entry(workdir, tmp_path,
                                                                          capsys, edit, entry):
    """The predictor has one shape and one set of gaps: a checkpoint whose
    metadata records another value of a fixed entry, or lacks one, is
    refused by load_predictor and by rollout, naming the entry."""
    sound = tmp_path / "predictor.ckpt"
    saliency.save_predictor(sound, saliency.init_predictor(saliency.PredictorConfig()))
    damaged = tmp_path / "damaged.ckpt"
    _rewrite_metadata(sound, damaged, edit)
    named = f"{damaged}: predictor metadata entry {entry!r} is "
    with pytest.raises(CheckpointError) as exc:
        saliency.load_predictor(damaged)
    assert str(exc.value).startswith(named)
    assert main(["rollout", "--policy", str(workdir / "policy" / "policy.ckpt"),
                 "--predictor", str(damaged), "--env", "controller", "--episodes", "1",
                 "--step-cap", "5"]) == 2
    assert f"error: {named}" in capsys.readouterr().err


@pytest.mark.parametrize("value", [None, [3], {"n": 3}, True, 3.9, "3.9", "many"],
                         ids=["null", "list", "object", "bool", "fraction", "fraction_text",
                              "word"])
def test_bad_config_value_exits_2_naming_its_key(tmp_path, capsys, monkeypatch, value):
    """A config value is parsed as the flag's text would be: what --episodes
    would refuse exits 2 naming the key, before anything is written."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"episodes": value}))
    assert main(["gen-data", "--config", str(cfg)]) == 2
    assert "config key 'episodes': invalid int value" in capsys.readouterr().err
    assert not (tmp_path / "demos.bin").exists()


@pytest.mark.parametrize("key, value, kind", [
    ("out", None, "str"), ("noise", True, "float"), ("noise", [0.1], "float"),
    ("env", {"variant": "direct"}, "str"),
])
def test_null_or_compound_config_value_exits_2(tmp_path, capsys, monkeypatch, key, value, kind):
    """null, a list, an object, or a boolean for a non-bool option is no value
    of the option; no file named None is written."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(["gen-data", "--config", str(cfg), "--episodes", "2"]) == 2
    assert f"config key {key!r}: invalid {kind} value: {json.dumps(value)}" in \
        capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_bad_environment_value_exits_2_naming_its_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("STREAMPOLICY_EPISODES", "abc")
    assert main(["gen-data"]) == 2
    assert 'STREAMPOLICY_EPISODES: invalid int value: "abc"' in capsys.readouterr().err
    monkeypatch.setenv("STREAMPOLICY_EPISODES", "2")
    monkeypatch.setenv("STREAMPOLICY_NOISE", "")
    assert main(["gen-data"]) == 2
    assert 'STREAMPOLICY_NOISE: invalid float value: ""' in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _resolved(argv):
    return cli._resolve(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("values, expected", [
    ({"episodes": 3.0, "step_cap": "40", "noise": 0, "env": "controller"},
     {"episodes": 3, "step_cap": 40, "noise": 0.0, "env": "controller"}),
    ({"noise": "0.25", "seed": " 7 ", "out": 5}, {"noise": 0.25, "seed": 7, "out": "5"}),
])
def test_config_values_that_parse_keep_working(tmp_path, monkeypatch, values, expected):
    """JSON numbers, integral ones for an int option, and the strings the flag
    accepts all resolve as before."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    resolved = _resolved(["gen-data", "--config", str(cfg)])
    assert {k: resolved[k] for k in expected} == expected
    assert all(type(resolved[k]) is type(v) for k, v in expected.items())


@pytest.mark.parametrize("raw, expected", [
    (True, True), (False, False), (1, True), (0, False), ("yes", True), ("Off", False),
    ("TRUE", True), ("0", False),
])
def test_bool_option_spellings(tmp_path, monkeypatch, raw, expected):
    """A switch takes a JSON boolean, 0 or 1, or any spelling _parse_bool
    accepts, from the config file and (as text) from the environment."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"traces": raw}))
    assert _resolved(["bench", "--policy", "p", "--config", str(cfg)])["traces"] is expected
    monkeypatch.setenv("STREAMPOLICY_MATCH_RANDOM", str(raw))
    assert _resolved(["bench", "--policy", "p"])["match_random"] is expected


def _two_values(opt):
    """Two distinct values of opt, the first not its default."""
    if opt.type is bool:
        return not opt.default, opt.default
    if opt.choices:
        first = next(c for c in opt.choices if c != opt.default)
        return first, next(c for c in opt.choices if c != first)
    if opt.type is str:
        return "first", "second"
    if opt.type is int:
        return (opt.default or 0) + 1, (opt.default or 0) + 2
    return opt.default + 0.25, opt.default + 0.5


def _options():
    return [(command, opt) for command, (_h, _help, options) in cli._COMMANDS.items()
            for opt in options]


@pytest.mark.parametrize("command, opt", _options(),
                         ids=[f"{c}:{o.name}" for c, o in _options()])
def test_every_option_is_set_by_flag_environment_and_config(tmp_path, monkeypatch, command, opt):
    """Each row of the option table sets its option from its flag, from
    STREAMPOLICY_<NAME> and from its config key, and a flag beats the
    environment, which beats the config file."""
    for var in [v for v in os.environ if v.startswith(cli.ENV_PREFIX)]:
        monkeypatch.delenv(var)
    a, b = _two_values(opt)
    flag = opt.name.replace("_", "-")
    flag_argv = ([f"--no-{flag}" if opt.default else f"--{flag}"] if opt.type is bool
                 else [f"--{flag}", str(a)])
    env_name = cli.ENV_PREFIX + opt.name.upper()
    required = {o.name: "given" for o in cli._COMMANDS[command][2]
                if o.default is None and o.name != opt.name}
    parser = cli.build_parser()

    def resolve(config=None, env=None, flag=False):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**required, **({opt.name: config} if config is not None
                                                  else {})}))
        if env is None:
            monkeypatch.delenv(env_name, raising=False)
        else:
            monkeypatch.setenv(env_name, str(env))
        args = parser.parse_args([command, "--config", str(cfg), *(flag_argv if flag else [])])
        return cli._resolve(args)[opt.name]

    assert a != opt.default and a != b
    assert resolve(flag=True) == a
    assert resolve(env=a) == a
    assert resolve(config=a) == a
    assert resolve(config=b, env=a) == a
    assert resolve(env=b, flag=True) == a
    assert resolve(config=b, env=b, flag=True) == a


def _choice_options():
    return [(command, opt) for command, opt in _options() if opt.choices]


@pytest.mark.parametrize("source", ["environment", "config"])
@pytest.mark.parametrize("command, opt", _choice_options(),
                         ids=[f"{c}:{o.name}" for c, o in _choice_options()])
def test_a_value_outside_the_choices_exits_2_naming_its_source_before_any_work(
        tmp_path, capsys, monkeypatch, command, opt, source):
    """argparse checks only a flag's choices: a config-file or environment
    value outside them is refused when the options are resolved, naming its
    source, before a dataset, a policy or a predictor is loaded and before
    any demo, calibration rollout or episode runs."""
    for var in [v for v in os.environ if v.startswith(cli.ENV_PREFIX)]:
        monkeypatch.delenv(var)

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the options were checked")

    for module, name in ((cli, "load_dataset"), (cli, "load_policy"),
                         (saliency, "load_predictor"), (envsim, "generate_demos"),
                         (cli, "_calib_rollouts"), (streamexec, "run_episode")):
        monkeypatch.setattr(module, name, no_work)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    argv = [command] + [a for o in cli._COMMANDS[command][2] if o.default is None
                        for a in (f"--{o.name.replace('_', '-')}", "given")]
    if source == "environment":
        named = cli.ENV_PREFIX + opt.name.upper()
        monkeypatch.setenv(named, "bogus")
    else:
        named = f"config key {opt.name!r}"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({opt.name: "bogus"}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert (capsys.readouterr().err
            == f"error: {named} must be one of {', '.join(opt.choices)}, got 'bogus'\n")
    assert not any(work.iterdir())


_PROFILE_FORM = "profile must be 'reference', 'zero', or t_obs,t_gen,t_exec[,t_pred]"


_BAD_OPTION_TEXT = {
    "rollout-eo": ("rollout", "eo", "bogus", "unknown early-observation mode 'bogus'"),
    "rollout-eo-adaptive": ("rollout", "eo", "adaptive",
                            "adaptive early observation needs --predictor"),
    "bench-eo-list": ("bench", "eo", "naive,bogus", "unknown early-observation mode 'bogus'"),
    "bench-eo-adaptive": ("bench", "eo", "adaptive", "adaptive early observation needs --predictor"),
    "rollout-profile": ("rollout", "profile", "1,2", _PROFILE_FORM),
    "rollout-profile-nan": ("rollout", "profile", "nan,1,1",
                            "bad profile 'nan,1,1': t_obs must be finite and non-negative, got nan"),
    "bench-profile": ("bench", "profile", "1,x,3",
                      "bad profile '1,x,3': could not convert string to float: 'x'"),
    "train-policy-hidden": ("train-policy", "hidden", "1,x", "bad hidden layout '1,x'"),
    "train-policy-hidden-empty": ("train-policy", "hidden", ",",
                                  "hidden layout must name at least one layer width"),
}


@pytest.mark.parametrize("command, name, text, message", _BAD_OPTION_TEXT.values(),
                         ids=_BAD_OPTION_TEXT.keys())
@pytest.mark.parametrize("source", ["flag", "environment", "config"])
def test_bad_option_text_exits_2_naming_its_source_before_any_file_is_read(
        tmp_path, capsys, monkeypatch, command, name, text, message, source):
    """An --eo name (each of bench's comma list), a --profile or a --hidden
    list is judged from its text alone: a bad one is refused, naming its
    flag, variable or config key, before a checkpoint or dataset is opened.
    rollout and bench also refuse adaptive without --predictor by then."""
    for var in [v for v in os.environ if v.startswith(cli.ENV_PREFIX)]:
        monkeypatch.delenv(var)

    def no_work(*args, **kwargs):
        raise AssertionError("a file was read before the options were checked")

    for module, attr in ((cli, "load_dataset"), (cli, "load_policy"),
                         (saliency, "load_predictor"), (cli, "_calib_rollouts"),
                         (streamexec, "run_episode")):
        monkeypatch.setattr(module, attr, no_work)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    argv = [command] + [a for o in cli._COMMANDS[command][2] if o.default is None
                        for a in (f"--{o.name.replace('_', '-')}", "given")]
    if source == "flag":
        named = f"--{name}"
        argv += [named, text]
    elif source == "environment":
        named = cli.ENV_PREFIX + name.upper()
        monkeypatch.setenv(named, text)
    else:
        named = f"config key {name!r}"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: text}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {named}: {message}\n"
    assert not any(work.iterdir())


@pytest.mark.parametrize("argv, name, value", [
    (["train-policy", "--data", "d", "--no-state-alignment"], "no_state_alignment", True),
    (["bench", "--policy", "p", "--traces"], "traces", True),
    (["bench", "--policy", "p", "--no-match-random"], "match_random", False),
])
def test_switch_flags_flip_their_defaults(argv, name, value):
    assert _resolved(argv[:-1])[name] is not value
    assert _resolved(argv)[name] is value


def test_predict_timing_takes_no_seed(capsys):
    """predict-timing is closed form: it has no seed to take."""
    with pytest.raises(SystemExit) as exc:
        main(["predict-timing", "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
