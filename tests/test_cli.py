import contextlib
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from streampolicy import cli, envsim, streamexec
from streampolicy.cli import main
from streampolicy.core import load_dataset
from streampolicy.velocitynet import load_policy


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """gen-data + train-policy pipeline shared by the rollout/bench tests."""
    d = tmp_path_factory.mktemp("cli")
    demos = d / "data" / "demos.jsonl"
    rc = main(["gen-data", "--env", "controller", "--episodes", "25",
               "--seed", "7", "--out", str(demos)])
    assert rc == 0
    policy = d / "policy" / "policy.ckpt"
    rc = main(["train-policy", "--data", str(demos), "--out", str(policy),
               "--iterations", "200", "--batch-size", "16", "--hidden", "16,16",
               "--log-every", "50"])
    assert rc == 0
    return d


def test_gen_data_writes_dataset_and_manifest(workdir):
    demos = workdir / "data" / "demos.jsonl"
    trajs, header = load_dataset(demos)
    assert len(trajs) == 25
    assert header["env"]["variant"] == "controller"
    assert header["seed"] == 7

    manifest = json.loads((workdir / "data" / "manifest.json").read_text())
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
    manifest = json.loads((workdir / "policy" / "manifest.json").read_text())
    assert manifest["artifacts"]["policy"]["sha256"] == \
        hashlib.sha256(ckpt.read_bytes()).hexdigest()


def test_train_policy_manifest_digests_the_logged_losses(workdir, tmp_path):
    """Two identical train-policy runs log the same losses at different
    wall times: the manifest's iteration,loss digest of the log agrees, and
    it is the sha256 of those two columns as the log holds them."""
    manifests = []
    for run in ("a", "b"):
        out = tmp_path / run / "policy.ckpt"
        rc = main(["train-policy", "--data", str(workdir / "data" / "demos.jsonl"),
                   "--out", str(out), "--iterations", "30", "--batch-size", "16",
                   "--hidden", "16,16", "--log-every", "10"])
        assert rc == 0
        manifests.append(json.loads((out.parent / "manifest.json").read_text()))
    logs = [m["artifacts"]["train_log"] for m in manifests]
    assert logs[0]["iteration_loss_sha256"] == logs[1]["iteration_loss_sha256"]
    text = Path(logs[0]["path"]).read_text()
    columns = "".join(",".join(line.split(",")[:2]) + "\n" for line in text.splitlines())
    assert columns.startswith("iteration,loss\n")
    assert logs[0]["iteration_loss_sha256"] == hashlib.sha256(columns.encode()).hexdigest()
    assert manifests[0]["artifacts"]["policy"]["sha256"] == manifests[1]["artifacts"]["policy"]["sha256"]


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
    assert json.loads((out_dir / "manifest.json").read_text())["command"] == "bench"


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
            assert traj.actions.tobytes() == want.actions.tobytes()
            assert traj.action_states.tobytes() == want.action_states.tobytes()
            assert [(o.features.tobytes(), o.frame_id, o.capture_time) for o in traj.observations] == \
                [(o.features.tobytes(), o.frame_id, o.capture_time) for o in want.observations]
        outputs[shared] = [(out_dir / name).read_bytes() for name in ("results.csv", "results.txt")]
    assert outputs[True] == outputs[False]


def test_predict_timing_reference_values(capsys):
    rc = main(["predict-timing"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "74.600" in out
    assert "238.000" in out
    assert "34.420" in out
    assert "30.442" in out


def test_predict_timing_reads_equal_zero_latencies_as_no_speedup(capsys):
    """At the zero profile every latency is 0; each speedup is 0/0, which
    reads 1.00 as bench's table reads it, not inf."""
    assert main(["predict-timing", "--profile", "zero"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 4
    for row in rows:
        assert row.split()[-2:] == ["1.00", "1.00"], row


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
    rc = main(["train-policy", "--data", str(workdir / "data" / "demos.jsonl"),
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
               "--step-cap", "4", "--out", str(tmp_path / "d.jsonl")])
    assert rc == 3


def test_corrupt_dataset_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"format":"nope"}\n')
    rc = main(["train-policy", "--data", str(bad), "--out", str(tmp_path / "p.ckpt"),
               "--iterations", "10"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_malformed_dataset_record_exits_2(tmp_path, capsys):
    """A record without its actions is a DatasetError, not a traceback."""
    demos = tmp_path / "demos.jsonl"
    assert main(["gen-data", "--env", "controller", "--episodes", "2", "--seed", "3",
                 "--out", str(demos)]) == 0
    header, first, second = demos.read_text().splitlines()
    rec = json.loads(second)
    del rec["act"]
    demos.write_text("\n".join([header, first, json.dumps(rec)]) + "\n")
    rc = main(["train-policy", "--data", str(demos), "--out", str(tmp_path / "p.ckpt"),
               "--iterations", "10"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "demos.jsonl: episode 1: missing field 'act'" in err


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


@pytest.mark.parametrize("args, message", [
    (["gen-data", "--episodes", "0"], "--episodes must be at least 1, got 0"),
    (["gen-data", "--step-cap", "0"], "--step-cap must be at least 1, got 0"),
    (["train-policy", "--iterations", "0"], "--iterations must be at least 1, got 0"),
    (["train-policy", "--iterations", "200", "--resume", "{policy}"],
     "--iterations must be at least 201, got 200"),
    (["train-predictor", "--iterations", "0"], "iterations and batch_size must be positive"),
    (["rollout", "--episodes", "0"], "--episodes must be at least 1, got 0"),
    (["bench", "--episodes", "0"], "--episodes must be at least 1, got 0"),
], ids=["gen_data", "gen_data_step_cap", "train_policy", "train_policy_resumed",
       "train_predictor", "rollout", "bench"])
def test_counts_that_would_run_nothing_exit_2(workdir, tmp_path, capsys, args, message):
    """Zero episodes, steps or iterations, or resuming a run that is already
    done, exit 2 with a message and write nothing."""
    command, out = args[0], tmp_path / "out"
    extra = {
        "gen-data": ["--out", str(out)],
        "train-policy": ["--data", str(workdir / "data" / "demos.jsonl"), "--out", str(out),
                         "--batch-size", "16", "--hidden", "16,16"],
        "train-predictor": ["--data", str(workdir / "data" / "demos.jsonl"), "--out", str(out)],
        "rollout": ["--policy", "{policy}", "--step-cap", "5"],
        "bench": ["--policy", "{policy}", "--step-cap", "5", "--out-dir", str(out)],
    }[command]
    argv = [a.replace("{policy}", str(workdir / "policy" / "policy.ckpt")) for a in args + extra]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lr", ["0", "-0.01", "nan", "inf"])
@pytest.mark.parametrize("command", ["train-policy", "train-predictor"])
def test_a_learning_rate_that_trains_nothing_exits_2(workdir, tmp_path, capsys, command, lr):
    """A zero, negative or non-finite --lr would leave the weights where
    they started or walk them uphill; it exits 2 and writes nothing."""
    out = tmp_path / "out" / "model.ckpt"
    extra = ["--batch-size", "16", "--hidden", "16,16"] if command == "train-policy" else []
    rc = main([command, "--data", str(workdir / "data" / "demos.jsonl"), "--out", str(out),
               "--iterations", "5", "--lr", lr, *extra])
    assert rc == 2
    assert f"lr must be finite and positive, got {float(lr)}" in capsys.readouterr().err
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
def test_timing_table_script_exits_2_on_a_profile_it_cannot_tabulate(profile, message):
    script = Path(__file__).resolve().parent.parent / "scripts" / "timing_table.py"
    proc = subprocess.run([sys.executable, str(script), "--profile", profile],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert message in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("episodes", ["0", "-2"])
def test_golden_digest_script_rejects_episodes_below_one(episodes):
    """No episodes would hash an empty grid: a digest that proves nothing."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "golden_digest.py"
    proc = subprocess.run([sys.executable, str(script), "--policy", "p.ckpt", "--predictor",
                           "q.ckpt", "--episodes", episodes], capture_output=True, text=True)
    assert proc.returncode == 2
    assert f"--episodes must be at least 1, got {episodes}" in proc.stderr
    assert proc.stdout == ""


def test_timing_table_script_names_the_baseline_of_each_ratio():
    """At the reference profile streaming takes 34.6 ms per action against
    50.8 (sync_full) and 74.6 (sync_replan5), and halts 76 ms against 238;
    each ratio is printed closed form / simulated beside its baseline."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "timing_table.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    ratios = {tuple(line.split()[:2]): line.split()[2:] for line in proc.stdout.splitlines()
              if line.startswith("streaming ")}
    assert ratios["streaming", "sync_full"] == ["1.47x", "/", "1.47x", "3.13x", "/", "3.13x"]
    assert ratios["streaming", "sync_replan5"] == ["2.16x", "/", "2.16x", "3.13x", "/", "3.13x"]
    assert "2.4x per action and 6.5x halt" in proc.stdout


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
    assert json.loads((out_dir / "manifest.json").read_text())["config"]["env"] == "controller"


def test_legacy_norm_flag_is_gone(workdir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train-policy", "--data", str(workdir / "data" / "demos.jsonl"),
              "--out", str(tmp_path / "p.ckpt"), "--iterations", "10", "--legacy-norm"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --legacy-norm" in capsys.readouterr().err
    assert not (tmp_path / "p.ckpt").exists()


def test_env_var_and_flag_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"episodes": 4, "step_cap": 60}))

    # config file fills unset options
    out1 = tmp_path / "a.jsonl"
    rc = main(["gen-data", "--config", str(cfg), "--out", str(out1), "--seed", "1"])
    assert rc == 0
    assert len(load_dataset(out1)[0]) == 4

    # environment beats the config file
    monkeypatch.setenv("STREAMPOLICY_EPISODES", "3")
    out2 = tmp_path / "b.jsonl"
    rc = main(["gen-data", "--config", str(cfg), "--out", str(out2), "--seed", "1"])
    assert rc == 0
    assert len(load_dataset(out2)[0]) == 3

    # explicit flag beats both
    out3 = tmp_path / "c.jsonl"
    rc = main(["gen-data", "--config", str(cfg), "--out", str(out3), "--seed", "1",
               "--episodes", "2"])
    assert rc == 0
    assert len(load_dataset(out3)[0]) == 2


def test_bad_config_file_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("not json")
    rc = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x.jsonl")])
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
             "{demos}": str(workdir / "data" / "demos.jsonl")}
    assert main([names.get(a, a) for a in argv]) == 2
    assert f"{names['{missing}']}: cannot read checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    assert not (tmp_path / "demos.jsonl").exists()


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
