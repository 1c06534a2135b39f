import contextlib
import hashlib
import json
import subprocess
import sys

import pytest

from streampolicy import streamexec
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


def test_rollout_runs(workdir, capsys):
    rc = main(["rollout", "--policy", str(workdir / "policy" / "policy.ckpt"),
               "--env", "controller", "--episodes", "2", "--step-cap", "25",
               "--profile", "zero", "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("episode") == 2
    assert "success rate" in out


def test_rollout_trace_outputs(workdir, tmp_path):
    trace_csv = tmp_path / "t.csv"
    trace_json = tmp_path / "t.json"
    rc = main(["rollout", "--policy", str(workdir / "policy" / "policy.ckpt"),
               "--env", "controller", "--episodes", "1", "--step-cap", "15",
               "--trace-csv", str(trace_csv), "--trace-json", str(trace_json)])
    assert rc == 0
    assert trace_csv.read_text().startswith("stage,")
    json.loads(trace_json.read_text())


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
    exactly these parameters and count what it sees: every calibration and
    matrix episode must pass through it. Sharing horizons across the matrix
    must not change a byte of the results."""
    real = streamexec.run_episode
    seen = []

    def wrapper(policy, predictor, env, stage, scheduler, clock="simulated",
                record_trajectory=False):
        seen.append(record_trajectory)
        return real(policy, predictor, env, stage, scheduler, clock=clock,
                    record_trajectory=record_trajectory)

    monkeypatch.setattr(streamexec, "run_episode", wrapper)
    outputs = {}
    for shared in (True, False):
        if not shared:
            monkeypatch.setattr(streamexec, "shared_horizons", contextlib.nullcontext)
        seen.clear()
        out_dir = tmp_path / f"shared_{shared}"
        rc = main(["bench", "--policy", str(workdir / "policy" / "policy.ckpt"),
                   "--env", "controller", "--episodes", "4", "--step-cap", "30",
                   "--eo", "naive,random,anao", "--calib-episodes", "3", "--seed", "3",
                   "--out-dir", str(out_dir)])
        assert rc == 0
        # 3 calibration rollouts record trajectories; 6 configurations x 4 episodes
        assert seen.count(True) == 3 and seen.count(False) == 6 * 4
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


def test_predict_timing_rejects_what_it_cannot_predict(capsys):
    """The streaming closed forms do not hold when t_gen > t_exec, and a
    chunk cannot replan after 0 or more than h actions."""
    assert main(["predict-timing", "--profile", "2,4,1,0.5"]) == 2
    assert "t_gen <= t_exec" in capsys.readouterr().err
    for n in ("0", "11"):
        assert main(["predict-timing", "--n-replan", n]) == 2
        assert "n_replan" in capsys.readouterr().err


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
