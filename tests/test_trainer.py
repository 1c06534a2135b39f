import numpy as np
import pytest

from streampolicy import normkit
from streampolicy.core import STREAM_TRAIN, make_rng
from streampolicy.trainer import (
    TrainConfig, TrainingDivergedError, _prepare, _sample_batch, train,
    write_train_log,
)
from streampolicy.velocitynet import load_policy, save_policy

TINY = dict(iterations=250, batch_size=32, lr=2e-3, hidden=(32, 32), seed=0)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(h=0)
    with pytest.raises(ValueError):
        TrainConfig(lr_schedule="linear")


@pytest.mark.parametrize("lr", [0.0, -0.01, float("nan"), float("inf")])
def test_config_rejects_a_learning_rate_that_trains_nothing(lr):
    with pytest.raises(ValueError, match="lr must be finite and positive"):
        TrainConfig(lr=lr)


@pytest.mark.parametrize("field, value, least", [
    ("h", 0, 1), ("iterations", -1, 0), ("batch_size", 0, 1), ("log_every", 0, 1)])
def test_config_rejects_a_count_below_its_least_naming_the_field(field, value, least):
    with pytest.raises(ValueError, match=f"^{field} must be at least {least}, got {value}$"):
        TrainConfig(**{field: value})
    TrainConfig(**{field: least})


@pytest.mark.parametrize("hidden", [(0,), (16, -3), (128, 0, 128)])
def test_config_rejects_a_hidden_width_below_one(hidden):
    with pytest.raises(ValueError, match="hidden widths must be at least 1"):
        TrainConfig(hidden=hidden)


def _reference_sample_batch(trajectories, cfg, rng):
    """The per-episode, per-row sampling loop that _sample_batch vectorizes:
    each window's observation, start state and actions."""
    usable = [t for t in trajectories if len(t) >= cfg.h]
    obs = [t.features for t in usable]
    n_windows = np.asarray([len(t) - cfg.h + 1 for t in usable])
    B, h = cfg.batch_size, cfg.h
    eps = rng.integers(len(usable), size=B)
    OBS = np.empty((B, obs[0].shape[1]))
    ALPHA = np.empty((B, usable[0].actions.shape[1]))
    XI = np.empty((B, h, usable[0].actions.shape[1]))
    for b, e in enumerate(eps):
        s = int(rng.integers(n_windows[e]))
        OBS[b] = obs[e][s]
        ALPHA[b] = usable[e].action_states[s]
        XI[b] = usable[e].actions[s:s + h]
    if not cfg.use_state_alignment:
        ALPHA[:] = 0.0
    return OBS, ALPHA, XI


def _ledgers(ALPHA, XI, stats):
    """Window ledgers as training once built them per batch: the normalized
    start state, then the running sums of the normalized actions."""
    return np.cumsum(np.concatenate([normkit.normalize(ALPHA, stats)[:, None],
                                     normkit.normalize(XI, stats)], axis=1), axis=1)


@pytest.mark.parametrize("aligned", [True, False])
def test_sample_batch_matches_reference_loop(ragged_demos, aligned):
    """Bitwise the same observations, and the same ledgers as normalizing
    and summing the scalar loop's windows, from the same streams, on a
    dataset where some episodes are shorter than h."""
    cfg = TrainConfig(batch_size=48, use_state_alignment=aligned)
    assert any(len(t) < cfg.h for t in ragged_demos)
    stats = normkit.fit_stats(ragged_demos)
    prep = _prepare(ragged_demos, cfg, stats)
    for i in range(200):
        got = _sample_batch(prep, cfg, make_rng(5, STREAM_TRAIN, i))
        OBS, ALPHA, XI = _reference_sample_batch(ragged_demos, cfg, make_rng(5, STREAM_TRAIN, i))
        for g, w in zip(got, (OBS, _ledgers(ALPHA, XI, stats))):
            assert g.shape == w.shape and g.dtype == w.dtype
            assert g.tobytes() == w.tobytes(), i


def test_sampled_window_alignment(ragged_demos, rng):
    """Each window's ledger must start at the normalized prefix sum of its
    episode's actions at the window start, not a fresh zero, next to that
    frame's observation, and go on with the normalized actions' running sums."""
    cfg = TrainConfig(batch_size=64)
    h = cfg.h
    stats = normkit.fit_stats(ragged_demos)
    sources = {}
    for t in ragged_demos:
        prefix = np.cumsum(np.concatenate([t.action_states[:1], t.actions]), axis=0)
        for s in range(len(t) - h + 1):
            ledger = _ledgers(prefix[s][None], t.actions[None, s:s + h], stats)[0]
            sources.setdefault(ledger.tobytes(), []).append((t, s, prefix[s]))
    OBS, W = _sample_batch(_prepare(ragged_demos, cfg, stats), cfg, rng)
    assert W.shape == (64, h + 1, 2)
    for b in range(cfg.batch_size):
        assert any(normkit.normalize(start, stats).tobytes() == W[b, 0].tobytes()
                   and np.array_equal(t.features[s], OBS[b])
                   for t, s, start in sources.get(W[b].tobytes(), [])), \
            "window does not align with any episode's ledger"
    assert np.any(W[:, 0] != 0.0)


def test_sampled_window_misaligned_is_zero(small_demos, rng):
    cfg = TrainConfig(batch_size=64, use_state_alignment=False)
    stats = normkit.fit_stats(small_demos)
    _, W = _sample_batch(_prepare(small_demos, cfg, stats), cfg, rng)
    assert W.shape == (64, cfg.h + 1, 2)
    assert np.array_equal(W[:, 0], np.zeros((64, 2)))
    assert np.any(W[:, 1:] != 0.0)


def test_sample_skips_short_episodes(small_demos):
    longest = max(len(t) for t in small_demos)
    stats = normkit.fit_stats(small_demos)
    with pytest.raises(ValueError):
        _prepare(small_demos, TrainConfig(h=longest + 1), stats)
    prep = _prepare(small_demos, TrainConfig(h=longest), stats)
    assert len(prep.n_windows) == sum(len(t) == longest for t in small_demos)
    assert prep.ledgers.shape == (len(prep.n_windows), longest + 1, 2)


@pytest.mark.parametrize("aligned", [True, False])
def test_train_builds_its_tables_once(monkeypatch, small_demos, aligned):
    """train calls time_features only to build the time table, h times, and
    normalizes only to build the ledger table, whatever the iteration count."""
    from streampolicy import velocitynet

    calls = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(velocitynet, "time_features")
    counted(normkit, "normalize")
    for iterations in (0, 1, 30):
        calls.clear()
        cfg = TrainConfig(**{**TINY, "iterations": iterations, "use_state_alignment": aligned})
        train(small_demos, cfg, alpha0_convention="zero")
        assert calls == {"time_features": cfg.h, "normalize": 2 if aligned else 1}, iterations


def test_loss_decreases(small_demos):
    cfg = TrainConfig(**TINY)
    _, _, log = train(small_demos, cfg, alpha0_convention="zero")
    first = np.mean([loss for _, loss, _ in log[:2]])
    last = np.mean([loss for _, loss, _ in log[-2:]])
    assert last < 0.5 * first, (first, last)


def test_divergence_raises(small_demos):
    # adam steps are bounded by lr, so the weights land near +-lr after one
    # update; 1e300 makes the next squared-error forward overflow to inf
    cfg = TrainConfig(iterations=400, batch_size=32, lr=1e300, hidden=(32, 32), seed=0)
    with pytest.raises(TrainingDivergedError) as err, np.errstate(all="ignore"):
        train(small_demos, cfg, alpha0_convention="zero")
    assert err.value.iteration >= 0
    assert not np.isfinite(err.value.loss)
    assert err.value.last_finite is not None and np.isfinite(err.value.last_finite)


def test_training_is_deterministic(small_demos):
    cfg = TrainConfig(**TINY)
    p1, _, log1 = train(small_demos, cfg, alpha0_convention="zero")
    p2, _, log2 = train(small_demos, cfg, alpha0_convention="zero")
    assert [l for _, l, _ in log1] == [l for _, l, _ in log2]
    for k in p1.model.params:
        assert np.array_equal(p1.model.params[k], p2.model.params[k])


def test_resume_matches_uninterrupted_run(small_demos):
    """Stopping at iteration 120 and resuming must land on the exact same
    parameters as a straight run; each iteration draws its own RNG stream."""
    cfg = TrainConfig(**TINY)
    straight, _, _ = train(small_demos, cfg, alpha0_convention="zero")

    half = TrainConfig(**{**TINY, "iterations": 120})
    policy, adam, _ = train(small_demos, half, alpha0_convention="zero")
    resumed, _, _ = train(small_demos, cfg, alpha0_convention="zero",
                          resume=(policy, adam, 120))
    for k in straight.model.params:
        assert np.array_equal(straight.model.params[k], resumed.model.params[k]), k


def test_resume_from_checkpoint_matches_uninterrupted_run(tmp_path, small_demos):
    """Resuming from a saved checkpoint, with Adam's moments rebuilt from the
    loaded arrays, lands on the same bytes as a straight run."""
    n = 100
    cfg = TrainConfig(**{**TINY, "iterations": 2 * n})
    straight, straight_adam, _ = train(small_demos, cfg, alpha0_convention="zero")
    save_policy(tmp_path / "straight.ckpt", straight, adam=straight_adam, iteration=2 * n)

    half = TrainConfig(**{**TINY, "iterations": n})
    policy, adam, _ = train(small_demos, half, alpha0_convention="zero")
    save_policy(tmp_path / "half.ckpt", policy, adam=adam, iteration=n)
    loaded, loaded_adam, it = load_policy(tmp_path / "half.ckpt")
    assert it == n
    resumed, resumed_adam, _ = train(small_demos, cfg, alpha0_convention="zero",
                                     resume=(loaded, loaded_adam, it))
    save_policy(tmp_path / "resumed.ckpt", resumed, adam=resumed_adam, iteration=2 * n)
    assert (tmp_path / "resumed.ckpt").read_bytes() == (tmp_path / "straight.ckpt").read_bytes()


def test_resume_rejects_a_config_the_checkpoint_was_not_trained_with(small_demos):
    """The returned policy keeps the checkpoint's flow and network, so a config
    that would train other ones is refused, naming every differing field."""
    from dataclasses import replace

    from streampolicy.flowmatch import FlowParams

    cfg = TrainConfig(**{**TINY, "iterations": 20})
    policy, adam, _ = train(small_demos, cfg, alpha0_convention="zero")
    other_flow = replace(policy, flow=FlowParams(k=2.0, sigma0=0.3, h=policy.flow.h))
    for change, names, resumed in [({"h": 5}, ["h"], policy), ({}, ["k", "sigma0"], other_flow),
                                   ({"hidden": (16, 16)}, ["hidden"], policy)]:
        other = TrainConfig(**{**TINY, "iterations": 40, **change})
        with pytest.raises(ValueError) as exc:
            train(small_demos, other, alpha0_convention="zero", resume=(resumed, adam, 20))
        message = str(exc.value)
        for name in ["h", "k", "sigma0", "hidden"]:
            assert (f"{name} (checkpoint" in message) == (name in names), (change, message)


def test_resume_trains_with_the_checkpoint_stats(monkeypatch, small_demos):
    """Resuming on other demonstrations keeps the loaded normalization: the
    one ledger table every resumed step reads is normalized with the stats
    the returned policy carries."""
    from streampolicy import envsim, trainer

    cfg = TrainConfig(**{**TINY, "iterations": 20})
    policy, adam, _ = train(small_demos, cfg, alpha0_convention="zero")
    loaded_stats = policy.stats
    other = envsim.generate_demos(envsim.EnvKind(variant=envsim.KIND_CONTROLLER), 40, seed=22)
    assert not np.array_equal(normkit.fit_stats(other).scale, loaded_stats.scale)

    seen = []
    prepare = trainer._prepare

    def recording_prepare(trajectories, cfg, stats):
        seen.append(stats)
        return prepare(trajectories, cfg, stats)

    monkeypatch.setattr(trainer, "_prepare", recording_prepare)
    resumed, _, _ = train(other, TrainConfig(**{**TINY, "iterations": 40}),
                          alpha0_convention="zero", resume=(policy, adam, 20))
    assert resumed.stats is loaded_stats
    assert len(seen) == 1 and seen[0] is resumed.stats


def test_training_step_flow_math_matches_inline_formulas(monkeypatch, small_demos):
    """training_step samples and regresses through flowmatch, once each per
    step, and hands the network the x, time features and target of the
    formulas written out here, bit for bit: the rows gathered from the time
    table are time_features of the batch's times."""
    from streampolicy import flowmatch, trainer, velocitynet
    from streampolicy.flowmatch import FlowParams

    cfg = TrainConfig(**{**TINY, "iterations": 0})
    policy, adam, _ = train(small_demos, cfg, alpha0_convention="zero")
    OBS, W = _sample_batch(_prepare(small_demos, cfg, policy.stats), cfg,
                           make_rng(0, STREAM_TRAIN, 5))

    rng = make_rng(1, 2)
    B, h = OBS.shape[0], cfg.h
    t = rng.random(B)
    Tn = np.floor(t * h).astype(np.int64)
    t_node = Tn / float(h)
    rows = np.arange(B)
    mean = W[rows, Tn]
    flow = FlowParams(h=h)
    x = mean + (flow.sigma0 * np.exp(-flow.k * t_node))[:, None] * rng.standard_normal(mean.shape)
    target = (W[rows, Tn + 1] - mean) * float(h) - flow.k * (x - mean)

    seen, calls = {}, []
    real_loss_and_grad = velocitynet.loss_and_grad

    def capture(model, X, TF, obs, V_target):
        seen.update(x=X, tf=TF, target=V_target)
        return real_loss_and_grad(model, X, TF, obs, V_target)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(velocitynet, "loss_and_grad", capture)
    for name in ("marginal_sample", "discrete_xi_dot", "target_velocity"):
        monkeypatch.setattr(flowmatch, name, counted(name, getattr(flowmatch, name)))
    trainer.training_step(policy.model, adam, OBS, W, make_rng(1, 2),
                          flow=FlowParams(h=cfg.h),
                          times=policy.time_table())
    assert calls == ["marginal_sample", "discrete_xi_dot", "target_velocity"]
    assert seen["x"].tobytes() == x.tobytes()
    assert seen["tf"].tobytes() == velocitynet.time_features(t_node).tobytes()
    assert seen["target"].tobytes() == target.tobytes()


def test_training_step_does_not_call_forward(monkeypatch, small_demos):
    """Training runs the layer pass through loss_and_grad, never through
    velocitynet.forward, so the acting calls a benchmark counts on forward
    hold no training batches."""
    from streampolicy import trainer, velocitynet
    from streampolicy.flowmatch import FlowParams

    cfg = TrainConfig(**{**TINY, "iterations": 0})
    policy, adam, _ = train(small_demos, cfg, alpha0_convention="zero")
    OBS, W = _sample_batch(_prepare(small_demos, cfg, policy.stats), cfg,
                           make_rng(0, STREAM_TRAIN, 5))

    def refuse(inputs):
        raise AssertionError("training called velocitynet.forward")

    monkeypatch.setattr(velocitynet, "forward", refuse)
    loss = trainer.training_step(policy.model, adam, OBS, W, make_rng(1, 2),
                                 flow=FlowParams(h=cfg.h),
                                 times=policy.time_table())
    assert np.isfinite(loss)


def test_cosine_schedule_changes_trajectory(small_demos):
    base = TrainConfig(**TINY)
    cos = TrainConfig(**{**TINY, "lr_schedule": "cosine"})
    p1, _, _ = train(small_demos, base, alpha0_convention="zero")
    p2, _, _ = train(small_demos, cos, alpha0_convention="zero")
    assert any(not np.array_equal(p1.model.params[k], p2.model.params[k])
               for k in p1.model.params)


def test_train_log_roundtrip(tmp_path, small_demos):
    cfg = TrainConfig(**{**TINY, "iterations": 5, "log_every": 2})
    _, _, log = train(small_demos, cfg, alpha0_convention="zero")
    path = tmp_path / "log.csv"
    write_train_log(path, log)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,loss,wall_ms"
    assert len(lines) == len(log) + 1
    it, loss, _ = lines[1].split(",")
    assert int(it) == log[0][0]
    assert float(loss) == log[0][1]


def test_both_trainers_train_in_float32_and_return_float64(monkeypatch, small_demos):
    """Every gradient and every flat Adam buffer of both trainers is float32,
    and each rate is a Python float, which keeps the update in float32. The
    returned weights are float64 holding exact float32 values, and the
    predictor's frozen encoder keeps the bits init_predictor drew."""
    from streampolicy import saliency, velocitynet

    seen = []
    real_step = velocitynet.adam_step

    def capture(params, grads, state, lr=None):
        real_step(params, grads, state, lr=lr)
        flat = state.flat
        seen.append(({g.dtype for g in grads.values()},
                     {b.dtype for b in (flat.p, flat.m, flat.v, flat.g, flat.tmp)}, type(lr)))

    monkeypatch.setattr(velocitynet, "adam_step", capture)
    monkeypatch.setattr(saliency, "adam_step", capture)
    policy, _, _ = train(small_demos, TrainConfig(**{**TINY, "iterations": 3}),
                         alpha0_convention="zero")
    pred_cfg = saliency.PredictorConfig(iterations=3, batch_size=16, seed=0)
    predictor, _ = saliency.train_predictor(small_demos, pred_cfg)

    f32 = np.dtype(np.float32)
    assert seen == [({f32}, {f32}, float)] * 6
    drawn = saliency.init_predictor(pred_cfg).params
    for name, p in [*policy.model.params.items(), *predictor.trainable().items()]:
        assert p.dtype == np.float64, name
        assert p.astype(np.float32).astype(np.float64).tobytes() == p.tobytes(), name
    for name in ("enc_w", "enc_b"):
        assert predictor.params[name].tobytes() == drawn[name].tobytes(), name
