import numpy as np
import pytest

from streampolicy.core import DimensionMismatchError, make_rng
from streampolicy.flowmatch import FlowParams
from streampolicy.normkit import NormStats
from streampolicy.saliency import PredictorConfig, init_predictor
from streampolicy.saliency import loss_and_grad as predictor_loss_and_grad
from streampolicy.velocitynet import (
    AdamState, CheckpointError, InputRow, Policy, adam_step, forward, forward_batch,
    init_adam, init_velocity_model, load_policy, loss_and_grad, read_container,
    save_policy, time_features, write_container, TAG_VELOCITY_POLICY, TIME_DIM,
    _assemble_inputs, _mlp_forward,
)


def _small_model(seed=0):
    return init_velocity_model(2, 7, hidden=(16, 12), rng=make_rng(seed, 7, 0))


def _batch(rng, n=6):
    return (rng.normal(size=(n, 2)), rng.uniform(0, 1, size=n),
            rng.normal(size=(n, 7)), rng.normal(size=(n, 2)))


def test_gradient_matches_central_differences(rng):
    """Analytic gradients against O(eps^2) central differences, every
    parameter tensor, a handful of entries each."""
    model = _small_model()
    X, T, OBS, V = _batch(rng)
    _, grads = loss_and_grad(model, X, T, OBS, V)
    eps = 1e-6
    worst = 0.0
    for name, g in grads.items():
        flat = model.params[name].ravel()
        gflat = g.ravel()
        for idx in range(0, flat.size, max(1, flat.size // 7)):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp, _ = loss_and_grad(model, X, T, OBS, V)
            flat[idx] = orig - eps
            lm, _ = loss_and_grad(model, X, T, OBS, V)
            flat[idx] = orig
            fd = (lp - lm) / (2 * eps)
            denom = max(abs(fd), abs(gflat[idx]), 1e-8)
            worst = max(worst, abs(fd - gflat[idx]) / denom)
    assert worst < 1e-4, worst


def test_forward_batch_agrees_with_single(rng):
    model = _small_model()
    X, T, OBS, _ = _batch(rng)
    batched = forward_batch(model, X, T, OBS)
    for i in range(X.shape[0]):
        assert np.allclose(batched[i], forward(model, X[i], float(T[i]), OBS[i]), atol=1e-12)


def test_time_features_shape_and_range():
    f = time_features(0.3)
    assert f.shape == (9,)
    assert abs(f[0] - 0.3) < 1e-15
    assert np.all(np.abs(f[1:]) <= 1.0)


def test_adam_descends(rng):
    model = _small_model()
    X, T, OBS, V = _batch(rng, n=32)
    state = init_adam(model.params, lr=1e-2)
    first, _ = loss_and_grad(model, X, T, OBS, V)
    for _ in range(60):
        loss, grads = loss_and_grad(model, X, T, OBS, V)
        adam_step(model.params, grads, state, lr=1e-2)
    final, _ = loss_and_grad(model, X, T, OBS, V)
    assert final < 0.5 * first


def _reference_adam_step(params, grads, m, v, step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The per-tensor Adam update that adam_step runs over flat buffers."""
    c1 = 1.0 - b1**step
    c2 = 1.0 - b2**step
    for k, p in params.items():
        g = grads[k]
        m[k] = b1 * m[k] + (1.0 - b1) * g
        v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
        mhat = m[k] / c1
        vhat = v[k] / c2
        p -= lr * mhat / (np.sqrt(vhat) + eps)


def _policy_params(rng):
    model = _small_model()
    X, T, OBS, V = _batch(rng, n=16)
    return model.params, lambda: loss_and_grad(model, X, T, OBS, V)[1]


def _predictor_trainable(rng):
    pred = init_predictor(PredictorConfig(obs_dim=7, action_dim=2, embed_dim=8, hidden=12,
                                          cond_hidden=6, iterations=1, seed=3))
    trainable = pred.trainable()
    E = rng.normal(size=(16, 8))
    C = rng.normal(size=(16, pred.config.cond_dim))
    target = rng.normal(size=(16, 8))

    def grads():
        pred.params.update(trainable)
        return predictor_loss_and_grad(pred, E, C, target)[1]
    return trainable, grads


@pytest.mark.parametrize("make", [_policy_params, _predictor_trainable])
def test_adam_step_matches_per_tensor_formula(rng, make):
    """The flat update is bitwise the per-tensor one, step after step, for the
    policy's parameters and the predictor's trainable subset."""
    params, grads_of = make(rng)
    ref = {k: p.copy() for k, p in params.items()}
    ref_m = {k: np.zeros_like(p) for k, p in params.items()}
    ref_v = {k: np.zeros_like(p) for k, p in params.items()}
    state = init_adam(params, lr=1e-2)
    for step, lr in enumerate([1e-2, 3e-3, 1e-2, 5e-4, 2e-3, 1e-3, 7e-3], start=1):
        grads = grads_of()
        adam_step(params, grads, state, lr=lr)
        _reference_adam_step(ref, grads, ref_m, ref_v, step, lr)
        assert state.step == step
        for k in ref:
            assert params[k].tobytes() == ref[k].tobytes(), (step, k)
            assert state.m[k].tobytes() == ref_m[k].tobytes(), (step, k)
            assert state.v[k].tobytes() == ref_v[k].tobytes(), (step, k)


def test_adam_step_rebinds_replaced_arrays(rng):
    """Arrays put in the dicts from outside (as a checkpoint load does) are
    what the next step updates, and become views into the flat buffers."""
    params, grads_of = _policy_params(rng)
    state = init_adam(params, lr=1e-2)
    adam_step(params, grads_of(), state)
    copies = {k: p.copy() for k, p in params.items()}
    state.m = {k: m.copy() for k, m in state.m.items()}
    state.v = {k: v.copy() for k, v in state.v.items()}
    params.update({k: p.copy() for k, p in params.items()})
    grads = grads_of()
    ref_m = {k: m.copy() for k, m in state.m.items()}
    ref_v = {k: v.copy() for k, v in state.v.items()}
    _reference_adam_step(copies, grads, ref_m, ref_v, 2, 1e-2)
    adam_step(params, grads, state)
    for k in params:
        assert params[k].tobytes() == copies[k].tobytes(), k
        assert state.m[k].tobytes() == ref_m[k].tobytes(), k
        assert state.v[k].tobytes() == ref_v[k].tobytes(), k
        assert np.shares_memory(params[k], state.flat.p)


def test_container_roundtrip(tmp_path):
    rng = make_rng(1, 2)
    arrays = [("a", rng.normal(size=(3, 4))), ("b", np.arange(5, dtype=np.float64))]
    cfgin = {"alpha": 1, "names": ["x", "y"]}
    p = tmp_path / "c.bin"
    write_container(p, tag=TAG_VELOCITY_POLICY, arrays=arrays, config=cfgin)
    tag, loaded, cfg = read_container(p, expect_tag=TAG_VELOCITY_POLICY)
    assert tag == TAG_VELOCITY_POLICY
    assert cfg == cfgin
    for name, arr in arrays:
        assert np.array_equal(loaded[name], arr)


def test_container_rejects_corruption(tmp_path):
    p = tmp_path / "c.bin"
    write_container(p, tag=1, arrays=[("a", np.ones(3))], config={})
    raw = bytearray(p.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        read_container(p)


def test_container_rejects_wrong_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        read_container(p)


def test_container_tag_mismatch(tmp_path):
    p = tmp_path / "c.bin"
    write_container(p, tag=2, arrays=[("a", np.ones(1))], config={})
    with pytest.raises(CheckpointError):
        read_container(p, expect_tag=1)


def _toy_policy():
    model = _small_model(3)
    stats = NormStats(q_min=np.array([-1.0, -1.0]), q_max=np.array([1.0, 1.0]),
                      scale=np.array([2.0, 2.0]))
    return Policy(model=model, stats=stats, flow=FlowParams())


def test_policy_save_load_identical(tmp_path):
    policy = _toy_policy()
    p = tmp_path / "p.ckpt"
    adam = init_adam(policy.model.params, lr=1e-3)
    save_policy(p, policy, adam=adam, iteration=42)
    loaded, adam2, it = load_policy(p)
    assert it == 42
    assert adam2 is not None and adam2.step == adam.step
    assert loaded.alpha0_convention == policy.alpha0_convention
    assert loaded.flow == policy.flow
    x = np.array([0.1, -0.2])
    obs = np.linspace(-1, 1, 7)
    assert np.array_equal(loaded.velocity(x, 3, obs), policy.velocity(x, 3, obs))


def test_policy_action_pair_consistent():
    policy = _toy_policy()
    a_norm, a_raw = policy.action(np.zeros(2), 0, np.zeros(7))
    assert np.allclose(a_raw, a_norm * policy.stats.scale)
    v = policy.velocity(np.zeros(2), 0, np.zeros(7))
    assert np.allclose(a_norm, v / policy.flow.h)


@pytest.mark.parametrize("h", [1, 2, 3, 7, 10, 16])
def test_time_table_rows_equal_time_features(h):
    policy = _toy_policy()
    policy.flow = FlowParams(h=h)
    table = policy.time_table()
    assert table.shape == (h, TIME_DIM)
    for T in range(h):
        assert table[T].tobytes() == time_features(T / float(h)).tobytes(), T


def test_time_table_follows_horizon_change():
    policy = _toy_policy()
    assert policy.time_table().shape[0] == policy.flow.h
    policy.flow = FlowParams(h=4)
    assert policy.time_table().tobytes() == np.stack(
        [time_features(T / 4.0) for T in range(4)]).tobytes()


def _action_via_forward(policy, alpha, T, obs):
    h = float(policy.flow.h)
    a_norm = forward(policy.model, alpha, T / h, obs) / h
    return a_norm, a_norm * policy.stats.scale


@pytest.mark.parametrize("h", [1, 5, 10])
def test_policy_action_matches_forward_bitwise(h):
    """Every T, including T = h and T = -1 outside the table, gives the
    per-call forward result bit for bit."""
    policy = _toy_policy()
    policy.flow = FlowParams(h=h)
    rng = make_rng(5, 1, h)
    alpha = rng.normal(size=2)
    obs = rng.normal(size=7)
    for T in [*range(h), np.int64(h - 1), h, -1]:
        got = policy.action(alpha, T, obs)
        want = _action_via_forward(policy, alpha, T, obs)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), T


def test_policy_action_goes_through_forward(monkeypatch):
    """Single-row calls keep passing through velocitynet.forward (what the
    traced benchmark counts) and take their action from
    flowmatch.extract_action; time_features runs only to build the table."""
    from streampolicy import flowmatch, velocitynet

    calls = {"forward": 0, "time_features": 0, "extract_action": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(velocitynet, "forward", counted("forward", velocitynet.forward))
    monkeypatch.setattr(velocitynet, "time_features",
                        counted("time_features", velocitynet.time_features))
    monkeypatch.setattr(flowmatch, "extract_action",
                        counted("extract_action", flowmatch.extract_action))
    policy = _toy_policy()
    h = policy.flow.h
    for _ in range(3):
        for T in range(h):
            policy.action(np.zeros(2), T, np.zeros(7))
    assert calls == {"forward": 3 * h, "time_features": h, "extract_action": 3 * h}
    policy.action(np.zeros(2), h, np.zeros(7))
    assert calls == {"forward": 3 * h + 1, "time_features": h + 1, "extract_action": 3 * h + 1}


@pytest.mark.parametrize("hidden", [(16, 12), (8,), (5, 6, 7)])
def test_forward_on_a_prepared_row_matches_the_batched_layers_bitwise(hidden):
    """One InputRow serves many forward passes on its observation: each
    gives the training path's layers, run on that one row, bit for bit, with
    the time features passed in or computed from t; so does a forward that
    builds its own row."""
    model = init_velocity_model(2, 7, hidden=hidden, rng=make_rng(3, 7, len(hidden)))
    rng = make_rng(5, 2, len(hidden))
    for k, b in model.params.items():
        if k.startswith("b"):  # initialized to zero, which would hide the bias add
            b[...] = rng.normal(size=b.shape)
    obs = rng.normal(size=7)
    row = InputRow(model, np.zeros(2), obs)
    for T in range(12):
        x = rng.normal(size=2)
        t = T / 10.0
        inp = _assemble_inputs(model, x, t, obs)
        want = _mlp_forward(model.params, inp, model.n_layers())[0]
        assert forward(model, x, t, obs).tobytes() == want.tobytes(), T
        for tf in (time_features(t), None):
            got = forward(model, x, t, obs, tf, prepared=row)
            assert got.tobytes() == want.tobytes(), (T, tf is None)
    assert row.row[2 + TIME_DIM:].tobytes() == obs.tobytes()


def test_forward_rejects_a_row_prepared_for_another_input():
    model = _small_model()
    obs = np.linspace(-1, 1, 7)
    row = InputRow(model, np.zeros(2), obs)
    with pytest.raises(ValueError, match="another model or observation"):
        forward(model, np.zeros(2), 0.0, obs.copy(), prepared=row)
    with pytest.raises(ValueError, match="another model or observation"):
        forward(_small_model(1), np.zeros(2), 0.0, obs, prepared=row)


def test_policy_action_on_a_prepared_row_matches_action_bitwise():
    policy = _toy_policy()
    rng = make_rng(5, 3, 0)
    alpha, obs = rng.normal(size=2), rng.normal(size=7)
    row = policy.prepare(alpha, obs)
    for T in [*range(policy.flow.h), policy.flow.h]:
        alpha = alpha + 0.01 * T
        got = policy.action(alpha, T, obs, prepared=row)
        want = policy.action(alpha, T, obs)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), T


def test_input_row_checks_dimensions():
    model = _small_model()
    with pytest.raises(DimensionMismatchError, match="obs dim 6 != 7"):
        InputRow(model, np.zeros(2), np.zeros(6))
    with pytest.raises(DimensionMismatchError, match="state dim 3 != 2"):
        InputRow(model, np.zeros(3), np.zeros(7))
    with pytest.raises(DimensionMismatchError, match="one state and one observation"):
        InputRow(model, np.zeros((4, 2)), np.zeros((4, 7)))
