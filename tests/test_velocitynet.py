from dataclasses import replace

import numpy as np
import pytest

from streampolicy.core import (
    TAG_VELOCITY_POLICY, CheckpointError, DimensionMismatchError, make_rng, read_container,
    write_container,
)
from streampolicy.flowmatch import FlowParams
from streampolicy.normkit import NormStats
from streampolicy.saliency import COND_DIM, EMBED_DIM, PredictorConfig, init_predictor
from streampolicy.saliency import loss_and_grad as predictor_loss_and_grad
from streampolicy.velocitynet import (
    AdamState, Inputs, Policy, adam_step, forward, init_adam, init_velocity_model,
    load_policy, loss_and_grad, save_policy, time_features, TIME_DIM, _backward, _layer_pass,
    _layers,
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
    _, grads = loss_and_grad(model, X, time_features(T), OBS, V)
    eps = 1e-6
    worst = 0.0
    for name, g in grads.items():
        flat = model.params[name].ravel()
        gflat = g.ravel()
        for idx in range(0, flat.size, max(1, flat.size // 7)):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp, _ = loss_and_grad(model, X, time_features(T), OBS, V)
            flat[idx] = orig - eps
            lm, _ = loss_and_grad(model, X, time_features(T), OBS, V)
            flat[idx] = orig
            fd = (lp - lm) / (2 * eps)
            denom = max(abs(fd), abs(gflat[idx]), 1e-8)
            worst = max(worst, abs(fd - gflat[idx]) / denom)
    assert worst < 1e-4, worst


def test_loss_and_grad_takes_time_features_not_times(rng):
    """loss_and_grad reads time feature rows; a batch of raw times is refused
    rather than fed to the network as features."""
    model = _small_model()
    X, T, OBS, V = _batch(rng)
    with pytest.raises(DimensionMismatchError, match="time feature dim 6 != 9"):
        loss_and_grad(model, X, T, OBS, V)


def _forward_at(model, x, t, obs):
    """The kernel on fresh inputs for one state, time and observation."""
    inputs = Inputs(model, x, obs)
    inputs.tf[...] = time_features(t)
    return forward(inputs)


def _batch_pass(model, rows):
    """The layer pass on a 2-D batch of input rows, as training runs it."""
    layers = _layers(model)
    return _layer_pass(rows, layers[:-1], layers[-1])


def test_forward_batch_agrees_with_single(rng):
    """The layer pass on a batch agrees with the action kernel on each of its
    rows, and on a (1, d) batch (np.matmul) gives a lone row's bits (np.dot)."""
    model = _small_model()
    X, T, OBS, _ = _batch(rng)
    rows = np.concatenate([X, time_features(T), OBS], axis=-1)
    batched = _batch_pass(model, rows)
    for i in range(X.shape[0]):
        lone = _forward_at(model, X[i], float(T[i]), OBS[i])
        assert np.allclose(batched[i], lone, atol=1e-12)
        assert _batch_pass(model, rows[i:i + 1])[0].tobytes() == lone.tobytes(), i


def test_time_features_shape_and_range():
    f = time_features(0.3)
    assert f.shape == (9,)
    assert abs(f[0] - 0.3) < 1e-15
    assert np.all(np.abs(f[1:]) <= 1.0)


def test_adam_descends(rng):
    model = _small_model()
    X, T, OBS, V = _batch(rng, n=32)
    state = init_adam(model.params, lr=1e-2)
    first, _ = loss_and_grad(model, X, time_features(T), OBS, V)
    for _ in range(60):
        loss, grads = loss_and_grad(model, X, time_features(T), OBS, V)
        adam_step(model.params, grads, state, lr=1e-2)
    final, _ = loss_and_grad(model, X, time_features(T), OBS, V)
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
    return model.params, lambda: loss_and_grad(model, X, time_features(T), OBS, V)[1]


def _predictor_trainable(rng):
    pred = init_predictor(PredictorConfig(iterations=1, seed=3))
    trainable = pred.trainable()
    E = rng.normal(size=(16, EMBED_DIM))
    C = rng.normal(size=(16, COND_DIM))
    target = rng.normal(size=(16, EMBED_DIM))

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


def _policy_loss(rng):
    """The policy's loss_and_grad on one batch, as a function of the weights,
    and its weights."""
    model = _small_model()
    X, T, OBS, V = _batch(rng, n=32)
    TF = time_features(T)
    return lambda params: loss_and_grad(replace(model, params=params), X, TF, OBS, V), model.params


def _predictor_loss(rng):
    """The predictor's loss_and_grad on one batch, as a function of the
    trainable weights, and those weights."""
    pred = init_predictor(PredictorConfig(iterations=1, seed=3))
    E = rng.normal(size=(32, EMBED_DIM))
    C = rng.normal(size=(32, COND_DIM))
    target = rng.normal(size=(32, EMBED_DIM))
    return (lambda params: predictor_loss_and_grad(replace(pred, params={**pred.params, **params}),
                                                   E, C, target), pred.trainable())


@pytest.mark.parametrize("make", [_policy_loss, _predictor_loss])
def test_float32_gradients_match_float64(rng, make):
    """On weights that float32 represents exactly, the float32 model computes
    in float32 and its loss and gradients match the float64 model's: each
    entry within rtol 1e-4, with an absolute floor of 1e-4 times its
    tensor's largest float64 entry for entries that cancel to near zero."""
    loss_of, params = make(rng)
    f32 = {k: p.astype(np.float32) for k, p in params.items()}
    loss64, grads64 = loss_of({k: p.astype(np.float64) for k, p in f32.items()})
    loss32, grads32 = loss_of(f32)
    assert loss32 == pytest.approx(loss64, rel=1e-4)
    assert grads64.keys() == grads32.keys()
    for k, g in grads64.items():
        assert g.dtype == np.float64 and grads32[k].dtype == np.float32, k
        np.testing.assert_allclose(grads32[k], g, rtol=1e-4, atol=1e-4 * np.abs(g).max(),
                                   err_msg=k)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("transposed", [False, True], ids=["in_out", "out_in_view"])
def test_zero_film_pass_and_backward_match_the_plain_ones_bitwise(rng, dtype, transposed):
    """With gamma = beta = 0 the modulated layer pass gives the plain pass's
    output and activations bit for bit, and _backward the plain gradients,
    for C-ordered (in, out) weights (the policy's) and for transposed views
    of (out, in) arrays (the predictor's). Each gradient is shaped as its
    weight and C-ordered as stored. Each dbeta is then its layer's delta:
    its column sums are the bias gradient, and dgamma is it times the
    pre-activation."""
    sizes, B = (9, 16, 12, 3), 32
    layers = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        w = rng.normal(size=(fan_out, fan_in) if transposed else (fan_in, fan_out)).astype(dtype)
        layers.append((w.T if transposed else w, rng.normal(size=fan_out).astype(dtype)))
    x = rng.normal(size=(B, sizes[0])).astype(dtype)
    delta = rng.normal(size=(B, sizes[-1])).astype(dtype)
    mods = [(1.0 + np.zeros((B, n), dtype), np.zeros((B, n), dtype)) for n in sizes[1:-1]]
    plain_acts, film_acts, pres = [x], [x], []
    plain = _layer_pass(x, layers[:-1], layers[-1], plain_acts)
    film = _layer_pass(x, layers[:-1], layers[-1], film_acts, mods, pres)
    assert film.tobytes() == plain.tobytes()
    assert [a.tobytes() for a in film_acts] == [a.tobytes() for a in plain_acts]
    want, no_mods = _backward(layers, plain_acts, delta)
    got, dmods = _backward(layers, film_acts, delta, "", mods, pres)
    assert no_mods == [None, None] and got.keys() == want.keys()
    for i, (w, b) in enumerate(layers):
        gw, gb = got[f"w{i}"], got[f"b{i}"]
        assert gw.shape == w.shape and gb.shape == b.shape, i
        assert (gw.T if transposed else gw).flags.c_contiguous and gb.flags.c_contiguous, i
        for k in (f"w{i}", f"b{i}"):
            assert got[k].dtype == dtype and got[k].tobytes() == want[k].tobytes(), k
    for i, (dgamma, dbeta) in enumerate(dmods):
        assert dbeta.sum(axis=0).tobytes() == got[f"b{i}"].tobytes(), i
        assert dgamma.tobytes() == (dbeta * pres[i]).tobytes(), i


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
        # each a fresh array, not a view of the file's bytes
        assert loaded[name].flags.writeable and loaded[name].flags.c_contiguous, name
        assert loaded[name].flags.owndata and loaded[name].dtype == np.float64, name


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
    for got, want in zip(loaded.action(loaded.inputs(x, obs), x, 3), policy.action(policy.inputs(x, obs), x, 3)):
        assert np.array_equal(got, want)


def test_policy_action_pair_consistent():
    policy = _toy_policy()
    a_norm, a_raw = policy.action(policy.inputs(np.zeros(2), np.zeros(7)), np.zeros(2), 0)
    assert np.allclose(a_raw, a_norm * policy.stats.scale)
    v = _forward_at(policy.model, np.zeros(2), 0.0, np.zeros(7))
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
    a_norm = _forward_at(policy.model, alpha, T / h, obs) / h
    return a_norm, a_norm * policy.stats.scale


@pytest.mark.parametrize("h", [1, 5, 10])
def test_policy_action_matches_forward_bitwise(h):
    """Every T of the horizon, an int or a numpy integer, gives the kernel
    on time_features(T / h) bit for bit."""
    policy = _toy_policy()
    policy.flow = FlowParams(h=h)
    rng = make_rng(5, 1, h)
    alpha = rng.normal(size=2)
    obs = rng.normal(size=7)
    for T in [*range(h), np.int64(h - 1)]:
        got = policy.action(policy.inputs(alpha, obs), alpha, T)
        want = _action_via_forward(policy, alpha, T, obs)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), T


@pytest.mark.parametrize("T", [-1, 10, 11, np.int64(10)])
def test_policy_action_rejects_an_index_outside_the_horizon(T):
    policy = _toy_policy()
    assert policy.flow.h == 10
    inputs = policy.inputs(np.zeros(2), np.zeros(7))
    with pytest.raises(ValueError, match=r"action index -?\d+ outside the horizon \[0, 10\)"):
        policy.action(inputs, np.zeros(2), T)


def test_policy_action_goes_through_forward(monkeypatch):
    """Actions pass through velocitynet.forward (what the traced benchmark
    counts) and take their action from flowmatch.extract_action;
    time_features runs only to build the table."""
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
        inputs = policy.inputs(np.zeros(2), np.zeros(7))
        for T in range(h):
            policy.action(inputs, np.zeros(2), T)
    assert calls == {"forward": 3 * h, "time_features": h, "extract_action": 3 * h}
    policy.action(policy.inputs(np.zeros((4, 2)), np.zeros((4, 7))), np.zeros((4, 2)), 0)
    assert calls == {"forward": 3 * h + 1, "time_features": h, "extract_action": 3 * h + 1}


@pytest.mark.parametrize("hidden", [(16, 12), (8,), (5, 6, 7)])
def test_forward_on_a_prepared_row_matches_the_batched_layers_bitwise(hidden):
    """One lone row of Inputs serves many forward passes on its observation:
    each gives the layer pass on that row as a (1, d) batch, the product
    training takes, bit for bit, and leaves the observation features as they
    were written."""
    model = init_velocity_model(2, 7, hidden=hidden, rng=make_rng(3, 7, len(hidden)))
    rng = make_rng(5, 2, len(hidden))
    for k, b in model.params.items():
        if k.startswith("b"):  # initialized to zero, which would hide the bias add
            b[...] = rng.normal(size=b.shape)
    obs = rng.normal(size=7)
    inputs = Inputs(model, np.zeros(2), obs)
    for T in range(12):
        x = rng.normal(size=2)
        t = T / 10.0
        want = _batch_pass(model, np.concatenate([x, time_features(t), obs])[None])[0]
        inputs.x[...] = x
        inputs.tf[...] = time_features(t)
        assert forward(inputs).tobytes() == want.tobytes(), T
        assert _forward_at(model, x, t, obs).tobytes() == want.tobytes(), T
    assert inputs.rows[2 + TIME_DIM:].tobytes() == obs.tobytes()


def test_policy_action_on_a_prepared_row_matches_action_bitwise():
    """One Inputs serves a whole horizon: each action on it gives the bits
    of the same action on inputs built for it alone."""
    policy = _toy_policy()
    rng = make_rng(5, 3, 0)
    alpha, obs = rng.normal(size=2), rng.normal(size=7)
    inputs = policy.inputs(alpha, obs)
    for T in range(policy.flow.h):
        alpha = alpha + 0.01 * T
        got = policy.action(inputs, alpha, T)
        want = policy.action(policy.inputs(alpha, obs), alpha, T)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), T


def test_input_row_checks_dimensions():
    """Inputs checks a lone row: a 1-D state and a 1-D observation."""
    model = _small_model()
    assert Inputs(model, np.zeros(2), np.ones(7)).rows.shape == (2 + TIME_DIM + 7,)
    for x, obs, match in [
        (np.zeros(3), np.zeros(7), "state dim 3 != 2"),
        (np.zeros(2), np.zeros(6), "obs dim 6 != 7"),
        (np.zeros(2), np.zeros((1, 7)), "one of each per row"),
        (np.zeros((1, 2)), np.zeros(7), "one of each per row"),
    ]:
        with pytest.raises(DimensionMismatchError, match=match):
            Inputs(model, x, obs)


def test_input_rows_check_dimensions():
    """Inputs checks a stack: one state and one observation per row."""
    model = _small_model()
    assert Inputs(model, np.zeros((3, 2)), np.ones((3, 7))).rows.shape == (3, 1, 2 + TIME_DIM + 7)
    for x, obs, match in [
        (np.zeros((3, 3)), np.zeros((3, 7)), "state dim 3 != 2"),
        (np.zeros((3, 2)), np.zeros((3, 6)), "obs dim 6 != 7"),
        (np.zeros((3, 2)), np.zeros((4, 7)), "one of each per row"),
        (np.zeros((2, 1, 2)), np.zeros((2, 1, 7)), "one of each per row"),
    ]:
        with pytest.raises(DimensionMismatchError, match=match):
            Inputs(model, x, obs)


@pytest.mark.parametrize("policy_name", ["ctrl_policy", "direct_policy"])
def test_stacked_rows_match_single_row_forward_bitwise(policy_name, request):
    """The stacked kernel on this BLAS: each row of a (B, 1, d) stack gets
    the bits the kernel and Policy.action give it as a lone 1-D row, on the
    trained fixture networks, for small stacks and for B = 1000, ten times
    the calibration episodes bench and perfbench run (the bits do not depend
    on B: each row is its own vector-matrix product). Rows a stack keeps
    (inputs rebuilt from the kept rows) keep their bits too."""
    policy = request.getfixturevalue(policy_name)
    model, h = policy.model, policy.flow.h
    rng = make_rng(9, 4, 0)
    for B in (1, 2, 7, 100, 128, 1000):
        alpha = rng.normal(scale=0.5, size=(B, 2))
        obs = rng.uniform(-5.0, 5.0, size=(B, 7))
        T = B % h
        stack = Inputs(model, alpha, obs)
        stack.tf[...] = policy.time_table()[T]
        before = stack.rows.copy()
        got = forward(stack)
        assert got.shape == (B, 2)
        assert stack.rows.tobytes() == before.tobytes()
        for b in range(B):
            lone = Inputs(model, alpha[b], obs[b])
            lone.tf[...] = policy.time_table()[T]
            assert got[b].tobytes() == forward(lone).tobytes(), (B, b)

        got_norm, got_raw = policy.action(policy.inputs(alpha, obs), alpha, T)
        assert got_norm.shape == got_raw.shape == (B, 2)
        for b in range(B):
            want_norm, want_raw = policy.action(policy.inputs(alpha[b], obs[b]), alpha[b], T)
            assert got_norm[b].tobytes() == want_norm.tobytes(), (B, b)
            assert got_raw[b].tobytes() == want_raw.tobytes(), (B, b)

        keep = np.arange(B) % 3 != 1
        kept_norm, _ = policy.action(policy.inputs(alpha[keep], obs[keep]), alpha[keep], T)
        assert kept_norm.tobytes() == got_norm[keep].tobytes(), B


@pytest.mark.parametrize("policy_name", ["ctrl_policy", "direct_policy"])
def test_lone_row_forward_matches_the_matmul_reference_bitwise(policy_name, request):
    """A lone row's layers are np.dot products; on this BLAS each gives the
    bits of the lone-row matmul z @ w, with the bias added and tanh applied
    out of place, on the trained fixture networks at every action index of
    the horizon and on 3,000 random rows, some far outside the training
    range."""
    policy = request.getfixturevalue(policy_name)
    model, h = policy.model, policy.flow.h
    p, n_layers = model.params, model.n_layers()
    rng = make_rng(9, 4, 1)
    for n in range(3000):
        scale = 50.0 if n % 10 == 0 else 1.0
        inputs = Inputs(model, rng.normal(scale=scale, size=2), rng.uniform(-5, 5, size=7) * scale)
        inputs.tf[...] = policy.time_table()[n % h]
        z = inputs.rows
        for i in range(n_layers):
            z = z @ p[f"w{i}"] + p[f"b{i}"]
            if i < n_layers - 1:
                z = np.tanh(z)
        assert forward(inputs).tobytes() == z.tobytes(), n
