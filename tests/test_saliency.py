import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streampolicy import saliency
from streampolicy.core import ACTION_DIM, OBS_DIM, STREAM_PREDICTOR, make_rng
from streampolicy.saliency import (
    COND_DIM, EMBED_DIM, EO_ACTION_NORM, EO_ADAPTIVE, GAP_CHOICES, N_EO_MAX, Indicator,
    PredictorConfig, _prepare_pairs, _sample_pairs, calibrate_threshold, decision_scores, embed,
    init_predictor, load_predictor, loss_and_grad, pad_actions, saliency_score, save_predictor,
    score_decisions,
)
from streampolicy.trainer import TrainingDivergedError


def _toy_cfg():
    return PredictorConfig(iterations=1, seed=3)


def test_indicator_validation():
    with pytest.raises(ValueError):
        Indicator(mode="psychic")
    with pytest.raises(ValueError):
        Indicator(mode="random", p=1.5)


@pytest.mark.parametrize("lr", [0.0, -0.01, float("nan"), float("inf")])
def test_predictor_config_rejects_a_learning_rate_that_trains_nothing(lr):
    with pytest.raises(ValueError, match="lr must be finite and positive"):
        PredictorConfig(lr=lr)


@pytest.mark.parametrize("field, value", [("iterations", 0), ("batch_size", 0)])
def test_predictor_config_rejects_a_size_below_one_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be at least 1, got {value}$"):
        PredictorConfig(**{field: value})


@pytest.mark.parametrize("mode", ["action_norm", "adaptive"])
def test_indicator_rejects_a_nan_eta(mode):
    """score <= nan is never true, so a nan threshold would hold on every
    decision; the infinite thresholds calibrate_threshold returns stay valid."""
    with pytest.raises(ValueError, match="eta must be a number or \\+-inf, got nan"):
        Indicator(mode=mode, eta=float("nan"))
    for eta in (float("inf"), float("-inf")):
        assert Indicator(mode=mode, eta=eta).eta == eta


def test_predictor_gradients_match_central_differences():
    cfg = _toy_cfg()
    pred = init_predictor(cfg)
    rng = np.random.default_rng(4)
    E = rng.normal(size=(5, EMBED_DIM))
    C = rng.normal(size=(5, COND_DIM))
    target = rng.normal(size=(5, EMBED_DIM))
    _, grads = loss_and_grad(pred, E, C, target)
    eps = 1e-6
    worst = 0.0
    for name in grads:
        flat = pred.params[name].ravel()
        gflat = grads[name].ravel()
        for idx in range(0, flat.size, max(1, flat.size // 6)):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp, _ = loss_and_grad(pred, E, C, target)
            flat[idx] = orig - eps
            lm, _ = loss_and_grad(pred, E, C, target)
            flat[idx] = orig
            fd = (lp - lm) / (2 * eps)
            denom = max(abs(fd), abs(gflat[idx]), 1e-8)
            worst = max(worst, abs(fd - gflat[idx]) / denom)
    assert worst < 1e-4, worst


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("cfg", [_toy_cfg()], ids=["toy"])
def test_predictor_gradients_are_c_ordered_in_their_parameters_shapes(dtype, cfg):
    """Every gradient loss_and_grad returns, one per trainable parameter, is
    C-contiguous and shaped as its parameter is stored ((out, in) for a
    weight), so adam_step ravels views of them, not copies: in float64 and
    in the float32 the trainer runs."""
    pred = init_predictor(cfg)
    pred.params.update({k: v.astype(dtype) for k, v in pred.trainable().items()})
    rng = np.random.default_rng(5)
    E = rng.normal(size=(9, EMBED_DIM))
    C = rng.normal(size=(9, COND_DIM))
    _, grads = loss_and_grad(pred, E, C, rng.normal(size=(9, EMBED_DIM)))
    assert grads.keys() == pred.trainable().keys()
    for k, g in grads.items():
        assert g.dtype == dtype and g.shape == pred.params[k].shape, k
        assert g.flags.c_contiguous and np.shares_memory(g.ravel(), g), k


def test_a_diverging_predictor_raises_training_diverged_naming_the_iteration(small_demos):
    """A rate of 1e300 overflows Adam's float32 step on the first update, so
    the second iteration's loss is nan: train_predictor raises
    TrainingDivergedError, as the policy trainer does, naming iteration 1
    and the first loss."""
    cfg = PredictorConfig(iterations=50, batch_size=16, lr=1e300)
    with pytest.raises(TrainingDivergedError) as err, np.errstate(all="ignore"):
        saliency.train_predictor(small_demos, cfg)
    assert err.value.iteration == 1 and "at iteration 1 " in str(err.value)
    assert not math.isfinite(err.value.loss)
    assert err.value.last_finite is not None and math.isfinite(err.value.last_finite)


def test_encoder_excluded_from_trainable():
    pred = init_predictor(_toy_cfg())
    names = set(pred.trainable())
    assert names and not any(n.startswith("enc_") for n in names)
    assert "enc_w" in pred.params


def test_pad_actions_shapes():
    two = pad_actions(np.ones((2, 2)))
    assert two.shape == (COND_DIM,)
    assert np.array_equal(two[:4], np.ones(4)) and np.all(two[4:] == 0)
    crowded = pad_actions(np.arange(12.0).reshape(6, 2))
    assert np.array_equal(crowded, np.arange(float(COND_DIM)))


def _reference_frames(trajectories, predictor):
    """The usable trajectories and every usable frame's embedding, stacked
    trajectory by trajectory, with each trajectory's first row."""
    usable = [t for t in trajectories if len(t) > min(GAP_CHOICES)]
    table = embed(predictor, np.concatenate([t.features for t in usable]))
    return usable, table, np.cumsum([0] + [len(t) for t in usable])


def _reference_sample_pairs(frames, cfg, rng):
    """The per-row loop that _sample_pairs replaces with gathers, reading each
    pair's embeddings from _reference_frames' table."""
    usable, table, first = frames
    B = cfg.batch_size
    E = np.empty((B, EMBED_DIM))
    target = np.empty((B, EMBED_DIM))
    cond = np.empty((B, COND_DIM))
    gaps = np.asarray(GAP_CHOICES)
    for b in range(B):
        i = int(rng.integers(len(usable)))
        traj = usable[i]
        feasible = gaps[gaps < len(traj)]
        gap = int(feasible[int(rng.integers(len(feasible)))])
        f = int(rng.integers(len(traj) - gap))
        E[b] = table[first[i] + f]
        target[b] = table[first[i] + f + gap] - E[b]
        cond[b] = pad_actions(traj.actions[f : f + gap])
    return E, target, cond


def _rng_state(rng):
    s = rng.bit_generator.state
    return (tuple(int(c) for c in s["state"]["counter"]), tuple(int(b) for b in s["buffer"]),
            s["buffer_pos"], s["has_uint32"], s["uinteger"])


def _assert_same_pairs(pool, frames, cfg, rng, ref_rng, label):
    got = _sample_pairs(pool, cfg, rng)
    want = _reference_sample_pairs(frames, cfg, ref_rng)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes(), label
    assert _rng_state(rng) == _rng_state(ref_rng), label


@pytest.fixture()
def scalar_calls(monkeypatch):
    """Counts the batches _sample_pairs hands to its scalar fallback."""
    calls = []
    scalar = saliency._scalar_draws

    def counting(*args):
        calls.append(1)
        return scalar(*args)

    monkeypatch.setattr(saliency, "_scalar_draws", counting)
    return calls


def test_sample_pairs_block_draw_matches_scalar_draws(small_demos, scalar_calls):
    """Every bound is at least 2 on full-length demos, so each batch comes from
    the one block of raw words: the same pairs and the same generator end
    state as the scalar loop, over 2000 streams."""
    predictor = init_predictor(PredictorConfig())
    pool = _prepare_pairs(small_demos, predictor)
    frames = _reference_frames(small_demos, predictor)
    n = 2000
    for i in range(n):
        _assert_same_pairs(pool, frames, predictor.config, make_rng(9, STREAM_PREDICTOR, i),
                           make_rng(9, STREAM_PREDICTOR, i), i)
    assert not scalar_calls


def test_sample_pairs_matches_reference_loop(ragged_demos, scalar_calls):
    """Bitwise the same pairs and generator end state as the per-row loop, from
    the same streams, with trajectories shorter than the largest gap. Bounds
    of 1 occur here: nearly every batch of 48 rows
    meets one and falls back to the scalar loop, while many batches of 8 rows
    still come from the block draw."""
    assert any(min(GAP_CHOICES) < len(t) <= max(GAP_CHOICES) for t in ragged_demos)
    n = 150
    for batch in (48, 8):
        predictor = init_predictor(PredictorConfig(batch_size=batch))
        pool = _prepare_pairs(ragged_demos, predictor)
        frames = _reference_frames(ragged_demos, predictor)
        for i in range(n):
            _assert_same_pairs(pool, frames, predictor.config, make_rng(9, STREAM_PREDICTOR, i),
                               make_rng(9, STREAM_PREDICTOR, i), (batch, i))
    assert 0 < len(scalar_calls) < 2 * n


def test_sample_pairs_falls_back_on_a_rejected_word(small_demos, scalar_calls):
    """A raw word of 0 is rejected for any bound that is not a power of two
    (40 trajectories here): numpy draws again, and so must _sample_pairs."""
    predictor = init_predictor(PredictorConfig())
    pool = _prepare_pairs(small_demos, predictor)
    rngs = [make_rng(3, 5, 7), make_rng(3, 5, 7)]
    for r in rngs:
        state = r.bit_generator.state
        r.bit_generator.state = {**state, "has_uint32": 1, "uinteger": 0}
    _assert_same_pairs(pool, _reference_frames(small_demos, predictor), predictor.config, *rngs,
                       "forced rejection")
    assert len(scalar_calls) == 1


def test_sample_pairs_needs_a_long_enough_trajectory(ragged_demos):
    with pytest.raises(ValueError):
        _prepare_pairs([t for t in ragged_demos if len(t) <= 1],
                       init_predictor(PredictorConfig()))


def test_pair_pool_embeds_every_frame_once(monkeypatch, ragged_demos):
    """The pool holds each usable frame's embedding, computed once per run:
    train_predictor calls embed only to build it, whatever the iteration
    count, and the rows agree with embedding each trajectory's frames alone."""
    predictor = init_predictor(PredictorConfig())
    pool = _prepare_pairs(ragged_demos, predictor)
    usable = [t for t in ragged_demos if len(t) > 1]
    assert pool.embeddings.shape == (sum(len(t) for t in usable), EMBED_DIM)
    for t, start in zip(usable, pool.offsets):
        np.testing.assert_allclose(pool.embeddings[start:start + len(t)],
                                   embed(predictor, t.features), rtol=1e-13, atol=1e-15)

    calls = []
    real_embed = saliency.embed
    monkeypatch.setattr(saliency, "embed", lambda *args: calls.append(1) or real_embed(*args))
    for iterations in (1, 20):
        calls.clear()
        saliency.train_predictor(ragged_demos, PredictorConfig(iterations=iterations, batch_size=8))
        assert len(calls) == 1, iterations


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=400),
       st.floats(0.0, 1.0))
def test_calibrated_threshold_hits_rate(scores, rate):
    scores = np.asarray(scores)
    eta = calibrate_threshold(scores, rate)
    realized = float(np.mean(scores <= eta))
    k = int(np.floor(rate * scores.size))
    assert realized >= k / scores.size
    if rate == 0.0:
        assert eta == float("-inf") and realized == 0.0
    if rate == 1.0:
        assert eta == float("inf") and realized == 1.0


def test_calibrate_rejects_bad_input():
    with pytest.raises(ValueError):
        calibrate_threshold(np.array([1.0]), 1.5)
    with pytest.raises(ValueError):
        calibrate_threshold(np.array([]), 0.5)


def test_decision_scores_alignment(small_demos, ctrl_predictor):
    h, n_eo = 10, 3
    scores = decision_scores(ctrl_predictor, small_demos, h, n_eo)
    expected = sum(max(0, (len(t) - h) // h + 1) for t in small_demos)
    assert scores.shape == (expected,)
    # first score comes from the first episode's first decision point
    t0 = small_demos[0]
    d = h - n_eo
    manual = saliency_score(ctrl_predictor, t0.features[d:d + 1], [t0.actions[d:h]])
    assert scores[0] == manual[0]


def test_decision_scores_action_norm(small_demos):
    scores = decision_scores(None, small_demos, 10, 2, mode=EO_ACTION_NORM)
    t0 = small_demos[0]
    assert scores[0] == np.linalg.norm(t0.actions[8:10].ravel())
    with pytest.raises(ValueError):
        decision_scores(None, small_demos, 10, 0)


def test_scoring_needs_a_scored_mode_and_adaptive_a_predictor():
    tails = [np.ones((2, 2))]
    with pytest.raises(ValueError, match="requires a predictor"):
        score_decisions(EO_ADAPTIVE, None, np.zeros((1, 7)), tails)
    with pytest.raises(ValueError, match="no scores for indicator mode 'naive'"):
        score_decisions("naive", None, None, tails)


def _per_decision_scores(mode, predictor, trajectories, h, n_eo):
    """The scores decision_scores gives, one lone score_decisions call per
    point, as the executor makes it."""
    out = []
    for t in trajectories:
        for start in range(0, len(t) - h + 1, h):
            d = start + h - n_eo
            out.extend(score_decisions(mode, predictor, t.features[d:d + 1],
                                       [t.actions[d:start + h]]))
    return np.asarray(out)


@pytest.mark.parametrize("source", ["small_demos", "calibration"])
def test_stacked_decision_scores_match_per_decision_scores_bitwise(source, request, ctrl_predictor):
    """The stacked pass scores every decision point as a lone saliency_score
    or action_norm_score call does, bit for bit: one ulp can move a
    calibrated eta. The calibration set is the on-policy rollouts bench
    calibrates on."""
    if source == "small_demos":
        trajs = request.getfixturevalue("small_demos")
    else:
        from streampolicy.envsim import EnvKind, KIND_CONTROLLER
        from streampolicy.streamexec import calibration_trajectories
        trajs = calibration_trajectories(request.getfixturevalue("ctrl_policy"),
                                         EnvKind(variant=KIND_CONTROLLER), 5, 30, 120)
    for n_eo in (1, 2, 3, 4, 6, 9):
        for mode in (EO_ADAPTIVE, EO_ACTION_NORM):
            got = decision_scores(ctrl_predictor, trajs, 10, n_eo, mode=mode)
            want = _per_decision_scores(mode, ctrl_predictor, trajs, 10, n_eo)
            assert got.dtype == want.dtype and got.shape == want.shape and len(got) > 30
            assert got.tobytes() == want.tobytes(), (mode, n_eo)


def test_predictor_stack_matches_lone_rows_bitwise(ctrl_predictor):
    """Each item of an n-decision stack gets the score a lone (n = 1) call of
    score_decisions gives it, in both scored modes, bit for bit, whatever n
    is, with tails of 1 to N_EO_MAX + 2 actions mixed in one stack: the wall
    clock scores only the actions released by the decision, and a tail
    longer than N_EO_MAX is truncated. An adaptive item's score is also the
    norm of a lone (1, d) _forward row's output: the stack's items get the
    bits of unstacked rows."""
    rng = make_rng(9, 4, 1)
    for n in (7, 299, 1000):
        feats = rng.uniform(-5.0, 5.0, size=(n, OBS_DIM))
        lengths = 1 + rng.permutation(n) % (N_EO_MAX + 2)
        tails = [rng.normal(scale=0.3, size=(k, ACTION_DIM)) for k in lengths]
        for mode in (EO_ADAPTIVE, EO_ACTION_NORM):
            stacked = score_decisions(mode, ctrl_predictor, feats, tails)
            assert stacked.shape == (n,) and stacked.dtype == np.float64
            for b in range(n):
                lone = score_decisions(mode, ctrl_predictor, feats[b:b + 1], tails[b:b + 1])
                assert lone.shape == (1,), (mode, n, b)
                assert stacked[b].tobytes() == lone[0].tobytes(), (mode, n, b)
            if mode == EO_ADAPTIVE:
                for b in range(n):
                    C = pad_actions(tails[b])[None]
                    row, _ = saliency._forward(ctrl_predictor.params,
                                               embed(ctrl_predictor, feats[b:b + 1]), C)
                    assert row.shape == (1, EMBED_DIM)
                    assert stacked[b].tobytes() == np.linalg.norm(row[0]).tobytes(), (n, b)


def test_trained_predictor_separates_latch_crossings(ctrl_demos, ctrl_predictor):
    """Scores at decision points whose remaining actions cross the latch
    region must sit well above scores in quiet stretches: the goal shift
    moves the embedding, and the predictor is trained to see it coming."""
    h, n_eo = 10, 3
    crossing, clear = [], []
    for traj in ctrl_demos[:150]:
        latched = traj.features[:, 4] > 0.5
        for start in range(0, len(traj) - h + 1, h):
            d = start + h - n_eo
            s = saliency_score(ctrl_predictor, traj.features[d:d + 1],
                               [traj.actions[d:start + h]])[0]
            will_cross = (not latched[d]) and (
                latched[min(len(latched) - 1, start + h - 1)]
                or (d + 1 < len(latched) and latched[d + 1:start + h].any()))
            (crossing if will_cross else clear).append(s)
    assert len(crossing) > 10 and len(clear) > 10
    assert np.median(crossing) > 2.0 * np.median(clear)


def test_latch_toggle_moves_prediction(ctrl_predictor, rng):
    feats = rng.normal(size=7)
    feats[4] = 0.0
    toggled = feats.copy()
    toggled[4] = 1.0
    acts = 0.1 * rng.normal(size=(3, 2))
    a, b = saliency_score(ctrl_predictor, np.stack([feats, toggled]), [acts, acts])
    assert a != b


def test_embed_is_frozen_projection():
    pred = init_predictor(_toy_cfg())
    x = np.linspace(-1, 1, 7)
    e = embed(pred, x[None])[0]
    manual = np.tanh(pred.params["enc_w"] @ x + pred.params["enc_b"])
    assert np.allclose(e, manual, atol=1e-15)
    batch = embed(pred, np.stack([x, x * 2]))
    assert batch.shape == (2, EMBED_DIM)


def test_predictor_save_load_roundtrip(tmp_path, ctrl_predictor):
    p = tmp_path / "pred.ckpt"
    save_predictor(p, ctrl_predictor, iteration=123)
    loaded = load_predictor(p)
    assert loaded.config == ctrl_predictor.config
    rng = np.random.default_rng(0)
    feats = rng.normal(size=7)
    acts = rng.normal(size=(2, 2))
    assert (saliency_score(loaded, feats[None], [acts]).tobytes()
            == saliency_score(ctrl_predictor, feats[None], [acts]).tobytes())
