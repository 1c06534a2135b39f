"""Saliency prediction for adaptive early observation.

An early observation is safe when the scene will barely change while the
remaining actions of the horizon finish executing; it is harmful when those
actions are about to change what the policy should see (the latch regions in
the simulated tasks shift the goal). The predictor estimates the embedding
change between the current frame and the frame after the remaining actions,
without access to the future frame:

    score = || g(embed(obs); remaining actions) ||_2

Firing rule: observe early when score <= eta. The threshold eta is an order
statistic of scores collected on held-out demonstrations, chosen to hit a
target firing rate, so all indicator variants can be compared at matched
observation budgets. One function, score_decisions, scores the executor's
lone decisions and a calibration set's stack of decision points
(decision_scores) alike, giving a stacked decision the bits it gets alone,
so the calibrated eta is the per-decision one.

The embedding is a frozen random projection of the observation features
followed by tanh; only the change-prediction head trains. Conditioning on the
remaining actions enters through per-layer scale-shift (FiLM) modulation of
the trunk's hidden pre-activations; both MLPs run velocitynet's layer pass
and backward pass.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (ACTION_DIM, OBS_DIM, STREAM_MODEL_INIT, STREAM_PREDICTOR, TAG_SALIENCY_PREDICTOR,
                   CheckpointError, TrainingDivergedError, Trajectory, check_shapes, make_rng,
                   read_container, substreams, write_container)
from .velocitynet import TRAIN_DTYPE, _backward, _layer_pass, adam_step, astype, init_adam

N_EO_MAX = 4
EMBED_DIM = 16
HIDDEN = 64
COND_HIDDEN = 32
COND_DIM = N_EO_MAX * ACTION_DIM
GAP_CHOICES = (1, 2, 3)  # frame gaps trained on, ascending: a trajectory holds a prefix
_GAPS = np.array(GAP_CHOICES, dtype=np.int64)

EO_NAIVE = "naive"
EO_RANDOM = "random"
EO_ACTION_NORM = "action_norm"
EO_ADAPTIVE = "adaptive"

INDICATOR_MODES = (EO_NAIVE, EO_RANDOM, EO_ACTION_NORM, EO_ADAPTIVE)
# the modes that fire on a score of the remaining actions; naive and random read none
SCORED_MODES = (EO_ACTION_NORM, EO_ADAPTIVE)


@dataclass(frozen=True)
class Indicator:
    """Early-observation firing rule.

    naive fires every horizon; random fires with probability p; action_norm
    fires when the remaining actions are small; adaptive fires when the
    predicted embedding change is small. Score-based modes fire on
    score <= eta.
    """

    mode: str
    eta: float = 0.0
    p: float = 1.0

    def __post_init__(self):
        if self.mode not in INDICATOR_MODES:
            raise ValueError(f"unknown indicator mode {self.mode!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        # +-inf stay valid: calibrate_threshold returns them for rates 0 and 1
        if math.isnan(self.eta):
            raise ValueError("eta must be a number or +-inf, got nan")


@dataclass(frozen=True)
class PredictorConfig:
    """Training settings; the predictor's shape and gaps are module constants."""

    iterations: int = 3000
    batch_size: int = 64
    lr: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for name in ("iterations", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")


@dataclass
class Predictor:
    config: PredictorConfig
    params: dict[str, np.ndarray] = field(default_factory=dict)

    def trainable(self) -> dict[str, np.ndarray]:
        # the encoder is frozen; everything else trains
        return {k: v for k, v in self.params.items() if not k.startswith("enc_")}


# each parameter's shape, in init_predictor's draw order; the conditioning
# MLP's output holds the trunk's gamma0, beta0, gamma1 and beta1
_PARAM_SHAPES = {
    "enc_w": (EMBED_DIM, OBS_DIM),
    "enc_b": (EMBED_DIM,),
    "tw0": (HIDDEN, EMBED_DIM),
    "tb0": (HIDDEN,),
    "tw1": (HIDDEN, HIDDEN),
    "tb1": (HIDDEN,),
    "tw2": (EMBED_DIM, HIDDEN),
    "tb2": (EMBED_DIM,),
    "cw0": (COND_HIDDEN, COND_DIM),
    "cb0": (COND_HIDDEN,),
    "cw1": (4 * HIDDEN, COND_HIDDEN),
    "cb1": (4 * HIDDEN,),
}
# the shape and gaps a checkpoint's metadata records, as JSON reads them back
_FIXED_META = {"obs_dim": OBS_DIM, "action_dim": ACTION_DIM, "embed_dim": EMBED_DIM,
               "hidden": HIDDEN, "cond_hidden": COND_HIDDEN, "n_eo_max": N_EO_MAX,
               "gap_choices": list(GAP_CHOICES)}


def init_predictor(cfg: PredictorConfig) -> Predictor:
    """Weights drawn standard normal over sqrt(fan-in), biases zero."""
    rng = make_rng(cfg.seed, STREAM_MODEL_INIT, 2)
    params = {name: (rng.standard_normal(shape) / np.sqrt(shape[1]) if len(shape) == 2
                     else np.zeros(shape))
              for name, shape in _PARAM_SHAPES.items()}
    return Predictor(config=cfg, params=params)


def embed(predictor: Predictor, obs_features: np.ndarray) -> np.ndarray:
    """Frozen random-projection embedding of observation features, a stack
    (..., obs_dim) of rows."""
    return np.tanh(np.asarray(obs_features, dtype=float) @ predictor.params["enc_w"].T
                   + predictor.params["enc_b"])


def pad_actions(remaining: np.ndarray) -> np.ndarray:
    """Flatten remaining actions, zero-padded (or truncated) to N_EO_MAX slots.

    Truncation keeps the nearest actions, which dominate the imminent change.
    """
    a = np.asarray(remaining, dtype=float).reshape(-1, ACTION_DIM)[:N_EO_MAX]
    flat = np.zeros(COND_DIM)
    flat[: a.size] = a.ravel()
    return flat


def _forward(params: dict, E: np.ndarray, C: np.ndarray):
    """Predicted change for embeddings E and padded conditions C, row by
    row: (B, d) batches in training, (n, 1, d) stacks in saliency_score,
    and the tape loss_and_grad's backward reads. The conditioning MLP gives
    the trunk's FiLM pairs; both run _layer_pass on (w.T, b) views. A
    stack's products are one vector-matrix BLAS call per (1, d) item, as a
    lone row's are, and the rest is elementwise, so every item gets its
    lone bits whatever n is (see velocitynet.forward)."""
    cond = [(params[w].T, params[b]) for w, b in (("cw0", "cb0"), ("cw1", "cb1"))]
    trunk = [(params[w].T, params[b]) for w, b in (("tw0", "tb0"), ("tw1", "tb1"), ("tw2", "tb2"))]
    cacts, tacts, pres = [C], [E], []
    mod = _layer_pass(C, cond[:1], cond[1], cacts)
    H = HIDDEN  # mod holds gamma0, beta0, gamma1, beta1
    mods = [(1.0 + mod[..., j * H:(j + 1) * H], mod[..., (j + 1) * H:(j + 2) * H]) for j in (0, 2)]
    out = _layer_pass(E, trunk[:2], trunk[2], tacts, mods, pres)
    return out, (cond, trunk, cacts, tacts, mods, pres)


def saliency_score(predictor: Predictor, features: np.ndarray, tails) -> np.ndarray:
    """The norm of the predicted embedding change over each of n tails of raw
    actions, from n frames' features (n, obs_dim). The n decisions, n = 1
    included, run as one (n, 1, d) stack, whose items get the bits a lone
    (1, d) row gets (see _forward); each norm is taken alone."""
    F = np.asarray(features, dtype=float)[:, None]
    C = np.array([pad_actions(t) for t in tails])[:, None]
    out, _ = _forward(predictor.params, embed(predictor, F), C)
    return np.array([np.linalg.norm(row) for row in out.reshape(len(C), -1)])


def score_decisions(mode: str, predictor: Predictor | None, features, tails) -> np.ndarray:
    """The scores n decisions of a mode of SCORED_MODES fire on: each tail's
    norm (action_norm) or saliency_score (adaptive, the one mode that reads
    features). Tails may differ in length; a lone decision and an item of a
    stack get the same bits."""
    if mode == EO_ACTION_NORM:
        return np.array([np.linalg.norm(np.asarray(t, dtype=float).ravel()) for t in tails])
    if mode != EO_ADAPTIVE:
        raise ValueError(f"no scores for indicator mode {mode!r}")
    if predictor is None:
        raise ValueError("adaptive early observation requires a predictor")
    return saliency_score(predictor, features, tails)


def loss_and_grad(predictor: Predictor, E: np.ndarray, C: np.ndarray,
                  target: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """Mean per-sample squared error in embedding space, with analytic grads.

    Runs in the trunk weights' dtype: E, C and target are cast to it once.
    """
    dtype = predictor.params["tw0"].dtype
    E, C, target = (np.asarray(a, dtype=dtype) for a in (E, C, target))
    B = E.shape[0]
    out, (cond, trunk, cacts, tacts, mods, pres) = _forward(predictor.params, E, C)
    diff = out - target
    loss = float(np.sum(diff * diff) / B)
    grads, dmods = _backward(trunk, tacts, 2.0 * diff / B, "t", mods, pres)
    d_mod = np.concatenate([d for pair in dmods for d in pair], axis=-1)
    grads.update(_backward(cond, cacts, d_mod, "c")[0])
    return loss, {k: g.T if g.ndim == 2 else g for k, g in grads.items()}  # as stored, (out, in)


@dataclass
class _PairPool:
    """Everything _sample_pairs reads that does not depend on the RNG, built
    once per training run from the trajectories longer than the smallest gap.

    The three bounds of a row's draws are read from lengths and n_gaps:
    trajectory i holds the n_gaps[i] gaps GAP_CHOICES[:n_gaps[i]], those
    shorter than lengths[i] (the gaps ascend). Trajectory i's frames start
    at offsets[i] in embeddings, which holds embed(predictor, features) of
    every frame: the encoder is frozen, so one pass per run serves every
    iteration. Its actions start at offsets[i] + i * N_EO_MAX in actions,
    each trajectory followed by N_EO_MAX zero rows so a condition window
    never reads the next one.
    """

    lengths: np.ndarray         # (n_traj,) int64
    n_gaps: np.ndarray          # (n_traj,) int64, each >= 1
    embeddings: np.ndarray      # (sum L, EMBED_DIM) float64
    actions: np.ndarray         # (sum (L + N_EO_MAX), ACTION_DIM)
    offsets: np.ndarray


def _prepare_pairs(trajectories: list[Trajectory], predictor: Predictor) -> _PairPool:
    usable = [t for t in trajectories if len(t) > GAP_CHOICES[0]]
    if not usable:
        raise ValueError("no trajectory longer than the smallest gap")
    lengths = np.array([len(t) for t in usable], dtype=np.int64)
    pad = np.zeros((N_EO_MAX, ACTION_DIM))
    return _PairPool(
        lengths=lengths,
        n_gaps=np.searchsorted(_GAPS, lengths),
        embeddings=embed(predictor, np.concatenate([t.features for t in usable])),
        actions=np.concatenate([part for t in usable for part in (t.actions, pad)]),
        offsets=np.concatenate([[0], np.cumsum(lengths)[:-1]]),
    )


_WORD = np.uint64(1 << 32)
_LOW = np.uint64(0xFFFFFFFF)


def _lemire(words: np.ndarray, n) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draw below n, computed from raw 32-bit words.

    For 2 <= n < 2**32, Generator.integers(n) takes one word u and returns
    (u * n) >> 32, unless (u * n) mod 2**32 < (2**32 - n) mod n, when it
    rejects u and takes another. Returns the values and, per word, whether
    that draw is exact: the bound is in range and u is accepted.
    """
    n = np.asarray(n, dtype=np.uint64)
    m = words * n
    exact = (n >= 2) & (n < _WORD) & ((m & _LOW) >= (_WORD - n) % n)
    return (m >> np.uint64(32)).astype(np.int64), exact


def _scalar_draws(pool: _PairPool, B: int, rng: np.random.Generator):
    """(traj, gap, f) for B rows from 3 B dependent scalar draws."""
    n_traj = len(pool.lengths)
    draws = []
    for _ in range(B):
        i = rng.integers(n_traj)
        g = _GAPS[rng.integers(pool.n_gaps[i])]
        draws.append((i, g, rng.integers(pool.lengths[i] - g)))
    return np.array(draws, dtype=np.int64).T


def _sample_pairs(pool: _PairPool, cfg: PredictorConfig, rng: np.random.Generator):
    """Frame pairs (f, f+gap) with the actions executed in between: returns
    (E, target, cond), the embedding of frame f, the embedding change to
    frame f+gap and the padded actions, one row per pair.

    Each row draws a trajectory, then a gap it can hold, then a start frame:
    three dependent draws in that order, defined as _scalar_draws' loop of
    scalar rng.integers calls. An accepted scalar draw with a bound n in
    [2, 2**32) consumes exactly one raw 32-bit word, so the whole batch is
    computed from one block of B x 3 words, row by row in stream order, with
    _lemire: the same values, and the generator ends in the same state.
    The block is discarded, the generator restored to its state before it and
    the scalar loop run instead when any draw would differ: a bound of 1
    (numpy consumes no word), a bound of 2**32 or more, or a rejected word.
    """
    B = cfg.batch_size
    saved = rng.bit_generator.state
    words = rng.integers(0, 1 << 32, size=(B, 3), dtype=np.uint32).astype(np.uint64)
    traj, ok_traj = _lemire(words[:, 0], len(pool.lengths))
    k, ok_gap = _lemire(words[:, 1], pool.n_gaps[traj])
    gap = _GAPS[k]
    f, ok_f = _lemire(words[:, 2], pool.lengths[traj] - gap)
    if not (ok_traj & ok_gap & ok_f).all():
        rng.bit_generator.state = saved
        traj, gap, f = _scalar_draws(pool, B, rng)
    rows = pool.offsets[traj] + f
    E = pool.embeddings[rows]
    target = pool.embeddings[rows + gap] - E
    # pad_actions: the first min(gap, N_EO_MAX) actions from f, zeros after
    slots = np.arange(N_EO_MAX)
    window = pool.actions[(rows + traj * N_EO_MAX)[:, None] + slots]
    cond = np.where((slots < gap[:, None])[:, :, None], window, 0.0).reshape(B, COND_DIM)
    return E, target, cond


def train_predictor(trajectories: list[Trajectory], cfg: PredictorConfig,
                    progress=None) -> tuple[Predictor, list[tuple[int, float, float]]]:
    """Train the change predictor; cosine-decayed Adam from cfg.lr.

    Returns the predictor and a (iteration, loss, wall_ms) log. Per-iteration
    RNG streams keyed by the seed make runs reproducible; a non-finite loss
    raises TrainingDivergedError. The trainable weights, drawn in float64,
    train in float32 and are returned cast back to float64, which is exact;
    the frozen encoder and the embedding stay float64. Every frame is
    embedded once, before the first iteration (_prepare_pairs).
    """
    predictor = init_predictor(cfg)
    pool = _prepare_pairs(trajectories, predictor)
    trainable = astype(predictor.trainable(), TRAIN_DTYPE)
    adam = init_adam(trainable, lr=cfg.lr)
    predictor.params.update(trainable)  # the trained tensors are now Adam's flat views
    log: list[tuple[int, float, float]] = []
    t0 = time.perf_counter()
    last_finite: float | None = None
    for i, rng in enumerate(substreams(cfg.seed, STREAM_PREDICTOR, start=0, stop=cfg.iterations)):
        E, target, cond = _sample_pairs(pool, cfg, rng)
        loss, grads = loss_and_grad(predictor, E, cond, target)
        if not math.isfinite(loss):
            raise TrainingDivergedError(i, loss, last_finite)
        last_finite = loss
        # a Python float: a numpy float64 rate would run float32 Adam in float64
        lr = float(cfg.lr * 0.5 * (1.0 + np.cos(np.pi * i / cfg.iterations)))
        adam_step(trainable, grads, adam, lr=lr)
        if i % 50 == 0 or i == cfg.iterations - 1:
            log.append((i, loss, (time.perf_counter() - t0) * 1e3))
            if progress is not None:
                progress(i, loss)
    predictor.params.update(astype(trainable, np.float64))
    return predictor, log


def decision_scores(predictor: Predictor | None, trajectories: list[Trajectory],
                    h: int, n_eo: int, mode: str = EO_ADAPTIVE) -> np.ndarray:
    """Scores at every horizon decision point of the given demonstrations,
    n_eo actions before each non-overlapping horizon boundary, where the
    executor consults the indicator: one score_decisions stack, which gives
    each point the bits of the executor's lone decision there."""
    if not 1 <= n_eo < h:
        raise ValueError("n_eo must satisfy 1 <= n_eo < h")
    points = [(traj, start + h - n_eo, start + h) for traj in trajectories
              for start in range(0, len(traj) - h + 1, h)]
    if not points:
        raise ValueError("demonstrations too short to produce decision points")
    features = np.stack([traj.features[d] for traj, d, _ in points])
    return score_decisions(mode, predictor, features, [traj.actions[d:end] for traj, d, end in points])


def calibrate_threshold(scores: np.ndarray, target_rate: float) -> float:
    """Threshold whose firing rate on the calibration scores hits the target.

    Returns the k-th order statistic with k = floor(rate * n): the realized
    rate fraction(scores <= eta) is then >= target and as close as ties allow.
    target_rate 0 gives -inf (never fire), 1 gives +inf (always fire).
    """
    if not 0.0 <= target_rate <= 1.0:
        raise ValueError("target_rate must lie in [0, 1]")
    s = np.sort(np.asarray(scores, dtype=float).ravel())
    if s.size == 0:
        raise ValueError("no calibration scores")
    k = int(np.floor(target_rate * s.size))
    if k <= 0:
        return float("-inf")
    if k >= s.size:
        return float("inf")
    return float(s[k - 1])


def save_predictor(path, predictor: Predictor, iteration: int | None = None) -> None:
    arrays = [(name, predictor.params[name]) for name in sorted(predictor.params)]
    meta = {"kind": "saliency_predictor", **_FIXED_META, **dataclasses.asdict(predictor.config)}
    if iteration is not None:
        meta["iteration"] = int(iteration)
    write_container(path, tag=TAG_SALIENCY_PREDICTOR, arrays=arrays, config=meta)


def load_predictor(path) -> Predictor:
    """The predictor save_predictor wrote. Each PredictorConfig field is read
    back as its default's type. Metadata that lacks a fixed entry (the shape
    and gaps) or records another value, a missing or ill-typed field, or
    stored arrays not of the fixed shapes raise CheckpointError naming the
    file and the entry."""
    _tag, arrays, meta = read_container(path, expect_tag=TAG_SALIENCY_PREDICTOR)
    for name, want in _FIXED_META.items():
        if meta.get(name) != want:
            got = repr(meta[name]) if name in meta else "missing"
            raise CheckpointError(f"{path}: predictor metadata entry {name!r} is {got}, "
                                  f"this predictor's is {want!r}")
    try:
        cfg = PredictorConfig(**{f.name: type(f.default)(meta[f.name])
                                 for f in dataclasses.fields(PredictorConfig)})
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: missing or ill-typed predictor metadata: {exc!r}") from exc
    check_shapes(path, "predictor", _PARAM_SHAPES, arrays)
    return Predictor(config=cfg, params=dict(arrays))
