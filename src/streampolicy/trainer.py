"""Training loop for the velocity network on demonstration windows.

Each step samples h-action windows from the demos, perturbs a point of each
window's ledger with the flow marginal's noise, and regresses the network
onto the reference velocity at that point. A window's ledger is its
normalized state at the window start (state alignment) followed by the
running sums of its normalized actions. Disabling state alignment re-seeds
every window ledger at zero, which reproduces the mismatch between
training-time and execution-time state distributions.

What does not depend on the iteration is built once per run, after the
normalization stats are fixed (_prepare): every training window's ledger,
an (n_windows, h+1, D) float64 table of (h+1) * D * 8 bytes per window
(176 bytes at h=10, D=2; about 3.7 MB over the 600 controller demos), and
its observation row. Each iteration gathers B windows from it and reads the
time features from Policy.time_table(), the acting table, built with h
time_features calls.

Iteration i draws its batch, times and noise from make_rng(seed,
STREAM_TRAIN, i)'s stream. The loop takes those generators from
core.substreams, which hashes a block of iterations' Philox keys in one
numpy pass and re-keys one generator per iteration, the same words at
about 1 µs an iteration instead of make_rng's 15-28 µs; a resumed run starts
the streams at its start iteration.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import flowmatch, normkit, velocitynet
from .core import (Trajectory, TrainingDivergedError, make_rng, substreams, STREAM_MODEL_INIT,
                   STREAM_TRAIN)
from .flowmatch import FlowParams
from .normkit import NormStats
from .velocitynet import TRAIN_DTYPE, AdamState, Policy, VelocityModel


@dataclass
class TrainConfig:
    h: int = 10
    iterations: int = 20000
    batch_size: int = 64
    lr: float = 1e-3
    seed: int = 0
    use_state_alignment: bool = True
    hidden: tuple[int, ...] = (128, 128)
    lr_schedule: str = "constant"  # or "cosine"
    log_every: int = 100

    def __post_init__(self):
        for name, least in (("h", 1), ("iterations", 0), ("batch_size", 1), ("log_every", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if any(w < 1 for w in self.hidden):
            raise ValueError(f"hidden widths must be at least 1, got {tuple(self.hidden)}")
        if self.lr_schedule not in ("constant", "cosine"):
            raise ValueError(f"unknown lr schedule {self.lr_schedule!r}")


@dataclass
class _Prepared:
    """Every training window of the usable episodes (at least h actions),
    episode by episode in start order: episode e's windows are rows
    first[e] to first[e] + n_windows[e] - 1 of obs and ledgers.

    A window's ledger row 0 is its normalized start state (zero without
    state alignment) and row j its normalized state after j actions: the
    left-to-right cumulative sum (add.accumulate) of the start state and
    the window's normalized actions.
    """

    obs: np.ndarray             # (total windows, obs_dim), the frame at each window start
    ledgers: np.ndarray         # (total windows, h+1, D) float64
    first: np.ndarray           # first window of each episode
    n_windows: np.ndarray       # windows per episode


def _prepare(trajectories: list[Trajectory], cfg: TrainConfig, stats: NormStats) -> _Prepared:
    h = cfg.h
    usable = [t for t in trajectories if len(t) >= h]
    if not usable:
        raise ValueError(f"no episode has at least h={h} actions")
    lengths = np.array([len(t) for t in usable])
    n_windows = lengths - h + 1
    first = np.concatenate([[0], np.cumsum(n_windows)[:-1]])
    # window s of episode e starts s rows into e's actions; states carry one
    # more row per episode, so its start state is e rows further on
    eps = np.repeat(np.arange(len(usable)), n_windows)
    s = np.arange(n_windows.sum()) - first[eps]
    rows = np.concatenate([[0], np.cumsum(lengths)[:-1]])[eps] + s
    actions = np.concatenate([t.actions for t in usable])
    ledgers = np.empty((len(rows), h + 1, actions.shape[1]))
    if cfg.use_state_alignment:
        states = np.concatenate([t.action_states for t in usable])
        ledgers[:, 0] = normkit.normalize(states[rows + eps], stats)
    else:
        ledgers[:, 0] = 0.0
    ledgers[:, 1:] = normkit.normalize(actions[rows[:, None] + np.arange(h)], stats)
    np.cumsum(ledgers, axis=1, out=ledgers)
    return _Prepared(obs=np.concatenate([t.features for t in usable])[rows], ledgers=ledgers,
                     first=first, n_windows=n_windows)


def _sample_batch(prep: _Prepared, cfg: TrainConfig, rng: np.random.Generator):
    """B windows: an episode each, then a start within it (one draw per row,
    in row order); returns their (OBS, ledgers), (B, obs_dim) and (B, h+1, D)."""
    eps = rng.integers(len(prep.n_windows), size=cfg.batch_size)
    w = prep.first[eps] + rng.integers(prep.n_windows[eps])
    return prep.obs[w], prep.ledgers[w]


def training_step(model: VelocityModel, adam: AdamState, OBS: np.ndarray, W: np.ndarray,
                  rng: np.random.Generator, *, flow: FlowParams, times: np.ndarray,
                  iteration: int = 0, lr: float | None = None,
                  last_finite: float | None = None) -> float:
    """One gradient step on sampled windows' observations and ledgers W
    (B, h+1, D); returns the batch loss.

    flow is FlowParams(h=cfg.h), built once by the caller, and
    times is Policy.time_table(): row T holds time_features(T / h). Raises
    TrainingDivergedError instead of silently carrying non-finite losses
    forward.
    """
    B, h = OBS.shape[0], flow.h
    t = rng.random(B)                      # U[0, 1), so T <= h-1 always
    Tn = np.floor(t * h).astype(np.int64)
    t_node = Tn / float(h)
    mean = W[np.arange(B), Tn]
    x = flowmatch.marginal_sample(mean, flow, t_node, rng)
    xi_dot = flowmatch.discrete_xi_dot(W, Tn, h)
    target = flowmatch.target_velocity(mean, xi_dot, x, flow.k)

    loss, grads = velocitynet.loss_and_grad(model, x, times[Tn], OBS, target)
    if not math.isfinite(loss):
        raise TrainingDivergedError(iteration, loss, last_finite)
    velocitynet.adam_step(model.params, grads, adam, lr=lr)
    return loss


def _lr_at(cfg: TrainConfig, iteration: int) -> float:
    if cfg.lr_schedule == "cosine":
        frac = iteration / max(1, cfg.iterations)
        return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * min(1.0, frac)))
    return cfg.lr


def _check_resume(policy: Policy, cfg: TrainConfig, flow: FlowParams) -> None:
    fields = (("h", policy.flow.h, flow.h), ("k", policy.flow.k, flow.k),
              ("sigma0", policy.flow.sigma0, flow.sigma0),
              ("hidden", tuple(policy.model.hidden), tuple(cfg.hidden)))
    differ = [f"{name} (checkpoint {have!r}, config {want!r})"
              for name, have, want in fields if have != want]
    if differ:
        raise ValueError("cannot resume: the config differs from the checkpoint in "
                         + ", ".join(differ))


def train(trajectories: list[Trajectory], cfg: TrainConfig, *, alpha0_convention: str,
          resume: tuple[Policy, AdamState, int] | None = None, progress=None):
    """Train a policy; returns (Policy, AdamState, log rows).

    Log rows are (iteration, loss, wall_ms). Training is deterministic for a
    fixed seed: every iteration draws from its own counter-derived stream
    (make_rng(cfg.seed, STREAM_TRAIN, i), taken from substreams), so
    resuming from a checkpoint continues the identical sequence. Raises
    ValueError when cfg's h or hidden, or FlowParams' k or sigma0, differ
    from the resumed policy's, which the returned policy would otherwise keep.

    The network, its gradients and Adam run in float32; the window sampling
    and flow math stay float64. The initial weights are drawn in float64 and
    rounded to float32 once, and the returned policy holds the trained
    float32 weights cast to float64, which is exact, so it acts in float64.
    A resumed run casts the weights and Adam's moments to float32: exact for
    a checkpoint this code wrote, while a float64-trained checkpoint resumes
    from its weights and moments rounded to float32, once.
    """
    fp = FlowParams(h=cfg.h)
    if resume is None:
        stats = normkit.fit_stats(trajectories)  # raises on an empty list
        dims = (trajectories[0].actions.shape[1], trajectories[0].features.shape[1])
        drawn = velocitynet.init_velocity_model(*dims, cfg.hidden,
                                                rng=make_rng(cfg.seed, STREAM_MODEL_INIT))
        policy = Policy(model=drawn, stats=stats, flow=fp, alpha0_convention=alpha0_convention)
        start = 0
    else:
        # a resumed run keeps the normalization it was trained and is saved with
        policy, adam, start = resume
        _check_resume(policy, cfg, fp)
    prep = _prepare(trajectories, cfg, policy.stats)
    times = policy.time_table()
    model = replace(policy.model, params=velocitynet.astype(policy.model.params, TRAIN_DTYPE))
    if resume is None:
        adam = velocitynet.init_adam(model.params, cfg.lr)
    else:
        adam.m, adam.v = velocitynet.astype(adam.m, TRAIN_DTYPE), velocitynet.astype(adam.v, TRAIN_DTYPE)

    log: list[tuple[int, float, float]] = []
    t0 = time.perf_counter()
    last_finite: float | None = None
    streams = substreams(cfg.seed, STREAM_TRAIN, start=start, stop=cfg.iterations)
    for i, rng in enumerate(streams, start):
        OBS, W = _sample_batch(prep, cfg, rng)
        loss = training_step(model, adam, OBS, W, rng, flow=fp, times=times, iteration=i,
                             lr=_lr_at(cfg, i), last_finite=last_finite)
        last_finite = loss
        if i % cfg.log_every == 0 or i == cfg.iterations - 1:
            wall_ms = (time.perf_counter() - t0) * 1000.0
            log.append((i, loss, wall_ms))
            if progress is not None:
                progress(i, loss, wall_ms)
    trained = replace(model, params=velocitynet.astype(model.params, np.float64))
    return replace(policy, model=trained), adam, log


def write_train_log(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write("iteration,loss,wall_ms\n")
        for it, loss, ms in rows:
            fh.write(f"{it},{loss!r},{ms:.3f}\n")


def train_log_digest(path) -> str:
    """sha256 over the iteration and loss columns of a log write_train_log
    wrote, header included, one "iteration,loss" line each: two runs that
    log the same losses give the same digest whatever their wall_ms."""
    digest = hashlib.sha256()
    with open(path) as fh:
        for line in fh:
            digest.update((",".join(line.rstrip("\n").split(",")[:2]) + "\n").encode())
    return digest.hexdigest()
