"""Training loop for the velocity network on demonstration windows.

Each step samples h-action windows from the demos, seeds the window ledger
with the precomputed action-space state at the window start (state alignment),
perturbs a grid state with the flow marginal's noise, and regresses the
network onto the reference velocity at that point. Disabling state alignment
re-seeds every window ledger at zero, which reproduces the mismatch between
training-time and execution-time state distributions.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from . import flowmatch, normkit, velocitynet
from .core import Trajectory, make_rng, STREAM_MODEL_INIT, STREAM_TRAIN
from .flowmatch import FlowParams
from .normkit import NormStats
from .velocitynet import AdamState, Policy, VelocityModel


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries the iteration and last finite loss."""

    def __init__(self, iteration: int, loss: float, last_finite: float | None):
        self.iteration = iteration
        self.loss = loss
        self.last_finite = last_finite
        super().__init__(
            f"non-finite loss {loss!r} at iteration {iteration}"
            + ("" if last_finite is None else f" (last finite loss {last_finite:.6g})")
        )


@dataclass
class TrainConfig:
    h: int = 10
    k: float = 5.0
    sigma0: float = 0.4
    iterations: int = 20000
    batch_size: int = 64
    lr: float = 1e-3
    seed: int = 0
    use_state_alignment: bool = True
    hidden: tuple[int, ...] = (128, 128)
    lr_schedule: str = "constant"  # or "cosine"
    log_every: int = 100

    def __post_init__(self):
        if self.h < 1 or self.iterations < 0 or self.batch_size < 1:
            raise ValueError("h, iterations, batch_size must be positive")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if self.lr_schedule not in ("constant", "cosine"):
            raise ValueError(f"unknown lr schedule {self.lr_schedule!r}")


@dataclass
class _Prepared:
    """Usable episodes (at least h actions) stacked end to end.

    Episode e's rows start at offsets[e] in obs and actions and at
    offsets[e] + e in states, which carries one more row per episode.
    """

    obs: np.ndarray             # (sum L, obs_dim)
    actions: np.ndarray         # (sum L, D)
    states: np.ndarray          # (sum (L+1), D)
    offsets: np.ndarray         # first row of each episode in obs/actions
    n_windows: np.ndarray       # windows per episode


def _prepare(trajectories: list[Trajectory], h: int) -> _Prepared:
    usable = [t for t in trajectories if len(t) >= h]
    if not usable:
        raise ValueError(f"no episode has at least h={h} actions")
    lengths = np.array([len(t) for t in usable])
    return _Prepared(
        obs=np.stack([o.features for t in usable for o in t.observations]),
        actions=np.concatenate([t.actions for t in usable]),
        states=np.concatenate([t.action_states for t in usable]),
        offsets=np.concatenate([[0], np.cumsum(lengths)[:-1]]),
        n_windows=lengths - h + 1,
    )


def _sample_batch(prep: _Prepared, cfg: TrainConfig, rng: np.random.Generator):
    """B windows: an episode each, then a start within it (one draw per row,
    in row order); returns (OBS, ALPHA, XI)."""
    B, h = cfg.batch_size, cfg.h
    eps = rng.integers(len(prep.n_windows), size=B)
    s = rng.integers(prep.n_windows[eps])
    rows = prep.offsets[eps] + s
    OBS = prep.obs[rows]
    if cfg.use_state_alignment:
        ALPHA = prep.states[rows + eps]
    else:
        ALPHA = np.zeros((B, prep.states.shape[1]))
    XI = prep.actions[rows[:, None] + np.arange(h)]
    return OBS, ALPHA, XI


def training_step(model: VelocityModel, adam: AdamState, stats: NormStats, cfg: TrainConfig,
                  OBS: np.ndarray, ALPHA: np.ndarray, XI: np.ndarray,
                  rng: np.random.Generator, *, flow: FlowParams, iteration: int = 0,
                  lr: float | None = None, last_finite: float | None = None) -> float:
    """One gradient step on a sampled batch; returns the batch loss.

    flow holds cfg's k, sigma0 and h, built once by the caller. Raises
    TrainingDivergedError instead of silently carrying non-finite losses
    forward.
    """
    B, h = OBS.shape[0], flow.h
    a0 = normkit.normalize(ALPHA, stats)
    steps = normkit.normalize(XI, stats)

    # window ledger, summed left to right (add.accumulate); W[:, 0] is alpha exactly
    W = np.empty((B, h + 1, ALPHA.shape[1]))
    W[:, 0] = a0
    W[:, 1:] = steps
    np.cumsum(W, axis=1, out=W)

    t = rng.random(B)                      # U[0, 1), so T <= h-1 always
    Tn = np.floor(t * h).astype(np.int64)
    t_node = Tn / float(h)
    mean = W[np.arange(B), Tn]
    x = flowmatch.marginal_sample(mean, flow, t_node, rng)
    xi_dot = flowmatch.discrete_xi_dot(W, Tn, h)
    target = flowmatch.target_velocity(mean, xi_dot, x, flow.k)

    loss, grads = velocitynet.loss_and_grad(model, x, t_node, OBS, target)
    if not math.isfinite(loss):
        raise TrainingDivergedError(iteration, loss, last_finite)
    velocitynet.adam_step(model.params, grads, adam, lr=lr)
    return loss


def _lr_at(cfg: TrainConfig, iteration: int) -> float:
    if cfg.lr_schedule == "cosine":
        frac = iteration / max(1, cfg.iterations)
        return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * min(1.0, frac)))
    return cfg.lr


def _check_resume(policy: Policy, cfg: TrainConfig) -> None:
    fields = (("h", policy.flow.h, cfg.h), ("k", policy.flow.k, cfg.k),
              ("sigma0", policy.flow.sigma0, cfg.sigma0),
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
    fixed seed: every iteration draws from its own counter-derived stream, so
    resuming from a checkpoint continues the identical sequence. Raises
    ValueError when cfg's h, k, sigma0 or hidden differ from the resumed
    policy's, which the returned policy would otherwise keep.
    """
    prep = _prepare(trajectories, cfg.h)
    fp = FlowParams(k=cfg.k, sigma0=cfg.sigma0, h=cfg.h)
    if resume is None:
        stats = normkit.fit_stats(trajectories)
        obs_dim = prep.obs.shape[1]
        action_dim = prep.actions.shape[1]
        model = velocitynet.init_velocity_model(
            action_dim, obs_dim, cfg.hidden, rng=make_rng(cfg.seed, STREAM_MODEL_INIT))
        adam = velocitynet.init_adam(model.params, cfg.lr)
        start = 0
        policy = Policy(model=model, stats=stats, flow=fp, alpha0_convention=alpha0_convention)
    else:
        # a resumed run keeps the normalization it was trained and is saved with
        policy, adam, start = resume
        _check_resume(policy, cfg)
        model, stats = policy.model, policy.stats

    log: list[tuple[int, float, float]] = []
    t0 = time.perf_counter()
    last_finite: float | None = None
    for i in range(start, cfg.iterations):
        rng = make_rng(cfg.seed, STREAM_TRAIN, i)
        OBS, ALPHA, XI = _sample_batch(prep, cfg, rng)
        loss = training_step(model, adam, stats, cfg, OBS, ALPHA, XI, rng, flow=fp,
                             iteration=i, lr=_lr_at(cfg, i), last_finite=last_finite)
        last_finite = loss
        if i % cfg.log_every == 0 or i == cfg.iterations - 1:
            wall_ms = (time.perf_counter() - t0) * 1000.0
            log.append((i, loss, wall_ms))
            if progress is not None:
                progress(i, loss, wall_ms)
    return policy, adam, log


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
