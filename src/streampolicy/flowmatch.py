"""State-based conditional flow matching over action-space states.

The reference flow for a demonstration path xi is
    v_xi(x, t) = xi_dot(t) - k * (x - xi(t))
whose marginal at time t is Gaussian with mean xi(t) and variance
sigma0^2 * exp(-2 k t): deviations from the path contract at rate k while the
mean rides along xi. Discretizing t over h per-horizon steps turns integration
into one action per step, a = v / h.

All functions here operate in normalized units (see normkit); callers
denormalize extracted actions before handing them to an environment. This
module is the one place the flow math lives: trainer.training_step samples
and regresses through it, and Policy.action extracts its actions with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FlowParams:
    """Contraction rate k, initial noise scale sigma0, actions per horizon h."""

    k: float = 5.0
    sigma0: float = 0.4
    h: int = 10

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError("k must be positive")
        if not self.sigma0 > 0:
            raise ValueError("sigma0 must be positive")
        if self.h < 1:
            raise ValueError("h must be at least 1")


def target_velocity(xi_t: np.ndarray, xi_dot_t: np.ndarray, x: np.ndarray, k: float) -> np.ndarray:
    """Reference velocity xi_dot - k (x - xi) at one time point.

    Broadcasts over leading axes so a batch of x against a batch of path
    points works directly.
    """
    return xi_dot_t - k * (x - xi_t)


def discrete_xi_dot(states: np.ndarray, T: np.ndarray, h: int) -> np.ndarray:
    """Forward-difference path velocity at grid node T[b] of each window b:
    (states[b, T+1] - states[b, T]) * h.

    states holds B window ledgers of shape (B, h+1, D), where states[b, 0] is
    the action-space state at the window start. The factor h converts a
    per-step difference into a per-unit-time velocity on the [0, 1] horizon
    clock.
    """
    T = np.asarray(T)
    if T.min() < 0 or T.max() >= h:
        raise ValueError(f"T outside [0, {h})")
    if states.shape[1] < h + 1:
        raise ValueError("window has fewer than h+1 states")
    rows = np.arange(states.shape[0])
    return (states[rows, T + 1] - states[rows, T]) * float(h)


def marginal_variance(fp: FlowParams, t: float) -> float:
    """Variance of the flow marginal at time t: sigma0^2 exp(-2 k t)."""
    return fp.sigma0 * fp.sigma0 * math.exp(-2.0 * fp.k * t)


def marginal_sample(mean: np.ndarray, fp: FlowParams, t, rng: np.random.Generator) -> np.ndarray:
    """Draw x_t ~ N(mean, sigma0^2 exp(-2 k t) I).

    t is one time for all of mean, or one per row of mean (shape (B,) for a
    (B, D) mean).
    """
    t = np.asarray(t, dtype=np.float64)
    if not (t.min() >= 0.0 and t.max() <= 1.0):  # also rejects NaN
        raise ValueError(f"t={t} outside [0, 1]")
    std = fp.sigma0 * np.exp(-fp.k * t)
    std = std.reshape(std.shape + (1,) * (np.ndim(mean) - std.ndim))
    return mean + std * rng.standard_normal(np.shape(mean))


def cfm_residual(v_pred: np.ndarray, v_target: np.ndarray) -> float:
    """Squared L2 norm of the velocity error for one sample."""
    d = np.asarray(v_pred, dtype=np.float64) - np.asarray(v_target, dtype=np.float64)
    return float(np.dot(d.ravel(), d.ravel()))


def euler_integrate(v_fn, x0: np.ndarray, h: int, n_steps: int) -> np.ndarray:
    """Explicit Euler rollout with step 1/h: returns states x_0 .. x_{n_steps}.

    x_{T+1} = x_T + v_fn(x_T, T/h) / h, so the increments telescope:
    x_T - x_0 equals the exact left-to-right sum of extracted actions.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    out = np.empty((n_steps + 1,) + x0.shape, dtype=np.float64)
    out[0] = x0
    for T in range(n_steps):
        v = np.asarray(v_fn(out[T], T / float(h)), dtype=np.float64)
        # divide rather than multiply by 1/h: must round identically to
        # extract_action or the telescoping identity breaks at the ulp level
        out[T + 1] = out[T] + extract_action(v, h)
    return out


def extract_action(v: np.ndarray, h: int) -> np.ndarray:
    """One integration step is one action: a = v / h (normalized units)."""
    if h < 1:
        raise ValueError("h must be at least 1")
    return np.asarray(v, dtype=np.float64) / float(h)
