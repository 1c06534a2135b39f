"""Additivity-preserving normalization shared by actions and action states.

The running action state is a sum of actions, so its normalizer must commute
with addition: normalize(x) + normalize(a) == normalize(x + a) up to float
rounding. Plain division by a shared per-dimension scale has that property.
The conventional min-max map to [-1, 1] (kept here as normalize_legacy) does
not, because its additive offset is applied once per normalized term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatchError, Trajectory


@dataclass(frozen=True)
class NormStats:
    """Per-dimension extrema and scale, fitted over actions and states jointly.

    scale[d] = q_max[d] - q_min[d], replaced by 1.0 where the range is
    degenerate so normalization never divides by zero.
    """

    q_min: np.ndarray
    q_max: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        for name in ("q_min", "q_max", "scale"):
            v = getattr(self, name)
            if v.ndim != 1 or v.shape != self.q_min.shape:
                raise DimensionMismatchError(f"{name} must be 1-D and consistent")
        if not np.all(self.q_max >= self.q_min):
            raise ValueError("q_max < q_min")
        if not np.all(self.scale > 0):
            raise ValueError("scale must be positive")

    @property
    def dim(self) -> int:
        return self.q_min.shape[0]


def fit_stats(trajectories: list[Trajectory]) -> NormStats:
    """Fit extrema over the union of all actions and all action states.

    A single shared scale is what keeps the state ledger additive: actions
    and their running sums are divided by the same number.
    """
    if not trajectories:
        raise ValueError("cannot fit statistics on an empty dataset")
    blocks = []
    for traj in trajectories:
        blocks.append(traj.actions)
        blocks.append(traj.action_states)
    stacked = np.concatenate(blocks, axis=0)
    q_min = stacked.min(axis=0)
    q_max = stacked.max(axis=0)
    rng = q_max - q_min
    scale = np.where(rng > 0, rng, 1.0)
    return NormStats(q_min=q_min, q_max=q_max, scale=scale)


_F64 = np.dtype(np.float64)


def _check_dim(v: np.ndarray, stats: NormStats) -> np.ndarray:
    # a float64 array, as each generated action is, needs no conversion
    if type(v) is not np.ndarray or v.dtype is not _F64:
        v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != stats.scale.shape[0]:
        raise DimensionMismatchError(f"trailing dim {v.shape[-1]} != stats dim {stats.dim}")
    return v


def normalize(v, stats: NormStats) -> np.ndarray:
    """Pure rescale v / scale. Additive: commutes with vector addition."""
    return _check_dim(v, stats) / stats.scale


def denormalize(v, stats: NormStats) -> np.ndarray:
    return _check_dim(v, stats) * stats.scale


def normalize_legacy(v, stats: NormStats) -> np.ndarray:
    """Min-max map to [-1, 1]. Kept only to demonstrate broken additivity.

    The per-term offset means sums of normalized values drift away from the
    normalized sum by one offset per term.
    """
    return (_check_dim(v, stats) - stats.q_min) / stats.scale * 2.0 - 1.0
