"""Shared domain types, deterministic RNG streams, and the trajectory dataset format.

Action vectors and action-space states are plain float64 numpy arrays of a
fixed dimension (2 for the desk environments). The action-space state is the
running sum of commanded actions; it lives in the same coordinate frame as
actions, which is what makes shared normalization statistics meaningful.

A dataset file is one JSON header line and one JSON record per episode.
Saving and loading check each episode by one rule (_check_record), so what
save_dataset writes load_dataset reads; a malformed record (a missing field,
a row of the wrong length, a non-finite value, broken prefix sums) raises
DatasetError naming the episode, and on load the file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

ACTION_DIM = 2
OBS_DIM = 7
DATASET_FORMAT = "streampolicy-trajectories"
DATASET_VERSION = 1
# how an episode seeds its action-state ledger: at zero (a pure action
# accumulator) or at the initial position (a ledger that tracks position)
ALPHA0_ZERO = "zero"
ALPHA0_INITIAL_POSITION = "initial_position"


class DimensionMismatchError(ValueError):
    """A vector or matrix had the wrong trailing dimension."""


class DatasetError(ValueError):
    """Dataset file is malformed or violates a structural invariant."""


def as_vector(values, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float64 vector, checking dimension if given."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains non-finite entries")
    return v


class Observation(NamedTuple):
    """One frame of a Trajectory as its observations view gives it: raw
    features (position, goal, latch flag, goal offset), the frame's id
    (strictly increasing within an episode) and its capture time (the step
    index). Never mutated."""

    features: np.ndarray
    frame_id: int
    capture_time: float


@dataclass
class Trajectory:
    """One episode: L frames as features (L, obs_dim), frame_ids (L,) int and
    capture_times (L,) float, one per action; actions (L, D) and states (L+1, D).

    action_states[0] is the episode's alpha_0 and action_states[n] is the
    exact left-to-right running sum of actions 0..n-1 on top of it.
    """

    features: np.ndarray
    frame_ids: np.ndarray
    capture_times: np.ndarray
    actions: np.ndarray
    action_states: np.ndarray

    def __len__(self) -> int:
        return self.actions.shape[0]

    @property
    def observations(self) -> list[Observation]:
        """The frames as Observation rows, built on each access: a read-only view."""
        return list(map(Observation._make, zip(self.features, self.frame_ids.tolist(),
                                               self.capture_times.tolist())))

    def validate(self) -> None:
        L, D = self.actions.shape
        if (len(self.features), *self.frame_ids.shape, *self.capture_times.shape) != (L, L, L):
            raise DatasetError(f"{len(self.features)} frames, frame ids {self.frame_ids.shape} "
                               f"and capture times {self.capture_times.shape} for {L} actions")
        if self.frame_ids.dtype.kind not in "iu" or self.capture_times.dtype.kind != "f":
            raise DatasetError("frame ids must be integers and capture times floats")
        if self.action_states.shape != (L + 1, D):
            raise DatasetError(f"action_states shape {self.action_states.shape}, want {(L + 1, D)}")
        expect = cumulative_states(self.actions, self.action_states[0])
        # exact prefix-sum identity, not approximate: the state ledger is
        # defined as this summation order
        if not np.array_equal(expect, self.action_states):
            raise DatasetError("action_states is not the exact prefix sum of actions")
        if (np.diff(self.frame_ids) <= 0).any():
            raise DatasetError("frame_id not strictly increasing")


def cumulative_states(actions: np.ndarray, alpha0: np.ndarray) -> np.ndarray:
    """Prefix sums of actions starting at alpha0, summed left to right.

    Returns an (L+1, D) array S with S[0] = alpha0 and
    S[n] = S[n-1] + actions[n-1] computed in exactly that order, so the
    identity holds bitwise in float64.
    """
    actions = np.asarray(actions, dtype=np.float64)
    if actions.ndim != 2:
        raise DimensionMismatchError(f"actions must be (L, D), got {actions.shape}")
    alpha0 = as_vector(alpha0, actions.shape[1])
    out = np.empty((actions.shape[0] + 1, actions.shape[1]), dtype=np.float64)
    out[0] = alpha0
    out[1:] = actions
    # accumulate is the sequential sum along the axis, row by row, not a
    # pairwise reduction: out[n + 1] = out[n] + actions[n]
    return np.add.accumulate(out, axis=0, out=out)


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator (Philox) for a named substream of a seed.

    Identical (seed, stream) always yields an identical sequence; distinct
    stream tuples are statistically independent. Substreams let training
    iterations, episodes, and environments draw reproducibly without
    sharing mutable generator state.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


# stream ids used across the package; values are arbitrary but frozen
STREAM_DEMO = 1
STREAM_INIT = 2
STREAM_TRAIN = 3
STREAM_EVAL = 4
STREAM_PREDICTOR = 5
STREAM_INDICATOR = 6
STREAM_MODEL_INIT = 7


def _record_to_json(traj: Trajectory) -> dict:
    # ndarray.tolist() yields the Python ints and floats int(x) and float(x) give
    return {
        "obs": [{"f": f, "id": i, "t": t} for f, i, t in
                zip(traj.features.tolist(), traj.frame_ids.tolist(), traj.capture_times.tolist())],
        "act": traj.actions.tolist(),
        "st": traj.action_states.tolist(),
    }


def _record_from_json(rec: dict, dim: int, obs_dim: int) -> Trajectory:
    """One episode record as a Trajectory, not yet checked. Missing fields
    and rows that do not parse raise KeyError, TypeError or ValueError."""
    obs, act, st = rec["obs"], rec["act"], rec["st"]
    return Trajectory(
        features=np.array([o["f"] for o in obs], dtype=np.float64) if obs else np.empty((0, obs_dim)),
        frame_ids=np.array([o["id"] for o in obs], dtype=np.int64),
        capture_times=np.array([o["t"] for o in obs], dtype=np.float64),
        actions=np.asarray(act, dtype=np.float64).reshape(len(act), dim),
        action_states=np.asarray(st, dtype=np.float64).reshape(len(st), dim),
    )


def _check_record(traj: Trajectory, dim: int, obs_dim: int) -> None:
    """The one rule for a stored episode, on save and load alike: an (L, obs_dim)
    array of finite features, actions of dim, Trajectory.validate (DatasetError)."""
    try:
        features = np.asarray(traj.features, dtype=np.float64)
    except ValueError:  # rows of unequal shapes, or not numbers
        features = None
    if features is None or features.ndim != 2 or features.shape[1] != obs_dim:
        bad = next((np.shape(f) for f in traj.features if np.shape(f) != (obs_dim,)), None)
        raise DatasetError("non-numeric features" if bad is None
                           else f"feature rows of shape {bad}, want ({obs_dim},)")
    for name, values in (("features", features), ("actions", traj.actions),
                         ("action_states", traj.action_states)):
        if not np.isfinite(values).all():
            raise DatasetError(f"non-finite {name}")
    if traj.actions.ndim != 2 or traj.actions.shape[1] != dim:
        raise DatasetError(f"actions of shape {traj.actions.shape}, want (L, {dim})")
    traj.validate()


def save_dataset(path, trajectories: list[Trajectory], *, dim: int, env_meta: dict, seed: int) -> None:
    """Write trajectories as a line-delimited JSON file with a header record.

    Floats round-trip exactly (shortest-repr encoding), so saving and
    reloading reproduces arrays bitwise and rewriting an unchanged dataset
    produces a byte-identical file. An episode that breaks load_dataset's rule
    (_check_record, frames of env_meta's obs_dim or OBS_DIM) raises DatasetError
    naming it, and nothing is written."""
    obs_dim = int(env_meta.get("obs_dim", OBS_DIM))
    for i, traj in enumerate(trajectories):
        try:
            _check_record(traj, dim, obs_dim)
        except DatasetError as exc:
            raise DatasetError(f"episode {i}: {exc}") from exc
    header = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "dim": int(dim),
        "episodes": len(trajectories),
        "env": env_meta,
        "seed": int(seed),
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for traj in trajectories:
        lines.append(json.dumps(_record_to_json(traj), sort_keys=True, separators=(",", ":")))
    Path(path).write_text("\n".join(lines) + "\n")


def load_dataset(path) -> tuple[list[Trajectory], dict]:
    """Read a dataset file, validating format, version, and every record's
    fields, shapes, finiteness and prefix sums (DatasetError otherwise)."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DatasetError(f"{path}: empty dataset file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != DATASET_FORMAT:
        raise DatasetError(f"{path}: not a trajectory dataset")
    if header.get("version") != DATASET_VERSION:
        raise DatasetError(f"{path}: unsupported version {header.get('version')!r}")
    try:
        dim = int(header["dim"])
        episodes = int(header["episodes"])
        obs_dim = int(header.get("env", {}).get("obs_dim", OBS_DIM))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DatasetError(f"{path}: malformed header: {exc!r}") from exc
    if len(lines) - 1 != episodes:
        raise DatasetError(f"{path}: header claims {episodes} episodes, file has {len(lines) - 1}")
    out = []
    for i, ln in enumerate(lines[1:]):
        try:
            rec = json.loads(ln)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: bad episode record {i}: {exc}") from exc
        try:
            traj = _record_from_json(rec, dim, obs_dim)
            _check_record(traj, dim, obs_dim)
        except DatasetError as exc:
            raise DatasetError(f"{path}: episode {i}: {exc}") from exc
        except KeyError as exc:
            raise DatasetError(f"{path}: episode {i}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise DatasetError(f"{path}: episode {i}: malformed record: {exc}") from exc
        out.append(traj)
    return out, header
