"""Shared domain types, deterministic RNG streams, the binary container, and
the trajectory dataset format.

Action vectors and action-space states are plain float64 numpy arrays of a
fixed dimension (2 for the desk environments). The action-space state is the
running sum of commanded actions; it lives in the same coordinate frame as
actions, which is what makes shared normalization statistics meaningful.

One checksummed float64 container (write_container/read_container) holds
datasets, policy checkpoints and predictor checkpoints, each under its own
type tag. A dataset file (version 2) is the header as the container's config
and the episodes concatenated: lengths (E,), features (N, obs_dim), frame_ids
(N,), capture_times (N,), actions (N, dim) and action_states (N+E, dim).
Saving and loading check each episode by one rule (_check_record), so what
save_dataset writes load_dataset reads. A broken file raises DatasetError
naming the file, and a broken episode names the episode too.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

ACTION_DIM = 2
OBS_DIM = 7
DATASET_FORMAT = "streampolicy-trajectories"
DATASET_VERSION = 2
# how an episode seeds its action-state ledger: at zero (a pure action
# accumulator) or at the initial position (a ledger that tracks position)
ALPHA0_ZERO = "zero"
ALPHA0_INITIAL_POSITION = "initial_position"


class DimensionMismatchError(ValueError):
    """A vector or matrix had the wrong trailing dimension."""


class DatasetError(ValueError):
    """Dataset file is malformed or violates a structural invariant."""
    noun = "dataset"


class CheckpointError(ValueError):
    """Checkpoint file is unreadable, truncated, or corrupt."""
    noun = "checkpoint"


class TrainingDivergedError(RuntimeError):
    """A trainer's loss became non-finite; carries the iteration and last finite loss."""

    def __init__(self, iteration: int, loss: float, last_finite: float | None):
        self.iteration = iteration
        self.loss = loss
        self.last_finite = last_finite
        tail = "" if last_finite is None else f" (last finite loss {last_finite:.6g})"
        super().__init__(f"non-finite loss {loss!r} at iteration {iteration}{tail}")


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


def _check_record(traj: Trajectory, dim: int, obs_dim: int) -> None:
    """The one rule for a stored episode, on save and load alike: an (L, obs_dim)
    array of finite features, actions of dim, Trajectory.validate, and frame
    ids that float64 holds exactly (DatasetError)."""
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
    if ((traj.frame_ids < -2**53) | (traj.frame_ids > 2**53)).any():
        raise DatasetError("frame ids beyond 2**53 in magnitude, which float64 does not hold exactly")


# ---------------------------------------------------------------------------
# binary container: trajectory datasets, policy and predictor checkpoints
#
# layout: magic(8) | version u32 | type tag u32 | meta_len u32 | meta JSON |
#         float64-LE array blob | crc32(blob) u32
# meta lists array names and shapes in blob order plus a free-form config
# dict. All scalars in config survive JSON round-trips exactly (shortest-repr
# floats), so reloading reproduces values bitwise.
# ---------------------------------------------------------------------------

CONTAINER_MAGIC = b"SPCONT01"
CONTAINER_VERSION = 1
TAG_VELOCITY_POLICY = 1
TAG_SALIENCY_PREDICTOR = 2
TAG_TRAJECTORY_DATASET = 3
CONTAINER_KINDS = {TAG_VELOCITY_POLICY: "velocity policy",
                   TAG_SALIENCY_PREDICTOR: "saliency predictor",
                   TAG_TRAJECTORY_DATASET: "trajectory dataset"}


def check_shapes(path, kind: str, want: dict[str, tuple[int, ...]],
                 arrays: dict[str, np.ndarray], error: type[ValueError] = CheckpointError) -> None:
    """Raise error naming path unless arrays holds exactly the arrays want
    names, each of the shape want gives it: the sizes a container's metadata
    states must be the sizes of its stored arrays. Checks in want's order,
    then any array want does not name."""
    for name in [*want, *sorted(arrays.keys() - want.keys())]:
        got = arrays[name].shape if name in arrays else None
        if got != want.get(name):
            raise error(f"{path}: {kind} metadata does not fit the stored arrays: "
                        f"{name} is stored as {got}, the metadata gives {want.get(name)}")


def write_container(path, *, tag: int, arrays: list[tuple[str, np.ndarray]], config: dict) -> None:
    meta = {
        "arrays": [[name, list(a.shape)] for name, a in arrays],
        "config": config,
    }
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in arrays)
    with open(path, "wb") as fh:
        fh.write(CONTAINER_MAGIC)
        fh.write(struct.pack("<II", CONTAINER_VERSION, tag))
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(blob)
        fh.write(struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF))


def read_container(path, *, expect_tag: int | None = None, error: type[ValueError] = CheckpointError):
    """Returns (tag, arrays dict, config dict). Raises error, whose noun names
    the kind of file in its messages, when path is unreadable, truncated,
    corrupt or of a tag other than expect_tag."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise error(f"{path}: cannot read {error.noun}: {exc.strerror}") from exc
    if len(data) < 20 or data[:8] != CONTAINER_MAGIC:
        raise error(f"{path}: not a {error.noun} container")
    version, tag = struct.unpack_from("<II", data, 8)
    if version != CONTAINER_VERSION:
        raise error(f"{path}: container version {version}, supported {CONTAINER_VERSION}")
    (meta_len,) = struct.unpack_from("<I", data, 16)
    meta_end = 20 + meta_len
    if meta_end > len(data):
        raise error(f"{path}: truncated metadata")
    try:
        meta = json.loads(data[20:meta_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{path}: corrupt metadata: {exc}") from exc
    # the checksum covers only the blob, so the metadata is checked here
    if not (isinstance(meta, dict) and isinstance(meta.get("arrays"), list)
            and isinstance(meta.get("config"), dict)):
        raise error(f"{path}: metadata is not an object with an arrays list and a config object")
    try:
        layout = [(name, [int(n) for n in shape]) for name, shape in meta["arrays"]]
    except (TypeError, ValueError) as exc:
        raise error(f"{path}: malformed array list in metadata: {exc}") from exc
    total = sum(math.prod(shape) for _, shape in layout)
    blob_end = meta_end + 8 * total
    if blob_end + 4 > len(data):
        raise error(f"{path}: truncated array blob")
    blob = data[meta_end:blob_end]
    (crc,) = struct.unpack_from("<I", data, blob_end)
    if crc != (zlib.crc32(blob) & 0xFFFFFFFF):
        raise error(f"{path}: array blob fails checksum")
    if expect_tag is not None and tag != expect_tag:
        raise error(f"{path}: container tag {tag} ({CONTAINER_KINDS.get(tag, 'unknown kind')}), "
                    f"expected {expect_tag} ({CONTAINER_KINDS[expect_tag]})")
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    flat = np.frombuffer(blob, dtype="<f8")
    for name, shape in layout:
        n = math.prod(shape)
        arrays[name] = flat[offset:offset + n].reshape(shape).astype(np.float64)
        offset += n
    return tag, arrays, meta["config"]


def _whole(values: np.ndarray) -> bool:
    """Every value is an integer that float64 holds exactly."""
    return bool((np.abs(values) <= 2.0**53).all() and (np.floor(values) == values).all())


def save_dataset(path, trajectories: list[Trajectory], *, dim: int, env_meta: dict, seed: int) -> None:
    """Write trajectories as a container (TAG_TRAJECTORY_DATASET): the header
    as its config, and the episodes' arrays concatenated beside their lengths.

    float64 holds every stored value exactly, so saving and reloading
    reproduces arrays bitwise and rewriting an unchanged dataset produces a
    byte-identical file. An episode that breaks load_dataset's rule
    (_check_record, frames of env_meta's obs_dim or OBS_DIM) raises
    DatasetError naming it, and nothing is written."""
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

    def joined(name, *row_shape):
        # the empty head gives zero episodes their shape
        return np.concatenate([np.empty((0, *row_shape)), *(getattr(t, name) for t in trajectories)])

    write_container(path, tag=TAG_TRAJECTORY_DATASET, config=header, arrays=[
        ("lengths", np.array([len(t) for t in trajectories], dtype=np.float64)),
        ("features", joined("features", obs_dim)),
        ("frame_ids", joined("frame_ids")),
        ("capture_times", joined("capture_times")),
        ("actions", joined("actions", dim)),
        ("action_states", joined("action_states", dim)),
    ])


def load_dataset(path) -> tuple[list[Trajectory], dict]:
    """Read a dataset file, raising DatasetError naming it unless the
    file can be read, the container is sound, the header's format, version
    and sizes fit the arrays, the lengths are non-negative integers that
    cover every row, the frame ids are integers, and every episode passes
    _check_record."""
    try:
        with open(path, "rb") as fh:
            first = fh.read(1)
    except OSError as exc:
        raise DatasetError(f"{path}: cannot read dataset: {exc.strerror}") from exc
    if first == b"{":
        raise DatasetError(f"{path}: a version-1 JSON-lines dataset, which version "
                           f"{DATASET_VERSION} does not read; regenerate it with gen-data")
    _, arrays, header = read_container(path, expect_tag=TAG_TRAJECTORY_DATASET, error=DatasetError)
    if (header.get("format"), header.get("version")) != (DATASET_FORMAT, DATASET_VERSION):
        raise DatasetError(f"{path}: not a version-{DATASET_VERSION} trajectory dataset: format "
                           f"{header.get('format')!r}, version {header.get('version')!r}")
    try:
        dim = int(header["dim"])
        episodes = int(header["episodes"])
        obs_dim = int(header.get("env", {}).get("obs_dim", OBS_DIM))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DatasetError(f"{path}: malformed header: {exc!r}") from exc
    # the frame ids give the row count that every other array and the lengths must fit
    ids = arrays.get("frame_ids", np.empty(0))
    n = len(ids) if ids.ndim else 0
    check_shapes(path, "dataset", {"lengths": (episodes,), "features": (n, obs_dim),
                                   "frame_ids": (n,), "capture_times": (n,), "actions": (n, dim),
                                   "action_states": (n + episodes, dim)}, arrays, error=DatasetError)
    lengths = arrays["lengths"]
    if not (_whole(lengths) and (lengths >= 0).all() and lengths.sum() == n):
        raise DatasetError(f"{path}: episode lengths must be non-negative integers that sum "
                           f"to the {n} stored rows")
    if not _whole(ids):
        raise DatasetError(f"{path}: frame ids must be integers")
    ids = ids.astype(np.int64)
    out = []
    start = 0
    for i, end in enumerate(lengths.astype(np.int64).cumsum().tolist()):
        # episode i's L + 1 states follow the i states of the episodes before it
        traj = Trajectory(features=arrays["features"][start:end], frame_ids=ids[start:end],
                          capture_times=arrays["capture_times"][start:end],
                          actions=arrays["actions"][start:end],
                          action_states=arrays["action_states"][start + i:end + i + 1])
        try:
            _check_record(traj, dim, obs_dim)
        except DatasetError as exc:
            raise DatasetError(f"{path}: episode {i}: {exc}") from exc
        out.append(traj)
        start = end
    return out, header
