"""Shared domain types, deterministic RNG streams, the binary container, and
the trajectory dataset format.

Action vectors and action-space states are plain float64 numpy arrays of a
fixed dimension (2 for the desk environments). The action-space state is the
running sum of commanded actions; it lives in the same coordinate frame as
actions, which is what makes shared normalization statistics meaningful.

One checksummed float64 container (write_container/read_container) holds
datasets, policy checkpoints and predictor checkpoints, each under its own
type tag. A dataset file (version 3) is the header as the container's config
and the episodes concatenated: lengths (E,), features (N, obs_dim), actions
(N, dim) and alpha0 (E, dim). It stores nothing a Trajectory derives: each
episode's ledger is rebuilt from its actions and alpha0 when it is loaded.
One record rule checks a dataset in that stored layout, so what
save_dataset writes load_dataset reads: an O(1) shape check per episode
(_shape_fault), then whole-array numpy passes over the concatenated arrays
(_value_fault) for finite features, actions and alpha0. save_dataset runs
it after concatenating, load_dataset before splitting into episodes, and
Trajectory.validate on one episode. A broken file raises DatasetError
naming the file, and a broken episode names the lowest such episode and its
first failing check.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

ACTION_DIM = 2
OBS_DIM = 7
DATASET_FORMAT = "streampolicy-trajectories"
DATASET_VERSION = 3
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
    features (position, goal, latch flag, goal offset). Never mutated."""

    features: np.ndarray


@dataclass
class Trajectory:
    """One episode: L frames as features (L, obs_dim), one per action, the
    actions (L, D) and alpha0 (D,), the start of its action-state ledger.

    action_states (L+1, D) is built once, when the trajectory is made, by
    cumulative_states(actions, alpha0): action_states[0] is alpha0 and
    action_states[n] is the exact left-to-right running sum of actions
    0..n-1 on top of it. It is derived, so a dataset does not store it.
    """

    features: np.ndarray
    actions: np.ndarray
    alpha0: np.ndarray
    action_states: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.action_states = cumulative_states(self.actions, self.alpha0)

    def __len__(self) -> int:
        return self.actions.shape[0]

    @property
    def observations(self) -> list[Observation]:
        """The frames as Observation rows, built on each access: a read-only view."""
        return [Observation(f) for f in self.features]

    def validate(self) -> None:
        """Raise DatasetError unless this episode keeps the record rule
        (_shape_fault, then _value_fault) at its own action and frame widths,
        or the package's where an array has none."""
        dim = self.actions.shape[1] if self.actions.ndim == 2 else ACTION_DIM
        obs_dim = self.features.shape[1] if getattr(self.features, "ndim", 0) == 2 else OBS_DIM
        _, fault = _stored_layout([self], dim, obs_dim)
        if fault is not None:
            raise DatasetError(fault[1])


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

    Building the SeedSequence and the Philox costs about 15-28 µs; a loop
    over consecutive indices of one stream takes its generators from
    substreams instead, which draws the same words.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


# SeedSequence's uint32 hash (numpy/random/bit_generator.pyx): its constants
# and its hashmix and mix steps, written for Python ints and uint64 arrays of
# 32-bit words alike, so each step is reduced to 32 bits
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
# indices keyed per numpy pass: 16 bytes of key per index, so a pass holds
# a few arrays of 32 KB whatever the stream's length
SUBSTREAM_BLOCK = 2048


def _hashmix(value, h):
    """hashmix(value) under hash constant h: (hashed value, next constant)."""
    value = (value ^ h) & _M32
    h = h * _MULT_A & _M32
    value = value * h & _M32
    return value ^ value >> 16, h


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _prefix_pool(seed: int, prefix: tuple[int, ...]):
    """SeedSequence(seed, spawn_key=(*prefix, i))'s pool and hash constant
    just before the last word, i, is mixed in: neither depends on i.

    The pool is SeedSequence(seed, spawn_key=prefix)'s. The constant is
    _INIT_A times _MULT_A once per hashmix so far: one per pool word, one per
    ordered pair of distinct pool words, and one per pool word for each
    entropy word past the pool, the seed padded to the pool by a spawn key.
    """
    seed, prefix = int(seed), tuple(map(int, prefix))  # make_rng's coercion
    ss = np.random.SeedSequence(seed, spawn_key=prefix)  # refuses negative words
    words = [max(1, -(-n.bit_length() // 32)) for n in (seed, *prefix)]
    if prefix:
        words[0] = max(words[0], _POOL_WORDS)
    k = _POOL_WORDS * _POOL_WORDS + _POOL_WORDS * max(0, sum(words) - _POOL_WORDS)
    return ss.pool.tolist(), _INIT_A * pow(_MULT_A, k, 1 << 32) & _M32


def _philox_keys(pool: list[int], h: int, index: np.ndarray):
    """Philox's two 64-bit key words for each index (a uint64 array of
    32-bit values): the last word mixed into the pool, then
    generate_state(2, np.uint64), four words read as two little-endian
    pairs. Returns them as two lists of Python ints."""
    mixed = []
    for word in pool:
        value, h = _hashmix(index, h)
        mixed.append(_mix(word, value))
    out, h = [], _INIT_B
    for word in mixed:
        word = word ^ h
        h = h * _MULT_B & _M32
        word = word * h & _M32
        out.append(word ^ word >> 16)
    return (out[0] | out[1] << 32).tolist(), (out[2] | out[3] << 32).tolist()


def substreams(seed: int, *prefix: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """Generators for make_rng(seed, *prefix, i), i in range(start, stop).

    Each yielded generator draws exactly what make_rng(seed, *prefix, i)
    draws. A Philox stream is fixed by its 128-bit key alone. The words
    before i are numpy's own SeedSequence(seed, spawn_key=prefix).pool, so
    only i's word of SeedSequence's hash is replayed: in one numpy pass per
    SUBSTREAM_BLOCK indices. One Philox is re-keyed for each index by
    setting its whole state: the key, a zero counter, an empty buffer and
    no buffered 32-bit word. Every index yields the same Generator object,
    valid until the next one is drawn; a re-keyed generator costs about
    1 µs against make_rng's 15-28 µs.

    Raises ValueError, when called, on a negative seed or prefix word
    (SeedSequence's own error), and on a non-empty range with an index
    outside [0, 2**32): SeedSequence keys a larger index by more than one
    word.
    """
    if start < stop and not (0 <= start and stop <= 1 << 32):
        raise ValueError(f"substream indices must lie in [0, 2**32), got range({start}, {stop})")
    pool, h = _prefix_pool(seed, prefix)
    return _rekeyed(pool, h, start, stop)


def _rekeyed(pool: list[int], h: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    empty = (0, 0, 0, 0)
    for lo in range(start, stop, SUBSTREAM_BLOCK):
        index = np.arange(lo, min(lo + SUBSTREAM_BLOCK, stop), dtype=np.uint64)
        for key in zip(*_philox_keys(pool, h, index)):
            bitgen.state = {"bit_generator": "Philox", "state": {"counter": empty, "key": key},
                            "buffer": empty, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
            yield rng


# stream ids used across the package; values are arbitrary but frozen, and 4,
# once an evaluation stream that nothing drew from, stays unused
STREAM_DEMO = 1
STREAM_INIT = 2
STREAM_TRAIN = 3
STREAM_PREDICTOR = 5
STREAM_INDICATOR = 6
STREAM_MODEL_INIT = 7


_STORED = ("features", "actions", "alpha0")


def _shape_fault(traj: Trajectory, dim: int, obs_dim: int) -> str | None:
    """The per-episode half of the record rule, O(1) for an episode of
    arrays: its first failing check's message, or None. It checks an
    (L, obs_dim) array of numbers as features, (L, dim) actions and a (dim,)
    alpha0. The rule checks values for finiteness after the features and
    before the rest, so a later failure here reports non-finite values first."""
    try:
        features = np.asarray(traj.features, dtype=np.float64)
    except ValueError:  # rows of unequal shapes, or not numbers
        features = None
    if features is None or features.ndim != 2 or features.shape[1] != obs_dim:
        bad = next((np.shape(f) for f in traj.features if np.shape(f) != (obs_dim,)), None)
        return ("non-numeric features" if bad is None
                else f"feature rows of shape {bad}, want ({obs_dim},)")
    L = len(traj.actions)
    if traj.actions.ndim != 2 or traj.actions.shape[1] != dim:
        fault = f"actions of shape {traj.actions.shape}, want (L, {dim})"
    elif len(features) != L:
        fault = f"{len(features)} frames for {L} actions"
    elif np.shape(traj.alpha0) != (dim,):
        fault = f"alpha0 of shape {np.shape(traj.alpha0)}, want ({dim},)"
    else:
        return None
    values = (features, traj.actions, traj.alpha0)
    return next((f"non-finite {name}" for name, v in zip(_STORED, values) if not np.isfinite(v).all()),
                fault)


def _value_fault(arrays: dict[str, np.ndarray]) -> tuple[int, str] | None:
    """The whole-dataset half of the record rule, over a dataset in its
    stored layout whose shapes already hold: integer lengths (E,), features
    (N, obs_dim), actions (N, D) and alpha0 (E, D). Returns (episode,
    message) for the lowest episode with a non-finite feature, action or
    alpha0 value, naming the first of the three in that order; None when
    every value is finite."""
    ends = np.cumsum(arrays["lengths"])  # one past each episode's last row
    found = []
    for name in _STORED:
        ok = np.isfinite(arrays[name]).all(axis=1)
        if not ok.all():
            row = int(ok.argmin())
            found.append((row if name == "alpha0" else int(np.searchsorted(ends, row, side="right")),
                          f"non-finite {name}"))
    # min keeps the first of equal episodes: the check that comes first
    return min(found, key=lambda f: f[0]) if found else None


def _stored_layout(trajectories: list[Trajectory], dim: int,
                   obs_dim: int) -> tuple[dict[str, np.ndarray], tuple[int, str] | None]:
    """(arrays, fault): the episodes in the stored layout, and the record
    rule's (episode, message) for the lowest episode that breaks it, or
    None. Only the episodes before the first shape fault are joined."""
    shape_faults = ((i, _shape_fault(t, dim, obs_dim)) for i, t in enumerate(trajectories))
    bad, fault = next(((i, f) for i, f in shape_faults if f is not None), (len(trajectories), None))
    sound = trajectories[:bad]

    def joined(rows, width):
        # the empty head gives zero episodes their shape
        return np.concatenate([np.empty((0, width)), *rows], dtype=np.float64, casting="unsafe")

    arrays = {
        "lengths": np.array([len(t.actions) for t in sound], dtype=np.int64),
        "features": joined((t.features for t in sound), obs_dim),
        "actions": joined((t.actions for t in sound), dim),
        "alpha0": joined((np.reshape(t.alpha0, (1, dim)) for t in sound), dim),
    }
    return arrays, _value_fault(arrays) or (None if fault is None else (bad, fault))


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
    blob = memoryview(data)[meta_end:blob_end]  # a view: no copy of the arrays' bytes
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


def _check_convention(path, convention) -> None:
    """Raise DatasetError naming path unless convention, a header's
    env.alpha0, is a ledger convention the package knows."""
    if convention not in (ALPHA0_ZERO, ALPHA0_INITIAL_POSITION):
        raise DatasetError(f"{path}: unknown ledger convention {convention!r} in the header's "
                           f"env.alpha0, want {ALPHA0_ZERO!r} or {ALPHA0_INITIAL_POSITION!r}")


def save_dataset(path, trajectories: list[Trajectory], *, dim: int, env_meta: dict, seed: int) -> None:
    """Write trajectories as a container (TAG_TRAJECTORY_DATASET): the header
    as its config, and the episodes' arrays concatenated beside their lengths.

    float64 holds every stored value exactly, so saving and reloading
    reproduces arrays bitwise and rewriting an unchanged dataset produces a
    byte-identical file. The record rule load_dataset applies (frames of
    env_meta's obs_dim or OBS_DIM) runs on the concatenated arrays, after an
    O(1) shape check per episode; the lowest episode that breaks
    it raises DatasetError naming it, and nothing is written. So does an
    env_meta ledger convention (alpha0) that load_dataset would refuse."""
    _check_convention(path, env_meta.get("alpha0", ALPHA0_ZERO))
    obs_dim = int(env_meta.get("obs_dim", OBS_DIM))
    arrays, fault = _stored_layout(trajectories, dim, obs_dim)
    if fault is not None:
        raise DatasetError(f"episode {fault[0]}: {fault[1]}")
    header = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "dim": int(dim),
        "episodes": len(trajectories),
        "env": env_meta,
        "seed": int(seed),
    }
    write_container(path, tag=TAG_TRAJECTORY_DATASET, config=header, arrays=list(arrays.items()))


def load_dataset(path) -> tuple[list[Trajectory], dict]:
    """Read a dataset file, raising DatasetError naming it unless the
    file can be read, the container is sound, the header's format, version
    and sizes fit the arrays, its ledger convention (env.alpha0, when given)
    is one the package knows, and the lengths are non-negative integers
    that cover every row. An older dataset version is refused with a hint to
    regenerate it. The record rule then runs once over the stored arrays,
    before they are split into episodes, and the lowest episode that breaks
    it is named."""
    regenerate = f"which version {DATASET_VERSION} does not read; regenerate it with gen-data"
    try:
        with open(path, "rb") as fh:
            first = fh.read(1)
    except OSError as exc:
        raise DatasetError(f"{path}: cannot read dataset: {exc.strerror}") from exc
    if first == b"{":
        raise DatasetError(f"{path}: a version-1 JSON-lines dataset, {regenerate}")
    _, arrays, header = read_container(path, expect_tag=TAG_TRAJECTORY_DATASET, error=DatasetError)
    fmt, version = header.get("format"), header.get("version")
    if fmt == DATASET_FORMAT and version in range(1, DATASET_VERSION):
        raise DatasetError(f"{path}: a version-{version} dataset, {regenerate}")
    if (fmt, version) != (DATASET_FORMAT, DATASET_VERSION):
        raise DatasetError(f"{path}: not a version-{DATASET_VERSION} trajectory dataset: format "
                           f"{fmt!r}, version {version!r}")
    try:
        dim = int(header["dim"])
        episodes = int(header["episodes"])
        env = header.get("env", {})
        obs_dim = int(env.get("obs_dim", OBS_DIM))
        convention = env.get("alpha0", ALPHA0_ZERO)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DatasetError(f"{path}: malformed header: {exc!r}") from exc
    _check_convention(path, convention)
    # the row count every other array and the lengths must fit: the actions',
    # or the features' when no actions are stored
    rows = arrays.get("actions", arrays.get("features", np.empty(0)))
    n = len(rows) if rows.ndim else 0
    check_shapes(path, "dataset", {"lengths": (episodes,), "features": (n, obs_dim),
                                   "actions": (n, dim), "alpha0": (episodes, dim)},
                 arrays, error=DatasetError)
    lengths = arrays["lengths"]
    if not (np.isfinite(lengths).all() and (np.floor(lengths) == lengths).all()
            and (lengths >= 0).all() and lengths.sum() == n):
        raise DatasetError(f"{path}: episode lengths must be non-negative integers that sum "
                           f"to the {n} stored rows")
    arrays["lengths"] = lengths.astype(np.int64)
    fault = _value_fault(arrays)
    if fault is not None:
        raise DatasetError(f"{path}: episode {fault[0]}: {fault[1]}")
    features, actions, alpha0 = (arrays[name] for name in _STORED)
    out = []
    start = 0
    for i, end in enumerate(arrays["lengths"].cumsum().tolist()):
        out.append(Trajectory(features=features[start:end], actions=actions[start:end],
                              alpha0=alpha0[i]))
        start = end
    return out, header
