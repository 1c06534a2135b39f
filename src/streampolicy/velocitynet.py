"""Velocity network: a small float64 MLP with hand-written gradients.

The network maps (action-space state x, horizon clock t, observation features)
to a velocity in action space. Gradients are analytic (no autodiff dependency)
and are validated against central differences in the test suite. The same
file also provides the Adam update and the binary checkpoint container shared
with the saliency predictor.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import flowmatch, normkit
from .core import DimensionMismatchError
from .flowmatch import FlowParams
from .normkit import NormStats

# fixed input featurization: raw t plus four sin/cos pairs over [0, 1]
TIME_FREQS = (1.0, 2.0, 4.0, 8.0)
TIME_DIM = 1 + 2 * len(TIME_FREQS)


def time_features(t) -> np.ndarray:
    """Featurize horizon time t in [0, 1]: [t, sin/cos(2 pi f t) for f in 1,2,4,8]."""
    t = np.asarray(t, dtype=np.float64)
    cols = [t[..., None]]
    for f in TIME_FREQS:
        ang = 2.0 * math.pi * f * t[..., None]
        cols.append(np.sin(ang))
        cols.append(np.cos(ang))
    return np.concatenate(cols, axis=-1)


@dataclass
class VelocityModel:
    """MLP weights plus the sizes needed to validate inputs.

    params maps "w0","b0",...: layer i computes tanh(x @ wi + bi) except the
    final layer, which is linear.
    """

    action_dim: int
    obs_dim: int
    hidden: tuple[int, ...]
    params: dict[str, np.ndarray]

    @property
    def input_dim(self) -> int:
        return self.action_dim + TIME_DIM + self.obs_dim

    def n_layers(self) -> int:
        return len(self.hidden) + 1


def init_velocity_model(action_dim: int, obs_dim: int, hidden=(128, 128), *, rng: np.random.Generator) -> VelocityModel:
    sizes = [action_dim + TIME_DIM + obs_dim, *hidden, action_dim]
    params: dict[str, np.ndarray] = {}
    for i in range(len(sizes) - 1):
        fan_in = sizes[i]
        params[f"w{i}"] = rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(sizes[i], sizes[i + 1]))
        params[f"b{i}"] = np.zeros(sizes[i + 1])
    return VelocityModel(action_dim=action_dim, obs_dim=obs_dim, hidden=tuple(hidden), params=params)


def _check_dims(model: VelocityModel, x, obs_feat) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    obs_feat = np.asarray(obs_feat, dtype=np.float64)
    if x.shape[-1] != model.action_dim:
        raise DimensionMismatchError(f"state dim {x.shape[-1]} != {model.action_dim}")
    if obs_feat.shape[-1] != model.obs_dim:
        raise DimensionMismatchError(f"obs dim {obs_feat.shape[-1]} != {model.obs_dim}")
    return x, obs_feat


def _assemble_inputs(model: VelocityModel, x: np.ndarray, t, obs_feat: np.ndarray) -> np.ndarray:
    """Network input rows for a batch."""
    x, obs_feat = _check_dims(model, x, obs_feat)
    # observation features enter unscaled: the goal-position channels carry the
    # fine corrections near the target, and downweighting them measurably hurts
    # final-approach precision on the controller-mediated variant
    return np.concatenate([x, time_features(t), obs_feat], axis=-1)


def _mlp_forward(params: dict[str, np.ndarray], inp: np.ndarray, n_layers: int):
    """Returns (output, activations). Hidden activations use tanh."""
    acts = [inp]
    h = inp
    for i in range(n_layers):
        z = h @ params[f"w{i}"] + params[f"b{i}"]
        h = np.tanh(z) if i < n_layers - 1 else z
        acts.append(h)
    return h, acts


class InputRow:
    """One network input row, [x | time features | obs features], kept for
    the forward passes of one observation (a horizon's actions).

    Building it checks the dimensions of x and obs_feat, writes the
    observation features once and holds the layer weights. A forward pass
    through it writes x and the time features and runs the layers in place.
    """

    __slots__ = ("model", "obs", "row", "x", "tf", "hidden", "out")

    def __init__(self, model: VelocityModel, x, obs_feat):
        self.model, self.obs = model, obs_feat
        x, obs_feat = _check_dims(model, x, obs_feat)
        if x.ndim != 1 or obs_feat.ndim != 1:
            raise DimensionMismatchError("an input row takes one state and one observation")
        self.row = np.concatenate([x, np.zeros(TIME_DIM), obs_feat])
        d = model.action_dim
        self.x = self.row[:d]
        self.tf = self.row[d:d + TIME_DIM]
        p = model.params
        layers = [(p[f"w{i}"], p[f"b{i}"]) for i in range(model.n_layers())]
        self.hidden, self.out = tuple(layers[:-1]), layers[-1]


def forward(model: VelocityModel, x: np.ndarray, t: float, obs_feat: np.ndarray,
            time_feat: np.ndarray | None = None, *, prepared: InputRow | None = None) -> np.ndarray:
    """Velocity prediction for a single state/time/observation triple.

    time_feat, when given, must be time_features(t); it saves recomputing a
    row the caller already holds. prepared, when given, is the InputRow built
    for this model and this obs_feat array (Policy.prepare), which saves
    checking and assembling the inputs again; a row built for another model
    or observation array raises ValueError. Each layer adds its bias and
    applies tanh in place, giving the batched forward's rows bit for bit.
    """
    if prepared is None:
        prepared = InputRow(model, x, obs_feat)
    elif prepared.model is not model or prepared.obs is not obs_feat:
        raise ValueError("the prepared input row was built for another model or observation")
    prepared.x[...] = x
    prepared.tf[...] = time_features(float(t)) if time_feat is None else time_feat
    z = prepared.row
    for w, b in prepared.hidden:
        z = z @ w
        z += b
        np.tanh(z, out=z)
    w, b = prepared.out
    z = z @ w
    z += b
    return z


def input_rows(model: VelocityModel, x: np.ndarray, obs_feat: np.ndarray) -> np.ndarray:
    """A stack of network input rows, shape (B, 1, input_dim), for B states
    x (B, action_dim) and observations obs_feat (B, obs_dim): each row is
    [x | zeros for the time features | obs features], as InputRow lays it out."""
    x, obs_feat = _check_dims(model, x, obs_feat)
    if x.ndim != 2 or obs_feat.ndim != 2 or len(x) != len(obs_feat):
        raise DimensionMismatchError("input rows take one state and one observation per row")
    return np.concatenate([x, np.zeros((len(x), TIME_DIM)), obs_feat], axis=1)[:, None, :]


def forward_rows(model: VelocityModel, rows: np.ndarray) -> np.ndarray:
    """Velocity predictions for a stack of assembled input rows, shape
    (B, 1, input_dim) as input_rows builds them; returns (B, 1, action_dim).

    Each layer is one stacked (B, 1, d) @ (d, k) product, with the bias added
    and tanh applied in place as forward does. numpy's matmul makes one
    vector-matrix BLAS call per (1, d) item of the stack, the call forward
    makes for its lone row, so every row gets the bits forward gives it
    alone, whatever B is (a 2-D (B, d) @ (d, k) product does not: it is one
    matrix-matrix call, whose rows can differ in the last ulp). rows itself
    is not written.
    """
    p = model.params
    n = model.n_layers()
    z = rows
    for i in range(n):
        z = z @ p[f"w{i}"]
        z += p[f"b{i}"]
        if i < n - 1:
            np.tanh(z, out=z)
    return z


def forward_batch(model: VelocityModel, X: np.ndarray, T: np.ndarray, OBS: np.ndarray) -> np.ndarray:
    inp = _assemble_inputs(model, X, np.asarray(T, dtype=np.float64), OBS)
    out, _ = _mlp_forward(model.params, inp, model.n_layers())
    return out


def loss_and_grad(model: VelocityModel, X: np.ndarray, T: np.ndarray, OBS: np.ndarray, V_target: np.ndarray):
    """Mean squared-L2 velocity error over a batch, with analytic gradients.

    loss = mean_b ||v_pred_b - v_target_b||^2. Gradient layout matches
    model.params key for key.
    """
    n_layers = model.n_layers()
    inp = _assemble_inputs(model, X, np.asarray(T, dtype=np.float64), OBS)
    out, acts = _mlp_forward(model.params, inp, n_layers)
    B = out.shape[0]
    diff = out - np.asarray(V_target, dtype=np.float64)
    loss = float(np.sum(diff * diff)) / B

    grads: dict[str, np.ndarray] = {}
    delta = 2.0 * diff / B
    for i in reversed(range(n_layers)):
        a_prev = acts[i]
        grads[f"w{i}"] = a_prev.T @ delta
        grads[f"b{i}"] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.params[f"w{i}"].T) * (1.0 - acts[i] * acts[i])
    return loss, grads


@dataclass
class _FlatAdam:
    """Parameters and both moments packed into one flat buffer each.

    The caller's dicts hold views into these buffers, so a single pass of
    elementwise ops updates every tensor. The views are kept to tell whether
    the dicts still point here.
    """

    keys: tuple[str, ...]
    views: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]  # (param, m, v) per key
    p: np.ndarray
    m: np.ndarray
    v: np.ndarray
    g: np.ndarray       # flattened gradient, then scratch
    tmp: np.ndarray     # scratch


@dataclass
class AdamState:
    """First/second moment accumulators keyed like the parameter dict.

    The dicts m and v (and the parameter dict being trained) are the state
    that checkpoints save; adam_step runs over flat buffers behind them.
    """

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    flat: _FlatAdam | None = field(default=None, repr=False, compare=False)


def _bind_flat(params: dict[str, np.ndarray], state: AdamState) -> _FlatAdam:
    """Copy params, m and v into flat buffers and point every dict entry at
    its view, so the dicts stay the source of truth after any update."""
    keys = tuple(params)
    n = sum(params[k].size for k in keys)
    p, m, v = np.empty(n), np.empty(n), np.empty(n)
    views = []
    off = 0
    for k in keys:
        shape, size = params[k].shape, params[k].size
        triple = []
        for buf, src in ((p, params), (m, state.m), (v, state.v)):
            view = buf[off:off + size].reshape(shape)
            view[...] = src[k]
            src[k] = view
            triple.append(view)
        views.append(tuple(triple))
        off += size
    return _FlatAdam(keys=keys, views=tuple(views), p=p, m=m, v=v, g=np.empty(n), tmp=np.empty(n))


def _is_bound(flat: _FlatAdam | None, params: dict[str, np.ndarray], state: AdamState) -> bool:
    return (flat is not None and len(params) == len(flat.keys)
            and all(params.get(k) is p and state.m.get(k) is m and state.v.get(k) is v
                    for k, (p, m, v) in zip(flat.keys, flat.views)))


def init_adam(params: dict[str, np.ndarray], lr: float, **kw) -> AdamState:
    """Zero moments for params. The entries of params are replaced by views
    into the optimizer's flat buffer: keep training through this dict."""
    st = AdamState(lr=lr, **kw)
    for k, p in params.items():
        st.m[k] = np.zeros_like(p)
        st.v[k] = np.zeros_like(p)
    st.flat = _bind_flat(params, st)
    return st


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState, lr: float | None = None) -> None:
    """One Adam update, in place. Pass lr to override the stored rate (for schedules).

    Runs once over the flat buffers. When the dict entries are not the flat
    buffers' views (a state loaded from a checkpoint, or a copy), the buffers
    are rebuilt from the dicts first. The elementwise arithmetic is the
    per-tensor formula, op for op:
        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
        p -= rate*(m/c1) / (sqrt(v/c2) + eps)
    """
    if not _is_bound(state.flat, params, state):
        state.flat = _bind_flat(params, state)
    flat = state.flat
    state.step += 1
    rate = state.lr if lr is None else lr
    c1 = 1.0 - state.beta1**state.step
    c2 = 1.0 - state.beta2**state.step
    g, tmp = flat.g, flat.tmp
    np.concatenate([grads[k].ravel() for k in flat.keys], out=g)
    flat.m *= state.beta1
    np.multiply(g, 1.0 - state.beta1, out=tmp)
    flat.m += tmp
    np.multiply(g, g, out=g)
    g *= 1.0 - state.beta2
    flat.v *= state.beta2
    flat.v += g
    np.divide(flat.m, c1, out=tmp)
    tmp *= rate
    np.divide(flat.v, c2, out=g)
    np.sqrt(g, out=g)
    g += state.eps
    tmp /= g
    flat.p -= tmp


# ---------------------------------------------------------------------------
# checkpoint container
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


class CheckpointError(ValueError):
    """Checkpoint file is unreadable, truncated, or corrupt."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint has an unsupported container version."""


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


def read_container(path, *, expect_tag: int | None = None):
    """Returns (tag, arrays dict, config dict). Raises CheckpointError subtypes."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc.strerror}") from exc
    if len(data) < 20 or data[:8] != CONTAINER_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint container")
    version, tag = struct.unpack_from("<II", data, 8)
    if version != CONTAINER_VERSION:
        raise CheckpointVersionError(f"{path}: container version {version}, supported {CONTAINER_VERSION}")
    (meta_len,) = struct.unpack_from("<I", data, 16)
    meta_end = 20 + meta_len
    if meta_end > len(data):
        raise CheckpointError(f"{path}: truncated metadata")
    try:
        meta = json.loads(data[20:meta_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt metadata: {exc}") from exc
    total = sum(int(np.prod(shape)) for _, shape in meta["arrays"])
    blob_end = meta_end + 8 * total
    if blob_end + 4 > len(data):
        raise CheckpointError(f"{path}: truncated parameter blob")
    blob = data[meta_end:blob_end]
    (crc,) = struct.unpack_from("<I", data, blob_end)
    if crc != (zlib.crc32(blob) & 0xFFFFFFFF):
        raise CheckpointError(f"{path}: parameter blob fails checksum")
    if expect_tag is not None and tag != expect_tag:
        raise CheckpointError(f"{path}: container tag {tag}, expected {expect_tag}")
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    flat = np.frombuffer(blob, dtype="<f8")
    for name, shape in meta["arrays"]:
        n = int(np.prod(shape))
        arrays[name] = flat[offset:offset + n].reshape([int(s) for s in shape]).astype(np.float64)
        offset += n
    return tag, arrays, meta["config"]


# ---------------------------------------------------------------------------
# policy bundle: model + normalization + flow parameters + state convention
# ---------------------------------------------------------------------------

ALPHA0_ZERO = "zero"
ALPHA0_INITIAL_POSITION = "initial_position"


@dataclass
class Policy:
    """Everything needed to run the velocity model in a loop.

    alpha0_convention records how the training data seeded its state ledger:
    pure action accumulation starts at zero, while environments whose state
    space coincides with physical space seed it with the initial position.
    """

    model: VelocityModel
    stats: NormStats
    flow: FlowParams
    alpha0_convention: str = ALPHA0_ZERO
    # (h, rows): time_features(T / h) for T in 0..h-1, built on first use
    _time_table: tuple[int, np.ndarray] | None = field(default=None, init=False, repr=False,
                                                        compare=False)

    def initial_alpha(self, position: np.ndarray) -> np.ndarray:
        """Normalized starting state for an episode beginning at position."""
        if self.alpha0_convention == ALPHA0_INITIAL_POSITION:
            raw = np.asarray(position, dtype=np.float64)
        else:
            raw = np.zeros(self.model.action_dim)
        return normkit.normalize(raw, self.stats)

    def time_table(self) -> np.ndarray:
        """Row T is time_features(T / h), the only times a horizon visits.

        Built one row at a time through time_features, so every row is the
        one a per-call computation gives, bit for bit.
        """
        h = self.flow.h
        if self._time_table is None or self._time_table[0] != h:
            self._time_table = (h, np.stack([time_features(T / float(h)) for T in range(h)]))
        return self._time_table[1]

    def prepare(self, alpha_norm: np.ndarray, obs_features: np.ndarray) -> InputRow:
        """The input row for the actions generated from one observation.

        Checks the dimensions of alpha_norm and obs_features; pass the row
        and the same obs_features array to each of those action calls.
        """
        return InputRow(self.model, alpha_norm, obs_features)

    def velocity(self, alpha_norm: np.ndarray, T: int, obs_features: np.ndarray,
                 prepared: InputRow | None = None) -> np.ndarray:
        h = self.flow.h
        row = None
        if isinstance(T, (int, np.integer)) and 0 <= T < h:
            row = self.time_table()[T]
        return forward(self.model, alpha_norm, T / float(h), obs_features, row, prepared=prepared)

    def action(self, alpha_norm: np.ndarray, T: int, obs_features: np.ndarray,
               prepared: InputRow | None = None):
        """Generate one action: returns (normalized, raw) pair. prepared, when
        given, is the row prepare() built for obs_features."""
        v = self.velocity(alpha_norm, T, obs_features, prepared)
        a_norm = flowmatch.extract_action(v, self.flow.h)
        return a_norm, normkit.denormalize(a_norm, self.stats)

    def action_rows(self, rows: np.ndarray, alpha_norm: np.ndarray, T: int):
        """action for B horizons at the same index T: writes each ledger
        alpha_norm[b] and time_table()[T] into rows, the (B, 1, input_dim)
        stack input_rows built for the horizons' observations, and returns
        the (normalized, raw) actions, one row each, with the bits action
        gives each row alone."""
        d = self.model.action_dim
        rows[:, 0, :d] = alpha_norm
        rows[:, 0, d:d + TIME_DIM] = self.time_table()[T]
        v = forward_rows(self.model, rows)[:, 0]
        a_norm = flowmatch.extract_action(v, self.flow.h)
        return a_norm, normkit.denormalize(a_norm, self.stats)


def save_policy(path, policy: Policy, *, adam: AdamState | None = None, iteration: int | None = None) -> None:
    arrays: list[tuple[str, np.ndarray]] = [
        ("norm.q_min", policy.stats.q_min),
        ("norm.q_max", policy.stats.q_max),
        ("norm.scale", policy.stats.scale),
    ]
    for k in sorted(policy.model.params):
        arrays.append((f"model.{k}", policy.model.params[k]))
    config = {
        "kind": "velocity-policy",
        "action_dim": policy.model.action_dim,
        "obs_dim": policy.model.obs_dim,
        "hidden": list(policy.model.hidden),
        "flow": {"k": policy.flow.k, "sigma0": policy.flow.sigma0, "h": policy.flow.h},
        "alpha0": policy.alpha0_convention,
    }
    if iteration is not None:
        config["iteration"] = int(iteration)
    if adam is not None:
        config["adam"] = {"lr": adam.lr, "beta1": adam.beta1, "beta2": adam.beta2,
                          "eps": adam.eps, "step": adam.step}
        for k in sorted(adam.m):
            arrays.append((f"adam_m.{k}", adam.m[k]))
            arrays.append((f"adam_v.{k}", adam.v[k]))
    write_container(path, tag=TAG_VELOCITY_POLICY, arrays=arrays, config=config)


def load_policy(path):
    """Returns (Policy, AdamState | None, iteration | None)."""
    _, arrays, config = read_container(path, expect_tag=TAG_VELOCITY_POLICY)
    stats = NormStats(q_min=arrays["norm.q_min"], q_max=arrays["norm.q_max"], scale=arrays["norm.scale"])
    flow = FlowParams(k=config["flow"]["k"], sigma0=config["flow"]["sigma0"], h=int(config["flow"]["h"]))
    params = {k[len("model."):]: v for k, v in arrays.items() if k.startswith("model.")}
    model = VelocityModel(
        action_dim=int(config["action_dim"]),
        obs_dim=int(config["obs_dim"]),
        hidden=tuple(int(x) for x in config["hidden"]),
        params=params,
    )
    policy = Policy(model=model, stats=stats, flow=flow, alpha0_convention=config["alpha0"])
    adam = None
    if "adam" in config:
        a = config["adam"]
        adam = AdamState(lr=a["lr"], beta1=a["beta1"], beta2=a["beta2"], eps=a["eps"], step=int(a["step"]))
        adam.m = {k[len("adam_m."):]: v for k, v in arrays.items() if k.startswith("adam_m.")}
        adam.v = {k[len("adam_v."):]: v for k, v in arrays.items() if k.startswith("adam_v.")}
    return policy, adam, config.get("iteration")
