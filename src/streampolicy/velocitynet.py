"""Velocity network: a small MLP with hand-written gradients.

The network maps (action-space state x, horizon clock t, observation features)
to a velocity in action space. One layer pass (_layer_pass) and one backward
pass (_backward) serve acting (forward), training (loss_and_grad) and both of
the saliency predictor's MLPs. Acting runs in float64; training and the Adam
update run in the weights' dtype, TRAIN_DTYPE (float32) for the trainers'
master weights. Gradients are analytic (no autodiff dependency) and are
validated against central differences in the test suite, in float64. The
same file also provides the policy checkpoint, which is stored in core's
binary container, as predictor checkpoints and datasets are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import flowmatch, normkit
from .core import (ALPHA0_INITIAL_POSITION, ALPHA0_ZERO, TAG_VELOCITY_POLICY, CheckpointError,
                   DimensionMismatchError, check_shapes, read_container, write_container)
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

    def n_layers(self) -> int:
        return len(self.hidden) + 1


def _param_shapes(action_dim: int, obs_dim: int, hidden) -> dict[str, tuple[int, ...]]:
    """Each parameter's shape, in init_velocity_model's draw order: w0, b0, w1, ..."""
    sizes = [action_dim + TIME_DIM + obs_dim, *hidden, action_dim]
    shapes = {}
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        shapes[f"w{i}"], shapes[f"b{i}"] = (fan_in, fan_out), (fan_out,)
    return shapes


def init_velocity_model(action_dim: int, obs_dim: int, hidden=(128, 128), *, rng: np.random.Generator) -> VelocityModel:
    """Weights drawn normal with standard deviation 1/sqrt(fan-in), biases zero."""
    params = {name: (rng.normal(0.0, 1.0 / math.sqrt(shape[0]), size=shape) if len(shape) == 2
                     else np.zeros(shape))
              for name, shape in _param_shapes(action_dim, obs_dim, hidden).items()}
    return VelocityModel(action_dim=action_dim, obs_dim=obs_dim, hidden=tuple(hidden), params=params)


def _check_dims(model: VelocityModel, x, obs_feat) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    obs_feat = np.asarray(obs_feat, dtype=np.float64)
    if x.shape[-1] != model.action_dim:
        raise DimensionMismatchError(f"state dim {x.shape[-1]} != {model.action_dim}")
    if obs_feat.shape[-1] != model.obs_dim:
        raise DimensionMismatchError(f"obs dim {obs_feat.shape[-1]} != {model.obs_dim}")
    return x, obs_feat


def _layers(model: VelocityModel) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (w, b) pair of each layer, from the input layer to the output."""
    p = model.params
    return [(p[f"w{i}"], p[f"b{i}"]) for i in range(model.n_layers())]


def _layer_pass(z: np.ndarray, hidden, out, acts: list | None = None, mods=None, pres=None) -> np.ndarray:
    """The tanh layers hidden and the linear layer out, each a (w, b) pair,
    on a lone 1-D row z, a (B, d) batch or a (B, 1, d) stack; appends each
    hidden activation to acts, if given. Each layer is one product, with the
    bias added and tanh applied in place. A lone row's product is np.dot: the
    vector-matrix BLAS call z @ w makes, with its bits, without the matmul
    ufunc's dispatch. Others take np.matmul, which makes that call per (1, d)
    item of a stack, so each row gets its lone bits whatever B is; a (B, d)
    batch is one matrix-matrix call, whose rows can differ in the last ulp.

    Given mods, a FiLM pair (1 + gamma, beta) per hidden layer, each appends
    its pre-activation z to pres (given empty) and computes tanh((1 + gamma) * z + beta).
    """
    product = np.dot if z.ndim == 1 else np.matmul
    for w, b in hidden:
        z = product(z, w)
        z += b
        if mods is not None:
            scale, shift = mods[len(pres)]  # this layer's: pres holds one per layer before it
            pres.append(z)
            z = z * scale
            z += shift
        np.tanh(z, out=z)
        if acts is not None:
            acts.append(z)
    w, b = out
    z = product(z, w)
    z += b
    return z


def _backward(layers, acts, delta: np.ndarray, prefix: str = "", mods=None, pres=None):
    """The one backward pass: of a _layer_pass over layers (hidden, then
    out) that recorded acts (its input, then each activation) and, if
    modulated by mods, pres; delta is the loss's gradient at its output.
    Returns {prefix + "w<i>": gw, prefix + "b<i>": gb}, gw shaped as w, and
    each hidden layer's (dgamma, dbeta) given mods. gw is computed in the
    layout of w's memory, which keeps each product's BLAS call and lets
    Adam ravel views: a.T @ delta for a C-ordered w, (delta.T @ a).T for w
    the transposed view of an (out, in) array, whose .T is C-ordered.
    """
    grads, dmods = {}, [None] * (len(layers) - 1)
    for i in reversed(range(len(layers))):
        w, a = layers[i][0], acts[i]
        grads[f"{prefix}w{i}"] = a.T @ delta if w.flags.c_contiguous else (delta.T @ a).T
        grads[f"{prefix}b{i}"] = delta.sum(axis=0)
        if i == 0:
            return grads, dmods
        delta = delta @ w.T
        delta *= 1.0 - a * a
        if mods is not None:
            dmods[i - 1] = (delta * pres[i - 1], delta)
            delta = delta * mods[i - 1][0]


class Inputs:
    """Network inputs [x | time features | obs features] for the actions
    generated from one observation (a horizon's actions): one 1-D row, or a
    (B, 1, input_dim) stack of B such rows, one per horizon.

    Building them checks the dimensions of x and obs_feat (shapes
    (action_dim,) and (obs_dim,), or (B, action_dim) and (B, obs_dim)),
    writes the observation features once and looks up the layer weights.
    Each action then writes x and the time features in place (Policy.action)
    and runs forward on them.
    """

    __slots__ = ("rows", "x", "tf", "hidden", "out")

    def __init__(self, model: VelocityModel, x, obs_feat):
        x, obs_feat = _check_dims(model, x, obs_feat)
        if x.ndim not in (1, 2) or x.shape[:-1] != obs_feat.shape[:-1]:
            raise DimensionMismatchError("inputs take one state and one observation, or one of each per row")
        flat = np.concatenate([x, np.zeros(x.shape[:-1] + (TIME_DIM,)), obs_feat], axis=-1)
        self.rows = flat if flat.ndim == 1 else flat[:, None, :]
        d = model.action_dim
        self.x, self.tf = flat[..., :d], flat[..., d:d + TIME_DIM]
        layers = _layers(model)
        self.hidden, self.out = tuple(layers[:-1]), layers[-1]


def forward(inputs: Inputs) -> np.ndarray:
    """Velocity predictions for inputs: (action_dim,) for a lone row,
    (B, action_dim) for a stack. inputs itself is not written."""
    z = _layer_pass(inputs.rows, inputs.hidden, inputs.out)
    return z if z.ndim == 1 else z[:, 0]


def loss_and_grad(model: VelocityModel, X: np.ndarray, TF: np.ndarray, OBS: np.ndarray, V_target: np.ndarray):
    """Mean squared-L2 velocity error over a batch, with analytic gradients.

    TF holds each row's time features, time_features(T) (the trainer
    gathers them from Policy.time_table()). loss = mean_b ||v_pred_b -
    v_target_b||^2. Gradient layout matches model.params key for key, and
    everything runs in the weights' dtype: the rows [x | TF | obs] and
    V_target are cast to it once. The rows run through _layer_pass, not
    forward, which only acting calls.
    """
    X, OBS = _check_dims(model, X, OBS)
    if np.shape(TF)[-1] != TIME_DIM:
        raise DimensionMismatchError(f"time feature dim {np.shape(TF)[-1]} != {TIME_DIM}")
    dtype = model.params["w0"].dtype
    # observation features enter unscaled: the goal-position channels carry the
    # fine corrections near the target, and downweighting them measurably hurts
    # final-approach precision on the controller-mediated variant
    inp = np.concatenate([X, TF, OBS], axis=-1, dtype=dtype)
    layers = _layers(model)
    acts = [inp]
    out = _layer_pass(inp, layers[:-1], layers[-1], acts)
    B = out.shape[0]
    diff = out - np.asarray(V_target, dtype=dtype)
    loss = float(np.sum(diff * diff)) / B
    return loss, _backward(layers, acts, 2.0 * diff / B)[0]


# what both trainers keep their weights, gradients and Adam moments in
TRAIN_DTYPE = np.float32


def astype(arrays: dict[str, np.ndarray], dtype) -> dict[str, np.ndarray]:
    """A copy of each array of a parameter dict, in dtype."""
    return {k: a.astype(dtype) for k, a in arrays.items()}


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
    """Copy params, m and v into flat buffers of the params' dtype and point
    every dict entry at its view, so the dicts stay the source of truth after
    any update."""
    keys = tuple(params)
    n = sum(params[k].size for k in keys)
    dtype = np.result_type(*params.values())
    p, m, v = np.empty(n, dtype), np.empty(n, dtype), np.empty(n, dtype)
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
    return _FlatAdam(keys=keys, views=tuple(views), p=p, m=m, v=v, g=np.empty(n, dtype),
                     tmp=np.empty(n, dtype))


def _is_bound(flat: _FlatAdam | None, params: dict[str, np.ndarray], state: AdamState) -> bool:
    return (flat is not None and len(params) == len(flat.keys)
            and all(params.get(k) is p and state.m.get(k) is m and state.v.get(k) is v
                    for k, (p, m, v) in zip(flat.keys, flat.views)))


def init_adam(params: dict[str, np.ndarray], lr: float) -> AdamState:
    """Zero moments for params. The entries of params are replaced by views
    into the optimizer's flat buffer: keep training through this dict."""
    st = AdamState(lr=lr)
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
# policy bundle: model + normalization + flow parameters + state convention
# ---------------------------------------------------------------------------

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
        """Row T is time_features(T / h), the only times a horizon visits:
        action T reads it, and training gathers the rows of its sampled
        grid times.

        Built one row at a time through time_features, so every row is the
        one a per-call computation gives, bit for bit.
        """
        h = self.flow.h
        if self._time_table is None or self._time_table[0] != h:
            self._time_table = (h, np.stack([time_features(T / float(h)) for T in range(h)]))
        return self._time_table[1]

    def inputs(self, alpha_norm: np.ndarray, obs_features: np.ndarray) -> Inputs:
        """The inputs for the actions generated from one observation, or from
        one observation per row (see Inputs); pass them to each action."""
        return Inputs(self.model, alpha_norm, obs_features)

    def action(self, inputs: Inputs, alpha_norm: np.ndarray, T: int):
        """Generate the action at index T, 0 <= T < h, of the horizon inputs
        were built for, from the ledger alpha_norm (one row per stack row):
        writes alpha_norm and time_table()[T] into inputs and returns the
        (normalized, raw) pair. A stack's rows get the bits each gets alone."""
        h = self.flow.h
        if not 0 <= T < h:
            raise ValueError(f"action index {T} outside the horizon [0, {h})")
        inputs.x[...] = alpha_norm
        inputs.tf[...] = self.time_table()[T]
        a_norm = flowmatch.extract_action(forward(inputs), h)
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
    """Returns (Policy, AdamState | None, iteration | None). Raises
    CheckpointError naming the file when the metadata lacks a field or its
    sizes (action_dim, obs_dim, hidden) do not give the stored layer shapes."""
    _, arrays, config = read_container(path, expect_tag=TAG_VELOCITY_POLICY)
    try:
        stats = NormStats(q_min=arrays["norm.q_min"], q_max=arrays["norm.q_max"], scale=arrays["norm.scale"])
        flow = FlowParams(k=config["flow"]["k"], sigma0=config["flow"]["sigma0"], h=int(config["flow"]["h"]))
        model = VelocityModel(
            action_dim=int(config["action_dim"]),
            obs_dim=int(config["obs_dim"]),
            hidden=tuple(int(x) for x in config["hidden"]),
            params={k[len("model."):]: v for k, v in arrays.items() if k.startswith("model.")},
        )
        policy = Policy(model=model, stats=stats, flow=flow, alpha0_convention=config["alpha0"])
        a = config.get("adam")
        adam = None if a is None else AdamState(lr=a["lr"], beta1=a["beta1"], beta2=a["beta2"],
                                                eps=a["eps"], step=int(a["step"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: missing or ill-typed policy metadata: {exc!r}") from exc
    check_shapes(path, "policy", _param_shapes(model.action_dim, model.obs_dim, model.hidden),
                 model.params)
    if adam is not None:
        adam.m = {k[len("adam_m."):]: v for k, v in arrays.items() if k.startswith("adam_m.")}
        adam.v = {k[len("adam_v."):]: v for k, v in arrays.items() if k.startswith("adam_v.")}
    return policy, adam, config.get("iteration")
