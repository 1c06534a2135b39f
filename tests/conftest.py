"""Shared fixtures. The trained-policy fixtures are expensive (about 8–9 s each,
the predictor about 1.3–1.6 s, on a 2-CPU x86-64 host with OpenBLAS at one thread)
and session-scoped; everything that needs a competent policy shares them. Seeds
are frozen so every run trains byte-identical models.

`scripts/checkpoint_digest.py` trains the ctrl_policy and ctrl_predictor
recipe and prints the sha256 of both checkpoints."""

import os

# at these matrix sizes a second BLAS thread costs CPU time and buys no speed;
# one thread trains the same weights (scripts/checkpoint_digest.py prints the
# same digests at one and two). Set before numpy is first imported, or it is
# ignored.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from streampolicy import envsim, streamexec  # noqa: E402
from streampolicy.core import Trajectory  # noqa: E402
from streampolicy.envsim import (  # noqa: E402
    EXPERT_NOISE, EXPERT_PARK_STEPS, EnvKind, KIND_CONTROLLER, KIND_DIRECT, generate_demos,
)
from streampolicy.saliency import PredictorConfig, train_predictor  # noqa: E402
from streampolicy.trainer import TrainConfig, train  # noqa: E402

CTRL = EnvKind(variant=KIND_CONTROLLER)
DIRECT = EnvKind(variant=KIND_DIRECT)

# the training recipe all quality tests use: 16k iterations stays under the
# iteration budget while reaching full success on both env variants
RECIPE = TrainConfig(iterations=16000, batch_size=128, lr=2e-3,
                     lr_schedule="cosine", seed=0, hidden=(128, 128))
# RECIPE with every window ledger seeded at zero: the alignment ablation
MISALIGNED = TrainConfig(iterations=RECIPE.iterations, batch_size=RECIPE.batch_size,
                         lr=RECIPE.lr, lr_schedule=RECIPE.lr_schedule, seed=RECIPE.seed,
                         hidden=RECIPE.hidden, use_state_alignment=False)
DEMO_COUNT = 600
DEMO_SEED = 11


def expert_episode(kind, state, rng, step_cap=120, noise=EXPERT_NOISE):
    """The expert's episode from state: envsim.rollout_rows on a batch of one
    with the action rule generate_demos gives an attempt, the whole noise
    block drawn from rng first. Returns (Trajectory, ok)."""
    steps = step_cap + EXPERT_PARK_STEPS
    block = rng.normal(0.0, noise, size=(1, steps, 2)) if noise else None
    features, actions, lengths, ok = envsim.rollout_rows(
        kind, [state], envsim._expert_act(block), step_cap, EXPERT_PARK_STEPS)
    n = lengths[0]
    return envsim.rollout_trajectory(kind, state, features[0, :n], actions[0, :n]), bool(ok[0])


@pytest.fixture(scope="session")
def ctrl_env():
    return CTRL


@pytest.fixture(scope="session")
def direct_env():
    return DIRECT


@pytest.fixture(scope="session")
def ctrl_demos():
    return generate_demos(CTRL, DEMO_COUNT, seed=DEMO_SEED)


@pytest.fixture(scope="session")
def direct_demos():
    return generate_demos(DIRECT, DEMO_COUNT, seed=DEMO_SEED)


@pytest.fixture(scope="session")
def small_demos():
    """A light dataset for structural tests that do not need a good policy."""
    return generate_demos(CTRL, 40, seed=21)


@pytest.fixture(scope="session")
def ragged_demos(small_demos):
    """small_demos with every other episode cut short (1 to 11 actions), so
    samplers meet episodes shorter than the window or the largest gap."""
    cuts = (1, 2, 3, 5, 9, 10, 11)
    out = []
    for i, t in enumerate(small_demos):
        n = cuts[(i // 2) % len(cuts)] if i % 2 else len(t)
        out.append(Trajectory(features=t.features[:n], actions=t.actions[:n], alpha0=t.alpha0))
    return out


@pytest.fixture(scope="session")
def ctrl_training(ctrl_demos):
    """ctrl_policy with its final Adam state, which its checkpoint pin saves."""
    policy, adam, _ = train(ctrl_demos, RECIPE, alpha0_convention="zero")
    return policy, adam


@pytest.fixture(scope="session")
def ctrl_policy(ctrl_training):
    return ctrl_training[0]


@pytest.fixture(scope="session")
def direct_policy(direct_demos):
    policy, _, _ = train(direct_demos, RECIPE, alpha0_convention="initial_position")
    return policy


@pytest.fixture(scope="session")
def misaligned_training(ctrl_demos):
    """Identical budget and seeds, but training windows seed their ledgers at
    zero instead of the precomputed prefix sums; with the final Adam state,
    which its checkpoint pin saves."""
    policy, adam, _ = train(ctrl_demos, MISALIGNED, alpha0_convention="zero")
    return policy, adam


@pytest.fixture(scope="session")
def misaligned_policy(misaligned_training):
    return misaligned_training[0]


@pytest.fixture(scope="session")
def ctrl_predictor(ctrl_demos):
    predictor, _ = train_predictor(ctrl_demos, PredictorConfig(seed=0))
    return predictor


@pytest.fixture(scope="session")
def idle_policy(small_demos):
    """Untrained (zero-iteration) policy: near-zero actions, never succeeds.
    Timing and ledger tests want full-length episodes, not task skill."""
    cfg = TrainConfig(iterations=0, batch_size=8, lr=1e-3, hidden=(16, 16), seed=0)
    policy, _, _ = train(small_demos, cfg, alpha0_convention="zero")
    return policy


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class VirtualClock:
    """streamexec._Clock's stand-in: sleeping to a time moves the clock
    there at once, and host work takes no time, so every wall event ends at
    its planned end."""

    def __init__(self):
        self.t = 0.0

    def now(self) -> float:
        return self.t

    def sleep_until(self, ms: float) -> None:
        self.t = max(self.t, ms)


@pytest.fixture()
def virtual_clock(monkeypatch):
    """Runs every wall-clock episode of the test on a VirtualClock."""
    monkeypatch.setattr(streamexec, "_Clock", VirtualClock)
