"""Bitwise pins on the fixture demos and networks: the sha256 of both
variants' demo datasets, of ctrl_policy and ctrl_predictor saved as
scripts/checkpoint_digest.py saves them and of misaligned_policy (the
unaligned-ledger path) saved as ctrl_policy is, scripts/golden_digest.py's
grid, timeline and calibration digests on each env variant, and its score digest
of ctrl_predictor's decision scores on both calibration sets and ctrl_demos.
The calibration digest moves on any change to a calibration rollout and the
score digest on a one-ulp change to any score; the grid digest sees either
only if it moves a threshold. The grid's profiles add exactly in binary;
the timeline digest, at the wall workload's profile, moves on a one-ulp
change to any event time. A change that claims to
keep every weight and every simulated result bit for bit keeps these pins; a
change that alters them on purpose updates them and says why.

The pins were taken on PINNED_STACK (x86-64, OpenBLAS at one thread). Another
numpy or BLAS may round differently: there the tests fail, and the message
names the stack and the digest it got."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np

from conftest import CTRL, DEMO_SEED, DIRECT, MISALIGNED, RECIPE
from streampolicy.core import save_dataset
from streampolicy.envsim import env_metadata
from streampolicy.saliency import save_predictor
from streampolicy.velocitynet import save_policy

PINNED_STACK = "numpy 2.4.6, scipy-openblas 0.3.31.188.0"
CTRL_DATASET_SHA256 = "9b0467c7a58c97e4b94798df77b38152089bec475353fe932d8b1f32b576ecb9"
DIRECT_DATASET_SHA256 = "943766a3a8e8008a808df24de47b6464b99827413d4c33e3c960283d2c45e5fb"
CTRL_POLICY_SHA256 = "01be65c80937c340ebbe6adbe6d14338dfb8be2f03c9793d39d520bd9c7f01bc"
CTRL_PREDICTOR_SHA256 = "2e368ec1ff9e9b57ad922049b099e3012bed33cefba81c1f98aa1a4edd09edad"
# saved with its Adam state and iteration count, as ctrl_policy is
MISALIGNED_POLICY_SHA256 = "5be746348e85d570b1daf45172fc98854018c806bb8a6cfaee7d4a8fc8534193"
# (sha256, episodes, executed actions) of the grid, with ctrl_predictor
GOLDEN_CTRL = ("408ae533bd0320119a2899e7df4a818de11f5678dece387885ce3596a2a76dca", 576, 13512)
GOLDEN_DIRECT = ("130e7ad58392f77eeef5724e68f1e40c101f104e3b54b374e5368c80ecade69e", 576, 12972)
# (sha256, episodes, events) of the grid's event logs at golden.WALL_PROFILE, with ctrl_predictor
TIMELINE_CTRL = ("777273b4943f0f4b6613ee79e2bb8a6f86c76317a1a306b0d3055e66d7bd310f", 96, 8095)
TIMELINE_DIRECT = ("94686677b0698195f49d7ab31aef34b178ae978dc89f00a6c5460688a72787f6", 96, 7785)
# (sha256, episodes, actions) of the calibration trajectories behind the grid's thresholds
CALIB_CTRL = ("0edce00b8707bb409419a4222b362b4be88a66d3fa970d21ed3eb3ed73ffe58e", 10, 315)
CALIB_DIRECT = ("e849953143f30d780543cec197cca87e3bb75a050b0b2c25877639cd595afd05", 10, 286)
# (sha256, scores) of ctrl_predictor's decision scores, both scored modes, n_eo 1 to 4
SCORES_CTRL = ("b143385dcf9c4b34fb6d9f8008acdb8558276aa8b2029991855160218c6caff7", 240)
SCORES_DIRECT = ("7cf1f7a9bbbeb449715f7d1bcaa37cd967b4ae94727a19cc8194dc6387b128e1", 168)
SCORES_DEMOS = ("983b690b47f5f3af532bce09ecd338f471a15c18417d9bcccb14a56c6ece4f6d", 19200)

_spec = importlib.util.spec_from_file_location(
    "golden_digest", Path(__file__).resolve().parent.parent / "scripts" / "golden_digest.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def _stack() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"numpy {np.__version__}, {blas['name']} {blas['version']}"
    except (TypeError, KeyError, AttributeError):
        return f"numpy {np.__version__}, unknown BLAS"


def _check_pin(what: str, got, pinned) -> None:
    assert got == pinned, f"{what}: got {got} on {_stack()}; pinned {pinned} on {PINNED_STACK}"


def test_fixture_datasets_are_pinned(ctrl_demos, direct_demos, tmp_path):
    """The file bytes of both variants' fixture demos, saved as gen-data
    saves them."""
    for what, demos, kind, pinned in (("controller", ctrl_demos, CTRL, CTRL_DATASET_SHA256),
                                      ("direct", direct_demos, DIRECT, DIRECT_DATASET_SHA256)):
        path = tmp_path / f"{what}.bin"
        save_dataset(path, demos, dim=demos[0].actions.shape[1], env_meta=env_metadata(kind),
                     seed=DEMO_SEED)
        _check_pin(f"{what} dataset sha256", hashlib.sha256(path.read_bytes()).hexdigest(), pinned)


def test_fixture_checkpoints_are_pinned(ctrl_training, ctrl_predictor, tmp_path):
    policy, adam = ctrl_training
    save_policy(tmp_path / "policy.ckpt", policy, adam=adam, iteration=RECIPE.iterations)
    save_predictor(tmp_path / "predictor.ckpt", ctrl_predictor)
    for name, pinned in (("policy", CTRL_POLICY_SHA256), ("predictor", CTRL_PREDICTOR_SHA256)):
        digest = hashlib.sha256((tmp_path / f"{name}.ckpt").read_bytes()).hexdigest()
        _check_pin(f"ctrl_{name} sha256", digest, pinned)


def test_misaligned_checkpoint_is_pinned(misaligned_training, tmp_path):
    """The alignment ablation's weights and Adam state: every training window
    ledger seeded at zero instead of its start state."""
    policy, adam = misaligned_training
    path = tmp_path / "misaligned.ckpt"
    save_policy(path, policy, adam=adam, iteration=MISALIGNED.iterations)
    _check_pin("misaligned_policy sha256", hashlib.sha256(path.read_bytes()).hexdigest(),
               MISALIGNED_POLICY_SHA256)


def test_golden_grid_is_pinned(ctrl_policy, direct_policy, ctrl_predictor):
    """Every result field of the grid, unshared and inside one
    shared_horizons() scope, on both variants."""
    for what, policy, kind, pinned in (("controller", ctrl_policy, CTRL, GOLDEN_CTRL),
                                       ("direct", direct_policy, DIRECT, GOLDEN_DIRECT)):
        digest, shared, n_episodes, n_actions = golden.golden_digest(policy, ctrl_predictor, kind)
        _check_pin(f"{what} golden grid (sha256, episodes, actions)",
                   (digest, n_episodes, n_actions), pinned)
        assert shared == digest, f"{what}: shared-scope sha256 {shared} != unshared {digest}"


def test_timeline_at_the_wall_profile_is_pinned(ctrl_policy, direct_policy, ctrl_predictor):
    """Every event time of the grid's configurations and caps at the wall
    workload's profile, whose latencies round when added, unshared and
    inside one shared_horizons() scope, on both variants."""
    for what, policy, kind, pinned in (("controller", ctrl_policy, CTRL, TIMELINE_CTRL),
                                       ("direct", direct_policy, DIRECT, TIMELINE_DIRECT)):
        digest, shared, n_episodes, n_events = golden.timeline_digest(policy, ctrl_predictor, kind)
        _check_pin(f"{what} timeline (sha256, episodes, events)",
                   (digest, n_episodes, n_events), pinned)
        assert shared == digest, f"{what}: shared-scope sha256 {shared} != unshared {digest}"


def test_calibration_trajectories_are_pinned(ctrl_policy, direct_policy):
    """Every observation, action and ledger state of the rollouts the grid's
    thresholds are calibrated on, on both variants."""
    for what, policy, kind, pinned in (("controller", ctrl_policy, CTRL, CALIB_CTRL),
                                       ("direct", direct_policy, DIRECT, CALIB_DIRECT)):
        _check_pin(f"{what} calibration (sha256, episodes, actions)",
                   golden.calibration_digest(policy, kind), pinned)


def test_decision_scores_are_pinned(ctrl_policy, direct_policy, ctrl_demos, ctrl_predictor):
    """The bytes of every early-observation score ctrl_predictor's
    calibration gives, on both variants' calibration sets and on ctrl_demos."""
    h = ctrl_policy.flow.h
    for what, trajs, pinned in (
            ("controller calibration", golden.calibration_set(ctrl_policy, CTRL), SCORES_CTRL),
            ("direct calibration", golden.calibration_set(direct_policy, DIRECT), SCORES_DIRECT),
            ("ctrl_demos", ctrl_demos, SCORES_DEMOS)):
        _check_pin(f"{what} scores (sha256, scores)", golden.score_digest(ctrl_predictor, trajs, h),
                   pinned)
