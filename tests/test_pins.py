"""Bitwise pins on the fixture demos and networks: the sha256 of both
variants' demo datasets and of ctrl_policy and ctrl_predictor saved as
scripts/checkpoint_digest.py saves them, scripts/golden_digest.py's grid,
timeline and calibration digests on each env variant, and its score digest
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

from conftest import CTRL, DEMO_SEED, DIRECT, RECIPE
from streampolicy.core import save_dataset
from streampolicy.envsim import env_metadata
from streampolicy.saliency import save_predictor
from streampolicy.velocitynet import save_policy

PINNED_STACK = "numpy 2.4.6, scipy-openblas 0.3.31.188.0"
CTRL_DATASET_SHA256 = "9b0467c7a58c97e4b94798df77b38152089bec475353fe932d8b1f32b576ecb9"
DIRECT_DATASET_SHA256 = "943766a3a8e8008a808df24de47b6464b99827413d4c33e3c960283d2c45e5fb"
CTRL_POLICY_SHA256 = "3005e448e726b0c3e5341c7d42ea5c8edeaa0791dc633299d1b0253b988bd9cf"
CTRL_PREDICTOR_SHA256 = "40cafa1747564fe08b769c3b08c462cd55010f6ebca0ff0715c26873ea4502e0"
# (sha256, episodes, executed actions) of the grid, with ctrl_predictor
GOLDEN_CTRL = ("50e1a4d7acfd5b8a1827b567cd889ba54416d754536e27c517b65c72c403b44e", 576, 13512)
GOLDEN_DIRECT = ("b6edb1812bd8681c46706e8b197482152d8a0e92f37118c44ae95d9242772b5d", 576, 12972)
# (sha256, episodes, events) of the grid's event logs at golden.WALL_PROFILE, with ctrl_predictor
TIMELINE_CTRL = ("777273b4943f0f4b6613ee79e2bb8a6f86c76317a1a306b0d3055e66d7bd310f", 96, 8095)
TIMELINE_DIRECT = ("94686677b0698195f49d7ab31aef34b178ae978dc89f00a6c5460688a72787f6", 96, 7785)
# (sha256, episodes, actions) of the calibration trajectories behind the grid's thresholds
CALIB_CTRL = ("2332671995b7c58f36bbe843f989b42b6c2bdc1e7ba1b0eb882ed9649d1894e0", 10, 315)
CALIB_DIRECT = ("8e3e763f21d2d4565ce6b5f76c1811d1b09a285a9dec4eea53e52468af3c3909", 10, 286)
# (sha256, scores) of ctrl_predictor's decision scores, both scored modes, n_eo 1 to 4
SCORES_CTRL = ("f8f0eccf3b48dee10eb0afb5af6af5ef84aa1871d3434e2651a5a2cc52a7873e", 240)
SCORES_DIRECT = ("0158e94b6f70feffb560f57b2b8775719cba31a2f7860cb8dff9b33caf23164b", 168)
SCORES_DEMOS = ("b4204ebae8d15a23bd83e9690af42819e3733b7efa5fc046178a012caf854c2d", 19200)

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
