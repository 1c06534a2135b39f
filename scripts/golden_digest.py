"""Print one sha256 over simulated episodes on a fixed configuration grid.

Runs streamexec.run_episodes on the simulated clock for every combination
of scheduling configuration (sync_full, sync_replan1, sync_replan5, and
streaming with no early observation and with each indicator), stage
profile (zero, reference, generator-bound), step cap (three of them end
mid-horizon) and trajectory recording on and off, and hashes every field
of every EpisodeResult: events, raw and normalized actions, the final
ledger, the final environment state, the counters and the recorded
trajectory. Two checkouts that print the same digest for the same
checkpoints produce the same results on that grid.

Every cell of one episode and cap runs on the same EnvHandle, as `streampolicy
bench` runs every schedule on its episodes' handles. The grid runs twice: once
unshared, and once inside one streamexec.shared_horizons() scope, where the
cells share horizons and env paths. The script exits 1 if the two digests
differ (or the two timeline digests below), and prints the digest only when
they agree.

The anao and adaptive thresholds are calibrated at a 50% firing rate on
streamexec.calibration_trajectories of the given policy, so those indicators
both fire and hold on the grid. golden_digest() is the whole computation;
tests/test_pins.py calls it on the test suite's fixture networks and pins
the digest for both env variants.

The script also prints a sha256 of those calibration trajectories
(calibration_digest()) and one of every decision score on them
(score_digest()), which tests/test_pins.py pins too: the grid digest sees a
change to a calibration rollout or a one-ulp change to a score only if it
moves a threshold, these see any. The grid's profiles add exactly in binary,
so no grid event time can move by an ulp; timeline_digest(), pinned too,
hashes the event logs of the grid's configurations and caps at the wall
workload's profile (WALL_PROFILE, whose decimal latencies round when
added), unshared and in one shared_horizons() scope, and sees any such move.

    PYTHONPATH=src python3 scripts/golden_digest.py \\
        --policy policy.ckpt --predictor predictor.ckpt [--env controller] [--episodes 3]
"""

from __future__ import annotations

import argparse
import hashlib
import struct
import sys

import numpy as np

from streampolicy import envsim, saliency, streamexec
from streampolicy.velocitynet import load_policy

PROFILES = {
    "zero": streamexec.ZERO_LATENCY,
    "reference": streamexec.REFERENCE_PROFILE,
    "generator_bound": streamexec.StageLatency(t_obs=2.0, t_gen=4.0, t_exec=1.0, t_pred=0.5),
}
CAPS = (7, 23, 42, 120)
# the reference profile at the wall workload's 1/10 scale (perfbench/wl_wall.py)
_REF = streamexec.REFERENCE_PROFILE
WALL_PROFILE = streamexec.StageLatency(_REF.t_obs * 0.1, _REF.t_gen * 0.1, _REF.t_exec * 0.1,
                                       _REF.t_pred * 0.1)
N_EO = 3
CALIB_EPISODES = 10
CALIB_CAP = 42
CALIB_RATE = 0.5
SCORE_N_EO = (1, 2, 3, 4)


def calibration_set(policy, kind) -> list:
    """The rollouts the grid's thresholds are calibrated on."""
    return streamexec.calibration_trajectories(policy, kind, 1, CALIB_EPISODES, CALIB_CAP)


def _calibrated_etas(policy, predictor, kind) -> dict[str, float]:
    trajs = calibration_set(policy, kind)
    etas = {}
    for mode in (saliency.EO_ACTION_NORM, saliency.EO_ADAPTIVE):
        scores = saliency.decision_scores(predictor, trajs, policy.flow.h, N_EO, mode)
        etas[mode] = saliency.calibrate_threshold(scores, CALIB_RATE)
    return etas


def configs(h: int, etas: dict[str, float], seed: int) -> list[tuple[str, streamexec.SchedulerConfig]]:
    out = [(f"sync_replan{n}", streamexec.SchedulerConfig(
        mode=streamexec.MODE_SYNC_CHUNK, h=h, n_replan=n, seed=seed)) for n in (h, 1, 5)]
    out.append(("streaming", streamexec.SchedulerConfig(mode=streamexec.MODE_STREAMING, h=h, seed=seed)))
    indicators = [saliency.Indicator(mode=saliency.EO_NAIVE),
                  saliency.Indicator(mode=saliency.EO_RANDOM, p=0.5),
                  saliency.Indicator(mode=saliency.EO_ACTION_NORM, eta=etas[saliency.EO_ACTION_NORM]),
                  saliency.Indicator(mode=saliency.EO_ADAPTIVE, eta=etas[saliency.EO_ADAPTIVE])]
    for ind in indicators:
        out.append((f"streaming_{ind.mode}", streamexec.SchedulerConfig(
            mode=streamexec.MODE_STREAMING, h=h, eo=ind, n_eo=N_EO, seed=seed)))
    return out


def _feed_array(hasher, a) -> None:
    a = np.ascontiguousarray(a, dtype="<f8")
    hasher.update(repr(a.shape).encode())
    hasher.update(a.tobytes())


def feed_events(hasher, events) -> None:
    """Every field of each TimelineEvent, times by their exact bytes."""
    for ev in events:
        hasher.update(f"{ev.stage}|{ev.action_index}|{ev.horizon_index}|".encode())
        hasher.update(struct.pack("<dd", ev.start, ev.end))


def feed_result(hasher, res: streamexec.EpisodeResult) -> None:
    """Every field of an EpisodeResult, floats by their exact bytes."""
    feed_events(hasher, res.events)
    _feed_array(hasher, res.actions_raw)
    _feed_array(hasher, res.actions_norm)
    _feed_array(hasher, res.final_alpha)
    st = res.final_state
    _feed_array(hasher, st.position)
    _feed_array(hasher, st.goal)
    hasher.update(f"{st.latch}|{st.step_count}|{res.success}|{res.n_horizons}|"
                  f"{res.eo_fired}|{res.eo_decisions}|{res.steps}|".encode())
    if res.trajectory is None:
        hasher.update(b"no-trajectory")
        return
    feed_trajectory(hasher, res.trajectory)


def feed_trajectory(hasher, traj) -> None:
    """Every frame (its features, id and capture time), action and ledger
    state of a Trajectory."""
    for features, frame_id, t in zip(traj.features, traj.frame_ids.tolist(),
                                     traj.capture_times.tolist()):
        _feed_array(hasher, features)
        hasher.update(f"{frame_id}|".encode())
        hasher.update(struct.pack("<d", t))
    _feed_array(hasher, traj.actions)
    _feed_array(hasher, traj.action_states)


def calibration_digest(policy, kind) -> tuple[str, int, int]:
    """(sha256 hex digest, episodes, actions) of the calibration trajectories
    the grid's thresholds are calibrated on. Apart from the pinned grid
    digest, it moves on any change to a calibration rollout, also one that
    moves no order statistic of the scores and so no threshold."""
    trajs = calibration_set(policy, kind)
    hasher = hashlib.sha256()
    for ep, traj in enumerate(trajs):
        hasher.update(f"{ep}|".encode())
        feed_trajectory(hasher, traj)
    return hasher.hexdigest(), len(trajs), sum(len(t) for t in trajs)


def score_digest(predictor, trajs, h: int) -> tuple[str, int]:
    """(sha256 hex digest, scores) of saliency.decision_scores' bytes on
    trajs at horizon h, for each scored mode (outer) and each n_eo of
    SCORE_N_EO. Apart from the grid digest, it moves on a one-ulp change to
    any score, also one that flips no decision."""
    hasher = hashlib.sha256()
    n_scores = 0
    for mode in saliency.SCORED_MODES:
        for n_eo in SCORE_N_EO:
            scores = saliency.decision_scores(predictor, trajs, h, n_eo, mode)
            hasher.update(scores.tobytes())
            n_scores += scores.size
    return hasher.hexdigest(), n_scores


def grid_digest(policy, predictor, etas, envs, seed) -> tuple[str, int, int]:
    """(sha256 hex digest, episodes, executed actions) of the whole grid."""
    hasher = hashlib.sha256()
    for mode in sorted(etas):
        hasher.update(struct.pack("<d", etas[mode]))
    n_episodes = n_actions = 0
    for label, sched in configs(policy.flow.h, etas, seed):
        for pname, stage in PROFILES.items():
            for cap in CAPS:
                for record in (False, True):
                    for ep, res in enumerate(streamexec.run_episodes(
                            policy, predictor, envs[cap], stage, sched, record_trajectory=record)):
                        hasher.update(f"{label}|{pname}|{cap}|{record}|{ep}|".encode())
                        feed_result(hasher, res)
                        n_episodes += 1
                        n_actions += res.steps
    return hasher.hexdigest(), n_episodes, n_actions


def _events_digest(policy, predictor, etas, envs, seed) -> tuple[str, int, int]:
    """(sha256 hex digest, episodes, events) of the event logs of every
    configuration and cap of the grid at WALL_PROFILE."""
    hasher = hashlib.sha256()
    n_episodes = n_events = 0
    for label, sched in configs(policy.flow.h, etas, seed):
        for cap in CAPS:
            for ep, res in enumerate(streamexec.run_episodes(
                    policy, predictor, envs[cap], WALL_PROFILE, sched)):
                hasher.update(f"{label}|{cap}|{ep}|".encode())
                feed_events(hasher, res.events)
                n_episodes += 1
                n_events += len(res.events)
    return hasher.hexdigest(), n_episodes, n_events


def _both_scopes(digest, policy, predictor, kind, episodes: int, seed: int) -> tuple[str, str, int, int]:
    """(unshared digest, shared-scope digest, episodes, count) of
    digest(policy, predictor, etas, envs, seed) on episodes episodes per cap
    of kind, with calibrated thresholds."""
    etas = _calibrated_etas(policy, predictor, kind)
    envs = {cap: [envsim.make_env(kind, seed, ep, step_cap=cap) for ep in range(episodes)]
            for cap in CAPS}
    unshared, n_episodes, count = digest(policy, predictor, etas, envs, seed)
    with streamexec.shared_horizons():
        shared, _, _ = digest(policy, predictor, etas, envs, seed)
    return unshared, shared, n_episodes, count


def golden_digest(policy, predictor, kind, episodes: int = 3,
                  seed: int = 0) -> tuple[str, str, int, int]:
    """(unshared digest, shared-scope digest, episodes, executed actions) of
    the grid on episodes episodes per cell of kind, with calibrated thresholds."""
    return _both_scopes(grid_digest, policy, predictor, kind, episodes, seed)


def timeline_digest(policy, predictor, kind, episodes: int = 3,
                    seed: int = 0) -> tuple[str, str, int, int]:
    """(unshared digest, shared-scope digest, episodes, events) of the event
    logs of the grid's configurations and caps at WALL_PROFILE, on episodes
    episodes per cap of kind, with calibrated thresholds."""
    return _both_scopes(_events_digest, policy, predictor, kind, episodes, seed)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--policy", required=True)
    ap.add_argument("--predictor", required=True)
    ap.add_argument("--env", default=envsim.KIND_CONTROLLER,
                    choices=[envsim.KIND_DIRECT, envsim.KIND_CONTROLLER])
    ap.add_argument("--episodes", type=int, default=3, help="episodes per grid cell")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.episodes < 1:
        ap.error(f"--episodes must be at least 1, got {args.episodes}")

    policy, _, _ = load_policy(args.policy)
    predictor = saliency.load_predictor(args.predictor)
    kind = envsim.EnvKind(variant=args.env)
    digest, shared, n_episodes, n_actions = golden_digest(policy, predictor, kind, args.episodes,
                                                          args.seed)
    print(f"episodes {n_episodes}, executed actions {n_actions}")
    calib, calib_episodes, calib_actions = calibration_digest(policy, kind)
    print(f"calibration: episodes {calib_episodes}, actions {calib_actions}, sha256 {calib}")
    scores, n_scores = score_digest(predictor, calibration_set(policy, kind), policy.flow.h)
    print(f"calibration scores: {n_scores} scores, sha256 {scores}")
    timeline, timeline_shared, t_episodes, n_events = timeline_digest(
        policy, predictor, kind, args.episodes, args.seed)
    if (shared, timeline_shared) != (digest, timeline):
        print(f"unshared sha256 {digest}, timeline {timeline} != shared-scope sha256 {shared}, "
              f"timeline {timeline_shared}", file=sys.stderr)
        return 1
    print(f"timeline at the wall profile: episodes {t_episodes}, events {n_events}, sha256 {timeline}")
    print(f"sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
