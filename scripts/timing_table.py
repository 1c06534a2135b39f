"""Reproduce the latency table: closed forms next to simulated measurements.

Uses an untrained policy so the episodes run to a fixed 20 horizons; the
timing algebra only depends on the schedule, not on task skill. Runs in a
couple of seconds, no artifacts needed.

    python3 scripts/timing_table.py [--profile reference|zero|t_obs,t_gen,t_exec[,t_pred]]

It then prints the per-action and halt speedups of streaming, with and
without early observation, over each of the two sync baselines (sync_full
and bench's default sync_replan5), next to the paper's 2.4x and 6.5x: the
baseline decides the ratio.

A profile the closed forms do not cover (a generator-bound one, t_gen >
t_exec) or a malformed one prints the error and exits 2, as the CLI does.
"""

import argparse
import sys

from streampolicy import envsim, metrics, streamexec
from streampolicy.cli import CliError, _parse_profile
from streampolicy.envsim import EnvKind, KIND_CONTROLLER
from streampolicy.saliency import EO_NAIVE, Indicator
from streampolicy.trainer import TrainConfig, train

H = 10
PAPER_LATENCY_X, PAPER_HALT_X = 2.4, 6.5


def _ratio(base, new, key: str) -> str:
    """base over new for key, closed form / simulated; inf when new hides it."""
    (cf_b, rep_b), (cf_n, rep_n) = base, new
    measured = "t_action_steady" if key == "t_action" else key
    return " / ".join(f"{b / n:.2f}x" if n > 0 else "inf"
                      for b, n in ((cf_b[key], cf_n[key]),
                                   (getattr(rep_b, measured), getattr(rep_n, measured))))


def untrained_policy():
    kind = EnvKind(variant=KIND_CONTROLLER)
    demos = envsim.generate_demos(kind, 30, seed=21)
    cfg = TrainConfig(iterations=0, batch_size=8, hidden=(16, 16), seed=0)
    policy, _, _ = train(demos, cfg, alpha0_convention="zero")
    return policy, kind


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--profile", default="reference",
                    help="'reference', 'zero' or t_obs,t_gen,t_exec[,t_pred] in ms")
    args = ap.parse_args()
    rows = [
        ("sync_replan5",
         streamexec.SchedulerConfig(mode=streamexec.MODE_SYNC_CHUNK, n_replan=5),
         dict(mode=streamexec.MODE_SYNC_CHUNK, n_replan=5)),
        ("sync_full",
         streamexec.SchedulerConfig(mode=streamexec.MODE_SYNC_CHUNK),
         dict(mode=streamexec.MODE_SYNC_CHUNK)),
        ("streaming",
         streamexec.SchedulerConfig(mode=streamexec.MODE_STREAMING),
         dict(mode=streamexec.MODE_STREAMING)),
        ("streaming+eo(n_eo=2)",
         streamexec.SchedulerConfig(mode=streamexec.MODE_STREAMING,
                                    eo=Indicator(mode=EO_NAIVE), n_eo=2),
         dict(mode=streamexec.MODE_STREAMING, n_eo_avg=2.0)),
    ]
    try:
        stage = _parse_profile(args.profile)
        predicted = [metrics.closed_form(stage, H, **cf_kwargs) for *_, cf_kwargs in rows]
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    policy, kind = untrained_policy()

    print(f"profile t_obs={stage.t_obs:g} t_gen={stage.t_gen:g} "
          f"t_exec={stage.t_exec:g} ms, h={H}, 20-horizon simulated episodes")
    hdr = (f"{'config':<22s} {'t_action':>9s} {'(pred)':>8s} {'t_halt':>8s} {'(pred)':>8s} "
           f"{'o_ge/hor':>9s} {'(pred)':>8s} {'o_oe/hor':>9s} {'(pred)':>8s}")
    print(hdr)
    print("-" * len(hdr))
    table = {}  # config -> (closed form, simulated report)
    for (name, sched, _), cf in zip(rows, predicted):
        env = envsim.make_env(kind, 0, step_cap=20 * H)
        result = streamexec.run_episode(policy, None, env, stage, sched)
        rep = metrics.measure(result.events)
        table[name] = (cf, rep)
        print(f"{name:<22s} {rep.t_action_steady:>9.2f} {cf['t_action']:>8.2f} "
              f"{rep.t_halt:>8.2f} {cf['t_halt']:>8.2f} "
              f"{rep.o_ge_per_horizon:>9.2f} {cf['o_ge']:>8.2f} "
              f"{rep.o_oe_per_horizon:>9.2f} {cf['o_oe']:>8.2f}")

    print(f"\nspeedups over each baseline, closed form / simulated "
          f"(the paper reports {PAPER_LATENCY_X:g}x per action and {PAPER_HALT_X:g}x halt)")
    print(f"{'config':<22s} {'baseline':<14s} {'t_action':>17s} {'t_halt':>17s}")
    for name in ("streaming", "streaming+eo(n_eo=2)"):
        for base in ("sync_full", "sync_replan5"):
            print(f"{name:<22s} {base:<14s} "
                  f"{_ratio(table[base], table[name], 't_action'):>17s} "
                  f"{_ratio(table[base], table[name], 't_halt'):>17s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
