"""train: policy training at the conftest recipe's shape, then the predictor.

Nearly all of the backward pass, Adam, window sampling and per-iteration
make_rng cost lives here, and none of the rollout engine does. It also
stands in for the Tier-1 suite, whose time is mostly fixture training.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace

import numpy as np

from common import OUT, Segments, derive_seeds, figure, setup_figure, sha256_file

DEMOS = 600
BLOCK = 50          # iterations per timing block
SETUPS = 3
# Iteration counts follow from --seconds through these nominal costs, not
# from the clock, so a seed and a run length always train the same weights.
NOMINAL_MS_PER_ITER = 2.6
POLICY_SHARE = 0.5
SHORT_ITERS = 2 * BLOCK  # the repeat that checks training is deterministic


def _iterations(seconds: float, share: float) -> int:
    n = seconds * share * 1e3 / NOMINAL_MS_PER_ITER
    return max(4, int(n // BLOCK)) * BLOCK


def _block_timer(blocks: list, speed):
    """Progress callback that records ms per iteration over BLOCK iterations,
    with a host-speed mark between blocks."""
    last = [None]

    def on_progress(i, *_):
        now = time.perf_counter()
        if i % BLOCK:
            return  # the final log row closes a partial block
        if last[0] is not None:
            blocks.append((last[0], now, (now - last[0]) / BLOCK * 1e3))
        last[0] = speed.mark()

    return on_progress


def _counting(ctx, sample_batch):
    """Counts training windows where they are sampled."""
    def counted(prep, cfg, rng):
        out = sample_batch(prep, cfg, rng)
        ctx.count("trainer.iterations")
        ctx.count("trainer.windows", out[0].shape[0])
        return out
    return counted


def _same_trajectories(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x.actions, y.actions) and np.array_equal(x.action_states, y.action_states)
        and all(np.array_equal(p.features, q.features) for p, q in zip(x.observations, y.observations))
        for x, y in zip(a, b))


def run(ctx) -> dict:
    sp = ctx.sp
    kind = sp.envsim.EnvKind(variant=sp.envsim.KIND_CONTROLLER)
    demo_seed, train_seed, pred_seed = derive_seeds(ctx.seed, 3)
    gates = []

    setups = []
    for _ in range(SETUPS):
        with ctx.span("bench.setup"):
            seg = Segments(ctx.speed)
            demos = sp.envsim.generate_demos(kind, DEMOS, demo_seed)
            seg.split()
            path = ctx.work / "demos.jsonl"
            sp.core.save_dataset(path, demos, dim=sp.core.ACTION_DIM,
                                 env_meta=sp.envsim.env_metadata(kind), seed=demo_seed)
            seg.split()
            loaded, header = sp.core.load_dataset(path)
            seg.split()
            setups.append(seg.totals())
        ctx.count("core.dataset_roundtrips")
    with ctx.span("bench.gates"):
        gates.append(("dataset round-trips bitwise", _same_trajectories(demos, loaded)))
    demos = loaded
    convention = header["env"]["alpha0"]

    n_policy = _iterations(ctx.seconds, POLICY_SHARE)
    n_pred = _iterations(ctx.seconds, 1.0 - POLICY_SHARE)
    recipe = sp.trainer.TrainConfig(iterations=n_policy, batch_size=128, lr=2e-3,
                                    lr_schedule="cosine", seed=train_seed, hidden=(128, 128),
                                    log_every=BLOCK)
    pred_cfg = sp.saliency.PredictorConfig(iterations=n_pred, seed=pred_seed)

    policy_ms, pred_ms = [], []
    sample_batch = sp.trainer._sample_batch
    if ctx.tracer is not None:
        sp.trainer._sample_batch = _counting(ctx, sample_batch)
    try:
        with ctx.span("bench.measure"):
            policy, adam, log = sp.trainer.train(demos, recipe, alpha0_convention=convention,
                                                 progress=_block_timer(policy_ms, ctx.speed))
            predictor, pred_log = sp.saliency.train_predictor(demos, pred_cfg,
                                                              progress=_block_timer(pred_ms, ctx.speed))
    finally:
        sp.trainer._sample_batch = sample_batch

    with ctx.span("bench.gates"):
        losses = [row[1] for row in log] + [row[1] for row in pred_log]
        gates.append(("losses finite", all(math.isfinite(x) for x in losses)))
        digests = _digests(sp, ctx.work, "full", policy, adam, n_policy, predictor)
        short = []
        for rep in range(2):
            p, a, _ = sp.trainer.train(demos, replace(recipe, iterations=SHORT_ITERS),
                                       alpha0_convention=convention)
            q, _ = sp.saliency.train_predictor(demos, replace(pred_cfg, iterations=SHORT_ITERS))
            short.append(_digests(sp, ctx.work, f"short{rep}", p, a, SHORT_ITERS, q))
        gates.append(("repeat training gives identical checkpoints", short[0] == short[1]))
        gates.append(("digests match earlier runs of this code and seed",
                      _check_digest_record(ctx, digests)))

    figures = {"setup_s": setup_figure(setups),
               "train_policy_ms_per_iter": figure(policy_ms, ctx.speed),
               "train_predictor_ms_per_iter": figure(pred_ms, ctx.speed)}
    return {
        "figures": figures,
        "end_to_end": {"setup_s": figures["setup_s"]["value"],
                       "main_op_ms": figures["train_policy_ms_per_iter"]["value"],
                       "second_op_ms": figures["train_predictor_ms_per_iter"]["value"]},
        "attempted": n_policy + n_pred + len(gates),
        "failed": sum(1 for _, ok in gates if not ok),
        "gates": gates,
        "extra": {"iterations": {"policy": n_policy, "predictor": n_pred},
                  "final_loss": {"policy": log[-1][1], "predictor": pred_log[-1][1]},
                  "checkpoint_sha256": digests},
        "overhead_unit": lambda: _unit(sp, demos, replace(recipe, iterations=SHORT_ITERS), convention),
    }


def _unit(sp, demos, recipe, convention) -> float:
    """A short policy training, for the tracing-overhead probe."""
    t0 = time.perf_counter()
    sp.trainer.train(demos, recipe, alpha0_convention=convention)
    return time.perf_counter() - t0


def _digests(sp, work, tag, policy, adam, iteration, predictor) -> dict:
    ppath, qpath = work / f"policy-{tag}.ckpt", work / f"predictor-{tag}.ckpt"
    sp.velocitynet.save_policy(ppath, policy, adam=adam, iteration=iteration)
    sp.saliency.save_predictor(qpath, predictor, iteration=predictor.config.iterations)
    return {"policy": sha256_file(ppath), "predictor": sha256_file(qpath)}


def _check_digest_record(ctx, digests: dict) -> bool:
    """Compare with digests recorded by earlier runs of the same code, seed and length."""
    path = OUT / "train-digests.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    key = f"{ctx.host['source_sha256']}:{ctx.seed}:{ctx.seconds}"
    seen = record.setdefault(key, digests)
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return seen == digests
