"""streampolicy benchmark: one workload per run, one JSON result line at the end.

    python3 perfbench/run.py --workload {train,bench-sim,wall} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The package is imported from ./src and driven
only through its public functions and its CLI. --trace 0 measures the
end-to-end metrics with no spans recorded; --trace 1 records a span at each
layer boundary (see common.wrap_layers), reports the per-layer metrics, and
measures the tracing overhead on a fixed unit of work. Every run checks the
workload's outputs and counts attempted and failed operations; properties the
package does not claim for the workload's set-up are printed as observed, not
gated. Details of a
run (host, gates, figures, fidelity table) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "streampolicy" / "__init__.py"

# Every workload reports every end-to-end metric, each for its own work:
#   setup_s       the workload's set-up, median of the set-ups in the run
#   main_op_ms    train: one policy training iteration at B=128
#                 bench-sim: one executed simulated action across the matrix
#                 wall: one executed action at steady state, streaming
#   second_op_ms  train: one predictor training iteration
#                 bench-sim: one whole bench command (the matrix)
#                 wall: the median boundary halt, streaming
# CPU-bound timings are normalized to the reference host speed (see
# common.HostSpeed); wall timings are mostly sleeps and stay raw. The named
# figures behind them (train_policy_ms_per_iter, sim_actions_per_s, bench_s,
# wall_halt_ms_p90, ...), each with its median, tail percentile, sample count
# and raw median, are printed and kept in perfbench/out/result-*.json.
END_TO_END = [("setup_s", "s"), ("main_op_ms", "ms"), ("second_op_ms", "ms")]
PROBE_PAIRS = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("train", "bench-sim", "wall"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_package():
    # one single-threaded process: BLAS threads would compete with it for
    # the two shared CPUs
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from streampolicy import (cli, core, envsim, flowmatch, metrics, normkit, saliency,
                              streamexec, trainer, velocitynet)
    return SimpleNamespace(cli=cli, core=core, envsim=envsim, flowmatch=flowmatch,
                           metrics=metrics, normkit=normkit, saliency=saliency,
                           streamexec=streamexec, trainer=trainer, velocitynet=velocitynet)


class Context:
    """What a workload needs: its inputs, the package, and the optional tracer."""

    def __init__(self, sp, seed, seconds, work, host, tracer, speed):
        self.sp, self.seed, self.seconds = sp, seed, seconds
        self.work, self.host, self.tracer, self.speed = work, host, tracer, speed

    def span(self, name):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def count(self, name, n=1):
        if self.tracer is not None:
            self.tracer.count(name, n)


def _probe_overhead(sp, unit) -> dict:
    """Traced minus untraced time of one fixed unit of work, over the untraced time."""
    import numpy as np
    from common import wrap_layers
    from spans import Tracer
    plain, traced = [], []
    for _ in range(PROBE_PAIRS):
        plain.append(unit())
        tracer = Tracer()
        wrap_layers(tracer, **vars(sp))
        try:
            traced.append(unit())
        finally:
            tracer.stop()
    a, b = float(np.median(plain)), float(np.median(traced))
    return {"untraced_s": a, "traced_s": b, "overhead_share": (b - a) / a}


def _report(workload, args, host, res, figures, layers, probe, layer_table, ctx_kernel):
    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"host: {host['cpu_count']} x {host['cpu_model']}, python {host['python']}, "
          f"numpy {host['numpy']}, blas {host['blas']['name']} {host['blas']['version']} "
          f"threads {host['blas']['threads']}, load {host['loadavg_start']} -> {host['loadavg_end']}")
    print(f"code: git {host['git_sha']}  src sha256 {host['source_sha256'][:16]}")
    for name, ok in res["gates"]:
        print(f"gate {'ok  ' if ok else 'FAIL'} {name}")
    for name, holds, detail in res.get("observed", []):
        print(f"observed, not gated: {name}: {'holds' if holds else 'does not hold'} ({detail})")
    print(f"operations: {res['attempted']} attempted, {res['failed']} failed")
    print("figures (normalized ones are at the reference host speed; raw median beside):")
    print(f"{'figure':<30s} {'value':>12s} {'median':>12s} {'tail':>16s} {'n':>6s} {'raw median':>12s}")
    for name, d in figures.items():
        tail = "-" if d["tail"] is None else f"p{d['tail_percentile']:g}={d['tail']:.4g}"
        raw = f"{d['raw_median']:.5g}" if "raw_median" in d else "-"
        print(f"{name:<30s} {d['value']:>12.5g} {d['median']:>12.5g} {tail:>16s} {d['n']:>6d} {raw:>12s}")
    kernel, ref_ms = ctx_kernel
    if kernel:
        print(f"host reference kernel: {len(kernel)} marks, median {sorted(kernel)[len(kernel) // 2]:.4f} ms, "
              f"min {min(kernel):.4f} ms, max {max(kernel):.4f} ms (reference {ref_ms} ms)")
    if "fidelity" in res["extra"]:
        print("wall-clock fidelity (ms): config, quantity, modeled, measured p50, p90, n")
        for r in res["extra"]["fidelity"]:
            m = "-" if r["modeled_ms"] is None else f"{r['modeled_ms']:.3f}"
            print(f"  {r['config']:<20s} {r['quantity']:<11s} {m:>7s} "
                  f"{r['measured_ms_p50']:>8.3f} {r['measured_ms_p90']:>8.3f} {r['n']:>6d}")
    if "configs" in res["extra"]:
        for label, d in res["extra"]["configs"].items():
            print(f"  {label:<20s} {json.dumps(d)}")
    if layers:
        print(f"{'span':<40s} {'calls':>9s} {'self s':>9s} {'share':>7s} {'self us/call':>13s}")
        for name, d in layer_table:
            print(f"{name:<40s} {d['calls']:>9d} {d['self_s']:>9.3f} {d['share']:>7.1%} "
                  f"{d['self_s'] / max(1, d['calls']) * 1e6:>13.2f}")
        print(f"tracing overhead: {probe['traced_s']:.4f}s traced vs {probe['untraced_s']:.4f}s "
              f"untraced ({probe['overhead_share']:+.1%})")


def main(argv=None) -> int:
    args = _parse(argv)
    if not PACKAGE.is_file():
        print(f"error: package sources not found at {PACKAGE.relative_to(ROOT)}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sp = _import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import layers as layer_metrics
    import wl_benchsim
    import wl_train
    import wl_wall
    from common import OUT, REF_KERNEL_MS, HostSpeed, host_record, thread_names, wrap_layers
    from spans import Tracer

    host = host_record()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
        wrap_layers(tracer, **vars(sp))
    speed = HostSpeed(span=tracer.span) if tracer is not None else HostSpeed()
    ctx = Context(sp, args.seed, args.seconds, work, host, tracer, speed)
    workload = {"train": wl_train, "bench-sim": wl_benchsim, "wall": wl_wall}[args.workload]
    threads_before = thread_names()
    try:
        with ctx.span("bench.run"):
            res = workload.run(ctx)
        leaked = thread_names() - threads_before
        res["gates"].append(("no thread outlives the workload", not leaked))
        res["attempted"] += 1
        res["failed"] += int(bool(leaked))
        figures = res["figures"]
        layers, probe, layer_table = {}, None, []
        if tracer is not None:
            tracer.stop()
            tracer.save(OUT / f"spans-{args.workload}.npz")
            probe = _probe_overhead(sp, res["overhead_unit"])
            extra = dict(res.get("layer_extra", {}), overhead_share=probe["overhead_share"])
            layers = layer_metrics.compute(tracer, extra)
            layer_table = sorted(((n, dict(d, share=d["self_s"] / tracer.wall_s))
                                  for n, d in tracer.stats().items()),
                                 key=lambda kv: -kv[1]["self_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    host["loadavg_end"] = list(os.getloadavg())

    _report(args.workload, args, host, res, figures, layers, probe, layer_table,
            (ctx.speed.kernel_ms(), REF_KERNEL_MS))
    if tracer is None:
        metrics = {name: {"value": res["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in layer_metrics.PER_LAYER}
    failed = int(res["failed"])
    result = {"correct": failed == 0 and all(ok for _, ok in res["gates"]),
              "attempted": int(res["attempted"]), "failed": failed, "metrics": metrics}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "figures": figures, "probe": probe,
              "gates": res["gates"], "observed": res.get("observed", []),
              "extra": res["extra"], "result": result,
              "host_kernel_ms": ctx.speed.kernel_ms()}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
