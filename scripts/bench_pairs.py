"""Time one `streampolicy bench` command from each of two source trees, in
interleaved pairs, and check that both print and write the same bytes.

Two processes on a small shared host can differ in speed by far more than a
change of a few percent, so the trees are timed side by side in one process:
each tree's package is imported under its own name (streampolicy_base and
streampolicy_head), and pair j runs the same bench arguments with --seed
SEED0 + j once from each tree. The tree a process imports first runs a
little faster there, so the even pairs run in this process, which imports
the base first, and the odd pairs in a spawned child process that imports
the head first; the two take turns, never running at once. Within each
process the tree that runs first in a pair alternates too. Each command's
stdout, results.csv and results.txt must be byte-identical between the
trees; the script exits 1 naming the first difference. It prints each
pair's times and head/base ratio, then the median of each side with its
quartiles, and the median ratio over all pairs beside its median over the
pairs of each import order.

    python3 scripts/bench_pairs.py --base /path/to/parent --head . \\
        --policy policy.ckpt --predictor predictor.ckpt [--pairs 10] [--seed0 1] \\
        [-- extra bench arguments]

With no extra arguments, the commands use the bench-sim workload's matrix:
the controller env at the reference profile, step cap 42, n_eo 3, target
rate 0.85, every indicator, 50 episodes and 100 calibration rollouts. Each
tree runs one uncounted command first in each process. BLAS runs at one
thread unless the environment sets it otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import multiprocessing
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

DEFAULT_ARGS = ["--env", "controller", "--profile", "reference", "--step-cap", "42",
                "--n-eo", "3", "--target-rate", "0.85", "--eo", "naive,random,anao,adaptive",
                "--episodes", "50", "--calib-episodes", "100"]
OUTPUTS = ("results.csv", "results.txt")


def load_cli(root: Path, alias: str):
    """The cli module of the streampolicy package under root/src, imported
    as the package alias, so two trees can be loaded in one process."""
    pkg = root / "src" / "streampolicy"
    spec = importlib.util.spec_from_file_location(alias, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    if spec is None:
        raise SystemExit(f"no streampolicy package under {root}/src")
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{alias}.cli")


def run_bench(cli, argv: list[str], out_dir: Path) -> tuple[float, dict[str, bytes]]:
    """(seconds, {"stdout" and each of OUTPUTS: its bytes}) of one command."""
    out = io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        rc = cli.main([*argv, "--out-dir", str(out_dir)])
        seconds = time.perf_counter() - t0
    if rc != 0:
        raise SystemExit(f"bench exited {rc}: {' '.join(argv)}")
    files = {name: (out_dir / name).read_bytes() for name in OUTPUTS}
    return seconds, {"stdout": out.getvalue().encode(), **files}


def quartiles(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:.1f} [{q1:.1f}, {q3:.1f}]"


def load_trees(roots: dict[str, Path], first: str) -> dict:
    """Each tree's cli module, the tree named first imported first."""
    order = sorted(roots, key=lambda side: side != first)
    return {side: load_cli(roots[side], f"streampolicy_{side}") for side in order}


def run_pair(trees: dict, argv: list[str], order: tuple[str, str], out_dir: Path) -> dict:
    """{side: (ms, outputs)} of argv run by each tree, in order."""
    got = {}
    for side in order:
        seconds, outputs = run_bench(trees[side], argv, out_dir / side)
        got[side] = (seconds * 1e3, outputs)
    return got


def serve(conn, roots: dict[str, Path], common: list[str], out_dir: Path) -> None:
    """The child process: import the head first, warm both trees up, say
    so, then run each (argv, order, out_dir) pair conn sends until None.
    A failed command is sent back as its message."""
    trees = load_trees(roots, "head")
    for side, cli in trees.items():
        run_bench(cli, common, out_dir / f"warm_child_{side}")
    conn.send("ready")
    for argv, order, pair_dir in iter(conn.recv, None):
        try:
            conn.send(run_pair(trees, argv, order, pair_dir))
        except SystemExit as exc:
            conn.send(str(exc))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="the tree to compare against")
    parser.add_argument("--head", type=Path, default=Path("."), help="the changed tree")
    parser.add_argument("--policy", required=True)
    parser.add_argument("--predictor", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("bench_args", nargs="*", help="bench arguments after --")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    roots = {"base": args.base.resolve(), "head": args.head.resolve()}
    common = ["bench", "--policy", args.policy, "--predictor", args.predictor,
              *(args.bench_args or DEFAULT_ARGS)]
    warm = [*common, "--seed", str(args.seed0)]

    times = {"base": [], "head": []}
    ratios = {"base": [], "head": []}  # by the tree imported first
    mp = multiprocessing.get_context("spawn")
    conn, child_conn = mp.Pipe()
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        child = mp.Process(target=serve, args=(child_conn, roots, warm, Path(tmp)))
        child.start()
        child_conn.close()  # so that conn.recv raises EOFError once the child is gone
        try:
            conn.recv()  # "ready"
            trees = load_trees(roots, "base")
            for side, cli in trees.items():  # warm-up, not counted
                run_bench(cli, warm, Path(tmp) / f"warm_{side}")
            for j in range(args.pairs):
                seed = args.seed0 + j
                imported = ("base", "head")[j % 2]
                order = ("base", "head") if j // 2 % 2 == 0 else ("head", "base")
                pair = [*common, "--seed", str(seed)], order, Path(tmp) / f"pair_{j}"
                if imported == "base":
                    got = run_pair(trees, *pair)
                else:
                    conn.send(pair)
                    got = conn.recv()
                    if isinstance(got, str):
                        raise SystemExit(got)
                for name, data in got["base"][1].items():
                    if got["head"][1][name] != data:
                        print(f"pair {j} (seed {seed}): {name} differs between the trees")
                        return 1
                base_ms, head_ms = got["base"][0], got["head"][0]
                times["base"].append(base_ms)
                times["head"].append(head_ms)
                ratios[imported].append(head_ms / base_ms)
                print(f"pair {j:>2d}  seed {seed:>4d}  base {base_ms:8.1f} ms  head {head_ms:8.1f} ms  "
                      f"head/base {head_ms / base_ms:.3f}  ({order[0]} first, {imported} imported "
                      f"first)", flush=True)
        except EOFError:
            raise SystemExit("the child process exited; its error is printed above") from None
        finally:
            with contextlib.suppress(OSError):  # a child that died reads nothing
                conn.send(None)
            child.join()

    pooled = ratios["base"] + ratios["head"]
    faster = sum(r < 1.0 for r in pooled)
    print(f"base ms: median {quartiles(times['base'])}")
    print(f"head ms: median {quartiles(times['head'])}")
    print(f"head/base: median {statistics.median(pooled):.3f} (base imported first "
          f"{statistics.median(ratios['base']):.3f} over {len(ratios['base'])} pairs, head "
          f"imported first {statistics.median(ratios['head']):.3f} over {len(ratios['head'])}), "
          f"head faster in {faster} of {len(pooled)} pairs; stdout and {', '.join(OUTPUTS)} "
          f"identical in every pair")
    return 0


if __name__ == "__main__":
    sys.exit(main())
