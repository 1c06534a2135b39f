"""Shared pieces of the benchmark: seeds, summaries, host record, layer wiring."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# Percentiles tried, highest first, when reporting a timing's tail, in
# per mille so that the count of samples beyond is exact.
_TAIL_PER_MILLE = (999, 990, 950, 900, 750)


def derive_seeds(seed: int, n: int, *key: int) -> list[int]:
    """n independent 31-bit seeds from one workload seed and an optional substream key."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    state = ss.generate_state(n, dtype=np.uint32)
    return [int(s) >> 1 for s in state]


def tail_percentile(n: int) -> float | None:
    """Highest percentile with at least ten of n samples beyond it."""
    for pm in _TAIL_PER_MILLE:
        if n * (1000 - pm) >= 10 * 1000:
            return pm / 10
    return None


def summarize(samples, *, higher_is_better: bool = False) -> dict:
    """Median, the tail percentile with at least ten samples beyond it, and the count.

    For a rate (higher is better) the tail is the low end.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise ValueError("no samples")
    p = tail_percentile(x.size)
    tail_q = (100.0 - p) if (p is not None and higher_is_better) else p
    return {
        "value": float(np.median(x)),
        "median": float(np.median(x)),
        "tail_percentile": p,
        "tail": None if p is None else float(np.percentile(x, tail_q)),
        "p10": float(np.percentile(x, 10)),
        "p90": float(np.percentile(x, 90)),
        "n": int(x.size),
    }


def figure(blocks, speed, *, rate: bool = False, modeled: float = 0.0) -> dict:
    """Summary of per-block values given as (t_start, t_end, value), normalized
    to the reference host speed, with the raw median kept beside it.

    A rate is divided by the speed factor and a time multiplied by it. For a
    time that includes a modeled wait (a sleep), only the part beyond the
    modeled value is host work, so only that part is scaled.
    """
    vals = [v / speed.factor(t0, t1) if rate else modeled + (v - modeled) * speed.factor(t0, t1)
            for t0, t1, v in blocks]
    out = summarize(vals, higher_is_better=rate)
    out["raw_median"] = float(np.median([v for _, _, v in blocks]))
    return out


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_digest() -> str:
    """sha256 over the package sources, so results name the code they measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    name = version = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = deps.get("name"), deps.get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"name": name, "version": version, "threads": threads}


def host_record() -> dict:
    """CPU, software and load at the start of a run."""
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "git_sha": _git_sha(),
        "source_sha256": source_digest(),
        "loadavg_start": list(os.getloadavg()),
        "process_threads": process_threads(),
    }


def process_threads() -> int | None:
    """OS threads of this process, native ones (a BLAS pool) included."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def thread_names() -> set[str]:
    return {t.name for t in threading.enumerate() if t.is_alive()}


_REF_V = np.array([0.3, -0.2])
_REF_X = np.linspace(-1.0, 1.0, 32 * 64).reshape(32, 64)
_REF_W = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64) / 8.0
# The reference kernel's time on the 2-CPU Xeon host the benchmark was
# defined on, uncontended. Normalized timings are in ms or s at this speed.
REF_KERNEL_MS = 0.64


def _kernel() -> float:
    """Small-array numpy calls in a Python loop, then a few small matrix
    products: the mix the package's hot paths are made of."""
    t0 = time.perf_counter()
    v, acc = _REF_V, 0.0
    for _ in range(100):
        v = np.clip(0.5 * np.tanh(v / 0.5) + 0.01, -5.0, 5.0)
        acc += float(v[0])
    x = _REF_X
    for _ in range(4):
        x = np.tanh(x @ _REF_W + acc * 1e-3)
    return time.perf_counter() - t0


class HostSpeed:
    """Times a fixed reference kernel at the boundaries of measured blocks.

    The shared host alternates between an uncontended and a contended speed
    for seconds to minutes at a time (same process CPU time, no steal), so
    raw timings of identical work differ by up to 1.6x between runs. The
    kernel never calls the package, so a change to the package cannot move
    it: its time follows only the host. A block's time divided by the
    kernel's time around it, times REF_KERNEL_MS, is the block's time at
    the reference speed.
    """

    def __init__(self, span=nullcontext):
        self.marks: list[tuple[float, float]] = []  # (perf_counter, kernel ms)
        self.spent = 0.0
        self._span = span  # so a traced run books marks as the benchmark's own time
        _kernel()  # warm-up

    def mark(self, reps: int = 3) -> float:
        """Time the kernel reps times; returns when the mark ends."""
        t_begin = time.perf_counter()
        with self._span("bench.host_speed"):
            best = min(_kernel() for _ in range(reps))
        now = time.perf_counter()
        self.marks.append((now, best * 1e3))
        self.spent += now - t_begin
        return now

    def factor(self, t_start: float, t_end: float) -> float:
        """REF_KERNEL_MS over the mean kernel time of the marks inside
        [t_start, t_end] and the nearest one on each side."""
        before = [ms for t, ms in self.marks if t <= t_start]
        inside = [ms for t, ms in self.marks if t_start < t < t_end]
        after = [ms for t, ms in self.marks if t >= t_end]
        near = before[-1:] + inside + after[:1]
        if not near:
            raise ValueError("no host-speed mark brackets the block")
        return REF_KERNEL_MS / (sum(near) / len(near))

    def kernel_ms(self) -> list[float]:
        return [ms for _, ms in self.marks]


class Segments:
    """Times one piece of work in parts split at host-speed marks.

    Each part is normalized by the marks around it, so a long set-up that
    spans a change of host speed is still measured at the reference speed.
    """

    def __init__(self, speed: HostSpeed):
        self.speed, self.parts = speed, []
        self.last = speed.mark()

    def split(self, *_) -> None:
        now = time.perf_counter()
        self.parts.append((self.last, now, now - self.last))
        self.last = self.speed.mark()

    def totals(self) -> tuple[float, float]:
        """(normalized seconds, raw seconds)."""
        return (sum(v * self.speed.factor(t0, t1) for t0, t1, v in self.parts),
                sum(v for _, _, v in self.parts))


def setup_figure(totals: list[tuple[float, float]]) -> dict:
    """Summary of normalized set-up times with the raw median beside."""
    out = summarize([n for n, _ in totals])
    out["raw_median"] = float(np.median([r for _, r in totals]))
    return out


def wrap_layers(tracer, *, cli, core, envsim, flowmatch, metrics, normkit, saliency,
                streamexec, trainer, velocitynet) -> None:
    """Install spans at every layer boundary the workloads cross.

    Each entry names the module attribute the callers look up; where a
    module imported a function by name, its own binding is wrapped too.
    """
    targets = [
        (trainer, "make_rng", "core.make_rng"),
        (saliency, "make_rng", "core.make_rng"),
        (streamexec, "make_rng", "core.make_rng"),
        (envsim, "make_rng", "core.make_rng"),
        (core, "save_dataset", "core.save_dataset"),
        (core, "load_dataset", "core.load_dataset"),
        (normkit, "normalize", "normkit.normalize"),
        (normkit, "denormalize", "normkit.denormalize"),
        (normkit, "fit_stats", "normkit.fit_stats"),
        (velocitynet, "forward", "velocitynet.forward"),
        (velocitynet, "time_features", "velocitynet.time_features"),
        (velocitynet, "loss_and_grad", "velocitynet.loss_and_grad"),
        (velocitynet, "adam_step", "velocitynet.adam_step"),
        (saliency, "adam_step", "velocitynet.adam_step"),
        (velocitynet, "save_policy", "velocitynet.checkpoint_io"),
        (velocitynet, "load_policy", "velocitynet.checkpoint_io"),
        (cli, "load_policy", "velocitynet.checkpoint_io"),
        (saliency, "save_predictor", "velocitynet.checkpoint_io"),
        (saliency, "load_predictor", "velocitynet.checkpoint_io"),
        (envsim, "generate_demos", "envsim.generate_demos"),
        (envsim, "step", "envsim.step"),
        (envsim, "observe", "envsim.observe"),
        (trainer, "train", "trainer.train"),
        (trainer, "_sample_batch", "trainer.sample_batch"),
        (trainer, "training_step", "trainer.training_step"),
        (saliency, "train_predictor", "saliency.train_predictor"),
        (saliency, "_sample_pairs", "saliency.sample_pairs"),
        (saliency, "loss_and_grad", "saliency.loss_and_grad"),
        (saliency, "saliency_score", "saliency.score"),
        (saliency, "decision_scores", "saliency.decision_scores"),
        (saliency, "calibrate_threshold", "saliency.calibrate_threshold"),
        (cli, "_calib_rollouts", "saliency.calib_rollouts"),
        (cli, "main", "cli.main"),
        (metrics, "measure", "metrics.measure"),
        (metrics, "aggregate", "metrics.aggregate"),
        (metrics, "closed_form", "metrics.closed_form"),
    ]
    # flowmatch is the tested reference for the flow math; count any call
    for attr in ("target_velocity", "discrete_xi_dot", "marginal_variance", "marginal_sample",
                 "cfm_residual", "euler_integrate", "extract_action"):
        targets.append((flowmatch, attr, f"flowmatch.{attr}"))
    targets.append((streamexec, "run_episode", _episode_span_name))
    for owner, attr, name in targets:
        tracer.wrap(owner, attr, name)


def _episode_span_name(args, kwargs) -> str:
    """run_episode spans are named by clock so the two engines stay apart."""
    clock = kwargs.get("clock", args[5] if len(args) > 5 else "simulated")
    return f"streamexec.run_episode.{clock}"
