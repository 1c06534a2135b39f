"""Latency accounting over execution timelines.

Two quantities characterize a schedule:

* t_action: average wall time per executed action, measured from the first
  observation start to the last execution end.
* t_halt: average pause of the actuator at horizon boundaries, measured as
  the gap between the last execution of one horizon and the first of the
  next.

Overlap terms explain where streaming wins:

* o_ge: time generation runs concurrently with execution.
* o_oe: time observation runs concurrently with execution (early
  observation hides observation latency behind the remaining actions).

All times are milliseconds. The closed forms assume the generator keeps up
with the executor (t_gen <= t_exec), which holds for the reference profile.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .streamexec import (
    MODE_STREAMING,
    MODE_SYNC_CHUNK,
    STAGE_EXECUTE,
    STAGE_GENERATE,
    STAGE_OBSERVE,
    STAGE_PREDICT,
    StageLatency,
    TimelineEvent,
    event_sort_key,
)

TRACE_CSV_HEADER = ["stage", "action_index", "horizon_index", "start_ms", "end_ms"]

_CHROME_TID = {STAGE_OBSERVE: 1, STAGE_PREDICT: 2, STAGE_GENERATE: 3, STAGE_EXECUTE: 4}


@dataclass(frozen=True)
class MetricsReport:
    num_actions: int
    n_horizons: int
    episode_duration: float
    t_action: float
    t_action_steady: float
    t_halt: float
    boundary_gaps: tuple[float, ...]
    o_ge_total: float
    o_oe_total: float
    o_ge_per_horizon: float
    o_oe_per_horizon: float
    success: bool | None = None


def _overlap_sweep(ia: list[tuple[float, float, int]], ib: list[tuple[float, float]],
                   first_h: int) -> tuple[float, float]:
    """Total pairwise intersection time of ia's (start, end, horizon)
    intervals with ib's (start, end), both ascending: over all of ia, and
    over ia's intervals outside horizon first_h (the tail).

    Each intersection d > 0 is added to the total, and to the tail when its
    interval is outside first_h, in (a order, b order): the tail adds the
    values a separate sweep over ia's tail alone would add, in that order.
    Skipping fewer b intervals than that sweep skips adds nothing, since the
    extra ones end before the a interval starts.
    """
    total = tail = 0.0
    n = len(ib)
    j = 0
    for s, e, h in ia:
        later = h != first_h
        while j < n and ib[j][1] <= s:
            j += 1
        for k in range(j, n):
            bs, be = ib[k]
            if bs >= e:
                break
            # min(e, be) - max(s, bs); b intervals may nest, so one past j can
            # still end before s, and a non-positive overlap adds nothing
            d = (be if be < e else e) - (bs if bs > s else s)
            if d > 0.0:
                total += d
                if later:
                    tail += d
    return total, tail


def _in_execution_order(execs: list[TimelineEvent]) -> list[TimelineEvent]:
    """execs in event_sort_key order. Strictly increasing starts are that
    order already (run logs come sorted); anything else gets the stable sort
    that sorting the whole log and filtering it would give."""
    for a, b in zip(execs, execs[1:]):
        if not a.start < b.start:
            return sorted(execs, key=event_sort_key)
    return execs


def measure(events: list[TimelineEvent], success: bool | None = None) -> MetricsReport:
    """Summarize one episode's event log.

    Per-horizon overlap means use horizons >= 1 where available: the first
    horizon's observation has no execution to overlap, so including it would
    understate the steady state the closed forms describe.

    One walk over the log splits it by stage and finds its start; one walk
    over the executions, in event order, finds the end, the horizons, the
    boundary gaps and the first horizon's end; each overlap is one sweep
    (_overlap_sweep) that sums the whole log's and the later horizons' terms
    together. Every minimum, maximum and sum sees its terms in the order the
    per-quantity passes did, so the report is theirs bit for bit.
    """
    if not events:
        raise ValueError("empty event log")
    execs, gens, obs = [], [], []  # gens and obs as (start, end, horizon)
    start = events[0].start
    for e in events:
        if e.start < start:
            start = e.start
        stage = e.stage
        if stage == STAGE_EXECUTE:
            execs.append(e)
        elif stage == STAGE_GENERATE:
            gens.append((e.start, e.end, e.horizon_index))
        elif stage == STAGE_OBSERVE:
            obs.append((e.start, e.end, e.horizon_index))
    if not execs:
        raise ValueError("no execute events in log")
    execs = _in_execution_order(execs)

    # first_h ends as the lowest horizon, head_end as its executions' latest
    # end and n_head as their count
    prev = execs[0]
    end = head_end = prev.end
    first_h = prev.horizon_index
    n_head = 0
    horizons = set()
    gaps = []
    for e in execs:
        h = e.horizon_index
        horizons.add(h)
        if e.end > end:
            end = e.end
        if h == first_h:
            n_head += 1
            if e.end > head_end:
                head_end = e.end
        elif h < first_h:
            first_h, head_end, n_head = h, e.end, 1
        if h != prev.horizon_index:
            gaps.append(max(0.0, e.start - prev.end))
        prev = e
    duration = end - start
    n_actions = len(execs)
    n_horizons = len(horizons)
    # np.mean's float64 sum and division, without its per-call overhead
    t_halt = float(np.add.reduce(np.array(gaps))) / len(gaps) if gaps else 0.0

    # steady-state per-action time: drop the warmup horizon
    n_tail = n_actions - n_head
    t_action_steady = (end - head_end) / n_tail if n_tail else duration / n_actions

    exec_iv = [(e.start, e.end) for e in execs]
    exec_iv.sort()
    gens.sort()
    obs.sort()
    o_ge_total, ge_tail = _overlap_sweep(gens, exec_iv, first_h)
    o_oe_total, oe_tail = _overlap_sweep(obs, exec_iv, first_h)
    if n_horizons > 1:
        o_ge_ph = ge_tail / (n_horizons - 1)
        o_oe_ph = oe_tail / (n_horizons - 1)
    else:
        o_ge_ph = o_ge_total
        o_oe_ph = o_oe_total

    return MetricsReport(
        num_actions=n_actions,
        n_horizons=n_horizons,
        episode_duration=duration,
        t_action=duration / n_actions,
        t_action_steady=t_action_steady,
        t_halt=t_halt,
        boundary_gaps=tuple(gaps),
        o_ge_total=o_ge_total,
        o_oe_total=o_oe_total,
        o_ge_per_horizon=o_ge_ph,
        o_oe_per_horizon=o_oe_ph,
        success=success,
    )


def closed_form(stage: StageLatency, h: int, mode: str, n_replan: int | None = None,
                n_eo_avg: float = 0.0) -> dict[str, float]:
    """Steady-state latency algebra for a full (non-truncated) horizon cycle.

    For sync_chunk every cycle serializes one observation, h generations and
    n_replan executions. For streaming the executor runs back to back except
    for the boundary halt, which early observation shortens by the average
    observation time hidden behind execution, n_eo_avg * t_exec.

    The streaming forms assume the executor sets the pace (t_gen <= t_exec).
    A generator-bound profile raises ValueError: at 2/4/1 ms and h=10 they
    would give 1.6 ms per action, while the simulated clock runs at the
    generator's pace, about 4.3. An h below 1 raises ValueError, and so
    does an n_eo_avg that is not finite or lies outside [0, h): no horizon
    observes that early.
    """
    if h < 1:
        raise ValueError(f"horizon h must be at least 1, got {h}")
    if not (math.isfinite(n_eo_avg) and 0.0 <= n_eo_avg < h):
        raise ValueError(f"n_eo_avg must be finite and in [0, h={h}), got {n_eo_avg:g}")
    if mode == MODE_SYNC_CHUNK:
        n = h if n_replan is None else n_replan
        if not 1 <= n <= h:
            raise ValueError(f"n_replan must be in [1, h={h}], got {n}")
        halt = stage.t_obs + h * stage.t_gen
        return {
            "t_action": (halt + n * stage.t_exec) / n,
            "t_halt": halt,
            "o_ge": 0.0,
            "o_oe": 0.0,
        }
    if mode == MODE_STREAMING:
        if stage.t_gen > stage.t_exec:
            raise ValueError(f"streaming closed forms need t_gen <= t_exec, got t_gen={stage.t_gen:g} "
                             f"> t_exec={stage.t_exec:g} (generator-bound)")
        o_ge = (h - 1) * min(stage.t_gen, stage.t_exec)
        o_oe = min(n_eo_avg * stage.t_exec, stage.t_obs + stage.t_gen)
        halt = max(0.0, stage.t_obs + stage.t_gen - o_oe)
        return {
            "t_action": (h * stage.t_exec + halt) / h,
            "t_halt": halt,
            "o_ge": o_ge,
            "o_oe": o_oe,
        }
    raise ValueError(f"unknown mode {mode!r}")


def write_trace_csv(path, events: list[TimelineEvent]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_CSV_HEADER)
        for e in sorted(events, key=event_sort_key):
            w.writerow([e.stage, e.action_index, e.horizon_index, repr(e.start), repr(e.end)])


def read_trace_csv(path) -> list[TimelineEvent]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != TRACE_CSV_HEADER:
        raise ValueError("not a trace csv (bad header)")
    return [
        TimelineEvent(stage=r[0], action_index=int(r[1]), horizon_index=int(r[2]),
                      start=float(r[3]), end=float(r[4]))
        for r in rows[1:]
    ]


def write_chrome_trace(path, events: list[TimelineEvent]) -> None:
    """Chrome about://tracing JSON: complete events, microsecond timestamps."""
    entries = []
    for e in sorted(events, key=event_sort_key):
        ts = round(e.start * 1e3)
        dur = round((e.end - e.start) * 1e3)
        entries.append({
            "name": f"{e.stage}[{e.action_index}]",
            "cat": e.stage,
            "ph": "X",
            "ts": ts,
            "dur": dur,
            "pid": 1,
            "tid": _CHROME_TID[e.stage],
            "args": {"action_index": e.action_index, "horizon_index": e.horizon_index},
        })
    doc = {
        "traceEvents": entries,
        "displayTimeUnit": "ms",
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def _ratio(base: float, val: float) -> str:
    # zero-latency profiles make both sides 0; call equals equal rather
    # than printing an infinite speedup
    if val > 0:
        return f"{base / val:.2f}"
    return "1.00" if base == val else "inf"


def aggregate(results: dict[str, list[MetricsReport]], baseline: str) -> tuple[str, str]:
    """Cross-configuration summary. Returns (csv_text, aligned_table_text).

    Speedup columns divide the baseline's mean t_action / t_halt by each
    configuration's, so larger is better and the baseline row reads 1.00.
    """
    if baseline not in results:
        raise ValueError(f"baseline {baseline!r} missing from results")

    def mean(label, attr):
        return float(np.mean([getattr(r, attr) for r in results[label]]))

    base_action = mean(baseline, "t_action")
    base_halt = mean(baseline, "t_halt")
    cols = ["config", "episodes", "success_rate", "t_action_ms", "t_halt_ms",
            "o_ge_ms", "o_oe_ms", "speedup_action", "speedup_halt"]
    rows = []
    for label, reps in results.items():
        succ = [r.success for r in reps if r.success is not None]
        t_a = mean(label, "t_action")
        t_h = mean(label, "t_halt")
        rows.append([
            label,
            len(reps),
            f"{np.mean(succ):.3f}" if succ else "n/a",
            f"{t_a:.3f}",
            f"{t_h:.3f}",
            f"{mean(label, 'o_ge_per_horizon'):.3f}",
            f"{mean(label, 'o_oe_per_horizon'):.3f}",
            _ratio(base_action, t_a),
            _ratio(base_halt, t_h),
        ])

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(cols)
    for r in rows:
        w.writerow(r)
    csv_text = buf.getvalue()

    widths = [max(len(str(c)), *(len(str(r[i])) for r in rows)) for i, c in enumerate(cols)]
    lines = ["  ".join(str(c).ljust(widths[i]) for i, c in enumerate(cols))]
    lines.append("  ".join("-" * widths[i] for i in range(len(cols))))
    for r in rows:
        lines.append("  ".join(str(r[i]).ljust(widths[i]) for i in range(len(cols))))
    return csv_text, "\n".join(lines) + "\n"
