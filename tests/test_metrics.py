import dataclasses
import importlib.util
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streampolicy.metrics import (
    MetricsReport, aggregate, closed_form, measure, read_trace_csv,
    write_chrome_trace, write_trace_csv,
)
from streampolicy.envsim import KIND_CONTROLLER, EnvKind, make_env
from streampolicy.streamexec import (
    MODE_STREAMING, MODE_SYNC_CHUNK, REFERENCE_PROFILE, STAGE_EXECUTE,
    STAGE_GENERATE, STAGE_OBSERVE, StageLatency, TimelineEvent, event_sort_key, run_episode,
)


def _ev(stage, g, h_idx, s, e):
    return TimelineEvent(stage=stage, action_index=g, horizon_index=h_idx, start=s, end=e)


interval = st.tuples(st.floats(0, 1e3), st.floats(0.0, 50.0)).map(lambda t: (t[0], t[0] + t[1]))


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(interval, st.integers(0, 2)), max_size=12), st.lists(interval, max_size=12))
def test_overlap_matches_brute_force(ia, ib):
    """The sweep's total over all a intervals and its tail over those
    outside horizon 0 are the pairwise intersection sums."""
    a = sorted((s, e, h) for (s, e), h in ia)
    brute = sum(max(0.0, min(e1, e2) - max(s1, s2))
                for s1, e1, _ in a for s2, e2 in ib)
    brute_tail = sum(max(0.0, min(e1, e2) - max(s1, s2))
                     for s1, e1, h in a if h != 0 for s2, e2 in ib)
    from streampolicy.metrics import _overlap_sweep
    total, tail = _overlap_sweep(a, sorted(ib), 0)
    assert total == pytest.approx(brute, rel=1e-9, abs=1e-9)
    assert tail == pytest.approx(brute_tail, rel=1e-9, abs=1e-9)


def _synthetic_episode():
    """Two full streaming horizons, hand-laid timeline with known answers."""
    ev = []
    # horizon 0: obs 0-58, gens chase, execs back to back from 76
    ev.append(_ev(STAGE_OBSERVE, 0, 0, 0.0, 58.0))
    t = 58.0
    for i in range(3):
        ev.append(_ev(STAGE_GENERATE, i, 0, t, t + 18.0))
        t += 18.0
    e = 76.0
    for i in range(3):
        ev.append(_ev(STAGE_EXECUTE, i, 0, e, e + 27.0))
        e += 27.0
    # boundary halt of 10ms (exec idles 157 to 167), then horizon 1
    ev.append(_ev(STAGE_OBSERVE, 3, 1, 120.0, 167.0))
    g = 167.0
    for i in range(3, 6):
        ev.append(_ev(STAGE_GENERATE, i, 1, g, g + 18.0))
        g += 18.0
    ev.append(_ev(STAGE_EXECUTE, 3, 1, 167.0, 194.0))
    ev.append(_ev(STAGE_EXECUTE, 4, 1, 194.0, 221.0))
    ev.append(_ev(STAGE_EXECUTE, 5, 1, 221.0, 248.0))
    return ev


def test_measure_on_synthetic_events():
    rep = measure(_synthetic_episode(), success=True)
    assert rep.num_actions == 6
    assert rep.n_horizons == 2
    assert rep.episode_duration == 248.0
    assert rep.t_action == pytest.approx(248.0 / 6)
    # halt: last exec of horizon 0 ends at 157, first of horizon 1 starts 167
    assert rep.boundary_gaps == (10.0,)
    assert rep.t_halt == 10.0
    # steady state excludes the warmup horizon: 3 actions in 248-157 ms
    assert rep.t_action_steady == pytest.approx((248.0 - 157.0) / 3)
    assert rep.success is True


def test_measure_rejects_empty():
    with pytest.raises(ValueError):
        measure([])
    with pytest.raises(ValueError):
        measure([_ev(STAGE_OBSERVE, 0, 0, 0.0, 1.0)])


def test_closed_form_sync_chunk_reference():
    cf = closed_form(REFERENCE_PROFILE, 10, MODE_SYNC_CHUNK, n_replan=5)
    assert cf["t_halt"] == pytest.approx(238.0)
    assert cf["t_action"] == pytest.approx(74.6)
    assert cf["o_ge"] == 0.0 and cf["o_oe"] == 0.0


def test_closed_form_streaming_reference():
    cf = closed_form(REFERENCE_PROFILE, 10, MODE_STREAMING, n_eo_avg=1.54)
    assert cf["o_ge"] == pytest.approx(162.0)
    assert cf["o_oe"] == pytest.approx(41.58)
    assert cf["t_halt"] == pytest.approx(34.42)
    assert cf["t_action"] == pytest.approx(30.442)


def test_closed_form_no_eo():
    cf = closed_form(REFERENCE_PROFILE, 10, MODE_STREAMING)
    assert cf["t_halt"] == pytest.approx(76.0)
    assert cf["o_oe"] == 0.0


def test_closed_form_rejects_what_it_cannot_predict():
    gen_bound = StageLatency(t_obs=2.0, t_gen=4.0, t_exec=1.0, t_pred=0.5)
    for n_eo_avg in (0.0, 3.0):
        with pytest.raises(ValueError, match="t_gen <= t_exec"):
            closed_form(gen_bound, 10, MODE_STREAMING, n_eo_avg=n_eo_avg)
    # sync_chunk serializes the stages, so its forms hold in any regime
    assert closed_form(gen_bound, 10, MODE_SYNC_CHUNK, n_replan=5)["t_halt"] == 42.0
    for n in (0, 11):
        with pytest.raises(ValueError, match="n_replan"):
            closed_form(gen_bound, 10, MODE_SYNC_CHUNK, n_replan=n)


@pytest.mark.parametrize("mode", [MODE_STREAMING, MODE_SYNC_CHUNK])
def test_closed_form_rejects_an_n_eo_avg_outside_the_horizon(mode):
    """An average early observation is finite and in [0, h)."""
    for n_eo_avg in (float("nan"), float("inf"), -float("inf"), -5.0, -1e-9, 10.0, 12.5):
        with pytest.raises(ValueError, match=r"n_eo_avg must be finite and in \[0, h=10\)"):
            closed_form(REFERENCE_PROFILE, 10, mode, n_eo_avg=n_eo_avg)
    for n_eo_avg in (0.0, 1.54, 9.99):
        closed_form(REFERENCE_PROFILE, 10, mode, n_eo_avg=n_eo_avg)
    # the boundary t_gen == t_exec is still executor-paced
    even = StageLatency(t_obs=2.0, t_gen=1.0, t_exec=1.0)
    assert closed_form(even, 10, MODE_STREAMING)["t_action"] == pytest.approx(1.3)


def test_closed_form_halting_floor():
    """Hiding more observation time than exists cannot make the halt negative."""
    deep = closed_form(REFERENCE_PROFILE, 10, MODE_STREAMING, n_eo_avg=9.0)
    assert deep["t_halt"] == 0.0
    assert deep["o_oe"] == pytest.approx(76.0)


def test_trace_csv_roundtrip(tmp_path):
    from streampolicy.streamexec import event_sort_key

    events = _synthetic_episode()
    # perturb a start with a non-representable decimal to exercise repr floats
    events[0] = _ev(STAGE_OBSERVE, 0, 0, 0.1 + 0.2, 58.0)
    p = tmp_path / "trace.csv"
    write_trace_csv(p, events)
    back = read_trace_csv(p)
    assert back == sorted(events, key=event_sort_key)
    assert back[0].start == 0.1 + 0.2


def test_trace_csv_rejects_other_files(tmp_path):
    p = tmp_path / "junk.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_trace_csv(p)


def test_chrome_trace_is_valid_json(tmp_path):
    p = tmp_path / "trace.json"
    write_chrome_trace(p, _synthetic_episode())
    doc = json.loads(p.read_text())
    entries = doc["traceEvents"]
    assert len(entries) == len(_synthetic_episode())
    for ent in entries:
        assert ent["ph"] == "X"
        assert ent["dur"] >= 0
        assert isinstance(ent["ts"], int)
    obs = [e for e in entries if e["cat"] == STAGE_OBSERVE]
    assert obs[0]["ts"] == 0 and obs[0]["dur"] == 58_000


def test_aggregate_table():
    rep = measure(_synthetic_episode(), success=True)
    results = {"sync": [rep, rep], "stream": [rep]}
    csv_text, table = aggregate(results, baseline="sync")
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("config,episodes,success_rate")
    assert len(lines) == 3
    sync_row = lines[1].split(",")
    assert sync_row[0] == "sync" and sync_row[1] == "2"
    assert float(sync_row[7]) == pytest.approx(1.0)
    assert "stream" in table
    with pytest.raises(ValueError):
        aggregate(results, baseline="nope")


# ---------------------------------------------------------------------------
# measure against the implementation it replaced, which sorted the whole log
# and rebuilt and sorted both interval lists on every overlap call. The
# summation order is the same, so every field must match bit for bit.
# ---------------------------------------------------------------------------

def _reference_overlap_total(a, b):
    ia = sorted((e.start, e.end) for e in a)
    ib = sorted((e.start, e.end) for e in b)
    total = 0.0
    j = 0
    for s, e in ia:
        while j < len(ib) and ib[j][1] <= s:
            j += 1
        k = j
        while k < len(ib) and ib[k][0] < e:
            total += max(0.0, min(e, ib[k][1]) - max(s, ib[k][0]))
            k += 1
    return total


def _reference_measure(events, success=None):
    events = sorted(events, key=event_sort_key)
    execs = [e for e in events if e.stage == STAGE_EXECUTE]
    gens = [e for e in events if e.stage == STAGE_GENERATE]
    obs = [e for e in events if e.stage == STAGE_OBSERVE]
    start = min(e.start for e in events)
    end = max(e.end for e in execs)
    duration = end - start
    n_actions = len(execs)
    horizons = sorted({e.horizon_index for e in execs})
    gaps = []
    for prev, nxt in zip(execs, execs[1:]):
        if nxt.horizon_index != prev.horizon_index:
            gaps.append(max(0.0, nxt.start - prev.end))
    t_halt = float(np.mean(gaps)) if gaps else 0.0
    first_h = horizons[0]
    tail = [e for e in execs if e.horizon_index != first_h]
    if tail:
        head_end = max(e.end for e in execs if e.horizon_index == first_h)
        t_action_steady = (end - head_end) / len(tail)
    else:
        t_action_steady = duration / n_actions
    o_ge_total = _reference_overlap_total(gens, execs)
    o_oe_total = _reference_overlap_total(obs, execs)
    later = [h for h in horizons if h != first_h]
    if later:
        o_ge_ph = _reference_overlap_total(
            [e for e in gens if e.horizon_index != first_h], execs) / len(later)
        o_oe_ph = _reference_overlap_total(
            [e for e in obs if e.horizon_index != first_h], execs) / len(later)
    else:
        o_ge_ph, o_oe_ph = o_ge_total, o_oe_total
    return MetricsReport(
        num_actions=n_actions, n_horizons=len(horizons), episode_duration=duration,
        t_action=duration / n_actions, t_action_steady=t_action_steady, t_halt=t_halt,
        boundary_gaps=tuple(gaps), o_ge_total=o_ge_total, o_oe_total=o_oe_total,
        o_ge_per_horizon=o_ge_ph, o_oe_per_horizon=o_oe_ph, success=success,
    )


def _assert_reports_identical(got: MetricsReport, want: MetricsReport):
    for f in dataclasses.fields(MetricsReport):
        g, w = getattr(got, f.name), getattr(want, f.name)
        assert type(g) is type(w), f.name
        if f.name == "boundary_gaps":
            assert struct.pack(f"<{len(g)}d", *g) == struct.pack(f"<{len(w)}d", *w)
        elif isinstance(g, float):
            assert struct.pack("<d", g) == struct.pack("<d", w), f.name
        else:
            assert g == w, f.name


def _golden_digest_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "golden_digest.py"
    spec = importlib.util.spec_from_file_location("_golden_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_measure_matches_reference_on_the_golden_digest_grid(ctrl_policy, ctrl_predictor):
    """Every episode of scripts/golden_digest.py's grid (controller env, 3
    episodes per cell), as logged and shuffled."""
    gd = _golden_digest_script()
    kind = EnvKind(variant=KIND_CONTROLLER)
    etas = gd._calibrated_etas(ctrl_policy, ctrl_predictor, kind)
    shuffle = np.random.default_rng(0)
    n = 0
    for _label, sched in gd.configs(ctrl_policy.flow.h, etas, 0):
        for stage in gd.PROFILES.values():
            for cap in gd.CAPS:
                for record in (False, True):
                    for ep in range(3):
                        res = run_episode(ctrl_policy, ctrl_predictor, make_env(kind, 0, ep, step_cap=cap),
                                          stage, sched, record_trajectory=record)
                        _assert_reports_identical(measure(res.events, success=res.success),
                                                  _reference_measure(res.events, success=res.success))
                        shuffled = [res.events[i] for i in shuffle.permutation(len(res.events))]
                        _assert_reports_identical(measure(shuffled), _reference_measure(shuffled))
                        n += 1
    assert n == 576


def test_measure_matches_reference_on_tied_starts():
    """Executions sharing a start, listed against event order and with ends
    out of index order, take the sorting path."""
    ev = [_ev(STAGE_OBSERVE, 0, 0, 0.0, 3.0), _ev(STAGE_OBSERVE, 4, 1, 5.0, 9.0)]
    ev += [_ev(STAGE_GENERATE, i, i // 4, 1.0 + i, 2.5 + i) for i in range(8)]
    ev += [_ev(STAGE_EXECUTE, 3, 0, 4.0, 4.5), _ev(STAGE_EXECUTE, 2, 0, 4.0, 6.0),
           _ev(STAGE_EXECUTE, 1, 0, 2.0, 4.0), _ev(STAGE_EXECUTE, 0, 0, 2.0, 3.0),
           _ev(STAGE_EXECUTE, 5, 1, 9.5, 10.25), _ev(STAGE_EXECUTE, 4, 1, 9.5, 11.0)]
    for order in (ev, ev[::-1], sorted(ev, key=event_sort_key)):
        _assert_reports_identical(measure(order), _reference_measure(order))


def test_overlap_tail_matches_a_separate_sweep_on_an_early_observation_log(idle_policy):
    """On a streaming log with early observation, the later horizons' overlap
    (the sweep's tail accumulator) is, bit for bit, the sum a separate pass
    over their re-filtered, re-sorted intervals gives. The first horizon's
    generations overlap its executions, so the generate tail is short of the
    total; its observation overlaps none, so the observe tail is the total."""
    from streampolicy.saliency import Indicator
    from streampolicy.streamexec import SchedulerConfig

    sched = SchedulerConfig(mode=MODE_STREAMING, h=idle_policy.flow.h, eo=Indicator(mode="naive"),
                            n_eo=2, seed=0)
    # the reference profile at 1/10: durations with no exact binary form, so
    # a sum taken in another order differs in its last bits
    tenth = StageLatency(t_obs=5.8, t_gen=1.8, t_exec=2.7, t_pred=1.0)
    res = run_episode(idle_policy, None, make_env(EnvKind(variant=KIND_CONTROLLER), 0, 0, step_cap=40),
                      tenth, sched)
    rep = measure(res.events)
    execs = [e for e in res.events if e.stage == STAGE_EXECUTE]
    first_h = min(e.horizon_index for e in execs)
    later = len({e.horizon_index for e in execs}) - 1
    assert later >= 2
    tails = {}
    for stage, per_horizon in ((STAGE_OBSERVE, rep.o_oe_per_horizon),
                               (STAGE_GENERATE, rep.o_ge_per_horizon)):
        tails[stage] = _reference_overlap_total(
            [e for e in res.events if e.stage == stage and e.horizon_index != first_h], execs)
        assert struct.pack("<d", per_horizon) == struct.pack("<d", tails[stage] / later)
    assert 0.0 < tails[STAGE_GENERATE] < rep.o_ge_total
    assert 0.0 < tails[STAGE_OBSERVE] == rep.o_oe_total


def test_overlap_sweep_matches_separate_passes_bitwise():
    """Both accumulators add each intersection where a separate pass over
    their intervals adds it, bit for bit, on random intervals whose sums
    round: summing an interval's intersections before adding them to the
    tail changes the tail in about 1 case of 70 here."""
    from streampolicy.metrics import _overlap_sweep

    rng = np.random.default_rng(5)
    for _ in range(2000):
        b = [_ev(STAGE_EXECUTE, i, 0, float(s), float(s + d))
             for i, (s, d) in enumerate(zip(rng.uniform(0, 30, 10), rng.uniform(0, 3, 10)))]
        a = [_ev(STAGE_OBSERVE, i, int(h), float(s), float(s + d))
             for i, (s, d, h) in enumerate(zip(rng.uniform(0, 30, 5), rng.uniform(0, 8, 5),
                                               rng.integers(0, 3, 5)))]
        total, tail = _overlap_sweep(sorted((e.start, e.end, e.horizon_index) for e in a),
                                     sorted((e.start, e.end) for e in b), 0)
        assert total.hex() == _reference_overlap_total(a, b).hex()
        assert tail.hex() == _reference_overlap_total([e for e in a if e.horizon_index != 0], b).hex()
