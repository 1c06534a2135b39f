import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streampolicy.metrics import (
    MetricsReport, aggregate, closed_form, measure, read_trace_csv,
    write_chrome_trace, write_trace_csv,
)
from streampolicy.streamexec import (
    MODE_STREAMING, MODE_SYNC_CHUNK, REFERENCE_PROFILE, STAGE_EXECUTE,
    STAGE_GENERATE, STAGE_OBSERVE, StageLatency, TimelineEvent,
)


def _ev(stage, g, h_idx, s, e):
    return TimelineEvent(stage=stage, action_index=g, horizon_index=h_idx, start=s, end=e)


interval = st.tuples(st.floats(0, 1e3), st.floats(0.0, 50.0)).map(lambda t: (t[0], t[0] + t[1]))


@settings(max_examples=120, deadline=None)
@given(st.lists(interval, max_size=12), st.lists(interval, max_size=12))
def test_overlap_matches_brute_force(ia, ib):
    a = [_ev(STAGE_GENERATE, i, 0, s, e) for i, (s, e) in enumerate(ia)]
    b = [_ev(STAGE_EXECUTE, i, 0, s, e) for i, (s, e) in enumerate(ib)]
    brute = sum(max(0.0, min(e1, e2) - max(s1, s2))
                for s1, e1 in ia for s2, e2 in ib)
    from streampolicy.metrics import _overlap_total
    assert _overlap_total(a, b) == pytest.approx(brute, rel=1e-9, abs=1e-9)


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
