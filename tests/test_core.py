import hashlib
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CTRL, DEMO_SEED, DIRECT
from streampolicy.core import (
    STREAM_DEMO, STREAM_PREDICTOR, STREAM_TRAIN, SUBSTREAM_BLOCK, TAG_TRAJECTORY_DATASET,
    DatasetError, Observation, Trajectory, cumulative_states, load_dataset, make_rng,
    read_container, save_dataset, substreams, write_container,
)
from streampolicy.envsim import env_metadata
from test_pins import CTRL_DATASET_SHA256, DIRECT_DATASET_SHA256


def _traj(actions, alpha0):
    actions = np.asarray(actions, dtype=np.float64)
    L = actions.shape[0]
    return Trajectory(features=np.zeros((L, 7)), frame_ids=np.arange(L),
                      capture_times=np.arange(L, dtype=np.float64), actions=actions,
                      action_states=cumulative_states(actions, alpha0))


@given(st.lists(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=2),
                min_size=1, max_size=30),
       st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=2))
@settings(max_examples=100, deadline=None)
def test_prefix_sum_identity(actions, alpha0):
    """S[n+1] - S[n] recovers each action bitwise, and S[0] is alpha0."""
    states = cumulative_states(np.array(actions), np.array(alpha0))
    assert np.array_equal(states[0], np.array(alpha0))
    acc = np.array(alpha0, dtype=np.float64)
    for n, a in enumerate(actions):
        acc = acc + np.array(a)
        assert np.array_equal(states[n + 1], acc)


# magnitudes from ulp-sized to huge in one ledger, so rounding depends on the
# summation order
_MIXED = st.one_of(st.floats(-1e-9, 1e-9, allow_nan=False), st.floats(-1.0, 1.0),
                   st.floats(-1e12, 1e12, allow_nan=False))


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
           st.lists(st.lists(_MIXED, min_size=d, max_size=d), min_size=0, max_size=40),
           st.lists(_MIXED, min_size=d, max_size=d))))
@settings(max_examples=150, deadline=None)
def test_cumulative_states_is_the_left_to_right_loop_bitwise(case):
    """0, 1 and many actions: the same bits as summing row by row."""
    actions, alpha0 = case
    acts = np.array(actions, dtype=np.float64).reshape(len(actions), len(alpha0))
    want = np.empty((len(actions) + 1, len(alpha0)))
    want[0] = alpha0
    for n in range(len(actions)):
        want[n + 1] = want[n] + acts[n]
    got = cumulative_states(acts, np.array(alpha0))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_observation_is_an_immutable_record():
    o = Observation(features=np.arange(7.0), frame_id=3, capture_time=1.5)
    assert isinstance(o, Observation)
    assert (o.frame_id, o.capture_time) == (3, 1.5)
    assert np.array_equal(o.features, np.arange(7.0))
    for name in ("features", "frame_id", "capture_time"):
        with pytest.raises(AttributeError):
            setattr(o, name, None)
    assert Observation(np.zeros(7), 1, 2.0)._fields == ("features", "frame_id", "capture_time")


def test_trajectory_validate_catches_tampering():
    t = _traj([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    t.validate()
    t.action_states[1, 0] += 1e-9
    with pytest.raises(DatasetError):
        t.validate()


def test_trajectory_validate_frame_ids():
    t = _traj([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    t.frame_ids[1] = 0
    with pytest.raises(DatasetError, match="frame_id not strictly increasing"):
        t.validate()


def test_dataset_roundtrip_bitwise(tmp_path):
    rng = make_rng(3, 9)
    trajs = [_traj(rng.normal(size=(n, 2)) * 0.3, rng.normal(size=2)) for n in (5, 1, 17)]
    p = tmp_path / "d.bin"
    save_dataset(p, trajs, dim=2, env_meta={"variant": "direct"}, seed=3)
    loaded, header = load_dataset(p)
    assert header["env"]["variant"] == "direct"
    assert header["seed"] == 3
    assert len(loaded) == 3
    for a, b in zip(trajs, loaded):
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.action_states, b.action_states)
        for name in ("features", "frame_ids", "capture_times"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
    # saving the loaded copy reproduces the file byte for byte
    p2 = tmp_path / "d2.bin"
    save_dataset(p2, loaded, dim=2, env_meta={"variant": "direct"}, seed=3)
    assert p.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("lengths", [(), (2, 0, 3)], ids=["no_episodes", "empty_episode"])
def test_dataset_roundtrip_of_no_episodes_and_an_empty_episode(tmp_path, lengths):
    trajs = [_traj(np.full((n, 2), 0.5), [1.0, -1.0]) for n in lengths]
    p = tmp_path / "d.bin"
    save_dataset(p, trajs, dim=2, env_meta={}, seed=0)
    loaded, header = load_dataset(p)
    assert header["episodes"] == len(lengths) and [len(t) for t in loaded] == list(lengths)
    for a, b in zip(trajs, loaded):
        for name in ("features", "frame_ids", "capture_times", "actions", "action_states"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
    save_dataset(tmp_path / "d2.bin", loaded, dim=2, env_meta={}, seed=0)
    assert (tmp_path / "d2.bin").read_bytes() == p.read_bytes()


def test_observations_view_builds_rows_from_the_arrays():
    t = _traj([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]], [0.0, 0.0])
    t.features[:] = np.arange(21.0).reshape(3, 7)
    rows = t.observations
    assert [type(o) for o in rows] == [Observation] * 3
    assert [(type(o.frame_id), type(o.capture_time)) for o in rows] == [(int, float)] * 3
    assert [(o.frame_id, o.capture_time) for o in rows] == [(0, 0.0), (1, 1.0), (2, 2.0)]
    assert all(o.features.tobytes() == f.tobytes() for o, f in zip(rows, t.features))
    with pytest.raises(AttributeError):
        t.observations = rows


@pytest.mark.parametrize("variant", ["controller", "direct"])
def test_fixture_demos_round_trip_bitwise(variant, request, tmp_path):
    """Both variants' fixture demos load back array for array, bit for bit
    and in their dtypes, and the loaded set saves to the pinned bytes."""
    demos = request.getfixturevalue(f"{'ctrl' if variant == 'controller' else 'direct'}_demos")
    kind, pinned = (CTRL, CTRL_DATASET_SHA256) if variant == "controller" else \
        (DIRECT, DIRECT_DATASET_SHA256)
    meta = env_metadata(kind)
    save_dataset(tmp_path / "a.bin", demos, dim=2, env_meta=meta, seed=DEMO_SEED)
    loaded, _ = load_dataset(tmp_path / "a.bin")
    assert len(loaded) == len(demos)
    for got, want in zip(loaded, demos):
        assert got.frame_ids.dtype == np.int64 and got.capture_times.dtype == np.float64
        for name in ("features", "frame_ids", "capture_times", "actions", "action_states"):
            g, w = getattr(got, name), getattr(want, name)
            assert (g.dtype, g.shape) == (w.dtype, w.shape) and g.tobytes() == w.tobytes(), name
    save_dataset(tmp_path / "b.bin", loaded, dim=2, env_meta=meta, seed=DEMO_SEED)
    assert hashlib.sha256((tmp_path / "b.bin").read_bytes()).hexdigest() == pinned


def _dataset_parts(tmp_path):
    """The arrays (in file order) and header save_dataset writes for two
    3-step episodes: episode 1 is rows 3-5, and its states rows 4-7."""
    trajs = [_traj(np.full((3, 2), 0.25), [0.0, 0.0]) for _ in range(2)]
    p = tmp_path / "ok.bin"
    save_dataset(p, trajs, dim=2, env_meta={"obs_dim": 7}, seed=0)
    _, arrays, header = read_container(p, expect_tag=TAG_TRAJECTORY_DATASET)
    return arrays, header


def _write_dataset(path, arrays, header):
    """A dataset container with a valid checksum, whatever its contents."""
    write_container(path, tag=TAG_TRAJECTORY_DATASET, arrays=list(arrays.items()), config=header)


def test_load_rejects_corrupt_header(tmp_path):
    arrays, header = _dataset_parts(tmp_path)
    p = tmp_path / "bad.bin"
    _write_dataset(p, arrays, {**header, "format": "something-else"})
    with pytest.raises(DatasetError, match=r"bad\.bin: not a version-2 trajectory dataset: "
                                           r"format 'something-else', version 2$"):
        load_dataset(p)


def test_load_rejects_another_dataset_version(tmp_path):
    arrays, header = _dataset_parts(tmp_path)
    p = tmp_path / "bad.bin"
    _write_dataset(p, arrays, {**header, "version": 3})
    with pytest.raises(DatasetError, match=r"bad\.bin: not a version-2 trajectory dataset: "
                                           r"format 'streampolicy-trajectories', version 3$"):
        load_dataset(p)


@pytest.mark.parametrize("field", ["dim", "episodes"])
def test_load_rejects_a_header_without_a_field(tmp_path, field):
    arrays, header = _dataset_parts(tmp_path)
    del header[field]
    p = tmp_path / "d.bin"
    _write_dataset(p, arrays, header)
    with pytest.raises(DatasetError, match=r"d\.bin: malformed header"):
        load_dataset(p)


def test_load_rejects_truncated_record(tmp_path):
    """A file cut inside its array blob."""
    p = tmp_path / "t.bin"
    save_dataset(p, [_traj([[1.0, 0.0]], [0.0, 0.0])], dim=2, env_meta={}, seed=0)
    data = p.read_bytes()
    (p2 := tmp_path / "cut.bin").write_bytes(data[:len(data) - 30])
    with pytest.raises(DatasetError, match=r"cut\.bin: truncated array blob$"):
        load_dataset(p2)


def test_load_rejects_a_bad_checksum_without_calling_the_file_a_checkpoint(tmp_path):
    p = tmp_path / "d.bin"
    save_dataset(p, [_traj([[1.0, 0.0]], [0.0, 0.0])], dim=2, env_meta={}, seed=0)
    raw = bytearray(p.read_bytes())
    raw[-10] ^= 0x01  # inside the last stored array, before the crc
    p.write_bytes(bytes(raw))
    with pytest.raises(DatasetError, match=r"d\.bin: array blob fails checksum$") as exc:
        load_dataset(p)
    assert "checkpoint" not in str(exc.value)


def test_load_names_a_version_1_file_and_gen_data(tmp_path):
    """A JSON-lines file of the first dataset version is refused by name, not parsed."""
    p = tmp_path / "demos.jsonl"
    p.write_text(json.dumps({"format": "streampolicy-trajectories", "version": 1, "dim": 2,
                             "episodes": 0, "env": {}, "seed": 0}) + "\n")
    with pytest.raises(DatasetError, match=re.escape(str(p)) + ": a version-1 JSON-lines dataset"
                       r".*; regenerate it with gen-data$"):
        load_dataset(p)


def test_make_rng_streams_are_independent_and_stable():
    a = make_rng(7, 1, 0).random(4)
    b = make_rng(7, 1, 1).random(4)
    c = make_rng(7, 2, 0).random(4)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)
    assert np.array_equal(a, make_rng(7, 1, 0).random(4))


PINNED_WORDS = [
    ((0,), (0x399e5b222b82fa9, 0x41fd08c1f00f3bc5, 0x78b8824162ee4d04)),
    ((0, 1, 0), (0xe0142d5981f313be, 0xd22aeafad1bfb762, 0xa2f97b1960b5b213)),
    ((11, 1, 599), (0x92373753f7635830, 0xa97b11d1edb8874, 0xba946366b6fb4f63)),
    ((2000, 2, 49), (0xbaf1d89639889b94, 0x60601af9762f9bbc, 0x722d5fbe7ef45fa)),
    ((3000, 6, 7), (0xb030c583e9bc35d9, 0xc9ae1c790c4fc90a, 0x716362a585ba5ee2)),
    ((5, 3, 15999), (0x4ed3947e75d57eb9, 0x4f33a3b1da38c377, 0x40b015e2440942ac)),
    ((2**40 + 3, 7, 0), (0x6ebfbe3befd3df45, 0xb9191fede8b20329, 0x85151032c53364ee)),
]


@pytest.mark.parametrize("key, words", PINNED_WORDS)
def test_make_rng_first_words_are_pinned(key, words):
    """The first raw words of make_rng's generator for (seed, *stream) keys
    of the demo, init, train, indicator and model-init streams. A cheaper
    construction of the same streams must give these words first."""
    assert tuple(make_rng(*key).bit_generator.random_raw(3).tolist()) == words


def _assert_substreams_are_make_rng(seed, *prefix, start, stop):
    """Every generator substreams yields has make_rng's whole state (its
    key, counter, buffer and buffered word) and draws its first three raw
    words."""
    streams = substreams(seed, *prefix, start=start, stop=stop)
    for i in range(start, stop):
        rng, want = next(streams), make_rng(seed, *prefix, i)
        assert str(rng.bit_generator.state) == str(want.bit_generator.state), i
        assert rng.bit_generator.random_raw(3).tolist() == want.bit_generator.random_raw(3).tolist(), i
    assert next(streams, None) is None


@pytest.mark.parametrize("key, words", [(k, w) for k, w in PINNED_WORDS if len(k) > 1])
def test_substreams_give_the_pinned_words(key, words):
    """The pinned keys with a stream index (the bare seed (0,) has none, so
    no substream family holds it)."""
    seed, *prefix, i = key
    rng = next(substreams(seed, *prefix, start=i, stop=i + 1))
    assert tuple(rng.bit_generator.random_raw(3).tolist()) == words


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 5, 2**200])
def test_substreams_match_make_rng_across_seed_widths(seed):
    """Seeds of one, two, three, five and seven 32-bit words, and the widest
    one-word seed: a seed wider than the pool adds hash steps of its own."""
    _assert_substreams_are_make_rng(seed, STREAM_TRAIN, start=0, stop=40)


@pytest.mark.parametrize("seed, prefix", [(12, ()), (12, (STREAM_DEMO, 0)), (12, (6, 2**40 + 5, 3)),
                                          (12, (0, 0, 0, 0)), (2**200, ())],
                         ids=[f"prefix{i}" for i in range(5)])
def test_substreams_match_make_rng_with_any_prefix(seed, prefix):
    """No prefix, and prefixes of several words, one of them two words wide;
    and no prefix after a seed wider than the pool."""
    _assert_substreams_are_make_rng(seed, *prefix, start=3, stop=20)


def test_substreams_match_make_rng_across_a_block_boundary():
    _assert_substreams_are_make_rng(9, STREAM_PREDICTOR, start=5, stop=5 + SUBSTREAM_BLOCK + 3)


def test_substreams_resume_and_empty_ranges():
    _assert_substreams_are_make_rng(5, STREAM_TRAIN, start=15990, stop=16010)
    _assert_substreams_are_make_rng(3, STREAM_DEMO, start=2**32 - 3, stop=2**32)
    assert list(substreams(3, STREAM_TRAIN, start=7, stop=7)) == []
    assert list(substreams(3, STREAM_TRAIN, start=9, stop=7)) == []


@pytest.mark.parametrize("draw", [
    lambda rng: rng.uniform(-1.0, 2.0, size=5),
    lambda rng: rng.normal(0.0, 0.4, size=5),
    lambda rng: rng.integers(0, 2**32, size=5, dtype=np.uint32),
])
def test_a_rekeyed_generator_draws_what_a_fresh_one_draws(draw):
    """After an odd number of 32-bit draws the Philox holds a buffered half
    word and a part-used block; re-keying drops both."""
    streams = substreams(4, STREAM_DEMO, start=0, stop=4)
    for i, rng in enumerate(streams):
        assert draw(rng).tobytes() == draw(make_rng(4, STREAM_DEMO, i)).tobytes(), i
        held = rng.bit_generator.state["has_uint32"]
        rng.integers(0, 2**32, size=2 * i + 1 + held, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1


def test_substreams_refuse_what_seed_sequence_cannot_key():
    for seed, prefix in ((-1, (STREAM_TRAIN,)), (3, (STREAM_TRAIN, -2))):
        with pytest.raises(ValueError):
            make_rng(seed, *prefix, 0)
        with pytest.raises(ValueError, match="non-negative"):
            substreams(seed, *prefix, start=0, stop=1)
    for start, stop in ((-1, 3), (2**32 - 1, 2**32 + 1), (2**32, 2**32 + 1)):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            substreams(3, STREAM_TRAIN, start=start, stop=stop)


def _drop(name):
    def corrupt(arrays, header):
        del arrays[name]
    return corrupt


def _set(name, value):
    def corrupt(arrays, header):
        arrays[name] = np.asarray(value, dtype=np.float64)
    return corrupt


def _poke(name, index, value):
    def corrupt(arrays, header):
        arrays[name][index] = value
    return corrupt


def _features_one_row_short(arrays, header):
    arrays["features"] = arrays["features"][:-1]


def _features_one_wider(arrays, header):
    arrays["features"] = np.hstack([arrays["features"], np.zeros((6, 1))])


def _features_one_narrower(arrays, header):
    arrays["features"] = arrays["features"][:, :6]


def _actions_one_wider(arrays, header):
    arrays["actions"] = np.hstack([arrays["actions"], np.full((6, 1), 0.5)])


def _three_episodes_claimed(arrays, header):
    header["episodes"] = 3


_LENGTHS = "episode lengths must be non-negative integers that sum to the 6 stored rows"
# (id, corruption, the error after "<file>: "); the per-episode cases name episode 1
_MALFORMED = [
    ("no_obs", _drop("features"), r"dataset metadata does not fit the stored arrays: "
                                  r"features is stored as None, the metadata gives \(6, 7\)"),
    ("no_act", _drop("actions"), r"dataset metadata .*: actions is stored as None, the metadata gives \(6, 2\)"),
    ("no_st", _drop("action_states"), r"dataset metadata .*: action_states is stored as None, "
              r"the metadata gives \(8, 2\)"),
    ("obs_without_f", _features_one_row_short,
     r"dataset metadata .*: features is stored as \(5, 7\), the metadata gives \(6, 7\)"),
    # a single row of another width has no form in one (N, obs_dim) array
    ("feature_row_length", _features_one_wider,
     r"dataset metadata .*: features is stored as \(6, 8\), the metadata gives \(6, 7\)"),
    ("every_feature_row_length", _features_one_narrower,
     r"dataset metadata .*: features is stored as \(6, 6\), the metadata gives \(6, 7\)"),
    ("nan_feature", _poke("features", (3, 3), np.nan), r"episode 1: non-finite features"),
    ("action_row_width", _actions_one_wider,
     r"dataset metadata .*: actions is stored as \(6, 3\), the metadata gives \(6, 2\)"),
    ("broken_prefix_sum", _poke("action_states", (6, 0), 0.5 + 1e-9),
     r"episode 1: action_states is not the exact prefix sum of actions"),
    ("frame_ids_not_increasing", _poke("frame_ids", 4, 0.0),
     r"episode 1: frame_id not strictly increasing"),
    ("no_lengths", _drop("lengths"),
     r"dataset metadata .*: lengths is stored as None, the metadata gives \(2,\)"),
    ("episodes_disagree", _three_episodes_claimed,
     r"dataset metadata .*: lengths is stored as \(2,\), the metadata gives \(3,\)"),
    ("negative_length", _set("lengths", [7, -1]), _LENGTHS),
    ("fractional_length", _set("lengths", [2.5, 3.5]), _LENGTHS),
    ("nan_length", _set("lengths", [np.nan, 3]), _LENGTHS),
    ("lengths_short_of_rows", _set("lengths", [3, 2]), _LENGTHS),
    ("fractional_frame_id", _poke("frame_ids", 4, 1.5), r"frame ids must be integers"),
    ("unknown_array", _set("extra", [1.0]),
     r"dataset metadata .*: extra is stored as \(1,\), the metadata gives None"),
]


@pytest.mark.parametrize("corrupt, message", [case[1:] for case in _MALFORMED],
                         ids=[case[0] for case in _MALFORMED])
def test_load_reports_a_malformed_record_as_dataset_error(tmp_path, corrupt, message):
    """The error names the file, and the episode where one episode breaks
    the record rule; none calls the file a checkpoint. Each file is written
    with a valid checksum, so only the dataset's own checks can catch it."""
    arrays, header = _dataset_parts(tmp_path)
    corrupt(arrays, header)
    bad = tmp_path / "bad.bin"
    _write_dataset(bad, arrays, header)
    with pytest.raises(DatasetError, match=rf"bad\.bin: {message}$") as exc:
        load_dataset(bad)
    assert "checkpoint" not in str(exc.value)


def _nan_feature(t):
    t.features[1, 3] = np.nan
    return "features"


def _inf_action(t):
    # the states stay the exact prefix sums, so only finiteness can catch it
    t.actions[1, 0] = np.inf
    t.action_states = cumulative_states(t.actions, t.action_states[0])
    return "actions"


def _nan_action(t):
    t.actions[2, 1] = np.nan
    return "actions"


def _inf_state(t):
    t.action_states[-1, 1] = -np.inf
    return "action_states"


@pytest.mark.parametrize("corrupt", [_nan_feature, _inf_action, _nan_action, _inf_state],
                         ids=["nan_feature", "inf_action", "nan_action", "inf_state"])
def test_save_rejects_non_finite_values_naming_the_episode(tmp_path, corrupt):
    """What load_dataset would reject as non-finite is never written."""
    trajs = [_traj(np.full((3, 2), 0.25), [0.0, 0.0]) for _ in range(3)]
    field = corrupt(trajs[1])
    p = tmp_path / "d.bin"
    with pytest.raises(DatasetError, match=f"^episode 1: non-finite {field}$"):
        save_dataset(p, trajs, dim=2, env_meta={}, seed=0)
    assert not p.exists()


def _six_wide_frames(t):
    t.features = t.features[:, :6]
    return r"feature rows of shape \(6,\), want \(7,\)"


def _one_ragged_frame(t):
    # frames as a list of rows, one of them short: no (L, 7) array holds them
    t.features = [t.features[0], t.features[1, :6], t.features[2]]
    return r"feature rows of shape \(6,\), want \(7,\)"


def _one_word_frame(t):
    t.features = t.features.astype(object)
    t.features[2] = "x"
    return "non-numeric features"


@pytest.mark.parametrize("corrupt", [_six_wide_frames, _one_ragged_frame, _one_word_frame],
                         ids=["six_wide_frames", "one_ragged_frame", "one_word_frame"])
def test_save_rejects_frames_load_would_reject_naming_the_episode(tmp_path, corrupt):
    """Frames that are not obs_dim numbers (the header's obs_dim, OBS_DIM by
    default) are never written: load_dataset would reject them."""
    trajs = [_traj(np.full((3, 2), 0.25), [0.0, 0.0]) for _ in range(3)]
    message = corrupt(trajs[1])
    p = tmp_path / "d.bin"
    with pytest.raises(DatasetError, match=f"^episode 1: {message}$"):
        save_dataset(p, trajs, dim=2, env_meta={}, seed=0)
    assert not p.exists()


@pytest.mark.parametrize("field, values", [("frame_ids", np.arange(3.0)),
                                           ("capture_times", np.arange(3))],
                         ids=["float_ids", "int_times"])
def test_save_rejects_frame_arrays_of_another_dtype_naming_the_episode(tmp_path, field, values):
    """Float frame ids or integer capture times would load back in the other
    dtype, and the loaded copy would not match what was saved."""
    trajs = [_traj(np.full((3, 2), 0.25), [0.0, 0.0]) for _ in range(2)]
    setattr(trajs[1], field, values)
    p = tmp_path / "d.bin"
    with pytest.raises(DatasetError, match="^episode 1: frame ids must be integers and capture times floats$"):
        save_dataset(p, trajs, dim=2, env_meta={}, seed=0)
    assert not p.exists()


def test_save_rejects_frame_ids_float64_cannot_hold_naming_the_episode(tmp_path):
    trajs = [_traj(np.full((3, 2), 0.25), [0.0, 0.0]) for _ in range(2)]
    trajs[1].frame_ids = np.array([0, 1, 2**53 + 1])
    p = tmp_path / "d.bin"
    with pytest.raises(DatasetError, match=r"^episode 1: frame ids beyond 2\*\*53 in magnitude"):
        save_dataset(p, trajs, dim=2, env_meta={}, seed=0)
    assert not p.exists()


def test_save_and_load_take_the_frame_width_from_the_header(tmp_path):
    trajs = [_traj(np.full((3, 2), 0.25), [0.0, 0.0]) for _ in range(2)]
    for t in trajs:
        _six_wide_frames(t)
    p = tmp_path / "d.bin"
    save_dataset(p, trajs, dim=2, env_meta={"obs_dim": 6}, seed=0)
    loaded, _ = load_dataset(p)
    assert loaded[1].features.shape == (3, 6)


def test_save_rejects_actions_of_another_dim_naming_the_episode(tmp_path):
    trajs = [_traj(np.full((3, 2), 0.25), [0.0, 0.0]) for _ in range(2)]
    p = tmp_path / "d.bin"
    with pytest.raises(DatasetError, match=r"^episode 0: actions of shape \(3, 2\), want \(L, 3\)$"):
        save_dataset(p, trajs, dim=3, env_meta={}, seed=0)
    assert not p.exists()


def test_unsigned_frame_ids_that_decrease_are_refused(tmp_path):
    """[5, 3] as uint64 is not increasing, though its difference wraps to
    a huge positive number; nothing is written."""
    t = _traj([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    t.frame_ids = np.array([5, 3], dtype=np.uint64)
    with pytest.raises(DatasetError, match="^frame_id not strictly increasing$"):
        t.validate()
    p = tmp_path / "d.bin"
    with pytest.raises(DatasetError, match="^episode 0: frame_id not strictly increasing$"):
        save_dataset(p, [t], dim=2, env_meta={}, seed=0)
    assert not p.exists()


def test_unsigned_frame_ids_round_trip_beside_signed_ones(tmp_path):
    trajs = [_traj(np.full((3, 2), 0.25), [0.0, 0.0]) for _ in range(3)]
    trajs[1].frame_ids = np.array([0, 1, 2**53], dtype=np.uint64)
    p = tmp_path / "d.bin"
    save_dataset(p, trajs, dim=2, env_meta={}, seed=0)
    loaded, _ = load_dataset(p)
    assert [t.frame_ids.tolist() for t in loaded] == [[0, 1, 2], [0, 1, 2**53], [0, 1, 2]]
    # no common integer dtype holds both, and a float64 one would round 2**53 + 1 to 2**53
    trajs[1].frame_ids[2] += 1
    with pytest.raises(DatasetError, match=r"^episode 1: frame ids beyond 2\*\*53 in magnitude"):
        save_dataset(tmp_path / "e.bin", trajs, dim=2, env_meta={}, seed=0)


_BEYOND_2_53 = "frame ids beyond 2**53 in magnitude, which float64 does not hold exactly"


def _first_fault(t):
    """An episode's first failing value check, one check at a time in the
    record rule's order: finite values, the exact prefix-sum ledger,
    strictly increasing frame ids, ids float64 holds exactly."""
    for name in ("features", "actions", "action_states"):
        if not np.isfinite(getattr(t, name)).all():
            return f"non-finite {name}"
    if not np.array_equal(cumulative_states(t.actions, t.action_states[0]), t.action_states):
        return "action_states is not the exact prefix sum of actions"
    ids = t.frame_ids.tolist()
    if any(b <= a for a, b in zip(ids, ids[1:])):
        return "frame_id not strictly increasing"
    if any(abs(i) > 2**53 for i in ids):
        return _BEYOND_2_53
    return None


def _episode(rng, n):
    actions = rng.normal(size=(n, 2))
    return Trajectory(features=rng.normal(size=(n, 7)),
                      frame_ids=np.cumsum(rng.integers(1, 4, size=n)) + int(rng.integers(-50, 50)),
                      capture_times=np.arange(n, dtype=np.float64), actions=actions,
                      action_states=cumulative_states(actions, rng.normal(size=2)))


def _raw_dataset(path, trajs):
    """trajs in the stored layout, written with no check at all."""
    def joined(name, *row):
        return np.concatenate([np.empty((0, *row)), *(getattr(t, name) for t in trajs)])
    _write_dataset(path, {"lengths": np.array([len(t) for t in trajs], dtype=np.float64),
                          "features": joined("features", 7), "frame_ids": joined("frame_ids"),
                          "capture_times": joined("capture_times"), "actions": joined("actions", 2),
                          "action_states": joined("action_states", 2)},
                   {"format": "streampolicy-trajectories", "version": 2, "dim": 2,
                    "episodes": len(trajs), "env": {}, "seed": 0})


def _corrupt(data, trajs):
    """One corruption the record rule must catch, at a drawn episode long
    enough to take it; the ids beyond 2**53 are ones float64 holds, so the
    raw file keeps them."""
    kind = data.draw(st.sampled_from(["non_finite", "ledger", "repeat_id", "decrease_id", "huge_id"]))
    need = {"non_finite": 0, "ledger": 1, "repeat_id": 2, "decrease_id": 2, "huge_id": 1}[kind]
    fit = [t for t in trajs if len(t) >= need]
    if not fit:
        return
    t = data.draw(st.sampled_from(fit))
    if kind == "non_finite":
        name = data.draw(st.sampled_from(["features", "actions", "action_states"] if len(t)
                                         else ["action_states"]))
        values = getattr(t, name)
        row = data.draw(st.integers(0, len(values) - 1))
        values[row, data.draw(st.integers(0, values.shape[1] - 1))] = \
            data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    elif kind == "ledger":
        t.actions[data.draw(st.integers(0, len(t) - 1)), data.draw(st.integers(0, 1))] += 0.5
    elif kind == "huge_id":
        t.frame_ids[data.draw(st.integers(0, len(t) - 1))] = \
            data.draw(st.sampled_from([2**53 + 2, -(2**53) - 2, 2**60, -(2**62)]))
    else:
        k = data.draw(st.integers(1, len(t) - 1))
        t.frame_ids[k] = t.frame_ids[k - 1] - (kind == "decrease_id") * data.draw(st.integers(1, 5))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_the_record_rule_names_the_lowest_broken_episode_on_save_and_load(data):
    """0-6 episodes of 0-5 steps with zero, one or two corruptions: save
    and load report the lowest broken episode and its first failing check,
    save writes nothing, and a sound dataset round-trips bit for bit."""
    rng = make_rng(data.draw(st.integers(0, 2**32 - 1)))
    trajs = [_episode(rng, n) for n in data.draw(st.lists(st.integers(0, 5), max_size=6))]
    for _ in range(data.draw(st.integers(0, 2))):
        _corrupt(data, trajs)
    faults = [(i, m) for i, m in ((i, _first_fault(t)) for i, t in enumerate(trajs)) if m]
    with tempfile.TemporaryDirectory() as tmp:
        p, raw = Path(tmp) / "d.bin", Path(tmp) / "raw.bin"
        _raw_dataset(raw, trajs)
        if faults:
            i, message = faults[0]
            with pytest.raises(DatasetError) as exc:
                save_dataset(p, trajs, dim=2, env_meta={}, seed=0)
            assert str(exc.value) == f"episode {i}: {message}" and not p.exists()
            with pytest.raises(DatasetError) as exc:
                load_dataset(raw)
            assert str(exc.value) == f"{raw}: episode {i}: {message}"
            return
        save_dataset(p, trajs, dim=2, env_meta={}, seed=0)
        assert p.read_bytes() == raw.read_bytes()
        loaded, _ = load_dataset(p)
    assert len(loaded) == len(trajs)
    for a, b in zip(trajs, loaded):
        for name in ("features", "frame_ids", "capture_times", "actions", "action_states"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


# (id, array of episode 2, index, value, the error after "episode 2: ")
_AFTER_AN_EMPTY_EPISODE = [
    ("nan_feature", "features", (0, 6), np.nan, "non-finite features"),
    ("inf_action", "actions", (2, 0), np.inf, "non-finite actions"),
    ("nan_first_state", "action_states", (0, 1), np.nan, "non-finite action_states"),
    ("ledger_step", "action_states", (3, 1), 7.0, "action_states is not the exact prefix sum of actions"),
    ("repeated_id", "frame_ids", 1, 0, "frame_id not strictly increasing"),
    ("huge_last_id", "frame_ids", 2, 2**54, _BEYOND_2_53),
]


@pytest.mark.parametrize("name, index, value, message", [c[1:] for c in _AFTER_AN_EMPTY_EPISODE],
                         ids=[c[0] for c in _AFTER_AN_EMPTY_EPISODE])
def test_a_broken_episode_after_an_empty_one_is_named_on_save_and_load(tmp_path, name, index, value,
                                                                        message):
    """Lengths (2, 0, 3): the empty episode holds one state row and no
    frame, and the rule still names the third episode as episode 2."""
    trajs = [_traj(np.full((n, 2), 0.5), [1.0, -1.0]) for n in (2, 0, 3)]
    getattr(trajs[2], name)[index] = value
    p, raw = tmp_path / "d.bin", tmp_path / "raw.bin"
    with pytest.raises(DatasetError, match=f"^episode 2: {re.escape(message)}$"):
        save_dataset(p, trajs, dim=2, env_meta={}, seed=0)
    assert not p.exists()
    _raw_dataset(raw, trajs)
    with pytest.raises(DatasetError, match=f"^{re.escape(str(raw))}: episode 2: {re.escape(message)}$"):
        load_dataset(raw)


def test_an_empty_episode_that_breaks_its_state_is_named(tmp_path):
    trajs = [_traj(np.full((n, 2), 0.5), [1.0, -1.0]) for n in (2, 0, 3)]
    trajs[1].action_states[0, 0] = np.inf
    with pytest.raises(DatasetError, match="^episode 1: non-finite action_states$"):
        save_dataset(tmp_path / "d.bin", trajs, dim=2, env_meta={}, seed=0)


def test_zero_episodes_keep_the_rule_and_round_trip(tmp_path):
    p, raw = tmp_path / "d.bin", tmp_path / "raw.bin"
    save_dataset(p, [], dim=2, env_meta={}, seed=0)
    _raw_dataset(raw, [])
    assert p.read_bytes() == raw.read_bytes()
    assert load_dataset(p)[0] == []


def test_the_first_failing_check_of_the_lowest_episode_is_reported(tmp_path):
    """Episode 1 breaks its ledger and, later in check order, its ids;
    episode 2 has a non-finite feature, which comes first in check order
    but in a later episode."""
    trajs = [_traj(np.full((3, 2), 0.25), [0.0, 0.0]) for _ in range(3)]
    trajs[1].action_states[2, 0] = 9.0
    trajs[1].frame_ids[2] = 0
    trajs[2].features[0, 0] = np.nan
    with pytest.raises(DatasetError, match="^episode 1: action_states is not the exact prefix sum"):
        save_dataset(tmp_path / "d.bin", trajs, dim=2, env_meta={}, seed=0)


def test_a_shape_fault_waits_for_earlier_episodes_and_its_own_values(tmp_path):
    """A shape fault in episode 2 is reported only when episodes 0 and 1
    keep the rule, and after episode 2's own non-finite values, which the
    rule checks before actions' and states' shapes."""
    trajs = [_traj(np.full((3, 2), 0.25), [0.0, 0.0]) for _ in range(3)]
    trajs[2].action_states = trajs[2].action_states[:-1]
    p = tmp_path / "d.bin"
    with pytest.raises(DatasetError, match=r"^episode 2: action_states shape \(3, 2\), want \(4, 2\)$"):
        save_dataset(p, trajs, dim=2, env_meta={}, seed=0)
    trajs[2].actions[0, 0] = np.nan
    with pytest.raises(DatasetError, match="^episode 2: non-finite actions$"):
        save_dataset(p, trajs, dim=2, env_meta={}, seed=0)
    trajs[1].frame_ids[1] = 0
    with pytest.raises(DatasetError, match="^episode 1: frame_id not strictly increasing$"):
        save_dataset(p, trajs, dim=2, env_meta={}, seed=0)
    assert not p.exists()
