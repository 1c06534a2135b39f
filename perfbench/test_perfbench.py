"""Tests of the benchmark's own machinery: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from common import REF_KERNEL_MS, HostSpeed, derive_seeds, figure, summarize, tail_percentile  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _fake_module():
    mod = SimpleNamespace(__name__="fake")

    def leaf(dt):
        time.sleep(dt)

    def outer():
        time.sleep(0.02)
        mod.leaf(0.03)
        mod.leaf(0.01)

    mod.leaf, mod.outer = leaf, outer
    return mod


def test_self_time_excludes_children_and_restore_unwraps():
    mod = _fake_module()
    original = mod.outer
    tracer = Tracer()
    tracer.wrap(mod, "leaf", "fake.leaf")
    tracer.wrap(mod, "outer", "fake.outer")
    with tracer.span("bench.root"):
        mod.outer()
    tracer.stop()
    assert mod.outer is original
    st = tracer.stats()
    assert st["fake.leaf"]["calls"] == 2
    assert st["fake.outer"]["calls"] == 1
    assert st["fake.outer"]["total_s"] >= 0.06
    assert 0.02 <= st["fake.outer"]["self_s"] < 0.035
    # self times of a strictly nested tree add up to its root's duration
    total_self = sum(d["self_s"] for d in st.values())
    assert total_self == pytest.approx(st["bench.root"]["total_s"], rel=1e-9)
    children = tracer.child_totals("fake.outer")
    assert children["fake.leaf"] == pytest.approx(st["fake.leaf"]["total_s"])
    assert tracer.n_spans() == 4


def test_span_names_can_depend_on_the_call():
    mod = SimpleNamespace(run=lambda clock="simulated": clock)
    tracer = Tracer()
    tracer.wrap(mod, "run", lambda args, kwargs: f"run.{kwargs.get('clock', 'simulated')}")
    mod.run()
    mod.run(clock="wall")
    tracer.stop()
    assert set(tracer.stats()) == {"run.simulated", "run.wall"}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(40) == 75.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0
    s = summarize(range(1, 101))
    assert s["value"] == s["median"] == pytest.approx(50.5)
    assert s["tail_percentile"] == 90.0 and s["n"] == 100 and s["tail"] > s["median"]
    rate = summarize(range(1, 101), higher_is_better=True)
    assert rate["tail"] < rate["median"]


def test_blocks_are_normalized_by_the_marks_around_them():
    speed = HostSpeed()
    speed.marks = [(0.0, REF_KERNEL_MS), (1.0, 2 * REF_KERNEL_MS), (2.0, 2 * REF_KERNEL_MS)]
    # a block between a reference-speed mark and a half-speed mark
    assert speed.factor(0.1, 0.9) == pytest.approx(1 / 1.5)
    assert speed.factor(1.1, 1.9) == pytest.approx(0.5)
    times = figure([(1.1, 1.9, 4.0), (1.2, 1.8, 6.0)], speed)
    assert times["value"] == pytest.approx(2.5) and times["raw_median"] == pytest.approx(5.0)
    rates = figure([(1.1, 1.9, 100.0)], speed, rate=True)
    assert rates["value"] == pytest.approx(200.0)
    with pytest.raises(ValueError):
        HostSpeed().factor(0.0, 1.0)


def test_seeds_are_derived_deterministically():
    assert derive_seeds(5, 3) == derive_seeds(5, 3)
    assert derive_seeds(5, 3) != derive_seeds(6, 3)
    assert derive_seeds(5, 2, 1) != derive_seeds(5, 2, 2)
    assert all(0 <= s < 2**31 for s in derive_seeds(5, 8))


def test_benchmark_json_matches_the_code_and_the_contract():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == ["train", "bench-sim", "wall"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + \
        [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert 1 <= spec["run_seconds"] <= 60 and len(spec["per_layer"]) <= 128


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
