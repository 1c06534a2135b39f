"""In-memory span tracer that instruments the package from outside.

A layer is measured by replacing a module attribute (for example
``velocitynet.forward``) with a wrapper that records a span around the call.
The package looks these attributes up at call time, so wrapping them reaches
every caller without editing the package.

Spans keep (name, start, end, parent) in per-thread typed arrays, so a traced
run of a few hundred thousand calls stays at tens of megabytes. Self time, the
part of a span not covered by its children, is accumulated on exit: calls in
one thread nest strictly, so the children of a span never overlap and their
summed durations are the covered part.
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import wraps

import numpy as np


class _ThreadBuf:
    def __init__(self, thread_name: str):
        self.thread_name = thread_name
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[list] = []   # [span index, child time covered]
        self.stats: dict[int, list] = {}  # name id -> [calls, total s, self s]


class Tracer:
    """Records a span for each wrapped call and a count at the same boundary."""

    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._tls = threading.local()
        self._bufs: list[_ThreadBuf] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self.t_start = time.perf_counter()
        self.t_stop: float | None = None

    def _nid(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self._names)
                self._names.append(name)
            return self._ids[name]

    def _buf(self) -> _ThreadBuf:
        buf = getattr(self._tls, "buf", None)
        if buf is None:
            buf = _ThreadBuf(threading.current_thread().name)
            self._tls.buf = buf
            with self._lock:
                self._bufs.append(buf)
        return buf

    def _enter(self, nid: int):
        buf = self._buf()
        stack = buf.stack
        idx = len(buf.start)
        buf.name.append(nid)
        buf.parent.append(stack[-1][0] if stack else -1)
        t0 = time.perf_counter()
        buf.start.append(t0)
        buf.end.append(t0)
        frame = [idx, 0.0]
        stack.append(frame)
        return buf, frame, t0

    @staticmethod
    def _exit(buf: _ThreadBuf, nid: int, frame: list, t0: float) -> None:
        t1 = time.perf_counter()
        buf.end[frame[0]] = t1
        stack = buf.stack
        stack.pop()
        dur = t1 - t0
        st = buf.stats.get(nid)
        if st is None:
            st = buf.stats[nid] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[1]
        if stack:
            stack[-1][1] += dur

    def wrap(self, owner, attr: str, name) -> None:
        """Replace owner.attr by a span-recording wrapper; undone by restore().

        name is the span name, or a function of the call's (args, kwargs)
        that returns it.
        """
        fn = getattr(owner, attr)
        enter, leave = self._enter, self._exit
        if callable(name):
            pick, nid_of = name, self._nid
        else:
            fixed = self._nid(name)
            pick, nid_of = None, None

        @wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if pick is None else nid_of(pick(args, kwargs))
            buf, frame, t0 = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(buf, nid, frame, t0)

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        nid = self._nid(name)
        buf, frame, t0 = self._enter(nid)
        try:
            yield
        finally:
            self._exit(buf, nid, frame, t0)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def stop(self) -> None:
        self.restore()
        self.t_stop = time.perf_counter()

    @property
    def wall_s(self) -> float:
        end = self.t_stop if self.t_stop is not None else time.perf_counter()
        return end - self.t_start

    def stats(self, main_only: bool = False) -> dict[str, dict]:
        """name -> {calls, total_s, self_s}, summed over threads."""
        out: dict[str, dict] = {}
        main = threading.main_thread().name
        for buf in self._bufs:
            if main_only and buf.thread_name != main:
                continue
            for nid, (calls, total, self_s) in buf.stats.items():
                d = out.setdefault(self._names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                d["calls"] += calls
                d["total_s"] += total
                d["self_s"] += self_s
        return out

    def child_totals(self, parent_name: str) -> dict[str, float]:
        """Summed duration of the direct children of every parent_name span, by name."""
        pid = self._ids.get(parent_name)
        out: dict[str, float] = {}
        if pid is None:
            return out
        for buf in self._bufs:
            names = np.array(buf.name, dtype=np.int64)
            parents = np.array(buf.parent, dtype=np.int64)
            dur = np.array(buf.end) - np.array(buf.start)
            parent_names = np.where(parents >= 0, names[np.maximum(parents, 0)], -1)
            mask = parent_names == pid
            for cid in np.unique(names[mask]):
                name = self._names[int(cid)]
                out[name] = out.get(name, 0.0) + float(dur[mask & (names == cid)].sum())
        return out

    def n_spans(self) -> int:
        return sum(len(b.start) for b in self._bufs)

    def save(self, path) -> None:
        """Write every span as flat arrays (npz); times relative to tracer start."""
        arrays = {"names": np.asarray(self._names)}
        for i, buf in enumerate(self._bufs):
            arrays[f"t{i}_name"] = np.array(buf.name, dtype=np.int32)
            arrays[f"t{i}_parent"] = np.array(buf.parent, dtype=np.int32)
            arrays[f"t{i}_start"] = np.array(buf.start) - self.t_start
            arrays[f"t{i}_end"] = np.array(buf.end) - self.t_start
        arrays["threads"] = np.asarray([b.thread_name for b in self._bufs])
        np.savez(path, **arrays)
