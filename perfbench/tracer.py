"""In-memory span tracer wrapped around the public functions of each layer.

Nothing under ``src/`` knows about it: :func:`install` replaces the layer
functions named in ``README.md`` with thin wrappers that record a span
(name, start, end) per call on the calling thread.  Spans nest on a
per-thread stack, and every stack change closes a *segment*: the interval
during which one span was the innermost open span of its thread.  A span's
self time is the sum of its segments, so self time never counts a child.

Stage workers are forked from the benchmark process and inherit the
wrappers.  An after-fork hook clears the inherited buffers and registers a
multiprocessing finalizer, so each worker writes its own buffers to
``spans-<pid>.pkl`` when it exits; :func:`load_all` merges them with the
parent's.  ``time.perf_counter`` reads CLOCK_MONOTONIC on Linux, one
clock for every process, so spans from different processes share a
timeline.
"""

from __future__ import annotations

import functools
import glob
import os
import pickle
import threading
import time
from array import array
from multiprocessing import util as mp_util

import numpy as np

#: the span clock (CLOCK_MONOTONIC on Linux, shared by all processes)
now = time.perf_counter


class _ThreadBuf:
    """Span stack and recorded spans/segments of one thread."""

    __slots__ = (
        "stack", "seg_start", "seg_name", "seg_t0", "seg_t1",
        "span_name", "span_t0", "span_t1",
    )

    def __init__(self) -> None:
        self.stack: list[tuple[int, float]] = []
        self.seg_start = 0.0
        self.seg_name = array("i")
        self.seg_t0 = array("d")
        self.seg_t1 = array("d")
        self.span_name = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")

    def segment(self, nid: int, t0: float, t1: float) -> None:
        if t1 > t0:
            self.seg_name.append(nid)
            self.seg_t0.append(t0)
            self.seg_t1.append(t1)


class Tracer:
    """Per-process span recorder (see the module docstring)."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.names: dict[str, int] = {}
        self.name_list: list[str] = []
        self._lock = threading.Lock()
        self._reset()
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        self.counters: dict[str, float] = {}
        self._bufs: dict[int, _ThreadBuf] = {}
        self._local = threading.local()

    def _after_fork(self) -> None:
        # the child starts with copies of the parent's buffers and of the
        # forking thread's open spans; neither belongs to the child
        self._lock = threading.Lock()
        self._reset()
        mp_util.Finalize(None, self.flush, exitpriority=100)

    def name_id(self, name: str) -> int:
        nid = self.names.get(name)
        if nid is None:
            with self._lock:
                nid = self.names.setdefault(name, len(self.name_list))
                if nid == len(self.name_list):
                    self.name_list.append(name)
        return nid

    def _buf(self) -> _ThreadBuf:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuf()
            self._local.buf = buf
            with self._lock:
                self._bufs[threading.get_ident()] = buf
        return buf

    # -- recording (hot path) ---------------------------------------------

    def push(self, nid: int) -> _ThreadBuf:
        t = now()
        buf = self._buf()
        if buf.stack:
            buf.segment(buf.stack[-1][0], buf.seg_start, t)
        buf.stack.append((nid, t))
        buf.seg_start = t
        return buf

    def pop(self, buf: _ThreadBuf) -> None:
        t = now()
        nid, t0 = buf.stack.pop()
        buf.segment(nid, buf.seg_start, t)
        buf.span_name.append(nid)
        buf.span_t0.append(t0)
        buf.span_t1.append(t)
        buf.seg_start = t

    def leaf(self, nid: int, t0: float, t1: float) -> None:
        """Record a finished childless span after the fact (used where
        only some calls are worth a span, e.g. a poll that found data)."""
        buf = self._buf()
        if buf.stack:
            buf.segment(buf.stack[-1][0], buf.seg_start, t0)
            buf.seg_start = t1
        buf.segment(nid, t0, t1)
        buf.span_name.append(nid)
        buf.span_t0.append(t0)
        buf.span_t1.append(t1)

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def span(self, name: str, fn):
        """``fn`` wrapped in a span of a fixed name."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self.push(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.pop(buf)

        return wrapper

    # -- output -------------------------------------------------------------

    def snapshot(self) -> dict:
        """This process's buffers as arrays (threads keyed by ident)."""
        with self._lock:
            bufs = dict(self._bufs)
            counters = dict(self.counters)
        fields = ("seg_name", "seg_t0", "seg_t1", "span_name", "span_t0", "span_t1")
        threads = {
            ident: {key: np.array(getattr(b, key)) for key in fields}
            for ident, b in bufs.items()
        }
        return {
            "pid": os.getpid(),
            "names": list(self.name_list),
            "counters": counters,
            "threads": threads,
        }

    def flush(self) -> None:
        """Write this process's buffers to ``spans-<pid>.pkl``."""
        snap = self.snapshot()
        path = os.path.join(self.out_dir, f"spans-{snap['pid']}.pkl")
        with open(path, "wb") as f:
            pickle.dump(snap, f, protocol=pickle.HIGHEST_PROTOCOL)


def load_all(tracer: Tracer) -> list[dict]:
    """The calling process's snapshot plus every worker's flushed file
    (deleted once read), each with names remapped into one shared name
    table."""
    procs = [tracer.snapshot()]
    for path in sorted(glob.glob(os.path.join(tracer.out_dir, "spans-*.pkl"))):
        # written by this benchmark's own stage workers
        with open(path, "rb") as f:
            procs.append(pickle.load(f))
        os.unlink(path)
    for proc in procs:
        remap = np.array(
            [tracer.name_id(n) for n in proc["names"]] or [0], dtype=np.int32
        )
        for th in proc["threads"].values():
            th["seg_name"] = remap[th["seg_name"]]
            th["span_name"] = remap[th["span_name"]]
    return procs
