"""Forward-only pipelined inference: streams, driver, and run stats.

Training taught this repo three ways to run a pipeline (discrete-time
simulator, thread-per-stage, process-per-stage over shared-memory
rings); serving needs the same pipeline *without the backward half*.
torchgpipe and PipeDream both note that the forward pipelining structure
pays off at inference time too — stages stay busy on a stream of small
packets without waiting for large batches, which is exactly the paper's
argument applied to the online setting.

This module is the engine-level half of the :mod:`repro.serve`
subsystem.  It provides one **inference stream** per runtime backend —
a persistent forward-only pipeline you push packets into and pull
outputs out of:

* :class:`SimInferenceStream` — synchronous in-process forward (the
  discrete-time engine's counterpart; a submitted packet is transformed
  through every stage immediately);
* :class:`ThreadedInferenceStream` — one worker thread per compute
  stage, packets through per-stage forward deques;
* :class:`ProcessInferenceStream` — one worker process per compute
  stage, packets through the **forward-only shared-memory rings** of
  :func:`repro.pipeline.transport.build_inference_rings` (no backward
  slots: slots are released eagerly, and the last ring is consumed by
  the parent, which reads the logits straight out of shared memory).

All three expose the same SPSC surface — ``submit`` (non-blocking, with
explicit backpressure: ``False`` means "pipeline full, try later"),
``poll`` (completed ``(pid, start, logits)`` triples) and ``close`` —
so :func:`run_inference` can drive any of them through an
:class:`~repro.pipeline.schedule.InferenceSchedule` unchanged, and the
serving front-end (:mod:`repro.serve.server`) can keep one stream open
across requests.

Determinism contract
--------------------

Inference applies no updates, so weights are constant and every packet's
output is independent of worker timing: **all three streams produce
bit-identical outputs for the same packet decomposition**.  The
decomposition itself matters — BLAS kernels round differently for
different GEMM shapes, so a width-3 packet and a width-64 batch can
disagree in the last ulp — which is why the parity contract everywhere
in :mod:`repro.serve` is "bit-exact with the offline batched forward
over the *same* micro-batch packets" (pinned in
``tests/test_serve_session.py``).

Streams hold modules in ``eval`` mode for their lifetime (BatchNorm uses
running stats, Dropout passes through) and run every stage forward with
``train=False`` — no autodiff graph, no stash, nothing mutated.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.pipeline.schedule import InferenceSchedule, Schedule, ScheduleState
from repro.pipeline.stage import PipelineStage, StageBuildSpec
from repro.pipeline.transport import (
    ShmRing,
    build_inference_rings,
)
from repro.pipeline.workers import (
    PipelineRuntimeError,
    StageRuntimeStats,
    StageWorkerGroup,
    WorkerSpec,
)

#: Default ceiling for any single wait inside a stream or driver.
DEFAULT_INFER_TIMEOUT = 60.0
#: Default maximum packets in flight inside one stream (backpressure
#: threshold; the process stream additionally sizes its rings with it).
DEFAULT_STREAM_CAPACITY = 8


class InferenceStreamError(RuntimeError):
    """A stream worker died or the stream was misused."""


@dataclass
class InferenceRunStats:
    """Outcome of one forward-only run (``engine.infer`` /
    ``InferenceSession.infer``).

    ``outputs`` holds one logits row per input sample, in input order;
    ``time_steps`` is the modeled pipeline span (``P + S - 1`` for ``P``
    packets — forward-only pays half of training's fill cost).
    """

    outputs: np.ndarray
    time_steps: int
    forward_ops: int
    forward_samples: int
    num_stages: int
    samples: int
    micro_batch: int = 1
    schedule: str = "infer"
    backend: str = "sim"
    wall_seconds: float = 0.0
    stage_counters: list = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Samples per wall-clock second (NaN for an unmeasured run)."""
        if self.wall_seconds <= 0.0:
            return float("nan")
        return self.samples / self.wall_seconds


@contextmanager
def modules_eval_mode(modules):
    """Hold the given modules in eval mode (restore previous on exit) —
    the one save/eval/restore implementation every serving-side caller
    shares (streams, offline references, the sequential baseline)."""
    modules = list(modules)
    prev = [m.training for m in modules]
    for m in modules:
        m.eval()
    try:
        yield
    finally:
        for m, mode in zip(modules, prev):
            m.train(mode)


def eval_mode(stages: Sequence[PipelineStage]):
    """:func:`modules_eval_mode` over a stage list's modules."""
    return modules_eval_mode(
        st.spec.module for st in stages if st.spec.module is not None
    )


def _check_inference_stages(stages: Sequence[PipelineStage]) -> None:
    if len(stages) < 2 or stages[-1].spec.kind != "loss":
        raise InferenceStreamError(
            "inference needs a pipeline of >= 2 stages ending in the "
            f"loss slot (got {len(stages)} stages)"
        )


class _Stream:
    """The surface every stream shares besides its own ``close``."""

    _closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise InferenceStreamError("stream is closed")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


# ---------------------------------------------------------------------------
# sim stream
# ---------------------------------------------------------------------------


class SimInferenceStream(_Stream):
    """Synchronous forward-only stream (the simulator's counterpart).

    ``submit`` transforms the packet through every compute stage
    immediately and buffers the result for ``poll``.  ``capacity``
    bounds the unpolled-result buffer so a caller that never polls still
    sees backpressure instead of unbounded growth — the same contract
    the concurrent streams enforce on their in-flight window.
    """

    backend = "sim"

    def __init__(
        self,
        stages: Sequence[PipelineStage],
        capacity: int = DEFAULT_STREAM_CAPACITY,
        **_unused: Any,
    ):
        _check_inference_stages(stages)
        self.stages = list(stages)
        self.capacity = max(1, int(capacity))
        self.counters = [
            StageRuntimeStats(index=s) for s in range(len(stages))
        ]
        self._results: deque = deque()
        self._lock = threading.Lock()
        self._eval_guard = eval_mode(self.stages)
        self._eval_guard.__enter__()

    def submit(self, pid: int, start: int, x: np.ndarray) -> bool:
        self._check_open()
        with self._lock:
            if len(self._results) >= self.capacity:
                return False
        payload = [np.asarray(x)]
        for s, stage in enumerate(self.stages[:-1]):
            t0 = time.perf_counter()
            payload = stage.forward(pid, payload, train=False)
            counters = self.counters[s]
            counters.forward_ops += 1
            counters.forward_samples += x.shape[0]
            counters.busy_seconds += time.perf_counter() - t0
        with self._lock:
            self._results.append((pid, start, payload[0]))
        return True

    def poll(self) -> list[tuple[int, int, np.ndarray]]:
        with self._lock:
            out = list(self._results)
            self._results.clear()
        return out

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._eval_guard.__exit__(None, None, None)


# ---------------------------------------------------------------------------
# threaded stream
# ---------------------------------------------------------------------------


class _FwdChannel:
    """A compute stage's inbound forward mailbox (deque + condition)."""

    __slots__ = ("cond", "items", "closed")

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.items: deque = deque()
        self.closed = False

    def put(self, item) -> None:
        with self.cond:
            self.items.append(item)
            self.cond.notify_all()

    def close(self) -> None:
        with self.cond:
            self.closed = True
            self.cond.notify_all()


class ThreadedInferenceStream(_Stream):
    """Persistent thread-per-stage forward-only pipeline.

    ``capacity`` bounds the total packets in flight (submitted, not yet
    polled); a full window turns ``submit`` into ``False`` — explicit
    backpressure for the serving dispatcher.
    """

    backend = "threaded"

    def __init__(
        self,
        stages: Sequence[PipelineStage],
        capacity: int = DEFAULT_STREAM_CAPACITY,
        stall_timeout: float = DEFAULT_INFER_TIMEOUT,
        **_unused: Any,
    ):
        _check_inference_stages(stages)
        self.stages = list(stages)
        self.capacity = max(1, int(capacity))
        self.stall_timeout = float(stall_timeout)
        self.counters = [
            StageRuntimeStats(index=s) for s in range(len(stages))
        ]
        self._channels = [_FwdChannel() for _ in range(len(stages) - 1)]
        self._results: deque = deque()
        self._results_lock = threading.Lock()
        self._in_flight = 0
        self._error: BaseException | None = None
        self._eval_guard = eval_mode(self.stages)
        self._eval_guard.__enter__()
        self._threads = [
            threading.Thread(
                target=self._worker,
                args=(s,),
                name=f"infer-stage-{s}",
                daemon=True,
            )
            for s in range(len(stages) - 1)
        ]
        for t in self._threads:
            t.start()

    def _worker(self, s: int) -> None:
        stage = self.stages[s]
        ch = self._channels[s]
        last = s == len(self.stages) - 2
        while True:
            with ch.cond:
                while not ch.items and not ch.closed:
                    ch.cond.wait(0.05)
                if not ch.items and ch.closed:
                    return
                pid, start, payload = ch.items.popleft()
            try:
                t0 = time.perf_counter()
                out = stage.forward(pid, payload, train=False)
                counters = self.counters[s]
                counters.forward_ops += 1
                counters.forward_samples += out[0].shape[0]
                counters.busy_seconds += time.perf_counter() - t0
                if last:
                    with self._results_lock:
                        self._results.append((pid, start, out[0]))
                else:
                    self._channels[s + 1].put((pid, start, out))
            except BaseException as exc:
                self._error = exc
                for other in self._channels:
                    other.close()
                return

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            raise InferenceStreamError(
                f"inference worker failed: {self._error!r}"
            ) from self._error

    def submit(self, pid: int, start: int, x: np.ndarray) -> bool:
        self._check_open()
        self._raise_if_failed()
        with self._results_lock:
            if self._in_flight >= self.capacity:
                return False
            self._in_flight += 1
        self._channels[0].put((pid, start, [np.asarray(x)]))
        return True

    def poll(self) -> list[tuple[int, int, np.ndarray]]:
        self._raise_if_failed()
        with self._results_lock:
            out = list(self._results)
            self._results.clear()
            self._in_flight -= len(out)
        return out

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for ch in self._channels:
            ch.close()
        deadline = time.monotonic() + self.stall_timeout
        for t in self._threads:
            t.join(max(0.0, deadline - time.monotonic()))
        self._threads = []
        self._eval_guard.__exit__(None, None, None)


# ---------------------------------------------------------------------------
# process stream
# ---------------------------------------------------------------------------


@dataclass(kw_only=True)
class _ServeWorkerSpec(WorkerSpec):
    """A forward-only stage worker's rings (the rest is the group's)."""

    fwd_in: ShmRing
    fwd_out: ShmRing


def _serve_loop(spec: _ServeWorkerSpec, stage: PipelineStage) -> None:
    """Forward-only event loop of one stage worker process."""
    if stage.spec.module is not None:
        stage.spec.module.eval()
    counters = StageRuntimeStats(index=spec.stage_index)
    idle_sleep = 1e-5
    while True:
        while spec.conn.poll(0):
            cmd = spec.conn.recv()
            if cmd[0] == "finalize":
                spec.conn.send(("counters", counters))
                return
            if cmd[0] == "stop":
                return
            raise RuntimeError(
                f"infer stage {spec.stage_index}: unknown command "
                f"{cmd[0]!r}"
            )
        if spec.abort.is_set():
            return
        pkt = spec.fwd_in.try_recv()
        if pkt is None:
            time.sleep(idle_sleep)
            idle_sleep = min(idle_sleep * 2.0, 2e-3)
            continue
        idle_sleep = 1e-5
        pid, start, size, payload = pkt
        t0 = time.perf_counter()
        out = stage.forward(pid, payload, train=False)
        counters.forward_ops += 1
        counters.forward_samples += size
        counters.busy_seconds += time.perf_counter() - t0
        # copy into the downstream ring before releasing anything
        # the output may alias (identity/sum stages pass views)
        spec.fwd_out.send(
            pid, start, size, out, spec.stall_timeout, spec.abort
        )
        spec.fwd_in.release()


class ProcessInferenceStream(_Stream):
    """Persistent process-per-stage forward-only pipeline over
    shared-memory rings.

    The parent produces into ring 0 and consumes the **last** ring
    directly — the final compute stage's output lands in shared memory
    and is copied out exactly once, into the result the caller sees.
    Workers stay alive across packets (and across serving requests), so
    the per-call process-launch cost of the training runtime is paid
    once per stream, not once per batch.  The workers are a
    :class:`~repro.pipeline.workers.StageWorkerGroup`, the same
    lifecycle the training runtime uses.

    ``max_width`` fixes the ring slot width (the widest packet a
    ``submit`` may carry); ``capacity`` sizes every ring, bounding the
    in-flight window — a full injection ring is the backpressure signal
    (``submit`` returns ``False``).
    """

    backend = "process"

    def __init__(
        self,
        stages: Sequence[PipelineStage],
        max_width: int,
        sample_shape: tuple,
        dtype="float64",
        capacity: int = DEFAULT_STREAM_CAPACITY,
        stall_timeout: float = DEFAULT_INFER_TIMEOUT,
        model_factory=None,
        start_method: str | None = None,
        layouts=None,
        **_unused: Any,
    ):
        _check_inference_stages(stages)
        self.stages = list(stages)
        self.capacity = max(1, int(capacity))
        self.stall_timeout = float(stall_timeout)
        self.counters = [
            StageRuntimeStats(index=s) for s in range(len(stages))
        ]
        self._workers = StageWorkerGroup(
            start_method, model_factory, self.stall_timeout
        )
        #: _raise_if_failed polls the worker pipes and may be reached
        #: from both stream ends (the server's dispatcher via submit and
        #: its collector via poll); Connection objects are not
        #: thread-safe, so health checks serialize on this lock
        self._health_lock = threading.Lock()
        self._last_health_check = 0.0
        self._eval_guard = eval_mode(self.stages)
        self._eval_guard.__enter__()
        use_factory = model_factory is not None
        try:
            probe = np.zeros(
                (max(1, int(max_width)),) + tuple(sample_shape), dtype=dtype
            )
            rings = build_inference_rings(
                self.stages, probe, slots=self.capacity, layouts=layouts
            )
            self._workers.rings = rings
            specs = [
                _ServeWorkerSpec(
                    stage_index=s,
                    fwd_in=rings[s],
                    fwd_out=rings[s + 1],
                    stall_timeout=self.stall_timeout,
                    stage_state=stage.state_dict() if use_factory else None,
                    stage=None if use_factory else stage,
                    build_spec=(
                        StageBuildSpec(
                            model_factory=model_factory,
                            index=s,
                            lr=stage.lr,
                            # rebuild on the stage's storage grid so the
                            # shipped state passes the dtype validation
                            precision=stage.precision.mode,
                        )
                        if use_factory
                        else None
                    ),
                )
                for s, stage in enumerate(self.stages[:-1])
            ]
            self._workers.launch(_serve_loop, specs, name="infer-stage-proc")
        except BaseException:
            # also exits the eval guard: eval-mode modules must not leak
            # back to a caller that still trains them
            self.close()
            raise

    # -- SPSC surface -------------------------------------------------------

    def _raise_if_failed(self) -> None:
        # rate-limited: submit/poll sit on the serving hot path, and a
        # full scan is a pipe-poll syscall per stage — checking every
        # 50 ms bounds failure-detection latency far below the stall
        # timeouts while keeping the steady state syscall-free
        now = time.monotonic()
        if now - self._last_health_check < 0.05:
            return
        # serialized: pipe poll/recv from two threads at once is
        # undefined (see _health_lock in the constructor)
        with self._health_lock:
            if now - self._last_health_check < 0.05:
                return  # another thread scanned while we waited
            self._last_health_check = now
            try:
                self._workers.check()
            except PipelineRuntimeError as exc:
                raise InferenceStreamError(
                    f"inference stage {exc.stage_index} worker failed: "
                    f"{exc.cause}"
                ) from exc

    def submit(self, pid: int, start: int, x: np.ndarray) -> bool:
        self._check_open()
        self._raise_if_failed()
        return self._workers.rings[0].try_send(
            pid, start, np.asarray(x).shape[0], [np.ascontiguousarray(x)]
        )

    def poll(self) -> list[tuple[int, int, np.ndarray]]:
        self._raise_if_failed()
        out = []
        ring = self._workers.rings[-1]
        while True:
            pkt = ring.try_recv()
            if pkt is None:
                break
            pid, start, size, views = pkt
            # one copy out of shared memory, then free the slot
            out.append((pid, start, np.array(views[0][:size], copy=True)))
            ring.release()
        return out

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        workers = self._workers
        deadline = time.monotonic() + self.stall_timeout
        with self._health_lock:  # no health check may race the pipes
            for conn in workers.conns:
                with contextlib.suppress(OSError):
                    conn.send(("finalize",))
            # abort *before* waiting for counter replies: a worker
            # blocked in a ring send (error-path teardown with packets
            # in flight) only unblocks via the abort flag, and the
            # counters wait below would otherwise stall a full
            # stall_timeout.  Idle workers drain their command pipe
            # before checking abort, so the happy path still collects
            # counters.
            workers.set_abort()
            for msg in workers.replies(deadline):
                if msg is not None and msg[0] == "counters":
                    self.counters[msg[1].index] = msg[1]
        workers.teardown(failed=False)
        self._eval_guard.__exit__(None, None, None)


# ---------------------------------------------------------------------------
# the schedule-driven batch driver
# ---------------------------------------------------------------------------


def run_inference(
    stream,
    schedule: Schedule,
    X: np.ndarray,
    num_stages: int,
    stall_timeout: float = DEFAULT_INFER_TIMEOUT,
) -> InferenceRunStats:
    """Drive one batch of samples through an open inference stream.

    The :class:`~repro.pipeline.schedule.Schedule` protocol decides
    packet widths exactly as it does for training (``inject_size`` per
    opportunity); the stream's ``submit`` backpressure gates injection
    the way ring/in-flight caps gate the training runtimes.  Outputs are
    assembled in input order, with dropped or duplicated packets turned
    into loud errors — the serving correctness contract starts here.
    """
    if not getattr(schedule, "forward_only", False):
        raise ValueError(
            f"run_inference needs a forward-only schedule, got "
            f"{schedule.name!r}"
        )
    X = np.asarray(X)
    n = X.shape[0]
    schedule.reset(n)
    state = ScheduleState(num_samples=n)
    outputs: np.ndarray | None = None
    received = np.zeros(n, dtype=bool)
    completed = 0
    f_ops = 0
    f_samples = 0
    t0 = time.perf_counter()
    last_progress = time.monotonic()
    while completed < n:
        progressed = False
        while state.next_sample < n:
            size = min(schedule.inject_size(state), n - state.next_sample)
            if size <= 0:
                break
            i = state.next_sample
            if not stream.submit(i, i, X[i : i + size]):
                break  # stream full: backpressure
            state.next_sample += size
            progressed = True
        for pid, start, logits in stream.poll():
            size = logits.shape[0]
            if outputs is None:
                outputs = np.zeros((n,) + logits.shape[1:], dtype=logits.dtype)
            if received[start : start + size].any():
                raise InferenceStreamError(
                    f"duplicate result for samples [{start}, "
                    f"{start + size})"
                )
            received[start : start + size] = True
            outputs[start : start + size] = logits
            completed += size
            f_ops += 1
            f_samples += size
            progressed = True
        now = time.monotonic()
        if progressed:
            last_progress = now
        elif now - last_progress > stall_timeout:
            raise InferenceStreamError(
                f"inference stalled: no result for {stall_timeout:.1f}s "
                f"({completed}/{n} samples done)"
            )
        elif completed < n:
            time.sleep(1e-5)
    wall = time.perf_counter() - t0
    if outputs is None:
        outputs = np.zeros((0,))
    return InferenceRunStats(
        outputs=outputs,
        time_steps=schedule.drain_span(n, num_stages),
        forward_ops=f_ops,
        forward_samples=f_samples,
        num_stages=num_stages,
        samples=n,
        micro_batch=schedule.micro_batch,
        schedule=schedule.name,
        backend=getattr(stream, "backend", "?"),
        wall_seconds=wall,
        stage_counters=list(getattr(stream, "counters", [])),
    )


def infer_batch(
    stages: Sequence[PipelineStage],
    X: np.ndarray,
    schedule: Schedule | None = None,
    micro_batch_size: int = 1,
    backend: str = "sim",
    stall_timeout: float = DEFAULT_INFER_TIMEOUT,
    **stream_kwargs: Any,
) -> InferenceRunStats:
    """One-shot batch inference: open a stream, drive the batch, close.

    The engines' ``infer()`` methods are thin wrappers over this; the
    serving front-end keeps a stream open instead (see
    :meth:`repro.serve.session.InferenceSession.open_stream`).
    """
    X = np.asarray(X)
    if schedule is None:
        schedule = InferenceSchedule(micro_batch_size)
    if not getattr(schedule, "forward_only", False):
        raise ValueError(
            f"infer needs a forward-only schedule, got {schedule.name!r}"
        )
    if X.shape[0] == 0:
        return InferenceRunStats(
            outputs=np.zeros(0),
            time_steps=0,
            forward_ops=0,
            forward_samples=0,
            num_stages=len(stages),
            samples=0,
            micro_batch=schedule.micro_batch,
            schedule=schedule.name,
            backend=backend,
        )
    stream = open_inference_stream(
        stages,
        backend=backend,
        max_width=schedule.micro_batch,
        sample_shape=X.shape[1:],
        dtype=X.dtype,
        stall_timeout=stall_timeout,
        **stream_kwargs,
    )
    with stream:
        stats = run_inference(
            stream, schedule, X, len(stages), stall_timeout=stall_timeout
        )
    # per-stage counters after close(): the process stream only learns
    # its workers' counts from their finalize replies during teardown,
    # so the snapshot taken inside run_inference would be all zeros
    stats.stage_counters = list(getattr(stream, "counters", []))
    return stats


def open_inference_stream(
    stages: Sequence[PipelineStage],
    backend: str = "sim",
    max_width: int = 1,
    sample_shape: tuple = (),
    dtype="float64",
    capacity: int = DEFAULT_STREAM_CAPACITY,
    stall_timeout: float = DEFAULT_INFER_TIMEOUT,
    **stream_kwargs: Any,
):
    """Open a persistent forward-only stream on the requested backend
    (``sim`` / ``threaded`` / ``process`` — the engine names of
    :func:`repro.pipeline.runtime.make_pipeline_engine`)."""
    if backend == "sim":
        return SimInferenceStream(
            stages, capacity=capacity, stall_timeout=stall_timeout
        )
    if backend == "threaded":
        return ThreadedInferenceStream(
            stages, capacity=capacity, stall_timeout=stall_timeout
        )
    if backend == "process":
        return ProcessInferenceStream(
            stages,
            max_width=max_width,
            sample_shape=tuple(sample_shape),
            dtype=dtype,
            capacity=capacity,
            stall_timeout=stall_timeout,
            **stream_kwargs,
        )
    raise ValueError(
        f"backend must be 'sim', 'threaded' or 'process', got {backend!r}"
    )
