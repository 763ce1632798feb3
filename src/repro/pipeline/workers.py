"""Stage-worker process group: the one lifecycle behind every
process-per-stage pipeline.

Training (:class:`~repro.pipeline.runtime.ProcessPipelineRunner` and
every replica of :class:`~repro.pipeline.runtime.ReplicatedPipelineRunner`)
and serving (:class:`~repro.pipeline.inference.ProcessInferenceStream`)
run one OS process per stage, connected by shared-memory rings, with a
control pipe per stage.  Their packet loops differ — training gives
backward priority, caps in-flight packets and defers slot release;
serving only forwards — but everything around the loop is the same and
lives here, once:

* start-method resolution and ``model_factory`` validation;
* spawning: a control pipe per stage, the process, and closing the
  parent's copies of the child ends;
* the worker-side envelope (:func:`_worker_main`): build or inherit the
  stage, load its state, run the loop, exit quietly when the transport
  was aborted, otherwise report ``("err", stage, text)`` and raise the
  abort flag;
* liveness: ``err`` scans, abnormal-exit detection and receives with a
  stall deadline;
* the abort flag (:class:`AbortFlag`);
* teardown: abort on failure, join against the stall deadline,
  terminate stragglers, close pipes, close and unlink rings.

Workers always leave by returning from their ``Process`` target, never
``os._exit``, so multiprocessing's exit hooks (finalizers, flushes) run
in every worker.
"""

from __future__ import annotations

import multiprocessing as mp
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Sequence

from repro.pipeline.stage import PipelineStage, StageBuildSpec
from repro.pipeline.transport import ShmRing, TransportAborted


class PipelineRuntimeError(RuntimeError):
    """A worker thread died; carries the stage index and original error."""

    def __init__(self, stage_index: int, cause: BaseException):
        super().__init__(
            f"pipeline stage {stage_index} worker failed: {cause!r}"
        )
        self.stage_index = stage_index
        self.cause = cause


@dataclass
class StageRuntimeStats:
    """Measured per-stage activity of one run (training or serving;
    forward-only streams leave the backward counters at zero)."""

    index: int
    forward_ops: int = 0
    backward_ops: int = 0
    forward_samples: int = 0
    backward_samples: int = 0
    busy_seconds: float = 0.0

    @property
    def busy_steps(self) -> int:
        """Slot occupancy: one per packet transformation, the measured
        counterpart of one non-idle cell in an occupancy grid row."""
        return self.forward_ops + self.backward_ops


class AbortFlag:
    """Set-once cross-process flag on one shared byte.

    ``is_set`` is a plain load and ``set`` a plain store: no lock is
    taken, so a worker SIGKILLed while polling the flag cannot leave a
    semaphore held that would block the parent's ``set()`` (a
    ``multiprocessing.Event`` takes its process-shared lock on every
    ``is_set``).  :meth:`ShmRing._wait
    <repro.pipeline.transport.ShmRing._wait>` duck-types on these two
    methods.
    """

    def __init__(self, ctx):
        self._byte = ctx.RawValue("b", 0)

    def set(self) -> None:
        self._byte.value = 1

    def is_set(self) -> bool:
        return self._byte.value != 0


@dataclass(kw_only=True)
class WorkerSpec:
    """What every stage worker receives (picklable under ``spawn``);
    each loop subclasses it with its own rings and knobs."""

    stage_index: int
    stall_timeout: float
    #: loaded into the stage before the loop starts (``None``: keep the
    #: inherited stage's state as is)
    stage_state: dict | None = None
    stage: PipelineStage | None = None  # fork path: inherited object
    build_spec: StageBuildSpec | None = None  # spawn path: rebuild recipe
    conn: Any = None  # set by StageWorkerGroup.launch
    abort: AbortFlag | None = None  # set by StageWorkerGroup.launch


def _worker_main(loop: Callable[[Any, PipelineStage], None], spec) -> None:
    """Entry point of every stage worker process (top-level for
    ``spawn``): the error envelope around ``loop(spec, stage)``."""
    try:
        stage = spec.stage
        if stage is None:
            stage = spec.build_spec.build()
        if spec.stage_state is not None:
            stage.load_state_dict(spec.stage_state)
        loop(spec, stage)
    except TransportAborted:
        pass  # the parent is tearing the group down; exit quietly
    except BaseException as exc:
        try:
            spec.conn.send(
                (
                    "err",
                    spec.stage_index,
                    f"{exc!r}\n{traceback.format_exc()}",
                )
            )
        except Exception:  # pragma: no cover - parent already gone
            pass
        spec.abort.set()


def resolve_start_method(start_method: str | None, model_factory) -> str:
    """The multiprocessing start method a worker group will use.

    ``None`` picks ``fork`` only where it is actually safe: forking a
    NumPy/BLAS parent on macOS (Accelerate) can deadlock in the child,
    so anywhere but Linux the spawn + ``model_factory`` path is the
    default (matching CPython's own default flip on darwin).
    """
    available = mp.get_all_start_methods()
    if start_method is None:
        start_method = (
            "fork"
            if sys.platform.startswith("linux") and "fork" in available
            else "spawn"
        )
    if start_method not in available:
        raise ValueError(
            f"start_method {start_method!r} not available on this "
            f"platform (have {available})"
        )
    if start_method != "fork" and model_factory is None:
        raise ValueError(
            f"start_method {start_method!r} cannot inherit stage "
            "objects; pass a spawn-safe model_factory so workers can "
            "rebuild their stage (see StageBuildSpec)"
        )
    return start_method


def _reported(msg) -> PipelineRuntimeError:
    return PipelineRuntimeError(msg[1], RuntimeError(msg[2]))


class StageWorkerGroup:
    """One process per stage, from launch to teardown.

    The group is reusable: :meth:`launch` starts a set of workers,
    :meth:`teardown` stops them and frees their rings, and the next
    :meth:`launch` starts afresh (training launches once per
    ``train()`` call and per crash-recovery attempt).  Failures surface
    as :class:`PipelineRuntimeError` naming the stage.
    """

    def __init__(
        self, start_method: str | None, model_factory, stall_timeout: float
    ):
        self.start_method = resolve_start_method(start_method, model_factory)
        self.stall_timeout = float(stall_timeout)
        self.procs: list[mp.process.BaseProcess] = []
        self.conns: list[Any] = []
        #: shared-memory rings the group closes and unlinks at teardown.
        #: Callers assign them right after building, so a launch that
        #: fails part-way still frees them.
        self.rings: list[ShmRing] = []
        self.abort: AbortFlag | None = None
        self._rx: list[deque] = []  # non-err messages set aside by scan()

    # -- launch ---------------------------------------------------------------

    def launch(
        self,
        loop: Callable[[Any, PipelineStage], None],
        specs: Sequence[WorkerSpec],
        name: str,
    ) -> None:
        """Start one worker per spec running ``loop(spec, stage)`` inside
        the worker envelope; ``loop`` must be a module-level function
        (it is pickled under ``spawn``)."""
        ctx = mp.get_context(self.start_method)
        self.abort = AbortFlag(ctx)
        child_conns = []
        for spec in specs:
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            spec.conn, spec.abort = child_conn, self.abort
            self.conns.append(parent_conn)
            child_conns.append(child_conn)
            self.procs.append(
                ctx.Process(
                    target=_worker_main,
                    args=(loop, spec),
                    name=f"{name}-{spec.stage_index}",
                    daemon=True,
                )
            )
        self._rx = [deque() for _ in specs]
        try:
            for p in self.procs:
                p.start()
        finally:
            # the child ends now live in the workers; drop the parent's
            for conn in child_conns:
                conn.close()

    # -- messages -------------------------------------------------------------

    def broadcast(self, cmd) -> None:
        for conn in self.conns:
            conn.send(cmd)

    def _died(self, s: int) -> PipelineRuntimeError:
        return PipelineRuntimeError(
            s,
            RuntimeError(
                "worker process died without reporting an error "
                f"(exitcode={self.procs[s].exitcode})"
            ),
        )

    def _read(self, s: int):
        """Receive one ready message from worker ``s``; ``err`` raises."""
        try:
            msg = self.conns[s].recv()
        except (EOFError, OSError) as exc:
            # a worker killed without reporting (OOM, segfault) closes
            # its pipe end; surface the documented error, not a bare EOF
            # — unless a sibling's buffered err names the real culprit
            self.scan()
            raise self._died(s) from exc
        if msg[0] == "err":
            raise _reported(msg)
        return msg

    def recv(self, s: int):
        """One message from worker ``s`` with the stall deadline; an
        abnormally exited worker raises at once instead of stalling out
        (a killed worker with nothing in its pipe sent nothing before
        dying, so raising loses no message)."""
        if self._rx[s]:
            return self._rx[s].popleft()  # err is never set aside
        deadline = time.monotonic() + self.stall_timeout
        while not self.conns[s].poll(0.05):
            if self.dead_worker() is not None:
                self.check()  # raises: a reported err first, else the death
            if time.monotonic() >= deadline:
                self.scan()
                raise RuntimeError(
                    f"pipeline runtime stalled waiting on stage {s} worker "
                    f"({self.stall_timeout:.1f}s) — likely deadlock or a "
                    "dead process"
                )
        return self._read(s)

    def wait(self, timeout: float) -> list[tuple[int, Any]]:
        """``(stage, message)`` for every worker with a message within
        ``timeout`` (free-running drivers react to whichever stage
        reports first; they never call :meth:`scan` while healthy, so
        nothing is set aside)."""
        ready = mp_connection.wait(self.conns, timeout=timeout)
        return [
            (s, self._read(s)) for s in (self.conns.index(c) for c in ready)
        ]

    def replies(self, deadline: float) -> list:
        """One message per worker, or ``None`` for a worker that exits or
        misses ``deadline`` without one — the tolerant read of a
        teardown path, which must not raise."""
        out = []
        for conn, proc in zip(self.conns, self.procs):
            msg = None
            try:
                while not conn.poll(0.05):
                    if time.monotonic() >= deadline or not proc.is_alive():
                        break
                if conn.poll(0):
                    msg = conn.recv()
            except (EOFError, OSError):  # pragma: no cover - worker gone
                pass
            out.append(msg)
        return out

    # -- liveness -------------------------------------------------------------

    def dead_worker(self) -> int | None:
        """Index of the first worker that died *abnormally* (nonzero
        exit code: SIGKILL/OOM/segfault), or ``None``.

        Every legitimate path — finalize, stop, abort, even a reported
        error — returns from :func:`_worker_main` and exits 0, so the
        exit code discriminates in every phase.  Pipe EOF cannot: under
        ``fork`` siblings inherit each other's pipe ends, and a dead
        stage can leave its neighbors blocked on rings with their own
        pipes silent.  Reads no pipe, so any thread may call it.
        """
        for s, p in enumerate(self.procs):
            if p.ident is not None and (p.exitcode or 0) != 0:
                return s
        return None

    def raise_if_dead(self) -> None:
        """Raise for the first abnormally exited worker (no pipe reads)."""
        dead = self.dead_worker()
        if dead is not None:
            raise self._died(dead)

    def scan(self) -> None:
        """Drain buffered worker messages; raise the first ``err`` found.

        Siblings of a failed stage exit quietly on the aborted transport,
        so the parent's first symptom may be a sibling's EOF or a stall
        while the root-cause ``err`` still sits in the failed worker's
        pipe; scanning every pipe before raising a secondary error keeps
        the failure on the right stage.  Other messages (e.g. acks from
        healthy workers) are set aside for later :meth:`recv` calls.
        """
        for s, conn in enumerate(self.conns):
            try:
                while conn.poll(0):
                    msg = conn.recv()
                    if msg[0] == "err":
                        raise _reported(msg)
                    self._rx[s].append(msg)
            except (EOFError, OSError):
                continue

    def check(self) -> None:
        """Surface a reported error or an abnormal exit without blocking."""
        self.scan()
        self.raise_if_dead()

    # -- teardown -------------------------------------------------------------

    def set_abort(self) -> None:
        if self.abort is not None:
            self.abort.set()

    def teardown(self, failed: bool) -> None:
        """Stop every worker and free the rings; the group is then empty
        and ready for the next :meth:`launch`."""
        if failed:
            self.set_abort()
        deadline = time.monotonic() + self.stall_timeout
        started = [p for p in self.procs if p.ident is not None]
        for p in started:
            p.join(max(0.0, deadline - time.monotonic()))
        for p in started:
            if p.is_alive():
                p.terminate()
                p.join(5.0)
        for conn in self.conns:
            try:
                conn.close()
            except Exception:  # pragma: no cover - idempotent teardown
                pass
        for ring in self.rings:
            ring.close()
            ring.unlink()
        self.procs, self.conns, self.rings, self._rx = [], [], [], []
        self.abort = None
