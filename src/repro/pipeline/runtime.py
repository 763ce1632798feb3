"""Concurrent multi-worker pipeline runtime (wall-clock counterpart of
:class:`~repro.pipeline.executor.PipelineExecutor`).

The executor is a discrete-time *simulation*: one Python loop plays every
stage's forward and backward sweep sequentially, so its utilization
numbers are modeled, never measured.  This module executes the same
pipeline the way PipeDream (Harlap et al. 2018) and torchgpipe (Kim et
al. 2020) actually run one: **one worker thread per stage**, packets
moving through per-stage inbound queues, each stage transforming a
``(B, ...)`` micro-batch the moment it has one.  The
:class:`~repro.pipeline.schedule.Schedule` protocol is reused unchanged —
injection gating, per-gradient vs averaged updates and weight stashing
are the schedule's decisions in both engines.

Mapping onto PipeDream's worker model
-------------------------------------

PipeDream structures pipeline-parallel training as per-stage workers
that (1) pull activations from an inbound forward queue, (2) pull
gradients from an inbound backward queue, (3) prefer backward work so
the pipeline drains, and (4) bound the number of in-flight mini-batches
per stage so weight staleness — and activation-stash memory — stay
bounded.  :class:`ConcurrentPipelineRunner` reproduces exactly that
shape:

* each :class:`~repro.pipeline.stage.PipelineStage` gets one worker
  thread and one :class:`_Channel` (a forward deque + a backward deque
  guarded by one condition variable);
* workers give **backward priority**: an arrived gradient is always
  processed before the next activation, which is PipeDream's drain rule
  and this runtime's deadlock-freedom argument (the oldest in-flight
  packet can always make progress because backward work is never gated);
* each stage admits a new forward only while fewer than
  ``D_s + 1 = 2(S-1-s) + 1`` packets are between their forward and
  backward at that stage.  This is PipeDream's in-flight bound; here it
  additionally guarantees the paper's eq. 5 *as an inequality*: the
  forward pass of sample ``i`` at stage ``s`` sees **at least**
  ``max(0, i - 2(S-1-s))`` updates applied (never staler than the
  discrete-time model), and trivially at most ``i``.

Two execution modes
-------------------

**lockstep** (``lockstep=True``, the default) inserts a barrier per
simulated time step: the coordinator scatters at most one forward and
one backward packet to every worker, waits for all of them, then runs
the schedule's batch-boundary hook — the exact control flow of
``PipelineExecutor._run`` with the per-stage work done concurrently.
Because no two stages share mutable state within a step (packets
produced in step ``t`` are consumed in ``t+1``; each stage's own
forward-before-backward order is preserved inside its worker), a
lockstep run is **bit-exact** with the simulator for every schedule —
the testable contract pinned by ``tests/test_runtime_parity.py``.

**free-running** (``lockstep=False``) drops the barrier: stages proceed
as soon as a packet arrives, which is the paper's actual claim — fine-
grained pipelining keeps all stages busy in *wall-clock* time.  Losses
and final weights are no longer bit-reproducible for the asynchronous
schedules (``pb``/``1f1b``), because how far a gradient has travelled
when a forward happens now depends on thread timing; what *is*
guaranteed is the eq.-5 staleness ceiling above, packet FIFO ordering
per stage, and exact schedule semantics for the synchronous schedules'
updates (``fill_drain``/``gpipe`` still flush the averaged update only
once the batch has fully drained, so their per-update math is unchanged;
only the loss *values* recorded while a batch is in flight can differ
for schedules that update mid-stream).

Every run produces a :class:`RuntimeStats` with measured per-stage
busy/idle wall-clock time and per-stage op counts; the op counts equal
the modeled occupancy-grid totals of :mod:`repro.pipeline.occupancy`
row by row (property-tested), tying the measured runtime back to the
paper's timing model.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.mitigation import MitigationConfig
from repro.data.loader import shard_positions
from repro.models.arch import StageGraphModel
from repro.pipeline.executor import (
    PipelineExecutor,
    PipelineRunStats,
    _Packet,
    check_stages_drained,
    softmax_xent_grad_batch,
)
from repro.pipeline.schedule import Schedule, ScheduleState, make_schedule
from repro.pipeline.stage import PipelineStage, StageBuildSpec
from repro.pipeline.transport import (
    ShmRing,
    build_pipeline_rings,
    build_reduce_rings,
    probe_boundary_layouts,
)
from repro.pipeline.workers import (
    PipelineRuntimeError,
    StageRuntimeStats,
    StageWorkerGroup,
    WorkerInbox,
    WorkerSpec,
)

#: Seconds any single coordinator wait may block before the run is
#: declared stalled.  Generous for real work, small enough that a
#: deadlocked test fails loudly instead of hanging CI.
DEFAULT_STALL_TIMEOUT = 60.0

_STOP = object()  # lockstep command-queue sentinel


@dataclass
class RuntimeStats:
    """Wall-clock outcome of one concurrent pipeline run.

    ``wall_seconds`` spans first injection to last completion; each
    stage's ``busy_seconds`` sums its time inside forward/backward
    transformations, so ``idle_seconds(s)`` is measured (not modeled)
    pipeline bubble time.  ``backend`` names the engine that produced the
    run: ``"threaded"`` (:class:`ConcurrentPipelineRunner`, per-stage
    busy time measured in-process) or ``"process"``
    (:class:`ProcessPipelineRunner`, per-stage counters and wall-clock
    collected from the worker processes at drain time).
    """

    mode: str  # "lockstep" | "free_running"
    schedule: str
    num_stages: int
    wall_seconds: float = 0.0
    stages: list[StageRuntimeStats] = field(default_factory=list)
    backend: str = "threaded"
    #: pipeline replicas whose activity this record aggregates.  A
    #: merged record sums per-stage busy seconds across R concurrent
    #: replicas over one shared wall-clock window, so every per-stage
    #: time budget is ``wall_seconds * replicas`` — without the factor,
    #: R perfectly busy replicas would report R× "utilization".
    replicas: int = 1
    #: control-plane traffic of a process-backend lockstep run: counts of
    #: pipe messages actually sent/received per simulated time step under
    #: the batched step protocol, next to the ``2 * num_stages`` the
    #: pre-batching protocol would have used.  ``None`` for backends and
    #: modes that don't drive workers over control pipes.
    control: dict | None = None

    @property
    def busy_seconds(self) -> float:
        return sum(st.busy_seconds for st in self.stages)

    def busy_fraction(self, stage_index: int) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        wall = self.wall_seconds * max(self.replicas, 1)
        return self.stages[stage_index].busy_seconds / wall

    def idle_seconds(self, stage_index: int) -> float:
        wall = self.wall_seconds * max(self.replicas, 1)
        return max(0.0, wall - self.stages[stage_index].busy_seconds)

    @property
    def mean_busy_fraction(self) -> float:
        if not self.stages:
            return 0.0
        return sum(
            self.busy_fraction(s.index) for s in self.stages
        ) / len(self.stages)

    def summary_rows(self) -> list[dict]:
        """One row per stage, ready for ``format_table``."""
        return [
            {
                "stage": st.index,
                "fwd_ops": st.forward_ops,
                "bwd_ops": st.backward_ops,
                "busy_s": round(st.busy_seconds, 6),
                "busy_frac": round(self.busy_fraction(st.index), 4),
            }
            for st in self.stages
        ]

    @staticmethod
    def merge_replicas(parts: Sequence["RuntimeStats"]) -> "RuntimeStats":
        """Aggregate per-replica runtime records of one replicated run.

        The replicas ran concurrently over one wall-clock window, so
        ``wall_seconds`` is the max (the window), per-stage op counts,
        sample counts and busy seconds are summed, and ``replicas``
        accumulates so :meth:`busy_fraction` divides by the combined
        ``wall * R`` budget instead of double-counting capacity.
        """
        if not parts:
            raise ValueError("merge_replicas needs at least one part")
        first = parts[0]
        for p in parts[1:]:
            if p.num_stages != first.num_stages:
                raise ValueError(
                    "cannot merge runtime stats across stage counts "
                    f"({p.num_stages} vs {first.num_stages})"
                )
            if p.schedule != first.schedule:
                raise ValueError(
                    "cannot merge runtime stats across schedules "
                    f"({p.schedule!r} vs {first.schedule!r})"
                )
        stages = []
        for s in range(first.num_stages):
            merged = StageRuntimeStats(index=s)
            for p in parts:
                st = p.stages[s]
                merged.forward_ops += st.forward_ops
                merged.backward_ops += st.backward_ops
                merged.forward_samples += st.forward_samples
                merged.backward_samples += st.backward_samples
                merged.busy_seconds += st.busy_seconds
            stages.append(merged)
        return RuntimeStats(
            mode=first.mode,
            schedule=first.schedule,
            num_stages=first.num_stages,
            wall_seconds=max(p.wall_seconds for p in parts),
            stages=stages,
            backend=first.backend,
            replicas=sum(max(p.replicas, 1) for p in parts),
        )


@dataclass
class _WorkerFailure:
    """Posted to the completion queue when a worker dies."""

    stage_index: int
    error: BaseException


class _Channel:
    """A stage's inbound mailbox: forward + backward deques, one lock.

    Backward packets are kept separate from forward packets so the
    worker can give them priority without scanning a mixed queue.
    """

    __slots__ = ("cond", "fwd", "bwd", "closed")

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.fwd: deque[_Packet] = deque()
        self.bwd: deque[_Packet] = deque()
        self.closed = False

    def put_fwd(self, pkt: _Packet) -> None:
        with self.cond:
            self.fwd.append(pkt)
            self.cond.notify_all()

    def put_bwd(self, pkt: _Packet) -> None:
        with self.cond:
            self.bwd.append(pkt)
            self.cond.notify_all()

    def close(self) -> None:
        with self.cond:
            self.closed = True
            self.cond.notify_all()


class _SimpleQueue:
    """Tiny blocking FIFO (threading.Condition based).

    ``queue.SimpleQueue`` would do; this variant exists so the stress
    tests can reason about exactly one synchronization primitive and so
    ``get`` can raise a stall error with context instead of ``Empty``.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._items: deque = deque()

    def put(self, item) -> None:
        with self._cond:
            self._items.append(item)
            self._cond.notify_all()

    def get(self, timeout: float, what: str):
        deadline = time.monotonic() + timeout
        with self._cond:
            while not self._items:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    raise RuntimeError(
                        f"pipeline runtime stalled waiting for {what} "
                        f"({timeout:.1f}s) — likely deadlock or a dead "
                        "worker"
                    )
                self._cond.wait(remaining)
            return self._items.popleft()


class _ConcurrentEngineFacade:
    """Shared surface of the concurrent runners (threaded and process).

    Both wrap an internal :class:`PipelineExecutor` in ``self._executor``
    (which owns the stages, schedule and optimizer state) and re-expose
    its engine API, so :class:`~repro.train.pb_trainer.PipelinedTrainer`
    and :func:`make_pipeline_engine` can treat all engines uniformly.
    ``self.lockstep`` is set by the subclass constructor.
    """

    _executor: PipelineExecutor
    lockstep: bool

    @property
    def model(self) -> StageGraphModel:
        return self._executor.model

    @property
    def stages(self):
        return self._executor.stages

    @property
    def schedule(self) -> Schedule:
        return self._executor.schedule

    @property
    def mode(self) -> str:
        return self._executor.mode

    @property
    def update_size(self) -> int:
        return self._executor.update_size

    @property
    def num_stages(self) -> int:
        return self._executor.num_stages

    @property
    def samples_completed(self) -> int:
        return self._executor.samples_completed

    @property
    def lr_schedule(self):
        return self._executor.lr_schedule

    @property
    def precision(self):
        """The wrapped executor's :class:`~repro.precision.PrecisionPolicy`."""
        return self._executor.precision

    def set_lr(self, lr: float) -> None:
        self._executor.set_lr(lr)

    def flush_stages(self, count: int) -> None:
        self._executor.flush_stages(count)

    def state_dict(self) -> dict:
        """Engine snapshot at a drain barrier (see
        :meth:`PipelineExecutor.state_dict`); the concurrent engines'
        authoritative state lives in the wrapped executor's stages
        between ``train()`` calls."""
        return self._executor.state_dict()

    def load_state_dict(self, state: dict) -> None:
        self._executor.load_state_dict(state)

    @property
    def runtime_mode(self) -> str:
        return "lockstep" if self.lockstep else "free_running"

    #: backend name handed to the forward-only inference streams
    #: (overridden by ProcessPipelineRunner)
    _infer_backend = "threaded"

    def _infer_stream_kwargs(self) -> dict:
        """Extra kwargs for the runner's inference stream backend."""
        if self._infer_backend != "process":
            return {}
        return {
            "model_factory": self.model_factory,
            "start_method": self.start_method,
        }

    def infer(
        self,
        X: np.ndarray,
        micro_batch_size: int = 1,
        schedule: Schedule | None = None,
        stall_timeout: float | None = None,
    ):
        """Forward-only inference on this runner's backend (serving
        mode): the same per-stage workers that train — threads here,
        processes with shared-memory rings for
        :class:`ProcessPipelineRunner` — execute an
        :class:`~repro.pipeline.schedule.InferenceSchedule` with no
        backward slots (see :mod:`repro.pipeline.inference`).  Outputs
        are bit-exact with the discrete-time engine's ``infer`` for the
        same packet decomposition: no updates means no staleness, so
        worker timing cannot change a single bit.
        """
        from repro.pipeline.inference import infer_batch

        return infer_batch(
            self.stages,
            self._executor.precision.cast_array(X),
            schedule=schedule,
            micro_batch_size=micro_batch_size,
            backend=self._infer_backend,
            stall_timeout=(
                self.stall_timeout if stall_timeout is None
                else stall_timeout
            ),
            **self._infer_stream_kwargs(),
        )

    # -- shared by the two process engines ---------------------------------

    def _train_inputs(
        self, X: np.ndarray, Y: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        X = np.ascontiguousarray(self._executor.precision.cast_array(X))
        Y = np.asarray(Y)
        if X.shape[0] != Y.shape[0]:
            raise ValueError("X and Y length mismatch")
        return X, Y

    def _empty_run(self, replicas: int = 1) -> PipelineRunStats:
        """The stats of a zero-sample ``train()`` call (no launch)."""
        self.schedule.reset(0)
        counters = [StageRuntimeStats(index=s) for s in range(self.num_stages)]
        runtime = RuntimeStats(
            mode=self.runtime_mode,
            schedule=self.schedule.name,
            num_stages=self.num_stages,
            wall_seconds=0.0,
            stages=counters,
            backend="process",
            replicas=replicas,
        )
        return self._finish_stats(np.zeros(0), 0, counters, runtime)

    def _train_with_restarts(
        self, X: np.ndarray, Y: np.ndarray
    ) -> PipelineRunStats:
        """Run ``_train_attempt`` with crash recovery: on a worker death
        rewind to the engine state captured here (``train()`` entry is a
        drain barrier) and replay, up to ``max_restarts`` times."""
        snapshot = (
            self._executor.state_dict() if self.max_restarts > 0 else None
        )
        attempt = 0
        while True:
            try:
                return self._train_attempt(X, Y)
            except PipelineRuntimeError:
                if snapshot is None or attempt >= self.max_restarts:
                    raise
                attempt += 1
                self.restarts_used += 1
                # every worker (and its rings) is already gone — the
                # attempt tore its group down on the way out
                self._executor.load_state_dict(snapshot)

    def _finish_stats(
        self,
        losses: np.ndarray,
        time_steps: int,
        counters: list[StageRuntimeStats],
        runtime: RuntimeStats,
    ) -> PipelineRunStats:
        self.last_runtime_stats = runtime
        return PipelineRunStats(
            losses=losses,
            time_steps=time_steps,
            forward_ops=sum(c.forward_ops for c in counters),
            backward_ops=sum(c.backward_ops for c in counters),
            num_stages=self.num_stages,
            samples=losses.shape[0],
            updates_per_stage=[st.updates_applied for st in self.stages],
            forward_samples=sum(c.forward_samples for c in counters),
            backward_samples=sum(c.backward_samples for c in counters),
            micro_batch=self.schedule.micro_batch,
            schedule=self.schedule.name,
            runtime=runtime,
        )


class ConcurrentPipelineRunner(_ConcurrentEngineFacade):
    """Execute a :class:`StageGraphModel` pipeline with one worker thread
    per stage (see module docstring for the design).

    The constructor mirrors :class:`PipelineExecutor` (it builds one
    internally, sharing stages, schedule and optimizer state), plus:

    lockstep:
        ``True`` for the barrier-per-time-step mode that is bit-exact
        with the simulator; ``False`` (default, matching
        :func:`make_pipeline_engine`) for free-running.  The default is
        the performance mode — pass ``lockstep=True`` explicitly
        wherever reproducibility matters.
    jitter:
        Maximum per-op random sleep in seconds injected into every
        worker loop (0 disables).  Used by the concurrency stress tests
        to randomize thread interleavings; lockstep results must be —
        and are — unchanged under any jitter.
    jitter_seed:
        Seed for the per-worker jitter RNGs (deterministic schedule of
        sleeps, nondeterministic OS interleaving).
    stall_timeout:
        Seconds any coordinator wait may block before the run raises
        instead of hanging.
    """

    def __init__(
        self,
        model: StageGraphModel,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        mitigation: MitigationConfig | None = None,
        mode: str = "pb",
        update_size: int = 1,
        micro_batch_size: int = 1,
        lr_schedule: Callable[[int], float] | None = None,
        record_versions: bool = False,
        schedule: Schedule | None = None,
        lockstep: bool = False,
        jitter: float = 0.0,
        jitter_seed: int = 0,
        stall_timeout: float = DEFAULT_STALL_TIMEOUT,
        precision: "str | None" = None,
    ):
        self._executor = PipelineExecutor(
            model,
            lr=lr,
            momentum=momentum,
            weight_decay=weight_decay,
            mitigation=mitigation,
            mode=mode,
            update_size=update_size,
            micro_batch_size=micro_batch_size,
            lr_schedule=lr_schedule,
            record_versions=record_versions,
            schedule=schedule,
            precision=precision,
        )
        self.lockstep = bool(lockstep)
        self.jitter = float(jitter)
        self.jitter_seed = int(jitter_seed)
        self.stall_timeout = float(stall_timeout)
        self.last_runtime_stats: RuntimeStats | None = None
        self._threads: list[threading.Thread] = []

    # (engine facade inherited from _ConcurrentEngineFacade)

    # -- shared per-stage transformations ----------------------------------
    #
    # These mirror the simulator's forward/backward sweep bodies
    # (executor._run): loss-stage seeding, update_after_backward, and the
    # op/sample accounting must stay in sync with it.  The bit-exact
    # parity goldens (tests/test_runtime_parity.py) pin that equivalence —
    # any unsynced change to either engine fails them at hex level.

    def _do_forward(
        self,
        s: int,
        pkt: _Packet,
        Y: np.ndarray,
        losses: np.ndarray,
        counters: StageRuntimeStats,
    ) -> tuple[_Packet | None, _Packet | None]:
        """One forward transformation at stage ``s``.

        Returns ``(downstream_fwd, seeded_bwd)``; the loss stage
        produces the seeded backward packet (consumed the same step,
        exactly as the simulator seeds ``bwd_in`` during its forward
        sweep), every other stage produces the downstream forward.
        """
        stage = self.stages[s]
        if stage.spec.kind == "loss":
            lvec, glogits = softmax_xent_grad_batch(
                pkt.payload[0], Y[pkt.start : pkt.start + pkt.size]
            )
            losses[pkt.start : pkt.start + pkt.size] = lvec
            counters.forward_ops += 1
            counters.forward_samples += pkt.size
            return None, _Packet(pkt.pid, pkt.start, pkt.size, [glogits])
        out = stage.forward(pkt.pid, pkt.payload)
        counters.forward_ops += 1
        counters.forward_samples += pkt.size
        return _Packet(pkt.pid, pkt.start, pkt.size, out), None

    def _do_backward(
        self, s: int, pkt: _Packet, counters: StageRuntimeStats
    ) -> tuple[_Packet | None, int]:
        """One backward transformation at stage ``s``.

        Returns ``(upstream_bwd, completed_samples)``; only stage 0
        reports completions.
        """
        stage = self.stages[s]
        upstream = stage.backward(pkt.pid, pkt.payload)
        if self.schedule.update_after_backward(s):
            stage.apply_update()
        counters.backward_ops += 1
        counters.backward_samples += pkt.size
        if s > 0:
            return _Packet(pkt.pid, pkt.start, pkt.size, upstream), 0
        return None, pkt.size

    def _jitter_rng(self, s: int) -> np.random.Generator | None:
        if self.jitter <= 0.0:
            return None
        return np.random.default_rng(
            (self.jitter_seed * 1_000_003 + s) & 0xFFFFFFFF
        )

    # -- public entry -------------------------------------------------------

    def train(self, X: np.ndarray, Y: Sequence[int]) -> PipelineRunStats:
        """Stream all samples through the threaded pipeline (training)."""
        if self.schedule.forward_only:
            raise ValueError(
                f"schedule {self.schedule.name!r} is forward-only; use "
                "infer() (or repro.serve) instead of train()"
            )
        X = self._executor.precision.cast_array(X)
        Y = np.asarray(Y)
        if X.shape[0] != Y.shape[0]:
            raise ValueError("X and Y length mismatch")
        self.schedule.reset(X.shape[0])
        if self.lockstep:
            stats = self._run_lockstep(X, Y)
        else:
            stats = self._run_free(X, Y)
        check_stages_drained(self.stages)
        return stats

    # -- lockstep mode -------------------------------------------------------

    def _run_lockstep(self, X: np.ndarray, Y: np.ndarray) -> PipelineRunStats:
        n = X.shape[0]
        S = self.num_stages
        sched = self.schedule
        state = ScheduleState(num_samples=n)
        losses = np.zeros(n)
        counters = [StageRuntimeStats(index=s) for s in range(S)]
        cmd_qs = [_SimpleQueue() for _ in range(S)]
        res_q = _SimpleQueue()
        self._threads = [
            threading.Thread(
                target=self._lockstep_worker,
                args=(s, cmd_qs[s], res_q, Y, losses, counters[s]),
                name=f"pipeline-stage-{s}",
                daemon=True,
            )
            for s in range(S)
        ]
        for t in self._threads:
            t.start()

        fwd_in: dict[int, _Packet] = {}
        bwd_in: dict[int, _Packet] = {}
        t0 = time.perf_counter()
        try:
            while state.next_sample < n or fwd_in or bwd_in:
                # inject one new packet if the first stage is free (the
                # simulator's gate, kept verbatim)
                if state.next_sample < n and 0 not in fwd_in:
                    size = min(
                        sched.inject_size(state), n - state.next_sample
                    )
                    if size > 0:
                        i = state.next_sample
                        fwd_in[0] = _Packet(i, i, size, [X[i : i + size]])
                        state.next_sample += size

                # scatter: every worker steps once, concurrently
                for s in range(S):
                    cmd_qs[s].put(
                        ("step", fwd_in.pop(s, None), bwd_in.pop(s, None))
                    )
                # gather: the barrier — collect all S results
                failure: _WorkerFailure | None = None
                new_fwd: dict[int, _Packet] = {}
                new_bwd: dict[int, _Packet] = {}
                completed = 0
                for _ in range(S):
                    item = res_q.get(self.stall_timeout, "a lockstep step")
                    if isinstance(item, _WorkerFailure):
                        failure = failure or item
                        continue
                    s, fwd_out, bwd_out, done = item
                    if fwd_out is not None:
                        new_fwd[s + 1] = fwd_out
                    if bwd_out is not None:
                        new_bwd[s - 1] = bwd_out
                    completed += done
                if failure is not None:
                    raise PipelineRuntimeError(
                        failure.stage_index, failure.error
                    ) from failure.error
                state.completed += completed
                self._executor.samples_completed += completed
                fwd_in, bwd_in = new_fwd, new_bwd
                state.step += 1

                # batch boundaries + LR schedule run at the barrier, so
                # every stage sees them atomically (as in the simulator)
                sched.end_step(self._executor, state)
                if self.lr_schedule is not None:
                    self.set_lr(
                        self.lr_schedule(self._executor.samples_completed)
                    )
        finally:
            for q in cmd_qs:
                q.put(_STOP)
            self._join_workers()

        runtime = RuntimeStats(
            mode="lockstep",
            schedule=sched.name,
            num_stages=S,
            wall_seconds=time.perf_counter() - t0,
            stages=counters,
        )
        return self._finish_stats(losses, state.step, counters, runtime)

    def _lockstep_worker(
        self,
        s: int,
        cmd_q: _SimpleQueue,
        res_q: _SimpleQueue,
        Y: np.ndarray,
        losses: np.ndarray,
        counters: StageRuntimeStats,
    ) -> None:
        rng = self._jitter_rng(s)
        while True:
            cmd = cmd_q.get(self.stall_timeout * 10, f"stage {s} command")
            if cmd is _STOP:
                return
            _, fwd_pkt, bwd_pkt = cmd
            try:
                if rng is not None:
                    time.sleep(rng.uniform(0.0, self.jitter))
                t0 = time.perf_counter()
                fwd_out = None
                completed = 0
                # forward before backward inside one step, exactly as the
                # simulator's forward sweep precedes its backward sweep
                if fwd_pkt is not None:
                    fwd_out, seeded = self._do_forward(
                        s, fwd_pkt, Y, losses, counters
                    )
                    if seeded is not None:
                        # the loss stage consumes its own seed this step
                        bwd_pkt = seeded
                bwd_out = None
                if bwd_pkt is not None:
                    bwd_out, completed = self._do_backward(
                        s, bwd_pkt, counters
                    )
                counters.busy_seconds += time.perf_counter() - t0
                res_q.put((s, fwd_out, bwd_out, completed))
            except BaseException as exc:  # propagate, never hang the barrier
                res_q.put(_WorkerFailure(s, exc))

    # -- free-running mode ---------------------------------------------------

    def _run_free(self, X: np.ndarray, Y: np.ndarray) -> PipelineRunStats:
        n = X.shape[0]
        S = self.num_stages
        sched = self.schedule
        state = ScheduleState(num_samples=n)
        losses = np.zeros(n)
        counters = [StageRuntimeStats(index=s) for s in range(S)]
        channels = [_Channel() for _ in range(S)]
        completion_q = _SimpleQueue()
        abort = threading.Event()
        #: completion order invariant: stage-0 backwards arrive FIFO
        self.completion_order: list[int] = []

        self._threads = [
            threading.Thread(
                target=self._free_worker,
                args=(s, channels, completion_q, abort, Y, losses,
                      counters[s]),
                name=f"pipeline-stage-{s}",
                daemon=True,
            )
            for s in range(S)
        ]
        t0 = time.perf_counter()
        for t in self._threads:
            t.start()

        try:
            while state.completed < n:
                # inject every packet the schedule currently allows; the
                # per-stage in-flight caps provide the backpressure
                while state.next_sample < n:
                    size = min(
                        sched.inject_size(state), n - state.next_sample
                    )
                    if size <= 0:
                        break
                    i = state.next_sample
                    channels[0].put_fwd(
                        _Packet(i, i, size, [X[i : i + size]])
                    )
                    state.next_sample += size

                item = completion_q.get(self.stall_timeout, "a completion")
                if isinstance(item, _WorkerFailure):
                    raise PipelineRuntimeError(
                        item.stage_index, item.error
                    ) from item.error
                start, size = item
                self.completion_order.append(start)
                state.completed += size
                self._executor.samples_completed += size
                # batch boundaries: when a synchronous schedule's batch has
                # fully drained, every worker is idle (stage 0's backward is
                # globally last), so flushing from here is race-free
                sched.end_step(self._executor, state)
                if self.lr_schedule is not None:
                    self.set_lr(
                        self.lr_schedule(self._executor.samples_completed)
                    )
        except BaseException:
            abort.set()
            raise
        finally:
            for ch in channels:
                ch.close()
            self._join_workers()

        runtime = RuntimeStats(
            mode="free_running",
            schedule=sched.name,
            num_stages=S,
            wall_seconds=time.perf_counter() - t0,
            stages=counters,
        )
        # free-running has no global clock; report the modeled span (what
        # lockstep/sim would take) so utilization stays comparable
        time_steps = sched.drain_span(n, S) if n else 0
        return self._finish_stats(losses, time_steps, counters, runtime)

    def _free_worker(
        self,
        s: int,
        channels: list[_Channel],
        completion_q: _SimpleQueue,
        abort: threading.Event,
        Y: np.ndarray,
        losses: np.ndarray,
        counters: StageRuntimeStats,
    ) -> None:
        stage = self.stages[s]
        ch = channels[s]
        rng = self._jitter_rng(s)
        # PipeDream in-flight bound: at most D_s + 1 packets between their
        # forward and backward here.  This is what turns eq. 5 into a
        # guaranteed staleness ceiling (see module docstring).
        cap = stage.delay + 1
        in_flight = 0
        while True:
            with ch.cond:
                item = None
                while item is None:
                    if abort.is_set():
                        return
                    if ch.bwd:  # backward priority: drain first
                        item = ("bwd", ch.bwd.popleft())
                    elif ch.fwd and in_flight < cap:
                        item = ("fwd", ch.fwd.popleft())
                    elif ch.closed and not ch.fwd and not ch.bwd:
                        return
                    else:
                        ch.cond.wait(0.05)  # re-check abort periodically
            kind, pkt = item
            try:
                if rng is not None:
                    time.sleep(rng.uniform(0.0, self.jitter))
                t0 = time.perf_counter()
                if kind == "fwd":
                    fwd_out, seeded = self._do_forward(
                        s, pkt, Y, losses, counters
                    )
                    if fwd_out is not None:
                        in_flight += 1
                        channels[s + 1].put_fwd(fwd_out)
                    elif seeded is not None:
                        # loss stage: forward seeds its own backward and
                        # processes it immediately (same-step semantics)
                        bwd_out, completed = self._do_backward(
                            s, seeded, counters
                        )
                        if bwd_out is not None:
                            channels[s - 1].put_bwd(bwd_out)
                        if completed:
                            completion_q.put((pkt.start, completed))
                else:
                    bwd_out, completed = self._do_backward(s, pkt, counters)
                    in_flight -= 1
                    if bwd_out is not None:
                        channels[s - 1].put_bwd(bwd_out)
                    if completed:
                        completion_q.put((pkt.start, completed))
                counters.busy_seconds += time.perf_counter() - t0
            except BaseException as exc:
                abort.set()
                completion_q.put(_WorkerFailure(s, exc))
                for other in channels:
                    with other.cond:
                        other.cond.notify_all()
                return

    # -- shutdown -------------------------------------------------------------

    def _join_workers(self) -> None:
        deadline = time.monotonic() + self.stall_timeout
        for t in self._threads:
            t.join(max(0.0, deadline - time.monotonic()))
        alive = [t.name for t in self._threads if t.is_alive()]
        self._threads = []
        if alive and sys.exc_info()[0] is None:
            # only complain when no richer error (worker failure, stall)
            # is already propagating — never mask the root cause.  A
            # straggler is a daemon that will exit once its in-flight op
            # returns and it observes the abort/closed flags.
            raise RuntimeError(
                f"pipeline workers failed to shut down: {alive}"
            )


# ---------------------------------------------------------------------------
# Process-per-stage runtime
# ---------------------------------------------------------------------------
#
# The threaded runner shares one interpreter, so NumPy dispatch serializes
# on the GIL; here every stage is an OS process and activations/gradients
# move through the shared-memory rings of :mod:`repro.pipeline.transport`
# (zero-copy views, no pickling on the steady-state hot path).  Only
# *control* travels over pipes: step/flush/set_lr commands, completion
# events, and the one-time state handoff at start/drain.
#
# The worker processes themselves belong to a
# :class:`~repro.pipeline.workers.StageWorkerGroup` (shared with the
# serving stream): it spawns them, wraps :func:`_train_loop` in the
# worker error envelope, watches them (``err`` reports, abnormal exits,
# stall deadlines), owns the abort flag and tears everything down.
# This section holds only the training loop and its protocol.
#
# The worker protocol (parent -> worker over ``conn``):
#
#   ("step", do_fwd, do_bwd, need_ack, cmds)
#                             lockstep only.  One pipe write carries the
#                             whole tick for this worker: ``cmds`` is a
#                             tuple of ("flush", n) / ("set_lr", lr)
#                             commands applied *before* the step work
#                             (they were generated at the previous
#                             tick's barrier, so pre-application
#                             reproduces the old broadcast ordering
#                             exactly).  The worker acks
#                             ("ok", completed_since_last_ack) only when
#                             ``need_ack`` is set — the parent computes
#                             completions from its own packet metadata
#                             and requests an ack every
#                             ``lockstep_ack_interval`` ticks purely as
#                             a flow-control barrier + invariant check.
#                             Idle ticks (no work, no cmds, no ack due)
#                             are not sent at all; the worker simply
#                             never learns they happened.
#   ("flush", count)          synchronous-schedule batch boundary
#   ("set_lr", lr)            LR schedule tick
#   ("finalize",)             reply ("state", payload) and exit
#   ("stop",)                 exit without a state reply (error path)
#
# and worker -> parent:
#
#   ("ok", completed)         lockstep windowed ack (completions since
#                             the previous ack)
#   ("done", start, size)     free-running completion (stage 0 only)
#   ("state", payload)        finalize reply: state_dict + counters (+
#                             losses and version traces)
#   ("err", stage, text)      any failure (sent by the group's worker
#                             envelope); parent raises PipelineRuntimeError
#
# The batched protocol cuts lockstep control traffic from 2*S pipe
# messages per simulated time step (S sends + S acks) to at most S sends
# plus S/ack_interval acks — and usually fewer sends, since workers with
# no packet this tick are skipped.  Per-run measurements land in
# ``RuntimeStats.control`` (see ``bench_runtime_parallelism.py``).
#
# Slot lifetime follows the autodiff engine's lazy reads (see
# transport.py): a compute stage's forward slot is released only when
# that packet's backward has run; every other slot is released as soon
# as its packet has been transformed and forwarded.


@dataclass
class _ReduceSpec:
    """One stage worker's slice of the cross-replica reduce plane.

    The reduce topology is a chain over replica ranks (see
    :func:`~repro.pipeline.transport.build_reduce_rings`): partial
    gradient sums travel rank ``0 -> 1 -> ... -> R-1`` over the
    ``chain`` rings, and the finished global sum travels back
    ``R-1 -> ... -> 0`` over the ``result`` rings.  The chain order is
    load-bearing for bit-exactness: folding rank ``r``'s per-packet
    gradients on top of ranks ``0..r-1``'s partial sum reproduces the
    *stream-order left fold* a single pipeline at update size ``R*U``
    performs, addition by addition.
    """

    rank: int
    chain_in: ShmRing | None  # from rank-1 (None at rank 0)
    chain_out: ShmRing | None  # to rank+1 (None at the last rank)
    result_in: ShmRing | None  # from rank+1 (None at the last rank)
    result_out: ShmRing | None  # to rank-1 (None at rank 0)


@dataclass(kw_only=True)
class _ProcessWorkerSpec(WorkerSpec):
    """Everything one training stage worker needs, picklable under
    ``spawn`` (``conn``/``abort`` are filled in by the worker group)."""

    lockstep: bool
    update_after_backward: bool
    fwd_in: ShmRing
    fwd_out: ShmRing | None
    bwd_in: ShmRing | None
    bwd_out: ShmRing | None
    jitter: float
    jitter_seed: int
    labels: np.ndarray | None = None  # loss stage only
    num_samples: int = 0
    reduce: _ReduceSpec | None = None  # replicated runs only

    def inbound_rings(self) -> tuple[ShmRing, ...]:
        # not the reduce rings: they join workers of different replica
        # groups, which launch concurrently, so a doorbell set at one
        # group's launch could miss a producer another group already
        # forked.  Reduce waits keep the spin-then-sleep wait.
        return tuple(r for r in (self.fwd_in, self.bwd_in) if r is not None)


class _ProcessStageWorker:
    """One stage's event loop inside its worker process."""

    def __init__(self, spec: _ProcessWorkerSpec, stage: PipelineStage):
        self.spec = spec
        self.stage = stage
        self.s = spec.stage_index
        self.inbox = WorkerInbox(spec)
        self.counters = StageRuntimeStats(index=self.s)
        self.is_loss = stage.spec.kind == "loss"
        self.losses = (
            np.zeros(spec.num_samples) if self.is_loss else None
        )
        #: compute stages re-read forward inputs lazily at backward time,
        #: so their inbound forward slot outlives the forward op
        self.defer_fwd_release = stage.spec.kind == "compute"
        self._pending_fwd: deque[int] = deque()
        self.cap = stage.delay + 1  # PipeDream in-flight bound (eq. 5)
        self.in_flight = 0
        self._reduce_round = 0  # packet ids on the reduce rings
        self._rng = (
            np.random.default_rng(
                (spec.jitter_seed * 1_000_003 + self.s) & 0xFFFFFFFF
            )
            if spec.jitter > 0.0
            else None
        )

    def _jitter(self) -> None:
        if self._rng is not None:
            time.sleep(self._rng.uniform(0.0, self.spec.jitter))

    # -- packet transformations -------------------------------------------

    # busy_seconds accounting: only the transformations themselves are
    # timed — blocking ring sends (downstream backpressure) fall outside
    # the window, matching the threaded runner's never-blocking channel
    # puts so busy fractions stay comparable across backends.

    def _handle_forward(self, pkt) -> int:
        """Transform one inbound forward packet; returns completions."""
        pid, start, size, payload = pkt
        spec = self.spec
        self._jitter()
        completed = 0
        if self.is_loss:
            t0 = time.perf_counter()
            lvec, glogits = softmax_xent_grad_batch(
                payload[0], spec.labels[start : start + size]
            )
            self.losses[start : start + size] = lvec
            self.counters.forward_ops += 1
            self.counters.forward_samples += size
            # the loss stage consumes its own seeded backward in the same
            # step, exactly as the simulator's forward sweep seeds bwd_in
            upstream = self._backward_compute(pid, [glogits], size)
            self.counters.busy_seconds += time.perf_counter() - t0
            completed = self._ship_backward(pid, start, size, upstream)
            spec.fwd_in.release()
        else:
            t0 = time.perf_counter()
            out = self.stage.forward(pid, payload)
            self.counters.forward_ops += 1
            self.counters.forward_samples += size
            self.counters.busy_seconds += time.perf_counter() - t0
            spec.fwd_out.send(
                pid, start, size, out, spec.stall_timeout, spec.abort
            )
            self.in_flight += 1
            if self.defer_fwd_release:
                self._pending_fwd.append(pid)
            else:
                spec.fwd_in.release()
        return completed

    def _backward_compute(self, pid, grads, size) -> list[np.ndarray]:
        """The backward transformation proper (timed by the caller)."""
        upstream = self.stage.backward(pid, grads)
        if self.spec.update_after_backward:
            self.stage.apply_update()
        self.counters.backward_ops += 1
        self.counters.backward_samples += size
        return upstream

    def _ship_backward(self, pid, start, size, upstream) -> int:
        """Send upstream gradients (untimed); stage 0 reports completions."""
        if self.s > 0:
            self.spec.bwd_out.send(
                pid, start, size, upstream, self.spec.stall_timeout,
                self.spec.abort,
            )
            return 0
        return size

    def _handle_backward(self, pkt) -> int:
        """Transform one inbound backward packet; returns completions."""
        pid, start, size, grads = pkt
        spec = self.spec
        self._jitter()
        t0 = time.perf_counter()
        upstream = self._backward_compute(pid, grads, size)
        self.counters.busy_seconds += time.perf_counter() - t0
        # copy into the upstream ring *before* releasing anything the
        # upstream grads may alias (identity/sum pass views through)
        completed = self._ship_backward(pid, start, size, upstream)
        spec.bwd_in.release()  # gradients are consumed eagerly
        self.in_flight -= 1
        if self.defer_fwd_release:
            expect = self._pending_fwd.popleft()
            if expect != pid:
                raise RuntimeError(
                    f"stage {self.s}: backward for packet {pid} arrived "
                    f"before packet {expect}'s — FIFO violated"
                )
            spec.fwd_in.release()
        return completed

    # -- control ----------------------------------------------------------

    def _reduce_flush(self, local_count: int) -> None:
        """One cross-replica reduce round ending in a synchronized update.

        Every replica's stage worker (same stage, ranks ``0..R-1``)
        enters this once per global batch — replicas whose shard holds no
        samples for the batch enter with ``local_count == 0`` and empty
        segments, keeping the chain aligned.  Rank ``r`` receives ranks
        ``0..r-1``'s partial sums, folds its own per-packet gradients on
        top *in stream order*, and forwards; the last rank's fold is the
        global sum, which travels back down the result chain.  Everyone
        then installs the identical sum and applies the identical mean
        update, so replicas stay bit-for-bit in sync — and equal to one
        pipeline running the whole ``R*U`` batch.
        """
        spec = self.spec
        red = spec.reduce
        params = self.stage.params
        segments = self.stage.pop_grad_segments()
        if red.chain_in is not None:
            pkt = red.chain_in.recv(
                spec.stall_timeout,
                f"stage {self.s} reduce chain (rank {red.rank})",
                spec.abort,
            )
            # cumulative sample count rides in the ``start`` meta slot
            upstream_count = int(pkt[1])
            acc: list = list(pkt[3])  # zero-copy views into the ring slot
        else:
            upstream_count = 0
            acc = [None] * len(params)
        total = upstream_count + int(local_count)
        for k, seg in enumerate(segments):
            a = acc[k]
            for g in seg:
                # the left fold: same association order as the single
                # pipeline's per-packet gradient accumulation
                a = g if a is None else a + g
            acc[k] = a
        if params and any(a is None for a in acc):
            # only reachable when rank 0 flushes a batch it saw no
            # samples of — the block-cyclic shard gives rank 0 the
            # earliest samples of every batch, so this is a plan bug
            raise RuntimeError(
                f"stage {self.s} rank {red.rank}: reduce round "
                f"{self._reduce_round} has no gradient to contribute or "
                "forward"
            )
        pid = self._reduce_round
        self._reduce_round += 1
        if red.chain_out is not None:
            size = max((int(a.shape[0]) for a in acc), default=0)
            red.chain_out.send(
                pid, total, size, acc, spec.stall_timeout, spec.abort
            )
            if red.chain_in is not None:
                red.chain_in.release()  # the send copied the views out
            pkt = red.result_in.recv(
                spec.stall_timeout,
                f"stage {self.s} reduce result (rank {red.rank})",
                spec.abort,
            )
            total = int(pkt[1])
            result = [np.array(a, copy=True) for a in pkt[3]]
            if red.result_out is not None:
                red.result_out.send(
                    pid, total, pkt[2], pkt[3], spec.stall_timeout,
                    spec.abort,
                )
            red.result_in.release()
        else:
            # last rank: its fold IS the global sum.  Copy before
            # releasing the inbound slot the views may alias.
            result = [np.array(a, copy=True) for a in acc]
            if red.chain_in is not None:
                red.chain_in.release()
            size = max((int(a.shape[0]) for a in result), default=0)
            red.result_out.send(
                pid, total, size, result, spec.stall_timeout, spec.abort
            )
        if params:
            self.stage.set_reduced_grads(result)
        self.stage.flush_update(total)

    def _apply_control(self, cmd) -> bool:
        """Apply a non-step command; ``True`` when the worker should exit."""
        tag = cmd[0]
        if tag == "flush":
            if self.spec.reduce is not None:
                self._reduce_flush(int(cmd[1]))
            else:
                self.stage.flush_update(cmd[1])
            if not self.spec.lockstep:
                # free mode: the parent must not inject the next batch
                # until every stage has flushed — a worker past its
                # control poll could otherwise transform a fresh packet
                # with un-flushed weights (lockstep needs no ack: the
                # flush command is ordered before the next step command
                # in the same pipe)
                self.spec.conn.send(("flushed",))
        elif tag == "set_lr":
            self.stage.lr = float(cmd[1])
        elif tag == "finalize":
            self.spec.conn.send(("state", self._finalize_payload()))
            return True
        elif tag == "stop":
            return True
        else:  # pragma: no cover - protocol bug
            raise RuntimeError(f"stage {self.s}: unknown command {tag!r}")
        return False

    def _finalize_payload(self) -> dict:
        return {
            "state": self.stage.state_dict(),
            "counters": self.counters,
            "losses": self.losses,
            "version_trace": list(self.stage.version_trace),
            "stash_len": len(self.stage.stash),
            "updates_applied": self.stage.updates_applied,
        }

    # -- event loops -------------------------------------------------------

    def run(self) -> None:
        if self.spec.lockstep:
            self._run_lockstep()
        else:
            self._run_free()

    def _recv_cmd(self):
        """Blocking command read that still honours the abort flag."""
        inbox = self.inbox
        while not inbox.pending():
            if self.spec.abort.is_set():
                return ("stop",)
            inbox.idle()
        return inbox.take()

    def _has_work(self) -> bool:
        """Whether the free-running loop could take a packet now."""
        spec = self.spec
        return (spec.bwd_in is not None and spec.bwd_in.poll()) or (
            self.in_flight < self.cap and spec.fwd_in.poll()
        )

    def _run_lockstep(self) -> None:
        spec = self.spec
        completed_since_ack = 0
        while True:
            cmd = self._recv_cmd()
            if cmd[0] != "step":
                # standalone legacy command (end-of-run flush delivery,
                # replicated missing-round flushes, finalize, stop)
                if self._apply_control(cmd):
                    return
                continue
            _, do_fwd, do_bwd, need_ack, cmds = cmd
            # coalesced control first: these commands were generated at
            # the previous tick's barrier, so applying them before this
            # step's work reproduces the standalone-broadcast ordering
            for sub in cmds:
                self._apply_control(sub)
            completed = 0
            # forward before backward inside one step, exactly as the
            # simulator's forward sweep precedes its backward sweep
            if do_fwd:
                completed += self._handle_forward(
                    spec.fwd_in.recv(
                        spec.stall_timeout, f"stage {self.s} fwd packet",
                        spec.abort,
                    )
                )
            if do_bwd:
                completed += self._handle_backward(
                    spec.bwd_in.recv(
                        spec.stall_timeout, f"stage {self.s} bwd packet",
                        spec.abort,
                    )
                )
            completed_since_ack += completed
            if need_ack:
                spec.conn.send(("ok", completed_since_ack))
                completed_since_ack = 0

    def _run_free(self) -> None:
        spec = self.spec
        inbox = self.inbox
        while True:
            # control first: the parent bumps the command counter after
            # the pipe write and before any later ring publish, so every
            # command it sent before a packet this iteration can see is
            # counted by the load below and applied first.  A flush is
            # additionally a barrier: the parent injects the next batch
            # only after every worker acked it.
            while inbox.pending():
                if self._apply_control(inbox.take()):
                    return
            if spec.abort.is_set():
                return
            completed = 0
            start = -1
            worked = False
            if spec.bwd_in is not None and spec.bwd_in.poll():
                # backward priority: PipeDream's drain rule
                pkt = spec.bwd_in.try_recv()
                start = pkt[1]
                completed = self._handle_backward(pkt)
                worked = True
            elif spec.fwd_in.poll() and self.in_flight < self.cap:
                pkt = spec.fwd_in.try_recv()
                start = pkt[1]
                completed = self._handle_forward(pkt)
                worked = True
            if completed:
                spec.conn.send(("done", start, int(completed)))
            if not worked:
                inbox.idle(self._has_work)


def _train_loop(spec: _ProcessWorkerSpec, stage: PipelineStage) -> None:
    """Body of a training stage worker (inside the group's envelope)."""
    # ship only THIS run's version trace back; the parent extends its
    # accumulated list (matching the sim/threaded engines' behaviour
    # across consecutive train() calls).  A fork-inherited stage
    # would otherwise carry — and duplicate — prior runs' entries.
    stage.version_trace = []
    if spec.reduce is not None:
        # replicated sync runs fold per-packet gradient segments
        # across replicas instead of accumulating locally
        stage.collect_grad_segments = True
    _ProcessStageWorker(spec, stage).run()


class _FlushProxy:
    """Stand-in for the executor inside ``Schedule.end_step``: forwards
    batch-boundary flushes to every worker process as commands.

    In free-running mode the flush is a *barrier*: the proxy waits for
    every worker's ack before returning, so injection of the next batch
    (which happens after ``end_step``) cannot overtake the flush.  The
    pipeline is fully drained at a synchronous schedule's batch boundary,
    so the ack round-trip costs one idle pipe hop per batch.
    """

    def __init__(self, runner: "ProcessPipelineRunner", wait_acks: bool):
        self._runner = runner
        self._wait_acks = wait_acks

    def flush_stages(self, count: int) -> None:
        # the authoritative update counters return at finalize
        workers = self._runner._workers
        workers.broadcast(("flush", count))
        if self._wait_acks:
            for s in range(self._runner.num_stages):
                msg = workers.recv(s)
                if msg[0] != "flushed":  # pragma: no cover - protocol bug
                    raise RuntimeError(
                        f"stage {s}: expected flush ack, got {msg[0]!r}"
                    )


class _PendingCmdProxy:
    """Stand-in for the executor inside ``Schedule.end_step`` under the
    batched lockstep protocol: instead of broadcasting a flush on its own
    pipe write, the command is queued per worker and rides the next
    ``("step", ...)`` message each worker receives.  Workers apply queued
    commands *before* that step's work, which is exactly where the old
    standalone broadcast landed in their pipe (end_step runs at the tick
    barrier, after the tick's sends), so the worker-side operation order
    — and therefore every bit of state — is unchanged.
    """

    def __init__(self, pending: list[list]):
        self._pending = pending

    def flush_stages(self, count: int) -> None:
        for q in self._pending:
            q.append(("flush", int(count)))


class ProcessPipelineRunner(_ConcurrentEngineFacade):
    """Execute a :class:`StageGraphModel` pipeline with one worker
    *process* per stage and shared-memory packet transport.

    Constructor mirrors :class:`ConcurrentPipelineRunner` (same schedule
    plumbing, same ``lockstep`` / ``jitter`` / ``stall_timeout`` knobs),
    plus:

    model_factory:
        Spawn-safe callable rebuilding the model from scratch (a
        module-level function or ``functools.partial``).  Required for
        ``start_method="spawn"``; optional under ``"fork"``, where it
        switches the workers from inheriting the parent's stage objects
        to reconstructing them via :class:`StageBuildSpec` — the same
        code path ``spawn`` uses, handy for testing it.
    start_method:
        ``"fork"`` (default where available) or ``"spawn"``.
    ring_slack:
        Extra ring slots beyond the per-stage in-flight cap
        ``D_s + 1`` (see :func:`repro.pipeline.transport.ring_slots_for`).
    max_restarts:
        Crash recovery: how many times one :meth:`train` call may
        respawn its workers after a stage worker dies (``0``, the
        default, keeps the fail-fast behavior of raising
        :class:`PipelineRuntimeError`).  Every ``train`` entry is a
        drain barrier, so the runner snapshots the engine state there
        (:meth:`PipelineExecutor.state_dict`); when a worker is found
        dead — its control pipe hits EOF, or the liveness watchdog
        spots the exited process while another worker blocks on it —
        the run tears everything down, restores the snapshot, respawns
        all workers from it (the same ``StageBuildSpec`` + state-ship
        path a fresh launch uses) and replays the partial batch.  The
        replay starts from a consistent global state, so a recovered
        run is bit-identical to one that never crashed; ``restarts_used``
        counts the recoveries actually taken.  Recovery restarts *all*
        stages rather than just the dead one: in-flight packets die
        with the worker, and only drain-barrier state is globally
        consistent — a single-stage respawn could never be bit-exact.

    **lockstep** mode is bit-exact with :class:`PipelineExecutor` and the
    lockstep threaded runner: workers hold identical state (shipped via
    ``PipelineStage.state_dict``), execute the same transformations in
    the same step order, and float64 payloads cross the rings untouched.
    **free-running** mode keeps the eq.-5 staleness ceiling through the
    same per-stage in-flight caps, with completions driving batch
    boundaries exactly as in the threaded runner.  Trained weights,
    optimizer state, per-stage op counts/busy seconds, losses and
    version traces all ship back to the parent at drain time, so after
    ``train()`` the master model is updated in place just like with the
    other engines.
    """

    def __init__(
        self,
        model: StageGraphModel,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        mitigation: MitigationConfig | None = None,
        mode: str = "pb",
        update_size: int = 1,
        micro_batch_size: int = 1,
        lr_schedule: Callable[[int], float] | None = None,
        record_versions: bool = False,
        schedule: Schedule | None = None,
        lockstep: bool = False,
        jitter: float = 0.0,
        jitter_seed: int = 0,
        stall_timeout: float = DEFAULT_STALL_TIMEOUT,
        model_factory: Callable[[], StageGraphModel] | None = None,
        start_method: str | None = None,
        ring_slack: int = 2,
        max_restarts: int = 0,
        precision: "str | None" = None,
        lockstep_ack_interval: int = 16,
    ):
        self._executor = PipelineExecutor(
            model,
            lr=lr,
            momentum=momentum,
            weight_decay=weight_decay,
            mitigation=mitigation,
            mode=mode,
            update_size=update_size,
            micro_batch_size=micro_batch_size,
            lr_schedule=lr_schedule,
            record_versions=record_versions,
            schedule=schedule,
            precision=precision,
        )
        self.lockstep = bool(lockstep)
        if lockstep_ack_interval < 1:
            raise ValueError(
                f"lockstep_ack_interval must be >= 1, got "
                f"{lockstep_ack_interval}"
            )
        self.lockstep_ack_interval = int(lockstep_ack_interval)
        self.last_control_stats: dict | None = None
        self.jitter = float(jitter)
        self.jitter_seed = int(jitter_seed)
        self.stall_timeout = float(stall_timeout)
        self.model_factory = model_factory
        self.ring_slack = int(ring_slack)
        #: the stage worker processes, launched per train() attempt
        self._workers = StageWorkerGroup(
            start_method, model_factory, self.stall_timeout
        )
        self.start_method = self._workers.start_method
        self._opt = dict(
            lr=lr, momentum=momentum, weight_decay=weight_decay,
            mitigation=mitigation,
        )
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        self.max_restarts = int(max_restarts)
        self.restarts_used = 0
        self.last_runtime_stats: RuntimeStats | None = None
        self.completion_order: list[int] = []
        self._inject_ring: ShmRing | None = None  # stage 0's inbound ring
        #: boundary layouts depend only on architecture + packet
        #: shape/dtype, so relaunches (per-segment drives, crash
        #: recovery) skip the dummy probe pass after the first launch
        self._layout_cache: dict[tuple, list] = {}
        #: set by ReplicatedPipelineRunner before a launch: one
        #: _ReduceSpec per stage, handed to the worker specs so flushes
        #: run the cross-replica reduction
        self._reduce_plan: list[_ReduceSpec] | None = None

    # (engine facade inherited from _ConcurrentEngineFacade)

    _infer_backend = "process"

    # -- worker lifecycle ---------------------------------------------------

    def _launch(self, X: np.ndarray, Y: np.ndarray) -> None:
        S = self.num_stages
        width = max(1, self.schedule.micro_batch)
        probe = np.zeros((width,) + X.shape[1:], dtype=X.dtype)
        layout_key = (probe.shape, str(probe.dtype))
        layouts = self._layout_cache.get(layout_key)
        if layouts is None:
            layouts = probe_boundary_layouts(self.stages, probe)
            self._layout_cache[layout_key] = layouts
        fwd_rings, bwd_rings = build_pipeline_rings(
            self.stages, probe, slack=self.ring_slack, layouts=layouts
        )
        self._workers.rings = fwd_rings + [
            r for r in bwd_rings if r is not None
        ]
        self._inject_ring = fwd_rings[0]
        use_factory = self.model_factory is not None
        specs = []
        for s in range(S):
            stage = self.stages[s]
            specs.append(_ProcessWorkerSpec(
                stage_index=s,
                lockstep=self.lockstep,
                update_after_backward=self.schedule.update_after_backward(s),
                fwd_in=fwd_rings[s],
                fwd_out=fwd_rings[s + 1] if s + 1 < S else None,
                bwd_in=bwd_rings[s],
                bwd_out=bwd_rings[s - 1] if s > 0 else None,
                stall_timeout=self.stall_timeout,
                jitter=self.jitter,
                jitter_seed=self.jitter_seed,
                stage_state=stage.state_dict(),
                stage=None if use_factory else stage,
                build_spec=(
                    StageBuildSpec(
                        model_factory=self.model_factory,
                        index=s,
                        lr=stage.lr,
                        momentum=self._opt["momentum"],
                        weight_decay=self._opt["weight_decay"],
                        mitigation=self._opt["mitigation"],
                        always_stash=self.schedule.stash_weights,
                        record_versions=stage.record_versions,
                        precision=self._executor.precision.mode,
                    )
                    if use_factory
                    else None
                ),
                labels=Y if stage.spec.kind == "loss" else None,
                num_samples=X.shape[0],
                reduce=(
                    self._reduce_plan[s]
                    if self._reduce_plan is not None
                    else None
                ),
            ))
        # workers load their lr from the shipped state; broadcasts are
        # needed only when the schedule later changes it
        self._last_broadcast_lr = self.stages[0].lr if self.stages else None
        self._workers.launch(_train_loop, specs, name="pipeline-stage-proc")

    def _apply_lr_schedule(self, pending=None) -> None:
        if self.lr_schedule is None:
            return
        lr = float(self.lr_schedule(self._executor.samples_completed))
        self._executor.set_lr(lr)
        # workers start from the shipped state's lr; only a *change*
        # needs a broadcast (a constant post-warmup schedule would
        # otherwise cost stages × samples no-op pipe sends).  The
        # lockstep driver passes its per-worker pending-command queues
        # instead of broadcasting, so the change rides the next batched
        # step message to each worker (same worker-side ordering: the
        # cmd applies before that worker's next op, exactly where the
        # old broadcast landed in its pipe).
        if lr != self._last_broadcast_lr:
            if pending is not None:
                for q in pending:
                    q.append(("set_lr", lr))
            else:
                self._workers.broadcast(("set_lr", lr))
            self._last_broadcast_lr = lr

    def _finalize_workers(
        self, losses: np.ndarray, counters: list[StageRuntimeStats]
    ) -> None:
        """Collect trained state + measurements; load into parent stages."""
        self._workers.broadcast(("finalize",))
        payloads = []
        for s in range(self.num_stages):
            msg = self._workers.recv(s)
            if msg[0] != "state":  # pragma: no cover - protocol bug
                raise RuntimeError(
                    f"stage {s}: expected finalize state, got {msg[0]!r}"
                )
            payloads.append(msg[1])
        for s, payload in enumerate(payloads):
            if payload["stash_len"]:
                raise RuntimeError(
                    f"stage {s} finished with {payload['stash_len']} "
                    "stashed packets — pipeline did not drain"
                )
            stage = self.stages[s]
            stage.load_state_dict(payload["state"])
            stage.updates_applied = int(payload["updates_applied"])
            stage.version_trace.extend(payload["version_trace"])
            counters[s] = payload["counters"]
            if payload["losses"] is not None:
                np.copyto(losses, payload["losses"])

    # -- public entry -------------------------------------------------------

    def train(self, X: np.ndarray, Y: Sequence[int]) -> PipelineRunStats:
        """Stream all samples through the process pipeline (training).

        With ``max_restarts > 0`` a dead stage worker does not kill the
        run: the engine state captured at this call's entry (a drain
        barrier) is restored, all workers respawn from it, and the
        partial batch replays — bit-identical to a crash-free run (see
        the constructor docs).
        """
        if self.schedule.forward_only:
            raise ValueError(
                f"schedule {self.schedule.name!r} is forward-only; use "
                "infer() (or repro.serve) instead of train()"
            )
        X, Y = self._train_inputs(X, Y)
        if X.shape[0] == 0:
            self.completion_order = []
            return self._empty_run()
        return self._train_with_restarts(X, Y)

    def _train_attempt(
        self, X: np.ndarray, Y: np.ndarray, extra_flushes: int = 0
    ) -> PipelineRunStats:
        """One launch/drive/finalize cycle (extracted so crash recovery
        can replay it from a restored snapshot).

        ``extra_flushes`` zero-contribution flushes follow the drive: a
        replica joins the reduce of every global batch, including those
        its shard holds no samples of (workers launch even for an empty
        shard for the same reason).
        """
        n = X.shape[0]
        self.schedule.reset(n)
        self.completion_order = []
        losses = np.zeros(n)
        counters: list[StageRuntimeStats] = [
            StageRuntimeStats(index=s) for s in range(self.num_stages)
        ]
        self.last_control_stats = None
        time_steps = 0
        failed = True
        try:
            self._launch(X, Y)
            # wall_seconds spans first injection to last completion —
            # the same window the threaded runner measures — so busy
            # fractions stay comparable across backends; ring/process
            # setup and the drain-time state collection are excluded
            t0 = time.perf_counter()
            if n and self.lockstep:
                time_steps = self._drive_lockstep(X, n)
            elif n:
                time_steps = self._drive_free(X, n)
            flush = _FlushProxy(self, wait_acks=not self.lockstep)
            for _ in range(extra_flushes):
                flush.flush_stages(0)
            wall = time.perf_counter() - t0
            self._finalize_workers(losses, counters)
            failed = False
        finally:
            self._workers.teardown(failed)
        runtime = RuntimeStats(
            mode=self.runtime_mode,
            schedule=self.schedule.name,
            num_stages=self.num_stages,
            wall_seconds=wall,
            stages=counters,
            backend="process",
            control=self.last_control_stats,
        )
        check_stages_drained(self.stages)
        return self._finish_stats(losses, time_steps, counters, runtime)

    # -- lockstep driver ----------------------------------------------------

    def _send_injection(self, pid, start, size, payload) -> None:
        """Inject a packet into the stage-0 ring with bounded waiting.

        The batched protocol lets the parent run up to an ack window
        ahead of the workers, so a full injection ring is ordinary flow
        control rather than a rare race; spin on ``try_send`` with
        liveness checks so a dead or erroring worker surfaces as
        :class:`PipelineRuntimeError` instead of a transport stall.
        """
        ring = self._inject_ring
        if ring.try_send(pid, start, size, payload):
            return
        deadline = time.monotonic() + self.stall_timeout
        while True:
            # the batched protocol has no per-tick message that would
            # carry an ``err``; this poll is the replacement
            self._workers.check()
            if ring.try_send(pid, start, size, payload):
                return
            if time.monotonic() >= deadline:
                raise RuntimeError(
                    "pipeline runtime stalled injecting into the "
                    f"stage-0 ring ({self.stall_timeout:.1f}s) — likely "
                    "deadlock or a dead process"
                )
            time.sleep(0.0002)

    def _drive_lockstep(self, X: np.ndarray, n: int) -> int:
        """Mirror of ``PipelineExecutor._run``'s control flow: the parent
        tracks packet *positions* (metadata only) while the payloads hop
        worker-to-worker through the rings, under the batched step
        protocol described at the top of the process section.
        Completions are computed parent-side from that metadata (stage
        0's backward size, plus the loss-stage forward when ``S == 1``);
        the windowed ``("ok", n)`` acks are a flow-control barrier and a
        cross-check against protocol drift.  The per-worker operation
        sequence is the simulator's, so lockstep runs stay bit-exact.
        """
        S = self.num_stages
        sched = self.schedule
        state = ScheduleState(num_samples=n)
        pending: list[list] = [[] for _ in range(S)]
        proxy = _PendingCmdProxy(pending)
        fwd_meta: dict[int, tuple[int, int, int]] = {}
        bwd_meta: dict[int, tuple[int, int, int]] = {}
        ack_every = self.lockstep_ack_interval
        ticks_since_ack = 0
        expect_completed = 0  # metadata completions since the last ack
        sends = 0
        acks = 0
        workers = self._workers
        while state.next_sample < n or fwd_meta or bwd_meta:
            if workers.abort.is_set():
                # a worker posted an error and aborted the transport;
                # surface it instead of streaming more commands
                workers.check()
                raise RuntimeError(  # pragma: no cover - err precedes abort
                    "pipeline transport aborted without a worker error "
                    "report"
                )
            if state.next_sample < n and 0 not in fwd_meta:
                size = min(sched.inject_size(state), n - state.next_sample)
                if size > 0:
                    i = state.next_sample
                    self._send_injection(i, i, size, [X[i : i + size]])
                    fwd_meta[0] = (i, i, size)
                    state.next_sample += size

            ticks_since_ack += 1
            need_ack = ticks_since_ack >= ack_every
            for s in range(S):
                do_fwd = s in fwd_meta
                do_bwd = s in bwd_meta
                if not (do_fwd or do_bwd or pending[s] or need_ack):
                    continue  # idle worker: skip the pipe write entirely
                workers.send(
                    s, ("step", do_fwd, do_bwd, need_ack, tuple(pending[s]))
                )
                pending[s].clear()
                sends += 1

            # what the old per-tick ack barrier summed: only stage 0's
            # backward completes samples (plus the seeded backward the
            # loss forward consumes when it *is* stage 0)
            completed = bwd_meta[0][2] if 0 in bwd_meta else 0
            if S == 1 and 0 in fwd_meta:
                completed += fwd_meta[0][2]

            new_fwd: dict[int, tuple[int, int, int]] = {}
            new_bwd: dict[int, tuple[int, int, int]] = {}
            for s, meta in fwd_meta.items():
                if s == S - 1:
                    # the loss stage consumed its own seeded backward this
                    # step; its upstream gradient surfaces next step
                    if S > 1:
                        new_bwd[S - 2] = meta
                else:
                    new_fwd[s + 1] = meta
            for s, meta in bwd_meta.items():
                if s > 0:
                    new_bwd[s - 1] = meta
            fwd_meta, bwd_meta = new_fwd, new_bwd
            state.completed += completed
            self._executor.samples_completed += completed
            expect_completed += completed
            state.step += 1

            # batch boundaries + LR schedule at the barrier, as in the
            # sim; generated commands ride the *next* tick's step sends
            sched.end_step(proxy, state)
            self._apply_lr_schedule(pending=pending)

            if need_ack:
                acked = 0
                for s in range(S):
                    msg = workers.recv(s)  # the windowed barrier
                    if msg[0] != "ok":  # pragma: no cover - protocol bug
                        raise RuntimeError(
                            f"stage {s}: expected step ack, got {msg[0]!r}"
                        )
                    acked += msg[1]
                if acked != expect_completed:  # pragma: no cover - bug trap
                    raise RuntimeError(
                        "lockstep ack mismatch: workers completed "
                        f"{acked} samples this window, metadata "
                        f"predicted {expect_completed}"
                    )
                ticks_since_ack = 0
                expect_completed = 0
                acks += S

        # commands generated at the final tick's barrier (e.g. the last
        # batch flush) have no later step message to ride: deliver them
        # as standalone legacy commands before finalize
        for s in range(S):
            for cmd in pending[s]:
                workers.send(s, cmd)
                sends += 1
            pending[s].clear()

        ticks = state.step
        self.last_control_stats = {
            "protocol": "batched-step",
            "time_steps": ticks,
            "num_stages": S,
            "ack_interval": ack_every,
            "pipe_msgs_sent": sends,
            "acks_received": acks,
            "round_trips_total": sends + acks,
            "msgs_per_step": (sends + acks) / ticks if ticks else 0.0,
            # the pre-batching protocol: S step sends + S acks per tick
            "baseline_msgs_per_step": 2 * S,
        }
        return state.step

    # -- free-running driver -------------------------------------------------

    def _drive_free(self, X: np.ndarray, n: int) -> int:
        """Inject as the schedule allows (ring backpressure permitting)
        and react to completion events; workers self-drive off their
        rings with backward priority and the eq.-5 in-flight caps."""
        sched = self.schedule
        state = ScheduleState(num_samples=n)
        proxy = _FlushProxy(self, wait_acks=True)
        last_progress = time.monotonic()
        while state.completed < n:
            progressed = False
            while state.next_sample < n:
                size = min(sched.inject_size(state), n - state.next_sample)
                if size <= 0:
                    break
                i = state.next_sample
                if not self._inject_ring.try_send(
                    i, i, size, [X[i : i + size]]
                ):
                    break  # ring full: downstream backpressure
                state.next_sample += size
                progressed = True

            for _, msg in self._workers.wait(0.05):
                if msg[0] != "done":  # pragma: no cover - protocol bug
                    raise RuntimeError(f"unexpected worker message {msg!r}")
                _, start, size = msg
                self.completion_order.append(start)
                state.completed += size
                self._executor.samples_completed += size
                # batch boundaries: a synchronous schedule's batch only
                # fully drains when every worker is idle (stage 0's
                # backward is globally last), so flushing here is race-free
                sched.end_step(proxy, state)
                self._apply_lr_schedule()
                progressed = True

            if state.completed < n:
                # liveness watchdog: a SIGKILLed worker whose pipe EOF
                # has not surfaced yet (e.g. a middle stage everyone
                # else is still blocked on) fails the drive promptly
                self._workers.raise_if_dead()

            now = time.monotonic()
            if progressed:
                last_progress = now
            elif now - last_progress > self.stall_timeout:
                raise RuntimeError(
                    f"pipeline runtime stalled: no completion for "
                    f"{self.stall_timeout:.1f}s "
                    f"({state.completed}/{n} samples done)"
                )
        # free-running has no global clock; report the modeled span (what
        # lockstep/sim would take) so utilization stays comparable
        return sched.drain_span(n, self.num_stages)


class ReplicatedPipelineRunner(_ConcurrentEngineFacade):
    """Hybrid parallelism: ``R`` data-parallel copies of the ``S``-stage
    pipeline over the process runtime (PipeDream-2BW-style replication,
    Narayanan et al. 2021).

    Each replica is a full :class:`ProcessPipelineRunner` (one worker
    process per stage) consuming a disjoint **block-cyclic shard** of the
    sample stream: sample ``i`` belongs to replica ``(i // U) % R`` where
    ``U`` is the per-replica update size (see
    :func:`repro.data.loader.shard_positions`).  That layout makes each
    replica's contribution to global batch ``k`` a contiguous slice of
    the stream, which is what lets the reduction reproduce a single
    pipeline's gradient math bit for bit.

    Synchronous schedules (``fill_drain``/``gpipe``) reduce gradients at
    every update barrier over a shared-memory **chain reduce plane**
    (:func:`~repro.pipeline.transport.build_reduce_rings`): per-packet
    gradient segments fold across replicas in stream order, so the
    global sum — and therefore every update — is hex-identical to one
    pipeline running update size ``R*U``.  That is this runner's testable
    contract (``tests/test_replica_parity.py``): replication changes
    wall-clock parallelism, not the trajectory.

    Asynchronous schedules (``pb``/``1f1b``) keep their fine-grained
    per-gradient updates *within* each replica — reducing every
    per-sample update across replicas would serialize exactly what the
    paper pipelines — and merge at the ``train()`` drain barrier by
    averaging per-replica weight deltas (folded in rank order, so the
    merge is deterministic).  The eq.-5 staleness ceiling holds *per
    replica* with local sample indices, since each replica is an
    unmodified S-stage pipeline over its shard.

    Contract deviations from the single-pipeline engines, documented:

    * ``model_factory`` is required (every replica rebuilds the model),
      and a ready-made ``schedule`` object is rejected — the runner
      derives the per-replica schedule (update size ``U``) and the
      master schedule (update size ``R*U`` for synchronous modes, so
      checkpoint schedule tags and :class:`DurableRun` cadences match
      the equivalent single pipeline).
    * ``lr_schedule`` is evaluated once per ``train()`` call at its
      entry drain barrier (on the master's ``samples_completed``), not
      per update: mid-batch LR changes cannot be reduced consistently
      across replicas without serializing them.
    * every parameter must receive a gradient in every packet's
      backward (true for all stage graphs in this repo); per-packet
      parameter sparsity is not supported in reduce mode.

    Crash recovery follows :class:`ProcessPipelineRunner`: with
    ``max_restarts > 0``, a dead worker in *any* replica aborts all
    replicas, restores the master snapshot taken at ``train()`` entry,
    and replays the batch — a replica death recovers exactly like a
    stage death, and the replay is bit-identical to a crash-free run.
    Checkpointing via :class:`DurableRun`/:func:`capture_checkpoint`
    works unchanged: between ``train()`` calls the authoritative state
    lives in the master executor's stages.
    """

    def __init__(
        self,
        model: StageGraphModel,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        mitigation: MitigationConfig | None = None,
        mode: str = "pb",
        update_size: int = 1,
        micro_batch_size: int = 1,
        lr_schedule: Callable[[int], float] | None = None,
        record_versions: bool = False,
        schedule: Schedule | None = None,
        lockstep: bool = False,
        jitter: float = 0.0,
        jitter_seed: int = 0,
        stall_timeout: float = DEFAULT_STALL_TIMEOUT,
        model_factory: Callable[[], StageGraphModel] | None = None,
        start_method: str | None = None,
        ring_slack: int = 2,
        max_restarts: int = 0,
        replicas: int = 2,
        precision: "str | None" = None,
        lockstep_ack_interval: int = 16,
    ):
        if replicas < 2:
            raise ValueError(
                f"ReplicatedPipelineRunner needs replicas >= 2, got "
                f"{replicas} (use ProcessPipelineRunner for one replica)"
            )
        if schedule is not None:
            raise ValueError(
                "ReplicatedPipelineRunner derives its per-replica and "
                "master schedules from mode/update_size/micro_batch_size; "
                "a ready-made schedule object cannot be split"
            )
        if model_factory is None:
            raise ValueError(
                "ReplicatedPipelineRunner requires a spawn-safe "
                "model_factory: every replica rebuilds the model in its "
                "own worker processes"
            )
        self.replicas = int(replicas)
        rep_schedule = make_schedule(mode, update_size, micro_batch_size)
        if rep_schedule.forward_only:
            raise ValueError(
                f"schedule {rep_schedule.name!r} is forward-only; "
                "replication applies to training"
            )
        #: synchronous schedules reduce gradients at every update
        #: barrier; asynchronous ones run independent replicas merged
        #: at the train() drain barrier
        self._sync = not rep_schedule.update_after_backward(0)
        #: per-replica update size = the block-cyclic shard block
        self._block = max(1, int(rep_schedule.update_size))
        global_update = (
            self._block * self.replicas if self._sync else update_size
        )
        common = dict(
            lr=lr,
            momentum=momentum,
            weight_decay=weight_decay,
            mitigation=mitigation,
            mode=mode,
            micro_batch_size=micro_batch_size,
            record_versions=record_versions,
            precision=precision,
        )
        self._executor = PipelineExecutor(
            model, update_size=global_update, lr_schedule=lr_schedule,
            **common,
        )
        self.lockstep = bool(lockstep)
        self.stall_timeout = float(stall_timeout)
        self.model_factory = model_factory
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        self.max_restarts = int(max_restarts)
        self.restarts_used = 0
        self.last_runtime_stats: RuntimeStats | None = None
        #: the R inner single-pipeline runners (``replica_runners[r]``
        #: is rank r); exposed so tests can reach per-replica state
        #: (version traces, worker pids) directly
        self.replica_runners: list[ProcessPipelineRunner] = []
        for r in range(self.replicas):
            rep = ProcessPipelineRunner(
                model_factory(),
                update_size=update_size,
                lr_schedule=None,  # evaluated once at the master barrier
                lockstep=lockstep,
                jitter=jitter,
                jitter_seed=jitter_seed * 1_000_003 + r,
                stall_timeout=stall_timeout,
                model_factory=model_factory,
                start_method=start_method,
                ring_slack=ring_slack,
                max_restarts=0,  # recovery is coordinated at this level
                lockstep_ack_interval=lockstep_ack_interval,
                **common,
            )
            if rep.num_stages != self.num_stages:
                raise ValueError(
                    "model_factory builds a "
                    f"{rep.num_stages}-stage model but the master model "
                    f"has {self.num_stages} stages"
                )
            self.replica_runners.append(rep)
        self.start_method = self.replica_runners[0].start_method
        #: live-progress bases: master samples_completed only advances at
        #: the merge barrier, so mid-drive progress is the sum of the
        #: replicas' advances over these per-attempt baselines
        self._progress_bases: list[int] | None = None

    _infer_backend = "process"

    @property
    def samples_completed(self) -> int:
        done = self._executor.samples_completed
        bases = self._progress_bases
        if bases is not None:
            done += sum(
                rep.samples_completed - base
                for rep, base in zip(self.replica_runners, bases)
            )
        return done

    # -- public entry -------------------------------------------------------

    def train(self, X: np.ndarray, Y: Sequence[int]) -> PipelineRunStats:
        """Shard the batch across the replicas and train them to the
        drain barrier (reducing per update for synchronous schedules,
        merging weight deltas at the end for asynchronous ones)."""
        X, Y = self._train_inputs(X, Y)
        if X.shape[0] == 0:
            return self._empty_run(replicas=self.replicas)
        if self.lr_schedule is not None:
            # once per train() call, at its entry drain barrier (see the
            # class docstring's contract deviations)
            self._executor.set_lr(
                float(self.lr_schedule(self._executor.samples_completed))
            )
        return self._train_with_restarts(X, Y)

    # -- one attempt --------------------------------------------------------

    def _train_attempt(self, X: np.ndarray, Y: np.ndarray) -> PipelineRunStats:
        n = X.shape[0]
        R = self.replicas
        block = self._block
        shards = [shard_positions(n, r, R, block=block) for r in range(R)]
        # global batches in this stream; shards that hold no samples of
        # the final (or only) batch still join its reduce with an empty
        # contribution so the chains stay aligned
        if self._sync:
            global_batch = R * block
            rounds = -(-n // global_batch)
            missing = [
                rounds - (-(-int(pos.size) // block)) for pos in shards
            ]
        else:
            missing = [0] * R
        # ship the master's drain-barrier state into every replica
        master_states = [st.state_dict() for st in self.stages]
        for rep in self.replica_runners:
            for stage, st in zip(rep.stages, master_states):
                stage.load_state_dict(st)
        reduce_rings: list[ShmRing] = []
        if self._sync:
            chain, result = build_reduce_rings(self.stages, R, slots=2)
            reduce_rings = [r for per in chain for r in per]
            reduce_rings += [r for per in result for r in per]
            for r, rep in enumerate(self.replica_runners):
                rep._reduce_plan = [
                    _ReduceSpec(
                        rank=r,
                        chain_in=chain[s][r - 1] if r > 0 else None,
                        chain_out=chain[s][r] if r < R - 1 else None,
                        result_in=result[s][r] if r < R - 1 else None,
                        result_out=result[s][r - 1] if r > 0 else None,
                    )
                    for s in range(self.num_stages)
                ]
        part_stats: list[PipelineRunStats | None] = [None] * R
        errors: list[tuple[int, BaseException]] = []
        self._progress_bases = [
            rep.samples_completed for rep in self.replica_runners
        ]

        def drive(r: int) -> None:
            rep = self.replica_runners[r]
            pos = shards[r]
            try:
                part_stats[r] = rep._train_attempt(
                    np.ascontiguousarray(X[pos]),
                    Y[pos],
                    extra_flushes=missing[r],
                )
            except BaseException as exc:
                errors.append((r, exc))

        threads = [
            threading.Thread(
                target=drive, args=(r,), name=f"replica-driver-{r}",
                daemon=True,
            )
            for r in range(R)
        ]
        try:
            for t in threads:
                t.start()
            aborted = False
            while any(t.is_alive() for t in threads):
                if not errors and not aborted:
                    # cross-replica liveness watchdog: a replica's own
                    # drive can miss its worker's death window (e.g.
                    # the kill lands between drive phases), leaving the
                    # *other* replicas blocked in a reduce until their
                    # stall timeout.  The group monitor scans every
                    # replica's workers so any abnormal exit fails the
                    # whole group promptly.
                    for r, rep in enumerate(self.replica_runners):
                        try:
                            rep._workers.raise_if_dead()
                        except PipelineRuntimeError as exc:
                            errors.append((
                                r,
                                PipelineRuntimeError(
                                    exc.stage_index,
                                    RuntimeError(f"replica {r}: {exc.cause}"),
                                ),
                            ))
                            break
                if errors and not aborted:
                    # one replica failed: abort the others so their
                    # workers exit instead of stalling in a reduce no
                    # peer will ever join
                    aborted = True
                    for rep in self.replica_runners:
                        rep._workers.set_abort()
                for t in threads:
                    t.join(0.05)
        finally:
            for t in threads:
                t.join()
            for rep in self.replica_runners:
                rep._reduce_plan = None
            for ring in reduce_rings:
                ring.close()
                ring.unlink()
            self._progress_bases = None
        if errors:
            for _, exc in errors:
                if isinstance(exc, PipelineRuntimeError):
                    raise exc
            raise errors[0][1]
        self._merge_replicas(master_states)
        losses = np.zeros(n)
        for pos, part in zip(shards, part_stats):
            if pos.size:
                losses[pos] = part.losses
        self._executor.samples_completed += n
        runtime = RuntimeStats.merge_replicas(
            [part.runtime for part in part_stats]
        )
        self.last_runtime_stats = runtime
        return PipelineRunStats.merge_replicas(
            part_stats,
            losses,
            updates_per_stage=[st.updates_applied for st in self.stages],
            runtime=runtime,
        )

    # -- merging ------------------------------------------------------------

    def _merge_replicas(self, master_states: list[dict]) -> None:
        """Fold the replicas' post-drive state into the master stages."""
        if self._sync:
            # the reduce already synchronized every update, so the
            # replicas must agree bit for bit; adopt rank 0 after
            # checking that invariant (a mismatch means the reduce plane
            # is broken — fail loudly, never average it away)
            ref_states = [
                st.state_dict() for st in self.replica_runners[0].stages
            ]
            for r, rep in enumerate(self.replica_runners[1:], start=1):
                for s, (stage, ref) in enumerate(
                    zip(rep.stages, ref_states)
                ):
                    st = stage.state_dict()
                    same = st["updates_applied"] == ref["updates_applied"]
                    for key in ("params", "velocity", "prev_weights"):
                        same = same and all(
                            a.tobytes() == b.tobytes()
                            for a, b in zip(st[key], ref[key])
                        )
                    if not same:
                        raise RuntimeError(
                            f"replica {r} diverged from replica 0 at "
                            f"stage {s} despite synchronized updates — "
                            "reduce plane violated its contract"
                        )
            for stage, st in zip(self.stages, ref_states):
                stage.load_state_dict(st)
            return
        # asynchronous schedules: average per-replica weight deltas
        # against the shipped base state (rank-order fold, deterministic)
        R = self.replicas
        for stage, base in zip(self.stages, master_states):
            per_rep = [
                rep.stages[stage.index].state_dict()
                for rep in self.replica_runners
            ]
            merged: dict = {
                "lr": base["lr"],
                "updates_applied": base["updates_applied"]
                + sum(
                    p["updates_applied"] - base["updates_applied"]
                    for p in per_rep
                ),
            }
            for key in ("params", "velocity", "prev_weights"):
                arrays = []
                for k in range(len(base[key])):
                    acc = per_rep[0][key][k] - base[key][k]
                    for p in per_rep[1:]:
                        acc = acc + (p[key][k] - base[key][k])
                    arrays.append(base[key][k] + acc / R)
                merged[key] = arrays
            stage.load_state_dict(merged)


def make_pipeline_engine(
    runtime: str,
    model: StageGraphModel,
    lr: float,
    lockstep: bool = False,
    **kwargs: Any,
) -> PipelineExecutor | ConcurrentPipelineRunner | ProcessPipelineRunner:
    """Build the requested pipeline engine behind one switch.

    ``runtime="sim"`` returns the discrete-time :class:`PipelineExecutor`;
    ``runtime="threaded"`` a :class:`ConcurrentPipelineRunner` (one worker
    thread per stage); ``runtime="process"`` a
    :class:`ProcessPipelineRunner` (one worker process per stage,
    shared-memory transport).  ``replicas=R`` with ``R > 1`` (process
    runtime only) returns a :class:`ReplicatedPipelineRunner`: R
    data-parallel pipeline copies with cross-replica gradient reduction
    at update barriers.  The concurrent engines are free-running unless
    ``lockstep=True``.  All engines expose the same
    ``train``/``samples_completed``/``set_lr`` surface, so callers like
    :class:`~repro.train.pb_trainer.PipelinedTrainer` switch engines
    without touching their training loops.
    """
    replicas = int(kwargs.pop("replicas", 1) or 1)
    if replicas > 1:
        if runtime != "process":
            raise ValueError(
                f"replicas={replicas} requires runtime='process' (the "
                "replicated runner is built on the process pipeline), "
                f"got runtime={runtime!r}"
            )
        return ReplicatedPipelineRunner(
            model, lr, lockstep=lockstep, replicas=replicas, **kwargs
        )
    if runtime == "sim":
        return PipelineExecutor(model, lr, **kwargs)
    if runtime == "threaded":
        return ConcurrentPipelineRunner(model, lr, lockstep=lockstep, **kwargs)
    if runtime == "process":
        return ProcessPipelineRunner(model, lr, lockstep=lockstep, **kwargs)
    raise ValueError(
        f"runtime must be 'sim', 'threaded' or 'process', got {runtime!r}"
    )
