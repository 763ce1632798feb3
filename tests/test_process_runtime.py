"""Process-per-stage runtime: bit-exact parity and free-running semantics.

The :class:`~repro.pipeline.runtime.ProcessPipelineRunner` promises the
same contracts as the threaded runner, now across OS process boundaries
and the shared-memory transport:

* **lockstep** is hex-identical to :class:`PipelineExecutor` for every
  schedule — the full PR-2 parity matrix ({1, 2, 4} stages × micro
  widths {1, 4, tail}) plus a re-pin of the canonical schedule goldens,
  reusing the exact helpers of ``test_runtime_parity``;
* **free-running** keeps the eq.-5 staleness ceiling via the per-stage
  in-flight caps, keeps the synchronous schedules numerically identical
  to sequential SGDM, and reports measured per-stage activity collected
  from the worker processes;
* trained weights and optimizer state ship back to the parent at drain
  time (the master model is usable immediately after ``train()``), and
  worker failures surface as :class:`PipelineRuntimeError`, never hangs.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
from functools import partial

import numpy as np
import pytest

from repro.models.simple import small_cnn
from repro.optim import SGDM
from repro.pipeline import (
    PipelineExecutor,
    PipelineRuntimeError,
    ProcessPipelineRunner,
    ReplicatedPipelineRunner,
    make_pipeline_engine,
    transport,
)
from repro.pipeline.inference import (
    InferenceStreamError,
    open_inference_stream,
)
from repro.pipeline.workers import StageWorkerGroup, WorkerInbox, WorkerSpec
from repro.tensor import Tensor, cross_entropy

from test_runtime_parity import (
    MODELS,
    SCHEDULE_CONFIGS,
    _hex_losses,
    _stream,
    _weight_fingerprint,
)
from test_schedules_golden import (
    GOLDEN,
    LR,
    MOMENTUM,
    N_SAMPLES,
    RUNS,
    SEED,
    WEIGHT_DECAY,
)

pytestmark = pytest.mark.concurrency

#: Generous per-wait deadline; the SIGALRM conftest guard still bounds
#: total test time, so a deadlock fails loudly either way.
STALL = 60.0


def _run_both(depth: int, mode: str, kw: dict, n: int, **runner_kw):
    """Train twin models through the simulator and the lockstep process
    runner (mirror of ``test_runtime_parity._run_both``)."""
    X, Y = _stream(n)
    m_sim = MODELS[depth](seed=2024)
    m_proc = MODELS[depth](seed=2024)
    common = dict(lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY,
                  mode=mode, **kw)
    sim = PipelineExecutor(m_sim, **common).train(X, Y)
    runner = ProcessPipelineRunner(
        m_proc, lockstep=True, stall_timeout=STALL, **common, **runner_kw
    )
    proc = runner.train(X, Y)
    return sim, proc, m_sim, m_proc, runner


class TestLockstepBitExact:
    @pytest.mark.parametrize("depth", sorted(MODELS))
    @pytest.mark.parametrize("mode,kw", SCHEDULE_CONFIGS)
    def test_losses_weights_and_update_counts(self, depth, mode, kw):
        sim, proc, m_sim, m_proc, _ = _run_both(depth, mode, kw, n=16)
        assert _hex_losses(sim) == _hex_losses(proc), (
            f"{mode} x {depth} stages: per-sample losses drifted across "
            "process boundaries"
        )
        assert _weight_fingerprint(m_sim) == _weight_fingerprint(m_proc)
        assert sim.updates_per_stage == proc.updates_per_stage
        assert sim.time_steps == proc.time_steps
        assert sim.forward_ops == proc.forward_ops
        assert sim.backward_ops == proc.backward_ops
        assert sim.forward_samples == proc.forward_samples

    @pytest.mark.parametrize("mode,kw", SCHEDULE_CONFIGS)
    def test_tail_remainder_micro_batch(self, mode, kw):
        """n=11 with update 4 (batches 4,4,3) and micro 4 (tail packets
        of 3): the remainder path is bit-exact through the rings too."""
        sim, proc, m_sim, m_proc, _ = _run_both(4, mode, kw, n=11)
        assert _hex_losses(sim) == _hex_losses(proc)
        assert _weight_fingerprint(m_sim) == _weight_fingerprint(m_proc)
        assert sim.updates_per_stage == proc.updates_per_stage

    def test_optimizer_state_ships_back(self):
        """Per-stage velocity returns to the parent bit-exact, so a
        second run continues exactly where the first stopped."""
        X, Y = _stream(12)
        m_sim = MODELS[4](seed=2024)
        m_proc = MODELS[4](seed=2024)
        common = dict(lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY,
                      mode="pb")
        sim_engine = PipelineExecutor(m_sim, **common)
        sim_engine.train(X, Y)
        runner = ProcessPipelineRunner(
            m_proc, lockstep=True, stall_timeout=STALL, **common
        )
        runner.train(X, Y)
        for st_sim, st_proc in zip(sim_engine.stages, runner.stages):
            assert st_sim.updates_applied == st_proc.updates_applied
            for p_sim, p_proc in zip(st_sim.params, st_proc.params):
                assert np.array_equal(
                    st_sim.velocity(p_sim), st_proc.velocity(p_proc)
                )

    def test_consecutive_runs_stay_bit_exact(self):
        """Two train() calls == one longer sim stream split in two: the
        state round-trip through the workers is lossless."""
        X, Y = _stream(16)
        m_sim = MODELS[4](seed=9)
        m_proc = MODELS[4](seed=9)
        common = dict(lr=LR, momentum=MOMENTUM, mode="pb")
        sim = PipelineExecutor(m_sim, **common)
        sim.train(X[:8], Y[:8])
        sim.train(X[8:], Y[8:])
        runner = ProcessPipelineRunner(
            m_proc, lockstep=True, stall_timeout=STALL, **common
        )
        runner.train(X[:8], Y[:8])
        runner.train(X[8:], Y[8:])
        assert _weight_fingerprint(m_sim) == _weight_fingerprint(m_proc)
        assert runner.samples_completed == 16

    def test_lr_schedule_applied_at_barrier(self):
        X, Y = _stream(12)
        sched = lambda done: 0.05 / (1 + 0.1 * done)  # noqa: E731
        m1 = small_cnn(num_classes=4, widths=(4, 8), seed=3)
        m2 = small_cnn(num_classes=4, widths=(4, 8), seed=3)
        sim = PipelineExecutor(
            m1, lr=0.05, momentum=0.9, mode="pb", lr_schedule=sched
        ).train(X, Y)
        proc = ProcessPipelineRunner(
            m2, lr=0.05, momentum=0.9, mode="pb", lr_schedule=sched,
            lockstep=True, stall_timeout=STALL,
        ).train(X, Y)
        assert _hex_losses(sim) == _hex_losses(proc)
        assert _weight_fingerprint(m1) == _weight_fingerprint(m2)


class TestGoldenRePin:
    """The canonical hex goldens hold for the process engine verbatim —
    pins generated by the pre-refactor single-threaded executor now
    reproduced by multi-process workers over shared memory."""

    @pytest.mark.parametrize("label", sorted(RUNS))
    def test_process_matches_golden(self, label):
        rng = np.random.default_rng(99)
        X = rng.normal(size=(N_SAMPLES, 3, 8, 8))
        Y = rng.integers(0, 4, size=N_SAMPLES)
        model = small_cnn(num_classes=4, widths=(4, 8), seed=SEED)
        runner = ProcessPipelineRunner(
            model, lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY,
            lockstep=True, stall_timeout=STALL, **RUNS[label],
        )
        stats = runner.train(X, Y)
        golden = GOLDEN[label]
        assert _hex_losses(stats) == golden["losses"], (
            f"{label}: process-engine losses drifted from the golden pins"
        )
        wsum, wabs = _weight_fingerprint(model)
        assert wsum == golden["weight_sum"]
        assert wabs == golden["weight_abs_sum"]


class TestFreeRunning:
    @pytest.mark.parametrize("mode", ["pb", "1f1b"])
    def test_eq5_staleness_ceiling(self, mode):
        """max(0, i - 2(S-1-s)) <= v_fwd(i) <= i at every compute stage:
        the in-flight caps survive the process transport."""
        n = 24
        X, Y = _stream(n)
        m = small_cnn(seed=5)
        runner = ProcessPipelineRunner(
            m, lr=0.01, momentum=0.9, mode=mode, lockstep=False,
            record_versions=True, stall_timeout=STALL,
        )
        runner.train(X, Y)
        S = m.num_stages
        for s, stage in enumerate(runner.stages):
            if stage.spec.kind != "compute":
                continue
            D = 2 * (S - 1 - s)
            assert len(stage.version_trace) == n
            for sid, v_fwd, v_bwd in stage.version_trace:
                assert max(0, sid - D) <= v_fwd <= sid, (
                    f"stage {s}: sample {sid} saw version {v_fwd}, "
                    f"outside [{max(0, sid - D)}, {sid}]"
                )
                assert v_bwd == sid

    def test_version_trace_accumulates_across_runs(self):
        """Two train() calls yield both runs' trace entries — matching
        the sim/threaded engines — even though each run's workers start
        from a fresh (or forked) stage."""
        X, Y = _stream(12)
        m = small_cnn(seed=5)
        runner = ProcessPipelineRunner(
            m, lr=0.01, mode="pb", lockstep=True, record_versions=True,
            stall_timeout=STALL,
        )
        runner.train(X[:6], Y[:6])
        runner.train(X[6:], Y[6:])
        for stage in runner.stages:
            if stage.spec.kind == "compute":
                assert len(stage.version_trace) == 12
                assert [t[0] for t in stage.version_trace[:6]] == list(range(6))

    def test_free_gpipe_equals_sequential_sgdm(self):
        n, N, B = 16, 8, 4
        X, Y = _stream(n)
        m1, m2 = small_cnn(seed=5), small_cnn(seed=5)
        ProcessPipelineRunner(
            m1, lr=0.05, momentum=0.9, weight_decay=1e-4, mode="gpipe",
            update_size=N, micro_batch_size=B, lockstep=False,
            stall_timeout=STALL,
        ).train(X, Y)
        ref = SGDM(m2.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-4)
        for b in range(n // N):
            loss = cross_entropy(
                m2(Tensor(X[b * N : (b + 1) * N])), Y[b * N : (b + 1) * N]
            )
            ref.zero_grad()
            loss.backward()
            ref.step()
        diff = max(
            float(np.abs(a.data - b.data).max())
            for a, b in zip(m1.parameters(), m2.parameters())
        )
        assert diff < 1e-8

    def test_free_fill_drain_tail_batch(self):
        n, N = 10, 4
        X, Y = _stream(n)
        m1, m2 = small_cnn(seed=7), small_cnn(seed=7)
        ProcessPipelineRunner(
            m1, lr=0.05, momentum=0.9, mode="fill_drain", update_size=N,
            lockstep=False, stall_timeout=STALL,
        ).train(X, Y)
        ref = SGDM(m2.parameters(), lr=0.05, momentum=0.9)
        for start in range(0, n, N):
            xb, yb = X[start : start + N], Y[start : start + N]
            loss = cross_entropy(m2(Tensor(xb)), yb)
            ref.zero_grad()
            loss.backward()
            ref.step()
        diff = max(
            float(np.abs(a.data - b.data).max())
            for a, b in zip(m1.parameters(), m2.parameters())
        )
        assert diff < 1e-10

    def test_free_gpipe_losses_bit_match_simulator(self):
        n, N, B = 16, 8, 4
        X, Y = _stream(n)
        m1, m2 = small_cnn(seed=5), small_cnn(seed=5)
        sim = PipelineExecutor(
            m1, lr=0.05, momentum=0.9, mode="gpipe", update_size=N,
            micro_batch_size=B,
        ).train(X, Y)
        free = ProcessPipelineRunner(
            m2, lr=0.05, momentum=0.9, mode="gpipe", update_size=N,
            micro_batch_size=B, lockstep=False, stall_timeout=STALL,
        ).train(X, Y)
        assert np.array_equal(sim.losses, free.losses)

    def test_op_counts_and_runtime_stats(self):
        n = 12
        X, Y = _stream(n)
        m = small_cnn(seed=5)
        runner = ProcessPipelineRunner(
            m, lr=0.01, mode="pb", lockstep=False, stall_timeout=STALL
        )
        stats = runner.train(X, Y)
        rt = stats.runtime
        assert rt is runner.last_runtime_stats
        assert rt.backend == "process"
        assert rt.mode == "free_running"
        assert len(rt.stages) == m.num_stages
        assert rt.wall_seconds > 0.0
        # every stage transformed every sample exactly once per pass,
        # measured inside the workers and shipped back at drain
        for st in rt.stages:
            assert st.forward_ops == n
            assert st.backward_ops == n
            assert st.busy_seconds > 0.0
        assert runner.completion_order == sorted(runner.completion_order)

    def test_losses_populated_from_worker(self):
        n = 8
        X, Y = _stream(n)
        m = small_cnn(seed=5)
        stats = ProcessPipelineRunner(
            m, lr=0.01, mode="pb", lockstep=False, stall_timeout=STALL
        ).train(X, Y)
        assert stats.losses.shape == (n,)
        assert np.all(stats.losses > 0.0)  # CE losses are positive


class TestSpawnAndFactory:
    def test_fork_factory_path_is_bit_exact(self):
        """model_factory switches fork workers onto the StageBuildSpec
        reconstruction path (what spawn uses) — still hex-identical."""
        factory = partial(small_cnn, num_classes=4, widths=(4,), seed=11)
        X, Y = _stream(10)
        m1, m2 = factory(), factory()
        sim = PipelineExecutor(m1, lr=0.05, momentum=0.9, mode="pb").train(X, Y)
        proc = ProcessPipelineRunner(
            m2, lr=0.05, momentum=0.9, mode="pb", lockstep=True,
            model_factory=factory, stall_timeout=STALL,
        ).train(X, Y)
        assert _hex_losses(sim) == _hex_losses(proc)
        assert _weight_fingerprint(m1) == _weight_fingerprint(m2)

    @pytest.mark.concurrency(timeout=300)
    def test_spawn_start_method_is_bit_exact(self):
        """Full spawn: workers are fresh interpreters that rebuild their
        stage from the picklable factory + shipped state."""
        factory = partial(small_cnn, num_classes=4, widths=(4,), seed=11)
        X, Y = _stream(8)
        m1, m2 = factory(), factory()
        sim = PipelineExecutor(m1, lr=0.05, momentum=0.9, mode="pb").train(X, Y)
        proc = ProcessPipelineRunner(
            m2, lr=0.05, momentum=0.9, mode="pb", lockstep=True,
            model_factory=factory, start_method="spawn",
            stall_timeout=240.0,
        ).train(X, Y)
        assert _hex_losses(sim) == _hex_losses(proc)
        assert _weight_fingerprint(m1) == _weight_fingerprint(m2)

    @pytest.mark.concurrency(timeout=300)
    def test_spawn_free_running_gpipe_matches_simulator(self):
        """Free-running under spawn: every ring reaches its worker by
        unpickling, doorbell included, and losses stay hex-equal."""
        factory = partial(small_cnn, num_classes=4, widths=(4,), seed=11)
        n, N, B = 16, 8, 4
        X, Y = _stream(n)
        sim = PipelineExecutor(
            factory(), lr=0.05, momentum=0.9, mode="gpipe", update_size=N,
            micro_batch_size=B,
        ).train(X, Y)
        free = ProcessPipelineRunner(
            factory(), lr=0.05, momentum=0.9, mode="gpipe", update_size=N,
            micro_batch_size=B, lockstep=False, model_factory=factory,
            start_method="spawn", stall_timeout=240.0,
        ).train(X, Y)
        assert _hex_losses(sim) == _hex_losses(free)

    def test_spawn_without_factory_rejected(self):
        with pytest.raises(ValueError, match="model_factory"):
            ProcessPipelineRunner(
                small_cnn(seed=0), lr=0.01, start_method="spawn"
            )


class TestFailureAndEdgeCases:
    def test_empty_stream(self):
        m = small_cnn(seed=1)
        stats = ProcessPipelineRunner(
            m, lr=0.01, mode="pb", lockstep=False, stall_timeout=STALL
        ).train(np.zeros((0, 3, 8, 8)), np.zeros(0, dtype=np.int64))
        assert stats.samples == 0
        assert stats.time_steps == 0
        assert np.isnan(stats.mean_loss)

    def test_single_sample(self):
        X, Y = _stream(1)
        m1 = small_cnn(seed=1)
        m2 = small_cnn(seed=1)
        sim = PipelineExecutor(m1, lr=0.01, mode="pb").train(X, Y)
        proc = ProcessPipelineRunner(
            m2, lr=0.01, mode="pb", lockstep=True, stall_timeout=STALL
        ).train(X, Y)
        assert _hex_losses(sim) == _hex_losses(proc)

    @pytest.mark.parametrize("lockstep", [False, True])
    def test_worker_exception_propagates(self, lockstep):
        """An out-of-range label makes the loss worker raise; the parent
        gets a PipelineRuntimeError naming the stage, not a hang."""
        X, Y = _stream(8)
        Y = Y.copy()
        Y[3] = 10_000  # IndexError inside softmax_xent_grad_batch
        m = small_cnn(seed=2)
        runner = ProcessPipelineRunner(
            m, lr=0.01, mode="pb", lockstep=lockstep, stall_timeout=15.0
        )
        with pytest.raises(PipelineRuntimeError) as exc_info:
            runner.train(X, Y)
        assert exc_info.value.stage_index == m.num_stages - 1
        # workers and shared memory are gone: a fresh run still works
        m_ok = small_cnn(seed=2)
        ok = ProcessPipelineRunner(
            m_ok, lr=0.01, mode="pb", lockstep=lockstep, stall_timeout=STALL
        ).train(*_stream(6))
        assert ok.samples == 6

    @pytest.mark.parametrize("engine", ["train", "stream_worker_raised"])
    def test_rings_are_torn_down(self, engine):
        """After train(), or close() of an inference stream whose worker
        raised, no worker is alive and no shared-memory segment is left."""
        X, Y = _stream(6)
        shm_before = set(os.listdir("/dev/shm"))
        children_before = set(mp.active_children())
        if engine == "train":
            runner = ProcessPipelineRunner(
                small_cnn(seed=1), lr=0.01, mode="pb", lockstep=False,
                stall_timeout=STALL,
            )
            runner.train(X, Y)
            group = runner._workers
        else:
            stages = PipelineExecutor(small_cnn(seed=1), lr=0.01).stages

            forward = stages[1].forward

            def broken_forward(pid, payload, train=True):
                if pid < 0:  # the parent's ring-layout probe
                    return forward(pid, payload, train=train)
                raise ValueError("stage 1 is broken")

            stages[1].forward = broken_forward  # inherited by the fork
            stream = open_inference_stream(
                stages, backend="process", max_width=2,
                sample_shape=X.shape[1:], stall_timeout=STALL,
            )
            group = stream._workers
            procs = list(group.procs)
            assert stream.submit(0, 0, X[:2])
            with pytest.raises(InferenceStreamError, match="broken"):
                deadline = time.monotonic() + STALL
                while time.monotonic() < deadline:
                    stream.poll()
                    time.sleep(0.01)
            stream.close()
            assert not any(p.is_alive() for p in procs)
        assert group.rings == []
        assert group.procs == []
        assert set(mp.active_children()) <= children_before
        assert set(os.listdir("/dev/shm")) <= shm_before


def _spin_on_abort(spec, stage) -> None:
    spec.conn.send(("spinning",))
    while not spec.abort.is_set():
        pass


class TestStageWorkerGroup:
    def test_sigkill_while_polling_abort_cannot_wedge_teardown(self):
        """A worker SIGKILLed mid-spin on ``abort.is_set()`` holds no
        lock: the parent's ``set()`` and the group's teardown return
        promptly (a ``multiprocessing.Event`` could be left locked)."""
        stage = PipelineExecutor(small_cnn(seed=0), lr=0.01).stages[0]
        group = StageWorkerGroup("fork", None, stall_timeout=5.0)
        group.launch(
            _spin_on_abort,
            [WorkerSpec(stage_index=0, stall_timeout=5.0, stage=stage)],
            name="abort-spin",
        )
        assert group.recv(0) == ("spinning",)
        time.sleep(0.05)  # well inside the polling loop
        os.kill(group.procs[0].pid, signal.SIGKILL)
        group.procs[0].join(5.0)
        assert group.dead_worker() == 0
        t0 = time.monotonic()
        group.abort.set()
        group.teardown(failed=True)
        assert time.monotonic() - t0 < 1.0
        assert group.procs == [] and group.abort is None

    def test_teardown_wakes_workers_blocked_on_their_doorbell(
        self, slow_doorbell
    ):
        """``teardown(failed=True)`` posts every doorbell after raising
        the abort flag, so workers blocked in a 30 s doorbell wait exit
        at once."""
        group = _launch_doorbell_waiters(3)
        t0 = time.monotonic()
        group.teardown(failed=True)
        assert time.monotonic() - t0 < 1.0
        assert group.procs == [] and group.doorbells == []

    def test_sigkill_while_blocked_on_doorbell_cannot_wedge_teardown(
        self, slow_doorbell
    ):
        """The doorbell is a counter that nobody holds: posting to a
        worker SIGKILLed mid-wait returns at once, and teardown still
        wakes and joins the survivors."""
        group = _launch_doorbell_waiters(2)
        os.kill(group.procs[0].pid, signal.SIGKILL)
        group.procs[0].join(5.0)
        assert group.dead_worker() == 0
        t0 = time.monotonic()
        for _ in range(3):
            group.doorbells[0].post()
        group.teardown(failed=True)
        assert time.monotonic() - t0 < 1.0
        assert group.procs == [] and group.abort is None

    def test_command_burst_to_more_workers_than_cores(self, slow_doorbell):
        """Interleaved command bursts to four workers, more than a
        2-CPU host has cores: every command is read exactly once and in
        order, and no wake-up is lost (each would cost a 30 s wait)."""
        n_workers, n_cmds = 4, 200
        stage = PipelineExecutor(small_cnn(seed=0), lr=0.01).stages[0]
        group = StageWorkerGroup("fork", None, stall_timeout=STALL)
        group.launch(
            _echo_commands,
            [
                WorkerSpec(stage_index=s, stall_timeout=STALL, stage=stage)
                for s in range(n_workers)
            ],
            name="doorbell-echo",
        )
        failed = True
        try:
            t0 = time.monotonic()
            for i in range(n_cmds):
                for s in range(n_workers):
                    group.send(s, ("echo", i))
            for s in range(n_workers):
                assert [group.recv(s)[1] for _ in range(n_cmds)] == list(
                    range(n_cmds)
                )
            group.broadcast(("stop",))
            assert time.monotonic() - t0 < LOST_WAKEUP_S / 2
            failed = False
        finally:
            group.teardown(failed)


def _echo_commands(spec, stage) -> None:
    inbox = WorkerInbox(spec)
    while True:
        while not inbox.pending():
            inbox.idle()
        cmd = inbox.take()
        if cmd[0] == "stop":
            return
        spec.conn.send(cmd)


#: A doorbell wait long enough that a lost wake-up cannot hide: any
#: run that relied on the timeout instead of a post would take this long.
LOST_WAKEUP_S = 30.0


@pytest.fixture
def slow_doorbell(monkeypatch):
    """Stretch every doorbell wait to :data:`LOST_WAKEUP_S` (forked
    workers inherit the patched constant)."""
    monkeypatch.setattr(transport, "DOORBELL_WAIT", LOST_WAKEUP_S)


def _wait_on_doorbell(spec, stage) -> None:
    inbox = WorkerInbox(spec)
    spec.conn.send(("waiting",))
    while not spec.abort.is_set():
        inbox.idle()


def _launch_doorbell_waiters(n: int) -> StageWorkerGroup:
    stage = PipelineExecutor(small_cnn(seed=0), lr=0.01).stages[0]
    group = StageWorkerGroup("fork", None, stall_timeout=5.0)
    group.launch(
        _wait_on_doorbell,
        [
            WorkerSpec(stage_index=s, stall_timeout=5.0, stage=stage)
            for s in range(n)
        ],
        name="doorbell-wait",
    )
    for s in range(n):
        assert group.recv(s) == ("waiting",)
    time.sleep(0.1)  # every worker is now inside its doorbell wait
    return group


class TestNoLostWakeups:
    """With doorbell waits stretched to 30 s, only posts can keep a run
    moving: each run below finishes in seconds (on the 30 s budget a
    single lost wake-up would blow) and still computes the right
    numbers."""

    def _assert_quick(self, t0: float) -> None:
        assert time.monotonic() - t0 < LOST_WAKEUP_S / 2

    @pytest.mark.parametrize("lockstep", [False, True])
    def test_pb_run(self, slow_doorbell, lockstep):
        X, Y = _stream(12)
        m1, m2 = small_cnn(seed=5), small_cnn(seed=5)
        t0 = time.monotonic()
        proc = ProcessPipelineRunner(
            m2, lr=0.05, momentum=0.9, mode="pb", lockstep=lockstep,
            stall_timeout=STALL,
        ).train(X, Y)
        self._assert_quick(t0)
        assert proc.samples == 12
        if lockstep:
            sim = PipelineExecutor(
                m1, lr=0.05, momentum=0.9, mode="pb"
            ).train(X, Y)
            assert _hex_losses(sim) == _hex_losses(proc)

    def test_free_gpipe_matches_simulator(self, slow_doorbell):
        n, N, B = 16, 8, 4
        X, Y = _stream(n)
        m1, m2 = small_cnn(seed=5), small_cnn(seed=5)
        sim = PipelineExecutor(
            m1, lr=0.05, momentum=0.9, mode="gpipe", update_size=N,
            micro_batch_size=B,
        ).train(X, Y)
        t0 = time.monotonic()
        free = ProcessPipelineRunner(
            m2, lr=0.05, momentum=0.9, mode="gpipe", update_size=N,
            micro_batch_size=B, lockstep=False, stall_timeout=STALL,
        ).train(X, Y)
        self._assert_quick(t0)
        assert _hex_losses(sim) == _hex_losses(free)

    def test_replicated_run(self, slow_doorbell):
        """Reduce rings join two groups and keep the spin-then-sleep
        wait; the stage rings of each replica use doorbells."""
        factory = partial(small_cnn, num_classes=4, widths=(4,))
        X, Y = _stream(16)
        sim = PipelineExecutor(
            factory(seed=3), lr=0.05, momentum=0.9, mode="fill_drain",
            update_size=8,
        ).train(X, Y)
        t0 = time.monotonic()
        rep = ReplicatedPipelineRunner(
            factory(seed=3), lr=0.05, momentum=0.9, mode="fill_drain",
            update_size=4, replicas=2, model_factory=factory,
            stall_timeout=STALL,
        ).train(X, Y)
        self._assert_quick(t0)
        assert _hex_losses(sim) == _hex_losses(rep)

    def test_inference_stream(self, slow_doorbell):
        stages = PipelineExecutor(small_cnn(seed=1), lr=0.01).stages
        X, _ = _stream(10)
        expect = {}
        with open_inference_stream(
            stages, backend="sim", max_width=2, sample_shape=X.shape[1:]
        ) as sim:
            for pid in range(5):
                assert sim.submit(pid, 2 * pid, X[2 * pid : 2 * pid + 2])
            for pid, _start, logits in sim.poll():
                expect[pid] = logits
        t0 = time.monotonic()
        stream = open_inference_stream(
            stages, backend="process", max_width=2,
            sample_shape=X.shape[1:], stall_timeout=STALL,
        )
        got = {}
        try:
            for pid in range(5):
                assert stream.submit(pid, 2 * pid, X[2 * pid : 2 * pid + 2])
            while len(got) < 5 and time.monotonic() - t0 < LOST_WAKEUP_S:
                for pid, _start, logits in stream.poll():
                    got[pid] = logits
        finally:
            stream.close()
        self._assert_quick(t0)
        assert sorted(got) == sorted(expect) == list(range(5))
        for pid in expect:
            assert np.array_equal(got[pid], expect[pid])

    def test_idle_stream_close_is_prompt(self, slow_doorbell):
        """``close()`` sends every worker its finalize command and then
        raises abort, both of which post the doorbell, so workers blocked
        on their doorbells reply and exit at once."""
        stages = PipelineExecutor(small_cnn(seed=1), lr=0.01).stages
        stream = open_inference_stream(
            stages, backend="process", max_width=2,
            sample_shape=(3, 8, 8), stall_timeout=STALL,
        )
        time.sleep(0.3)  # the workers start and block on their doorbells
        procs = list(stream._workers.procs)
        t0 = time.monotonic()
        stream.close()
        assert time.monotonic() - t0 < 1.0
        assert not any(p.is_alive() for p in procs)


class TestEngineFacade:
    def test_trainer_process_lockstep_matches_sim(self, tiny_dataset):
        from repro.train.pb_trainer import PipelinedTrainer

        hist = {}
        for runtime in ("sim", "process"):
            model = small_cnn(
                num_classes=tiny_dataset.num_classes, widths=(4, 8), seed=9
            )
            tr = PipelinedTrainer(
                model, tiny_dataset, mode="pb", seed=4,
                runtime=runtime, lockstep=True,
            )
            tr.train_samples(24)
            hist[runtime] = [float(p.data.sum()) for p in model.parameters()]
        assert hist["sim"] == hist["process"]

    def test_make_pipeline_engine_builds_process_runner(self):
        engine = make_pipeline_engine(
            "process", small_cnn(seed=0), lr=0.1, lockstep=True
        )
        assert isinstance(engine, ProcessPipelineRunner)
        assert engine.lockstep

    def test_make_pipeline_engine_rejects_unknown(self):
        with pytest.raises(ValueError, match="process"):
            make_pipeline_engine("distributed", small_cnn(seed=0), lr=0.1)
