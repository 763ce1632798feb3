"""One phase of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script with BLAS pinned to one thread and
``PYTHONPATH=src``; it is not meant to be run by hand, but can be::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/workloads.py \\
        --workload train_pb_b1 --seed 1 --seconds 12 --phase measure \\
        --out .perfbench/scratch

``--phase measure`` runs the workload untraced, checks its outputs
against a reference and writes the end-to-end metrics;
``--phase trace`` runs the same work with every layer wrapped in spans
(``layers.py``) and writes the per-layer metrics, the self-time table and
a Chrome trace.  Each phase writes ``<out>/<phase>.json``.  Why the
workloads look the way they do is in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from functools import partial

import numpy as np

from repro.core.mitigation import MitigationConfig
from repro.data.synthetic import SyntheticCifar
from repro.models.simple import small_cnn
from repro.pipeline.checkpoint import capture_checkpoint, save_checkpoint
from repro.pipeline.transport import ShmRing
from repro.serve.batcher import Overloaded
from repro.serve.fleet import FleetRouter, ReplicaSpec, default_slo_classes
from repro.serve.loadgen import assign_classes, count_bad_outputs
from repro.serve.session import InferenceSession
from repro.train.pb_trainer import PipelinedTrainer

import layers
from tracer import Tracer, load_all, now

#: the task is fixed so that runs on different seeds stay comparable: the
#: seed orders the data, the request pool and the arrivals, but does not
#: redraw the dataset or the initial weights (see README.md)
DATA_SEED = 0
MODEL_SEED = 0
IMAGE_SIZE = 16
TRAIN_SIZE = 1024
VAL_SIZE = 512

TRAIN_WORKLOADS = {
    "train_pb_b1": dict(
        widths=(8, 16), mode="pb", update_size=1, micro_batch_size=1,
        mitigation=MitigationConfig.lwp_plus_sc, epoch_s=3.0,
    ),
    "train_gpipe_mb32": dict(
        widths=(32, 64), mode="gpipe", update_size=64, micro_batch_size=32,
        mitigation=MitigationConfig.none, epoch_s=4.5,
    ),
}
SERVE_WORKLOADS = {
    "serve_fleet_open": dict(
        widths=(8,), replicas=2, micro_batch=8, max_queue=32, rate=300.0,
        mix={"interactive": 0.7, "batch": 0.3},
    ),
}

#: serving-layer metrics read from the fleet's own stats; training never
#: enters these layers and reports 0
SERVE_LAYER_METRICS = (
    "serve.batcher.queue_wait_ms_p50",
    "serve.batcher.queue_wait_ms_p90",
    "serve.batcher.batch_size_mean",
    "serve.server.pipeline_ms_p50",
    "serve.server.pipeline_ms_p90",
    "serve.fleet.router.replica_share_max",
    "serve.fleet.admission.rejected_share.interactive",
    "serve.fleet.admission.rejected_share.batch",
    "serve.latency_p99_ms",
    "loadgen.late_ms_p99",
)
#: set-up (dataset, model and trainer, or the serving fleet) is timed
#: this many times per run and the median reported
SETUP_REPS = 7
SERVE_SETUP_REPS = 3
#: a free-running pb trajectory depends on worker timing, so its final
#: accuracy is compared with the simulator's within this absolute margin
PB_VAL_ACC_TOL = 0.06
CHROME_EVENTS_PER_THREAD = 20000
MS = 1e3


def dataset():
    return SyntheticCifar(
        seed=DATA_SEED, image_size=IMAGE_SIZE, train_size=TRAIN_SIZE,
        val_size=VAL_SIZE,
    )


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's (Linux
    reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def host_fingerprint() -> dict:
    """Host facts plus two fixed calibration timings, so a result can be
    told apart from a slower or busier host."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    a = np.random.default_rng(0).standard_normal((256, 256))
    gemm = []
    for _ in range(7):
        t0 = now()
        for _ in range(10):
            a @ a
        gemm.append((now() - t0) / 10)
    loop = []
    for _ in range(5):
        t0 = now()
        total = 0
        for i in range(200_000):
            total += i
        loop.append(now() - t0)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "gemm_256_ms": statistics.median(gemm) * MS,
        "py_loop_200k_ms": statistics.median(loop) * MS,
    }


def percentile_ms(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) * MS


# -- training ---------------------------------------------------------------


class TrainRecorder:
    """Captures what ``train_epochs`` hides: when each epoch's
    ``train()`` call starts, the stats it returns (per-sample losses,
    ``RuntimeStats``) and each sample's pipeline latency, from its
    injection into the stage-0 ring to the completion message for its
    packet."""

    def __init__(self, trainer: PipelinedTrainer):
        engine = trainer.executor
        self.stats = []
        self.epoch_starts: list[float] = []
        self.latencies: list[float] = []
        self._injected: dict[int, tuple[float, int]] = {}
        self._seen = 0
        train = engine.train

        def capture(X, Y):
            self.epoch_starts.append(now())
            self._injected.clear()
            self._seen = 0
            stats = train(X, Y)
            self.stats.append(stats)
            return stats

        engine.train = capture
        if hasattr(engine, "completion_order"):  # the process engine
            self._hook_latency(engine)

    def _hook_latency(self, engine) -> None:
        # the parent injects with try_send; stage workers forward with send
        try_send = ShmRing.try_send
        injected = self._injected

        def recording_try_send(ring, pid, start, size, payload):
            ok = try_send(ring, pid, start, size, payload)
            if ok:
                injected[start] = (now(), size)
            return ok

        ShmRing.try_send = recording_try_send
        schedule = engine.schedule
        end_step = schedule.end_step

        def recording_end_step(proxy, state):
            t = now()
            order = engine.completion_order
            for start in order[self._seen:]:
                t_in, size = injected.pop(start)
                self.latencies.extend([t - t_in] * size)
            self._seen = len(order)
            return end_step(proxy, state)

        schedule.end_step = recording_end_step


def build_trainer(cfg: dict, ds, seed: int, runtime: str) -> PipelinedTrainer:
    return PipelinedTrainer(
        small_cnn(widths=cfg["widths"], seed=MODEL_SEED),
        ds,
        mitigation=cfg["mitigation"](),
        mode=cfg["mode"],
        update_size=cfg["update_size"],
        micro_batch_size=cfg["micro_batch_size"],
        runtime=runtime,
        seed=seed,
    )


def check_training(cfg: dict, rec: TrainRecorder, history, ref: dict) -> tuple[int, list[str]]:
    """Failed epochs and reasons.  GPipe is synchronous, so the process
    run must reproduce the simulator's per-sample losses bit for bit; a
    free-running pb run must land within ``PB_VAL_ACC_TOL``."""
    failed, why = 0, []
    if cfg["mode"] == "gpipe":
        for e, stats in enumerate(rec.stats):
            if stats.losses.tobytes() != ref["losses"][e].tobytes():
                failed += 1
                why.append(f"epoch {e}: losses differ from the sim reference")
        if history.val_acc[-1] != ref["val_acc"] or history.val_loss[-1] != ref["val_loss"]:
            why.append("final validation metrics differ from the sim reference")
            failed = max(failed, 1)
    else:
        for e, stats in enumerate(rec.stats):
            if not np.all(np.isfinite(stats.losses)):
                failed += 1
                why.append(f"epoch {e}: non-finite loss")
        gap = abs(history.val_acc[-1] - ref["val_acc"])
        if gap > PB_VAL_ACC_TOL:
            why.append(
                f"val_acc {history.val_acc[-1]:.4f} is {gap:.4f} from the "
                f"sim reference {ref['val_acc']:.4f} (tolerance {PB_VAL_ACC_TOL})"
            )
            failed = max(failed, 1)
    return failed, why


def sim_reference(cfg: dict, ds, seed: int, epochs: int) -> dict:
    """The single-worker simulator on the same seed and data: the
    correctness reference and the ``baseline.sim_samples_per_s``."""
    trainer = build_trainer(cfg, ds, seed, "sim")
    rec = TrainRecorder(trainer)
    t0 = now()
    history = trainer.train_epochs(epochs)
    wall = now() - t0
    return {
        "losses": [s.losses.copy() for s in rec.stats],
        "val_acc": history.val_acc[-1],
        "val_loss": history.val_loss[-1],
        "samples_per_s": epochs * TRAIN_SIZE / wall,
    }


def run_train(name: str, seed: int, seconds: float, phase: str, out: str) -> dict:
    cfg = TRAIN_WORKLOADS[name]
    # about ``seconds`` of training on the 2-CPU reference host
    epochs = max(1, round(seconds / cfg["epoch_s"]))
    tracer = None
    if phase == "trace":
        tracer = Tracer(out)
        layers.install(tracer)
    setup = []
    for _ in range(SETUP_REPS if phase == "measure" else 1):
        t0 = now()
        ds = dataset()
        trainer = build_trainer(cfg, ds, seed, "process")
        setup.append(now() - t0)
    rec = TrainRecorder(trainer)
    shm_before = shm_segments()
    t0 = now()
    history = trainer.train_epochs(epochs)
    t_end = now()
    wall = t_end - t0
    # each epoch: its train() call, the evaluation after it and the next
    # chunk of the stream; the median keeps one disturbed epoch from
    # moving the figure
    epoch_walls = np.diff(rec.epoch_starts + [t_end])
    rss = peak_rss_mb()
    leaked = sorted(shm_segments() - shm_before)

    ref_path = os.path.join(out, "reference.npz")
    if phase == "measure":
        ref = sim_reference(cfg, ds, seed, epochs)
        np.savez(
            ref_path, *ref["losses"], val_acc=ref["val_acc"],
            val_loss=ref["val_loss"], samples_per_s=ref["samples_per_s"],
        )
    else:
        with np.load(ref_path) as z:
            ref = {
                "losses": [z[f"arr_{e}"] for e in range(epochs)],
                "val_acc": float(z["val_acc"]),
                "val_loss": float(z["val_loss"]),
                "samples_per_s": float(z["samples_per_s"]),
            }
    failed, why = check_training(cfg, rec, history, ref)
    if leaked:
        why.append(f"shared-memory segments left behind: {leaked}")

    runtime = [s.runtime for s in rec.stats]
    busy = {
        f"pipeline.stage.busy_share.s{s}": (
            sum(r.stages[s].busy_seconds for r in runtime)
            / sum(r.wall_seconds for r in runtime)
            if s < runtime[0].num_stages else 0.0
        )
        for s in range(layers.MAX_STAGES)
    }
    result = {
        "correct": not why,
        "why": why,
        "attempted": epochs,
        "failed": failed,
        "overhead_basis_s": wall,
        "metrics": {
            "setup_s": statistics.median(setup),
            "samples_per_s": float(np.median(TRAIN_SIZE / epoch_walls)),
            "latency_p50_ms": percentile_ms(rec.latencies, 50),
            "latency_p90_ms": percentile_ms(rec.latencies, 90),
            "val_acc": history.val_acc[-1],
            "val_loss": history.val_loss[-1],
            "ok_share": (epochs - failed) / epochs,
            "peak_rss_mb": rss,
        },
        "layer_metrics": dict(
            busy,
            **dict.fromkeys(SERVE_LAYER_METRICS, 0.0),
            **{"baseline.sim_samples_per_s": ref["samples_per_s"]},
        ),
    }
    if tracer is not None:
        result["layer_metrics"] = traced_layers(tracer, out, "train.train_epochs")
    return result


# -- serving ----------------------------------------------------------------


def serving_checkpoint(cfg: dict, ds, out: str) -> tuple:
    """A briefly trained serving model (one synchronous epoch in the
    simulator, the same every run) saved as a checkpoint, so served
    accuracy means something."""
    factory = partial(small_cnn, widths=cfg["widths"], seed=MODEL_SEED)
    trainer = PipelinedTrainer(
        factory(), ds, mode="gpipe", update_size=64, micro_batch_size=32,
        runtime="sim", seed=DATA_SEED,
    )
    trainer.train_epochs(1)
    path = os.path.join(out, "serve.ckpt")
    save_checkpoint(path, capture_checkpoint(trainer.executor))
    return factory, path


class OpenLoop:
    """Poisson arrivals from one generator thread; every request is timed
    from its *due* send time, so a stalled generator shows as latency."""

    def __init__(self, router: FleetRouter, x_pool, classes, due):
        self.router = router
        self.x_pool = x_pool
        self.classes = classes
        self.due = due
        self.n = len(due)
        self.late = np.zeros(self.n)
        self.latency = np.full(self.n, np.nan)
        self.outputs: dict[int, np.ndarray] = {}
        self.refused = np.zeros(self.n, dtype=bool)
        self.errors = 0
        self.replica_of: dict[int, str] = {}
        self._lock = threading.Lock()
        self._resolved = threading.Semaphore(0)

    def _done(self, rid: int, t_due: float, fut) -> None:
        t = now()
        with self._lock:
            if fut.exception() is None:
                self.latency[rid] = t - t_due
                self.outputs[rid] = fut.result()
            else:
                self.errors += 1
        self._resolved.release()

    def run(self, timeout: float) -> float:
        """Send every request on schedule and wait for the answers;
        returns the wall time from the first due time to the last
        answer.  Unanswered requests after ``timeout`` stay unanswered."""
        pool = len(self.x_pool)
        t_start = now() + 0.02
        admitted = 0
        for rid in range(self.n):
            t_due = t_start + self.due[rid]
            wait = t_due - now()
            if wait > 0:
                time.sleep(wait)
            self.late[rid] = now() - t_due
            try:
                req = self.router.submit(self.x_pool[rid % pool], self.classes[rid])
            except Overloaded:
                self.refused[rid] = True
                continue
            admitted += 1
            self.replica_of[rid] = req.replica
            req.future.add_done_callback(
                lambda fut, rid=rid, t_due=t_due: self._done(rid, t_due, fut)
            )
        deadline = now() + timeout
        for _ in range(admitted):
            if not self._resolved.acquire(timeout=max(0.0, deadline - now())):
                break
        return now() - t_start


def run_serve(name: str, seed: int, seconds: float, phase: str, out: str) -> dict:
    cfg = SERVE_WORKLOADS[name]
    ds = dataset()
    rng = np.random.default_rng([seed, 7])
    order = rng.permutation(VAL_SIZE)
    x_pool, y_pool = ds.x_val[order], ds.y_val[order]
    n = int(cfg["rate"] * seconds)
    due = np.cumsum(rng.exponential(1.0 / cfg["rate"], size=n))
    class_of = assign_classes(n, cfg["mix"])
    classes = [class_of[rid] for rid in range(n)]
    deadline = {k: v.deadline_s for k, v in default_slo_classes().items()}
    factory, ckpt = serving_checkpoint(cfg, ds, out)
    shape = tuple(x_pool.shape[1:])
    session = InferenceSession.from_checkpoint(
        ckpt, factory, runtime="sim", micro_batch=cfg["micro_batch"],
        sample_shape=shape,
    )
    t0 = now()
    reference = session.forward_reference(x_pool)
    sim_samples_per_s = len(x_pool) / (now() - t0)

    tracer = None
    if phase == "trace":
        tracer = Tracer(out)
        layers.install(tracer)
    spec = ReplicaSpec(
        model_factory=factory, sample_shape=shape, runtime="process",
        micro_batch=cfg["micro_batch"], max_queue=cfg["max_queue"],
    )
    shm_before = shm_segments()
    setup = []
    reps = SERVE_SETUP_REPS if phase == "measure" else 1
    for k in range(reps):
        t0 = now()
        router = FleetRouter(spec, cfg["replicas"], checkpoint=ckpt)
        # ready = every replica has answered one request end to end
        for replica in router.replicas.values():
            replica.server.infer_one(x_pool[0])
        setup.append(now() - t0)
        if k < reps - 1:
            router.stop()
    replicas = list(router.replicas.values())
    loop = OpenLoop(router, x_pool, classes, due)
    root = tracer.push(tracer.name_id("loadgen.open_loop")) if tracer else None
    try:
        wall = loop.run(timeout=spec.result_timeout)
    finally:
        if tracer is not None:
            tracer.pop(root)
        snap = router.snapshot()
        router.stop()
    rss = peak_rss_mb()
    leaked = sorted(shm_segments() - shm_before)

    why = []
    bad = {
        rid for rid, logits in loop.outputs.items()
        if count_bad_outputs({rid: logits}, reference, len(x_pool))
    }
    answered = np.array(sorted(set(loop.outputs) - bad), dtype=np.int64)
    unanswered = n - int(loop.refused.sum()) - len(loop.outputs) - loop.errors
    failed = len(bad) + loop.errors + unanswered
    if bad:
        why.append(f"{len(bad)} responses differ from the offline forward")
    if snap["duplicates"]:
        why.append(f"router resolved {snap['duplicates']} ids twice")
    if snap["submitted"] != snap["resolved"]:
        why.append(
            f"router submitted {snap['submitted']} ids, resolved {snap['resolved']}"
        )
    if leaked:
        why.append(f"shared-memory segments left behind: {leaked}")
    lat = loop.latency[answered]
    limit = np.array([deadline[classes[r]] for r in answered])
    logits = np.stack([loop.outputs[r] for r in answered])
    labels = y_pool[answered % len(x_pool)]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    sent_by = {c: classes.count(c) for c in cfg["mix"]}
    layer = {
        "baseline.sim_samples_per_s": sim_samples_per_s,
        "serve.latency_p99_ms": percentile_ms(lat, 99),
        "loadgen.late_ms_p99": percentile_ms(loop.late, 99),
        "serve.fleet.router.replica_share_max": max(
            list(loop.replica_of.values()).count(r.name) for r in replicas
        ) / max(1, len(loop.replica_of)),
    }
    for c in cfg["mix"]:
        layer[f"serve.fleet.admission.rejected_share.{c}"] = (
            snap["rejected_by_class"].get(c, 0) / sent_by[c]
        )
    timings = [t for r in replicas for t in r.server.stats.timings()]
    layer["serve.batcher.queue_wait_ms_p50"] = percentile_ms([t.queue_wait for t in timings], 50)
    layer["serve.batcher.queue_wait_ms_p90"] = percentile_ms([t.queue_wait for t in timings], 90)
    layer["serve.server.pipeline_ms_p50"] = percentile_ms([t.pipeline_time for t in timings], 50)
    layer["serve.server.pipeline_ms_p90"] = percentile_ms([t.pipeline_time for t in timings], 90)
    layer["serve.batcher.batch_size_mean"] = float(np.mean([t.batch_size for t in timings]))
    result = {
        "correct": not why,
        "why": why,
        "attempted": n,
        "failed": failed,
        # an open loop runs for a fixed time at a fixed rate, so tracing
        # costs show in request latency, not in wall time
        "overhead_basis_s": float(lat.mean()),
        "metrics": {
            "setup_s": statistics.median(setup),
            "samples_per_s": len(answered) / wall,
            "latency_p50_ms": percentile_ms(lat, 50),
            "latency_p90_ms": percentile_ms(lat, 90),
            "val_acc": float(np.mean(logits.argmax(axis=1) == labels)),
            "val_loss": float(-logp[np.arange(len(labels)), labels].mean()),
            "ok_share": float(np.sum(lat <= limit)) / n,
            "peak_rss_mb": rss,
        },
        "layer_metrics": layer,
    }
    if tracer is not None:
        # inference streams return no RuntimeStats: busy shares come
        # from the stage spans of both replicas' workers
        result["layer_metrics"] = traced_layers(
            tracer, out, "loadgen.open_loop", busy_copies=cfg["replicas"]
        )
    return result


# -- traced-run analysis ----------------------------------------------------


def traced_layers(
    tracer: Tracer, out: str, root: str, busy_copies: int | None = None
) -> dict:
    """Merge every process's spans, print and save the self-time table
    (rows + ``unattributed`` = traced wall time) and the Chrome trace,
    and return the span-derived per-layer metrics."""
    procs = load_all(tracer)
    calls = layers.split_runtime_train(procs, tracer)
    root_id = tracer.name_id(root)
    parent = procs[0]
    spans = [
        (float(t0), float(t1))
        for th in parent["threads"].values()
        for nid, t0, t1 in zip(th["span_name"], th["span_t0"], th["span_t1"])
        if nid == root_id
    ]
    w0, w1 = spans[0]
    wall = w1 - w0
    rows, unattributed = layers.attribute_wall(procs, tracer, w0, w1)
    table = layers.table_rows(rows)
    total = sum(table.values()) + unattributed
    if abs(total - wall) > 1e-6 * max(wall, 1.0):
        raise RuntimeError(f"self-time table sums to {total}s, wall is {wall}s")
    lines = [f"{'layer':<36} {'self ms':>11} {'share':>7}"]
    for key, v in sorted(table.items(), key=lambda kv: -kv[1]):
        lines.append(f"{key:<36} {v * MS:>11.2f} {v / wall:>7.2%}")
    lines.append(f"{'unattributed':<36} {unattributed * MS:>11.2f} {unattributed / wall:>7.2%}")
    lines.append(f"{'traced wall':<36} {wall * MS:>11.2f} {1:>7.2%}")
    text = "\n".join(lines)
    print(text)
    with open(os.path.join(out, "layers.txt"), "w") as f:
        f.write(text + "\n")
    with open(os.path.join(out, "chrome_trace.json"), "w") as f:
        json.dump(layers.chrome_trace(procs, tracer, CHROME_EVENTS_PER_THREAD), f)
    metrics = layers.layer_metrics(procs, tracer, calls)
    metrics["trace.unattributed_share"] = unattributed / wall
    if busy_copies is not None:
        metrics.update(layers.stage_busy_share(procs, tracer, wall, busy_copies))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", choices=("measure", "trace"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.workload in TRAIN_WORKLOADS:
        run = run_train
    elif args.workload in SERVE_WORKLOADS:
        run = run_serve
    else:
        known = sorted(TRAIN_WORKLOADS) + sorted(SERVE_WORKLOADS)
        print(f"unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    host = host_fingerprint() if args.phase == "measure" else None
    result = run(args.workload, args.seed, args.seconds, args.phase, args.out)
    result["host"] = host
    with open(os.path.join(args.out, f"{args.phase}.json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
