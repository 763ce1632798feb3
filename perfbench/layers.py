"""Which layer functions the traced run wraps, and how spans become the
per-layer metrics and the self-time table.

Span names (``.s<i>`` is the stage index):

=================================  =========================================
``train.train_epochs``             ``PipelinedTrainer.train_epochs`` (root)
``loadgen.open_loop``              the serving generator's run (root)
``data.next_chunk``                ``ResumableSampleStream.next_chunk``
``train.evaluate``                 ``evaluate`` as the trainer calls it
``pipeline.runtime.train``         ``ProcessPipelineRunner.train``
``pipeline.stage.forward.s<i>``    ``PipelineStage.forward``
``pipeline.stage.backward.s<i>``   ``PipelineStage.backward``
``pipeline.stage.update.s<i>``     ``PipelineStage.apply_update`` and
                                   ``flush_update`` (the stage's SGDM step)
``core.predict``                   ``predict_velocity_form`` /
                                   ``predict_weight_diff_form`` as the
                                   stage calls them (LWP)
``nn.<Layer>.forward``             ``Module.__call__``
``tensor.conv2d[.backward]``       ``conv2d`` as ``Conv2d`` calls it, and
                                   the backward closure it returns
``tensor.matmul[.backward]``       ``matmul`` as ``Linear`` calls it, and
                                   its backward closure
``tensor.im2col`` / ``col2im``     the lowering helpers inside ``conv2d``
``pipeline.transport.send``        ``ShmRing.send`` / ``try_send``
``pipeline.transport.recv``        ``ShmRing.recv`` / ``try_recv`` (a
                                   ``try_recv`` that finds no packet is
                                   not recorded: idle polling is not work)
``serve.fleet.router.submit``      ``FleetRouter.submit``
=================================  =========================================
"""

from __future__ import annotations

import numpy as np

from tracer import Tracer, now

#: per-stage metrics are reported for stages 0..MAX_STAGES-1 on every
#: workload (a stage a workload does not have reports 0)
MAX_STAGES = 5
NN_LAYERS = ("Conv2d", "GroupNorm", "ReLU", "GlobalAvgPool", "Linear")
#: spans whose self time is waiting or glue, never work: an instant
#: covered only by these is ``unattributed``
WAIT_NAMES = (
    "train.train_epochs",
    "loadgen.open_loop",
    "pipeline.runtime.coordinator",
)


def install(tracer: Tracer) -> None:
    """Wrap every layer function listed in the module docstring."""
    import repro.nn.conv as nn_conv
    import repro.nn.linear as nn_linear
    import repro.pipeline.stage as stage_mod
    import repro.tensor.ops_conv as ops_conv
    import repro.train.pb_trainer as pb_trainer
    from repro.data.loader import ResumableSampleStream
    from repro.nn.module import Module
    from repro.pipeline.runtime import ProcessPipelineRunner
    from repro.pipeline.stage import PipelineStage
    from repro.pipeline.transport import ShmRing
    from repro.serve.fleet.router import FleetRouter

    span = tracer.span
    pb_trainer.PipelinedTrainer.train_epochs = span(
        "train.train_epochs", pb_trainer.PipelinedTrainer.train_epochs
    )
    pb_trainer.evaluate = span("train.evaluate", pb_trainer.evaluate)
    ResumableSampleStream.next_chunk = span(
        "data.next_chunk", ResumableSampleStream.next_chunk
    )
    ProcessPipelineRunner.train = span(
        "pipeline.runtime.train", ProcessPipelineRunner.train
    )
    FleetRouter.submit = span("serve.fleet.router.submit", FleetRouter.submit)
    for name in ("predict_velocity_form", "predict_weight_diff_form"):
        setattr(stage_mod, name, span("core.predict", getattr(stage_mod, name)))
    ops_conv.im2col = span("tensor.im2col", ops_conv.im2col)
    ops_conv.col2im = span("tensor.col2im", ops_conv.col2im)
    nn_conv.conv2d = _kernel(tracer, "tensor.conv2d", nn_conv.conv2d)
    nn_linear.matmul = _kernel(tracer, "tensor.matmul", nn_linear.matmul)

    def per_stage(kind, fn):
        ids = {}

        def wrapper(self, *args, **kwargs):
            nid = ids.get(self.index)
            if nid is None:
                nid = ids[self.index] = tracer.name_id(
                    f"pipeline.stage.{kind}.s{self.index}"
                )
            buf = tracer.push(nid)
            try:
                return fn(self, *args, **kwargs)
            finally:
                tracer.pop(buf)

        return wrapper

    PipelineStage.forward = per_stage("forward", PipelineStage.forward)
    PipelineStage.backward = per_stage("backward", PipelineStage.backward)
    PipelineStage.apply_update = per_stage("update", PipelineStage.apply_update)
    PipelineStage.flush_update = per_stage("update", PipelineStage.flush_update)

    module_call = Module.__call__
    module_ids: dict[type, int] = {}

    def call(self, *args, **kwargs):
        cls = type(self)
        nid = module_ids.get(cls)
        if nid is None:
            nid = module_ids[cls] = tracer.name_id(f"nn.{cls.__name__}.forward")
        buf = tracer.push(nid)
        try:
            return module_call(self, *args, **kwargs)
        finally:
            tracer.pop(buf)

    Module.__call__ = call

    send_id = tracer.name_id("pipeline.transport.send")
    recv_id = tracer.name_id("pipeline.transport.recv")
    send, try_send = ShmRing.send, ShmRing.try_send
    recv, try_recv = ShmRing.recv, ShmRing.try_recv

    def count_packet(payload) -> None:
        tracer.count("pipeline.transport.packets", 1)
        tracer.count(
            "pipeline.transport.bytes", sum(np.asarray(a).nbytes for a in payload)
        )

    def traced_send(self, pid, start, size, payload, *args, **kwargs):
        buf = tracer.push(send_id)
        try:
            send(self, pid, start, size, payload, *args, **kwargs)
        finally:
            tracer.pop(buf)
        count_packet(payload)

    def traced_try_send(self, pid, start, size, payload):
        buf = tracer.push(send_id)
        try:
            ok = try_send(self, pid, start, size, payload)
        finally:
            tracer.pop(buf)
        if ok:
            count_packet(payload)
        return ok

    def traced_recv(self, *args, **kwargs):
        buf = tracer.push(recv_id)
        try:
            return recv(self, *args, **kwargs)
        finally:
            tracer.pop(buf)

    def traced_try_recv(self):
        t0 = now()
        pkt = try_recv(self)
        if pkt is not None:
            tracer.leaf(recv_id, t0, now())
        return pkt

    ShmRing.send, ShmRing.try_send = traced_send, traced_try_send
    ShmRing.recv, ShmRing.try_recv = traced_recv, traced_try_recv


def _kernel(tracer: Tracer, name: str, fn):
    """Span around a kernel call *and* around the backward closure its
    result carries, which the autodiff engine runs later."""
    fwd_id = tracer.name_id(name)
    bwd_id = tracer.name_id(name + ".backward")

    def backward_span(bw):
        def run(g):
            buf = tracer.push(bwd_id)
            try:
                return bw(g)
            finally:
                tracer.pop(buf)

        return run

    def wrapper(*args, **kwargs):
        buf = tracer.push(fwd_id)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.pop(buf)
        if out._backward_fn is not None:
            out._backward_fn = backward_span(out._backward_fn)
        return out

    return wrapper


# -- analysis -------------------------------------------------------------------


def split_runtime_train(procs: list[dict], tracer: Tracer) -> list[dict]:
    """Rename the parent's ``pipeline.runtime.train`` self segments into
    launch (before the first stage span of that call, in any process),
    coordinator (while stages run: the parent waits) and drain (after the
    last stage span).  Returns one record per ``train()`` call."""
    parent = procs[0]
    rt_id = tracer.name_id("pipeline.runtime.train")
    ids = {
        k: tracer.name_id(f"pipeline.runtime.{k}")
        for k in ("launch", "coordinator", "drain")
    }
    stage_ids = np.array(
        [i for i, n in enumerate(tracer.name_list) if n.startswith("pipeline.stage.")],
        dtype=np.int32,
    )
    starts, ends = [], []
    for proc in procs[1:]:
        for th in proc["threads"].values():
            mask = np.isin(th["span_name"], stage_ids)
            starts.append(th["span_t0"][mask])
            ends.append(th["span_t1"][mask])
    starts = np.sort(np.concatenate(starts)) if starts else np.zeros(0)
    ends = np.sort(np.concatenate(ends)) if ends else np.zeros(0)
    calls = []
    for th in parent["threads"].values():
        sel = th["span_name"] == rt_id
        for a, b in zip(th["span_t0"][sel], th["span_t1"][sel]):
            lo = np.searchsorted(starts, a)
            hi = np.searchsorted(ends, b, side="right")
            if lo < starts.size and starts[lo] <= b and hi > 0 and ends[hi - 1] >= a:
                first = starts[lo]
                last = max(first, ends[hi - 1])
            else:  # no stage ran inside this call
                first = last = b
            calls.append({"t0": a, "t1": b, "first": first, "last": last})
            seg = (th["seg_name"] == rt_id) & (th["seg_t0"] >= a) & (th["seg_t1"] <= b)
            names, t0s, t1s = [], [], []
            for s0, s1 in zip(th["seg_t0"][seg], th["seg_t1"][seg]):
                for key, lo_t, hi_t in (
                    ("launch", a, first),
                    ("coordinator", first, last),
                    ("drain", last, b),
                ):
                    c0, c1 = max(s0, lo_t), min(s1, hi_t)
                    if c1 > c0:
                        names.append(ids[key])
                        t0s.append(c0)
                        t1s.append(c1)
            keep = ~seg
            th["seg_name"] = np.concatenate(
                [th["seg_name"][keep], np.array(names, dtype=np.int32)]
            )
            th["seg_t0"] = np.concatenate([th["seg_t0"][keep], np.array(t0s)])
            th["seg_t1"] = np.concatenate([th["seg_t1"][keep], np.array(t1s)])
    return calls


def attribute_wall(
    procs: list[dict], tracer: Tracer, w0: float, w1: float
) -> tuple[dict[str, float], float]:
    """Split the wall interval ``[w0, w1]`` across span names.

    At each instant, the innermost open span of every thread of every
    process that is doing work (not in :data:`WAIT_NAMES`) is *active*;
    the instant is shared equally among the active spans, so parallel
    stages split wall time instead of double-counting it.  Instants with
    no active span are unattributed.  Rows plus unattributed equal
    ``w1 - w0`` exactly.
    """
    wait_ids = {tracer.name_id(n) for n in WAIT_NAMES}
    names, t0s, t1s = [], [], []
    for proc in procs:
        for th in proc["threads"].values():
            keep = ~np.isin(th["seg_name"], list(wait_ids))
            names.append(th["seg_name"][keep])
            t0s.append(np.clip(th["seg_t0"][keep], w0, w1))
            t1s.append(np.clip(th["seg_t1"][keep], w0, w1))
    name = np.concatenate(names) if names else np.zeros(0, np.int32)
    t0 = np.concatenate(t0s) if t0s else np.zeros(0)
    t1 = np.concatenate(t1s) if t1s else np.zeros(0)
    live = t1 > t0
    name, t0, t1 = name[live], t0[live], t1[live]
    times = np.unique(np.concatenate([[w0, w1], t0, t1]))
    i0 = np.searchsorted(times, t0)
    i1 = np.searchsorted(times, t1)
    delta = np.zeros(times.size + 1, dtype=np.int64)
    np.add.at(delta, i0, 1)
    np.add.at(delta, i1, -1)
    active = np.cumsum(delta)[: times.size - 1]  # per elementary interval
    dt = np.diff(times)
    share = np.where(active > 0, dt / np.maximum(active, 1), 0.0)
    unattributed = float(dt[active == 0].sum())
    cum = np.concatenate([[0.0], np.cumsum(share)])
    contrib = cum[i1] - cum[i0]
    totals = np.bincount(name, weights=contrib, minlength=len(tracer.name_list))
    rows = {
        tracer.name_list[i]: float(v) for i, v in enumerate(totals) if v > 0.0
    }
    return rows, unattributed


def table_rows(rows: dict[str, float]) -> dict[str, float]:
    """Fold per-stage rows (``...s<i>``) into one row per layer."""
    out: dict[str, float] = {}
    for name, v in rows.items():
        base, _, tail = name.rpartition(".")
        key = base if tail[:1] == "s" and tail[1:].isdigit() else name
        out[key] = out.get(key, 0.0) + v
    return out


def span_totals(procs: list[dict], tracer: Tracer):
    """Inclusive seconds, self seconds and call counts per span name,
    summed over every thread of every process, plus summed counters."""
    n = len(tracer.name_list)
    incl = np.zeros(n)
    self_t = np.zeros(n)
    calls = np.zeros(n)
    counters: dict[str, float] = {}
    for proc in procs:
        for k, v in proc["counters"].items():
            counters[k] = counters.get(k, 0.0) + v
        for th in proc["threads"].values():
            incl += np.bincount(
                th["span_name"], weights=th["span_t1"] - th["span_t0"], minlength=n
            )
            calls += np.bincount(th["span_name"], minlength=n)
            self_t += np.bincount(
                th["seg_name"], weights=th["seg_t1"] - th["seg_t0"], minlength=n
            )
    names = tracer.name_list
    return (
        {names[i]: incl[i] for i in range(n)},
        {names[i]: self_t[i] for i in range(n)},
        {names[i]: calls[i] for i in range(n)},
        counters,
    )


def layer_metrics(procs: list[dict], tracer: Tracer, calls_rt: list[dict]) -> dict:
    """The per-layer metrics every workload reports (0 where a workload
    never enters the layer)."""
    incl, self_t, ncalls, counters = span_totals(procs, tracer)

    def total(table, pred) -> float:
        return float(sum(v for k, v in table.items() if pred(k)))

    ms = 1e3
    out = {
        "tensor.autodiff_self_ms": total(
            self_t,
            lambda k: k.startswith(("pipeline.stage.forward.", "pipeline.stage.backward.")),
        ) * ms,
        "tensor.kernel_ms": total(self_t, lambda k: k.startswith("tensor.")) * ms,
        "optim.step_ms": total(incl, lambda k: k.startswith("pipeline.stage.update.")) * ms,
        "optim.steps": total(ncalls, lambda k: k.startswith("pipeline.stage.update.")),
        "core.predict_ms": incl.get("core.predict", 0.0) * ms,
        "pipeline.transport.send_ms": self_t.get("pipeline.transport.send", 0.0) * ms,
        "pipeline.transport.recv_wait_ms": self_t.get("pipeline.transport.recv", 0.0) * ms,
        "pipeline.transport.packets": counters.get("pipeline.transport.packets", 0.0),
        "pipeline.transport.bytes": counters.get("pipeline.transport.bytes", 0.0),
        "data.next_chunk_ms": incl.get("data.next_chunk", 0.0) * ms,
        "train.evaluate_ms": incl.get("train.evaluate", 0.0) * ms,
    }
    for layer in NN_LAYERS:
        out[f"nn.{layer}.forward_ms"] = incl.get(f"nn.{layer}.forward", 0.0) * ms
    for s in range(MAX_STAGES):
        for kind in ("forward", "backward", "update"):
            out[f"pipeline.stage.{kind}_ms.s{s}"] = (
                incl.get(f"pipeline.stage.{kind}.s{s}", 0.0) * ms
            )
    if calls_rt:
        out["pipeline.runtime.launch_ms"] = float(
            np.mean([c["first"] - c["t0"] for c in calls_rt])
        ) * ms
        out["pipeline.runtime.drain_ms"] = float(
            np.mean([c["t1"] - c["last"] for c in calls_rt])
        ) * ms
    else:
        out["pipeline.runtime.launch_ms"] = 0.0
        out["pipeline.runtime.drain_ms"] = 0.0
    sub = incl.get("serve.fleet.router.submit", 0.0)
    n_sub = ncalls.get("serve.fleet.router.submit", 0.0)
    out["serve.fleet.router.submit_us"] = sub / n_sub * 1e6 if n_sub else 0.0
    return out


def stage_busy_share(
    procs: list[dict], tracer: Tracer, wall: float, copies: int
) -> dict:
    """Per-stage share of ``wall * copies`` (``copies`` pipelines ran the
    stage side by side) that the stage workers spent inside stage
    methods; for engines whose ``RuntimeStats`` are not returned."""
    incl, _, _, _ = span_totals(procs[1:], tracer)
    out = {}
    for s in range(MAX_STAGES):
        busy = sum(
            incl.get(f"pipeline.stage.{kind}.s{s}", 0.0)
            for kind in ("forward", "backward", "update")
        )
        out[f"pipeline.stage.busy_share.s{s}"] = busy / (wall * copies)
    return out


def chrome_trace(procs: list[dict], tracer: Tracer, max_events: int) -> dict:
    """Chrome-trace JSON (``chrome://tracing`` / Perfetto): complete
    events of every process and thread, capped at ``max_events`` spans
    per thread (the earliest are kept; the cap is recorded)."""
    events = []
    base = min(
        (float(th["span_t0"].min()) for p in procs for th in p["threads"].values()
         if th["span_t0"].size),
        default=0.0,
    )
    truncated = 0
    for proc in procs:
        for tid, (ident, th) in enumerate(proc["threads"].items()):
            order = np.argsort(th["span_t0"], kind="stable")[:max_events]
            truncated += max(0, th["span_t0"].size - max_events)
            for i in order:
                events.append(
                    {
                        "name": tracer.name_list[int(th["span_name"][i])],
                        "ph": "X",
                        "pid": proc["pid"],
                        "tid": tid,
                        "ts": (float(th["span_t0"][i]) - base) * 1e6,
                        "dur": float(th["span_t1"][i] - th["span_t0"][i]) * 1e6,
                    }
                )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"spans_dropped_by_cap": truncated},
    }
