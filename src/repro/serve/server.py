"""The serving front-end: futures in, micro-batched pipeline, logits out.

:class:`PipelineServer` wires the serving subsystem together::

    submit(x) ──> DynamicBatcher ──> dispatcher thread ──> InferenceStream
       │            (bounded,          (coalesce into        (sim/threaded/
       │             Overloaded)        (B,...) packets)      process rings)
       │                                                          │
       └────────────── Future.set_result(logits) <── collector thread

Two daemon threads own the pipeline stream's two ends — the
**dispatcher** pulls coalesced packets from the batcher and pushes them
into the stream (spinning politely under backpressure), the
**collector** pulls finished logits out, slices them back into
per-request rows, resolves the futures and records
:class:`~repro.serve.stats.RequestTiming` entries.  The stream is SPSC
by construction (one submitting thread, one polling thread), which is
exactly the discipline the shared-memory rings require.

Saturation behavior is explicit end to end: the batcher's bounded queue
turns overload into :class:`~repro.serve.batcher.Overloaded` at
``submit`` (HTTP 429 on the wire), the stream's bounded in-flight window
turns pipeline congestion into dispatcher backpressure, and nothing
anywhere grows without bound or drops silently — ``stop()`` drains
every admitted request before tearing the stream down, failing leftover
futures loudly if the pipeline died.

A stdlib HTTP endpoint (:meth:`PipelineServer.serve_http`) exposes
``POST /infer``, ``GET /stats`` and ``GET /healthz`` for curl-level
serving without any third-party dependency.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro.pipeline.inference import InferenceStreamError
from repro.serve.batcher import DynamicBatcher, Overloaded, PendingRequest
from repro.serve.session import InferenceSession
from repro.serve.stats import RequestTiming, ServingStats


class PipelineServer:
    """Serve an :class:`~repro.serve.session.InferenceSession` (module
    docstring).  Not started at construction — call :meth:`start` (or
    use as a context manager) so tests can stage deterministic request
    mixes before the dispatcher begins draining.

    SLO knobs: ``max_batch`` (packet width cap, default the session's
    micro-batch), ``max_wait`` (coalescing deadline on the oldest
    queued request), ``max_queue`` (admission bound — beyond it,
    ``submit`` raises :class:`Overloaded`).
    """

    def __init__(
        self,
        session: InferenceSession,
        max_batch: int | None = None,
        max_wait: float = 0.002,
        max_queue: int = 64,
        result_timeout: float = 30.0,
    ):
        max_batch = session.micro_batch if max_batch is None else max_batch
        if max_batch > session.micro_batch:
            raise ValueError(
                f"max_batch ({max_batch}) cannot exceed the session "
                f"micro_batch ({session.micro_batch}) — ring slots are "
                "sized for the session width"
            )
        self.session = session
        self.batcher = DynamicBatcher(
            max_batch=max_batch, max_wait=max_wait, max_queue=max_queue
        )
        self.stats = ServingStats()
        self.stats.set_gauge_source(
            lambda: {
                "pending": self.batcher.pending,
                "in_flight": self.in_flight,
            }
        )
        self.result_timeout = float(result_timeout)
        self._ready_reason = "serving"
        self._stream = None
        self._pending: dict[int, list[PendingRequest]] = {}
        self._pending_lock = threading.Lock()
        self._packet_ids = iter(range(1 << 62))
        self._stop = threading.Event()
        self._dispatcher_done = threading.Event()
        self._error: BaseException | None = None
        self._threads: list[threading.Thread] = []
        self._started = False
        self._stopped = False
        self._http_server = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "PipelineServer":
        if self._started:
            return self
        if self._stopped:
            # stop() closed the batcher for good (its drain guarantees
            # depend on it); a restarted server would open a fresh
            # stream whose requests could never be admitted
            raise RuntimeError(
                "PipelineServer is single-use: this one was stopped; "
                "build a new server to serve again"
            )
        try:
            self._stream = self.session.open_stream()
        except BaseException as exc:
            # a failed start can never serve the requests staged before
            # it — fail their futures now instead of hanging them
            self._error = exc
            self._stopped = True
            self._fail_pending(exc)
            raise
        self._threads = [
            threading.Thread(
                target=self._dispatch_loop, name="serve-dispatch",
                daemon=True,
            ),
            threading.Thread(
                target=self._collect_loop, name="serve-collect", daemon=True
            ),
        ]
        self._started = True
        for t in self._threads:
            t.start()
        return self

    def stop(self) -> None:
        """Drain admitted requests, then tear the pipeline down (the
        server is single-use: a stopped server cannot be restarted)."""
        if not self._started:
            # never (successfully) started — but requests may have been
            # staged before a failed start(); they can never complete,
            # so fail them loudly rather than leaving futures hanging
            self._stopped = True
            self._fail_pending(
                self._error or Overloaded("server stopped")
            )
            return
        self._stopped = True
        self.batcher.close()
        # the dispatcher exits once the batcher is drained; the
        # collector once every in-flight packet has come back
        self._dispatcher_done.wait(self.result_timeout)
        deadline = time.monotonic() + self.result_timeout
        while time.monotonic() < deadline and self._error is None:
            with self._pending_lock:
                if not self._pending:
                    break
            time.sleep(1e-4)
        self._stop.set()
        for t in self._threads:
            t.join(self.result_timeout)
        self._threads = []
        self._fail_pending(
            self._error or Overloaded("server stopped")
        )
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        self._started = False
        self.http_stop()

    def __enter__(self) -> "PipelineServer":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # -- readiness (drain state for rolling weight swaps) --------------------

    @property
    def ready(self) -> bool:
        """Readiness, as distinct from liveness: a ready server admits
        new traffic; a draining one only finishes what it admitted.
        The fleet router excludes not-ready replicas from dispatch."""
        return (
            self._started
            and not self._stopped
            and self._error is None
            and not self.batcher.draining
        )

    @property
    def ready_reason(self) -> str:
        if self._error is not None:
            return f"failed: {self._error!r}"
        if self._stopped:
            return "stopped"
        if not self._started:
            return "not started"
        if self.batcher.draining:
            return self._ready_reason
        return "serving"

    def mark_draining(self, reason: str = "draining") -> None:
        """Stop admitting new requests (``submit`` raises
        :class:`Overloaded`; ``/readyz`` reports 503) while every
        already-admitted request still completes.  Reversible with
        :meth:`mark_ready` — though a weight hot-swap instead retires
        this server once drained and starts a fresh one."""
        self._ready_reason = reason
        self.batcher.set_draining(True)

    def mark_ready(self) -> None:
        self._ready_reason = "serving"
        self.batcher.set_draining(False)

    @property
    def in_flight(self) -> int:
        """Requests dispatched into the pipeline whose logits have not
        come back yet (complements the batcher's ``pending`` gauge)."""
        with self._pending_lock:
            return sum(len(batch) for batch in self._pending.values())

    # -- request entry ------------------------------------------------------

    def submit_request(
        self,
        x: np.ndarray,
        slo_class: str | None = None,
        max_wait: float | None = None,
    ) -> PendingRequest:
        """Admit one request; returns its :class:`PendingRequest`
        (monotone ``request_id`` + the Future resolving to its logits
        row).  Raises :class:`Overloaded` when the admission queue is
        full or the server is draining (the backpressure contract) and
        re-raises a pipeline failure if the stream has died.

        ``slo_class`` tags the request through the batcher into the
        stats; ``max_wait`` overrides the coalescing deadline for this
        request only (the fleet's per-class slack pricing)."""
        if self._error is not None:
            raise InferenceStreamError(
                f"serving pipeline failed: {self._error!r}"
            ) from self._error
        x = np.asarray(x, dtype=self.session.dtype)
        expected = self.session.sample_shape
        if expected is not None and tuple(x.shape) != expected:
            raise ValueError(
                f"request shape {tuple(x.shape)} does not match the "
                f"session's sample shape {expected}"
            )
        try:
            return self.batcher.submit(
                x, max_wait=max_wait, slo_class=slo_class
            )
        except Overloaded:
            self.stats.record_rejected(slo_class)
            raise

    def submit(self, x: np.ndarray) -> Future:
        """:meth:`submit_request`, returning just the Future."""
        return self.submit_request(x).future

    def infer_one(self, x: np.ndarray, timeout: float | None = None):
        """Convenience: submit + wait; returns the logits row."""
        return self.submit(x).result(
            self.result_timeout if timeout is None else timeout
        )

    # -- worker loops -------------------------------------------------------

    def _dispatch_loop(self) -> None:
        try:
            while not self._stop.is_set():
                batch = self.batcher.next_batch(timeout=0.05)
                if not batch:
                    if self.batcher.closed:
                        return
                    continue
                X = np.stack([req.x for req in batch])
                pid = next(self._packet_ids)
                with self._pending_lock:
                    self._pending[pid] = batch
                backoff = 1e-5
                while not self._stream.submit(pid, pid, X):
                    # pipeline full: back off until the collector frees
                    # a slot (bounded by stream capacity)
                    if self._stop.is_set():
                        return
                    time.sleep(backoff)
                    backoff = min(backoff * 2.0, 1e-3)
        except BaseException as exc:
            self._error = exc
            self._fail_pending(exc)
        finally:
            self._dispatcher_done.set()

    def _collect_loop(self) -> None:
        batch: list[PendingRequest] | None = None
        idle_sleep = 1e-5
        try:
            while not self._stop.is_set():
                results = self._stream.poll()
                if not results:
                    # exponential idle backoff: results arrive on the
                    # stream's last ring, which the parent polls (no
                    # doorbell), and an idle server must not burn a
                    # core polling it; the cap stays well under the
                    # default coalescing deadline so loaded-path
                    # latency is unaffected
                    time.sleep(idle_sleep)
                    idle_sleep = min(idle_sleep * 2.0, 1e-3)
                    continue
                idle_sleep = 1e-5
                t_now = time.monotonic()
                for pid, _start, logits in results:
                    with self._pending_lock:
                        batch = self._pending.pop(pid, None)
                    if batch is None:  # pragma: no cover - protocol bug
                        raise InferenceStreamError(
                            f"result for unknown packet {pid}"
                        )
                    if logits.shape[0] != len(batch):
                        raise InferenceStreamError(
                            f"packet {pid}: {logits.shape[0]} result rows "
                            f"for {len(batch)} requests"
                        )
                    for i, req in enumerate(batch):
                        req.future.set_result(np.array(logits[i], copy=True))
                        self.stats.record(
                            RequestTiming(
                                request_id=req.request_id,
                                queue_wait=req.t_dispatch - req.t_submit,
                                pipeline_time=t_now - req.t_dispatch,
                                latency=t_now - req.t_submit,
                                batch_size=len(batch),
                                slo_class=req.slo_class,
                            ),
                            t_now,
                        )
                    batch = None  # fully resolved
        except BaseException as exc:
            self._error = exc
            # a batch popped from _pending but not fully resolved would
            # be invisible to _fail_pending — fail its futures here
            for req in batch or []:
                if not req.future.done():
                    req.future.set_exception(exc)
                    self.stats.record_failed()
            self._fail_pending(exc)

    def _fail_pending(self, exc: BaseException) -> None:
        """Fail every future still in flight — loudly, never silently."""
        # stop admitting and release the batcher's coalescing deadline:
        # without the close, a request younger than max_wait would not
        # be returned by the drain loop below and its future would hang
        self.batcher.close()
        with self._pending_lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
        for batch in leftovers:
            for req in batch:
                if not req.future.done():
                    req.future.set_exception(exc)
                    self.stats.record_failed()
        while True:
            drained = self.batcher.next_batch(timeout=0.0)
            if not drained:
                break
            for req in drained:
                if not req.future.done():
                    req.future.set_exception(exc)
                    self.stats.record_failed()

    # -- HTTP front door ----------------------------------------------------

    def serve_http(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Start the stdlib-socket HTTP endpoint on ``host:port`` (port
        0 = ephemeral).  Returns the bound ``(host, port)``.

        * ``POST /infer`` with body ``{"x": <nested list>}`` (optional
          ``"class"`` SLO tag) -> ``{"request_id", "logits",
          "latency_ms"}`` (429 when overloaded, 400 on malformed
          input);
        * ``GET /stats`` -> :meth:`ServingStats.snapshot`;
        * ``GET /healthz`` -> liveness + the weight fingerprint (shape
          unchanged since PR 5 — probes keyed on it keep working);
        * ``GET /readyz`` -> readiness: 200 while admitting, 503 with
          the reason + fingerprint while draining/reloading/stopped,
          so a router health-checks replicas out during a hot-swap.
        """
        if not self._started:
            raise RuntimeError("start() the server before serve_http()")
        server = _make_http_server(self, host, port)
        self._http_server = server
        thread = threading.Thread(
            target=server.serve_forever, name="serve-http", daemon=True
        )
        thread.start()
        return server.server_address[0], server.server_address[1]

    def http_stop(self) -> None:
        if self._http_server is not None:
            self._http_server.shutdown()
            self._http_server.server_close()
            self._http_server = None


def _make_http_server(
    pipeline_server: PipelineServer, host: str, port: int
) -> ThreadingHTTPServer:
    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-serve/1.0"

        def log_message(self, *args) -> None:  # quiet by default
            pass

        def _reply(self, code: int, payload: dict) -> None:
            body = json.dumps(payload).encode()
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:
            if self.path == "/healthz":
                # liveness only — response shape is stable (PR 5)
                self._reply(
                    200,
                    {
                        "ok": pipeline_server._error is None,
                        "model": pipeline_server.session.model.name,
                        "fingerprint": pipeline_server.session.fingerprint,
                        "runtime": pipeline_server.session.runtime,
                    },
                )
            elif self.path == "/readyz":
                ready = pipeline_server.ready
                self._reply(
                    200 if ready else 503,
                    {
                        "ready": ready,
                        "reason": pipeline_server.ready_reason,
                        "fingerprint": pipeline_server.session.fingerprint,
                        "pending": pipeline_server.batcher.pending,
                        "in_flight": pipeline_server.in_flight,
                    },
                )
            elif self.path == "/stats":
                self._reply(
                    200,
                    {
                        **pipeline_server.stats.snapshot(),
                        "precision": pipeline_server.session.precision.mode,
                    },
                )
            else:
                self._reply(404, {"error": f"unknown path {self.path}"})

        def do_POST(self) -> None:
            if self.path != "/infer":
                self._reply(404, {"error": f"unknown path {self.path}"})
                return
            try:
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length) or b"{}")
                x = np.asarray(payload["x"], dtype=pipeline_server.session.dtype)
                slo_class = payload.get("class")
                if slo_class is not None and not isinstance(slo_class, str):
                    raise TypeError("'class' must be a string")
            except (ValueError, KeyError, TypeError) as exc:
                self._reply(400, {"error": f"bad request body: {exc!r}"})
                return
            t0 = time.monotonic()
            try:
                request = pipeline_server.submit_request(
                    x, slo_class=slo_class
                )
                logits = request.future.result(
                    pipeline_server.result_timeout
                )
            except Overloaded as exc:
                self._reply(429, {"error": str(exc)})
                return
            except ValueError as exc:
                self._reply(400, {"error": str(exc)})
                return
            except BaseException as exc:
                self._reply(500, {"error": repr(exc)})
                return
            self._reply(
                200,
                {
                    "request_id": request.request_id,
                    "logits": np.asarray(logits).tolist(),
                    "latency_ms": (time.monotonic() - t0) * 1e3,
                },
            )

    return ThreadingHTTPServer((host, port), Handler)
