"""The long-lived multiplier-as-a-service front end.

:class:`Server` coalesces independent transactions into full simulation
words and dispatches them through the compiled levelized kernels — the
paper's "idle capacity is wasted throughput" argument applied to the
bit-parallel simulator, whose per-run cost is dominated by the gate
count, not the pattern count.  Filling every pattern slot of a word
therefore buys ``word_patterns`` transactions for roughly the price of
one; ``word_patterns`` is a multiple of 64 (``W`` 64-pattern limbs per
packed net value, given explicitly by the caller), so a wide-word
server amortizes each kernel pass over several base words.

Architecture::

    Client / AsyncClient              (submit -> Ticket)
         |
    Server.submit  ----->  BatchingQueue per lane  (bounded, backpressure)
                                   |
                           dispatcher thread       (flush on full/timeout)
                                   |
                           LaneEngine.execute      (one levelized run)
                                   |
                           Ticket resolution       (demuxed TxResult)

Batching is an occupancy optimization, never a semantics change: every
result is bit-identical to :func:`repro.serve.transactions.reference_result`
regardless of how transactions land in words.

Observability (``repro.obs``): counters ``serve.requests`` /
``serve.<lane>.requests`` / ``serve.flushes.<reason>``, histograms
``serve.batch.occupancy`` (patterns used per dispatched word),
``serve.batch.limbs`` (64-pattern limbs per dispatched word),
``serve.queue.depth``, ``serve.latency_ms`` / ``serve.<lane>.latency_ms``
and the per-lane stage histograms ``serve.<lane>.stage.enqueue_ms`` /
``.flush_ms`` / ``.demux_ms``, timer ``serve.flush.wall``, and
``serve:flush:<lane>`` / ``serve:run:<lane>`` trace spans.  Submit-side
spans are stitched to the flush span with ``serve:tx:<lane>`` flow
arrows.  ``telemetry_port=`` (or :meth:`Server.enable_telemetry`) opts
into the live HTTP endpoint — ``/metrics``, ``/metrics.json``,
``/series.json``, ``/healthz`` — plus a background sampler recording
per-lane queue depths, in-flight words and mean word occupancy.
"""

import threading
import time

from repro import obs
from repro.errors import FormatError, QueueFullError, SimulationError
from repro.serve.engine import failed_lanes, lane_engine, ready_lanes
from repro.serve.queueing import FLUSH_FULL, BatchingQueue, PendingTx
from repro.serve.transactions import (
    WORD_PATTERNS,
    Transaction,
    TxKind,
    validate_word_patterns,
)

#: /healthz flags a lane as saturated past this fraction of max_depth.
QUEUE_SATURATION_LIMIT = 0.9


class Ticket:
    """Completion handle for one submitted transaction.

    Tickets are allocated on the submit hot path, so they stay lean: the
    wakeup :class:`threading.Event` is created lazily, only when a caller
    actually blocks in :meth:`result` before resolution, and the
    resolve/wait handoff is guarded by one class-level lock (the critical
    sections are a few pointer assignments).
    """

    __slots__ = ("kind", "submitted_at", "completed_at", "_done",
                 "_result", "_error", "_callbacks", "_event")

    _lock = threading.Lock()

    def __init__(self, kind):
        self.kind = kind
        self.submitted_at = time.monotonic()
        self.completed_at = None
        self._done = False
        self._result = None
        self._error = None
        self._callbacks = None
        self._event = None

    def done(self):
        return self._done

    def result(self, timeout=None):
        """Block until resolved; returns the TxResult or raises."""
        if not self._done:
            with Ticket._lock:
                if not self._done and self._event is None:
                    self._event = threading.Event()
                event = self._event
            if event is not None and not event.wait(timeout):
                raise SimulationError(
                    f"transaction did not complete within {timeout}s "
                    "(is the server running? was drain()/flush() called?)")
        if self._error is not None:
            raise self._error
        return self._result

    @property
    def latency_s(self):
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    def add_done_callback(self, fn):
        """Run ``fn(ticket)`` on resolution (immediately if already done).

        Callbacks run on the resolving (dispatcher) thread — keep them
        cheap and thread-safe; the asyncio front end uses this to bridge
        into the event loop.
        """
        with Ticket._lock:
            if not self._done:
                if self._callbacks is None:
                    self._callbacks = []
                self._callbacks.append(fn)
                return
        fn(self)

    def _resolve(self, result=None, error=None):
        with Ticket._lock:
            self._result = result
            self._error = error
            self.completed_at = time.monotonic()
            self._done = True
            event = self._event
            callbacks, self._callbacks = self._callbacks, None
        if event is not None:
            event.set()
        for fn in callbacks or ():
            fn(self)


class Server:
    """Transaction-batching simulation server over the compiled kernels.

    Parameters
    ----------
    word_patterns:
        Pattern capacity of one simulation word — a multiple of 64;
        ``word_patterns // 64`` limbs are packed per net value.
    max_batch:
        Patterns coalesced per simulation word (1..``word_patterns``,
        default the full word).  ``max_batch=1`` is the
        one-transaction-per-word baseline the benchmarks compare
        against.
    max_wait:
        Seconds a transaction may wait for its word to fill before a
        timeout flush dispatches a partial word (the occupancy/latency
        knob).
    max_depth:
        Per-lane bound on queued transactions; beyond it submits block
        (or raise :class:`~repro.errors.QueueFullError` when
        non-blocking / timed out).
    lanes:
        Iterable of :class:`TxKind` to serve (default: all five).
    autostart:
        Start the dispatcher thread immediately.  ``autostart=False``
        gives a deterministic manual server driven by :meth:`step` /
        :meth:`drain` — what the property tests use.
    telemetry_port:
        When not ``None``, start the HTTP telemetry endpoint on this
        port (0 = ephemeral; read ``server.telemetry.port``) together
        with the background gauge sampler.
    """

    def __init__(self, max_batch=None, max_wait=0.005,
                 max_depth=None, lanes=None, autostart=True,
                 telemetry_port=None, word_patterns=WORD_PATTERNS):
        self.word_patterns = validate_word_patterns(word_patterns)
        kinds = tuple(lanes) if lanes is not None else tuple(TxKind)
        self._queues = {
            kind: BatchingQueue(lane=kind.value, max_batch=max_batch,
                                max_wait=max_wait, max_depth=max_depth,
                                word_patterns=word_patterns)
            for kind in kinds
        }
        self._cond = threading.Condition()
        self._inflight = 0
        self._draining = False
        self._running = False
        self._thread = None
        self._telemetry = None
        obs.registry().annotate("serve.word_capacity", word_patterns)
        if autostart:
            self.start()
        if telemetry_port is not None:
            self.enable_telemetry(telemetry_port)

    # -- lifecycle ------------------------------------------------------

    def start(self):
        with self._cond:
            if self._running:
                return self
            self._running = True
            self._thread = threading.Thread(target=self._dispatch_loop,
                                            name="repro-serve-dispatcher",
                                            daemon=True)
            self._thread.start()
        return self

    def stop(self):
        """Stop the dispatcher; pending transactions stay queued."""
        with self._cond:
            self._running = False
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def close(self):
        """Drain everything in flight, then stop."""
        self.drain()
        self.stop()
        self.disable_telemetry()

    # -- telemetry ------------------------------------------------------

    @property
    def telemetry(self):
        """The :class:`~repro.obs.TelemetryServer`, or ``None``."""
        return self._telemetry

    def enable_telemetry(self, port=0):
        """Start the HTTP telemetry endpoint and the gauge sampler.

        Registers the server's health checks (dispatcher liveness,
        lane-engine readiness, queue saturation) and its time-series
        sources (per-lane queue depth, in-flight words, mean word
        occupancy), then binds ``127.0.0.1:<port>`` (0 = ephemeral).
        """
        if self._telemetry is not None:
            return self._telemetry
        from repro.obs.http import TelemetryServer

        telemetry = TelemetryServer(port=port)
        telemetry.add_health_check("dispatcher", self._dispatcher_health)
        telemetry.add_health_check("lanes", self._lane_health)
        telemetry.add_health_check("queues", self._queue_health)
        sampler = obs.sampler()
        for kind, queue in self._queues.items():
            sampler.add_source(f"serve.queue.depth.{kind.value}",
                               lambda q=queue: q.depth)
        sampler.add_source("serve.inflight.words", lambda: self._inflight)
        sampler.add_source("serve.occupancy.mean", self._mean_occupancy)
        sampler.start()
        self._telemetry = telemetry.start()
        return self._telemetry

    def disable_telemetry(self):
        """Stop the endpoint and unregister this server's sources."""
        if self._telemetry is None:
            return
        sampler = obs.sampler()
        for kind in self._queues:
            sampler.remove_source(f"serve.queue.depth.{kind.value}")
        sampler.remove_source("serve.inflight.words")
        sampler.remove_source("serve.occupancy.mean")
        if not sampler.sources:
            sampler.stop()
        self._telemetry.stop()
        self._telemetry = None

    def _dispatcher_health(self):
        alive = self._thread is not None and self._thread.is_alive()
        return {"ok": bool(self._running and alive),
                "running": self._running, "thread_alive": alive}

    def _lane_health(self):
        failed = failed_lanes()
        lanes = {k.value for k in self._queues}
        return {"ok": not (failed.keys() & lanes),
                "ready": sorted(lanes & ready_lanes()),
                "lanes": sorted(lanes),
                "failed": {k: v for k, v in failed.items() if k in lanes}}

    def _queue_health(self):
        with self._cond:
            depths = {k.value: q.depth for k, q in self._queues.items()}
            worst = max((q.depth / q.max_depth
                         for q in self._queues.values()), default=0.0)
        return {"ok": worst < QUEUE_SATURATION_LIMIT,
                "depths": depths, "saturation": round(worst, 4),
                "limit": QUEUE_SATURATION_LIMIT}

    def _mean_occupancy(self):
        agg = obs.registry().aggregate("serve.batch.occupancy")
        if not agg or not agg["count"]:
            return None
        return agg["total"] / agg["count"]

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.close()

    # -- submission -----------------------------------------------------

    def submit(self, tx, block=True, timeout=None) -> Ticket:
        """Queue one transaction; returns its :class:`Ticket`.

        Backpressure: when the lane is at ``max_depth``, ``block=True``
        waits (up to ``timeout`` seconds) for capacity and ``block=False``
        raises :class:`~repro.errors.QueueFullError` immediately.
        """
        if not isinstance(tx, Transaction):
            raise FormatError("submit takes a repro.serve.Transaction")
        queue = self._queues.get(tx.kind)
        if queue is None:
            raise FormatError(f"this server has no {tx.kind.value} lane")
        ticket = Ticket(tx.kind)
        flow_id = None
        if obs.is_tracing():
            # Arrow tail on the submitting span, head on the flush span.
            flow_id = obs.new_span_id()
            obs.flow_start(f"serve:tx:{tx.kind.value}", flow_id,
                           cat="serve")
        pending = PendingTx(tx=tx, ticket=ticket,
                            enqueued_at=ticket.submitted_at,
                            trace_ctx=tx.trace_ctx or obs.current_context(),
                            flow_id=flow_id)
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._cond:
            while not queue.push(pending):
                if not block:
                    obs.registry().inc("serve.rejected")
                    raise QueueFullError(
                        f"lane {tx.kind.value} is at max_depth="
                        f"{queue.max_depth} "
                        f"(word_patterns={queue.word_patterns})")
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    obs.registry().inc("serve.rejected")
                    raise QueueFullError(
                        f"lane {tx.kind.value} still full after "
                        f"{timeout}s "
                        f"(word_patterns={queue.word_patterns})")
                self._cond.wait(remaining)
            pending.enqueued_at = time.monotonic()
            depth = queue.depth
            # Wake the dispatcher only when this push changes what it
            # should do: the first pending transaction establishes a new
            # timeout-flush deadline, and hitting max_batch makes the
            # queue flush-ready.  Intermediate pushes can stay silent —
            # a busy dispatcher re-examines every queue after each word
            # anyway, and waking it per submission is pure GIL churn.
            # (Request counters are batched into the flush path for the
            # same reason.)
            if depth == 1 or depth == queue.max_batch or self._draining:
                self._cond.notify_all()
        return ticket

    # -- dispatch -------------------------------------------------------

    def _pick_ready(self, now, force=False):
        """The next queue to flush: full first, then expired timeouts."""
        full, expired = None, None
        for kind, queue in self._queues.items():
            reason = queue.flush_reason(now, draining=self._draining)
            if reason == FLUSH_FULL:
                if full is None or queue.depth > self._queues[full[0]].depth:
                    full = (kind, reason)
            elif reason is not None:
                deadline = queue.next_deadline()
                if expired is None or deadline < expired[2]:
                    expired = (kind, reason, deadline)
        if full is not None:
            return full
        if expired is not None:
            return expired[0], expired[1]
        if force:
            for kind, queue in self._queues.items():
                if queue.depth:
                    return kind, FLUSH_FULL if queue.depth >= \
                        queue.max_batch else "manual"
        return None

    def _next_deadline(self):
        deadlines = [q.next_deadline() for q in self._queues.values()]
        deadlines = [d for d in deadlines if d is not None]
        return min(deadlines) if deadlines else None

    def _dispatch_loop(self):
        while True:
            with self._cond:
                while True:
                    if not self._running:
                        return
                    choice = self._pick_ready(time.monotonic())
                    if choice is not None:
                        break
                    deadline = self._next_deadline()
                    wait = (None if deadline is None
                            else max(deadline - time.monotonic(), 0.0))
                    self._cond.wait(wait)
                kind, reason = choice
                batch = self._queues[kind].take()
                self._inflight += 1
                self._cond.notify_all()      # queue space freed
            try:
                self._execute(kind, batch, reason)
            finally:
                with self._cond:
                    self._inflight -= 1
                    self._cond.notify_all()

    def _execute(self, kind, batch, reason):
        reg = obs.registry()
        lane = kind.value
        reg.inc("serve.requests", len(batch))
        reg.inc(f"serve.{lane}.requests", len(batch))
        reg.inc(f"serve.flushes.{reason}")
        reg.observe_value("serve.queue.depth", self._queues[kind].depth)
        reg.observe_value("serve.batch.occupancy", len(batch))
        reg.observe_value(f"serve.{lane}.batch.occupancy", len(batch))
        # Limbs = 64-pattern words this batch packs into one kernel
        # pass; occupancy > 64 is only reachable with wide words.
        reg.observe_value("serve.batch.limbs",
                          (len(batch) + WORD_PATTERNS - 1) // WORD_PATTERNS)
        now = time.monotonic()
        reg.observe_values(f"serve.{lane}.stage.enqueue_ms",
                           [(now - p.enqueued_at) * 1e3 for p in batch])
        t0 = time.perf_counter()
        with obs.span(f"serve:flush:{lane}", cat="serve",
                      batch=len(batch), reason=reason):
            # Land the submit->flush arrows inside this slice so every
            # client span connects to the word that served it.
            for p in batch:
                if p.flow_id is not None:
                    obs.flow_finish(f"serve:tx:{lane}", p.flow_id,
                                    cat="serve")
            try:
                results = lane_engine(kind).execute(
                    [p.tx for p in batch])
            except Exception as exc:       # propagate to every caller
                for p in batch:
                    p.ticket._resolve(error=exc)
                return
        t1 = time.perf_counter()
        reg.observe("serve.flush.wall", t1 - t0)
        reg.observe_value(f"serve.{lane}.stage.flush_ms", (t1 - t0) * 1e3)
        latencies_ms = []
        for p, result in zip(batch, results):
            p.ticket._resolve(result=result)
            latency = p.ticket.latency_s
            if latency is not None:
                latencies_ms.append(latency * 1e3)
        # One lock trip per word, not three per transaction: at wide
        # words the per-sample registry cost would otherwise dominate
        # the (width-independent) demux path.
        reg.observe_values("serve.latency_ms", latencies_ms)
        reg.observe_values(f"serve.{lane}.latency_ms", latencies_ms)
        reg.observe_value(f"serve.{lane}.stage.demux_ms",
                          (time.perf_counter() - t1) * 1e3)

    # -- manual / draining control --------------------------------------

    def step(self):
        """Flush at most one pending word inline; returns patterns run.

        The deterministic manual-mode driver: with ``autostart=False``
        the test suite calls :meth:`step`/:meth:`drain` to control
        exactly when words dispatch.
        """
        with self._cond:
            choice = self._pick_ready(time.monotonic(), force=True)
            if choice is None:
                return 0
            kind, reason = choice
            batch = self._queues[kind].take()
            self._inflight += 1
            self._cond.notify_all()
        try:
            self._execute(kind, batch, reason)
        finally:
            with self._cond:
                self._inflight -= 1
                self._cond.notify_all()
        return len(batch)

    def flush(self):
        """Force every queued transaction to dispatch (alias of drain)."""
        self.drain()

    def drain(self, timeout=None):
        """Block until every queued transaction has been executed."""
        if self._thread is None:
            while self.step():
                pass
            return
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._cond:
            self._draining = True
            self._cond.notify_all()
            try:
                while (any(q.depth for q in self._queues.values())
                       or self._inflight):
                    remaining = (None if deadline is None
                                 else deadline - time.monotonic())
                    if remaining is not None and remaining <= 0:
                        raise SimulationError(
                            f"drain did not finish within {timeout}s")
                    self._cond.wait(remaining)
            finally:
                self._draining = False

    # -- introspection --------------------------------------------------

    @property
    def lanes(self):
        return tuple(self._queues)

    def queue_depths(self):
        with self._cond:
            return {kind.value: q.depth for kind, q in self._queues.items()}


class Client:
    """Synchronous convenience API over a :class:`Server`.

    The ``mul_*`` helpers mirror :class:`~repro.core.mfmult.MFMult`'s
    float-level conveniences; each one blocks on its ticket (a timeout
    flush or a concurrent full word releases it).
    """

    def __init__(self, server, timeout=30.0):
        self.server = server
        self.timeout = timeout

    def submit(self, tx, block=True, timeout=None):
        return self.server.submit(tx, block=block, timeout=timeout)

    def _call(self, tx):
        return self.submit(tx).result(timeout=self.timeout)

    def mul_int64(self, x, y):
        """64x64 -> 128-bit unsigned product."""
        return self._call(Transaction.int64(x, y)).int128

    def mul_fp64(self, x, y):
        """Multiply two Python floats through the fp64 lane."""
        from repro.bits.ieee754 import BINARY64, decode, encode

        tx = Transaction.fp64(encode(x, BINARY64), encode(y, BINARY64))
        return decode(self._call(tx).fp64_encoding, BINARY64)

    def mul_fp32_pair(self, pair_a, pair_b):
        """Two binary32 products in one dual-lane transaction."""
        from repro.bits.ieee754 import BINARY32, decode, encode

        (x0, x1), (y0, y1) = pair_a, pair_b
        tx = Transaction.fp32_pair(
            encode(x0, BINARY32), encode(y0, BINARY32),
            encode(x1, BINARY32), encode(y1, BINARY32))
        result = self._call(tx)
        return (decode(result.fp32_encoding(0), BINARY32),
                decode(result.fp32_encoding(1), BINARY32))

    def mul_fp16_quad(self, xs, ys):
        """Four binary16 products in one quad-lane transaction."""
        from repro.bits.ieee754 import BINARY16, decode, encode

        tx = Transaction.fp16_quad([encode(v, BINARY16) for v in xs],
                                   [encode(v, BINARY16) for v in ys])
        result = self._call(tx)
        return tuple(decode(result.fp16_encoding(k), BINARY16)
                     for k in range(4))

    def reduce64(self, encoding64):
        """Algorithm 1 probe: returns ``(reduced, encoding)``."""
        result = self._call(Transaction.reduce64(encoding64))
        return result.reduced, result.ph
