"""The ``workers`` backend: deque-based work stealing over long-lived
worker processes.

Topology
    N worker processes, forked lazily on first submit, each holding one
    end of a private :func:`multiprocessing.Pipe` and running
    :func:`_worker_main`: receive a ``repro.sched/1`` job frame,
    execute it, stream the result frame back immediately, repeat.
    Workers live for the whole graph — module caches, compiled kernels
    and event simulators stay warm across every leaf they run.

Scheduling
    The scheduler side keeps a deque of not-yet-dispatched tasks per
    worker.  ``submit`` appends to the least-loaded deque (weight-aware
    — the graph hands leaves over heaviest-first); each worker has at
    most one job in flight.  When a worker goes idle and its own deque
    is empty, it **steals from the tail of the longest other deque** —
    the classic steal end, leaving the victim's head (its next, likely
    cache-warm task) untouched.  Under skew (one slow leaf pinning a
    worker) the idle workers drain the victim's backlog instead of
    waiting at a pool barrier; every steal is counted and recorded in
    the metrics registry.

Fault tolerance
    A worker that disappears mid-leaf (EOF on its pipe) is detected by
    :func:`multiprocessing.connection.wait`; its in-flight task is
    re-queued at the head of the shortest deque, a replacement worker
    is forked into the slot, and ``orchestrator.worker.crashes`` ticks.
    A task that kills two workers in a row is reported as a failure
    rather than retried forever.

Results stream back the moment each leaf finishes (value pickled in the
frame, ``repro.obs/1`` metrics/trace payload alongside), so the parent
merges spans live instead of at pool join — and the same envelopes
would work unchanged over a socket to another host.
"""

import multiprocessing
import multiprocessing.connection
import os
import time
from collections import deque

from repro import obs
from repro.eval.sched import wire
from repro.eval.sched.base import Backend, LeafResult, execute_task

#: Give up on a task after it has taken down this many workers.
MAX_TASK_CRASHES = 2

#: Seconds to wait for a worker to exit after a shutdown frame.
_JOIN_TIMEOUT = 5.0


def _worker_main(conn, worker_id):
    """Long-lived worker loop: job frame in, result frame out.

    A malformed frame used to kill this loop silently — the scheduler
    saw only an EOF and burned a crash-respawn on a healthy worker.
    Now a :class:`wire.WireError` is answered with a structured
    ``error`` frame (named ``"?"`` since no task could be decoded) and
    the loop keeps serving; only *fatal* wire errors (the pipe's
    message framing makes these unreachable in practice) end the loop.
    """
    while True:
        try:
            env = wire.recv_frame(conn)
        except (EOFError, OSError):          # parent went away
            break
        except wire.WireError as exc:
            if exc.fatal:                    # pragma: no cover
                break
            try:
                wire.send_frame(conn, wire.error_envelope(
                    "?", f"malformed frame: {exc}", worker_id))
                continue
            except (BrokenPipeError, OSError):   # pragma: no cover
                break
        if env.get("kind") != "job":
            if env.get("kind") == "shutdown":
                break
            try:
                wire.send_frame(conn, wire.error_envelope(
                    "?", f"unexpected frame kind {env.get('kind')!r}",
                    worker_id))
                continue
            except (BrokenPipeError, OSError):   # pragma: no cover
                break
        task = wire.task_from_envelope(env)
        result = execute_task(task)
        try:
            wire.send_frame(conn, wire.result_envelope(result, worker_id))
        except (BrokenPipeError, OSError):   # pragma: no cover
            break
    conn.close()


class _Slot:
    """One worker process slot: connection, backlog deque, in-flight."""

    __slots__ = ("index", "proc", "conn", "queue", "inflight")

    def __init__(self, index):
        self.index = index
        self.proc = None
        self.conn = None
        self.queue = deque()
        self.inflight = None

    @property
    def load(self):
        return len(self.queue) + (1 if self.inflight is not None else 0)


class WorkersBackend(Backend):
    name = "workers"

    def __init__(self, workers):
        self.workers = max(1, int(workers))
        self._slots = [_Slot(i) for i in range(self.workers)]
        self._results = deque()
        self._crashes = {}        # task name -> crash count
        self._outstanding = 0
        self._started = False

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------

    def _spawn(self, slot):
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:                   # pragma: no cover - non-POSIX
            ctx = multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_worker_main,
                           args=(child_conn, slot.index),
                           name=f"repro-sched-{slot.index}", daemon=True)
        proc.start()
        child_conn.close()
        slot.proc, slot.conn = proc, parent_conn
        obs.registry().inc("orchestrator.workers.spawned")

    def _ensure_started(self):
        if not self._started:
            for slot in self._slots:
                self._spawn(slot)
            self._started = True

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def submit(self, task):
        self._ensure_started()
        slot = min(self._slots, key=lambda s: (s.load, s.index))
        slot.queue.append(task)
        self._outstanding += 1
        self._pump()

    def _steal_for(self, thief):
        """Pop a task from the tail of the longest other deque."""
        victim = max((s for s in self._slots if s.queue),
                     key=lambda s: (len(s.queue), -s.index), default=None)
        if victim is None or victim is thief:
            return None
        task = victim.queue.pop()            # the steal end
        reg = obs.registry()
        reg.inc("orchestrator.steals")
        reg.inc(f"orchestrator.worker.{thief.index}.steals")
        reg.record("orchestrator.steals",
                   {"job": task.name, "victim": victim.index,
                    "thief": thief.index,
                    "victim_backlog": len(victim.queue)})
        return task

    def _pump(self):
        """Dispatch one job to every idle worker (own queue, then steal)."""
        reg = obs.registry()
        for slot in self._slots:
            if slot.inflight is not None or slot.conn is None:
                continue
            task = slot.queue.popleft() if slot.queue \
                else self._steal_for(slot)
            if task is None:
                continue
            slot.inflight = task
            try:
                wire.send_frame(slot.conn, wire.job_envelope(task))
            except (BrokenPipeError, OSError):
                # The worker died while idle; recover exactly like a
                # mid-leaf crash (requeue + respawn) and keep pumping.
                self._crash(slot)
                return
            reg.inc(f"orchestrator.worker.{slot.index}.jobs")
            reg.observe_value("orchestrator.queue.depth",
                              sum(len(s.queue) for s in self._slots))

    # ------------------------------------------------------------------
    # completion / crash recovery
    # ------------------------------------------------------------------

    def _crash(self, slot):
        task = slot.inflight
        slot.inflight = None
        reg = obs.registry()
        reg.inc("orchestrator.worker.crashes")
        reg.record("orchestrator.worker.crashes",
                   {"worker": slot.index,
                    "job": task.name if task else None})
        try:
            slot.conn.close()
        except OSError:
            pass
        if slot.proc is not None:
            slot.proc.join(timeout=1.0)
            if slot.proc.is_alive():         # pragma: no cover
                slot.proc.terminate()
        slot.proc = slot.conn = None
        self._spawn(slot)
        if task is not None:
            crashes = self._crashes.get(task.name, 0) + 1
            self._crashes[task.name] = crashes
            if crashes > MAX_TASK_CRASHES:
                self._results.append(LeafResult(
                    name=task.name, worker=slot.index,
                    error=f"leaf {task.name!r} crashed "
                          f"{crashes} workers in a row"))
            else:
                # Retry promptly: head of the shortest deque.
                target = min(self._slots,
                             key=lambda s: (s.load, s.index))
                target.queue.appendleft(task)
        self._pump()

    def next_result(self, timeout=None):
        """The next finished leaf; ``None`` when ``timeout`` elapses.

        The default (no timeout) blocks until a result is available —
        the orchestrator's mode.  A timeout makes the call a poll, which
        is what lets a worker daemon's pump thread multiplex this pool
        with its coordinator socket.
        """
        while not self._results:
            conns = {slot.conn: slot for slot in self._slots
                     if slot.conn is not None
                     and slot.inflight is not None}
            if not conns:
                if timeout is not None:
                    return None
                raise RuntimeError(
                    "workers backend has no results and no jobs in "
                    "flight")
            ready = multiprocessing.connection.wait(list(conns), timeout)
            if not ready:
                return None
            for conn in ready:
                slot = conns[conn]
                try:
                    env = wire.recv_frame(conn)
                except (EOFError, OSError):
                    self._crash(slot)
                    continue
                except wire.WireError:       # pragma: no cover
                    # Undecodable bytes from a worker: its stream can't
                    # be trusted any more; recycle it like a crash.
                    self._crash(slot)
                    continue
                result = wire.result_from_envelope(env)
                if result.name == "?":
                    # The worker rejected a frame it could not decode.
                    # With a job in flight, fail that job (the frame it
                    # rejected *was* the job); otherwise just log it.
                    obs.registry().inc("orchestrator.worker.wire_errors")
                    if slot.inflight is None:
                        continue
                    result.name = slot.inflight.name
                slot.inflight = None
                self._results.append(result)
            self._pump()
        self._outstanding -= 1
        return self._results.popleft()

    @property
    def outstanding(self):
        return self._outstanding

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------

    def close(self):
        for slot in self._slots:
            if slot.conn is None:
                continue
            try:
                wire.send_frame(slot.conn, wire.shutdown_envelope())
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + _JOIN_TIMEOUT
        for slot in self._slots:
            if slot.proc is None:
                continue
            slot.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if slot.proc.is_alive():
                slot.proc.terminate()
                slot.proc.join(timeout=1.0)
            try:
                slot.conn.close()
            except OSError:                  # pragma: no cover
                pass
            slot.proc = slot.conn = None
            slot.queue.clear()
            slot.inflight = None
        self._started = False
