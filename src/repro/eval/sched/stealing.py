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
    Each worker is a capacity-1 lane of the shared
    :class:`~repro.eval.sched.policy.StealingPolicy` (placement,
    stealing, capped requeue); this module keeps only the transport:
    pipe fork, frames, crash detection and respawn.  A worker that
    disappears mid-leaf (EOF on its pipe) is respawned in place and its
    leaf goes to the policy's requeue (``orchestrator.worker.crashes``);
    a leaf lost more than ``MAX_REQUEUES`` times fails its job
    ("crashed N workers in a row").

Results stream back the moment each leaf finishes (value pickled in the
frame, ``repro.obs/1`` metrics/trace payload alongside), so the parent
merges spans live instead of at pool join.
"""

import multiprocessing
import multiprocessing.connection
import time
from collections import deque

from repro import obs
from repro.eval.sched import wire
from repro.eval.sched.base import Backend, LeafResult, execute_task
from repro.eval.sched.policy import Counters, Lane, StealingPolicy

#: The metric names this backend's stealing policy ticks.
COUNTERS = Counters(steals="orchestrator.steals",
                    lane_steals="orchestrator.worker.{}.steals",
                    requeues="orchestrator.worker.crashes")

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
            reply = wire.error_envelope("?", f"malformed frame: {exc}",
                                        worker_id)
        else:
            kind = env.get("kind")
            if kind == "shutdown":
                break
            if kind == "job":
                reply = wire.result_envelope(
                    execute_task(wire.task_from_envelope(env)), worker_id)
            else:
                reply = wire.error_envelope(
                    "?", f"unexpected frame kind {kind!r}", worker_id)
        try:
            wire.send_frame(conn, reply)
        except (BrokenPipeError, OSError):   # pragma: no cover
            break
    conn.close()


class _Worker(Lane):
    """A capacity-1 lane with its worker process and pipe end."""

    __slots__ = ("proc", "conn")

    def __init__(self, index):
        super().__init__(index)
        self.proc = None
        self.conn = None


class WorkersBackend(Backend):
    name = "workers"

    def __init__(self, workers):
        self.workers = max(1, int(workers))
        self.lanes = [_Worker(i) for i in range(self.workers)]
        self._policy = StealingPolicy(self.lanes, COUNTERS)
        self._results = deque()
        self._outstanding = 0
        self._started = False

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------

    def _spawn(self, lane):
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:                   # pragma: no cover - non-POSIX
            ctx = multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_worker_main,
                           args=(child_conn, lane.index),
                           name=f"repro-sched-{lane.index}", daemon=True)
        proc.start()
        child_conn.close()
        lane.proc, lane.conn = proc, parent_conn
        obs.registry().inc("orchestrator.workers.spawned")

    def _ensure_started(self):
        if not self._started:
            for lane in self.lanes:
                self._spawn(lane)
            self._started = True

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def submit(self, task):
        self._ensure_started()
        self._policy.place(task)
        self._outstanding += 1
        self._pump()

    def _pump(self):
        """Dispatch one job to every idle worker (own queue, then steal)."""
        reg = obs.registry()
        for lane in self.lanes:
            if lane.inflight or lane.conn is None:
                continue
            task = self._policy.take(lane)
            if task is None:
                continue
            try:
                wire.send_frame(lane.conn, wire.job_envelope(task))
            except (BrokenPipeError, OSError):
                # The worker died while idle; recover exactly like a
                # mid-leaf crash (requeue + respawn) and keep pumping.
                self._crash(lane)
                return
            reg.inc(f"orchestrator.worker.{lane.index}.jobs")
            reg.observe_value("orchestrator.queue.depth",
                              sum(len(lane.queue) for lane in self.lanes))

    # ------------------------------------------------------------------
    # completion / crash recovery
    # ------------------------------------------------------------------

    def _crash(self, lane):
        """Respawn a dead worker and give its leaf back to the policy."""
        try:
            lane.conn.close()
        except OSError:
            pass
        if lane.proc is not None:
            lane.proc.join(timeout=1.0)
            if lane.proc.is_alive():         # pragma: no cover
                lane.proc.terminate()
        lane.proc = lane.conn = None
        self._spawn(lane)
        for task, losses in self._policy.lose(lane):
            self._results.append(LeafResult(
                name=task.name, worker=lane.index,
                error=f"leaf {task.name!r} crashed "
                      f"{losses} workers in a row"))
        self._pump()

    def next_result(self, timeout=None):
        """The next finished leaf; ``None`` when ``timeout`` elapses.

        The default (no timeout) blocks until a result is available —
        the orchestrator's mode.  A timeout makes the call a poll, which
        is what lets a worker daemon's pump thread multiplex this pool
        with its coordinator socket.
        """
        while not self._results:
            conns = {lane.conn: lane for lane in self.lanes
                     if lane.conn is not None and lane.inflight}
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
                lane = conns[conn]
                try:
                    env = wire.recv_frame(conn)
                except (EOFError, OSError):
                    self._crash(lane)
                    continue
                except wire.WireError:       # pragma: no cover
                    # Undecodable bytes from a worker: its stream can't
                    # be trusted any more; recycle it like a crash.
                    self._crash(lane)
                    continue
                result = wire.result_from_envelope(env)
                if result.name == "?":
                    # The worker rejected a frame it could not decode.
                    # With a job in flight, fail that job (the frame it
                    # rejected *was* the job); otherwise just log it.
                    obs.registry().inc("orchestrator.worker.wire_errors")
                    if not lane.inflight:
                        continue
                    result.name = next(iter(lane.inflight))
                lane.inflight.clear()
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
        for lane in self.lanes:
            if lane.conn is None:
                continue
            try:
                wire.send_frame(lane.conn, wire.shutdown_envelope())
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + _JOIN_TIMEOUT
        for lane in self.lanes:
            if lane.proc is None:
                continue
            lane.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if lane.proc.is_alive():
                lane.proc.terminate()
                lane.proc.join(timeout=1.0)
            try:
                lane.conn.close()
            except OSError:                  # pragma: no cover
                pass
            lane.proc = lane.conn = None
            lane.queue.clear()
            lane.inflight.clear()
        self._started = False
