"""Execution-backend protocol of the experiment scheduler.

The scheduler core (:mod:`repro.eval.orchestrator`) owns the job graph
— dependency tracking, cache probes, parent-side merges — and delegates
only one thing to a backend: *run these leaf tasks and stream their
results back as each one finishes*.  That contract is three calls:

* :meth:`Backend.submit` — hand over one :class:`LeafTask`;
* :meth:`Backend.next_result` — block until **some** submitted task is
  done and return its :class:`LeafResult` (completion order is the
  backend's business; the scheduler's merges are keyed by name, so any
  order yields identical graph results);
* :meth:`Backend.close` — release workers/pools (backends are context
  managers; ``close`` is idempotent).

Backends start lazily: a graph whose leaves are all served from the
result cache never forks a single process.

:func:`execute_task` is the one worker-side entry every backend uses —
it scopes the task's own metrics and trace spans with the exactly-once
:func:`repro.obs.task_begin`/:func:`repro.obs.task_collect` protocol so
the parent can merge them the moment the result arrives (live
streaming, not at pool join).
"""

import importlib
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro import obs


@dataclass(frozen=True)
class LeafTask:
    """One leaf job as the backends see it.

    ``fn`` is a ``"module.path:function"`` string (the multi-host-safe
    spelling) or a picklable callable; ``params`` are sorted ``(key,
    value)`` pairs.  ``fingerprint`` is the job's cache digest — it
    rides along in the wire envelope so a remote executor can consult
    its own content-addressed store.
    """

    name: str
    fn: object
    params: tuple = ()
    weight: float = 1.0
    fingerprint: str = ""
    #: Coordinator-side trace context (``{"trace", "span", "flow"}``) —
    #: lets the worker's ``leaf:`` span resolve to the coordinator's
    #: graph span and close its ``sched:`` flow arrow.  Excluded from
    #: equality/hashing; ``None`` when tracing is off.
    trace_ctx: Optional[dict] = field(default=None, compare=False,
                                      repr=False)


@dataclass
class LeafResult:
    """One finished (or failed) leaf, streamed back to the scheduler."""

    name: str
    value: object = None
    seconds: float = 0.0                 # worker-side execution time
    worker: Optional[int] = None
    obs_payload: Optional[dict] = None   # task_collect() payload
    error: Optional[str] = None          # formatted traceback on failure
    exception: Optional[BaseException] = field(default=None, repr=False)

    @property
    def ok(self):
        return self.error is None


def resolve_fn(fn):
    """A callable from a ``"module.path:function"`` spec (or itself)."""
    if callable(fn):
        return fn
    module_name, __, func_name = fn.partition(":")
    return getattr(importlib.import_module(module_name), func_name)


def call_leaf(fn, params):
    """Resolve and call a leaf function with its keyword params."""
    return resolve_fn(fn)(**dict(params))


def execute_task(task):
    """Worker-side entry: run one task under a fresh obs scope.

    Returns a :class:`LeafResult` — never raises.  A failing leaf ships
    its traceback back instead of killing the worker loop (the original
    exception rides along where transport allows, so the parent can
    re-raise it verbatim).
    """
    obs.task_begin()
    ctx = getattr(task, "trace_ctx", None)
    obs.adopt_context(ctx)
    t0 = time.perf_counter()
    try:
        with obs.span(f"leaf:{task.name}", cat="orchestrator"):
            if ctx and ctx.get("flow"):
                # Close the coordinator's submit arrow inside this
                # slice so the stitched trace shows submit -> execute.
                obs.flow_finish(f"sched:{task.name}", ctx["flow"],
                                cat="orchestrator")
            value = call_leaf(task.fn, task.params)
    except BaseException as exc:                     # noqa: BLE001
        return LeafResult(name=task.name,
                          seconds=time.perf_counter() - t0,
                          obs_payload=obs.task_collect(),
                          error=traceback.format_exc(), exception=exc)
    finally:
        obs.adopt_context(None)
    return LeafResult(name=task.name, value=value,
                      seconds=time.perf_counter() - t0,
                      obs_payload=obs.task_collect())


class Backend:
    """Abstract execution backend (see module docstring for contract).

    The default ``submit``/``next_result``/``outstanding`` are the
    streaming pools' bookkeeping: a subclass implements :meth:`_launch`
    (accept one task) and :meth:`_poll` (one round of transport I/O
    that appends each finished :class:`LeafResult` to ``_results``).
    """

    #: Registry key and the ``JobOutcome.mode`` label of its results.
    name = "?"
    mode = "worker"
    #: True when leaves run one at a time in submission order.
    serial = False

    def __init__(self):
        self._results = deque()      # finished leaves not yet taken
        self._outstanding = 0        # submitted leaves not yet taken

    def submit(self, task):
        self._launch(task)
        self._outstanding += 1

    def next_result(self, timeout=None):
        """The next finished leaf; ``None`` when ``timeout`` elapses.

        The default (no timeout) blocks until a result is available —
        the orchestrator's mode — and raises :class:`RuntimeError` when
        nothing is in flight.  A timeout makes the call a poll, which
        is what lets a worker daemon's pump thread multiplex its pool
        with its coordinator socket.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._results:
            if not self._outstanding:
                if timeout is not None:
                    return None
                raise RuntimeError(
                    f"{self.name} backend has no results and no jobs in "
                    f"flight")
            wait = None
            if deadline is not None:
                wait = max(0.0, deadline - time.monotonic())
            self._poll(wait)
            if wait == 0.0 and not self._results:
                return None      # the deadline's last, non-blocking poll
        self._outstanding -= 1
        return self._results.popleft()

    @property
    def outstanding(self):
        """Number of submitted tasks whose results were not yet taken."""
        return self._outstanding

    def _launch(self, task):
        raise NotImplementedError

    def _poll(self, timeout):
        """Wait up to ``timeout`` seconds (``None``: until some I/O) and
        append every leaf that finished meanwhile to ``_results``."""
        raise NotImplementedError

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def raise_leaf_failure(result):
    """Re-raise a failed leaf in the parent, preserving what we can."""
    from repro.errors import SimulationError

    if result.exception is not None:
        raise result.exception
    raise SimulationError(
        f"leaf job {result.name!r} failed in worker "
        f"{result.worker}:\n{result.error}")
