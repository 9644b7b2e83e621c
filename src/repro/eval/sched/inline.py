"""The ``inline`` backend: serial execution in the scheduler's process.

No processes, no pipes: :meth:`submit` only queues the task, and each
:meth:`next_result` runs the oldest queued leaf on the spot.  The
scheduler therefore drives ``inline`` through the same pump loop as
every other backend — cache probes, stores, merges and progress
callbacks happen between leaves, exactly as they do when results
stream back from worker processes.  ``auto`` selects it whenever
``effective_workers == 1`` (including the oversubscription downgrade).

The leaf runs through the module-level :func:`call_leaf` under its
``leaf:`` span, so traces look like the other backends' and a failing
leaf raises its own exception unchanged.  ``LeafResult.seconds`` is the
leaf's execution time only, as on every backend; obs state needs no
merge because it already lives in this process.
"""

import time
from collections import deque

from repro import obs
from repro.eval.sched.base import Backend, LeafResult, call_leaf


class InlineBackend(Backend):
    name = "inline"
    mode = "inline"
    serial = True

    def __init__(self, workers=1):
        self._queue = deque()

    def submit(self, task):
        self._queue.append(task)

    def next_result(self):
        task = self._queue.popleft()
        ctx = task.trace_ctx
        t0 = time.perf_counter()
        with obs.span(f"leaf:{task.name}", cat="orchestrator"):
            if ctx and ctx.get("flow"):
                obs.flow_finish(f"sched:{task.name}", ctx["flow"],
                                cat="orchestrator")
            value = call_leaf(task.fn, task.params)
        return LeafResult(name=task.name, value=value,
                          seconds=time.perf_counter() - t0, worker=0)

    @property
    def outstanding(self):
        return len(self._queue)
