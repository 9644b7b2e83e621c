"""The ``inline`` backend: zero-overhead serial execution.

No processes, no queues — :meth:`submit` runs the leaf on the spot in
the scheduler's own process and parks the result for
:meth:`next_result`.  This is what the scheduler auto-selects whenever
``effective_workers == 1`` (including the oversubscription downgrade),
so "parallel" runs on a small box can never again pay process
overhead for nothing: the inline path *is* the serial path.

The leaf still runs under a :func:`repro.obs.span` (via the shared
worker entry) so traces look identical across backends; obs state needs
no merge because it already lives in this process.
"""

import time

from repro import obs
from repro.eval.sched.base import Backend, LeafResult, call_leaf


class InlineBackend(Backend):
    name = "inline"
    mode = "inline"

    def __init__(self, workers=1):
        self._done = []

    def submit(self, task):
        t0 = time.perf_counter()
        with obs.span(f"leaf:{task.name}", cat="orchestrator"):
            value = call_leaf(task.fn, task.params)
        self._done.append(LeafResult(
            name=task.name, value=value,
            seconds=time.perf_counter() - t0, worker=0))

    def next_result(self):
        return self._done.pop(0)

    @property
    def outstanding(self):
        return len(self._done)
