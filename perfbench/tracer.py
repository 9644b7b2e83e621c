"""Outside-in tracing: spans around the public functions of each layer.

:class:`Tracer` replaces each target function (or method) with a wrapper
that records one span per call -- name, start, end, parent span and
request id -- into an in-memory list, and :meth:`Tracer.write` dumps the
spans when the run ends.  Nothing in ``src/`` changes: module-level
functions are replaced in every loaded ``repro`` module that bound them
by name, methods on their class.

A span's request id is inherited from its parent; a top-level span
starts a new one, so every span under one submit, word, leaf job or
power point shares its id.  Self time is a span's duration minus the
durations of its direct children on the same thread.
"""

import gzip
import importlib
from bisect import bisect_right
import threading
import time
from itertools import count

from workloads import percentile, rebind

#: (layer metric name, module, attribute path) of every wrapped function.
#: One name may cover several entry points of the same layer.
TARGETS = (
    ("serve.server.submit", "repro.serve.server", "Server.submit"),
    ("serve.server.dispatch", "repro.serve.server", "Server._execute"),
    ("serve.engine.execute", "repro.serve.engine", "LaneEngine.execute"),
    ("core.pipeline_unit.run_batch", "repro.core.pipeline_unit",
     "MFMultUnit.run_batch"),
    ("hdl.sim.levelized.run", "repro.hdl.sim.levelized",
     "LevelizedSimulator.run"),
    ("hdl.sim.levelized.run", "repro.hdl.sim.levelized",
     "LevelizedSimulator.run_segments"),
    ("hdl.sim.levelized.bit_transpose", "repro.hdl.sim.levelized",
     "bit_transpose"),
    ("hdl.sim.compile.compile_module", "repro.hdl.sim.compile",
     "compile_module"),
    ("circuits.build", "repro.circuits.mult_common", "build_multiplier"),
    ("circuits.build", "repro.circuits.mult_radix4", "radix4_multiplier"),
    ("circuits.build", "repro.circuits.mult_radix8", "radix8_multiplier"),
    ("circuits.build", "repro.circuits.mult_radix16", "radix16_multiplier"),
    ("circuits.build", "repro.core.pipeline_unit", "build_mf_multiplier"),
    ("circuits.build", "repro.circuits.reducer", "build_reducer"),
    ("hdl.timing.sta.analyze", "repro.hdl.timing.sta", "analyze"),
    ("hdl.area.model.area_report", "repro.hdl.area.model", "area_report"),
    ("hdl.power.estimate_power", "repro.hdl.power.monte_carlo",
     "estimate_power"),
    ("hdl.power.estimate_power", "repro.hdl.power.monte_carlo",
     "estimate_power_batch"),
    ("hdl.power.estimate_power", "repro.hdl.power.monte_carlo",
     "power_replay_shard"),
    ("hdl.sim.event.replay", "repro.hdl.sim.event", "EventSimulator.replay"),
    ("eval.fault_injection.campaign_engine", "repro.eval.fault_injection",
     "campaign_engine"),
    ("eval.fault_injection.coverage_chunk", "repro.eval.fault_injection",
     "coverage_chunk"),
    ("eval.sched.call_leaf", "repro.eval.sched.base", "call_leaf"),
    ("eval.cache.get", "repro.eval.cache", "ResultCache.load"),
    ("eval.cache.put", "repro.eval.cache", "ResultCache.store"),
    ("eval.experiments.cached_module", "repro.eval.experiments",
     "cached_module"),
    ("serve.transactions.reference_result", "repro.serve.transactions",
     "reference_result"),
    ("eval.orchestrator.run_experiments", "repro.eval.orchestrator",
     "run_experiments"),
    ("eval.report.generate_report", "repro.eval.report", "generate_report"),
    # The benchmark's own host-speed probes, so that their time is not
    # charged to the self time of the layer they run inside.
    ("perfbench.host_probe", "workloads", "host_scale"),
)

#: Layers reported as calls / busy_s / self_s.
LAYERS = tuple(dict.fromkeys(name for name, __, ___ in TARGETS
                             if name not in (
                                 "eval.orchestrator.run_experiments",
                                 "eval.report.generate_report")))

#: Every per-layer metric a traced run prints, with its unit.
METRICS = (
    tuple((f"{layer}.{field}", unit) for layer in LAYERS
          for field, unit in (("calls", "count"), ("busy_s", "s"),
                              ("self_s", "s")))
    + (("serve.server.queue_wait_ms.p50", "ms"),
       ("serve.server.queue_wait_ms.p99", "ms"),
       ("serve.engine.occupancy_mean", "count"),
       ("hdl.sim.event.events", "count"),
       ("hdl.sim.event.ns_per_event", "ns"),
       ("eval.orchestrator.self_s", "s"),
       ("eval.report.render_s", "s"),
       ("loadgen.late_p99_ms", "ms"),
       ("traced_wall_s", "s"),
       ("unattributed_s", "s"),
       ("trace_overhead_frac", "fraction"))
)


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.spans = []            # (sid, parent, rid, tid, name, t0, t1)
        self.events = {}           # replay sid -> events processed
        self.submitted_at = {}     # id(tx) -> submit call time
        self.words = []            # (execute start, occupancy, waits ms)
        self.missing = []
        self._stacks = {}
        self._ids = count()

    # -- installation ---------------------------------------------------

    def install(self):
        """Import every target module and wrap every target."""
        hooks = {"serve.server.submit": (self._before_submit, None),
                 "serve.engine.execute": (self._before_execute, None),
                 "hdl.sim.event.replay": (None, self._after_replay)}
        for name, module_name, path in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner_name, __, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}:{path}")
                continue
            wrapper = self._wrap(name, fn, *hooks.get(name, (None, None)))
            if owner is module:
                rebind(fn, wrapper)
            setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, before, after):
        spans, stacks, ids = self.spans, self._stacks, self._ids
        clock, ident = time.perf_counter, threading.get_ident

        def wrapper(*args, **kwargs):
            tid = ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = []
            sid = next(ids)
            if stack:
                parent, rid = stack[-1]
            else:
                parent, rid = -1, sid
            stack.append((sid, rid))
            t0 = clock()
            if before is not None:
                before(args, t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, rid, tid, name, t0, t1))
            if after is not None:
                after(sid, args, result, t1)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- hooks ------------------------------------------------------------

    def _before_submit(self, args, t0):
        # Stamped on entry: the dispatcher may run the word before
        # submit() returns to this thread.
        self.submitted_at[id(args[1])] = t0

    def _before_execute(self, args, t0):
        txs = args[1]
        submitted_at = self.submitted_at
        waits = [(t0 - submitted_at.pop(id(tx))) * 1e3 for tx in txs
                 if id(tx) in submitted_at]
        self.words.append((t0, len(txs), waits))

    def _after_replay(self, sid, args, result, t1):
        self.events[sid] = result.events_processed

    # -- results ----------------------------------------------------------

    def layer_metrics(self, windows, units, late_ms=None):
        """Every name of :data:`METRICS` except ``trace_overhead_frac``.

        ``calls``/``busy_s``/``self_s`` cover the whole traced process
        (set-up included).  ``busy_s`` counts only the outermost call
        when a layer re-enters itself.  Event counts, queue waits and
        occupancy cover the measured span of ``windows`` (``(start,
        end)`` perf_counter pairs); events are per unit of work (pass or
        report), so they repeat exactly.  ``traced_wall_s`` is the total
        length of the windows and ``unattributed_s`` the part of them no
        top-level span covers, on any thread.
        """
        spans = self.spans
        by_sid = {s[0]: s for s in spans}
        child_s = {}
        for sid, parent, __, ___, ____, t0, t1 in spans:
            if parent >= 0:
                child_s[parent] = child_s.get(parent, 0.0) + (t1 - t0)
        stats = {}
        for sid, parent, __, ___, name, t0, t1 in spans:
            row = stats.setdefault(name, [0, 0.0, 0.0])
            dur = t1 - t0
            row[0] += 1
            row[2] += dur - child_s.get(sid, 0.0)
            ancestor = by_sid.get(parent)
            while ancestor is not None and ancestor[4] != name:
                ancestor = by_sid.get(ancestor[1])
            if ancestor is None:
                row[1] += dur
        out = {}
        for layer in LAYERS:
            calls, busy, own = stats.get(layer, (0, 0.0, 0.0))
            out[f"{layer}.calls"] = calls
            out[f"{layer}.busy_s"] = busy
            out[f"{layer}.self_s"] = own

        w0, w1 = windows[0][0], windows[-1][1]
        in_window = [s for s in spans if s[5] >= w0 and s[6] <= w1]
        events = sum(self.events.get(s[0], 0) for s in in_window)
        replay_s = sum(s[6] - s[5] for s in in_window
                       if s[4] == "hdl.sim.event.replay")
        out["hdl.sim.event.events"] = events // max(units, 1)
        out["hdl.sim.event.ns_per_event"] = (replay_s * 1e9 / events
                                             if events else 0.0)
        words = [w for w in self.words if w0 <= w[0] <= w1]
        waits = [ms for w in words for ms in w[2]]
        out["serve.server.queue_wait_ms.p50"] = (
            percentile(waits, 0.5) if waits else 0.0)
        out["serve.server.queue_wait_ms.p99"] = (
            percentile(waits, 0.99) if waits else 0.0)
        out["serve.engine.occupancy_mean"] = (
            sum(w[1] for w in words) / len(words) if words else 0.0)
        out["eval.orchestrator.self_s"] = stats.get(
            "eval.orchestrator.run_experiments", (0, 0.0, 0.0))[2]
        out["eval.report.render_s"] = stats.get(
            "eval.report.generate_report", (0, 0.0, 0.0))[2]
        out["loadgen.late_p99_ms"] = (percentile(late_ms, 0.99)
                                      if late_ms else 0.0)
        covered = _union((s[5], s[6]) for s in spans if s[1] < 0)
        starts = [start for start, __ in covered]
        out["traced_wall_s"] = sum(b - a for a, b in windows)
        out["unattributed_s"] = sum(
            (b - a) - sum(min(e, b) - max(s, a) for s, e in
                          covered[max(bisect_right(starts, a) - 1, 0):
                                  bisect_right(starts, b)] if e > a)
            for a, b in windows)
        return out

    def write(self, path):
        """Dump every span as gzipped TSV; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("sid\tparent\trequest\tthread\tname\tstart_s\tend_s\n")
            for s in sorted(self.spans):
                fh.write("%d\t%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % s)
        return len(self.spans)


def _union(intervals):
    """The union of ``(start, end)`` intervals as sorted disjoint pairs."""
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return merged
