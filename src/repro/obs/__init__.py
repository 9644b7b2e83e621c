"""Unified observability: metrics registry, trace spans, stat schemas.

Everything quantitative the stack reports flows through this package:

* :func:`registry` — the process-wide :class:`~repro.obs.metrics.MetricsRegistry`
  (counters / gauges / timers / histograms / record streams) with
  JSON snapshot and cross-process merge;
* :class:`span` — Chrome trace-event spans (Perfetto-loadable), enabled
  by ``REPRO_TRACE=<path>`` or :func:`start_trace`;
* :mod:`repro.obs.schema` — the enforced ``sim_stats`` key schema both
  power engines emit.

Worker-process protocol (what the orchestrator's worker backends
use): the child calls :func:`task_begin` before its work and
returns :func:`task_collect`'s payload with its result; the parent
folds it in with :func:`task_merge`.  Combined with the registries'
pid guards, child metrics merge exactly once — never double-counted,
never lost.

See docs/observability.md for naming conventions and the trace-viewing
howto.
"""

from repro.obs.http import TelemetryServer, prometheus_exposition
from repro.obs.metrics import MetricsRegistry, registry
from repro.obs.quantile import (
    QuantileSketch,
    diff_bucket_dicts,
    merge_bucket_dicts,
    quantiles_from_aggregate,
)
from repro.obs.sampler import TimeSeriesSampler, sampler
from repro.obs.schema import (
    SIM_STATS_DEFAULTS,
    SIM_STATS_KEYS,
    assert_sim_stats_schema,
    normalize_sim_stats,
)
from repro.obs.trace import (
    adopt_context,
    complete_event,
    current_context,
    drain_events,
    extend_events,
    flow_finish,
    flow_start,
    is_tracing,
    new_span_id,
    span,
    start_trace,
    stop_trace,
    trace_id,
    trace_json,
    write_trace,
)

__all__ = [
    "MetricsRegistry", "registry",
    "TelemetryServer", "prometheus_exposition",
    "QuantileSketch", "diff_bucket_dicts", "merge_bucket_dicts",
    "quantiles_from_aggregate",
    "TimeSeriesSampler", "sampler",
    "SIM_STATS_DEFAULTS", "SIM_STATS_KEYS",
    "assert_sim_stats_schema", "normalize_sim_stats",
    "adopt_context", "complete_event", "current_context",
    "drain_events", "extend_events", "flow_finish", "flow_start",
    "is_tracing", "new_span_id",
    "span", "start_trace", "stop_trace", "trace_id", "trace_json",
    "write_trace",
    "task_begin", "task_collect", "task_merge",
]


def task_begin():
    """Start a clean observability scope in a worker task.

    Resets this process's registry and trace buffer so the payload
    returned by :func:`task_collect` covers exactly this task — pool
    workers are reused across tasks, and forked children start life
    with a copy of the parent's state.
    """
    registry().reset()
    drain_events()


def task_collect():
    """The worker's observability payload to ship back with its result."""
    return {"metrics": registry().snapshot(), "trace": drain_events()}


def task_merge(payload):
    """Fold a worker's :func:`task_collect` payload into this process."""
    if not payload:
        return
    registry().merge(payload["metrics"])
    extend_events(payload.get("trace") or ())
