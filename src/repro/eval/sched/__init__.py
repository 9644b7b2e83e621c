"""Pluggable execution backends for the experiment scheduler.

The scheduler core in :mod:`repro.eval.orchestrator` owns the job
graph; *how* cache-missing leaves actually execute is a backend choice:

========  ==========================================================
backend   what it is
========  ==========================================================
inline    serial execution in the scheduler's process: ``submit``
          queues, each ``next_result`` runs one leaf — driven by the
          same pump loop as every backend; auto-selected whenever
          ``effective_workers == 1`` (including the oversubscription
          downgrade)
workers   long-lived worker processes speaking the ``repro.sched/1``
          wire protocol over pipes — what ``auto`` picks for parallel
          requests
remote    the same wire protocol over authenticated TCP to worker
          daemons on other machines (``--hosts a:9700,b:9700``), with
          digest-based cache sync and lost-host recovery
========  ==========================================================

``workers`` and ``remote`` share one scheduling policy
(:mod:`repro.eval.sched.policy`) and keep only their transport.
:func:`make_backend` maps a name + worker count to an instance; the
auto-selection policy itself (downgrades, oversubscription accounting)
lives in the scheduler core, next to its obs counters.
"""

from repro.eval.sched.base import (
    Backend,
    LeafResult,
    LeafTask,
    call_leaf,
    execute_task,
    raise_leaf_failure,
    resolve_fn,
)
from repro.eval.sched.inline import InlineBackend
from repro.eval.sched.remote import RemoteBackend
from repro.eval.sched.stealing import WorkersBackend

#: Every selectable backend, by registry key.
BACKENDS = {
    "inline": InlineBackend,
    "workers": WorkersBackend,
    "remote": RemoteBackend,
}

#: What the CLI offers (``auto`` resolves in the scheduler core).
BACKEND_CHOICES = ("auto",) + tuple(BACKENDS)


def make_backend(name, workers, hosts=None):
    """Instantiate backend ``name`` for ``workers`` processes.

    The ``remote`` backend takes ``hosts`` (a ``HOST:PORT,...`` spec or
    iterable; falls back to ``REPRO_SCHED_HOSTS``) instead of a local
    worker count — its capacity is whatever the daemons announce.
    """
    try:
        cls = BACKENDS[name]
    except KeyError:
        from repro.errors import SimulationError

        raise SimulationError(
            f"unknown scheduler backend {name!r}; choose from "
            f"{', '.join(BACKEND_CHOICES)}") from None
    if name == "remote":
        from repro.eval.sched.remote import parse_hosts

        return cls(parse_hosts(hosts))
    return cls(workers)


__all__ = [
    "BACKENDS", "BACKEND_CHOICES", "Backend", "InlineBackend", "LeafResult", "LeafTask", "RemoteBackend",
    "WorkersBackend", "call_leaf", "execute_task", "make_backend",
    "raise_leaf_failure", "resolve_fn",
]
