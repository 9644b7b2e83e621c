"""Experiment orchestration with a persistent result cache.

This module is the **one place an experiment is composed and run**.
Every evaluation entry point — the table/figure experiments, the
ablation sweeps, the Sec. III-E activity decomposition and the
fault-injection campaigns — is a **dependency-aware job graph** built
by the registry here (:func:`experiment_names`, :func:`build_jobs`):

* **leaf jobs** are module-level functions addressed as
  ``"module.path:function"`` with keyword params — picklable, so they
  fan out over worker processes;
* **merge jobs** run in the parent as soon as their dependencies
  complete and assemble leaf values into the experiment's result
  object — merges are keyed by job name, so every backend, worker count
  and steal schedule renders byte-identical tables.

The **scheduler core** checks the graph, probes the cache, runs merges
and drives one pump loop that feeds cache-missing leaves to a
pluggable **execution backend** (:mod:`repro.eval.sched`):

* ``inline`` — serial execution in this process, one queued leaf per
  ``next_result``; auto-selected whenever the request cannot actually
  run in parallel (``workers <= 1``, or an oversubscribed request —
  more workers than cores — which is counted as
  ``orchestrator.backend.downgraded`` instead of paying process
  overhead for time slicing);
* ``workers`` — long-lived worker processes under deque-based work
  stealing, speaking the ``repro.sched/1`` wire protocol with live
  result streaming and crash recovery (what ``auto`` picks for
  parallel requests);
* ``remote`` — the same protocol over TCP to worker daemons.

Finished leaves persist in the **content-addressed result store** of
:mod:`repro.eval.cache` — ``sha256(key)``-named entries keyed by
``(source fingerprint, job name, params, seed, cycles)``, the same
fingerprint that keys the module pickle cache of
:mod:`repro.eval.experiments`, so one source edit invalidates both
coherently.  Corrupt entries tick ``orchestrator.cache.corrupt`` and
recompute; ``repro cache export``/``import`` moves warm stores between
machines (``REPRO_RESULT_CACHE`` overrides the directory; ``0``
disables).

Entry points:

* :func:`run_experiment` — one experiment by name (what users, the
  examples and the benchmark drivers call);
* :func:`run_experiments` — a batch with a shared backend and cache
  (what ``python -m repro`` and the full-report CLI of
  :mod:`repro.eval.report` drive);
* :func:`run_graph` — the raw scheduler, for custom graphs.
"""

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Union

from repro import obs
from repro.errors import SimulationError
from repro.eval.cache import ResultCache, job_key, key_digest, resolve_cache
from repro.eval.sched import (
    LeafTask,
    make_backend,
    raise_leaf_failure,
    resolve_fn,
)

__all__ = [
    "Job", "JobOutcome", "ResultCache", "build_jobs",
    "experiment_names", "job", "resolve_cache", "run_experiment",
    "run_experiments", "run_graph",
]

# ----------------------------------------------------------------------
# job model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One node of the experiment graph.

    ``fn`` is a ``"module.path:function"`` string for leaf jobs (must be
    importable in a worker process) or a direct callable for merge jobs
    (which only ever run in the parent).  Leaves are called as
    ``fn(**params)``; merges as ``fn(deps_dict, **params)`` where
    ``deps_dict`` maps dependency job names to their results.
    """

    name: str
    fn: Union[str, Callable]
    params: Tuple[Tuple[str, object], ...] = ()
    deps: Tuple[str, ...] = ()
    weight: float = 1.0          # scheduling hint: heavier jobs first
    cacheable: bool = True


def job(name, fn, deps=(), weight=1.0, cacheable=True, **params):
    """Convenience :class:`Job` constructor with sorted params."""
    return Job(name=name, fn=fn,
               params=tuple(sorted(params.items())),
               deps=tuple(deps), weight=weight, cacheable=cacheable)


@dataclass
class JobOutcome:
    """One executed (or cache-served) job's result and metrics."""

    name: str
    value: object
    seconds: float
    cached: bool
    mode: str                   # "cache" | "inline" | "worker"


# ----------------------------------------------------------------------
# the scheduler core
# ----------------------------------------------------------------------

def _note_outcome(outcome):
    """Fold one finished job into the metrics registry + trace."""
    reg = obs.registry()
    reg.inc("orchestrator.jobs")
    reg.inc(f"orchestrator.jobs.{outcome.mode}")
    if outcome.cached:
        reg.inc("orchestrator.jobs.cached")
    reg.record("orchestrator.jobs",
               {"name": outcome.name, "mode": outcome.mode,
                "cached": outcome.cached,
                "seconds": round(outcome.seconds, 6)})


def _check_graph(jobs):
    by_name: Dict[str, Job] = {}
    for jb in jobs:
        seen = by_name.get(jb.name)
        if seen is None:
            by_name[jb.name] = jb
        elif seen != jb:
            raise SimulationError(
                f"job graph defines {jb.name!r} twice with different specs")
    for jb in by_name.values():
        for dep in jb.deps:
            if dep not in by_name:
                raise SimulationError(
                    f"job {jb.name!r} depends on unknown job {dep!r}")
    # Kahn over the dep edges: detects cycles, yields a stable order.
    order, ready = [], []
    waiting = {name: len(jb.deps) for name, jb in by_name.items()}
    dependents: Dict[str, List[str]] = {name: [] for name in by_name}
    for name, jb in by_name.items():
        for dep in jb.deps:
            dependents[dep].append(name)
    ready = [name for name, n in waiting.items() if n == 0]
    while ready:
        name = ready.pop(0)
        order.append(name)
        for dependent in dependents[name]:
            waiting[dependent] -= 1
            if waiting[dependent] == 0:
                ready.append(dependent)
    if len(order) != len(by_name):
        raise SimulationError("job graph has a dependency cycle")
    return by_name, order, dependents


def _resolve_backend_choice(backend, workers):
    """Map a ``(backend, workers)`` request to what actually runs.

    ``auto`` policy: serial requests (``workers <= 1``) run inline;
    parallel requests run on ``workers`` — unless they are oversubscribed
    (``workers > os.cpu_count()``), in which case any "parallelism"
    would be time slicing plus process overhead, so the request
    **downgrades to inline** and ``orchestrator.backend.downgraded``
    ticks (the 0.858×-of-serial regression class, made structurally
    impossible).  An explicitly named backend is always honoured —
    that is what lets parity tests race real worker processes on a
    one-core box — with oversubscription still counted honestly.
    """
    from repro.eval.sched import BACKEND_CHOICES

    if backend not in BACKEND_CHOICES:
        raise SimulationError(
            f"unknown scheduler backend {backend!r}; choose from "
            f"{', '.join(BACKEND_CHOICES)}")
    workers = 0 if workers is None else int(workers)
    if backend == "remote":
        # Remote capacity is the daemons' cores, not this box's: the
        # oversubscription downgrade does not apply, and the worker
        # count is advisory (each daemon announces its own pool size).
        return "remote", max(1, workers)
    if backend == "inline" or (backend == "auto" and workers <= 1):
        return "inline", 1

    cpus = os.cpu_count() or 1
    reg = obs.registry()
    reg.gauge("orchestrator.workers.requested", workers)
    reg.gauge("orchestrator.workers.cpu_count", cpus)
    if workers > cpus:
        reg.inc("orchestrator.workers.oversubscribed")
        if backend == "auto":
            reg.inc("orchestrator.backend.downgraded")
            reg.record("orchestrator.backend.downgraded",
                       {"requested": workers, "cpu_count": cpus,
                        "to": "inline", "reason": "oversubscribed"})
            return "inline", 1
    if backend == "auto":
        return "workers", workers
    return backend, max(1, workers)


def run_graph(jobs, workers=0, cache=None, backend="auto", progress=None,
              hosts=None):
    """Execute a job graph; returns ``{name: JobOutcome}``.

    ``backend`` picks the execution backend (``auto``/``inline``/
    ``workers``/``remote``; see :func:`_resolve_backend_choice`
    for the ``auto`` policy).  ``hosts`` names the worker daemons of the
    ``remote`` backend (``HOST:PORT,...``; default
    ``REPRO_SCHED_HOSTS``).  Every backend runs through the same pump
    loop: cache-missing leaf jobs go to the backend (heaviest-first
    unless it is serial) and their results stream back one at a time.
    Merge jobs always run in the parent, as soon as their dependencies
    complete, so the merged tables are identical regardless of
    backend, worker count or steal schedule.  Cache lookups and stores
    happen only in the parent — worker processes never touch the cache
    directory.

    ``progress``, when given, is called after every finished job with a
    dict ``{"name", "mode", "cached", "seconds", "done", "total",
    "outstanding"}`` — what the report CLI's ``--live`` view renders.
    It runs on the scheduler thread; keep it cheap and never raise.
    """
    by_name, order, dependents = _check_graph(jobs)
    chosen, eff_workers = _resolve_backend_choice(backend, workers)
    results: Dict[str, object] = {}
    outcomes: Dict[str, JobOutcome] = {}
    total = len(by_name)
    waiting = {name: len(by_name[name].deps) for name in by_name}
    ready = [name for name in order if waiting[name] == 0]
    reg = obs.registry()

    with make_backend(chosen, eff_workers, hosts=hosts) as pool, \
            obs.span("graph:run", cat="orchestrator", jobs=total,
                     backend=chosen, workers=eff_workers):
        if not pool.serial:
            # Heaviest-first shortens a parallel makespan.  A serial
            # backend gains nothing from it and keeps the declared
            # order, which also keeps the fault campaigns' cached golden
            # state out of the power runs' memory peak.
            ready.sort(key=lambda n: -by_name[n].weight)

        def settle(outcome, t0, **event_args):
            """Record one finished job, then launch what it unblocks."""
            name = outcome.name
            obs.complete_event(f"job:{name}", t0, outcome.seconds,
                               cat="orchestrator", mode=outcome.mode,
                               cached=outcome.cached, **event_args)
            _note_outcome(outcome)
            outcomes[name] = outcome
            results[name] = outcome.value
            if progress is not None:
                progress({"name": name, "mode": outcome.mode,
                          "cached": outcome.cached,
                          "seconds": outcome.seconds,
                          "done": len(outcomes), "total": total,
                          "outstanding": pool.outstanding})
            for dependent in dependents[name]:
                waiting[dependent] -= 1
                if waiting[dependent] == 0:
                    launch(dependent)

        def launch(name):
            jb = by_name[name]
            t0 = time.perf_counter()
            if jb.deps:
                # Merge: deps are complete by construction when queued.
                deps = {dep: results[dep] for dep in jb.deps}
                value = resolve_fn(jb.fn)(deps, **dict(jb.params))
                settle(JobOutcome(name, value, time.perf_counter() - t0,
                                  cached=False, mode="inline"), t0)
                return
            if jb.cacheable and cache is not None:
                hit, value = cache.load(jb)
                if hit:
                    settle(JobOutcome(name, value, time.perf_counter() - t0,
                                      cached=True, mode="cache"), t0)
                    return
            fingerprint = key_digest(job_key(
                cache.fingerprint if cache is not None else "", jb))
            trace_ctx = None
            if obs.is_tracing():
                # One flow arrow per submitted leaf: tail here (inside
                # the graph span), head inside the backend's leaf span.
                trace_ctx = dict(obs.current_context() or {},
                                 flow=obs.new_span_id())
                obs.flow_start(f"sched:{name}", trace_ctx["flow"],
                               cat="orchestrator")
            pool.submit(LeafTask(name=name, fn=jb.fn, params=jb.params,
                                 weight=jb.weight,
                                 fingerprint=fingerprint,
                                 trace_ctx=trace_ctx))
            reg.gauge("orchestrator.leaves.inflight", pool.outstanding)

        for name in ready:
            launch(name)
        while pool.outstanding:
            res = pool.next_result()
            reg.gauge("orchestrator.leaves.inflight", pool.outstanding)
            if not res.ok:
                raise_leaf_failure(res)
            # Stream the worker's spans/metrics in the moment the leaf
            # lands, not at pool join.
            if res.obs_payload:
                obs.task_merge(res.obs_payload)
            jb = by_name[res.name]
            if jb.cacheable and cache is not None:
                cache.store(jb, res.value)
            settle(JobOutcome(res.name, res.value, res.seconds,
                              cached=False, mode=pool.mode),
                   time.perf_counter() - res.seconds, worker=res.worker)
        reg.gauge("orchestrator.leaves.inflight", 0)
    return outcomes


# ----------------------------------------------------------------------
# the experiment registry (graph builders)
# ----------------------------------------------------------------------

def _merge_keyed(deps, _build=None, _keys=(), _prefix=""):
    """Generic merge: collect ``{prefix}/{key}`` deps, hand to a builder."""
    values = {key: deps[f"{_prefix}/{key}"] for key in _keys}
    return resolve_fn(_build)(values)


def _build_table3(values):
    from repro.eval import experiments as ex

    return ex.Table3Result(power_mw=values, paper=ex.PAPER["table3"])


def _build_table5(values):
    from repro.eval import experiments as ex

    measured = {fmt: values[fmt] for fmt in ex.TABLE5_FLOPS}
    return ex.Table5Result(measured=measured, paper=ex.PAPER["table5"],
                           max_freq_mhz=values["max_freq"])


def _merge_sweep(deps, _title="", _order=()):
    from repro.eval.sweep import SweepResult

    return SweepResult(title=_title, points=[deps[name] for name in _order])


def _merge_fault(deps, _order=(), **params):
    from repro.eval.fault_injection import merge_coverage

    return merge_coverage([deps[name] for name in _order])


def _single(fn, weight=1.0):
    """Builder for an experiment that is one leaf job."""
    def build(name, params):
        return [job(name, fn, weight=weight, **params)]
    return build


#: Target glitch-replay transitions per stealable Monte Carlo leaf.
MC_SHARD_TRANSITIONS = 16


def _merge_mc_shards(deps, _finish=None, _order=(), **params):
    """Per-point merge: ordered shard outputs into a finish function."""
    shards = [deps[name] for name in _order]
    return resolve_fn(_finish)(shards=shards, **params)


def _mc_point_jobs(point_name, leaf_fn, shard_fn, finish_fn, weight,
                   point_params):
    """Jobs for one Monte Carlo power point.

    When the shard plan has more than one cycle window the point
    decomposes into per-window stealable leaves plus a deterministic
    parent-side merge (named ``point_name``, so downstream deps are
    unchanged).  A single-window plan keeps the classic monolithic leaf
    — same name, same cache key, no merge overhead.
    """
    from repro.hdl.power.monte_carlo import power_shard_plan

    n_cycles = point_params.get("n_cycles", 64)
    windows = power_shard_plan(n_cycles, MC_SHARD_TRANSITIONS)
    if len(windows) <= 1:
        return [job(point_name, leaf_fn, weight=weight, **point_params)]
    shard_weight = max(weight / len(windows), 0.5)
    leaves = [job(f"{point_name}/t{a}-{b}", shard_fn, weight=shard_weight,
                  t_first=a, t_last=b, **point_params)
              for a, b in windows]
    return leaves + [job(point_name, _merge_mc_shards,
                         deps=[leaf.name for leaf in leaves],
                         cacheable=False, _finish=finish_fn,
                         _order=tuple(leaf.name for leaf in leaves),
                         **point_params)]


def _table3_jobs(name, params):
    from repro.eval.experiments import TABLE3_CONFIGS

    jobs = []
    for key, __ in TABLE3_CONFIGS:
        jobs.extend(_mc_point_jobs(
            f"{name}/{key}",
            "repro.eval.experiments:table3_power_point",
            "repro.eval.experiments:table3_power_shard",
            "repro.eval.experiments:table3_point_from_shards",
            4.0, dict(params, key=key)))
    return jobs + [job(name, _merge_keyed,
                       deps=[f"{name}/{key}"
                             for key, __ in TABLE3_CONFIGS],
                       cacheable=False,
                       _build="repro.eval.orchestrator:_build_table3",
                       _keys=tuple(key for key, __ in TABLE3_CONFIGS),
                       _prefix=name)]


def _table5_jobs(name, params):
    from repro.eval.experiments import TABLE5_FLOPS

    jobs = []
    for fmt in TABLE5_FLOPS:
        jobs.extend(_mc_point_jobs(
            f"{name}/{fmt}",
            "repro.eval.experiments:table5_format_point",
            "repro.eval.experiments:table5_power_shard",
            "repro.eval.experiments:table5_point_from_shards",
            3.0, dict(params, fmt=fmt)))
    jobs.append(job(f"{name}/max_freq",
                    "repro.eval.experiments:mf_max_freq_mhz", weight=0.5))
    keys = tuple(TABLE5_FLOPS) + ("max_freq",)
    return jobs + [job(name, _merge_keyed,
                       deps=[f"{name}/{key}" for key in keys],
                       cacheable=False,
                       _build="repro.eval.orchestrator:_build_table5",
                       _keys=keys, _prefix=name)]


def _activity_jobs(name, params):
    from repro.eval.activity import ACTIVITY_FORMATS

    leaves = [job(f"{name}/{fmt}", "repro.eval.activity:activity_point",
                  fmt=fmt, weight=2.0, **params)
              for fmt in ACTIVITY_FORMATS]
    return leaves + [job(name, _merge_keyed,
                         deps=[leaf.name for leaf in leaves],
                         cacheable=False,
                         _build="repro.eval.activity:breakdown_from_points",
                         _keys=ACTIVITY_FORMATS, _prefix=name)]


def _sweep_jobs_factory(title, leaf_fn, configs):
    """Builder for a sweep: one leaf per design point + ordered merge.

    ``configs`` is a sequence of ``(suffix, leaf_params)`` pairs in
    rendering order.
    """
    def build(name, params):
        leaves = [job(f"{name}/{suffix}", leaf_fn, weight=1.5,
                      **{**leaf_params, **params})
                  for suffix, leaf_params in configs]
        return leaves + [job(name, _merge_sweep,
                             deps=[leaf.name for leaf in leaves],
                             cacheable=False, _title=title,
                             _order=tuple(leaf.name for leaf in leaves))]
    return build


def _fault_jobs_factory(which, default_mutations, default_seed):
    def build(name, params):
        from repro.eval.fault_injection import chunk_plan

        p = {"n_mutations": default_mutations, "seed": default_seed,
             "chunks": None, "battery_patterns": None, **params}
        plan = chunk_plan(p["n_mutations"], p["seed"], p["chunks"])
        leaves = [job(f"{name}/chunk{i}",
                      "repro.eval.fault_injection:coverage_chunk",
                      which=which, n_mutations=size, seed=chunk_seed,
                      battery_patterns=p["battery_patterns"], weight=5.0)
                  for i, (chunk_seed, size) in enumerate(plan)]
        return leaves + [job(name, _merge_fault,
                             deps=[leaf.name for leaf in leaves],
                             cacheable=False,
                             _order=tuple(leaf.name for leaf in leaves))]
    return build


def _sweep_configs():
    from repro.eval import sweep as sw

    radix = [(f"r{1 << k}", {"radix_log2": k}) for k, __ in sw.RADIX_POINTS]
    cpa = [(style, {"style": style}) for style in sw.CPA_STYLES]
    cut = [(str(c).lower(), {"cut": c}) for c in sw.PIPELINE_CUTS]
    tree = [(f"r{1 << k}_{'42' if use42 else '32'}",
             {"radix_log2": k, "use_4_2": use42})
            for k, __, use42 in sw.TREE_POINTS]
    spec = [(label, {"label": label}) for label in sw.SPECIALIZATION_LABELS]
    return radix, cpa, cut, tree, spec


def _registry():
    radix, cpa, cut, tree, spec = _sweep_configs()
    return {
        "table1": _single("repro.eval.experiments:experiment_table1",
                          weight=2.0),
        "table2": _single("repro.eval.experiments:experiment_table2",
                          weight=2.0),
        "table3": _table3_jobs,
        "table4": _single("repro.eval.experiments:experiment_table4",
                          weight=0.1),
        "table5": _table5_jobs,
        "fig1": _single("repro.eval.experiments:experiment_fig1_ppgen",
                        weight=0.5),
        "fig2": _single("repro.eval.experiments:experiment_fig2_multiplier",
                        weight=0.5),
        "fig3": _single("repro.eval.experiments:experiment_fig3_normround",
                        weight=0.5),
        "fig4": _single("repro.eval.experiments:experiment_fig4_dual_lane",
                        weight=0.5),
        "fig5": _single("repro.eval.experiments:experiment_fig5_pipeline",
                        weight=1.0),
        "fig6": _single("repro.eval.experiments:experiment_fig6_reduction",
                        weight=0.5),
        "section4": _single(
            "repro.eval.experiments:experiment_section4_savings", weight=0.5),
        "activity": _activity_jobs,
        "sweep_radix": _sweep_jobs_factory(
            "Ablation: radix", "repro.eval.sweep:radix_point", radix),
        "sweep_cpa": _sweep_jobs_factory(
            "Ablation: CPA style", "repro.eval.sweep:cpa_point", cpa),
        "sweep_pipeline_cut": _sweep_jobs_factory(
            "Ablation: pipeline cut", "repro.eval.sweep:cut_point", cut),
        "sweep_tree": _sweep_jobs_factory(
            "Ablation: tree style", "repro.eval.sweep:tree_point", tree),
        "sweep_specialization": _sweep_jobs_factory(
            "Ablation: format specialization",
            "repro.eval.sweep:specialization_point", spec),
        "fault_r16": _fault_jobs_factory("r16", 40, 7),
        "fault_mf": _fault_jobs_factory("mf", 40, 8),
    }


def experiment_names():
    """Every orchestratable experiment entry point, in canonical order."""
    return tuple(_registry())


def build_jobs(name, params=None):
    """The job graph for one experiment; its final job is named ``name``."""
    registry = _registry()
    if name not in registry:
        raise SimulationError(
            f"unknown experiment {name!r}; choose from "
            f"{', '.join(registry)}")
    return registry[name](name, dict(params or {}))


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------

def run_experiment(name, workers=0, cache=True, backend="auto",
                   hosts=None, **params):
    """Run one experiment through the orchestrator; returns its result.

    This is what the benchmark drivers call: repeated benchmark
    *processes* then share the warm on-disk module and result caches
    instead of rebuilding private state.  ``cache`` accepts ``True``
    (default on-disk cache), ``False`` (no caching) or a
    :class:`ResultCache` instance; ``backend`` one of ``auto``/
    ``inline``/``workers``/``remote`` (``hosts`` names the
    remote backend's worker daemons).
    """
    outcomes = run_graph(build_jobs(name, params), workers=workers,
                         cache=resolve_cache(cache), backend=backend,
                         hosts=hosts)
    return outcomes[name].value


def run_experiments(requests, workers=0, cache=True, backend="auto",
                    progress=None, hosts=None):
    """Run several experiments as one shared graph.

    ``requests`` is a sequence of ``(name, params)`` pairs; returns
    ``({name: result}, [JobOutcome ...])`` with outcomes in
    deterministic job order.  All experiments share one backend and one
    cache for the whole batch.  ``progress`` is forwarded to
    :func:`run_graph` (the ``--live`` per-job callback).
    """
    jobs: List[Job] = []
    finals = []
    for name, params in requests:
        jobs.extend(build_jobs(name, params))
        finals.append(name)
    outcomes = run_graph(jobs, workers=workers,
                         cache=resolve_cache(cache), backend=backend,
                         progress=progress, hosts=hosts)
    results = {name: outcomes[name].value for name in finals}
    ordered = [outcomes[jb.name] for jb in jobs]
    return results, ordered
