"""One-command reproduction report.

``generate_report`` regenerates the paper's complete evidence — every
table and figure, the ablation sweeps, the Sec. III-E activity
decomposition and the fault-injection campaigns — and assembles a
single markdown document (paper vs measured throughout), the artifact
to attach to a reproduction claim.

The heavy lifting routes through :mod:`repro.eval.orchestrator`: each
section is an experiment job graph, fanned out over worker processes
(``workers=N``) and memoized in the persistent result cache, with the
sections rendered in fixed order so the document is byte-identical
across serial, parallel and cache-served runs.

Exposed on the CLI as ``python -m repro.eval.report`` (see ``--help``);
``python -m repro report`` is the same command.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro import obs

#: Default location of the assembled report.
DEFAULT_OUTPUT = (Path(__file__).resolve().parents[3]
                  / "benchmarks" / "results" / "full_report.txt")


def report_sections(n_cycles=12, include_sweeps=True,
                    include_verification=True, mutations=12):
    """The ordered ``(title, experiment, params)`` section list."""
    sections: List[Tuple[str, str, Dict]] = [
        ("Table I — radix-16 multiplier", "table1", {}),
        ("Table II — radix-4 baseline", "table2", {}),
        ("Table III — power, combinational vs pipelined", "table3",
         {"n_cycles": n_cycles}),
        ("Table IV — IEEE 754 formats", "table4", {}),
        ("Table V — multi-format power/efficiency", "table5",
         {"n_cycles": n_cycles}),
        ("Fig. 1 — PPGEN", "fig1", {}),
        ("Fig. 2 — multiplier structure", "fig2", {}),
        ("Fig. 3 — speculative rounding", "fig3", {"samples": 1000}),
        ("Fig. 4 — dual-lane array", "fig4", {}),
        ("Fig. 5 — 3-stage pipeline", "fig5", {}),
        ("Fig. 6 — binary64 -> binary32 reducer", "fig6",
         {"n_random": 5000}),
        ("Sec. IV — demotion savings", "section4", {"n_ops": 200}),
        ("Sec. III-E — activity decomposition", "activity",
         {"n_cycles": n_cycles}),
    ]
    if include_sweeps:
        sections += [
            ("Ablation — radix", "sweep_radix", {}),
            ("Ablation — CPA style", "sweep_cpa", {}),
            ("Ablation — pipeline cut", "sweep_pipeline_cut", {}),
            ("Ablation — tree style", "sweep_tree", {}),
            ("Ablation — format specialization", "sweep_specialization", {}),
        ]
    if include_verification:
        sections += [
            ("Verification — mutation coverage (radix-16)", "fault_r16",
             {"n_mutations": mutations}),
            ("Verification — mutation coverage (MF unit)", "fault_mf",
             {"n_mutations": mutations}),
        ]
    return sections


def generate_report(n_cycles=12, out_path=None, include_sweeps=False,
                    include_verification=False, mutations=12, workers=0,
                    cache=True, filters=None, metrics=None,
                    backend="auto", progress=None, hosts=None):
    """Run all experiments; returns the report text (and writes it).

    ``n_cycles`` controls Monte Carlo depth (power experiments);
    ``include_sweeps`` adds the ablation tables and
    ``include_verification`` the mutation-coverage campaigns.
    ``workers`` fans the job graph out over that many processes
    (``<= 1`` runs serially — same bytes either way) and ``backend``
    picks the execution backend (``auto``/``inline``/``workers``/
    ``remote`` — the latter running leaves on the worker
    daemons named by ``hosts``; see :mod:`repro.eval.sched`); ``cache`` is
    ``True``/``False`` or a :class:`repro.eval.orchestrator.ResultCache`.
    ``filters`` (substrings matched against experiment names) narrows
    the section list.  ``metrics``, when a dict, is filled with the
    metrics-registry snapshot of the run (the ``repro.obs/1`` schema
    that ``--json`` and ``--metrics-json`` emit).  ``progress`` is the
    per-finished-job callback :func:`repro.eval.orchestrator.run_graph`
    documents — the CLI's ``--live`` view.
    """
    from repro.eval.orchestrator import run_experiments

    reg = obs.registry()
    reg.reset()             # scope the snapshot to exactly this report
    with _gc_ledger(reg):
        sections = report_sections(n_cycles=n_cycles,
                                   include_sweeps=include_sweeps,
                                   include_verification=include_verification,
                                   mutations=mutations)
        if filters:
            sections = [s for s in sections
                        if any(f in s[1] or f in s[0] for f in filters)]

        reg.gauge("report.workers", workers)
        reg.annotate("report.backend", backend)
        if hosts:
            reg.annotate("report.hosts",
                         hosts if isinstance(hosts, str) else list(hosts))
        t0 = time.perf_counter()
        with obs.span("report:experiments", cat="report",
                      sections=len(sections), workers=workers,
                      backend=backend):
            results, outcomes = run_experiments(
                [(name, params) for __, name, params in sections],
                workers=workers, cache=cache, backend=backend,
                progress=progress, hosts=hosts)
        wall_s = time.perf_counter() - t0

        with obs.span("report:render", cat="report"):
            buf = io.StringIO()
            w = buf.write
            w("# Reproduction report\n\n")
            w("Nannarelli, *A Multi-Format Floating-Point Multiplier for "
              "Power-Efficient Operations*, SOCC 2017.\n\n")
            w("Generated by `python -m repro.eval.report`; see EXPERIMENTS.md "
              "for the committed reference numbers and deviation notes.\n\n")
            for title, name, __ in sections:
                w(f"## {title}\n\n```\n")
                w(results[name].render())
                w("\n```\n\n")
            text = buf.getvalue()

        if out_path is not None:
            out_path = Path(out_path)
            out_path.parent.mkdir(parents=True, exist_ok=True)
            out_path.write_text(text)

        # Per-job rows in deterministic job order (the orchestrator's own
        # ``orchestrator.jobs`` records arrive in completion order).
        for o in outcomes:
            reg.inc("report.jobs")
            if o.cached:
                reg.inc("report.cache_hits")
            reg.record("report.jobs",
                       {"name": o.name, "seconds": round(o.seconds, 4),
                        "cached": o.cached, "mode": o.mode})
        reg.observe("report.wall", wall_s)
        reg.annotate("report.sections", [name for __, name, ___ in sections])
        reg.annotate("report.output",
                     str(out_path) if out_path is not None else None)

    if metrics is not None:
        metrics.update(reg.snapshot())
    return text


@contextlib.contextmanager
def _gc_ledger(reg):
    """Count the cyclic garbage collector's collections per generation
    (``runtime.gc.collections.gen0|1|2``) and their summed pause
    (``runtime.gc.pause_s``) in this process while the block runs.

    The callback only bumps local totals, which reach ``reg`` when the
    block ends: it can fire inside any allocation, including one made
    while the registry holds its lock."""
    counts = [0, 0, 0]
    clock = [0.0, 0.0]      # start of the running collection, total pause

    def on_gc(phase, info):
        if phase == "start":
            clock[0] = time.perf_counter()
        else:
            clock[1] += time.perf_counter() - clock[0]
            counts[info["generation"]] += 1

    gc.callbacks.append(on_gc)
    try:
        yield
    finally:
        gc.callbacks.remove(on_gc)
        for generation, n in enumerate(counts):
            reg.inc(f"runtime.gc.collections.gen{generation}", n)
        reg.inc("runtime.gc.pause_s", clock[1])


def _mutations_arg(text):
    """``--mutations`` type: a fault campaign needs at least one
    mutation."""
    mutations = int(text)
    if mutations < 1:
        raise argparse.ArgumentTypeError(
            f"{mutations}: a fault campaign needs at least one mutation")
    return mutations


def _live_printer(stream=None):
    """The ``--live`` progress renderer: one status line per finished job.

    Writes to stderr so piped/stdout consumers (``--json``, the report
    text) stay clean; on a TTY the line updates in place.
    """
    stream = stream if stream is not None else sys.stderr
    t0 = time.perf_counter()
    is_tty = getattr(stream, "isatty", lambda: False)()

    def show(info):
        mode = "cache" if info["cached"] else info["mode"]
        line = (f"[{info['done']:>3}/{info['total']}] "
                f"{info['name'][:46]:<46} {mode:<7}"
                f"{info['seconds']:7.2f}s  "
                f"in-flight {info['outstanding']:<3} "
                f"elapsed {time.perf_counter() - t0:6.1f}s")
        print(line, file=stream, end="\r" if is_tty else "\n", flush=True)

    show.finish = lambda: is_tty and print(file=stream)
    return show


def _cache_hit_rate():
    reg = obs.registry()
    jobs = reg.counter_value("orchestrator.jobs")
    if not jobs:
        return None
    return reg.counter_value("orchestrator.jobs.cached") / jobs


def _start_report_telemetry(port):
    """The orchestrator's opt-in telemetry: endpoint + sampled series."""
    from repro.obs.http import TelemetryServer

    sampler = obs.sampler()
    reg = obs.registry()
    sampler.add_source(
        "orchestrator.leaves.inflight",
        lambda: reg.gauge_value("orchestrator.leaves.inflight", 0))
    sampler.add_source("orchestrator.cache.hit_rate", _cache_hit_rate)
    sampler.start()
    return TelemetryServer(port=port).start()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.report",
        description="Regenerate the complete paper-vs-measured report "
                    "in one command: all tables and figures, the "
                    "ablation sweeps, the activity decomposition and "
                    "the mutation-coverage campaigns, orchestrated "
                    "over worker processes with a persistent result "
                    "cache.")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the job graph "
                             "(default 1 = serial; same output bytes "
                             "either way)")
    from repro.eval.sched import BACKEND_CHOICES
    from repro.hdl.power.monte_carlo import cycles_arg

    parser.add_argument("--backend", default="auto",
                        choices=BACKEND_CHOICES,
                        help="execution backend for the job graph: "
                             "auto (inline when serial or "
                             "oversubscribed, else workers), inline, "
                             "the work-stealing 'workers' pool, or "
                             "'remote' worker daemons (default auto)")
    parser.add_argument("--hosts", default=os.environ.get(
                            "REPRO_SCHED_HOSTS") or None,
                        metavar="HOST:PORT,...",
                        help="worker daemons for --backend remote "
                             "(default: REPRO_SCHED_HOSTS)")
    parser.add_argument("--filter", action="append", default=None,
                        metavar="SUBSTR",
                        help="only sections whose experiment name or "
                             "title contains SUBSTR (repeatable)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not update the persistent "
                             "result cache")
    parser.add_argument("--json", action="store_true",
                        help="print the metrics-registry snapshot "
                             "(repro.obs/1 schema) instead of the "
                             "human-readable summary")
    parser.add_argument("--metrics-json", metavar="PATH", default=None,
                        help="additionally write the metrics snapshot "
                             "(same repro.obs/1 schema as --json) to "
                             "PATH")
    parser.add_argument("--live", action="store_true",
                        help="stream per-job progress lines to stderr "
                             "as leaves finish (fed by the backends' "
                             "streamed results)")
    parser.add_argument("--telemetry-port", type=int, default=None,
                        metavar="PORT",
                        help="serve live /metrics, /metrics.json, "
                             "/series.json and /healthz on "
                             "127.0.0.1:PORT for the duration of the "
                             "run (0 = ephemeral port, printed to "
                             "stderr)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record Chrome trace-event spans (jobs, "
                             "cache probes, module builds, compiles, "
                             "replays) and write them to PATH — load in "
                             "https://ui.perfetto.dev")
    parser.add_argument("--cycles", type=cycles_arg, default=12,
                        help="Monte Carlo cycles for the power "
                             "experiments (at least 2; default 12)")
    parser.add_argument("--mutations", type=_mutations_arg, default=12,
                        help="mutations per fault-injection campaign "
                             "(default 12)")
    parser.add_argument("--no-sweeps", action="store_true",
                        help="skip the ablation sweep sections")
    parser.add_argument("--no-verification", action="store_true",
                        help="skip the mutation-coverage sections")
    parser.add_argument("--output", default=None,
                        help=f"report path (default {DEFAULT_OUTPUT}, "
                             "the committed report: only a run of every "
                             "section at the default --cycles and "
                             "--mutations may write it)")
    args = parser.parse_args(argv)
    if args.output is None:
        # The default path holds the committed CLI-defaults report; a
        # partial or re-parameterized run must not overwrite it.
        changed = [flag for flag, differs in (
            ("--filter", args.filter),
            ("--no-sweeps", args.no_sweeps),
            ("--no-verification", args.no_verification),
            ("--cycles", args.cycles != parser.get_default("cycles")),
            ("--mutations",
             args.mutations != parser.get_default("mutations")),
        ) if differs]
        if changed:
            parser.error(f"a run with {', '.join(changed)} differs from "
                         f"the committed report; pass --output PATH (the "
                         f"default {DEFAULT_OUTPUT} is the committed "
                         "CLI-defaults report)")
        args.output = str(DEFAULT_OUTPUT)

    if args.trace:
        obs.start_trace()
    telemetry = None
    if args.telemetry_port is not None:
        telemetry = _start_report_telemetry(args.telemetry_port)
        print(f"telemetry: {telemetry.url}", file=sys.stderr)
    progress = _live_printer() if args.live else None
    metrics: Dict = {}
    try:
        generate_report(
            n_cycles=args.cycles,
            out_path=args.output,
            include_sweeps=not args.no_sweeps,
            include_verification=not args.no_verification,
            mutations=args.mutations,
            workers=args.workers,
            cache=not args.no_cache,
            filters=args.filter,
            metrics=metrics,
            backend=args.backend,
            progress=progress,
            hosts=args.hosts,
        )
    finally:
        if progress is not None:
            progress.finish()
        if telemetry is not None:
            telemetry.stop()
    n_trace = None
    if args.trace:
        n_trace = obs.write_trace(args.trace)
    if args.metrics_json:
        with open(args.metrics_json, "w") as fh:
            json.dump(metrics, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.json:
        print(json.dumps(metrics, indent=2, sort_keys=True))
        return 0

    # The human summary is a rendering of the same snapshot --json and
    # --metrics-json emit — one source of truth.
    counters = metrics["counters"]
    print(f"{'job':<42} {'mode':<8} {'seconds':>8}")
    for entry in metrics["records"].get("report.jobs", ()):
        print(f"{entry['name']:<42} {entry['mode']:<8} "
              f"{entry['seconds']:>8.3f}")
    wall = metrics["timers"].get("report.wall", {}).get("total", 0.0)
    workers = metrics["gauges"].get("report.workers", args.workers)
    print(f"\n{counters.get('report.jobs', 0)} jobs, "
          f"{counters.get('report.cache_hits', 0)} served from cache, "
          f"{wall:.2f}s wall with {workers:g} worker(s)")
    print(f"wrote {metrics['meta'].get('report.output', args.output)}")
    if n_trace is not None:
        print(f"wrote {args.trace} ({n_trace} trace events)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
