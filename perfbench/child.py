"""One benchmark child process: set up one workload, optionally measure it.

Run by ``run.py`` (never by hand) as::

    python3 perfbench/child.py --workload NAME --seed N --seconds S \
        --phase prepare|setup|measure [--trace] [--corrupt] \
        --workdir DIR --out RESULT.json

``--phase prepare`` is the untimed build step, ``--phase setup`` times a
fresh process getting ready, and ``--phase measure`` also generates the
seeded inputs and runs the timed window.  ``--trace`` wraps the layers
first (see ``tracer.py``) and adds the per-layer metrics.  The result is
one JSON object written to ``--out``.
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from workloads import (
    ALL_MODULES,
    WORKLOADS,
    expected_event_kernel,
    host_scale,
    peak_rss_mb,
)


def prepare():
    """The build step: fill the module pickle cache, build the C kernel."""
    from repro.eval.experiments import cached_module
    from repro.hdl.sim import ckernel

    for which in ALL_MODULES:
        cached_module(which)
    ckernel.load_kernel()


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", choices=("prepare", "setup", "measure"),
                        required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    if args.phase == "prepare":
        prepare()
        out = {}
    else:
        out = run_workload(args)
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


def run_workload(args):
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    workload = WORKLOADS[args.workload](args.workdir)
    scale_before = host_scale()
    t0 = time.perf_counter()
    workload.setup()
    raw_setup_s = time.perf_counter() - t0
    setup_s = raw_setup_s * (scale_before + host_scale()) / 2

    from repro import obs

    reg = obs.registry()
    ran_as = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "expected_event_kernel": expected_event_kernel(),
        "module_cache": {"hits": reg.counter_value("module_cache.hits"),
                         "misses": reg.counter_value("module_cache.misses")},
        "raw_setup_s": raw_setup_s,
    }
    out = {"setup_s": setup_s, "ran_as": ran_as}
    if args.phase == "measure":
        workload.make_inputs(args.seed, args.seconds)
        result = workload.measure(args.seconds, corrupt=args.corrupt)
        ran_as.update(workload.ran_as)
        out.update(result)
        out["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            out["layers"] = tracer.layer_metrics(
                result["windows"], result["units"],
                workload.late_ms)
            trace_path = (Path(args.workdir) / "traces"
                          / f"{args.workload}-seed{args.seed}.tsv.gz")
            ran_as["trace_file"] = str(trace_path)
            ran_as["trace_spans"] = tracer.write(trace_path)
            ran_as["untraced_targets"] = tracer.missing
    return out


if __name__ == "__main__":
    sys.exit(main())
