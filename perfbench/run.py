"""The repository's benchmark: one workload per invocation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve_burst --seed 1 \
        --seconds 10 --trace 0

Workloads: ``serve_burst``, ``serve_paced``, ``report_cold`` and
``power_deep`` (see ``workloads.py`` and ``README.md``).  Every measured
step runs in a fresh child process (``child.py``) so set-up is paid, and
timed, the way a user pays it:

1. a prepare child fills the on-disk module pickle cache and builds the
   C event kernel under ``.perfbench/`` (the build step; untimed);
2. with ``--trace 0``: two set-up-only children plus the measuring
   child give three ``setup_s`` samples (their median is reported) and
   the measuring child(ren) the end-to-end metrics;
3. with ``--trace 1``: one untraced and one traced measuring child give
   the per-layer metrics and the tracing overhead.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it,
``ran as: {...}``, records how the run actually executed.  ``--corrupt``
flips one output before it is checked (the self-test's switch).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"

#: Wall budget of one invocation; children are killed past it.
BUDGET_S = 170.0
SETUP_ONLY_CHILDREN = 2


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env():
    """The children's environment: no inherited ``REPRO_*`` knobs, every
    cache inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               REPRO_MODULE_CACHE=str(WORKDIR / "modules"),
               REPRO_CKERNEL_CACHE=str(WORKDIR / "ckernel"),
               REPRO_RESULT_CACHE=str(WORKDIR / "results-default"),
               TMPDIR=str(WORKDIR / "tmp"))
    return env


class Children:
    """Runs child processes one at a time within the invocation budget."""

    def __init__(self, args):
        self.args = args
        self.env = child_env()
        self.deadline = time.monotonic() + BUDGET_S
        self.n = 0

    def run(self, phase, trace=False):
        self.n += 1
        out = WORKDIR / "tmp" / f"child-{os.getpid()}-{self.n}.json"
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", self.args.workload, "--seed",
               str(self.args.seed), "--seconds", str(self.args.seconds),
               "--phase", phase, "--workdir", str(WORKDIR),
               "--out", str(out)]
        if trace:
            cmd.append("--trace")
        if self.args.corrupt and phase == "measure":
            cmd.append("--corrupt")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("out of time before the run finished")
        # run() kills and reaps the child on timeout.
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT,
                              stdin=subprocess.DEVNULL, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=remaining)
        if proc.returncode != 0:
            raise RuntimeError(f"{phase} child exited with {proc.returncode}")
        with open(out) as fh:
            result = json.load(fh)
        out.unlink()
        return result


def violations(ran_as, workload):
    """Ways the run did not execute as the benchmark specifies.

    A silent C-kernel fallback, a scheduler downgrade or a wrong word
    width makes the run incorrect instead of merely slow.
    """
    found = []
    expected = ran_as.get("expected_event_kernel")
    for design, kernel in ran_as.get("event_kernel", {}).items():
        if kernel != expected:
            found.append(f"event kernel of {design} is {kernel}, "
                         f"expected {expected}")
    if workload == "report_cold" and (ran_as.get("backend") != "inline"
                                      or ran_as.get("downgraded")):
        found.append(f"report backend {ran_as.get('backend')} "
                     f"(downgraded={ran_as.get('downgraded')})")
    want_width = {"serve_burst": 512, "serve_paced": 64}.get(workload)
    if want_width and ran_as.get("word_patterns") != want_width:
        found.append(f"word_patterns {ran_as.get('word_patterns')}")
    return found


def end_to_end(setups, measures):
    """The reported figures: medians over set-ups and measuring children."""
    def median(key):
        return statistics.median(m[key] for m in measures)

    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (median("ops_per_s"), "1/s"),
        "op_p50_ms": (median("op_p50_ms"), "ms"),
        "op_p99_ms": (median("op_p99_ms"), "ms"),
        "peak_rss_mb": (max(m["peak_rss_mb"] for m in measures), "MB"),
    }


def cost_per_op(measure, workload):
    """The number tracing overhead is judged on: host time per operation,
    or for the paced loop (whose throughput is the offered rate) the
    median latency."""
    if workload == "serve_paced":
        return measure["op_p50_ms"]
    return 1.0 / measure["ops_per_s"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one output before it is checked")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no repro sources under {ROOT / 'src'}")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    (WORKDIR / "tmp").mkdir(parents=True, exist_ok=True)

    children = Children(args)
    try:
        children.run("prepare")
        if args.trace:
            untraced = children.run("measure")
            traced = children.run("measure", trace=True)
            measures = [untraced, traced]
            metrics = dict(traced["layers"])
            metrics["trace_overhead_frac"] = (
                cost_per_op(traced, args.workload)
                / cost_per_op(untraced, args.workload) - 1.0)
            metrics = {name: (metrics[name], unit) for name, unit in METRICS}
        else:
            setups = [children.run("setup")["setup_s"]
                      for __ in range(SETUP_ONLY_CHILDREN)]
            measures = []
            while not measures or sum(
                    m["windows"][-1][1] - m["windows"][0][0]
                    for m in measures) < args.seconds:
                measures.append(children.run("measure"))
            setups += [m["setup_s"] for m in measures]
            metrics = end_to_end(setups, measures)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        return fail(str(exc))

    ran_as = dict(measures[-1]["ran_as"], workload=args.workload,
                  seed=args.seed, seconds=args.seconds, trace=args.trace,
                  measuring_children=len(measures))
    problems = violations(ran_as, args.workload)
    attempted = sum(m["attempted"] for m in measures)
    failed = sum(m["failed"] for m in measures)
    ran_as["failed_frac"] = failed / max(attempted, 1)
    ran_as["violations"] = problems
    print("ran as: " + json.dumps(ran_as, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
