"""CLI: per-net power attribution for one module / stimulus format.

``python -m repro.eval.power_breakdown --format fp32x2`` runs the
multi-format unit's Monte Carlo power estimate with attribution enabled
and prints the glitch-vs-functional split by named sub-block, cell type
and pipeline stage, plus the top-N hot nets.  ``--module r16`` (or
another of :data:`MODULES`) breaks down the standalone multipliers
under the Table III random stimulus instead.

Attribution is a pure observer: the headline ``PowerReport`` numbers
are bit-identical with it on or off, and the per-block totals sum to
``PowerReport.total_mw`` — the CLI checks both and says so.
"""

import argparse
import json
import sys

from repro.eval.experiments import cached_module
from repro.eval.workloads import WorkloadGenerator
from repro.hdl.library import default_library
from repro.hdl.power.monte_carlo import cycles_arg, estimate_power

#: Accepted ``--format`` spellings; the paper writes the dual-lane
#: binary32 mode "fp32x2", the workload generator calls it "fp32_dual".
FORMAT_ALIASES = {
    "int64": "int64",
    "fp64": "fp64",
    "fp32_dual": "fp32_dual",
    "fp32x2": "fp32_dual",
    "fp32_single": "fp32_single",
    "fp32x1": "fp32_single",
}


#: The ``--module`` netlists a stimulus exists for: the multi-format
#: unit and the standalone multipliers.
MODULES = ("mf", "r4", "r4_pipe", "r8", "r16", "r16_pipe")


def run_breakdown(module_name="mf", fmt="fp32_dual", n_cycles=64,
                  seed=2017):
    """Estimate power with attribution and return ``(report, module)``."""
    module = cached_module(module_name)
    lib = default_library()
    gen = WorkloadGenerator(seed)
    if module_name == "mf":
        stim = gen.mf_stimulus(fmt, n_cycles)
    else:
        stim = gen.multiplier_stimulus(n_cycles)
    report = estimate_power(module, lib, stim, n_cycles, attribution=True)
    return report, module


def breakdown_json(report, module_name, fmt):
    """The ``--json`` payload: report headline plus full attribution."""
    att = report.attribution
    return {
        "schema": "repro.power_breakdown/1",
        "module": module_name,
        "format": fmt,
        "frequency_mhz": report.frequency_mhz,
        "total_mw": report.total_mw,
        "dynamic_mw": report.dynamic_mw,
        "register_mw": report.register_mw,
        "leakage_mw": report.leakage_mw,
        "glitch_mw": report.glitch_mw,
        "sim_stats": report.sim_stats,
        "attribution": {
            "glitch_retention": att.glitch_retention,
            "functional_mw": att.functional_mw(),
            "glitch_mw": att.glitch_mw(),
            "by_block": att.by_block,
            "by_cell": att.by_cell,
            "by_stage": {str(k): v for k, v in att.by_stage.items()},
            "hot_nets": att.hot_nets,
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.power_breakdown",
        description="Per-net power attribution (glitch vs functional, "
                    "by sub-block / cell / pipeline stage).")
    parser.add_argument("--module", default="mf", choices=MODULES,
                        help="netlist to break down (default mf)")
    parser.add_argument("--format", default="fp32_dual",
                        choices=sorted(FORMAT_ALIASES),
                        help="multi-format stimulus mode (mf module only; "
                             "fp32x2 == fp32_dual)")
    parser.add_argument("--cycles", type=cycles_arg, default=64,
                        help="Monte Carlo cycles (at least 2; default 64)")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--top", type=int, default=10,
                        help="hot nets to list (default 10)")
    parser.add_argument("--json", action="store_true",
                        help="emit the full breakdown as JSON")
    args = parser.parse_args(argv)

    fmt = FORMAT_ALIASES[args.format]
    report, module = run_breakdown(
        module_name=args.module, fmt=fmt, n_cycles=args.cycles,
        seed=args.seed)
    att = report.attribution

    if args.json:
        print(json.dumps(breakdown_json(report, args.module, fmt),
                         indent=2, sort_keys=True))
        return 0

    label = args.module if args.module != "mf" else f"mf [{fmt}]"
    print(f"{label}: {module.name} — {args.cycles} cycles, "
          f"seed {args.seed}")
    print(att.render(top=args.top))
    print()
    block_sum = att.total_mw()
    print(f"report total: {report.total_mw:.6f} mW  "
          f"(dynamic {report.dynamic_mw:.6f}, register "
          f"{report.register_mw:.6f}, leakage {report.leakage_mw:.6f})")
    print(f"block sum:    {block_sum:.6f} mW")
    err = abs(block_sum - report.total_mw) / max(report.total_mw, 1e-12)
    status = "OK" if err < 1e-9 else "MISMATCH"
    print(f"attribution check: {status} "
          f"(relative error {err:.2e}, tolerance 1e-09)")
    return 0 if err < 1e-9 else 1


if __name__ == "__main__":
    sys.exit(main())
