"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro                      # the paper's tables and figures
    python -m repro table3 table5        # selected experiments
    python -m repro --cycles 32 table3   # deeper Monte Carlo
    python -m repro sweep_radix fault_r16
                                         # any name in experiment_names()
    python -m repro export-verilog mf out.v
    python -m repro report --workers 2   # full report (= repro.eval.report)
    python -m repro cache stats          # result-cache maintenance
    python -m repro perf record          # append BENCH_* to perf history
    python -m repro perf check           # gate vs the rolling baseline
    python -m repro worker serve --bind 0.0.0.0:9700 --workers 8
                                         # serve this box's cores to
                                         # --backend remote coordinators

Experiment targets are the orchestrator's ``experiment_names()``; they
run as one inline ``run_experiments`` batch over the default result
cache, with the params of their section in the full report, so each
printed body equals that report section at the same ``--cycles``.
"""

import argparse
import importlib
import sys

#: Subcommands that delegate to their own module's ``main(argv)``.
_SUBCOMMANDS = {
    "report": "repro.eval.report",
    "cache": "repro.eval.cache",
    "perf": "repro.eval.perf",
    "worker": "repro.eval.sched.daemon",
}


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SUBCOMMANDS:
        # Each subcommand owns its CLI; hand it the remaining arguments.
        module = importlib.import_module(_SUBCOMMANDS[argv[0]])
        return module.main(argv[1:])

    from repro.hdl.power.monte_carlo import cycles_arg

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the tables and figures of Nannarelli, "
                    "'A Multi-Format Floating-Point Multiplier for "
                    "Power-Efficient Operations', SOCC 2017.")
    parser.add_argument("targets", nargs="*",
                        help="experiments to run (default: the paper's "
                             "tables and figures); or "
                             "'export-verilog <which> <path>' where "
                             "<which> is one of r4/r8/r16/mf/reducer")
    parser.add_argument("--cycles", type=cycles_arg, default=16,
                        help="Monte Carlo cycles for the power "
                             "experiments (at least 2; default 16)")
    args = parser.parse_args(argv)

    if args.targets and args.targets[0] == "export-verilog":
        return _export_verilog(args.targets[1:])

    from repro.eval.orchestrator import experiment_names, run_experiments
    from repro.eval.report import report_sections

    # The report's section table gives every experiment its params, so
    # each body printed here is byte-identical to its report section.
    params = {name: p for __, name, p in report_sections(
        n_cycles=args.cycles, include_sweeps=True,
        include_verification=True)}
    targets = args.targets or [name for __, name, ___ in report_sections(
        include_sweeps=False, include_verification=False)]
    known = experiment_names()
    unknown = [t for t in targets if t not in known]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}; "
                     f"choose from {', '.join(known)}")
    results, __ = run_experiments([(t, params[t]) for t in targets])
    for target in targets:
        print(f"===== {target} =====")
        print(results[target].render())
        print()
    return 0


def _export_verilog(rest):
    if len(rest) != 2:
        print("usage: python -m repro export-verilog "
              "<r4|r8|r16|mf|reducer> <path>", file=sys.stderr)
        return 2
    which, path = rest
    from repro.eval.experiments import cached_module
    from repro.hdl.export import write_verilog

    try:
        module = cached_module(which)
    except KeyError:
        print(f"unknown module {which!r}; choose r4/r8/r16/mf/reducer",
              file=sys.stderr)
        return 2
    write_verilog(module, path)
    print(f"wrote {module.name!r} ({len(module.gates)} cells, "
          f"{len(module.registers)} FFs) to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
