"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro                      # everything (fast settings)
    python -m repro table3 table5        # selected experiments
    python -m repro --cycles 32 table3   # deeper Monte Carlo
    python -m repro export-verilog mfmult out.v
    python -m repro cache stats          # result-cache maintenance
    python -m repro perf record          # append BENCH_* to perf history
    python -m repro perf check           # gate vs the rolling baseline
    python -m repro tune width           # measure + cache superword widths
    python -m repro worker serve --bind 0.0.0.0:9700 --workers 8
                                         # serve this box's cores to
                                         # --backend remote coordinators
"""

import argparse
import sys


def _experiment_registry():
    from repro.eval import experiments as ex

    return {
        "table1": lambda args: ex.experiment_table1(),
        "table2": lambda args: ex.experiment_table2(),
        "table3": lambda args: ex.experiment_table3(n_cycles=args.cycles),
        "table4": lambda args: ex.experiment_table4(),
        "table5": lambda args: ex.experiment_table5(n_cycles=args.cycles),
        "fig1": lambda args: ex.experiment_fig1_ppgen(),
        "fig2": lambda args: ex.experiment_fig2_multiplier(),
        "fig3": lambda args: ex.experiment_fig3_normround(),
        "fig4": lambda args: ex.experiment_fig4_dual_lane(),
        "fig5": lambda args: ex.experiment_fig5_pipeline(),
        "fig6": lambda args: ex.experiment_fig6_reduction(),
        "section4": lambda args: ex.experiment_section4_savings(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the tables and figures of Nannarelli, "
                    "'A Multi-Format Floating-Point Multiplier for "
                    "Power-Efficient Operations', SOCC 2017.")
    parser.add_argument("targets", nargs="*",
                        help="experiments to run (default: all); or "
                             "'export-verilog <which> <path>' where "
                             "<which> is one of r4/r8/r16/mf/reducer")
    parser.add_argument("--cycles", type=int, default=16,
                        help="Monte Carlo cycles for the power "
                             "experiments (default 16)")
    parser.add_argument("--workers", type=int, default=0,
                        help="for 'report': worker processes for the "
                             "experiment job graph (default serial)")
    parser.add_argument("--backend", default="auto",
                        help="for 'report': execution backend "
                             "(auto/inline/workers/remote)")
    parser.add_argument("--hosts", default=None,
                        help="for 'report' with --backend remote: "
                             "worker daemons as HOST:PORT,... "
                             "(default REPRO_SCHED_HOSTS)")
    parser.add_argument("--output", default=None,
                        help="for 'report': write the markdown report "
                             "to this path")
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "cache":
        # Result-cache maintenance: delegate to the cache CLI.
        from repro.eval.cache import main as cache_main

        return cache_main(argv[1:])
    if argv and argv[0] == "perf":
        # Perf-history record/check: delegate to the perf-gate CLI.
        from repro.eval.perf import main as perf_main

        return perf_main(argv[1:])
    if argv and argv[0] == "tune":
        # Superword width auto-tuner: delegate to the tuner CLI.
        from repro.eval.tune import main as tune_main

        return tune_main(argv[1:])
    if argv and argv[0] == "worker":
        # Remote-backend worker daemon: delegate to the daemon CLI.
        from repro.eval.sched.daemon import main as worker_main

        return worker_main(argv[1:])
    args = parser.parse_args(argv)

    if args.targets and args.targets[0] == "export-verilog":
        return _export_verilog(args.targets[1:])
    if args.targets and args.targets[0] == "report":
        # The full orchestrated CLI lives at ``python -m repro.eval.report``;
        # this short form keeps the historic sections and defaults.
        from repro.eval.report import generate_report

        text = generate_report(n_cycles=args.cycles,
                               out_path=args.output,
                               workers=args.workers,
                               backend=args.backend,
                               hosts=args.hosts)
        if args.output:
            print(f"wrote report to {args.output}")
        else:
            print(text)
        return 0

    registry = _experiment_registry()
    targets = args.targets or list(registry)
    unknown = [t for t in targets if t not in registry]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}; "
                     f"choose from {', '.join(registry)}")
    for target in targets:
        print(f"===== {target} =====")
        result = registry[target](args)
        print(result.render())
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
