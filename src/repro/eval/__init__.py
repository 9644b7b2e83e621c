"""Experiment harness: regenerates every table and figure of the paper.

Every experiment — tables, figures, the Sec. III-E activity
decomposition, the ablation sweeps and the fault campaigns — is one
entry of the orchestrator registry: run it with
``repro.eval.orchestrator.run_experiment(name, **params)`` over
``experiment_names()``.  Each returns a structured result object that
renders itself as text in the paper's own format; the benchmarks call
these and print paper-vs-measured rows.
"""

from repro.eval.fault_injection import mutation_coverage
from repro.eval.traces import TRACES, generate_trace, reducibility
from repro.eval.experiments import (
    experiment_fig1_ppgen,
    experiment_fig2_multiplier,
    experiment_fig3_normround,
    experiment_fig4_dual_lane,
    experiment_fig5_pipeline,
    experiment_fig6_reduction,
    experiment_section4_savings,
    experiment_table1,
    experiment_table2,
    experiment_table4,
)
from repro.eval.workloads import WorkloadGenerator


def __getattr__(name):
    # Lazy: ``python -m repro.eval.report`` runs report as __main__, and
    # an eager import here would double-load it (runpy RuntimeWarning).
    if name == "generate_report":
        from repro.eval.report import generate_report

        return generate_report
    raise AttributeError(name)


__all__ = [
    "WorkloadGenerator",
    "experiment_fig1_ppgen",
    "experiment_fig2_multiplier",
    "experiment_fig3_normround",
    "experiment_fig4_dual_lane",
    "experiment_fig5_pipeline",
    "experiment_fig6_reduction",
    "experiment_section4_savings",
    "experiment_table1",
    "experiment_table2",
    "experiment_table4",
    "generate_report",
    "generate_trace",
    "mutation_coverage",
    "reducibility",
    "TRACES",
]
