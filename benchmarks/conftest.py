"""Shared helpers for the performance benchmarks.

The benchmarks here measure the engines (power replay, fault
simulation, serving, the report pipeline, telemetry overhead); each
prints its summary and records it under ``benchmarks/results/``.  The
paper's tables and figures are not regenerated here: the full report
(``python -m repro.eval.report``) writes them to
``benchmarks/results/full_report.txt``, and ``tests/test_paper_claims.py``
checks their claims.
"""

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture
def report_sink():
    """Print a rendered experiment report and persist it to results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def sink(name, text):
        banner = f"\n===== {name} =====\n{text}\n"
        print(banner)
        with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
            fh.write(text + "\n")

    return sink
