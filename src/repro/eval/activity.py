"""Activity analysis: the paper's Sec. III-E power-ratio argument.

The paper explains Table V's numbers structurally:

    "when a binary64 multiplication is executed only 53x53/64x64 = 68%
    of the bits in the significand datapath are meaningful.  The power
    dissipation ratio binary64/int64 in Table V is about 80%.  There is
    clearly some 10% overhead due to the activity in the S&EH that is
    inactive for int64 operations."

This module reproduces that decomposition from our per-block power
breakdown: the significand datapath (pre-computation, recoder, PPGEN,
TREE, normalize/round CPAs) vs the sign-and-exponent handling and
formatters, per operating format.  :func:`activity_point` measures one
format and :func:`breakdown_from_points` merges them; the orchestrator's
``activity`` experiment composes the two
(``run_experiment("activity", n_cycles=16)``).
"""

from dataclasses import dataclass
from typing import Dict

from repro.eval.tables import render_table
from repro.eval.workloads import WorkloadGenerator
from repro.hdl.library import default_library
from repro.hdl.power.monte_carlo import estimate_power

#: Blocks forming the 64x64 significand datapath of Fig. 5.
SIGNIFICAND_BLOCKS = frozenset(
    {"precomp", "recoder", "ppgen", "tree", "normround", "pipe1", "pipe2"})
#: Blocks forming sign/exponent handling and the format glue.
SEH_BLOCKS = frozenset({"seh", "exp3", "informat", "outformat", "sticky",
                        "reducer"})


@dataclass
class ActivityBreakdown:
    """Per-format split of dynamic power into datapath vs S&EH."""

    total_mw: Dict[str, float]
    significand_mw: Dict[str, float]
    seh_mw: Dict[str, float]

    @property
    def fp64_over_int64_total(self):
        return self.total_mw["fp64"] / self.total_mw["int64"]

    @property
    def fp64_over_int64_significand(self):
        return self.significand_mw["fp64"] / self.significand_mw["int64"]

    def seh_share(self, fmt):
        if self.total_mw[fmt] == 0:
            return 0.0
        return self.seh_mw[fmt] / self.total_mw[fmt]

    def render(self):
        rows = []
        for fmt in sorted(self.total_mw):
            rows.append((fmt, round(self.total_mw[fmt], 2),
                         round(self.significand_mw[fmt], 2),
                         round(self.seh_mw[fmt], 2),
                         f"{self.seh_share(fmt):.1%}"))
        table = render_table(
            ("format", "total mW", "significand mW", "S&EH mW",
             "S&EH share"), rows,
            title="Sec. III-E activity decomposition")
        notes = [
            table,
            "",
            f"binary64/int64 total power ratio: "
            f"{self.fp64_over_int64_total:.2f} (paper: ~0.80)",
            f"binary64/int64 significand-datapath ratio: "
            f"{self.fp64_over_int64_significand:.2f} "
            f"(paper's bit-count bound: 0.68)",
        ]
        return "\n".join(notes)


#: Formats the decomposition measures (Table V minus the idle-lane row).
ACTIVITY_FORMATS = ("int64", "fp64", "fp32_dual")


def activity_point(fmt, n_cycles=16, seed=2017):
    """One per-format power decomposition — a parallelizable leaf job.

    Returns the ``(total mW, significand mW, S&EH mW)`` triple.
    """
    from repro.eval.experiments import cached_module

    lib = default_library()
    module = cached_module("mf")
    gen = WorkloadGenerator(seed)
    stim = gen.mf_stimulus(fmt, n_cycles)
    report = estimate_power(module, lib, stim, n_cycles)
    sig = sum(v for k, v in report.by_block_mw.items()
              if k in SIGNIFICAND_BLOCKS)
    sande = sum(v for k, v in report.by_block_mw.items()
                if k in SEH_BLOCKS)
    return (report.total_mw, sig, sande)


def breakdown_from_points(points):
    """Deterministic merge of :func:`activity_point` results per format."""
    totals, significand, seh = {}, {}, {}
    for fmt in ACTIVITY_FORMATS:
        totals[fmt], significand[fmt], seh[fmt] = points[fmt]
    return ActivityBreakdown(total_mw=totals, significand_mw=significand,
                             seh_mw=seh)
