"""A multi-lane accelerator model built from MFmult units.

The paper's opening motivation: "increasing [multiplication] efficiency
is highly desirable especially in systems performing several
multiplications per cycle in parallel, such as accelerators, multi-lane
vector units and GPUs."  This module models exactly that system level:
``Accelerator`` instantiates N multiplier lanes, schedules element-wise
and GEMM-style kernels over them, optionally demoting operands through
the Fig. 6 reducer, and accounts cycles and energy with a per-format
power table (the paper's Table V or our measured one).

The model is issue-accurate, not netlist-level: each lane is the
3-stage pipelined unit (throughput 1 op/cycle, 2 for dual binary32).
Every kernel issues through :class:`~repro.core.vector_unit.VectorMultiplier`
(demote, pair, fall back to binary64), so the results are numerically
produced by the functional MFMult and the accuracy impact of demotion
is real, not estimated.
"""

from dataclasses import dataclass, field
from typing import List

from repro.bits.ieee754 import BINARY64, decode, encode
from repro.core.vector_unit import (
    FormatPowerTable,
    IssueStats,
    VectorMultiplier,
)
from repro.errors import FormatError


@dataclass
class KernelReport:
    """Cycles/energy accounting for one executed kernel."""

    lanes: int
    stats: IssueStats = field(default_factory=IssueStats)
    results: List[float] = field(default_factory=list)

    @property
    def lane_cycles(self):
        """Issued multiplier cycles summed over lanes."""
        return self.stats.total_cycles

    @property
    def wall_cycles(self):
        """Critical-path cycles with perfect lane balancing."""
        return -(-self.stats.total_cycles // self.lanes)

    def energy_pj(self, table):
        return self.stats.energy_pj(table)

    def summary(self, table):
        return (f"{self.stats.total_operations} multiplies on "
                f"{self.lanes} lanes: {self.lane_cycles} lane-cycles "
                f"({self.wall_cycles} wall), "
                f"{self.stats.demoted_operations} demoted, "
                f"{self.energy_pj(table):.0f} pJ")


class Accelerator:
    """N multiplier lanes with an optional demoting front-end."""

    def __init__(self, lanes=4, use_reduction=True, power_table=None):
        if lanes < 1:
            raise FormatError("an accelerator needs at least one lane")
        self.lanes = lanes
        self.power_table = power_table or FormatPowerTable()
        self._scheduler = VectorMultiplier(use_reduction=use_reduction)

    # ------------------------------------------------------------------

    def elementwise_multiply(self, xs, ys):
        """``z[i] = x[i] * y[i]`` over Python floats.

        Demotable pairs are packed two per dual-binary32 cycle; the rest
        issue on the binary64 path.  Returns a :class:`KernelReport`
        whose ``results`` hold the actually-computed values.
        """
        if len(xs) != len(ys):
            raise FormatError("operand vectors must have equal length")
        batch = self._scheduler.run([(encode(a, BINARY64), encode(b, BINARY64))
                                     for a, b in zip(xs, ys)])
        return KernelReport(lanes=self.lanes, stats=batch.stats,
                            results=[decode(p, BINARY64)
                                     for p in batch.products64])

    def dot(self, xs, ys):
        """Dot product; returns ``(value, KernelReport)``.

        Accumulation is modeled in binary64 (the unit under study is the
        multiplier; the paper does not include an adder)."""
        report = self.elementwise_multiply(xs, ys)
        return sum(report.results), report

    def gemm(self, a, b):
        """``C = A @ B`` on nested float lists; returns ``(C, report)``.

        Multiplications are batched row-by-column to maximize dual-lane
        pairing within each output element's partial products.
        """
        rows = len(a)
        inner = len(a[0]) if rows else 0
        if any(len(r) != inner for r in a):
            raise FormatError("matrix A is ragged")
        if len(b) != inner:
            raise FormatError("A columns must equal B rows")
        cols = len(b[0]) if inner else 0
        if any(len(r) != cols for r in b):
            raise FormatError("matrix B is ragged")

        total = KernelReport(lanes=self.lanes)
        c = [[0.0] * cols for __ in range(rows)]
        for i in range(rows):
            for j in range(cols):
                xs = [a[i][k] for k in range(inner)]
                ys = [b[k][j] for k in range(inner)]
                report = self.elementwise_multiply(xs, ys)
                c[i][j] = sum(report.results)
                _merge(total.stats, report.stats)
        return c, total

    def compare_energy(self, report):
        """Energy vs an all-binary64 machine, per the power table."""
        table = self.power_table
        return {
            "energy_pj": report.energy_pj(table),
            "baseline_pj": report.stats.baseline_energy_pj(table),
            "savings": report.stats.savings_fraction(table),
        }


def _merge(into, other):
    into.fp64_cycles += other.fp64_cycles
    into.fp32_dual_cycles += other.fp32_dual_cycles
    into.fp32_single_cycles += other.fp32_single_cycles
    into.demoted_operations += other.demoted_operations
    into.total_operations += other.total_operations
