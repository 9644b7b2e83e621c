"""Issue-level model of using the multiplier in a vector/accelerator lane.

The paper's power argument (Sec. IV) is an *issue scheduling* argument:
a stream of binary64 multiplications can be partially demoted to
binary32 by the Fig. 6 reducer, and demoted operations can be paired
two-per-cycle in the dual-lane mode.  ``VectorMultiplier`` models
exactly that pipeline front-end:

* each work item is a pair of binary64 encodings;
* items whose **both** operands pass Algorithm 1 are demoted and queued
  on the binary32 lane; others issue as binary64;
* demoted items are issued two per cycle (dual lane), with a final
  odd item issued as a single binary32 (Table V's fourth row);
* per-cycle energy is taken from a :class:`FormatPowerTable` so the same
  model can be driven by the paper's numbers or by our measured ones.

This is the machinery behind the Sec. IV experiment (``section4``),
its claims in ``tests/test_paper_claims.py`` and the
``precision_autotuner`` example.
"""

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core.formats import MFFormat, OperandBundle
from repro.core.mfmult import MFMult
from repro.core.reduction import reduce_binary64, widen_binary32
from repro.errors import FormatError


@dataclass(frozen=True)
class FormatPowerTable:
    """Per-cycle power by issue kind, in mW at a reference frequency.

    The defaults are the paper's Table V measurements; the benchmarks
    substitute our own measured table to check the claim holds for the
    reproduction as well.
    """

    fp64: float = 7.20
    fp32_dual: float = 5.17
    fp32_single: float = 3.77
    int64: float = 8.90
    reference_mhz: float = 100.0

    def energy_per_cycle_pj(self, kind):
        """Energy of one issued cycle in picojoules at the reference clock."""
        power_mw = {
            "fp64": self.fp64,
            "fp32_dual": self.fp32_dual,
            "fp32_single": self.fp32_single,
            "int64": self.int64,
        }[kind]
        cycle_ns = 1e3 / self.reference_mhz
        return power_mw * cycle_ns          # mW * ns = pJ


@dataclass
class IssueStats:
    """What the scheduler did with one batch."""

    fp64_cycles: int = 0
    fp32_dual_cycles: int = 0
    fp32_single_cycles: int = 0
    demoted_operations: int = 0
    total_operations: int = 0

    @property
    def total_cycles(self):
        return (self.fp64_cycles + self.fp32_dual_cycles
                + self.fp32_single_cycles)

    def energy_pj(self, table):
        return (self.fp64_cycles * table.energy_per_cycle_pj("fp64")
                + self.fp32_dual_cycles * table.energy_per_cycle_pj("fp32_dual")
                + self.fp32_single_cycles
                * table.energy_per_cycle_pj("fp32_single"))

    def baseline_energy_pj(self, table):
        """Energy had every operation issued as binary64."""
        return self.total_operations * table.energy_per_cycle_pj("fp64")

    def savings_fraction(self, table):
        baseline = self.baseline_energy_pj(table)
        if baseline == 0:
            return 0.0
        return 1.0 - self.energy_pj(table) / baseline


def product_fits(dx, dy):
    """Conservative check that a demoted binary32 product stays normal.

    ``dx``/``dy`` are the operands' reduction decisions (anything with
    the binary32 biased exponent ``e32``).  The demoted multiplication
    runs on the paper-mode unit, which has no overflow/underflow
    handling, so a scheduler only demotes when the predicted biased
    exponent (including a possible +1 normalization increment) stays
    strictly inside [1, 254].
    """
    predicted = dx.e32 + dy.e32 - 127
    return 1 <= predicted and predicted + 1 <= 254


@dataclass
class BatchResult:
    """Results and accounting for one :meth:`VectorMultiplier.run` call."""

    products64: List[int] = field(default_factory=list)
    stats: IssueStats = field(default_factory=IssueStats)


class VectorMultiplier:
    """Schedule binary64 multiplication streams onto the MFmult.

    ``use_reduction=False`` gives the baseline machine that issues
    everything as binary64.
    """

    def __init__(self, use_reduction=True):
        self.use_reduction = use_reduction
        self.mf = MFMult(mode="paper")

    def run(self, operand_pairs):
        """Multiply ``[(x64_encoding, y64_encoding), ...]``.

        Returns a :class:`BatchResult` whose ``products64`` are binary64
        encodings in input order (demoted lanes are widened back), plus
        the issue statistics for the energy accounting.
        """
        result = BatchResult()
        result.stats.total_operations = len(operand_pairs)
        reduced_queue = []      # (input_index, x32, y32)
        slots = [None] * len(operand_pairs)

        for index, (xe, ye) in enumerate(operand_pairs):
            if self.use_reduction:
                dx = reduce_binary64(xe)
                dy = reduce_binary64(ye)
                if dx.reduced and dy.reduced and product_fits(dx, dy):
                    reduced_queue.append((index, dx.encoding32, dy.encoding32))
                    result.stats.demoted_operations += 1
                    continue
            bundle = OperandBundle.fp64(xe, ye)
            out = self.mf.multiply(bundle, MFFormat.FP64)
            slots[index] = out.fp64_encoding
            result.stats.fp64_cycles += 1

        # Pair the demoted operations two per cycle.
        for i in range(0, len(reduced_queue) - 1, 2):
            (i0, x0, y0), (i1, x1, y1) = reduced_queue[i], reduced_queue[i + 1]
            bundle = OperandBundle.fp32_pair(x0, y0, x1, y1)
            out = self.mf.multiply(bundle, MFFormat.FP32X2)
            slots[i0] = widen_binary32(out.fp32_encoding(0))
            slots[i1] = widen_binary32(out.fp32_encoding(1))
            result.stats.fp32_dual_cycles += 1
        if len(reduced_queue) % 2:
            i0, x0, y0 = reduced_queue[-1]
            # A lone binary32 op: the idle lane multiplies 1.0 * 1.0.
            one = 0x3F800000
            bundle = OperandBundle.fp32_pair(x0, y0, one, one)
            out = self.mf.multiply(bundle, MFFormat.FP32X2)
            slots[i0] = widen_binary32(out.fp32_encoding(0))
            result.stats.fp32_single_cycles += 1

        missing = [i for i, s in enumerate(slots) if s is None]
        if missing:
            raise FormatError(f"scheduler lost items at indices {missing}")
        result.products64 = slots
        return result
