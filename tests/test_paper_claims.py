"""The paper's evidence as one executable claim table.

Every shape claim the reproduction makes — Tables I-V, Figs. 1-6, the
Sec. III-E activity argument, the Sec. IV demotion savings, the
ablation sweeps and the mutation-coverage campaigns — is one row of
``CLAIMS``: an id, its paper source, the evidence it reads, the
measured value and its bound.  ``docs/paper_claims.md`` cites these ids.

The module-scoped ``evidence`` fixture runs every registry experiment
the rows read as ONE ``run_experiments`` batch, each experiment once at
the params of ``BATCH`` (64 Monte Carlo cycles for Tables III and V),
over the default result cache.  ``STUDIES`` adds the evidence no
registry experiment covers: Sec. IV priced with this batch's measured
Table V, and three small studies over the same library APIs (S&EH
operand isolation, the quad-binary16 unit, the named workload traces).

A claim that fails names its id, paper source, measured value and
bound.  Bounds are the paper-shape limits the reproduction committed
to; a claim that stops holding is a finding for EXPERIMENTS.md, not a
bound to widen.
"""

import random
import re
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Tuple

import pytest

from repro.core.pipeline_unit import FRMT_FP16X4, build_mf_multiplier
from repro.core.vector_unit import FormatPowerTable, VectorMultiplier
from repro.eval.experiments import PAPER, cached_module
from repro.eval.orchestrator import (
    experiment_names,
    run_experiment,
    run_experiments,
)
from repro.eval.traces import TRACES, generate_trace
from repro.eval.workloads import WorkloadGenerator
from repro.hdl.library import default_library
from repro.hdl.power.monte_carlo import estimate_power

ROOT = Path(__file__).resolve().parents[1]

# ----------------------------------------------------------------------
# the evidence: one registry batch plus the test-side studies
# ----------------------------------------------------------------------

#: Registry experiment -> params; the whole dict runs as one batch.
BATCH = {
    "table1": {},
    "table2": {},
    "table3": {"n_cycles": 64},
    "table4": {},
    "table5": {"n_cycles": 64},
    "fig1": {},
    "fig2": {},
    "fig3": {"samples": 5000},
    "fig4": {},
    "fig5": {},
    "fig6": {"n_random": 20000},
    "section4": {"n_ops": 400},
    "activity": {"n_cycles": 16},
    "sweep_radix": {},
    "sweep_cpa": {},
    "sweep_pipeline_cut": {},
    "sweep_tree": {},
    "sweep_specialization": {},
    "fault_r16": {"n_mutations": 60, "seed": 7},
    "fault_mf": {"n_mutations": 40, "seed": 8},
}

#: Monte Carlo cycles of the operand-isolation and quad-binary16 studies.
STUDY_CYCLES = 16


def section4_measured_prices(evidence):
    """Sec. IV demotion savings priced with the batch's Table V powers."""
    return run_experiment("section4",
                          power_table=evidence["table5"].power_table(),
                          **BATCH["section4"])


def isolation_study(evidence):
    """``(isolated, fmt) -> PowerReport`` of the MF unit with and without
    the FP-mode gating of the S&EH operand bits."""
    lib = default_library()
    units = {False: cached_module("mf"),
             True: build_mf_multiplier(operand_isolation=True)}
    return {(iso, fmt): estimate_power(
                module, lib,
                WorkloadGenerator(2017).mf_stimulus(fmt, STUDY_CYCLES),
                STUDY_CYCLES)
            for iso, module in units.items() for fmt in ("int64", "fp64")}


def fp16_quad_stimulus(n_cycles):
    """Four normal binary16 operands per word, quad mode every cycle."""
    rng = random.Random(4242)

    def word():
        return sum(((rng.getrandbits(1) << 15) | (rng.randint(8, 22) << 10)
                    | rng.getrandbits(10)) << (16 * k) for k in range(4))

    return {"x": [word() for __ in range(n_cycles)],
            "y": [word() for __ in range(n_cycles)],
            "frmt": [FRMT_FP16X4] * n_cycles}


def quad_fp16_study(evidence):
    """``fmt -> (mW @100 MHz, GFLOPS/W @880 MHz)`` on the quad-capable
    unit, with the paper's 880 MHz throughput convention."""
    lib = default_library()
    module = cached_module("mf_quad")
    measured = {}
    for fmt, flops in (("int64", 1), ("fp64", 1), ("fp32_dual", 2),
                       ("fp16_quad", 4)):
        stim = (fp16_quad_stimulus(STUDY_CYCLES) if fmt == "fp16_quad"
                else WorkloadGenerator(2017).mf_stimulus(fmt, STUDY_CYCLES))
        report = estimate_power(module, lib, stim, STUDY_CYCLES)
        watts = report.scaled_to(880.0).total_mw / 1000.0
        measured[fmt] = (report.total_mw, flops * 0.88 / watts)
    return measured


def workload_trace_study(evidence):
    """Workload family -> energy saved by demotion, in percent at one
    decimal, over 300-operation traces at the paper's Table V prices."""
    table = FormatPowerTable()
    return {name: round(100 * VectorMultiplier().run(
                generate_trace(name, 300)).stats.savings_fraction(table), 1)
            for name in TRACES}


#: Evidence no registry experiment covers, computed after the batch.
STUDIES = {
    "section4_measured": section4_measured_prices,
    "isolation": isolation_study,
    "quad_fp16": quad_fp16_study,
    "traces": workload_trace_study,
}


@pytest.fixture(scope="module")
def evidence():
    results, __ = run_experiments(list(BATCH.items()))
    for name, study in STUDIES.items():
        results[name] = study(results)
    return results


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Bound:
    text: str
    holds: Callable[[object], bool]


def equals(expected):
    return Bound(f"== {expected!r}", lambda v: v == expected)


def below(limit):
    return Bound(f"< {limit}", lambda v: v < limit)


def above(limit):
    return Bound(f"> {limit}", lambda v: v > limit)


def at_most(limit):
    return Bound(f"<= {limit}", lambda v: v <= limit)


def at_least(limit):
    return Bound(f">= {limit}", lambda v: v >= limit)


def between(lo, hi):
    return Bound(f"in [{lo}, {hi}]", lambda v: lo <= v <= hi)


def inside(lo, hi):
    return Bound(f"in ({lo}, {hi})", lambda v: lo < v < hi)


def near(center, tol):
    return Bound(f"within {tol} of {center}",
                 lambda v: abs(v - center) < tol)


def contains(item):
    return Bound(f"contains {item!r}", lambda v: item in v)


INCREASING = Bound("strictly increasing (v[0] < v[1] < ...)",
                   lambda v: all(a < b for a, b in zip(v, v[1:])))
DECREASING = Bound("strictly decreasing (v[0] > v[1] > ...)",
                   lambda v: all(a > b for a, b in zip(v, v[1:])))
NONDECREASING = Bound("non-decreasing (v == sorted(v))",
                      lambda v: list(v) == sorted(v))


# ----------------------------------------------------------------------
# the claim registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """One checkable claim: ``value(*evidence[reads])`` within ``bound``."""

    id: str
    source: str
    reads: Tuple[str, ...]
    value: Callable
    bound: Bound

    def check(self, evidence):
        measured = self.value(*(evidence[name] for name in self.reads))
        if not self.bound.holds(measured):
            raise AssertionError(
                f"claim {self.id} ({self.source}) failed: measured "
                f"{measured!r}, bound {self.bound.text}; reads "
                + ", ".join(map(_describe, self.reads)))


def _describe(name):
    """``name(param=value, ...)`` for a batch experiment, else ``name``."""
    if name not in BATCH:
        return name
    params = ", ".join(f"{k}={v!r}" for k, v in BATCH[name].items())
    return f"{name}({params})"


def claim(id, source, reads, value, bound):
    reads = (reads,) if isinstance(reads, str) else tuple(reads)
    return Claim(id, source, reads, value, bound)


def _rows(result):
    return dict(result.rows)


def _points(result):
    return {p.label: p for p in result.points}


def _savings(result):
    return [row[3] for row in result.rows]


T1, T2, T3 = PAPER["table1"], PAPER["table2"], PAPER["table3"]

#: The codec-derived Table IV, entry for entry (binary16/32/64/128).
TABLE4 = {
    "storage (bits)": (16, 32, 64, 128),
    "precision p (bits)": (11, 24, 53, 113),
    "exponent length (bits)": (5, 8, 11, 15),
    "Emax": (15, 127, 1023, 16383),
    "bias": (15, 127, 1023, 16383),
    "trailing significand f": (10, 23, 52, 112),
}

CLAIMS = [
    # Table I: within a 0.5x..1.5x band of the paper's figures.
    claim("table1/latency_within_band", "Table I", "table1",
          lambda r: r.latency_ps,
          between(0.5 * T1["latency_ps"], 1.5 * T1["latency_ps"])),
    claim("table1/area_within_band", "Table I", "table1",
          lambda r: r.area_um2,
          between(0.5 * T1["area_um2"], 1.5 * T1["area_um2"])),
    claim("table1/precomp_segment", "Table I", "table1",
          lambda r: r.segments_ps["precomp"], above(0)),
    claim("table1/tree_slower_than_ppgen", "Table I", "table1",
          lambda r: (r.segments_ps["tree"], r.segments_ps["ppgen"]),
          DECREASING),
    # Table II and the comparative claims of Sec. II-A.
    claim("table2/faster_than_radix16", "Table II, Sec. II-A",
          ("table2", "table1"),
          lambda r4, r16: (r4.latency_ps, r16.latency_ps), INCREASING),
    claim("table2/latency_ratio_band", "Table II, Sec. II-A",
          ("table2", "table1"),
          lambda r4, r16: r4.latency_ps / r16.latency_ps, inside(0.70, 0.98)),
    claim("table2/tree_slower_than_radix16", "Table II, Sec. II-A",
          ("table2", "table1"),
          lambda r4, r16: (r4.segments_ps["tree"], r16.segments_ps["tree"]),
          DECREASING),
    claim("table2/latency_within_band", "Table II", "table2",
          lambda r: r.latency_ps,
          between(0.5 * T2["latency_ps"], 1.5 * T2["latency_ps"])),
    # Table III: radix-16 wins pipelined, and pipelining widens the lead.
    claim("table3/pipelined_radix16_wins", "Table III", "table3",
          lambda r: r.pipe_ratio, below(1.0)),
    claim("table3/pipelined_ratio_near_paper", "Table III", "table3",
          lambda r: r.pipe_ratio, near(T3["pipe_ratio"], 0.08)),
    claim("table3/pipelining_widens_advantage", "Table III, Sec. II-A",
          "table3", lambda r: (r.pipe_ratio, r.comb_ratio), INCREASING),
    claim("table3/pipelined_radix16_near_paper", "Table III", "table3",
          lambda r: r.power_mw["pipe_r16"], near(T3["pipe_r16"], 1.0)),
    claim("table3/pipelined_radix4_near_paper", "Table III", "table3",
          lambda r: r.power_mw["pipe_r4"], near(T3["pipe_r4"], 1.5)),
    # Table IV: derived from the codec layer, not hard-coded.
    claim("table4/format_parameters", "Table IV", "table4",
          lambda r: {row[0]: tuple(row[1:]) for row in r.rows},
          equals(TABLE4)),
    # Table V: power 8.90 > 7.20 > 5.17 > 3.77 mW; efficiency
    # 38.68 > 26.53 > 13.89 > 11.24 GFLOPS/W; dual/fp64 2.8x; 0.81.
    claim("table5/power_ordering", "Table V", "table5",
          lambda r: tuple(r.measured[f][0] for f in
                          ("int64", "fp64", "fp32_dual", "fp32_single")),
          DECREASING),
    claim("table5/efficiency_ordering", "Table V", "table5",
          lambda r: tuple(r.measured[f][2] for f in
                          ("fp32_dual", "fp32_single", "fp64", "int64")),
          DECREASING),
    claim("table5/dual_over_fp64_efficiency", "Table V", "table5",
          lambda r: r.measured["fp32_dual"][2] / r.measured["fp64"][2],
          between(1.8, 3.8)),
    claim("table5/fp64_over_int64_power", "Table V, Sec. III-E", "table5",
          lambda r: r.measured["fp64"][0] / r.measured["int64"][0],
          between(0.70, 0.95)),
    # Fig. 1: 17 rows, the odd-multiple CPAs, ~4 AO22 per bit of 68-bit
    # rows, the negation XOR row.
    claim("fig1/seventeen_partial_products", "Fig. 1, Sec. II", "fig1",
          lambda r: _rows(r)["partial products (rows)"], equals(17)),
    claim("fig1/precomp_gates", "Fig. 1", "fig1",
          lambda r: _rows(r)["precomp gates"], above(0)),
    claim("fig1/select_mux_cells", "Fig. 1", "fig1",
          lambda r: _rows(r)["ppgen mux cells (AO22)"], at_least(17 * 60)),
    claim("fig1/negation_xors", "Fig. 1", "fig1",
          lambda r: _rows(r)["ppgen negation XORs"], at_least(1000)),
    # Fig. 2: the assembled multiplier carries the figure's blocks.
    claim("fig2/precomp_block", "Fig. 2", "fig2",
          lambda r: _rows(r)["blocks"], contains("precomp")),
    claim("fig2/tree_block", "Fig. 2", "fig2",
          lambda r: _rows(r)["blocks"], contains("tree")),
    # Fig. 3: speculative dual-CPA rounding vs exact injection rounding.
    claim("fig3/zero_mismatches", "Fig. 3, Sec. III-A", "fig3",
          lambda r: _rows(r)["mismatches vs exact rounding"], equals(0)),
    claim("fig3/cases_checked", "Fig. 3", "fig3",
          lambda r: _rows(r)["cases checked"], at_least(5000)),
    claim("fig3/high_path_selected", "Fig. 3", "fig3",
          lambda r: _rows(r)["high path (P1) selected"], above(0)),
    claim("fig3/low_path_selected", "Fig. 3", "fig3",
          lambda r: _rows(r)["low path (P0 << 1) selected"], above(0)),
    claim("fig3/renormalization_window", "Fig. 3", "fig3",
          lambda r: _rows(r)["renormalized by rounding overflow"],
          at_least(1)),
    # Fig. 4: two independent 7-row lanes vs the 17-row array.
    claim("fig4/dual_lane_height", "Fig. 4, Sec. III-B", "fig4",
          lambda r: r.max_height_dual, at_most(9)),
    claim("fig4/int64_height", "Fig. 4", "fig4",
          lambda r: r.max_height_int, at_least(17)),
    # Fig. 5: three stages, paper 880 MHz; the stage-2 S/C bank is the
    # smaller one (the paper's fewest-registers placement).
    claim("fig5/three_stages", "Fig. 5, Sec. III-D", "fig5",
          lambda r: len(r.stage_delays_ps), equals(3)),
    claim("fig5/max_freq_band", "Fig. 5, Sec. III-D", "fig5",
          lambda r: r.max_freq_mhz, between(400, 1100)),
    claim("fig5/two_register_cuts", "Fig. 5", "fig5",
          lambda r: set(r.registers), equals({1, 2})),
    claim("fig5/stage2_bank_smaller", "Fig. 5, Sec. III-D", "fig5",
          lambda r: (r.registers[2], r.registers[1]), INCREASING),
    # Fig. 6: "the small hardware", exhaustive boundaries.
    claim("fig6/small_hardware", "Fig. 6, Sec. IV", "fig6",
          lambda r: r.gates, below(400)),
    claim("fig6/boundary_cases", "Fig. 6, Algorithm 1", "fig6",
          lambda r: r.exhaustive_checked, equals(40)),
    # Sec. IV: savings grow with the reducible share; dual fp32 is >2x
    # as efficient, so a fully reducible stream saves over 45%.
    claim("section4/savings_monotone", "Sec. IV", "section4",
          _savings, NONDECREASING),
    claim("section4/no_reducibles_no_savings", "Sec. IV", "section4",
          lambda r: _savings(r)[0], equals(0.0)),
    claim("section4/full_mix_savings", "Sec. IV", "section4",
          lambda r: _savings(r)[-1], above(0.45)),
    claim("section4/measured_savings_monotone", "Sec. IV",
          "section4_measured", _savings, NONDECREASING),
    claim("section4/measured_no_reducibles_no_savings", "Sec. IV",
          "section4_measured", lambda r: _savings(r)[0], equals(0.0)),
    claim("section4/measured_full_mix_savings", "Sec. IV",
          "section4_measured", lambda r: _savings(r)[-1], above(0.45)),
    # Sec. III-E: binary64 between the 0.68 bit-count bound and parity,
    # near the paper's ~0.80; the significand datapath dominates.
    claim("activity/fp64_over_int64_band", "Sec. III-E", "activity",
          lambda r: r.fp64_over_int64_total, between(0.68, 0.95)),
    *(claim(f"activity/significand_dominates_{fmt}", "Sec. III-E",
            "activity",
            lambda r, fmt=fmt: (r.significand_mw[fmt], r.seh_mw[fmt]),
            DECREASING)
      for fmt in ("int64", "fp64", "fp32_dual")),
    claim("activity/total_power_ordering", "Sec. III-E", "activity",
          lambda r: tuple(r.total_mw[f] for f in
                          ("fp32_dual", "fp64", "int64")),
          INCREASING),
    # Sec. III-E ablation: isolating the S&EH operands recovers int64
    # power at no meaningful fp64 cost (one AND per bit).
    claim("isolation/int64_power_drops", "Sec. III-E", "isolation",
          lambda s: (s[(True, "int64")].total_mw,
                     s[(False, "int64")].total_mw), INCREASING),
    claim("isolation/seh_silenced", "Sec. III-E", "isolation",
          lambda s: s[(True, "int64")].by_block_mw.get("seh", 0.0),
          below(0.01)),
    claim("isolation/fp64_penalty_under_5pct", "Sec. III-E", "isolation",
          lambda s: s[(True, "fp64")].total_mw / s[(False, "fp64")].total_mw,
          below(1.05)),
    # Table V extended one step: the orderings survive on the
    # quad-capable unit and fp16x4 continues the GFLOPS/W climb.
    claim("quad_fp16/power_ordering", "Table V (extension)", "quad_fp16",
          lambda q: tuple(q[f][0] for f in ("int64", "fp64", "fp32_dual")),
          DECREASING),
    claim("quad_fp16/efficiency_ordering", "Table V (extension)",
          "quad_fp16",
          lambda q: tuple(q[f][1] for f in
                          ("fp16_quad", "fp32_dual", "fp64", "int64")),
          DECREASING),
    # Sec. IV on named workloads: savings track reducibility.
    claim("traces/scientific_saves_nothing", "Sec. IV", "traces",
          lambda t: t["scientific"], equals(0.0)),
    claim("traces/dsp_fir_savings", "Sec. IV", "traces",
          lambda t: t["dsp_fir"], above(40)),
    claim("traces/ml_inference_savings", "Sec. IV", "traces",
          lambda t: t["ml_inference"], above(30)),
    claim("traces/graphics_savings", "Sec. IV", "traces",
          lambda t: t["graphics"], above(20)),
    # Ablations.  Radix-8 needs radix-16's pre-computation but keeps a
    # taller, slower tree: dominated (Sec. II-A).
    claim("sweep_radix/radix4_faster_than_radix16", "Sec. II-A",
          "sweep_radix",
          lambda r: (_points(r)["radix-4"].latency_ps,
                     _points(r)["radix-16"].latency_ps), INCREASING),
    claim("sweep_radix/radix8_not_faster", "Sec. II-A", "sweep_radix",
          lambda r: (_points(r)["radix-8"].latency_ps
                     / _points(r)["radix-16"].latency_ps), above(0.95)),
    claim("sweep_cpa/kogge_stone_faster_than_ripple", "Table I (CPA)",
          "sweep_cpa",
          lambda r: (_points(r)["cpa=kogge_stone"].latency_ps,
                     _points(r)["cpa=ripple"].latency_ps), INCREASING),
    claim("sweep_cpa/brent_kung_smaller_than_kogge_stone", "Table I (CPA)",
          "sweep_cpa",
          lambda r: (_points(r)["cpa=brent_kung"].gates,
                     _points(r)["cpa=kogge_stone"].gates), INCREASING),
    *(claim(f"sweep_pipeline_cut/{cut}_shortens_clock", "Sec. III-D",
            "sweep_pipeline_cut",
            lambda r, cut=cut: (_points(r)[f"cut={cut}"].clock_ps,
                                _points(r)["cut=None"].clock_ps),
            INCREASING)
      for cut in ("after_precomp", "after_ppgen")),
    *(claim(f"sweep_pipeline_cut/{cut}_has_registers", "Sec. III-D",
            "sweep_pipeline_cut",
            lambda r, cut=cut: _points(r)[f"cut={cut}"].registers, above(0))
      for cut in ("after_precomp", "after_ppgen")),
    claim("sweep_pipeline_cut/after_precomp_fewest_registers", "Sec. III-D",
          "sweep_pipeline_cut",
          lambda r: (_points(r)["cut=after_precomp"].registers,
                     _points(r)["cut=after_ppgen"].registers), INCREASING),
    claim("sweep_tree/four_points", "Sec. II", "sweep_tree",
          lambda r: len(r.points), equals(4)),
    *(claim(f"sweep_specialization/{label.replace('-', '_')}_smaller",
            "Sec. III", "sweep_specialization",
            lambda r, label=label: (_points(r)[label].gates,
                                    _points(r)["multi-format"].gates),
            INCREASING)
      for label in ("int64-only", "fp64-only", "fp32x2-only")),
    claim("sweep_specialization/fp32x2_only_sheds_gating", "Sec. III-B",
          "sweep_specialization",
          lambda r: (_points(r)["fp32x2-only"].gates
                     / _points(r)["multi-format"].gates), below(0.98)),
    # Verification strength of the co-simulation batteries.
    claim("fault_r16/attempted", "verification", "fault_r16",
          lambda r: r.attempted, equals(60)),
    claim("fault_r16/coverage", "verification", "fault_r16",
          lambda r: r.coverage, at_least(0.8)),
    claim("fault_mf/attempted", "verification", "fault_mf",
          lambda r: r.attempted, equals(40)),
    claim("fault_mf/coverage", "verification", "fault_mf",
          lambda r: r.coverage, at_least(0.6)),   # mode-gated logic
]


# ----------------------------------------------------------------------
# the checks
# ----------------------------------------------------------------------

@pytest.mark.parametrize("row", CLAIMS, ids=[c.id for c in CLAIMS])
def test_claim(row, evidence):
    row.check(evidence)


def test_registry_reads_only_declared_evidence():
    """Ids are unique, the batch names registry experiments, every row
    reads batch or study evidence, and every piece of evidence is read."""
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids))
    assert set(BATCH) <= set(experiment_names())
    assert not set(BATCH) & set(STUDIES)
    read = {name for c in CLAIMS for name in c.reads}
    assert read == set(BATCH) | set(STUDIES)


def test_failing_claim_names_id_source_value_and_bound():
    row = next(c for c in CLAIMS
               if c.id == "table3/pipelined_ratio_near_paper")
    row.check({"table3": SimpleNamespace(pipe_ratio=0.90)})
    with pytest.raises(AssertionError) as err:
        row.check({"table3": SimpleNamespace(pipe_ratio=1.25)})
    message = str(err.value)
    for part in ("table3/pipelined_ratio_near_paper", "Table III", "1.25",
                 "within 0.08 of 0.89", "table3(n_cycles=64)"):
        assert part in message, (part, message)


CLAIM_ID = re.compile(r"`([a-z0-9_]+/[a-z0-9_]+)`")


def test_paper_claims_doc_cites_exactly_the_registry():
    """Every claim id appears in docs/paper_claims.md, and every id the
    doc cites exists."""
    cited = set(CLAIM_ID.findall(
        (ROOT / "docs" / "paper_claims.md").read_text()))
    assert cited == {c.id for c in CLAIMS}
