"""The per-table / per-figure experiment harness.

The leaf jobs of the experiment graphs in
:mod:`repro.eval.orchestrator`: each single-leaf ``experiment_*``
function regenerates one table or figure, and the ``table3_*`` /
``table5_*`` functions are the per-point leaves, shards and merges of
the Monte Carlo power tables.  Each experiment ends in a result object
with the measured values, the paper's published values, and a
``render()`` method producing the paper-vs-measured report.  Run one
with ``run_experiment(name, **params)``; DESIGN.md's experiment index
maps each to its benchmark entry point.

Modules are built once and cached — netlist construction is a second or
two each, and the benchmarks call these functions repeatedly.  The
cache has two levels: an in-process ``lru_cache`` and an on-disk pickle
cache under the repository's ``.cache/modules/`` keyed by the builder
name and a fingerprint of the generator sources plus the cell library,
so repeated benchmark *processes* skip netlist construction as well
(``REPRO_MODULE_CACHE`` overrides the directory; ``0`` disables).
"""

import functools
import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.arith.partial_products import (
    build_dual_lane_pp_array,
    build_pp_array,
    occupancy_grid,
)
from repro.bits.ieee754 import BINARY16, BINARY32, BINARY64, BINARY128
from repro.circuits.mult_radix4 import radix4_multiplier
from repro.circuits.mult_radix8 import radix8_multiplier
from repro.circuits.mult_radix16 import radix16_multiplier
from repro.circuits.reducer import build_reducer
from repro.core.pipeline_unit import build_mf_multiplier
from repro.core.reduction import reduce_binary64, widen_binary32
from repro.core.vector_unit import FormatPowerTable, VectorMultiplier
from repro.eval.tables import paper_vs_measured, render_table
from repro.eval.workloads import WorkloadGenerator
from repro.hdl.area.model import area_report
from repro.hdl.library import FO4_PS, default_library
from repro.hdl.power.monte_carlo import (
    estimate_power,
    power_replay_shard,
    power_report_from_shards,
)
from repro.hdl.timing.sta import analyze, critical_path_breakdown

#: Published values (the paper's Tables I, II, III and V).
PAPER = {
    "table1": {"precomp": 578, "ppgen": 258, "tree": 571, "cpa": 445,
               "latency_ps": 1852, "fo4": 29, "area_um2": 50562,
               "knand2": 47.8},
    "table2": {"ppgen": 313, "tree": 739, "cpa": 454,
               "latency_ps": 1506, "fo4": 23, "area_um2": 60204,
               "knand2": 56.9},
    "table3": {"comb_r4": 12.3, "comb_r16": 11.5, "comb_ratio": 0.94,
               "pipe_r4": 8.7, "pipe_r16": 7.7, "pipe_ratio": 0.89},
    "table5": {"int64": (8.90, 0.88, 11.24),
               "fp64": (7.20, 0.88, 13.89),
               "fp32_dual": (5.17, 1.76, 38.68),
               "fp32_single": (3.77, 0.88, 26.53)},
    # The paper's 880 MHz power column of Table V.
    "table5_880mhz": {"int64": 78.32, "fp64": 63.36,
                      "fp32_dual": 45.50, "fp32_single": 33.18},
    "fig5": {"clock_ps": 1120, "clock_fo4": 17.5, "critical_stage": 2,
             "max_freq_mhz": 880},
}


@functools.lru_cache(maxsize=1)
def _source_fingerprint():
    """Hash of every ``repro`` source file (and the default library).

    Any source change invalidates the on-disk module cache — coarse,
    but netlist construction depends on a wide slice of the package
    and correctness beats cache hits.
    """
    digest = hashlib.sha256()
    pkg_root = Path(__file__).resolve().parents[1]
    for path in sorted(pkg_root.rglob("*.py")):
        digest.update(str(path.relative_to(pkg_root)).encode())
        digest.update(path.read_bytes())
    digest.update(repr(default_library()).encode())
    return digest.hexdigest()[:16]


def source_fingerprint():
    """Public alias: the fingerprint keying every on-disk cache layer.

    Shared by the module pickle cache here and the orchestrator's
    result cache (:mod:`repro.eval.orchestrator`), so one source edit
    invalidates both coherently.
    """
    return _source_fingerprint()


def _module_cache_dir():
    """The on-disk module cache directory, or ``None`` when disabled."""
    env = os.environ.get("REPRO_MODULE_CACHE")
    if env == "0":
        return None
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / ".cache" / "modules"


@functools.lru_cache(maxsize=None)
def cached_module(which):
    """Build-once cache for the experiment netlists.

    Backed by the on-disk pickle cache described in the module
    docstring; a corrupt or stale cache entry silently rebuilds.
    """
    builders = {
        "r16": lambda: radix16_multiplier(),
        "r16_pipe": lambda: radix16_multiplier(pipeline_cut="after_ppgen"),
        "r4": lambda: radix4_multiplier(),
        "r4_pipe": lambda: radix4_multiplier(pipeline_cut="after_ppgen"),
        "r8": lambda: radix8_multiplier(),
        "mf": lambda: build_mf_multiplier(),
        "mf_quad": lambda: build_mf_multiplier(quad_fp16=True),
        "reducer": lambda: build_reducer(),
    }
    builder = builders[which]
    cache_dir = _module_cache_dir()
    reg = obs.registry()
    if cache_dir is None:
        reg.inc("module_cache.misses")
        with obs.span(f"module:build:{which}", cat="module"):
            return builder()
    path = cache_dir / f"{which}-{_source_fingerprint()}.pkl"
    try:
        with obs.span(f"module:load:{which}", cat="module"):
            with open(path, "rb") as fh:
                module = pickle.load(fh)
        reg.inc("module_cache.hits")
        return module
    except Exception:
        pass
    reg.inc("module_cache.misses")
    with obs.span(f"module:build:{which}", cat="module"):
        module = builder()
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(module, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except Exception:
        pass                    # caching is best-effort
    return module


# ----------------------------------------------------------------------
# Table I / Table II — latency, area, critical path
# ----------------------------------------------------------------------

@dataclass
class TimingAreaResult:
    """Measured latency/area of one multiplier vs the paper."""

    name: str
    segments_ps: Dict[str, float]
    latency_ps: float
    latency_fo4: float
    area_um2: float
    knand2: float
    paper: Dict[str, float]

    def render(self):
        rows = []
        for seg in ("precomp", "ppgen", "tree", "cpa"):
            if seg in self.paper:
                rows.append((f"{seg} [ps]", self.paper[seg],
                             round(self.segments_ps.get(seg, 0.0))))
        rows += [
            ("latency [ps]", self.paper["latency_ps"], round(self.latency_ps)),
            ("latency [FO4]", self.paper["fo4"], round(self.latency_fo4, 1)),
            ("area [um2]", self.paper["area_um2"], round(self.area_um2)),
            ("area [K NAND2]", self.paper["knand2"], round(self.knand2, 1)),
        ]
        return paper_vs_measured(rows, title=f"{self.name} (64x64)")


def _timing_area(which, name, paper_key):
    module = cached_module(which)
    lib = default_library()
    report = analyze(module, lib)
    segments = critical_path_breakdown(
        module, lib, blocks=["precomp", "recoder", "ppgen", "tree", "cpa"])
    seg_map = {}
    for seg in segments:
        key = "ppgen" if seg.block == "recoder" else seg.block
        seg_map[key] = seg_map.get(key, 0.0) + seg.delay_ps
    area = area_report(module, lib)
    return TimingAreaResult(
        name=name,
        segments_ps=seg_map,
        latency_ps=report.latency_ps,
        latency_fo4=report.latency_fo4,
        area_um2=area.total_um2,
        knand2=area.total_nand2_eq / 1000.0,
        paper=PAPER[paper_key],
    )


def experiment_table1():
    """Table I: the radix-16 64x64 multiplier."""
    return _timing_area("r16", "Table I: radix-16", "table1")


def experiment_table2():
    """Table II: the radix-4 Booth baseline."""
    return _timing_area("r4", "Table II: radix-4", "table2")


# ----------------------------------------------------------------------
# Table III — power, combinational vs pipelined
# ----------------------------------------------------------------------

@dataclass
class Table3Result:
    power_mw: Dict[str, float]          # comb_r4, comb_r16, pipe_r4, pipe_r16
    paper: Dict[str, float]

    @property
    def comb_ratio(self):
        return self.power_mw["comb_r16"] / self.power_mw["comb_r4"]

    @property
    def pipe_ratio(self):
        return self.power_mw["pipe_r16"] / self.power_mw["pipe_r4"]

    def render(self):
        rows = [
            ("combinational radix-4 [mW]", self.paper["comb_r4"],
             round(self.power_mw["comb_r4"], 2)),
            ("combinational radix-16 [mW]", self.paper["comb_r16"],
             round(self.power_mw["comb_r16"], 2)),
            ("combinational ratio r16/r4", self.paper["comb_ratio"],
             round(self.comb_ratio, 2)),
            ("pipelined radix-4 [mW]", self.paper["pipe_r4"],
             round(self.power_mw["pipe_r4"], 2)),
            ("pipelined radix-16 [mW]", self.paper["pipe_r16"],
             round(self.power_mw["pipe_r16"], 2)),
            ("pipelined ratio r16/r4", self.paper["pipe_ratio"],
             round(self.pipe_ratio, 2)),
        ]
        return paper_vs_measured(rows, title="Table III: power at 100 MHz")


#: Table III configurations: result key -> cached_module builder name.
TABLE3_CONFIGS = (("comb_r4", "r4"), ("comb_r16", "r16"),
                  ("pipe_r4", "r4_pipe"), ("pipe_r16", "r16_pipe"))


def table3_power_point(key, n_cycles=64, seed=2017):
    """One Table III Monte Carlo power run — a parallelizable leaf job."""
    which = dict(TABLE3_CONFIGS)[key]
    gen = WorkloadGenerator(seed)
    stim = gen.multiplier_stimulus(n_cycles)
    return estimate_power(cached_module(which), default_library(), stim,
                          n_cycles).total_mw


def table3_power_shard(key, t_first, t_last, n_cycles=64, seed=2017):
    """One stealable cycle-window of a Table III power point.

    Replays glitch transitions ``t_first..t_last`` only; the window set
    comes from :func:`repro.hdl.power.monte_carlo.power_shard_plan` and
    :func:`table3_point_from_shards` merges the pieces back into the
    exact monolithic :func:`table3_power_point` value.
    """
    which = dict(TABLE3_CONFIGS)[key]
    gen = WorkloadGenerator(seed)
    stim = gen.multiplier_stimulus(n_cycles)
    return power_replay_shard(cached_module(which), default_library(),
                              stim, n_cycles, t_first, t_last)


def table3_point_from_shards(key, shards, n_cycles=64, seed=2017):
    """Deterministic merge of :func:`table3_power_shard` outputs."""
    which = dict(TABLE3_CONFIGS)[key]
    gen = WorkloadGenerator(seed)
    stim = gen.multiplier_stimulus(n_cycles)
    return power_report_from_shards(cached_module(which),
                                    default_library(), stim, n_cycles,
                                    shards).total_mw


# ----------------------------------------------------------------------
# Table IV — IEEE 754 binary format parameters
# ----------------------------------------------------------------------

@dataclass
class Table4Result:
    rows: List[Tuple]

    def render(self):
        return render_table(
            ("parameter", "binary16", "binary32", "binary64", "binary128"),
            self.rows, title="Table IV: IEEE 754-2008 binary formats")


def experiment_table4():
    """Table IV: format parameters straight from the codec layer."""
    fmts = (BINARY16, BINARY32, BINARY64, BINARY128)
    rows = [
        ("storage (bits)",) + tuple(f.storage_bits for f in fmts),
        ("precision p (bits)",) + tuple(f.precision for f in fmts),
        ("exponent length (bits)",) + tuple(f.exponent_bits for f in fmts),
        ("Emax",) + tuple(f.emax for f in fmts),
        ("bias",) + tuple(f.bias for f in fmts),
        ("trailing significand f",) + tuple(f.trailing_significand_bits
                                            for f in fmts),
    ]
    return Table4Result(rows=rows)


# ----------------------------------------------------------------------
# Table V — per-format power and power efficiency
# ----------------------------------------------------------------------

@dataclass
class Table5Result:
    measured: Dict[str, Tuple[float, float, float]]  # mW, GFLOPS, GFLOPS/W
    paper: Dict[str, Tuple[float, float, float]]
    max_freq_mhz: float

    def power_table(self):
        """A FormatPowerTable built from the measured numbers."""
        return FormatPowerTable(
            int64=self.measured["int64"][0],
            fp64=self.measured["fp64"][0],
            fp32_dual=self.measured["fp32_dual"][0],
            fp32_single=self.measured["fp32_single"][0],
        )

    def render(self):
        paper_880 = PAPER["table5_880mhz"]
        rows = []
        for key in ("int64", "fp64", "fp32_dual", "fp32_single"):
            p_mw, p_thr, p_eff = self.paper[key]
            m_mw, m_thr, m_eff = self.measured[key]
            rows.append((f"{key} power [mW @100MHz]", p_mw, round(m_mw, 2)))
            rows.append((f"{key} power [mW @880MHz]", paper_880[key],
                         round(m_mw * 8.8, 2)))
            rows.append((f"{key} throughput [GFLOPS]", p_thr,
                         round(m_thr, 2)))
            rows.append((f"{key} efficiency [GFLOPS/W]", p_eff,
                         round(m_eff, 2)))
        return paper_vs_measured(
            rows, title="Table V: multi-format power and efficiency")


#: Table V formats and their operations per issued cycle.
TABLE5_FLOPS = {"int64": 1, "fp64": 1, "fp32_dual": 2, "fp32_single": 1}


def table5_format_point(fmt, n_cycles=64, seed=2017, issue_mhz=880.0):
    """One Table V per-format power run — a parallelizable leaf job.

    Returns the ``(mW @100MHz, GFLOPS, GFLOPS/W)`` triple for ``fmt``.
    """
    lib = default_library()
    module = cached_module("mf")
    gen = WorkloadGenerator(seed)
    stim = gen.mf_stimulus(fmt, n_cycles)
    return _table5_triple(fmt, estimate_power(module, lib, stim, n_cycles),
                          issue_mhz)


def _table5_triple(fmt, rep, issue_mhz):
    """``(mW @100MHz, GFLOPS, GFLOPS/W)`` of one format's power report."""
    gflops = TABLE5_FLOPS[fmt] * issue_mhz / 1000.0
    watts = rep.scaled_to(issue_mhz).total_mw / 1000.0
    return (rep.total_mw, gflops, gflops / watts)


def table5_power_shard(fmt, t_first, t_last, n_cycles=64, seed=2017,
                       issue_mhz=880.0):
    """One stealable cycle-window of a Table V format power point.

    ``issue_mhz`` is accepted (and ignored — scaling happens in the
    merge) so the whole point family shares one parameter set.
    """
    del issue_mhz
    gen = WorkloadGenerator(seed)
    stim = gen.mf_stimulus(fmt, n_cycles)
    return power_replay_shard(cached_module("mf"), default_library(),
                              stim, n_cycles, t_first, t_last)


def table5_point_from_shards(fmt, shards, n_cycles=64, seed=2017,
                             issue_mhz=880.0):
    """Deterministic merge of :func:`table5_power_shard` outputs.

    Returns the same ``(mW @100MHz, GFLOPS, GFLOPS/W)`` triple as
    :func:`table5_format_point`.
    """
    gen = WorkloadGenerator(seed)
    stim = gen.mf_stimulus(fmt, n_cycles)
    rep = power_report_from_shards(cached_module("mf"), default_library(),
                                   stim, n_cycles, shards)
    return _table5_triple(fmt, rep, issue_mhz)


def mf_max_freq_mhz():
    """STA-derived maximum clock of the multi-format unit (a leaf job)."""
    timing = analyze(cached_module("mf"), default_library())
    return 1e6 / timing.clock_period_ps


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------

@dataclass
class InventoryResult:
    """Structural inventory for the block-diagram figures (1, 2, 3)."""

    title: str
    rows: List[Tuple[str, object]]

    def render(self):
        return render_table(("item", "value"), self.rows, title=self.title)


def experiment_fig1_ppgen():
    """Fig. 1: PPGEN structure — recoder, odd-multiple CPAs, mux, XOR row."""
    module = cached_module("r16")
    kinds: Dict[str, int] = {}
    blocks: Dict[str, int] = {}
    for gate in module.gates:
        top = gate.block.split("/", 1)[0] if gate.block else "(top)"
        blocks[top] = blocks.get(top, 0) + 1
        if top == "ppgen":
            kinds[gate.kind] = kinds.get(gate.kind, 0) + 1
    rows = [
        ("partial products (rows)", 17),
        ("recoded digit set", "{-8..8} (minimally redundant radix-16)"),
        ("odd multiples precomputed", "3X, 5X, 7X (one CPA each)"),
        ("precomp gates", blocks.get("precomp", 0)),
        ("recoder gates", blocks.get("recoder", 0)),
        ("ppgen gates", blocks.get("ppgen", 0)),
        ("ppgen mux cells (AO22)", kinds.get("AO22", 0)),
        ("ppgen negation XORs", kinds.get("XOR2", 0)),
    ]
    return InventoryResult(title="Fig. 1: partial product generation", rows=rows)


def experiment_fig2_multiplier():
    """Fig. 2: the radix-16 multiplier's block structure and size."""
    module = cached_module("r16")
    lib = default_library()
    area = area_report(module, lib)
    blocks = sorted(area.by_block_um2)
    rows = [("blocks", ", ".join(blocks)),
            ("total gates", len(module.gates)),
            ("total area [um2]", round(area.total_um2))]
    for b in blocks:
        rows.append((f"area[{b}] [um2]", round(area.by_block_um2[b])))
    return InventoryResult(title="Fig. 2: radix-16 multiplier", rows=rows)


def experiment_fig3_normround(samples=2000, seed=2017):
    """Fig. 3: validate the speculative normalize/round datapath.

    Sweeps random and boundary significand products through the
    reference Fig. 3 flow and checks against exact rounding, counting
    how often each path (P1 / shifted P0) is selected — including the
    renormalization window where low-path rounding overflows.
    """
    import random as _random

    from repro.arith.rounding import FP64_LANE, normalize_round_lane
    from repro.bits.ieee754 import round_significand

    rng = _random.Random(seed)
    p1_selected = 0
    p0_selected = 0
    renorm_window = 0
    checked = 0

    def check(mx, my):
        nonlocal p1_selected, p0_selected, renorm_window, checked
        product = mx * my
        p1 = product + (1 << FP64_LANE.r1_position)
        p0 = product + (1 << FP64_LANE.r0_position)
        lane = normalize_round_lane(p1, p0, FP64_LANE)
        expect, carry = round_significand(product, 53, mode="injection")
        high = (product >> 105) & 1
        assert lane.significand == expect, (hex(mx), hex(my))
        assert lane.exponent_increment == (high | carry)
        if lane.used_high_path:
            p1_selected += 1
            if not high:
                renorm_window += 1
        else:
            p0_selected += 1
        checked += 1

    top = (1 << 53) - 1
    for __ in range(samples):
        check(rng.randint(1 << 52, top), rng.randint(1 << 52, top))
    # Boundary: mantissas near all-ones (the renormalization window).
    for mx in (top, top - 1, top - 2):
        for my in (top, top - 1, 1 << 52, (1 << 52) + 1):
            check(mx, my)
    rows = [
        ("cases checked", checked),
        ("high path (P1) selected", p1_selected),
        ("low path (P0 << 1) selected", p0_selected),
        ("renormalized by rounding overflow", renorm_window),
        ("mismatches vs exact rounding", 0),
    ]
    return InventoryResult(
        title="Fig. 3: speculative normalization/rounding", rows=rows)


@dataclass
class Fig4Result:
    """The dual-binary32 array arrangement of Fig. 4."""

    grid_int: List[str]
    grid_dual: List[str]
    max_height_int: int
    max_height_dual: int

    def render(self):
        lines = ["Fig. 4: PP array arrangement (# field bit, c carry slot,"
                 " 1 correction constant)"]
        lines.append("-- int64/binary64 mode (17 rows) --")
        lines.extend(self.grid_int)
        lines.append("-- dual binary32 mode (two isolated lanes) --")
        lines.extend(self.grid_dual)
        lines.append(f"max column height: int64 {self.max_height_int}, "
                     f"dual {self.max_height_dual}")
        return "\n".join(lines)


def experiment_fig4_dual_lane():
    """Fig. 4: render the two array arrangements from the reference layer."""
    full = build_pp_array((1 << 64) - 1, (1 << 64) - 1, width=64,
                          radix_log2=4, product_width=128)
    dual = build_dual_lane_pp_array((1 << 24) - 1, (1 << 24) - 1,
                                    (1 << 24) - 1, (1 << 24) - 1)
    return Fig4Result(
        grid_int=occupancy_grid(full),
        grid_dual=occupancy_grid(dual),
        max_height_int=full.max_height(),
        max_height_dual=dual.max_height(),
    )


@dataclass
class Fig5Result:
    stage_delays_ps: List[float]
    clock_ps: float
    max_freq_mhz: float
    registers: Dict[int, int]
    critical_stage: int
    paper: Dict[str, float]

    def render(self):
        rows = [
            ("clock period [ps]", self.paper["clock_ps"],
             round(self.clock_ps)),
            ("clock period [FO4]", self.paper["clock_fo4"],
             round(self.clock_ps / FO4_PS, 1)),
            ("critical stage", self.paper["critical_stage"],
             self.critical_stage),
            ("max frequency [MHz]", self.paper["max_freq_mhz"],
             round(self.max_freq_mhz)),
        ]
        out = [paper_vs_measured(rows, title="Fig. 5: 3-stage pipeline")]
        out.append("stage delays [ps]: "
                   + ", ".join(f"S{i + 1}={d:.0f}"
                               for i, d in enumerate(self.stage_delays_ps)))
        out.append("pipeline registers per cut: "
                   + ", ".join(f"cut{k}={v}"
                               for k, v in sorted(self.registers.items())))
        return "\n".join(out)


def experiment_fig5_pipeline():
    """Fig. 5: stage timing and register placement of the MF unit."""
    lib = default_library()
    module = cached_module("mf")
    report = analyze(module, lib)
    regs: Dict[int, int] = {}
    for reg in module.registers:
        regs[reg.stage] = regs.get(reg.stage, 0) + 1
    critical = max(report.stages, key=lambda s: s.delay_ps)
    return Fig5Result(
        stage_delays_ps=[s.delay_ps for s in report.stages],
        clock_ps=report.clock_period_ps,
        max_freq_mhz=1e6 / report.clock_period_ps,
        registers=regs,
        critical_stage=critical.stage,
        paper=PAPER["fig5"],
    )


@dataclass
class Fig6Result:
    gates: int
    area_um2: float
    reducible_rate_random: float
    exhaustive_checked: int

    def render(self):
        return "\n".join([
            "Fig. 6 / Algorithm 1: binary64 -> binary32 reducer",
            f"gates: {self.gates}, area: {self.area_um2:.0f} um2",
            f"random binary64 operands reducible: "
            f"{100 * self.reducible_rate_random:.2f}% (exponent window * "
            f"zero-tail probability makes this tiny by construction)",
            f"boundary cases checked exhaustively: {self.exhaustive_checked}",
        ])


def experiment_fig6_reduction(n_random=20000, seed=2017):
    """Fig. 6: reducer statistics and boundary verification."""
    lib = default_library()
    module = cached_module("reducer")
    area = area_report(module, lib)
    gen = WorkloadGenerator(seed)
    reducible = 0
    for __ in range(n_random):
        if reduce_binary64(gen.normal_binary64()).reduced:
            reducible += 1
    checked = 0
    for e64 in (0, 1, 895, 896, 897, 1150, 1151, 1152, 2046, 2047):
        for tail in (0, 1, (1 << 29) - 1, 1 << 29):
            encoding = (e64 << 52) | tail
            decision = reduce_binary64(encoding)
            expected = (896 < e64 < 1151) and (tail & ((1 << 29) - 1)) == 0
            assert decision.reduced == expected, (e64, tail)
            if decision.reduced:
                assert widen_binary32(decision.encoding32) == encoding
            checked += 1
    return Fig6Result(
        gates=len(module.gates),
        area_um2=area.total_um2,
        reducible_rate_random=reducible / n_random,
        exhaustive_checked=checked,
    )


# ----------------------------------------------------------------------
# Section IV — savings from demoting reducible operands
# ----------------------------------------------------------------------

@dataclass
class Section4Result:
    rows: List[Tuple[float, float, float, float]]  # fraction, cycles ratio, energy ratio, savings %
    power_table: FormatPowerTable

    def render(self):
        table_rows = [(f"{frac:.0%}", f"{cyc:.2f}", f"{en:.2f}",
                       f"{sav * 100:.1f}%")
                      for frac, cyc, en, sav in self.rows]
        return render_table(
            ("reducible share", "cycles vs fp64", "energy vs fp64",
             "energy saved"),
            table_rows,
            title="Sec. IV: demoting reducible binary64 operands "
                  "(measured per-format power)")


def experiment_section4_savings(n_ops=400, seed=2017, power_table=None,
                                fractions=(0.0, 0.25, 0.5, 0.75, 1.0)):
    """Sec. IV: energy saved by the reducer + dual-lane issue, per mix."""
    if power_table is None:
        power_table = FormatPowerTable()   # the paper's Table V numbers
    rows = []
    for frac in fractions:
        gen = WorkloadGenerator(seed)
        pairs = gen.mixed_binary64_stream(n_ops, frac)
        machine = VectorMultiplier(use_reduction=True)
        result = machine.run(pairs)
        stats = result.stats
        cycles_ratio = stats.total_cycles / max(stats.total_operations, 1)
        energy_ratio = (stats.energy_pj(power_table)
                        / stats.baseline_energy_pj(power_table))
        rows.append((frac, cycles_ratio, energy_ratio,
                     stats.savings_fraction(power_table)))
    return Section4Result(rows=rows, power_table=power_table)
