"""The structural 3-stage multi-format multiplier (Fig. 5).

Stage 1: input formatter, odd-multiple pre-computation, recoding, sign
and exponent handling.  Stage 2: multi-format PPGEN (with the Fig. 4
lane blanking) and the compressor TREE.  Stage 3: the speculative
normalize/round datapath of Fig. 3 (two CSA+CPA paths, lane-split),
speculative exponent increment and selection, output formatter.

Format control (the ``frmt`` input, 2 bits):

====== ======= =====================================
frmt   mode    operands
====== ======= =====================================
``00`` int64   ``x``, ``y`` unsigned 64-bit
``01`` fp64    ``x``, ``y`` binary64 encodings
``10`` fp32x2  two binary32 encodings per word
====== ======= =====================================

The unit mirrors :class:`repro.core.mfmult.MFMult` (paper mode) bit for
bit; the test suite co-simulates the two against each other across all
formats.  Like the silicon, the unit assumes normalized FP operands —
feeding zeros/subnormals/inf/NaN produces unspecified results.

``MFMultUnit`` wraps the raw module with batch drivers used by the
tests and the Table V power benchmarks.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.arith.rounding import FP32_HIGH_LANE, FP32_LOW_LANE, FP64_LANE
from repro.bits.ieee754 import BINARY32, BINARY64
from repro.bits.utils import mask
from repro.circuits.adders import lane_split_adder, make_adder
from repro.circuits.compressor_tree import build_compressor_tree
from repro.circuits.multiples import build_multiples
from repro.circuits.ppgen import build_mf_pp_columns
from repro.circuits.primitives import GateBuilder
from repro.circuits.recoder import RecodedDigit, build_recoder
from repro.core.formats import MFFormat, OperandBundle
from repro.errors import NetlistError, SimulationError
from repro.hdl.buffering import insert_buffers
from repro.hdl.library import default_library
from repro.hdl.module import Module
from repro.hdl.sim.levelized import LevelizedSimulator
from repro.hdl.validate import validate

#: frmt encodings (bit 0 = fp64, bit 1 = fp32 dual; 0b11 = quad fp16,
#: only decoded by ``quad_fp16=True`` builds).
FRMT_INT64 = 0b00
FRMT_FP64 = 0b01
FRMT_FP32X2 = 0b10
FRMT_FP16X4 = 0b11

FRMT_OF = {
    MFFormat.INT64: FRMT_INT64,
    MFFormat.FP64: FRMT_FP64,
    MFFormat.FP32X2: FRMT_FP32X2,
    MFFormat.FP16X4: FRMT_FP16X4,
}

#: Pipeline latency in cycles (3 stages -> results 2 cycles later).
LATENCY = 2


def build_mf_multiplier(adder_style="kogge_stone", buffer_max_load=8.0,
                        name="mfmult", rounding="injection",
                        with_reducer=False, operand_isolation=False,
                        quad_fp16=False):
    """Build the Fig. 5 unit; returns a validated, buffered Module.

    Extensions beyond the paper's implemented unit (both suggested in
    the paper itself):

    * ``rounding="rne"`` adds the sticky-bit computation the paper lists
      as "not yet implemented" (Sec. III-A): narrow raw-product CPAs
      feed guard/sticky OR-trees, and detected ties clear the result
      LSB, turning the injection rounding into exact
      round-to-nearest-even (for normalized, in-range results).
    * ``with_reducer=True`` absorbs the Fig. 6 reducer into the output
      formatter (Sec. IV: "can be easily included in the multi-format
      multiplier of Fig. 5"): in binary64 mode the ``pl`` port carries
      the demoted binary32 encoding and the extra 1-bit ``reduced``
      output says whether it is valid.
    * ``operand_isolation=True`` gates the sign & exponent handling's
      operand bits with the FP-mode signal.  The paper measures "some
      10% overhead due to the activity in the S&EH that is inactive for
      int64 operations" (Sec. III-E); isolation removes exactly that
      activity at the cost of one AND per isolated bit (ablated in the
      benchmarks).
    * ``quad_fp16=True`` adds a **fourth format**: four binary16 products
      per cycle (frmt = 0b11), generalizing the Fig. 4 sectioning to
      32-bit lane pitch with three carry-kill boundaries.  Entirely
      beyond the paper; co-simulated against the software model.
    """
    if rounding not in ("injection", "rne"):
        raise NetlistError(f"unknown rounding {rounding!r}")
    if quad_fp16 and name == "mfmult":
        name = "mfmult_quad"
    m = Module(name)
    gb = GateBuilder(m)
    x = m.input("x", 64)
    y = m.input("y", 64)
    frmt = m.input("frmt", 2)
    if quad_fp16:
        fp64 = gb.g_and(frmt[0], gb.g_not(frmt[1]))
        fp32 = gb.g_and(frmt[1], gb.g_not(frmt[0]))
        fp16 = gb.g_and(frmt[0], frmt[1])
    else:
        fp64 = frmt[0]
        fp32 = frmt[1]
        fp16 = gb.zero

    # ------------------------------------------------------------- stage 1
    with m.block("informat"):
        xw = _format_operand(gb, x, fp64, fp32, fp16)
        yw = _format_operand(gb, y, fp64, fp32, fp16)
    with m.block("precomp"):
        multiples = build_multiples(gb, xw, 4, adder_style=adder_style)
    with m.block("recoder"):
        digits = build_recoder(gb, yw, 4)
    with m.block("seh"):
        if operand_isolation:
            # Gate every S&EH operand bit with the FP-mode signal so the
            # whole exponent/sign cone is static for int64 operations.
            is_fp = gb.g_or(fp64, fp32)
            xg = list(x[:23]) + [gb.g_and(b, is_fp) for b in x[23:]]
            yg = list(y[:23]) + [gb.g_and(b, is_fp) for b in y[23:]]
        else:
            xg, yg = list(x), list(y)
        sign_hi = gb.g_xor(xg[63], yg[63])
        sign_lo = gb.g_xor(xg[31], yg[31])
        ep_hi = _exponent_sum(gb, xg, yg, fp32, adder_style)
        ep_lo = _exponent_sum_low(gb, xg, yg, adder_style)
        if quad_fp16:
            signs16 = [gb.g_xor(xg[16 * k + 15], yg[16 * k + 15])
                       for k in range(4)]
            eps16 = [_exponent_sum_fp16(gb, xg, yg, k, adder_style)
                     for k in range(4)]

    with m.block("pipe1"):
        reg1 = _Registrar(m, gb, stage=1)
        multiples = {mm: reg1.bus(bus) for mm, bus in multiples.items()}
        digits = [RecodedDigit(sign=reg1.net(d.sign),
                               magnitude_onehot=[reg1.net(n)
                                                 for n in d.magnitude_onehot])
                  for d in digits]
        fp64_s2, fp32_s2 = reg1.net(fp64), reg1.net(fp32)
        fp16_s2 = reg1.net(fp16) if quad_fp16 else gb.zero
        sign_hi_s2, sign_lo_s2 = reg1.net(sign_hi), reg1.net(sign_lo)
        ep_hi_s2 = reg1.bus(ep_hi)
        ep_lo_s2 = reg1.bus(ep_lo)
        if quad_fp16:
            signs16_s2 = [reg1.net(n) for n in signs16]
            eps16_s2 = [reg1.bus(b) for b in eps16]

    # ------------------------------------------------------------- stage 2
    with m.block("ppgen"):
        columns, __ = build_mf_pp_columns(gb, digits, multiples, fp32_s2,
                                          fp16=fp16_s2 if quad_fp16
                                          else None)
    with m.block("tree"):
        if quad_fp16:
            mode32_64 = gb.g_or(fp32_s2, fp16_s2)
            kills = {32: fp16_s2, 64: mode32_64, 96: fp16_s2}
            tree = build_compressor_tree(gb, columns, 128,
                                         kill_controls=kills)
        else:
            tree = build_compressor_tree(gb, columns, 128, split=fp32_s2,
                                         boundaries=(64,))

    with m.block("pipe2"):
        reg2 = _Registrar(m, gb, stage=2)
        s_bus = reg2.bus(tree.sum_bus)
        c_bus = reg2.bus(tree.carry_bus)
        fp64_s3, fp32_s3 = reg2.net(fp64_s2), reg2.net(fp32_s2)
        fp16_s3 = reg2.net(fp16_s2) if quad_fp16 else gb.zero
        sign_hi_s3, sign_lo_s3 = reg2.net(sign_hi_s2), reg2.net(sign_lo_s2)
        ep_hi_s3 = reg2.bus(ep_hi_s2)
        ep_lo_s3 = reg2.bus(ep_lo_s2)
        if quad_fp16:
            signs16_s3 = [reg2.net(n) for n in signs16_s2]
            eps16_s3 = [reg2.bus(b) for b in eps16_s2]

    # ------------------------------------------------------------- stage 3
    with m.block("normround"):
        p1, p0 = _speculative_paths(gb, s_bus, c_bus, fp64_s3, fp32_s3,
                                    adder_style, fp16=fp16_s3,
                                    quad=quad_fp16)
        sel64 = gb.g_and(p0[FP64_LANE.high_leading_bit], fp64_s3)
        sel_hi32 = p0[FP32_HIGH_LANE.high_leading_bit]
        sel_lo32 = p0[FP32_LOW_LANE.high_leading_bit]
        sels16 = ([p0[32 * k + 21] for k in range(4)]
                  if quad_fp16 else None)
    if rounding == "rne":
        with m.block("sticky"):
            ties = _sticky_tie_detect(gb, s_bus, c_bus, sel64, sel_hi32,
                                      sel_lo32, fp32_s3, adder_style)
    else:
        ties = None
    with m.block("exp3"):
        exp_hi_sel = _speculative_exponent(gb, ep_hi_s3,
                                           gb.g_mux(sel64, sel_hi32, fp32_s3),
                                           adder_style)
        exp_lo_sel = _speculative_exponent(gb, ep_lo_s3, sel_lo32,
                                           adder_style)
        exps16_sel = ([_speculative_exponent(gb, eps16_s3[k], sels16[k],
                                             adder_style)
                       for k in range(4)] if quad_fp16 else None)
    with m.block("outformat"):
        ph, pl = _output_formatter(gb, p1, p0, sel64, sel_hi32, sel_lo32,
                                   sign_hi_s3, sign_lo_s3,
                                   exp_hi_sel, exp_lo_sel, fp64_s3, fp32_s3,
                                   ties=ties)
        if quad_fp16:
            fp16_ph = _fp16_output(gb, p1, p0, sels16, signs16_s3,
                                   exps16_sel)
            ph = gb.bus_mux(ph, fp16_ph, fp16_s3)
            pl = [gb.g_and(b, gb.g_not(fp16_s3)) for b in pl]
    reduced_flag = None
    if with_reducer:
        from repro.circuits.reducer import reducer_logic

        with m.block("reducer"):
            red_out, reduce_ok, __, __, __ = reducer_logic(gb, ph)
            is_fp64 = gb.g_and(fp64_s3, gb.g_not(fp32_s3))
            reduced_flag = gb.g_and(reduce_ok, is_fp64)
            # In binary64 mode PL (otherwise unused) carries the demoted
            # binary32 encoding when valid.
            pl = [gb.g_mux(pl[i],
                           gb.g_and(red_out[i] if i < 32 else gb.zero,
                                    reduced_flag),
                           is_fp64)
                  for i in range(64)]
    m.output("ph", ph)
    m.output("pl", pl)
    if reduced_flag is not None:
        m.output("reduced", [reduced_flag])
    if buffer_max_load is not None:
        insert_buffers(m, default_library(), max_load=buffer_max_load)
    return validate(m)


# ----------------------------------------------------------------------
# stage-1 helpers
# ----------------------------------------------------------------------

def _format_operand(gb, word, fp64, fp32, fp16=None):
    """The input formatter: place significands per format (Fig. 5)."""
    int_mode_bits = list(word)
    # binary64: fraction in 0..51, hidden bit at 52.
    fp64_bits = list(word[:52]) + [gb.one] + [gb.zero] * 11
    # dual binary32: lane 0 fraction 0..22 + hidden at 23; gap 24..31;
    # lane 1 fraction at 32..54 + hidden at 55; gap 56..63.
    fp32_bits = (list(word[:23]) + [gb.one] + [gb.zero] * 8
                 + list(word[32:55]) + [gb.one] + [gb.zero] * 8)
    # quad binary16 (extension): lane k's 11-bit significand at 16k.
    quad = fp16 is not None and gb.const_of(fp16) != 0
    if quad:
        fp16_bits = []
        for k in range(4):
            fp16_bits += (list(word[16 * k:16 * k + 10]) + [gb.one]
                          + [gb.zero] * 5)
    out = []
    for b in range(64):
        val = gb.g_mux(int_mode_bits[b], fp64_bits[b], fp64)
        val = gb.g_mux(val, fp32_bits[b], fp32)
        if quad:
            val = gb.g_mux(val, fp16_bits[b], fp16)
        out.append(val)
    return out


def _exponent_sum(gb, x, y, fp32, adder_style):
    """Shared 11-bit exponent path: EX + EY - bias, 13-bit two's compl.

    In fp64 mode the inputs are the 11-bit exponents and the bias 1023;
    in fp32 mode the *upper lane*'s 8-bit exponents and bias 127 ride
    the same adders (Sec. III-C).
    """
    ex64 = list(x[52:63])
    ey64 = list(y[52:63])
    ex32 = list(x[55:63]) + [gb.zero] * 3
    ey32 = list(y[55:63]) + [gb.zero] * 3
    ex = gb.bus_mux(ex64, ex32, fp32)
    ey = gb.bus_mux(ey64, ey32, fp32)
    bias64 = (-BINARY64.bias) & mask(13)
    bias32 = (-BINARY32.bias) & mask(13)
    neg_bias = gb.bus_mux(gb.bus_const(bias64, 13), gb.bus_const(bias32, 13),
                          fp32)
    return _add3(gb, gb.bus_pad(ex, 13), gb.bus_pad(ey, 13), neg_bias,
                 adder_style)


def _exponent_sum_low(gb, x, y, adder_style):
    """The lower binary32 lane's own narrow exponent datapath."""
    ex = list(x[23:31])
    ey = list(y[23:31])
    neg_bias = gb.bus_const((-BINARY32.bias) & mask(10), 10)
    return _add3(gb, gb.bus_pad(ex, 10), gb.bus_pad(ey, 10), neg_bias,
                 adder_style)


def _exponent_sum_fp16(gb, x, y, lane, adder_style):
    """One binary16 lane's exponent path (quad extension): 8 bits."""
    from repro.bits.ieee754 import BINARY16

    lo = 16 * lane + 10
    ex = list(x[lo:lo + 5])
    ey = list(y[lo:lo + 5])
    neg_bias = gb.bus_const((-BINARY16.bias) & mask(8), 8)
    return _add3(gb, gb.bus_pad(ex, 8), gb.bus_pad(ey, 8), neg_bias,
                 adder_style)


def _add3(gb, a, b, c, adder_style):
    """Three-operand addition: one CSA row + one CPA."""
    s = [gb.fa(ai, bi, ci) for ai, bi, ci in zip(a, b, c)]
    xor_bus = [t[0] for t in s]
    maj_bus = gb.bus_shift_left([t[1] for t in s], 1, len(a))
    total, __ = make_adder(adder_style)(gb, xor_bus, maj_bus)
    return total


# ----------------------------------------------------------------------
# stage-3 helpers
# ----------------------------------------------------------------------

def _speculative_paths(gb, s_bus, c_bus, fp64, fp32, adder_style,
                       fp16=None, quad=False):
    """Fig. 3: the two injection CSA rows and lane-split CPAs.

    With ``quad`` the CPAs divide at 32/64/96 (each boundary with its own
    mode-dependent kill) and the binary16 lanes get their injections.
    """
    from repro.arith.rounding import FP16_LANES
    from repro.circuits.adders import multi_lane_split_adder

    if fp16 is None:
        fp16 = gb.zero
    r1 = [gb.zero] * 128
    r0 = [gb.zero] * 128
    fp64_only = gb.g_and(fp64, gb.g_not(fp32))
    if quad:
        fp64_only = gb.g_and(fp64_only, gb.g_not(fp16))
    r1[FP64_LANE.r1_position] = fp64_only
    r0[FP64_LANE.r0_position] = fp64_only
    for lane in (FP32_LOW_LANE, FP32_HIGH_LANE):
        r1[lane.r1_position] = fp32
        r0[lane.r0_position] = fp32
    if quad:
        for lane in FP16_LANES:
            r1[lane.r1_position] = gb.g_or(r1[lane.r1_position], fp16) \
                if gb.const_of(r1[lane.r1_position]) != 0 else fp16
            r0[lane.r0_position] = gb.g_or(r0[lane.r0_position], fp16) \
                if gb.const_of(r0[lane.r0_position]) != 0 else fp16

    mode_64 = gb.g_or(fp32, fp16) if quad else fp32

    def path(r):
        sums = []
        carries = [gb.zero]
        for i in range(128):
            s, cy = gb.fa(s_bus[i], c_bus[i], r[i])
            sums.append(s)
            carries.append(cy)
        carry_bus = carries[:128]
        # Kill the CSA carries crossing lane boundaries per mode.
        carry_bus[64] = gb.g_and(carry_bus[64], gb.g_not(mode_64))
        if quad:
            not_fp16 = gb.g_not(fp16)
            carry_bus[32] = gb.g_and(carry_bus[32], not_fp16)
            carry_bus[96] = gb.g_and(carry_bus[96], not_fp16)
            total, __ = multi_lane_split_adder(
                gb, sums, carry_bus,
                kills=[(32, fp16), (64, mode_64), (96, fp16)],
                style=adder_style)
        else:
            total, __ = lane_split_adder(gb, sums, carry_bus, fp32,
                                         boundary=64, style=adder_style)
        return total

    return path(r1), path(r0)


def _sticky_tie_detect(gb, s_bus, c_bus, sel64, sel_hi32, sel_lo32, fp32,
                       adder_style):
    """Sticky-bit computation (the paper's future work, Sec. III-A).

    Two narrow CPAs recover the raw product's discarded bits from the
    carry-save pair: bits 0..52 (binary64 guard/sticky; the low binary32
    lane's are a subset) and bits 64..87 (the upper binary32 lane's).
    OR-trees compress them into per-lane tie signals: a tie exists when
    the guard bit of the *selected* normalization case is 1 and every
    bit below it is 0.  The output formatter clears the fraction LSB on
    a tie, which converts injection rounding (ties away from zero) into
    exact round-to-nearest-even.
    """
    adder = make_adder(adder_style)
    raw_lo, __ = adder(gb, s_bus[0:53], c_bus[0:53])     # product bits 0..52
    raw_hi, __ = adder(gb, s_bus[64:88], c_bus[64:88])   # product bits 64..87

    def lane_tie(raw, guard_hi_pos, sel_high):
        sticky_base = gb.or_tree(raw[:guard_hi_pos - 1])
        guard_hi = raw[guard_hi_pos]
        guard_lo = raw[guard_hi_pos - 1]
        tie_hi = gb.g_and(guard_hi,
                          gb.g_not(gb.g_or(sticky_base, guard_lo)))
        tie_lo = gb.g_and(guard_lo, gb.g_not(sticky_base))
        return gb.g_mux(tie_lo, tie_hi, sel_high)

    return {
        "fp64": lane_tie(raw_lo, 52, sel64),
        "lo32": lane_tie(raw_lo, 23, sel_lo32),
        "hi32": lane_tie(raw_hi, 23, sel_hi32),
    }


def _speculative_exponent(gb, ep, increment_sel, adder_style):
    """EP and EP+1 computed speculatively, then selected (Sec. III-D)."""
    one = gb.bus_const(1, len(ep))
    plus_one, __ = make_adder(adder_style)(gb, list(ep), one)
    return gb.bus_mux(list(ep), plus_one, increment_sel)


def _output_formatter(gb, p1, p0, sel64, sel_hi32, sel_lo32,
                      sign_hi, sign_lo, exp_hi, exp_lo, fp64, fp32,
                      ties=None):
    """Pack PH/PL per format (Fig. 5's output formatter).

    ``ties`` (RNE extension) carries per-lane tie signals; a tie clears
    the corresponding fraction LSB (round-to-even correction).
    """
    # int64: PH = product[127:64], PL = product[63:0] (P1 path, R = 0).
    int_ph = p1[64:128]
    int_pl = p1[0:64]

    # fp64 fraction: P1[104:53] or (P0 << 1)[104:53] = P0[103:52].
    f64 = [gb.g_mux(p0[52 + i], p1[53 + i], sel64) for i in range(52)]
    if ties is not None:
        f64[0] = gb.g_and(f64[0], gb.g_not(ties["fp64"]))
    fp64_ph = f64 + list(exp_hi[:11]) + [sign_hi]

    # fp32 lane 0 (low): P1[46:24] or P0[45:23].
    f32lo = [gb.g_mux(p0[23 + i], p1[24 + i], sel_lo32) for i in range(23)]
    # fp32 lane 1 (high): P1[110:88] or P0[109:87].
    f32hi = [gb.g_mux(p0[87 + i], p1[88 + i], sel_hi32) for i in range(23)]
    if ties is not None:
        f32lo[0] = gb.g_and(f32lo[0], gb.g_not(ties["lo32"]))
        f32hi[0] = gb.g_and(f32hi[0], gb.g_not(ties["hi32"]))
    fp32_ph = (f32lo + list(exp_lo[:8]) + [sign_lo]
               + f32hi + list(exp_hi[:8]) + [sign_hi])

    ph = []
    pl = []
    for b in range(64):
        with_fp64 = gb.g_mux(int_ph[b], fp64_ph[b], fp64)
        ph.append(gb.g_mux(with_fp64, fp32_ph[b], fp32))
        pl.append(gb.g_and(int_pl[b],
                           gb.g_not(gb.g_or(fp64, fp32))))
    return ph, pl


def _fp16_output(gb, p1, p0, sels16, signs16, exps16):
    """Pack the four binary16 results (quad extension).

    Lane k: fraction = P1[32k+20 .. 32k+11] (high case) or
    P0[32k+19 .. 32k+10] (low case, pre-shift), 5-bit exponent, sign.
    """
    out = []
    for k in range(4):
        base = 32 * k
        fraction = [gb.g_mux(p0[base + 10 + i], p1[base + 11 + i],
                             sels16[k]) for i in range(10)]
        out.extend(fraction + list(exps16[k][:5]) + [signs16[k]])
    return out


class _Registrar:
    """Deduplicated register insertion for one pipeline boundary."""

    def __init__(self, module, gb, stage):
        self.m = module
        self.gb = gb
        self.stage = stage
        self._map = {}

    def net(self, n):
        if self.gb.const_of(n) is not None:
            return n
        if n not in self._map:
            self._map[n] = self.m.register(n, self.stage)
        return self._map[n]

    def bus(self, nets):
        return [self.net(n) for n in nets]


# ----------------------------------------------------------------------
# batch driver
# ----------------------------------------------------------------------

def issue_stimulus(operations):
    """The ``x``/``y``/``frmt`` pattern words issuing ``operations``.

    One pattern per ``(OperandBundle, MFFormat)``, then ``LATENCY``
    pipeline-flush patterns repeating the last operation, so operation
    ``t``'s result is on ``ph``/``pl`` at pattern ``t + LATENCY``.  The
    one layout :meth:`MFMultUnit.run_batch` and the fault-campaign
    battery (:func:`repro.eval.fault_injection.mf_battery`) both drive.
    """
    xs = [bundle.x for bundle, __ in operations]
    ys = [bundle.y for bundle, __ in operations]
    fs = [FRMT_OF[fmt] for __, fmt in operations]
    return {"x": xs + xs[-1:] * LATENCY,
            "y": ys + ys[-1:] * LATENCY,
            "frmt": fs + fs[-1:] * LATENCY}


@dataclass
class UnitResult:
    """One operation's output words."""

    ph: int
    pl: int
    reduced: Optional[int] = None   # with_reducer builds only


class MFMultUnit:
    """Simulation driver around the structural unit.

    Builds the netlist once and runs operand batches through the
    levelized simulator, aligning for the 2-cycle latency.
    """

    def __init__(self, adder_style="kogge_stone", module=None, **build_kwargs):
        self.module = module if module is not None else build_mf_multiplier(
            adder_style=adder_style, **build_kwargs)
        self._sim = LevelizedSimulator(self.module)
        self.has_reducer = "reduced" in self.module.outputs
        self.supports_fp16 = (build_kwargs.get("quad_fp16", False)
                              or "quad" in self.module.name)

    def run_batch(self, operations):
        """Run ``[(OperandBundle, MFFormat), ...]``; returns UnitResults."""
        if not operations:
            return []
        if not self.supports_fp16 and any(fmt is MFFormat.FP16X4
                                          for __, fmt in operations):
            raise SimulationError(
                "this unit was built without quad_fp16=True"
            )
        stimulus = issue_stimulus(operations)
        run = self._sim.run(stimulus, len(stimulus["x"]))
        outputs = self.module.outputs
        ph_words = run.bus_words(outputs["ph"])[LATENCY:]
        pl_words = run.bus_words(outputs["pl"])[LATENCY:]
        reduced_words = (run.bus_words(outputs["reduced"])[LATENCY:]
                         if self.has_reducer else [None] * len(operations))
        return [UnitResult(ph=ph, pl=pl, reduced=reduced)
                for ph, pl, reduced in zip(ph_words, pl_words,
                                           reduced_words)]

    def multiply(self, bundle, fmt):
        """Single-operation convenience wrapper."""
        return self.run_batch([(bundle, fmt)])[0]
