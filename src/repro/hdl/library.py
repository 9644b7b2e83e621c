"""A 45 nm low-power standard-cell library model.

The paper gives two hard anchors for its library (Sec. II):

* the FO4 delay is **64 ps** — our INV is characterized so that an
  inverter driving four copies of itself takes exactly 64 ps;
* the NAND2 area is **1.06 um^2** — all areas are NAND2-equivalents
  times that figure.

Relative cell characteristics (area ratios, logical-effort-style delay
slopes, input capacitances) follow typical low-power 45 nm libraries.
Delay model: ``delay(cell, fanout) = intrinsic + slope * load`` where
``load`` is the sum of the driven input capacitances (in unit INV
loads).  Energy model: each output toggle switches the cell's internal
capacitance (proportional to area) plus the wire/input load it drives;
the single global scale :attr:`CellLibrary.energy_fj_per_unit` converts
that capacitance measure to femtojoules and is the one calibrated
constant of the power flow (see docs/power_model.md; the calibration
test in ``tests/test_eval.py`` re-derives its anchors).
"""

from dataclasses import dataclass, replace
from typing import Dict

from repro.errors import NetlistError
from repro.hdl.cell import CELL_KINDS

#: Paper anchor: area of a NAND2 in um^2.
NAND2_AREA_UM2 = 1.06
#: Paper anchor: FO4 delay in ps.
FO4_PS = 64.0


@dataclass(frozen=True)
class CellSpec:
    """Characterization of one combinational cell kind."""

    kind: str
    area_eq: float       # area in NAND2 equivalents
    intrinsic_ps: float  # unloaded delay
    slope_ps: float      # added delay per unit load driven
    input_cap: float     # load presented by ONE input pin (INV = 1.0)

    @property
    def area_um2(self):
        return self.area_eq * NAND2_AREA_UM2

    def delay_ps(self, load):
        """Propagation delay driving ``load`` unit input capacitances."""
        return self.intrinsic_ps + self.slope_ps * load


@dataclass(frozen=True)
class RegisterSpec:
    """Characterization of the pipeline flip-flop."""

    # clk->q + setup = 192 ps = 3 FO4, the paper's stated pipeline
    # overhead ("about 3 FO4", Sec. III-D).
    area_eq: float = 4.5
    clk_to_q_ps: float = 120.0
    setup_ps: float = 72.0
    input_cap: float = 1.2
    #: Relative energy of one clock tick (paid every cycle, toggling or not).
    clock_energy_units: float = 1.2
    #: Relative energy of one output transition.
    q_energy_units: float = 4.0

    @property
    def area_um2(self):
        return self.area_eq * NAND2_AREA_UM2

    @property
    def overhead_ps(self):
        """Pipeline overhead per stage (clk->q + setup), ~3 FO4 (Sec. III-D)."""
        return self.clk_to_q_ps + self.setup_ps


# intrinsic/slope pairs are chosen so that INV FO4 = 12 + 13*4 = 64 ps;
# the other cells' numbers were calibrated once (a single global scale on
# a logical-effort-style initial guess) so the combinational radix-16
# multiplier lands near the paper's 29 FO4 latency, then frozen.
_DEFAULT_CELLS = {
    "INV":   CellSpec("INV",   0.75, 12.0, 13.0, 1.0),
    "BUF":   CellSpec("BUF",   1.00, 19.5,  6.0, 1.0),
    "AND2":  CellSpec("AND2",  1.50, 18.0,  8.5, 1.0),
    "AND3":  CellSpec("AND3",  1.75, 21.5,  9.0, 1.0),
    "OR2":   CellSpec("OR2",   1.50, 19.5,  8.5, 1.0),
    "OR3":   CellSpec("OR3",   1.75, 23.5,  9.0, 1.0),
    "NAND2": CellSpec("NAND2", 1.00, 10.5, 11.0, 1.0),
    "NAND3": CellSpec("NAND3", 1.50, 13.0, 13.5, 1.1),
    "NOR2":  CellSpec("NOR2",  1.00, 11.5, 13.5, 1.1),
    "NOR3":  CellSpec("NOR3",  1.50, 15.5, 16.0, 1.2),
    "XOR2":  CellSpec("XOR2",  2.50, 23.5, 11.5, 2.0),
    "XNOR2": CellSpec("XNOR2", 2.50, 23.5, 11.5, 2.0),
    "XOR3":  CellSpec("XOR3",  4.50, 34.0, 12.5, 2.2),
    "MAJ3":  CellSpec("MAJ3",  3.00, 24.5, 10.5, 1.5),
    "MUX2":  CellSpec("MUX2",  2.25, 19.5, 10.5, 1.5),
    "AOI21": CellSpec("AOI21", 1.50, 13.0, 13.0, 1.1),
    "OAI21": CellSpec("OAI21", 1.50, 13.0, 13.0, 1.1),
    "AO22":  CellSpec("AO22",  1.75, 19.5,  9.0, 1.0),
    "OA22":  CellSpec("OA22",  1.75, 20.5,  9.0, 1.0),
}


@dataclass(frozen=True)
class CellLibrary:
    """A complete characterized library."""

    cells: Dict[str, CellSpec]
    register: RegisterSpec
    #: fJ per unit of switched capacitance-measure; calibrated once so the
    #: pipelined radix-16 multiplier lands near the paper's 7.7 mW at
    #: 100 MHz, then frozen for every experiment.
    energy_fj_per_unit: float = 2.58
    #: Fraction of *extra* (glitch) transitions that actually dissipate.
    #: Pure logic-level event simulation overcounts glitches because it
    #: has no slew/RC pulse filtering; commercial power tools derate
    #: glitch activity the same way.  Calibrated together with the
    #: energy scale, then frozen.
    glitch_retention: float = 0.15
    #: nW of leakage per NAND2-equivalent of area.
    leakage_nw_per_eq: float = 0.9
    #: Default load (wire + sink) assumed for primary outputs.
    output_load: float = 2.0

    def __post_init__(self):
        missing = set(CELL_KINDS) - set(self.cells)
        if missing:
            raise NetlistError(f"library misses cell kinds: {sorted(missing)}")

    def spec(self, kind):
        try:
            return self.cells[kind]
        except KeyError:
            raise NetlistError(f"no spec for cell kind {kind!r}") from None

    def toggle_energy_units(self, kind, load):
        """Capacitance-measure switched by one output toggle."""
        spec = self.spec(kind)
        return spec.area_eq + 0.5 * load

    def scaled(self, energy_fj_per_unit):
        """A copy with a different calibrated energy scale."""
        return replace(self, energy_fj_per_unit=energy_fj_per_unit)

    @property
    def fo4_ps(self):
        inv = self.spec("INV")
        return inv.delay_ps(4 * inv.input_cap)


def default_library():
    """The calibrated 45 nm low-power library used throughout."""
    return CellLibrary(cells=dict(_DEFAULT_CELLS), register=RegisterSpec())
