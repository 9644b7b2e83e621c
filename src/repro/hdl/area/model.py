"""Cell-area accounting in um^2 and NAND2 equivalents.

Tables I and II report multiplier area both in um^2 and in "K NAND2"
(NAND2-equivalent gate count); :func:`area_report` produces both, per
top-level block and total, straight from the netlist and library.
"""

from dataclasses import dataclass, field
from typing import Dict

from repro.hdl.library import NAND2_AREA_UM2


@dataclass
class AreaReport:
    """Area of a module, total and by top-level block tag."""

    total_um2: float
    register_um2: float
    by_block_um2: Dict[str, float] = field(default_factory=dict)

    @property
    def total_nand2_eq(self):
        return self.total_um2 / NAND2_AREA_UM2

    def block_um2(self, block):
        return self.by_block_um2.get(block, 0.0)


def area_report(module, library):
    """Sum cell and register areas; group by top-level block tag."""
    top = module.index.top
    by_block: Dict[str, float] = {}
    total = 0.0
    for kind, __, output, __ in module.gates:
        area = library.spec(kind).area_um2
        total += area
        tag = top[output] or "(top)"
        by_block[tag] = by_block.get(tag, 0.0) + area
    reg_area = 0.0
    for __, q, __, __ in module.registers:
        area = library.register.area_um2
        reg_area += area
        total += area
        tag = top[q] or "(registers)"
        by_block[tag] = by_block.get(tag, 0.0) + area
    return AreaReport(total_um2=total, register_um2=reg_area,
                      by_block_um2=by_block)
