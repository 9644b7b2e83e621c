"""Gate-level hardware substrate.

This package replaces the paper's 45 nm standard-cell flow: netlists are
built with :class:`~repro.hdl.module.Module`, characterized by the cell
library in :mod:`repro.hdl.library` (calibrated to the paper's anchors:
FO4 = 64 ps, NAND2 = 1.06 um^2), and analyzed by the simulators
(:mod:`repro.hdl.sim`), static timing (:mod:`repro.hdl.timing`), area
(:mod:`repro.hdl.area`) and power (:mod:`repro.hdl.power`) engines.
"""

from repro.hdl.cell import CELL_KINDS, cell_eval, cell_num_inputs
from repro.hdl.library import CellLibrary, CellSpec, default_library
from repro.hdl.module import Module

__all__ = [
    "CELL_KINDS",
    "CellLibrary",
    "CellSpec",
    "Module",
    "cell_eval",
    "cell_num_inputs",
    "default_library",
]
