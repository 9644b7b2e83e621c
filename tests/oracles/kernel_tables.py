"""Reference event-kernel tables: the per-gate Python flattening.

One loop over the module's gate rows pads each gate's inputs to four
with input 0 and reads its kind's truth table; one loop over the
index's tuple fanout lays out the CSR.  The native ``ck_tables`` of
:mod:`repro.hdl.sim.ckernel` fills the same arrays from the compiled
node table and must equal these element for element.
"""

from repro.hdl.cell import CELL_KINDS


def reference_kernel_tables(module):
    """``(gin, ttab, gout, fo_ptr, fo_dat)`` as lists: four input nets
    per gate (unused pins repeat input 0), the 16-entry truth table and
    output net per gate, and net -> reading gates as a CSR."""
    gin, ttab, gout = [], [], []
    for kind, ins, output, __ in module.gates:
        gin += ins + (ins[0],) * (4 - len(ins))
        ttab.append(CELL_KINDS[kind].truth_table)
        gout.append(output)
    fo_ptr, fo_dat = [0], []
    for readers in module.index.fanout:
        fo_dat += readers
        fo_ptr.append(len(fo_dat))
    return gin, ttab, gout, fo_ptr, fo_dat
