"""Reference cell semantics: one hand-written function per cell kind.

The cell table of :mod:`repro.hdl.cell` renders every evaluator, kernel
case, truth table and Verilog expression from one template per kind, so
a test comparing two of those renderings proves nothing about the
template itself.  These functions are written out independently and
import nothing from ``repro``; the kind-by-kind tests and the reference
simulators check the table against them.

Evaluation is bit-parallel, like ``cell_eval``: each operand is an int
whose bit ``t`` is the net's value in pattern ``t``, and ``m`` is the
all-patterns mask.
"""


def _inv(m, a):
    return m ^ a


def _buf(m, a):
    return a


def _and2(m, a, b):
    return a & b


def _and3(m, a, b, c):
    return a & b & c


def _or2(m, a, b):
    return a | b


def _or3(m, a, b, c):
    return a | b | c


def _nand2(m, a, b):
    return m ^ (a & b)


def _nand3(m, a, b, c):
    return m ^ (a & b & c)


def _nor2(m, a, b):
    return m ^ (a | b)


def _nor3(m, a, b, c):
    return m ^ (a | b | c)


def _xor2(m, a, b):
    return a ^ b


def _xnor2(m, a, b):
    return m ^ a ^ b


def _xor3(m, a, b, c):
    return a ^ b ^ c


def _maj3(m, a, b, c):
    return (a & b) | (a & c) | (b & c)


def _mux2(m, a, b, s):
    """Output ``a`` when ``s = 0``, ``b`` when ``s = 1``."""
    return (a & (m ^ s)) | (b & s)


def _aoi21(m, a, b, c):
    return m ^ ((a & b) | c)


def _oai21(m, a, b, c):
    return m ^ ((a | b) & c)


def _ao22(m, a, b, c, d):
    return (a & b) | (c & d)


def _oa22(m, a, b, c, d):
    return (a | b) & (c | d)


#: kind -> (bit-parallel evaluation function, number of inputs)
CELLS = {
    "INV": (_inv, 1),
    "BUF": (_buf, 1),
    "AND2": (_and2, 2),
    "AND3": (_and3, 3),
    "OR2": (_or2, 2),
    "OR3": (_or3, 3),
    "NAND2": (_nand2, 2),
    "NAND3": (_nand3, 3),
    "NOR2": (_nor2, 2),
    "NOR3": (_nor3, 3),
    "XOR2": (_xor2, 2),
    "XNOR2": (_xnor2, 2),
    "XOR3": (_xor3, 3),
    "MAJ3": (_maj3, 3),
    "MUX2": (_mux2, 3),
    "AOI21": (_aoi21, 3),
    "OAI21": (_oai21, 3),
    "AO22": (_ao22, 4),
    "OA22": (_oa22, 4),
}


def reference_eval(kind):
    """The reference bit-parallel evaluation function of ``kind``."""
    return CELLS[kind][0]
