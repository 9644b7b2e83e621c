"""Reference levelized simulator: per-gate dispatch to ``oracles.cells``.

The historic interpreted kernel the generated straight-line code of
:mod:`repro.hdl.sim.compile` must match net for net.  It walks the
module index's node order itself, packs stimulus
bit by bit instead of through ``bit_transpose``, and models registers
as masked time shifts (``q = (d << 1) & m``).
"""

from repro.bits.utils import mask
from repro.hdl.sim.levelized import SimRun
from tests.oracles.cells import reference_eval


def _pack(words, width):
    """Per-bit packed pattern words of ``words`` (LSB-first bus)."""
    packed = [0] * width
    for t, word in enumerate(words):
        for i in range(width):
            packed[i] |= ((word >> i) & 1) << t
    return packed


def _settle(module, values, m):
    gates = module.gates
    registers = module.registers
    for node in module.index.node_order():
        if node >= 0:
            kind, inputs, output, __ = gates[node]
            fn = reference_eval(kind)
            values[output] = fn(m, *[values[n] for n in inputs]) & m
        else:
            d, q, __, __ = registers[-node - 1]
            values[q] = (values[d] << 1) & m


def interpreted_run(module, stimulus, n):
    """``LevelizedSimulator(module).run(stimulus, n)``, interpreted."""
    m = mask(n)
    values = [0] * module.n_nets
    for name, bus in module.inputs.items():
        for i, word in enumerate(_pack(stimulus[name][:n], len(bus))):
            values[bus[i]] = word
    for net, cval in module.constants.items():
        values[net] = m if cval else 0
    _settle(module, values, m)
    return SimRun(n_patterns=n, values=values)

