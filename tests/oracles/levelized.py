"""Reference levelized simulator: per-gate ``cell_eval`` dispatch.

The historic interpreted kernel the generated straight-line code of
:mod:`repro.hdl.sim.compile` must match net for net.  It walks
:func:`~repro.hdl.sim.toposort.topo_node_order` itself, packs stimulus
bit by bit instead of through ``bit_transpose``, and models registers
as masked time shifts (``q = (d << 1) & reg_mask``), with ``reg_mask``
clearing each segment's first pattern in the superword case.
"""

from repro.bits.utils import mask
from repro.hdl.cell import cell_eval
from repro.hdl.sim.levelized import SegmentedRun, SimRun
from repro.hdl.sim.toposort import topo_node_order


def _pack(words, width):
    """Per-bit packed pattern words of ``words`` (LSB-first bus)."""
    packed = [0] * width
    for t, word in enumerate(words):
        for i in range(width):
            packed[i] |= ((word >> i) & 1) << t
    return packed


def _settle(module, values, m, reg_mask):
    gates = module.gates
    registers = module.registers
    for node in topo_node_order(module):
        if node >= 0:
            gate = gates[node]
            fn = cell_eval(gate.kind)
            values[gate.output] = fn(
                m, *[values[n] for n in gate.inputs]) & m
        else:
            reg = registers[-node - 1]
            values[reg.q] = (values[reg.d] << 1) & reg_mask


def _seeded_values(module, merged, m):
    values = [0] * module.n_nets
    for name, bus in module.inputs.items():
        for i, word in enumerate(_pack(merged[name], len(bus))):
            values[bus[i]] = word
    for net, cval in module.constants.items():
        values[net] = m if cval else 0
    return values


def interpreted_run(module, stimulus, n):
    """``LevelizedSimulator(module).run(stimulus, n)``, interpreted."""
    merged = {name: list(stimulus[name][:n]) for name in module.inputs}
    m = mask(n)
    values = _seeded_values(module, merged, m)
    _settle(module, values, m, m)
    return SimRun(n_patterns=n, values=values)


def interpreted_run_segments(module, jobs):
    """``LevelizedSimulator(module).run_segments(jobs)``, interpreted."""
    segments = []
    boundary = 0
    total = 0
    merged = {name: [] for name in module.inputs}
    for stimulus, n in jobs:
        segments.append((total, n))
        boundary |= 1 << total
        total += n
        for name in module.inputs:
            words = list(stimulus[name][:n])
            merged[name] += words + [0] * (n - len(words))
    m = mask(total)
    values = _seeded_values(module, merged, m)
    _settle(module, values, m, m & ~boundary)
    return SegmentedRun(segments=segments, values=values)
