"""Reference constant propagation: the full-rewrite pass.

Every row is re-expressed through the alias map and re-checked against
the constants, whether or not it reads a constant or aliased net.
:func:`repro.hdl.optimize.propagate_constants` keeps untouched rows as
they are and must leave the same gates, registers, outputs, constant
and driver maps, and :class:`~repro.hdl.optimize.OptimizeStats`.  The
partial-constant rules (``_simplify``) are shared: what is checked is
which rows the fast pass skips.
"""

from repro.hdl.cell import cell_eval
from repro.hdl.optimize import OptimizeStats, _simplify


def reference_propagate_constants(module, stats=None):
    """Fold cells whose value is decidable from constant inputs."""
    stats = stats if stats is not None else OptimizeStats()
    const = dict(module.constants)
    replacement = {}
    new_gates = []
    for kind, inputs, output, block in module.gates:
        ins = tuple(replacement.get(n, n) for n in inputs)
        values = [const.get(n) for n in ins]
        if all(v is not None for v in values):
            out_value = cell_eval(kind)(1, *values) & 1
            const[output] = out_value
            module._const_nets[output] = out_value
            module._driver[output] = "const"
            stats.constants_folded += 1
            continue
        simplified = _simplify(kind, ins, values)
        if simplified is None:
            new_gates.append((kind, ins, output, block))
            continue
        new_kind, new_ins = simplified
        if new_kind == "WIRE":
            replacement[output] = new_ins[0]
            module._driver[output] = "const" \
                if new_ins[0] in const else module._driver[new_ins[0]]
            if new_ins[0] in const:
                const[output] = const[new_ins[0]]
                module._const_nets[output] = const[new_ins[0]]
            stats.cells_simplified += 1
            continue
        if new_kind == "CONST":
            const[output] = new_ins
            module._const_nets[output] = new_ins
            module._driver[output] = "const"
            stats.constants_folded += 1
            continue
        stats.cells_simplified += 1
        new_gates.append((new_kind, new_ins, output, block))
    module.gates = new_gates
    module.registers = [(replacement.get(d, d), q, stage, block)
                        for d, q, stage, block in module.registers]
    for name, bus in module.outputs.items():
        module.outputs[name] = [replacement.get(n, n) for n in bus]
    module.drop_index()
    return stats
