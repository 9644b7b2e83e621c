"""Post-construction netlist optimization.

Two synthesis-style cleanups that operate on finished modules:

* :func:`propagate_constants` — evaluates every cell whose inputs are
  all constant nets, re-expresses cells with *some* constant inputs as
  simpler cells (``AND(x, 1) -> BUF``, ``FA(a, b, 0) -> HA`` style
  simplifications happen at build time in ``GateBuilder``; this pass
  catches constants that only become known after composition, e.g. a
  mode net tied off for a single-format build; a row that reads no
  constant or aliased net costs one set test);
* :func:`eliminate_dead_cells` — removes cells (and buffers) whose
  outputs reach no primary output and no register.

Both preserve observable behaviour exactly (property-tested; the
full-rewrite propagation is ``tests/oracles/optimize.py``) and report
what they removed — used by the specialization ablation, which asks how
much area a *single-format* variant of the multi-format unit would save
(an upper bound on the cost of multi-format flexibility).
"""

from dataclasses import dataclass
from typing import Dict

from repro.errors import NetlistError
from repro.hdl.cell import cell_eval


@dataclass
class OptimizeStats:
    """What the passes changed."""

    constants_folded: int = 0
    cells_simplified: int = 0
    dead_cells_removed: int = 0
    dead_registers_removed: int = 0


def tie_input(module, bus_name, value):
    """Replace an input bus with constant drivers (mode specialization).

    Returns the module (mutated): the bus's nets become constants and
    the input port disappears.  Run the optimizer afterwards to reap the
    logic the tie-off killed.
    """
    if bus_name not in module.inputs:
        raise NetlistError(f"no input bus {bus_name!r}")
    bus = module.inputs.pop(bus_name)
    for i, net in enumerate(bus):
        bit = (value >> i) & 1
        module._driver[net] = "const"
        module._const_nets[net] = bit
    module.drop_index()
    return module


def propagate_constants(module, stats=None):
    """Fold cells whose value is decidable from constant inputs.  A row
    reading no ``touched`` (constant or aliased) net is kept as it is."""
    stats = stats if stats is not None else OptimizeStats()
    const: Dict[int, int] = dict(module.constants)
    replacement: Dict[int, int] = {}
    touched = set(const)
    new_gates = []
    for row in module.gates:
        kind, inputs, output, block = row
        if touched.isdisjoint(inputs) and (kind != "MUX2"
                                           or inputs[0] != inputs[1]):
            new_gates.append(row)
            continue
        ins = tuple(replacement.get(n, n) for n in inputs)
        values = [const.get(n) for n in ins]
        if None in values:
            simplified = _simplify(kind, ins, values)
        else:
            simplified = ("CONST", cell_eval(kind)(1, *values) & 1)
        if simplified is None:
            new_gates.append((kind, ins, output, block))
            continue
        new_kind, new_ins = simplified
        if new_kind not in ("WIRE", "CONST"):
            stats.cells_simplified += 1
            new_gates.append((new_kind, new_ins, output, block))
            continue
        touched.add(output)
        if new_kind == "CONST":
            const[output] = module._const_nets[output] = new_ins
            module._driver[output] = "const"
            stats.constants_folded += 1
            continue
        replacement[output] = src = new_ins[0]
        if src in const:
            const[output] = module._const_nets[output] = const[src]
        module._driver[output] = "const" if src in const \
            else module._driver[src]
        stats.cells_simplified += 1
    module.gates = new_gates
    # Re-point registers and outputs through wire replacements.
    module.registers = [(replacement.get(d, d), q, stage, block)
                        for d, q, stage, block in module.registers]
    for name, bus in module.outputs.items():
        module.outputs[name] = [replacement.get(n, n) for n in bus]
    module.drop_index()
    # Wire replacements may leave replaced nets dangling; that is fine —
    # dead-cell elimination reaps them.
    return stats


_AND_LIKE = {"AND2": ("AND2", False), "NAND2": ("NAND2", True)}
_OR_LIKE = {"OR2": ("OR2", False), "NOR2": ("NOR2", True)}


def _simplify(kind, ins, values):
    """Partial-constant simplification; None = keep as is.

    Returns ("WIRE", (net,)) to alias, ("CONST", value), or a new
    ``(kind, inputs)``.
    """
    if kind in ("AND2", "OR2", "XOR2", "NAND2", "NOR2", "XNOR2"):
        for pin in (0, 1):
            v = values[pin]
            if v is None:
                continue
            other = ins[1 - pin]
            if kind == "AND2":
                return ("WIRE", (other,)) if v else ("CONST", 0)
            if kind == "OR2":
                return ("CONST", 1) if v else ("WIRE", (other,))
            if kind == "NAND2":
                return ("INV", (other,)) if v else ("CONST", 1)
            if kind == "NOR2":
                return ("CONST", 0) if v else ("INV", (other,))
            if kind == "XOR2":
                return ("INV", (other,)) if v else ("WIRE", (other,))
            if kind == "XNOR2":
                return ("WIRE", (other,)) if v else ("INV", (other,))
    if kind == "MUX2" and values[2] is not None:
        return ("WIRE", (ins[2 if False else (1 if values[2] else 0)],))
    if kind == "MUX2" and ins[0] == ins[1]:
        return ("WIRE", (ins[0],))
    if kind == "AO22":
        a, b, c, d = ins
        va, vb, vc, vd = values
        if va == 0 or vb == 0:
            return ("AND2", (c, d))
        if vc == 0 or vd == 0:
            return ("AND2", (a, b))
    if kind in ("AND3", "OR3"):
        zero_dominates = kind == "AND3"
        dom = 0 if zero_dominates else 1
        if dom in values:
            return ("CONST", dom)
        live = [n for n, v in zip(ins, values) if v is None]
        if len(live) == 2:
            return (kind[:-1] + "2", tuple(live))
        if len(live) == 1:
            return ("WIRE", (live[0],))
    if kind == "XOR3":
        known = [v for v in values if v is not None]
        live = [n for n, v in zip(ins, values) if v is None]
        if len(live) == 2:
            parity = sum(known) & 1
            return ("XNOR2", tuple(live)) if parity else ("XOR2",
                                                          tuple(live))
        if len(live) == 1:
            parity = sum(known) & 1
            return ("INV", (live[0],)) if parity else ("WIRE", (live[0],))
    if kind == "MAJ3":
        for pin, v in enumerate(values):
            if v is None:
                continue
            others = tuple(n for i, n in enumerate(ins) if i != pin)
            return ("OR2", others) if v else ("AND2", others)
    return None


def eliminate_dead_cells(module, stats=None):
    """Remove cells and registers that cannot reach any output."""
    stats = stats if stats is not None else OptimizeStats()
    live = set()
    for bus in module.outputs.values():
        live.update(bus)
    gate_inputs = {output: inputs
                   for __, inputs, output, __ in module.gates}
    reg_d = {q: d for d, q, __, __ in module.registers}
    stack = list(live)
    while stack:
        net = stack.pop()
        inputs = gate_inputs.get(net)
        if inputs is not None:
            for n in inputs:
                if n not in live:
                    live.add(n)
                    stack.append(n)
        d = reg_d.get(net)
        if d is not None and d not in live:
            live.add(d)
            stack.append(d)

    # A gate row's output is field 2, a register row's q field 1.
    kept_gates = [g for g in module.gates if g[2] in live]
    kept_regs = [r for r in module.registers if r[1] in live]
    stats.dead_cells_removed += len(module.gates) - len(kept_gates)
    stats.dead_registers_removed += len(module.registers) - len(kept_regs)
    module.gates = kept_gates
    module.registers = kept_regs
    module.drop_index()
    return stats


def optimize(module, max_passes=8):
    """Run constant propagation + dead-cell elimination to fixpoint."""
    stats = OptimizeStats()
    for __ in range(max_passes):
        before = (stats.constants_folded, stats.cells_simplified,
                  stats.dead_cells_removed)
        propagate_constants(module, stats)
        eliminate_dead_cells(module, stats)
        after = (stats.constants_folded, stats.cells_simplified,
                 stats.dead_cells_removed)
        if before == after:
            break
    _compact(module)
    return stats


def _compact(module):
    """Drop dangling nets' driver records (keeps validate() happy)."""
    live = set(module._const_nets)
    for bus in [*module.inputs.values(), *module.outputs.values()]:
        live.update(bus)
    for __, inputs, output, __ in module.gates:
        live.add(output)
        live.update(inputs)
    for d, q, __, __ in module.registers:
        live.update((d, q))
    # Renumber nets densely, in ascending order.
    mapping = [-1] * module.n_nets
    for new, old in enumerate(sorted(live)):
        mapping[old] = new
    renumber = mapping.__getitem__
    module.gates = [(kind, tuple(map(renumber, inputs)), mapping[output],
                     block)
                    for kind, inputs, output, block in module.gates]
    module.registers = [(mapping[d], mapping[q], stage, block)
                        for d, q, stage, block in module.registers]
    for name, bus in module.inputs.items():
        module.inputs[name] = list(map(renumber, bus))
    for name, bus in module.outputs.items():
        module.outputs[name] = list(map(renumber, bus))
    module._const_nets = {mapping[n]: v
                          for n, v in module._const_nets.items()}
    module._driver = {mapping[n]: k for n, k in module._driver.items()
                      if mapping[n] >= 0}
    module._const_cache = {v: n for n, v in module._const_nets.items()}
    module.n_nets = len(live)
    module.drop_index()
