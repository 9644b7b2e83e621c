"""Reference fanout buffering: the full-rebuild pass.

Every pass rebuilds the consumer lists, the load array and
``block_of_net()`` over the whole netlist and re-checks every net,
until a pass splits nothing.  The worklist pass of
:func:`repro.hdl.buffering.insert_buffers` must produce the same gates,
registers and net count on every netlist.
"""

import math

from repro.errors import NetlistError
from repro.hdl.module import Gate


def reference_insert_buffers(module, library, max_load=8.0):
    """Buffer every net whose driven load exceeds ``max_load``.

    Returns the module (for chaining) with the number of buffers added
    available via ``module.stats()``.
    """
    if max_load <= library.register.input_cap:
        raise NetlistError("max_load smaller than a single register pin")
    const_nets = set(module.constants)
    buf_cap = library.spec("BUF").input_cap

    # consumer lists: (kind, index, pin) where kind is "gate" or "reg".
    # Only gate/register pins are splittable: primary-output pad load is
    # fixed at the net (a real flow upsizes the driver for pads).
    changed = True
    passes = 0
    while changed:
        changed = False
        passes += 1
        if passes > 64:
            raise NetlistError("buffer insertion failed to converge")
        consumers = {}
        load = [0.0] * module.n_nets
        for gidx, gate in enumerate(module.gates):
            cap = library.spec(gate.kind).input_cap
            for pin, net in enumerate(gate.inputs):
                load[net] += cap
                consumers.setdefault(net, []).append(("gate", gidx, pin))
        for ridx, reg in enumerate(module.registers):
            load[reg.d] += library.register.input_cap
            consumers.setdefault(reg.d, []).append(("reg", ridx, 0))
        pad = [0.0] * module.n_nets
        for bus in module.outputs.values():
            for net in bus:
                pad[net] += library.output_load

        block_of = module.block_of_net()
        for net in range(module.n_nets):
            total = load[net] + pad[net]
            if net in const_nets or total <= max_load:
                continue
            sinks = consumers.get(net, [])
            if len(sinks) < 2:
                continue       # one huge pin / pad only: nothing to split
            n_groups = max(2, math.ceil(total / (max_load - buf_cap)))
            n_groups = min(n_groups, len(sinks))
            if n_groups * buf_cap >= load[net]:
                continue       # splitting would not reduce the pin load
            changed = True
            groups = [sinks[g::n_groups] for g in range(n_groups)]
            for group in groups:
                if not group:
                    continue
                buf_out = module.gate("BUF", net, block=block_of[net])
                for kind, idx, pin in group:
                    if kind == "gate":
                        gate = module.gates[idx]
                        new_inputs = list(gate.inputs)
                        new_inputs[pin] = buf_out
                        module.gates[idx] = Gate(
                            kind=gate.kind, inputs=tuple(new_inputs),
                            output=gate.output, block=gate.block)
                    else:
                        reg = module.registers[idx]
                        module.registers[idx] = type(reg)(
                            d=buf_out, q=reg.q, stage=reg.stage,
                            block=reg.block)
    return module
