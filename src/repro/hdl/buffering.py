"""Fanout buffering.

The delay model is linear in the driven load, so an unbuffered net with
dozens of consumers (a recoder one-hot line feeding a whole PP row, the
multiples buses of Fig. 1) would show absurd delays that no synthesized
netlist exhibits — real flows insert buffer trees.  :func:`insert_buffers`
does the same: any net whose driven load exceeds ``max_load`` gets a
layer of BUFs, its consumers are distributed across them, and the pass
repeats until every net (including the new buffer nets) is within
budget.  Constant nets never switch and are exempt.

The pass is a worklist.  The consumer lists, pin loads, pad loads and
driver blocks are built once; pass 1 checks every net, and each later
pass checks, in ascending order, only the nets the previous pass
touched (each split net and each new BUF output) — no other net's
consumers or load can have changed.  A split updates the tables in
place: the split net's consumers become its BUFs in creation order,
and each BUF net gets its group's sinks in group order with their pin
capacitances summed in that order, so every load compares exactly as
a full rebuild of the tables would.  ``tests/oracles/buffering.py``
keeps that full-rebuild pass as the reference.

The pass mutates the module in place (gates are rewired, buffers are
appended with the driver's block tag so per-block area/power stay
meaningful) and preserves functionality exactly — co-simulation tests
cover this.
"""

import math

from repro.errors import NetlistError
from repro.hdl.module import Gate


def insert_buffers(module, library, max_load=8.0):
    """Buffer every net whose driven load exceeds ``max_load``.

    Returns the module (for chaining) with the number of buffers added
    available via ``module.stats()``.
    """
    reg_cap = library.register.input_cap
    if max_load <= reg_cap:
        raise NetlistError("max_load smaller than a single register pin")
    const_nets = set(module.constants)
    buf_cap = library.spec("BUF").input_cap
    gates = module.gates
    registers = module.registers

    # consumer lists: (kind, index, pin) where kind is "gate" or "reg".
    # Only gate/register pins are splittable: primary-output pad load is
    # fixed at the net (a real flow upsizes the driver for pads).
    consumers = {}
    load = [0.0] * module.n_nets
    for gidx, gate in enumerate(gates):
        cap = library.spec(gate.kind).input_cap
        for pin, net in enumerate(gate.inputs):
            load[net] += cap
            consumers.setdefault(net, []).append(("gate", gidx, pin))
    for ridx, reg in enumerate(registers):
        load[reg.d] += reg_cap
        consumers.setdefault(reg.d, []).append(("reg", ridx, 0))
    pad = [0.0] * module.n_nets
    for bus in module.outputs.values():
        for net in bus:
            pad[net] += library.output_load
    block_of = module.block_of_net()

    worklist = range(module.n_nets)
    passes = 0
    while worklist:
        passes += 1
        if passes > 64:
            raise NetlistError("buffer insertion failed to converge")
        touched = []
        for net in worklist:
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
            touched.append(net)
            block = block_of[net]
            bufs = []
            net_load = 0.0
            for g in range(n_groups):
                group = sinks[g::n_groups]
                buf_out = module.gate("BUF", net, block=block)
                bufs.append(("gate", len(gates) - 1, 0))
                net_load += buf_cap
                buf_load = 0.0
                for kind, idx, pin in group:
                    if kind == "gate":
                        gate = gates[idx]
                        buf_load += library.spec(gate.kind).input_cap
                        new_inputs = list(gate.inputs)
                        new_inputs[pin] = buf_out
                        gates[idx] = Gate(
                            kind=gate.kind, inputs=tuple(new_inputs),
                            output=gate.output, block=gate.block)
                    else:
                        reg = registers[idx]
                        buf_load += reg_cap
                        registers[idx] = type(reg)(
                            d=buf_out, q=reg.q, stage=reg.stage,
                            block=reg.block)
                consumers[buf_out] = group
                load.append(buf_load)
                pad.append(0.0)
                block_of.append(block)
                touched.append(buf_out)
            consumers[net] = bufs
            load[net] = net_load
        worklist = sorted(touched)
    return module
