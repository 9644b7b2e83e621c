"""Fanout buffering.

The delay model is linear in the driven load, so an unbuffered net with
dozens of consumers (a recoder one-hot line feeding a whole PP row, the
multiples buses of Fig. 1) would show absurd delays that no synthesized
netlist exhibits — real flows insert buffer trees.  :func:`insert_buffers`
does the same: any net whose driven load exceeds ``max_load`` gets a
layer of BUFs, its consumers are distributed across them, and the pass
repeats until every net (including the new buffer nets) is within
budget.  Constant nets never switch and are exempt.

The pass is a worklist.  The pin loads, pad loads and driver blocks
are built once, and consumer lists only for the nets over budget (the
only ones a pass can split); pass 1 checks those nets, and each later
pass checks, in ascending order, only the nets the previous pass
touched (each split net and each new BUF output) — no other net's
consumers or load can have changed.  A consumer pin is one int, so a
build tracks no container per pin: ``4 * gate + pin`` for a gate pin,
``-1 - index`` for a register's d pin.  A split updates the tables in
place: the split net's consumers become its BUFs in creation order,
and each BUF net gets its group's sinks in group order with their pin
capacitances summed in that order, so every load compares exactly as
a full rebuild of the tables would.  ``tests/oracles/buffering.py``
keeps that full-rebuild pass as the reference.

The pass mutates the module in place (gates are rewired, buffers are
appended with the driver's block tag so per-block area/power stay
meaningful), drops the module's derived index, and preserves
functionality exactly — co-simulation tests cover this.  A rewired
gate may now read a BUF appended after it, so ``module.gates`` is not
in topological order afterwards; readers take the index's order.
"""

import math

from repro.errors import NetlistError


def insert_buffers(module, library, max_load=8.0):
    """Buffer every net whose driven load exceeds ``max_load``.

    Returns the module (for chaining) with the number of buffers added
    available via ``module.stats()``.
    """
    reg_cap = library.register.input_cap
    if max_load <= reg_cap:
        raise NetlistError("max_load smaller than a single register pin")
    const_nets = set(module.constants)
    input_cap = {kind: spec.input_cap for kind, spec in library.cells.items()}
    buf_cap = input_cap["BUF"]
    gates = module.gates
    registers = module.registers

    load = [0.0] * module.n_nets
    for kind, inputs, __, __ in gates:
        cap = input_cap[kind]
        for net in inputs:
            load[net] += cap
    for d, __, __, __ in registers:
        load[d] += reg_cap
    pad = [0.0] * module.n_nets
    for bus in module.outputs.values():
        for net in bus:
            pad[net] += library.output_load
    # Consumer lists of the nets over budget only: no other net is
    # split.  Gate pins come first, in (gate, pin) order, then register
    # d pins.  Only gate and register pins are splittable: primary-output
    # pad load is fixed at the net (a real flow upsizes the driver for
    # pads).
    consumers = {net: [] for net in range(module.n_nets)
                 if load[net] + pad[net] > max_load
                 and net not in const_nets}
    if consumers:
        for gidx, (__, inputs, __, __) in enumerate(gates):
            for pin, net in enumerate(inputs):
                if net in consumers:
                    consumers[net].append(4 * gidx + pin)
        for ridx, (d, __, __, __) in enumerate(registers):
            if d in consumers:
                consumers[d].append(-1 - ridx)
    block_of = list(module.index.owner)

    worklist = list(consumers)
    passes = 0
    while worklist:
        passes += 1
        if passes > 64:
            raise NetlistError("buffer insertion failed to converge")
        touched = []
        for net in worklist:
            total = load[net] + pad[net]
            if total <= max_load:
                continue
            sinks = consumers[net]
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
                bufs.append(4 * (len(gates) - 1))
                net_load += buf_cap
                buf_load = 0.0
                for sink in group:
                    if sink >= 0:
                        idx, pin = divmod(sink, 4)
                        kind, inputs, output, gate_block = gates[idx]
                        buf_load += input_cap[kind]
                        gates[idx] = (kind, inputs[:pin] + (buf_out,)
                                      + inputs[pin + 1:],
                                      output, gate_block)
                    else:
                        __, q, stage, reg_block = registers[-1 - sink]
                        buf_load += reg_cap
                        registers[-1 - sink] = (buf_out, q, stage, reg_block)
                consumers[buf_out] = group
                load.append(buf_load)
                pad.append(0.0)
                block_of.append(block)
                touched.append(buf_out)
            consumers[net] = bufs
            load[net] = net_load
        worklist = sorted(touched)
    module.drop_index()
    return module
