"""Netlist sanity checks.

Run :func:`validate` on every generated circuit before simulating it;
the generators in :mod:`repro.circuits` are tested to produce clean
netlists, and the checks here catch generator bugs (dangling nets,
combinational cycles, double drivers) at build time instead of as
mysterious simulation results.
"""

from repro.errors import NetlistError


def validate(module):
    """Raise :class:`NetlistError` on any structural problem.

    Checks: every net driven exactly once; no combinational cycles
    (registers break cycles only in real feedback designs — the units
    here are feed-forward, so we require full acyclicity including the
    d->q pseudo-edges); all output/register nets resolvable.
    """
    _check_single_drivers(module)
    # The index's one sort over gate+register nodes, kept for the
    # analyses that follow.
    module.index.node_order(NetlistError)
    return module


def _check_single_drivers(module):
    """Raise on the first net driven twice, naming both drivers (gates,
    then registers, inputs and constants), then on the lowest undriven
    net."""
    nets = ([output for __, __, output, __ in module.gates]
            + [q for __, q, __, __ in module.registers]
            + [net for bus in module.inputs.values() for net in bus]
            + list(module.constants))
    driven = bytearray(module.n_nets)
    for pos, net in enumerate(nets):
        if driven[net]:
            raise NetlistError(
                f"net {net} driven by {_driver(module, nets.index(net))} "
                f"and {_driver(module, pos)}")
        driven[net] = 1
    undriven = driven.find(0)
    if undriven >= 0:
        raise NetlistError(f"net {undriven} has no driver")


def _driver(module, pos):
    """The driver at position ``pos`` of the checking order."""
    if pos < len(module.gates):
        return f"gate {pos}"
    pos -= len(module.gates)
    if pos < len(module.registers):
        return f"register {pos}"
    pos -= len(module.registers)
    for name, bus in module.inputs.items():
        if pos < len(bus):
            return f"input {name}"
        pos -= len(bus)
    return "a constant"
