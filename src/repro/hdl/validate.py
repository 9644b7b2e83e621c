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
    driven = {}
    for idx, (__, __, output, __) in enumerate(module.gates):
        if output in driven:
            raise NetlistError(
                f"net {output} driven by gates {driven[output]} and {idx}"
            )
        driven[output] = idx
    for __, q, __, __ in module.registers:
        if q in driven:
            raise NetlistError(f"register q net {q} also driven by a gate")
        driven[q] = f"reg:{q}"
    for name, bus in module.inputs.items():
        for net in bus:
            if net in driven:
                raise NetlistError(f"input {name} net {net} also driven")
            driven[net] = f"input:{name}"
    for net in module.constants:
        if net in driven:
            raise NetlistError(f"constant net {net} also driven")
        driven[net] = "const"
    for net in range(module.n_nets):
        if net not in driven:
            raise NetlistError(f"net {net} has no driver")
