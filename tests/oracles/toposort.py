"""Reference toposort: Kahn's sort with one consumer list per node.

:func:`repro.hdl.index._depth_first_order` emits some other
topological order, so the two are not compared node for node.  This
sort is the independent cycle oracle: the index must raise its
requested error on exactly the netlists where this one finds a cycle,
and on every other netlist its order must be a permutation of the
nodes that puts each node after the producers of its inputs
(``tests/test_netlist_index.py``).
"""


def kahn_order(module, error):
    """Gate indices and register codes (``-1 - ridx``) in topological
    order, as a list; a cycle raises ``error``."""
    gates, registers = module.gates, module.registers
    n_gates = len(gates)
    node_inputs = ([inputs for __, inputs, __, __ in gates]
                   + [(d,) for d, __, __, __ in registers])
    producers = {output: node
                 for node, (__, __, output, __) in enumerate(gates)}
    producers.update((q, n_gates + ridx)
                     for ridx, (__, q, __, __) in enumerate(registers))
    indegree = [0] * len(node_inputs)
    consumers = [[] for __ in node_inputs]
    for node, nets in enumerate(node_inputs):
        for net in nets:
            if net in producers:
                indegree[node] += 1
                consumers[producers[net]].append(node)
    ready = [node for node, deg in enumerate(indegree) if deg == 0]
    order = []
    while ready:
        node = ready.pop()
        order.append(node if node < n_gates else n_gates - 1 - node)
        for consumer in consumers[node]:
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                ready.append(consumer)
    if len(order) != len(node_inputs):
        raise error("netlist has a combinational cycle")
    return order
