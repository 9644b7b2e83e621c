"""Reference fault campaign: clone the module, mutate, re-simulate.

:mod:`repro.eval.fault_injection` judges each mutant by settling the
golden compiled module with one node-table row replaced.  This is the
historic way to reach the same verdicts: copy the netlist, apply the
mutation to the copy, and simulate the copy from scratch — a fresh
toposort and node table per mutant, nothing shared with the golden
module.  Mutations are drawn with the library's ``propose_mutation``,
so a seed names the same mutants on both sides.
"""

import random

from repro.eval.fault_injection import CoverageResult, propose_mutation
from repro.hdl.module import Module
from repro.hdl.sim.levelized import LevelizedSimulator


def clone_module(module):
    """Structural copy (mutations must not touch the original)."""
    twin = Module(module.name)
    twin.n_nets = module.n_nets
    twin.gates = list(module.gates)
    twin.registers = list(module.registers)
    twin.inputs = {k: list(v) for k, v in module.inputs.items()}
    twin.outputs = {k: list(v) for k, v in module.outputs.items()}
    twin._driver = dict(module._driver)
    twin._const_nets = dict(module._const_nets)
    twin._const_cache = dict(module._const_cache)
    return twin


def inject_mutation(module, rng):
    """Apply one random functional mutation in place; returns Mutation."""
    idx, mutant, mutation = propose_mutation(module, rng)
    module.gates[idx] = mutant
    return mutation


def checker(battery):
    """``module -> bool``: simulate ``module`` on ``battery`` and compare."""
    def check(module):
        run = LevelizedSimulator(module).run(battery.stimulus,
                                             battery.n_patterns)
        return battery.check_run(module, run)

    return check


def reference_coverage(module, battery, n_mutations, seed):
    """``mutation_coverage(module, battery, n_mutations, seed)`` by
    clone-and-re-simulate: same mutants, same :class:`CoverageResult`."""
    rng = random.Random(seed)
    check = checker(battery)
    result = CoverageResult(attempted=0, detected=0)
    for __ in range(n_mutations):
        idx, mutant, mutation = propose_mutation(module, rng)
        twin = clone_module(module)
        twin.gates[idx] = mutant
        result.attempted += 1
        if check(twin):
            result.survivors.append(mutation)
        else:
            result.detected += 1
    return result
