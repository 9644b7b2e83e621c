"""Reference gate closures for the differential fault engine.

:class:`~repro.hdl.sim.differential.DifferentialEngine` evaluates cone
gates through the compiled masked closures of
:mod:`repro.hdl.sim.compile`.  These closures compute the same words by
``cell_eval`` dispatch instead; tests install them on an engine's
``_evals`` to check verdicts do not depend on the codegen.
"""

from repro.hdl.cell import cell_eval


def interpreted_masked_evals(module, work, m):
    """One closure per gate: its packed output word over ``work``."""
    evals = []
    for gate in module.gates:
        fn = cell_eval(gate.kind)
        ins = gate.inputs
        evals.append(lambda fn=fn, ins=ins:
                     fn(m, *[work[n] for n in ins]) & m)
    return evals
