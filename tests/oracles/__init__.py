"""Reference implementations the equivalence tests check ``src/`` against.

One module per layer, each written independently of the fast path it
checks: ``event_heap`` (one-heap-entry-per-event simulator and the
seed's per-cycle glitch replay), ``levelized`` (per-gate ``cell_eval``
interpreter), ``differential`` (interpreted masked gate closures) and
``sched_leaves`` (deterministic scheduler-exercise leaves, importable by
``"tests.oracles.sched_leaves:<fn>"`` spec from the repository root).
"""
