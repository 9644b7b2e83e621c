"""Reference implementations the equivalence tests check ``src/`` against.

One module per layer, each written independently of the fast path it
checks: ``cells`` (one hand-written function per cell kind, which the
cell table is checked against and the two simulators below evaluate),
``event_heap`` (one-heap-entry-per-event simulator and the seed's
per-cycle glitch replay), ``levelized`` (per-gate interpreter),
``fault_resim`` (clone-and-re-simulate fault campaigns, which the
patched-row campaign must match verdict for verdict),
``mf_datapath`` (the multiplier's PP-array → Dadda → Fig. 3 datapath,
which ``MFMult(mode="paper")`` must match bit for bit), ``buffering``
(the full-rebuild fanout buffering pass, which the worklist pass must
match gate for gate) and
``sched_leaves`` (deterministic scheduler-exercise leaves, importable by
``"tests.oracles.sched_leaves:<fn>"`` spec from the repository root).
"""
