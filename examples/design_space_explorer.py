"""Design-space exploration with the gate-level substrate.

Run:  python examples/design_space_explorer.py  [--power]

Reproduces the paper's Sec. II trade-off study and extends it: builds
real netlists across radix / CPA style / pipeline placement, verifies
each functionally, and tabulates latency, clock, area (and optionally
Monte Carlo power; slower).  This is the workflow the substrate exists
for — the paper's Tables I-III are three points of this space.
"""

import sys

from repro.eval.orchestrator import run_experiment


def main():
    power_cycles = 10 if "--power" in sys.argv else 0
    if power_cycles:
        print("(including Monte Carlo power; this takes a minute)\n")

    sweeps = {name: run_experiment(name, power_cycles=power_cycles)
              for name in ("sweep_radix", "sweep_cpa", "sweep_pipeline_cut",
                           "sweep_tree")}
    for result in sweeps.values():
        print(result.render())
        print()

    radix = {p.label: p for p in sweeps["sweep_radix"].points}
    print("Findings (cf. Sec. II-A):")
    print(f"  * radix-4 is the fastest combinationally "
          f"({radix['radix-4'].latency_ps:.0f} ps vs "
          f"{radix['radix-16'].latency_ps:.0f} ps) but its tree "
          f"dominates area and activity;")
    print(f"  * radix-8 pays the 3X pre-computation like radix-16 yet "
          f"keeps a taller tree ({radix['radix-8'].latency_ps:.0f} ps) — "
          f"dominated, as the paper argued;")
    print("  * radix-16 trades a slower carry-free front-end for the "
          "shallowest tree — the paper's pick for power.")


if __name__ == "__main__":
    main()
