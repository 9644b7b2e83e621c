"""Record the correctness references the benchmark checks against.

Run from the root of a checkout of the commit whose outputs are the
contract (it rewrites ``perfbench/references.json``)::

    python3 perfbench/record_references.py --power-seeds 0-127

* ``report_sections``: sha256 of every section of one full
  ``generate_report`` (CLI defaults, ``inline`` backend, empty cache);
* ``power``: per seed, every ``power_deep`` point's ``total_mw`` and
  ``events_processed``.

Serve results need no recording: they are checked against
``reference_result`` in every run.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (  # noqa: E402
    POWER_CYCLES,
    POWER_POINTS,
    power_point_values,
    power_stimuli,
    report_section_digests,
)


def seed_range(text):
    first, __, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def record_report():
    from repro.eval.cache import ResultCache
    from repro.eval.report import generate_report

    with tempfile.TemporaryDirectory() as root:
        text = generate_report(
            n_cycles=12, include_sweeps=True, include_verification=True,
            mutations=12, workers=0, backend="inline",
            cache=ResultCache(root=root))
    return report_section_digests(text)


def record_power(seeds):
    from repro.eval.experiments import cached_module
    from repro.hdl.library import default_library
    from repro.hdl.power.monte_carlo import estimate_power

    library = default_library()
    out = {}
    for seed in seeds:
        out[str(seed)] = [
            power_point_values(estimate_power(
                cached_module(design), library, stim, POWER_CYCLES))
            for (design, __), stim in zip(POWER_POINTS,
                                          power_stimuli(seed))]
        print(f"power seed {seed}", file=sys.stderr, flush=True)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--power-seeds", default="0-127", type=seed_range,
                        help="inclusive seed range, e.g. 0-127")
    args = parser.parse_args(argv)
    refs = {"report_sections": record_report(),
            "power": record_power(args.power_seeds)}
    with open(HERE / "references.json", "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
