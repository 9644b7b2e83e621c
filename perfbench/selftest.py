"""Self-test: one corrupted output must fail every workload's check.

Runs each workload for one second with ``--corrupt`` (one result is
flipped before it is checked) and requires ``failed`` > 0 and
``correct`` false.  From the root of a checkout::

    python3 perfbench/selftest.py [WORKLOAD ...]

Seed 1 has recorded power references, so the corrupted power point is
checked against the recording rather than against its own first pass.
"""

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def corrupted_run(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0", "--corrupt"],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=300,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    names = (argv if argv is not None else sys.argv[1:]) or list(WORKLOADS)
    ok = True
    for name in names:
        result = corrupted_run(name)
        caught = result["failed"] > 0 and not result["correct"]
        ok &= caught
        print(f"{name}: attempted={result['attempted']} "
              f"failed={result['failed']} correct={result['correct']} "
              f"-> {'caught' if caught else 'MISSED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
