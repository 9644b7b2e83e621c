"""Deterministic scheduler-exercise leaves (tests and CI smoke jobs).

Real experiment leaves are too heavy to probe scheduler *behaviour*
(steals, crash recovery, backend parity) — these are the minimal,
importable-by-spec stand-ins the scheduler tests and the CI
``sched-smoke`` job drive through the graph instead.
"""

import hashlib
import os
import time


def seeded_leaf(seed=0, size=4):
    """A cheap, fully deterministic leaf: ``size`` digest-derived ints."""
    out = []
    for i in range(size):
        digest = hashlib.sha256(f"{seed}:{i}".encode()).hexdigest()
        out.append(int(digest[:8], 16))
    return out


def sleepy_leaf(seconds=0.0, seed=0, size=1):
    """A :func:`seeded_leaf` that holds its worker for ``seconds`` —
    the deliberately slow leaf of the steal-under-skew tests."""
    time.sleep(seconds)
    return seeded_leaf(seed=seed, size=size)


def poison_leaf(seed=0):
    """Kill the executing worker on *every* attempt.

    The respawn-cap probe: a leaf like this must surface as a job
    failure after ``MAX_REQUEUES`` recoveries instead of burning
    worker forks forever.
    """
    os._exit(1)


def crashy_leaf(sentinel, seed=0):
    """Kill the executing worker the first time, succeed on retry.

    ``sentinel`` is a filesystem path: absent means "first attempt" —
    the leaf creates it and hard-exits the worker process (no Python
    teardown, exactly like an OOM kill).  Present means "retry" — the
    leaf returns normally.  This makes worker-crash recovery a
    deterministic, single-run test.
    """
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write(str(os.getpid()))
        os._exit(1)
    return seeded_leaf(seed=seed, size=2)
