"""``Backend.next_result``'s contract on the streaming pools.

``workers`` and ``remote`` share one result loop from
:class:`~repro.eval.sched.base.Backend`.  With a timeout the call is a
poll that returns ``None`` when nothing finished — a worker daemon's
pump thread depends on this.  Without one it blocks until a result
arrives, and raises :class:`RuntimeError` when nothing is in flight.
"""

import pytest

from repro.eval.sched import RemoteBackend, WorkersBackend
from repro.eval.sched.base import LeafTask
from repro.eval.sched.remote import parse_hosts
from tests.oracles.sched_leaves import sleepy_leaf
from tests.test_remote_sched import two_daemons  # noqa: F401 (fixture)

SLOW = LeafTask(name="slow", fn="tests.oracles.sched_leaves:sleepy_leaf",
                params=(("seconds", 0.5), ("seed", 3), ("size", 2)))


def _check_next_result_contract(pool):
    with pool:
        with pytest.raises(RuntimeError, match="no jobs in flight"):
            pool.next_result()
        assert pool.next_result(timeout=0.01) is None
        pool.submit(SLOW)
        assert pool.next_result(timeout=0.05) is None    # still running
        assert pool.outstanding == 1
        result = pool.next_result()
        assert result.ok and result.name == "slow"
        assert result.value == sleepy_leaf(seed=3, size=2)
        assert pool.outstanding == 0
        assert pool.next_result(timeout=0.01) is None
        with pytest.raises(RuntimeError, match="no jobs in flight"):
            pool.next_result()


def test_workers_next_result_timeout_contract():
    _check_next_result_contract(WorkersBackend(2))


def test_remote_next_result_timeout_contract(two_daemons):  # noqa: F811
    __, hosts = two_daemons
    _check_next_result_contract(RemoteBackend(parse_hosts(hosts)))
