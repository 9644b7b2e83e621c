"""The shared work-stealing policy, driven over fake lanes.

No processes and no sockets: these pin the scheduling rules both pool
backends inherit —

* placement on the live lane with the lowest capacity-normalised load,
  ties broken by lane index, and requeues at the head of the backlog;
* an idle lane takes its own head before stealing, and a steal takes
  the *tail* of the longest other backlog, leaving the victim's head;
* a task lost in flight is requeued ``MAX_REQUEUES`` times and then
  handed back to fail; a dead lane's backlog migrates, a live one's
  stays;
* the counter names each backend passes.
"""

from types import SimpleNamespace

import pytest

from repro import obs
from repro.errors import SimulationError
from repro.eval.sched import remote, stealing
from repro.eval.sched.policy import (MAX_REQUEUES, Counters, Lane,
                                     StealingPolicy)

COUNTERS = Counters(steals="test.policy.steals",
                    lane_steals="test.policy.lane.{}.steals",
                    requeues="test.policy.requeues")


def _task(name):
    return SimpleNamespace(name=name)


def _names(lane):
    return [task.name for task in lane.queue]


def _counter(name):
    return obs.registry().snapshot()["counters"].get(name, 0)


def _policy(*capacities, counters=COUNTERS):
    lanes = [Lane(i, label=f"L{i}", capacity=c)
             for i, c in enumerate(capacities)]
    return StealingPolicy(lanes, counters), lanes


def test_placement_is_capacity_normalised_least_loaded_by_index():
    policy, (small, big) = _policy(1, 3)
    # Empty lanes tie at load 0: the lower index wins.
    assert policy.place(_task("a")) is small
    # small is at 1/1, big at 0/3.
    assert [policy.place(_task(n)).index for n in "bcd"] == [1, 1, 1]
    # Both at load 1: index breaks the tie again.
    assert policy.place(_task("e")) is small
    assert _names(small) == ["a", "e"] and _names(big) == ["b", "c", "d"]
    # In-flight tasks count towards load just like queued ones.
    policy.take(big)
    assert (len(big.queue), len(big.inflight)) == (2, 1)
    assert big.load == 1.0


def test_requeue_goes_to_the_head_of_the_least_loaded_lane():
    policy, (lane,) = _policy(1)
    policy.place(_task("a"))
    policy.place(_task("b"), front=True)
    assert _names(lane) == ["b", "a"]


def test_take_prefers_the_own_head_then_steals_from_the_victim_tail():
    policy, (thief, victim, other) = _policy(1, 1, 1)
    thief.queue.append(_task("own"))
    victim.queue.extend(_task(n) for n in ("v0", "v1", "v2"))
    other.queue.append(_task("o0"))
    steals = _counter(COUNTERS.steals)

    assert policy.take(thief).name == "own"           # no steal
    assert _counter(COUNTERS.steals) == steals
    assert list(thief.inflight) == ["own"]

    thief.inflight.clear()
    stolen = policy.take(thief)
    assert stolen.name == "v2"                        # the victim's tail
    assert _names(victim) == ["v0", "v1"]             # head stays put
    assert list(thief.inflight) == ["v2"]
    assert _counter(COUNTERS.steals) == steals + 1
    assert _counter("test.policy.lane.0.steals") >= 1
    record = obs.registry().snapshot()["records"][COUNTERS.steals][-1]
    assert record == {"job": "v2", "victim": "L1", "thief": "L0",
                      "victim_backlog": 2}


def test_steal_skips_dead_lanes_and_returns_none_when_dry():
    policy, (thief, dead) = _policy(1, 1)
    dead.queue.append(_task("x"))
    dead.alive = False
    assert policy.take(thief) is None
    assert _names(dead) == ["x"]


def test_lost_task_fails_after_max_requeues():
    policy, (lane,) = _policy(1)
    requeues = _counter(COUNTERS.requeues)
    policy.place(_task("poison"))
    for __ in range(MAX_REQUEUES):
        assert policy.take(lane).name == "poison"
        assert policy.lose(lane) == []
        assert _names(lane) == ["poison"]
    assert policy.take(lane).name == "poison"
    failed = policy.lose(lane)
    assert [(task.name, losses) for task, losses in failed] \
        == [("poison", MAX_REQUEUES + 1)]
    assert not lane.queue
    assert _counter(COUNTERS.requeues) == requeues + MAX_REQUEUES + 1


def test_lost_lane_backlog_stays_if_live_and_migrates_if_dead():
    policy, (lane, other) = _policy(1, 1)
    lane.queue.extend(_task(n) for n in ("q0", "q1"))
    other.queue.extend(_task(n) for n in ("o0", "o1"))
    policy.take(lane)                                 # q0 in flight
    assert policy.lose(lane) == []                    # respawned in place
    assert _names(lane) == ["q0", "q1"]

    policy.take(lane)
    lane.alive = False                                # a lost host
    assert policy.lose(lane) == []
    assert not lane.queue and not lane.inflight
    # The requeue lands at the head, the backlog at the tail.
    assert _names(other) == ["q0", "o0", "o1", "q1"]
    other.alive = False
    with pytest.raises(SimulationError, match="nowhere left"):
        policy.place(_task("late"))


@pytest.mark.parametrize("counters,expected", [
    (stealing.COUNTERS, ("orchestrator.steals",
                         "orchestrator.worker.0.steals",
                         "orchestrator.worker.crashes")),
    (remote.COUNTERS, ("sched.remote.steals", None,
                       "sched.remote.requeues")),
])
def test_backend_counter_names(counters, expected):
    steals, lane_steals, requeues = expected
    policy, (thief, victim) = _policy(1, 1, counters=counters)
    victim.queue.extend(_task(n) for n in ("a", "b"))
    before = obs.registry().snapshot()["counters"]
    policy.take(thief)
    policy.lose(thief)
    after = obs.registry().snapshot()["counters"]
    ticked = {name for name in after
              if after[name] != before.get(name, 0)}
    assert ticked == {steals, requeues} | ({lane_steals} - {None})
