"""The one work-stealing policy of the ``workers`` and ``remote`` backends.

A backend subclasses :class:`Lane` to carry its transport handles (a
worker process is a capacity-1 lane, a remote host has its daemon's
worker count) and drives a :class:`StealingPolicy` over those lanes:
placement on the least-loaded live lane, an idle lane taking its own
head before stealing from the tail of the longest other backlog (the
victim's head, likely cache-warm, stays put), and a capped requeue of
what a lost lane had in flight.  Steals and lost in-flight leaves are
counted under the names the backend passes in :class:`Counters`.
"""

from collections import deque
from typing import NamedTuple, Optional

from repro import obs
from repro.errors import SimulationError

#: A leaf lost in flight more than this many times fails its job, so a
#: poison leaf cannot sink workers or hosts forever.
MAX_REQUEUES = 2


class Counters(NamedTuple):
    steals: str                   # counter + record of every steal
    lane_steals: Optional[str]    # per-thief counter, ``{}`` = its index
    requeues: str                 # counter + record of every lost leaf


class Lane:
    """Backlog deque + in-flight map; load = (queued + in flight) / capacity."""

    __slots__ = ("index", "label", "capacity", "queue", "inflight", "alive")

    def __init__(self, index, label=None, capacity=1):
        self.index = index
        self.label = index if label is None else label
        self.capacity = capacity
        self.queue = deque()          # tasks not yet dispatched
        self.inflight = {}            # task name -> task
        self.alive = True

    @property
    def load(self):
        return (len(self.queue) + len(self.inflight)) / self.capacity


class StealingPolicy:
    def __init__(self, lanes, counters):
        self.lanes = lanes
        self.counters = counters
        self._losses = {}             # task name -> times lost in flight

    def live(self):
        return [lane for lane in self.lanes if lane.alive]

    def place(self, task, front=False):
        """Queue ``task`` on the live lane with the lowest ``(load,
        index)`` — at the head when ``front`` — and return that lane."""
        live = self.live()
        if not live:
            raise SimulationError(f"nowhere left to run leaf {task.name!r}: "
                                  "every worker or host is lost")
        lane = min(live, key=lambda lane: (lane.load, lane.index))
        (lane.queue.appendleft if front else lane.queue.append)(task)
        return lane

    def take(self, lane):
        """``lane``'s own head, else a task stolen from the tail of the
        longest live backlog, now in flight on ``lane``; ``None`` if dry."""
        if lane.queue:
            task = lane.queue.popleft()
        else:
            victim = max((other for other in self.live() if other.queue),
                         key=lambda other: (len(other.queue), -other.index),
                         default=None)
            if victim is None:
                return None
            task = victim.queue.pop()
            reg = obs.registry()
            reg.inc(self.counters.steals)
            if self.counters.lane_steals:
                reg.inc(self.counters.lane_steals.format(lane.index))
            reg.record(self.counters.steals,
                       {"job": task.name, "victim": victim.label,
                        "thief": lane.label,
                        "victim_backlog": len(victim.queue)})
        lane.inflight[task.name] = task
        return task

    def lose(self, lane):
        """Requeue a lost lane's in-flight tasks at the head of placement
        and return ``[(task, losses)]`` for those past
        :data:`MAX_REQUEUES`, which the backend fails.  A dead lane
        (``alive`` False) also gives its backlog back to placement."""
        reg = obs.registry()
        failed = []
        inflight = list(lane.inflight.values())
        lane.inflight.clear()
        for task in inflight:
            losses = self._losses.get(task.name, 0) + 1
            self._losses[task.name] = losses
            reg.inc(self.counters.requeues)
            reg.record(self.counters.requeues,
                       {"job": task.name, "lane": lane.label,
                        "losses": losses})
            if losses > MAX_REQUEUES:
                failed.append((task, losses))
            else:
                self.place(task, front=True)
        if not lane.alive:
            while lane.queue:
                self.place(lane.queue.popleft())
        return failed
