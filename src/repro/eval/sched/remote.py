"""The ``remote`` backend: orchestrator leaves on other machines.

The coordinator side of the multi-host scheduler.  ``--backend remote
--hosts a:9700,b:9700`` connects to worker daemons
(:mod:`repro.eval.sched.daemon`), authenticates each socket with the
mutual HMAC handshake of :mod:`repro.eval.sched.wire`, and then drives
the same :class:`~repro.eval.sched.base.Backend` contract the local
backends implement — ``submit`` / ``next_result`` / ``close`` — so the
scheduler core, the report CLI and the benchmarks need no new code
paths to span machines.

Scheduling
    Each host is a lane, with the capacity its ``welcome`` frame
    announced, of the :class:`~repro.eval.sched.policy.StealingPolicy`
    the ``workers`` backend drives too (``sched.remote.steals``); each
    host runs its leaves on its own local stealing pool, so the cluster
    is a two-level stealing hierarchy.  This module keeps only the
    transport: handshake, heartbeats, cache offer/pull, lost hosts.

Cache sync
    Before a leaf is dispatched its sha256 cache digest (the
    ``LeafTask.fingerprint`` the orchestrator computes anyway) is
    **offered** to every connected host; a host holding the object in
    its content-addressed store answers with a hit and the coordinator
    **pulls** the pickled result by digest instead of re-executing the
    leaf — warm entries move between machines over the same socket.
    Dispatch waits until every live host has answered the offer, so a
    fully warm cluster replays a report with zero leaf executions.
    Daemons store every result they execute under its digest.
    ``REPRO_SCHED_CACHE_SYNC=0`` turns the offers off, so every leaf
    executes.

Failure model
    Heartbeat pings flow every :attr:`RemoteBackend.HEARTBEAT_S`; a host
    that stays silent past :attr:`RemoteBackend.TIMEOUT_S` — or whose
    socket errors — is declared lost: its in-flight leaves go to the
    policy's capped requeue (``sched.remote.requeues``), its backlog
    and unanswered cache offers migrate.  Losing the *last* host raises
    — there is nowhere left to run.

Everything is observable under ``sched.remote.*``: host count, jobs,
steals, requeues, cache offers/hits/pulls and per-direction byte
counts, plus the per-leaf ``repro.obs/1`` payloads streamed back with
each result (so ``--live`` and the telemetry endpoint show the whole
cluster).
"""

import os
import pickle
import select
import socket
import time

from repro import obs
from repro.errors import SimulationError
from repro.eval.sched import wire
from repro.eval.sched.base import Backend, LeafResult
from repro.eval.sched.policy import Counters, Lane, StealingPolicy

#: The metric names this backend's stealing policy ticks.
COUNTERS = Counters(steals="sched.remote.steals", lane_steals=None,
                    requeues="sched.remote.requeues")


def parse_hosts(spec):
    """``"a:9700,b:9701"`` (or an iterable of such) -> ``[(host, port)]``."""
    if spec is None:
        spec = os.environ.get("REPRO_SCHED_HOSTS", "")
    if isinstance(spec, str):
        parts = [p.strip() for p in spec.split(",") if p.strip()]
    else:
        parts = [str(p).strip() for p in spec if str(p).strip()]
    hosts = []
    for part in parts:
        host, sep, port = part.rpartition(":")
        if not sep or not port.isdigit():
            raise SimulationError(
                f"bad --hosts entry {part!r}: expected HOST:PORT")
        hosts.append((host or "127.0.0.1", int(port)))
    if not hosts:
        raise SimulationError(
            "the remote backend needs --hosts HOST:PORT[,HOST:PORT...] "
            "(or REPRO_SCHED_HOSTS)")
    return hosts


class _Host(Lane):
    """One worker daemon: a lane plus its socket and heartbeat state."""

    __slots__ = ("addr", "stream", "last_recv", "last_ping", "ping_seq",
                 "stats")

    def __init__(self, index, addr):
        super().__init__(index, label=f"{addr[0]}:{addr[1]}")
        self.addr = addr
        self.stream = None
        self.alive = False            # until the handshake succeeds
        self.last_recv = 0.0
        self.last_ping = 0.0
        self.ping_seq = 0
        self.stats = {}               # last pong payload


class _TaskState:
    """Lifecycle of one submitted leaf across offers/pulls/dispatch."""

    __slots__ = ("task", "phase", "offers_waiting", "hit_hosts",
                 "pull_host")

    def __init__(self, task):
        self.task = task
        self.phase = "new"       # offering | pulling | placed | done
        self.offers_waiting = set()     # host indices yet to answer
        self.hit_hosts = []             # host indices that hold the digest
        self.pull_host = None


class RemoteBackend(Backend):
    """Multiplex several worker daemons behind the Backend protocol."""

    name = "remote"
    mode = "remote"

    #: Seconds between heartbeat pings to each host.
    HEARTBEAT_S = 2.0
    #: A host silent for this many seconds is declared lost.
    TIMEOUT_S = 15.0
    #: Seconds to wait for a daemon's TCP connect + handshake.
    CONNECT_TIMEOUT_S = 5.0

    def __init__(self, hosts, token=None):
        super().__init__()
        self._hosts = [_Host(i, addr) for i, addr in enumerate(hosts)]
        self._policy = StealingPolicy(self._hosts, COUNTERS)
        self._token = wire.default_token() if token is None else token
        self._tasks = {}          # name -> _TaskState
        self._by_digest = {}      # fingerprint -> task name
        self._started = False
        self._cache_sync = os.environ.get("REPRO_SCHED_CACHE_SYNC", "1") != "0"

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------

    def _connect(self, host):
        try:
            sock = socket.create_connection(host.addr,
                                            timeout=self.CONNECT_TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            stream = wire.FrameStream(sock)
            welcome = wire.client_handshake(stream, self._token)
        except (OSError, EOFError, wire.WireError) as exc:
            obs.registry().record(
                "sched.remote.connect_failed",
                {"host": host.label, "error": str(exc)})
            return False
        sock.settimeout(None)
        host.stream = stream
        host.capacity = max(1, int(welcome.get("workers", 1)))
        if welcome.get("host"):
            host.label = f"{welcome['host']}({host.label})"
        host.alive = True
        host.last_recv = time.monotonic()
        return True

    def _ensure_started(self):
        if self._started:
            return
        reg = obs.registry()
        connected = sum(1 for host in self._hosts if self._connect(host))
        if not connected:
            raise SimulationError(
                "remote backend could not reach any worker daemon: "
                + ", ".join(h.label for h in self._hosts))
        reg.gauge("sched.remote.hosts", connected)
        reg.record("sched.remote.hosts",
                   {"connected": [h.label for h in self._hosts if h.alive],
                    "capacity": sum(h.capacity for h in self._hosts
                                    if h.alive)})
        self._started = True

    # ------------------------------------------------------------------
    # Backend protocol
    # ------------------------------------------------------------------

    def _launch(self, task):
        self._ensure_started()
        state = _TaskState(task)
        self._tasks[task.name] = state
        alive = self._policy.live()
        if self._cache_sync and task.fingerprint and alive:
            self._by_digest[task.fingerprint] = task.name
            state.phase = "offering"
            state.offers_waiting = {host.index for host in alive}
            reg = obs.registry()
            for host in alive:
                reg.inc("sched.remote.cache.offers")
                if not self._send(host, wire.cache_offer_envelope(
                        task.name, [task.fingerprint])):
                    state.offers_waiting.discard(host.index)
        else:
            self._make_ready(state)
        self._dispatch()
        self._tick(0.0)

    def _poll(self, timeout):
        cap = self.HEARTBEAT_S / 4           # keep heartbeats flowing
        self._tick(cap if timeout is None else min(timeout, cap))

    def close(self):
        for host in self._policy.live():
            try:
                host.stream.send(wire.shutdown_envelope())
            except (OSError, wire.WireError):
                pass
        self._flush_byte_gauges()
        for host in self._hosts:
            if host.stream is not None:
                host.stream.close()
                host.stream = None
            host.alive = False
            host.queue.clear()
            host.inflight.clear()
        self._started = False

    # ------------------------------------------------------------------
    # the event loop (single-threaded: runs inside submit/next_result)
    # ------------------------------------------------------------------

    def _tick(self, timeout):
        """One pass of socket I/O, heartbeats and dispatch."""
        alive = self._policy.live()
        if alive:
            readable, __, __ = select.select(
                [host.stream for host in alive], [], [], timeout)
            for stream in readable:
                host = next(h for h in alive if h.stream is stream)
                if not host.alive:
                    continue
                try:
                    env = stream.recv()
                except EOFError:
                    self._lose_host(host, "connection closed")
                    continue
                except OSError as exc:
                    self._lose_host(host, f"socket error: {exc}")
                    continue
                except wire.WireError as exc:
                    if exc.fatal:
                        self._lose_host(host, f"wire error: {exc}")
                        continue
                    obs.registry().inc("sched.remote.wire_errors")
                    continue
                host.last_recv = time.monotonic()
                self._on_frame(host, env)
        self._heartbeat_pass()
        self._dispatch()
        self._flush_byte_gauges()

    def _heartbeat_pass(self):
        now = time.monotonic()
        for host in self._policy.live():
            if now - host.last_recv > self.TIMEOUT_S:
                self._lose_host(host, "heartbeat timeout")
            elif now - host.last_ping >= self.HEARTBEAT_S:
                host.ping_seq += 1
                host.last_ping = now
                self._send(host, wire.ping_envelope(host.ping_seq))

    def _flush_byte_gauges(self):
        reg = obs.registry()
        reg.gauge("sched.remote.bytes.sent",
                  sum(h.stream.bytes_sent for h in self._hosts
                      if h.stream is not None))
        reg.gauge("sched.remote.bytes.recv",
                  sum(h.stream.bytes_recv for h in self._hosts
                      if h.stream is not None))

    def _send(self, host, envelope):
        """Send one frame; a failed host is lost in place.  True on ok."""
        try:
            host.stream.send(envelope)
            return True
        except (OSError, wire.WireError) as exc:
            self._lose_host(host, f"send failed: {exc}")
            return False

    # ------------------------------------------------------------------
    # frame handling
    # ------------------------------------------------------------------

    def _on_frame(self, host, env):
        kind = env.get("kind")
        if kind in ("result", "error"):
            self._on_result(host, env)
        elif kind == "cache_hits":
            self._on_cache_hits(host, env)
        elif kind == "cache_object":
            self._on_cache_object(host, env)
        elif kind == "cache_miss":
            self._on_cache_miss(host, env)
        elif kind == "pong":
            host.stats = env.get("stats") or {}
        elif kind == "shutdown":
            self._lose_host(host, "daemon shut down")
        # anything else from an authenticated daemon is ignorable noise

    def _on_result(self, host, env):
        try:
            result = wire.result_from_envelope(env)
        except (KeyError, pickle.UnpicklingError) as exc:
            obs.registry().inc("sched.remote.wire_errors")
            obs.registry().record(
                "sched.remote.wire_errors",
                {"host": host.label, "error": repr(exc)})
            return
        if result.name == "?":
            # The daemon rejected a frame of ours; it never maps to a
            # leaf here because jobs are tracked by inflight name.
            obs.registry().inc("sched.remote.wire_errors")
            return
        if host.inflight.pop(result.name, None) is None:
            return                       # late duplicate after a requeue
        state = self._tasks[result.name]
        result.worker = f"{host.label}/{result.worker}"
        self._settle(state, result)

    def _on_cache_hits(self, host, env):
        state = self._tasks.get(env.get("offer"))
        if state is None:
            return
        state.offers_waiting.discard(host.index)
        if env.get("digests"):
            state.hit_hosts.append(host.index)
        if state.phase == "offering":
            self._start_pull(state)

    def _start_pull(self, state):
        """Pull from the next live hit host; with none left, wait for
        the remaining offer answers or, once all answered, execute."""
        while state.hit_hosts:
            index = state.hit_hosts.pop(0)
            host = self._hosts[index]
            if not host.alive:
                continue
            state.phase = "pulling"
            state.pull_host = index
            if self._send(host, wire.cache_pull_envelope(
                    state.task.fingerprint)):
                obs.registry().inc("sched.remote.cache.hits")
                return
        state.pull_host = None
        if state.offers_waiting:
            state.phase = "offering"
        else:
            self._make_ready(state)

    def _pulling(self, host, env):
        """The task state whose pull from ``host`` ``env`` answers."""
        state = self._tasks.get(self._by_digest.get(env.get("digest")))
        if state is not None and state.phase == "pulling" \
                and state.pull_host == host.index:
            return state
        return None

    def _on_cache_object(self, host, env):
        state = self._pulling(host, env)
        if state is None:
            return
        try:
            value = pickle.loads(env["payload"])
        except Exception:
            obs.registry().inc("sched.remote.wire_errors")
            self._start_pull(state)
            return
        obs.registry().inc("sched.remote.cache.pulled")
        self._settle(state, LeafResult(
            name=state.task.name, value=value,
            worker=f"{host.label}/cache"))

    def _on_cache_miss(self, host, env):
        # The entry vanished between offer and pull (eviction, GC).
        state = self._pulling(host, env)
        if state is not None:
            self._start_pull(state)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def _make_ready(self, state):
        state.phase = "placed"
        self._policy.place(state.task)

    def _dispatch(self):
        reg = obs.registry()
        for host in self._policy.live():
            while host.alive and len(host.inflight) < host.capacity:
                task = self._policy.take(host)
                if task is None:
                    break
                if not self._send(host, wire.job_envelope(task)):
                    break                    # host lost; leaf re-queued
                reg.inc("sched.remote.jobs")

    def _settle(self, state, result):
        state.phase = "done"
        self._results.append(result)

    # ------------------------------------------------------------------
    # lost-host recovery
    # ------------------------------------------------------------------

    def _lose_host(self, host, reason):
        if not host.alive:
            return
        host.alive = False
        if host.stream is not None:
            host.stream.close()
        reg = obs.registry()
        reg.inc("sched.remote.hosts.lost")
        reg.record("sched.remote.hosts.lost",
                   {"host": host.label, "reason": reason,
                    "inflight": sorted(host.inflight),
                    "backlog": len(host.queue)})
        reg.gauge("sched.remote.hosts", len(self._policy.live()))
        # In-flight leaves go to the capped requeue, the backlog back
        # through placement; offers and pulls move on below.
        for task, losses in self._policy.lose(host):
            self._settle(self._tasks[task.name], LeafResult(
                name=task.name, worker=host.label,
                error=f"leaf {task.name!r} was in flight on "
                      f"{losses} lost hosts in a row "
                      f"(last: {host.label}, {reason})"))
        for state in self._tasks.values():
            state.offers_waiting.discard(host.index)
            if state.phase == "offering" or (
                    state.phase == "pulling"
                    and state.pull_host == host.index):
                self._start_pull(state)
        self._dispatch()
