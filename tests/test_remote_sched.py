"""The multi-host scheduler: wire framing, handshake, daemon, backend.

Load-bearing guarantees:

* the shared framing layer rejects truncated / oversized / garbage
  buffers with :class:`WireError` (never an opaque unpickling error),
  and every ``repro.sched/1`` frame kind round-trips over a real
  socketpair;
* no pickle is loaded from a socket before the HMAC handshake
  completes, and a wrong ``REPRO_SCHED_TOKEN`` is rejected both ways;
* a pipe worker answers a malformed frame with a structured ``error``
  frame and keeps serving (instead of dying silently), and a poison
  leaf fails its job after ``MAX_REQUEUES`` respawns instead of
  burning workers forever;
* two localhost daemons produce results identical to ``inline`` —
  including a bit-identical report — survive losing a daemon mid-run
  with zero lost leaves (its in-flight leaves requeued), and replay a
  warm cluster with zero dispatched jobs via digest-based cache sync;
* a daemon's ``/healthz`` turns 503 while leaves wait queued.
"""

import json
import multiprocessing
import pickle
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.errors import SimulationError
from repro.eval.cache import ResultCache
from repro.eval.orchestrator import Job, job, run_graph
from repro.eval.sched import wire
from repro.eval.sched.base import LeafResult, LeafTask
from repro.eval.sched.daemon import WorkerDaemon
from repro.eval.sched.remote import parse_hosts
from tests.oracles.sched_leaves import seeded_leaf, sleepy_leaf


def _counter(name):
    return obs.registry().snapshot()["counters"].get(name, 0)


def _mini_graph(fast=6, slow_seconds=0.0):
    """A small skewed graph: one heavy leaf, several light ones, a merge."""
    jobs = [job("slow", "tests.oracles.sched_leaves:sleepy_leaf",
                weight=8.0, seconds=slow_seconds, seed=99, size=3)]
    jobs += [job(f"fast{i}", "tests.oracles.sched_leaves:seeded_leaf",
                 weight=1.0, seed=i, size=2)
             for i in range(fast)]
    leaf_names = tuple(j.name for j in jobs)
    jobs.append(Job(name="total",
                    fn=lambda deps: sorted(sum(deps.values(), [])),
                    params=(), deps=leaf_names))
    return jobs


def _expected_total(fast=6):
    values = [seeded_leaf(seed=99, size=3)]
    values += [seeded_leaf(seed=i, size=2) for i in range(fast)]
    return sorted(sum(values, []))


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------

def test_pack_unpack_roundtrip_both_formats():
    env = {"schema": wire.SCHEMA, "kind": "ping", "seq": 3}
    assert wire.unpack_frame(wire.pack_frame(env)) == env
    assert wire.unpack_frame(wire.pack_frame(env, wire.FORMAT_JSON)) == env


@pytest.mark.parametrize("buf,fatal", [
    (b"", True),                                  # shorter than header
    (b"\x00\x00", True),                          # truncated header
    (b"\x00\x00\x00\x10P", True),                 # body shorter than declared
    (b"\xff\xff\xff\xffP", True),                 # oversized declaration
    (b"\x00\x00\x00\x03Pxx", False),              # garbage pickle body
    (b"\x00\x00\x00\x03Jxx", False),              # garbage JSON body
    (b"\x00\x00\x00\x03Xxx", False),              # unknown format byte
])
def test_unpack_rejects_malformed_buffers(buf, fatal):
    with pytest.raises(wire.WireError) as err:
        wire.unpack_frame(buf)
    assert err.value.fatal is fatal


def test_unpack_rejects_schema_skew_not_opaquely():
    frame = wire.pack_frame({"schema": "repro.sched/999", "kind": "job"})
    with pytest.raises(wire.WireError) as err:
        wire.unpack_frame(frame)
    assert "repro.sched/1" in str(err.value)
    assert not err.value.fatal                   # stream is still synced


def test_oversized_frame_guard_on_send():
    with pytest.raises(wire.WireError) as err:
        wire.pack_frame({"schema": wire.SCHEMA, "kind": "job",
                         "blob": b"x" * (wire.MAX_FRAME_BYTES + 1)})
    assert err.value.fatal


def _stream_pair():
    a, b = socket.socketpair()
    return wire.FrameStream(a), wire.FrameStream(b)


def test_every_frame_kind_roundtrips_over_a_socketpair():
    task = LeafTask(name="leafy",
                    fn="tests.oracles.sched_leaves:seeded_leaf",
                    params=(("seed", 3),), fingerprint="f" * 64,
                    trace_ctx={"trace": "t", "span": "s", "flow": "w"})
    result = LeafResult(name="leafy", value=[1, 2], seconds=0.5, worker=1)
    failure = LeafResult(name="leafy", error="boom",
                         exception=ValueError("boom"))
    frames = [
        wire.job_envelope(task),
        wire.result_envelope(result, worker=1),
        wire.result_envelope(failure, worker=2),
        wire.error_envelope("?", "malformed frame", worker=3),
        wire.shutdown_envelope(),
        wire.ping_envelope(7),
        wire.pong_envelope(7, {"jobs": 4}),
        wire.cache_offer_envelope("leafy", ["f" * 64]),
        wire.cache_hits_envelope("leafy", ["f" * 64]),
        wire.cache_pull_envelope("f" * 64),
        wire.cache_object_envelope("f" * 64, {"value": 9}),
        wire.cache_miss_envelope("f" * 64),
    ]
    a, b = _stream_pair()
    try:
        for env in frames:
            a.send(env)
            got = b.recv()
            assert got["kind"] == env["kind"]
            assert got == env
        # the payloads decode back to what went in
        a.send(wire.job_envelope(task))
        back = wire.task_from_envelope(b.recv())
        assert back == task and back.trace_ctx == task.trace_ctx
        a.send(wire.result_envelope(result, worker=1))
        rb = wire.result_from_envelope(b.recv())
        assert rb.ok and rb.value == [1, 2]
        a.send(wire.result_envelope(failure, worker=2))
        fb = wire.result_from_envelope(b.recv())
        assert not fb.ok and isinstance(fb.exception, ValueError)
        assert a.bytes_sent == b.bytes_recv > 0
    finally:
        a.close()
        b.close()


def test_stream_eof_and_midframe_truncation():
    a, b = _stream_pair()
    a.close()
    with pytest.raises(EOFError):
        b.recv()                                  # clean close at boundary
    b.close()

    a, b = _stream_pair()
    frame = wire.pack_frame(wire.ping_envelope(1))
    a.sock.sendall(frame[:len(frame) - 2])        # cut mid-frame
    a.close()
    with pytest.raises(wire.WireError) as err:
        b.recv()
    assert err.value.fatal
    b.close()


# ----------------------------------------------------------------------
# handshake
# ----------------------------------------------------------------------

def _handshake_pair(server_token, client_token):
    a, b = _stream_pair()
    box = {}

    def serve():
        try:
            wire.server_handshake(a, server_token, info={"workers": 3})
            box["server"] = "ok"
        except wire.WireError as exc:
            box["server"] = str(exc)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        welcome = wire.client_handshake(b, client_token)
    finally:
        thread.join(timeout=5.0)
        a.close()
        b.close()
    return box, welcome


def test_handshake_accepts_matching_token():
    box, welcome = _handshake_pair("sesame", "sesame")
    assert box["server"] == "ok"
    assert welcome["kind"] == "welcome" and welcome["workers"] == 3


def test_handshake_rejects_wrong_token():
    with pytest.raises(wire.WireError, match="rejected"):
        _handshake_pair("sesame", "wrong")


def test_no_pickle_is_loaded_before_auth():
    a, b = _stream_pair()
    try:
        a.send(wire.shutdown_envelope())          # a pickle frame
        with pytest.raises(wire.WireError, match="handshake"):
            b.recv(allow_pickle=False)
    finally:
        a.close()
        b.close()


# ----------------------------------------------------------------------
# pipe-worker resilience (satellite: no more silent deaths)
# ----------------------------------------------------------------------

def test_worker_loop_survives_malformed_frames():
    from repro.eval.sched.stealing import _worker_main

    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_worker_main, args=(child, 0), daemon=True)
    proc.start()
    child.close()
    try:
        # Well-framed but undecodable: a pickled non-dict.
        parent.send_bytes(wire.pack_frame("not-an-envelope"))
        reply = wire.unpack_frame(parent.recv_bytes())
        assert reply["kind"] == "error" and reply["name"] == "?"
        assert "malformed" in reply["error"]
        # A frame kind the worker does not serve gets the same courtesy.
        parent.send_bytes(wire.pack_frame(wire.ping_envelope(1)))
        reply = wire.unpack_frame(parent.recv_bytes())
        assert reply["kind"] == "error" and "ping" in reply["error"]
        # ...and the loop is still alive to run a real job.
        task = LeafTask(name="after",
                        fn="tests.oracles.sched_leaves:seeded_leaf",
                        params=(("seed", 4), ("size", 2)))
        parent.send_bytes(wire.pack_frame(wire.job_envelope(task)))
        result = wire.result_from_envelope(
            wire.unpack_frame(parent.recv_bytes()))
        assert result.ok and result.value == seeded_leaf(seed=4, size=2)
        parent.send_bytes(wire.pack_frame(wire.shutdown_envelope()))
        proc.join(timeout=5.0)
        assert proc.exitcode == 0
    finally:
        if proc.is_alive():
            proc.terminate()
        parent.close()


def test_poison_leaf_fails_instead_of_respawning_forever():
    from repro.eval.sched.policy import MAX_REQUEUES

    crashes = _counter("orchestrator.worker.crashes")
    jobs = [job("poison", "tests.oracles.sched_leaves:poison_leaf", seed=1)]
    with pytest.raises(SimulationError, match="crashed"):
        run_graph(jobs, workers=2, cache=None, backend="workers")
    assert (_counter("orchestrator.worker.crashes") - crashes
            == MAX_REQUEUES + 1)


# ----------------------------------------------------------------------
# the remote backend against real localhost daemons
# ----------------------------------------------------------------------

@pytest.fixture
def two_daemons(tmp_path):
    daemons = [
        WorkerDaemon(workers=2,
                     cache=ResultCache(root=tmp_path / f"daemon{i}",
                                       fingerprint="(daemon)"),
                     label=f"d{i}").start()
        for i in range(2)
    ]
    hosts = ",".join(f"127.0.0.1:{d.port}" for d in daemons)
    try:
        yield daemons, hosts
    finally:
        for d in daemons:
            d.stop()


def test_parse_hosts():
    assert parse_hosts("a:9700, b:9701") == [("a", 9700), ("b", 9701)]
    assert parse_hosts([":9700"]) == [("127.0.0.1", 9700)]
    with pytest.raises(SimulationError):
        parse_hosts("no-port")
    with pytest.raises(SimulationError):
        parse_hosts("")


def test_remote_backend_matches_inline(two_daemons):
    __, hosts = two_daemons
    inline = run_graph(_mini_graph(), cache=None, backend="inline")
    remote = run_graph(_mini_graph(), cache=None, backend="remote",
                       hosts=hosts)
    assert remote["total"].value == inline["total"].value
    assert remote["total"].value == _expected_total()
    leaf_modes = {o.mode for n, o in remote.items() if n != "total"}
    assert leaf_modes == {"remote"}


def test_remote_report_is_bit_identical_to_inline(two_daemons):
    from repro.eval.report import generate_report

    __, hosts = two_daemons
    kwargs = dict(filters=["table4", "fig1"], cache=False)
    baseline = generate_report(backend="inline", **kwargs)
    remote = generate_report(backend="remote", hosts=hosts, **kwargs)
    assert remote == baseline


def test_remote_backend_rejects_unreachable_cluster():
    with pytest.raises(SimulationError, match="could not reach"):
        run_graph(_mini_graph(), cache=None, backend="remote",
                  hosts="127.0.0.1:9")           # discard port: refused


def test_remote_handshake_rejects_wrong_token(tmp_path, monkeypatch):
    daemon = WorkerDaemon(workers=1, token="sesame").start()
    try:
        monkeypatch.setenv("REPRO_SCHED_TOKEN", "wrong")
        with pytest.raises(SimulationError, match="could not reach"):
            run_graph(_mini_graph(fast=1), cache=None, backend="remote",
                      hosts=f"127.0.0.1:{daemon.port}")
        deadline = time.monotonic() + 5.0
        while daemon.stats()["rejected"] == 0 \
                and time.monotonic() < deadline:
            time.sleep(0.01)     # the session thread books the reject
        assert daemon.stats()["rejected"] >= 1
        assert daemon.stats()["sessions"] == 0
    finally:
        daemon.stop()


def test_remote_survives_losing_a_daemon_with_zero_lost_leaves(two_daemons):
    daemons, hosts = two_daemons
    lost = _counter("sched.remote.hosts.lost")
    requeues = _counter("sched.remote.requeues")
    jobs = [job(f"leaf{i}", "tests.oracles.sched_leaves:sleepy_leaf",
                seconds=0.25, seed=i) for i in range(8)]
    killer = threading.Timer(0.4, daemons[1].stop)
    killer.start()
    try:
        out = run_graph(jobs, cache=None, backend="remote", hosts=hosts)
    finally:
        killer.cancel()
    assert len(out) == 8
    for i in range(8):
        assert out[f"leaf{i}"].value == sleepy_leaf(seed=i)
    assert _counter("sched.remote.hosts.lost") == lost + 1
    # Each daemon holds 4 of the 0.25 s leaves on 2 workers, so the
    # stopped one still has leaves in flight at 0.4 s.
    assert _counter("sched.remote.requeues") >= requeues + 1


def test_remote_cache_sync_executes_zero_leaves_when_warm(two_daemons,
                                                          tmp_path):
    __, hosts = two_daemons
    jobs = _mini_graph(fast=5)
    first = run_graph(jobs, cache=ResultCache(root=tmp_path / "coord1",
                                              fingerprint="fp"),
                      backend="remote", hosts=hosts)
    assert first["total"].value == _expected_total(fast=5)

    # Fresh coordinator cache, same daemons: every leaf digest is
    # offered, every daemon answers from its store, nothing executes.
    dispatched = _counter("sched.remote.jobs")
    pulled = _counter("sched.remote.cache.pulled")
    second = run_graph(jobs, cache=ResultCache(root=tmp_path / "coord2",
                                               fingerprint="fp"),
                       backend="remote", hosts=hosts)
    assert second["total"].value == first["total"].value
    assert _counter("sched.remote.jobs") == dispatched
    assert _counter("sched.remote.cache.pulled") == pulled + 6


def test_daemon_answers_retired_kinds_as_unknown():
    """``cache_push`` is gone: a daemon treats it like any unknown kind."""
    daemon = WorkerDaemon(workers=1, token="sesame").start()
    stream = None
    try:
        sock = socket.create_connection(("127.0.0.1", daemon.port),
                                        timeout=5.0)
        stream = wire.FrameStream(sock)
        wire.client_handshake(stream, "sesame")
        for kind in ("cache_push", "no_such_kind"):
            stream.send({"schema": wire.SCHEMA, "kind": kind,
                         "digest": "f" * 64, "payload": b""})
            reply = stream.recv()
            assert reply["kind"] == "error" and reply["name"] == "?"
            assert f"unexpected frame kind {kind!r}" in reply["error"]
        # The session keeps serving after the rejection.
        stream.send(wire.ping_envelope(3))
        pong = stream.recv()
        assert pong["kind"] == "pong" and "cache_pushes" not in pong["stats"]
    finally:
        if stream is not None:
            stream.close()
        daemon.stop()


def _healthz(server):
    try:
        with urllib.request.urlopen(
                f"{server.url}/healthz", timeout=5.0) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def test_daemon_healthz_reflects_pool_state(tmp_path):
    daemon = WorkerDaemon(workers=1, token="sesame").start()
    server = daemon.start_telemetry(0)
    stream = None
    try:
        status, body = _healthz(server)
        assert status == 200
        assert set(body["checks"]) == {"daemon.pool", "daemon.coordinator"}

        # Four 0.5 s leaves on one worker: one runs, three wait queued.
        sock = socket.create_connection(("127.0.0.1", daemon.port),
                                        timeout=5.0)
        stream = wire.FrameStream(sock)
        wire.client_handshake(stream, "sesame")
        for i in range(4):
            stream.send(wire.job_envelope(LeafTask(
                name=f"nap{i}", fn="tests.oracles.sched_leaves:sleepy_leaf",
                params=(("seconds", 0.5), ("seed", i)))))
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            status, body = _healthz(server)
            pool = body["checks"]["daemon.pool"]
            if (pool["inflight"], pool["backlog"]) == (1, 3):
                break
            time.sleep(0.02)
        assert (pool["inflight"], pool["backlog"]) == (1, 3), body
        assert status == 503, body

        # Drain every result; the pool is then idle and healthy again.
        names = {wire.result_from_envelope(stream.recv()).name
                 for __ in range(4)}
        assert names == {f"nap{i}" for i in range(4)}
        assert _healthz(server)[0] == 200
    finally:
        if stream is not None:
            stream.close()
        daemon.stop()


def test_digest_object_store_roundtrip(tmp_path):
    cache = ResultCache(root=tmp_path / "store", fingerprint="fp")
    digest = "ab" * 32
    assert not cache.has_object(digest)
    assert cache.load_object(digest) == (False, None)
    cache.store_object(digest, {"x": [1, 2, 3]})
    assert cache.has_object(digest)
    assert cache.load_object(digest) == (True, {"x": [1, 2, 3]})
    # A digest-form entry survives export/import digest verification.
    archive = tmp_path / "a.tar.gz"
    cache.export(archive)
    other = ResultCache(root=tmp_path / "other", fingerprint="fp")
    stats = other.import_archive(archive)
    assert stats["imported"] == 1 and stats["corrupt"] == 0
    assert other.load_object(digest) == (True, {"x": [1, 2, 3]})
    # ...and a tampered one is rejected, not trusted.
    path = other._object_path(digest)
    path.write_bytes(pickle.dumps({"schema": "repro.cache/1",
                                   "digest": "f" * 64, "value": 1}))
    assert other.load_object(digest) == (False, None)
