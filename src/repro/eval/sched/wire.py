"""The ``repro.sched/1`` wire protocol of the process and socket backends.

One schema for every hop between the scheduler and a long-lived worker,
designed so the same envelopes work across machines, not just across a
fork:

* the envelope itself is a plain dict of JSON-safe scalars — job names,
  ``"module:function"`` specs, fingerprints, counters;
* anything richer (param values, result objects, obs payloads) travels
  as an explicit ``pickle.dumps`` *bytes field* inside the envelope, so
  every transport only needs length-prefixed frames, never shared
  memory;
* every frame carries ``schema: "repro.sched/1"`` and is validated on
  receipt — a version skew fails loudly instead of unpickling garbage.

Framing
    :func:`pack_frame` / :func:`unpack_frame` are the one shared
    framing layer: a 4-byte big-endian length prefix, one format byte
    (``P`` pickle / ``J`` JSON) and the body, with a
    :data:`MAX_FRAME_BYTES` guard.  The pipe transport of the
    ``workers`` backend ships packed frames over
    ``Connection.send_bytes``; the socket transport wraps a TCP socket
    in :class:`FrameStream`.  Truncated, oversized or garbage buffers
    raise :class:`WireError` instead of an opaque unpickling error —
    ``WireError.fatal`` says whether the byte stream can still be
    trusted (framing intact, payload bad) or must be torn down
    (length/truncation damage).

Authentication
    Frames carry pickles, so a socket peer must prove knowledge of the
    shared secret (``REPRO_SCHED_TOKEN``) **before** either side
    unpickles anything: :func:`server_handshake` /
    :func:`client_handshake` run a mutual HMAC-SHA256 challenge —
    response over JSON-only frames (``challenge`` → ``auth`` →
    ``welcome``/``reject``); :meth:`FrameStream.recv` refuses pickle
    frames until the handshake is done.

Frame kinds (post-handshake):

``job``
    coordinator -> worker: one :class:`~repro.eval.sched.base.LeafTask`
    (name, fn spec, pickled params, cache fingerprint).
``result`` / ``error``
    worker -> coordinator: pickled value (or formatted traceback) + the
    worker's ``repro.obs/1`` metrics/trace payload + its execution
    seconds — sent the moment the leaf finishes, which is what lets the
    coordinator stream spans live.  A worker that receives a malformed
    frame replies with an ``error`` frame named ``"?"`` instead of
    dying silently.
``cache_offer`` / ``cache_hits``
    coordinator offers the sha256 digests of pending leaves; the daemon
    answers with the subset its content-addressed store holds.
``cache_pull`` / ``cache_object`` / ``cache_miss``
    coordinator pulls a warm result object by digest instead of
    re-executing the leaf.
``ping`` / ``pong``
    heartbeat; ``pong`` carries the daemon's load stats.
``shutdown``
    coordinator -> worker/daemon: drain and end the session.
"""

import hashlib
import hmac
import json
import os
import pickle
import secrets
import struct
import threading

SCHEMA = "repro.sched/1"

#: Hard ceiling on one frame's payload (length prefix included in the
#: check); a corrupted length prefix fails here instead of triggering a
#: multi-gigabyte allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: Payload format bytes: pickled envelope vs JSON-only (handshake).
FORMAT_PICKLE = b"P"
FORMAT_JSON = b"J"


class WireError(RuntimeError):
    """A malformed or version-skewed frame.

    ``fatal`` distinguishes damage to the framing itself (truncated or
    oversized buffers — the byte stream is desynchronized and must be
    closed) from a well-framed but undecodable/invalid payload (the
    stream stays usable; the receiver can answer with an ``error``
    frame and keep its loop alive).
    """

    def __init__(self, message, fatal=False):
        super().__init__(message)
        self.fatal = fatal


def default_token():
    """The shared secret both ends HMAC with (``REPRO_SCHED_TOKEN``).

    An empty token still authenticates structurally (it prevents
    accidental cross-talk between deployments) but offers no security;
    any real multi-host deployment must export a random secret.
    """
    return os.environ.get("REPRO_SCHED_TOKEN", "")


# ----------------------------------------------------------------------
# framing: length-prefixed bytes shared by pipe and socket transports
# ----------------------------------------------------------------------

def pack_frame(envelope, fmt=FORMAT_PICKLE):
    """One envelope as length-prefixed bytes (header + format + body)."""
    if fmt == FORMAT_JSON:
        body = json.dumps(envelope, sort_keys=True).encode("utf-8")
    else:
        body = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
    payload = fmt + body
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte guard", fatal=True)
    return _HEADER.pack(len(payload)) + payload


def _decode_payload(payload, allow_pickle=True):
    """Validate and decode one frame payload into its envelope."""
    if not payload:
        raise WireError("empty frame payload", fatal=True)
    fmt, body = payload[:1], payload[1:]
    if fmt == FORMAT_PICKLE:
        if not allow_pickle:
            raise WireError(
                "pickle frame before the handshake completed")
        try:
            envelope = pickle.loads(body)
        except Exception as exc:
            raise WireError(f"garbage pickle frame: {exc!r}") from None
    elif fmt == FORMAT_JSON:
        try:
            envelope = json.loads(body.decode("utf-8"))
        except Exception as exc:
            raise WireError(f"garbage JSON frame: {exc!r}") from None
    else:
        raise WireError(f"unknown frame format byte {fmt!r}")
    if not isinstance(envelope, dict) \
            or envelope.get("schema") != SCHEMA:
        raise WireError(
            f"bad frame: expected schema {SCHEMA!r}, got "
            f"{envelope.get('schema') if isinstance(envelope, dict) else type(envelope).__name__!r}")
    return envelope


def unpack_frame(data, allow_pickle=True):
    """Decode one complete frame buffer (header included).

    Raises :class:`WireError` on truncation, an oversized or lying
    length prefix, an unknown format byte, undecodable bodies, or a
    schema mismatch — never an opaque unpickling error.
    """
    if len(data) < _HEADER.size:
        raise WireError(
            f"truncated frame: {len(data)} bytes is shorter than the "
            f"{_HEADER.size}-byte header", fatal=True)
    (size,) = _HEADER.unpack(data[:_HEADER.size])
    if size > MAX_FRAME_BYTES:
        raise WireError(
            f"oversized frame: header declares {size} bytes "
            f"(guard {MAX_FRAME_BYTES})", fatal=True)
    payload = data[_HEADER.size:]
    if len(payload) != size:
        raise WireError(
            f"truncated frame: header declares {size} bytes, "
            f"buffer holds {len(payload)}", fatal=True)
    return _decode_payload(payload, allow_pickle)


# ----------------------------------------------------------------------
# transports
# ----------------------------------------------------------------------

def send_frame(conn, envelope):
    """Ship one envelope over a ``multiprocessing`` connection."""
    conn.send_bytes(pack_frame(envelope))


def recv_frame(conn):
    """Receive and validate one envelope (raises EOFError on hangup)."""
    return unpack_frame(conn.recv_bytes())


class FrameStream:
    """Length-prefixed frames over one TCP socket.

    ``send`` is locked (result-streaming and cache-reply threads share
    a daemon session's socket); ``recv`` is single-reader.  A clean
    peer close at a frame boundary raises ``EOFError`` (mirroring the
    pipe transport); a close mid-frame raises a fatal
    :class:`WireError`.  ``bytes_sent``/``bytes_recv`` feed the
    ``sched.remote.bytes.*`` counters.
    """

    def __init__(self, sock):
        self.sock = sock
        self.bytes_sent = 0
        self.bytes_recv = 0
        self._send_lock = threading.Lock()

    def fileno(self):
        return self.sock.fileno()

    def send(self, envelope, fmt=FORMAT_PICKLE):
        data = pack_frame(envelope, fmt)
        with self._send_lock:
            self.sock.sendall(data)
            self.bytes_sent += len(data)

    def _read_exact(self, n, at_boundary):
        buf = bytearray()
        while len(buf) < n:
            chunk = self.sock.recv(n - len(buf))
            if not chunk:
                if at_boundary and not buf:
                    raise EOFError("peer closed the connection")
                raise WireError("truncated frame: peer closed mid-frame",
                                fatal=True)
            buf += chunk
        self.bytes_recv += n
        return bytes(buf)

    def recv(self, allow_pickle=True):
        header = self._read_exact(_HEADER.size, at_boundary=True)
        (size,) = _HEADER.unpack(header)
        if size > MAX_FRAME_BYTES:
            raise WireError(
                f"oversized frame: header declares {size} bytes "
                f"(guard {MAX_FRAME_BYTES})", fatal=True)
        payload = self._read_exact(size, at_boundary=False)
        return _decode_payload(payload, allow_pickle)

    def close(self):
        try:
            self.sock.shutdown(2)            # SHUT_RDWR
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:                      # pragma: no cover
            pass


# ----------------------------------------------------------------------
# the HMAC handshake (JSON-only frames; no pickles before auth)
# ----------------------------------------------------------------------

def _mac(token, nonce):
    return hmac.new(token.encode("utf-8"), nonce.encode("utf-8"),
                    hashlib.sha256).hexdigest()


def server_handshake(stream, token, info=None):
    """Daemon side: challenge the peer, verify, answer its nonce.

    Sends ``challenge``, expects ``auth`` carrying
    ``HMAC(token, nonce)``, replies ``welcome`` (merged with ``info``
    — worker count, host label) proving *our* knowledge of the token
    against the client's nonce.  A failed proof gets a ``reject`` frame
    and a :class:`WireError`; nothing was unpickled either way.
    """
    nonce = secrets.token_hex(16)
    stream.send({"schema": SCHEMA, "kind": "challenge", "nonce": nonce},
                fmt=FORMAT_JSON)
    reply = stream.recv(allow_pickle=False)
    mac = reply.get("mac")
    if reply.get("kind") != "auth" or not isinstance(mac, str) \
            or not hmac.compare_digest(mac, _mac(token, nonce)):
        try:
            stream.send({"schema": SCHEMA, "kind": "reject",
                         "reason": "bad token"}, fmt=FORMAT_JSON)
        except OSError:                      # pragma: no cover
            pass
        raise WireError("handshake rejected: coordinator failed the "
                        "REPRO_SCHED_TOKEN proof")
    welcome = {"schema": SCHEMA, "kind": "welcome",
               "mac": _mac(token, str(reply.get("nonce", "")))}
    welcome.update(info or {})
    stream.send(welcome, fmt=FORMAT_JSON)
    return reply


def client_handshake(stream, token):
    """Coordinator side: answer the challenge, verify the daemon back.

    Returns the ``welcome`` envelope (worker count, host label).
    Raises :class:`WireError` when rejected or when the daemon fails
    the mutual proof.
    """
    challenge = stream.recv(allow_pickle=False)
    if challenge.get("kind") != "challenge":
        raise WireError(
            f"expected a challenge frame, got {challenge.get('kind')!r}")
    nonce = secrets.token_hex(16)
    stream.send({"schema": SCHEMA, "kind": "auth",
                 "mac": _mac(token, str(challenge.get("nonce", ""))),
                 "nonce": nonce}, fmt=FORMAT_JSON)
    welcome = stream.recv(allow_pickle=False)
    if welcome.get("kind") == "reject":
        raise WireError(
            f"handshake rejected: {welcome.get('reason', 'unknown')}")
    if welcome.get("kind") != "welcome" \
            or not isinstance(welcome.get("mac"), str) \
            or not hmac.compare_digest(welcome["mac"],
                                       _mac(token, nonce)):
        raise WireError("daemon failed mutual authentication")
    return welcome


# ----------------------------------------------------------------------
# envelope builders
# ----------------------------------------------------------------------

def job_envelope(task):
    """``job`` frame for one :class:`~repro.eval.sched.base.LeafTask`."""
    env = {"schema": SCHEMA, "kind": "job", "name": task.name,
           "fingerprint": task.fingerprint,
           "params": pickle.dumps(task.params,
                                  protocol=pickle.HIGHEST_PROTOCOL)}
    if task.trace_ctx:
        # JSON-safe scalars only: {"trace", "span", "flow"} strings.
        env["trace"] = dict(task.trace_ctx)
    if isinstance(task.fn, str):
        env["fn"] = task.fn
    else:
        # Local-transport convenience: callables still work over a
        # fork; the remote backend rejects them before dispatch.
        env["fn_pickle"] = pickle.dumps(task.fn,
                                        protocol=pickle.HIGHEST_PROTOCOL)
    return env


def task_from_envelope(env):
    """Rebuild the :class:`LeafTask` a ``job`` frame describes."""
    from repro.eval.sched.base import LeafTask

    fn = env["fn"] if "fn" in env else pickle.loads(env["fn_pickle"])
    return LeafTask(name=env["name"], fn=fn,
                    params=pickle.loads(env["params"]),
                    fingerprint=env.get("fingerprint", ""),
                    trace_ctx=env.get("trace"))


def result_envelope(result, worker):
    """``result``/``error`` frame for one finished leaf."""
    env = {"schema": SCHEMA, "name": result.name, "worker": worker,
           "seconds": result.seconds, "obs": result.obs_payload}
    if result.ok:
        env["kind"] = "result"
        env["payload"] = pickle.dumps(result.value,
                                      protocol=pickle.HIGHEST_PROTOCOL)
    else:
        env["kind"] = "error"
        env["error"] = result.error
        try:
            env["exception"] = pickle.dumps(
                result.exception, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            env["exception"] = None
    return env


def result_from_envelope(env):
    """Rebuild the :class:`LeafResult` a ``result``/``error`` frame holds."""
    from repro.eval.sched.base import LeafResult

    result = LeafResult(name=env["name"], worker=env.get("worker"),
                        seconds=env.get("seconds", 0.0),
                        obs_payload=env.get("obs"))
    if env["kind"] == "result":
        result.value = pickle.loads(env["payload"])
    else:
        result.error = env.get("error") or "worker error"
        blob = env.get("exception")
        if blob is not None:
            try:
                result.exception = pickle.loads(blob)
            except Exception:
                result.exception = None
    return result


def error_envelope(name, message, worker=None):
    """A structured ``error`` frame not tied to a finished leaf.

    What a worker loop answers when it receives a malformed frame
    (``name`` is ``"?"`` then): the peer learns *why* instead of
    watching the worker die silently, and the loop stays alive.
    """
    return {"schema": SCHEMA, "kind": "error", "name": name,
            "worker": worker, "seconds": 0.0, "obs": None,
            "error": message, "exception": None}


def shutdown_envelope():
    return {"schema": SCHEMA, "kind": "shutdown"}


def ping_envelope(seq):
    return {"schema": SCHEMA, "kind": "ping", "seq": seq}


def pong_envelope(seq, stats=None):
    return {"schema": SCHEMA, "kind": "pong", "seq": seq,
            "stats": dict(stats or {})}


def cache_offer_envelope(offer, digests):
    """Coordinator -> daemon: do you hold any of these digests?"""
    return {"schema": SCHEMA, "kind": "cache_offer", "offer": offer,
            "digests": list(digests)}


def cache_hits_envelope(offer, digests):
    """Daemon -> coordinator: the offered digests my store holds."""
    return {"schema": SCHEMA, "kind": "cache_hits", "offer": offer,
            "digests": list(digests)}


def cache_pull_envelope(digest):
    return {"schema": SCHEMA, "kind": "cache_pull", "digest": digest}


def cache_object_envelope(digest, value):
    return {"schema": SCHEMA, "kind": "cache_object", "digest": digest,
            "payload": pickle.dumps(value,
                                    protocol=pickle.HIGHEST_PROTOCOL)}


def cache_miss_envelope(digest):
    return {"schema": SCHEMA, "kind": "cache_miss", "digest": digest}

