"""Optional compiled event kernel (C via the system compiler + ctypes).

The Python wheel engine (:mod:`repro.hdl.sim.event`) is limited by
CPython's per-operation cost: a glitch replay of one cycle transition on
the 20k-gate radix-16 multiplier is ~100k interpreter operations no
matter how the loop is written.  This module removes the interpreter
from the inner loop entirely: a ~150-line C translation of the event
algorithm is compiled **once** with the system C compiler (``cc`` /
``gcc``, or ``$CC``), cached as a shared library under the repository's
``.cache/`` directory, and driven through :mod:`ctypes` — no third-party
packages, no build system, and a counted fallback
(``sim.ckernel.fallback``) to the pure-Python engines when no compiler
is available (or ``REPRO_NO_CKERNEL=1`` is set).

Bit-identity with the Python engines is structural, not incidental:

* events are ordered by the total order ``(maturity time, schedule
  sequence number)`` — sequence numbers are unique, so *any* correct
  priority queue pops the identical event sequence as Python's
  ``heapq`` (the kernel uses a plain binary heap);
* maturity times are IEEE-754 double sums of the same per-gate delays
  Python computes with ``float`` — identical values, identical
  coincidences, identical comparisons;
* gate evaluation uses a 16-entry truth table per cell kind, indexed by
  the concatenated input bits — exhaustively equal to ``cell_eval`` by
  construction (and swept by a unit test);
* the inertial-cancellation rule (only the latest scheduled evaluation
  of a net is live) is carried over verbatim, including the
  counts-a-cancellation and skips-a-no-op bookkeeping.

The exported entry point replays a *window* of cycle transitions in one
call: per-stimulus-net value words (bit ``i`` = value in the window's
cycle ``i``) are expanded to per-transition deltas inside the kernel,
so Python overhead is O(stimulus nets) per window rather than per
event.
"""

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

from repro import obs
from repro.errors import SimulationError

#: Transitions per kernel call — one bit of the stimulus words each,
#: plus bit 0 for the seed cycle, bounded by the 64-bit word.
WINDOW_TRANSITIONS = 63

_U64 = (1 << 64) - 1

#: Gate arity the truth-table evaluation supports (covers every kind in
#: ``CELL_KINDS``; modules exceeding it simply fall back to Python).
MAX_INPUTS = 4

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

/* One pending output event.  Ordered by (t, seq); seq is unique, so the
 * order is total and the pop sequence matches Python's heapq exactly. */
typedef struct {
    double t;
    int64_t seq;
    int32_t net;
    int32_t val;
} Ev;

typedef struct {
    Ev *a;
    int64_t len, cap;
} Heap;

static int ev_less(const Ev *x, const Ev *y)
{
    if (x->t != y->t)
        return x->t < y->t;
    return x->seq < y->seq;
}

static int heap_push(Heap *h, Ev e)
{
    if (h->len == h->cap) {
        int64_t nc = h->cap ? h->cap * 2 : 4096;
        Ev *na = (Ev *)realloc(h->a, (size_t)nc * sizeof(Ev));
        if (!na)
            return -1;
        h->a = na;
        h->cap = nc;
    }
    int64_t i = h->len++;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (ev_less(&e, &h->a[p])) {
            h->a[i] = h->a[p];
            i = p;
        } else {
            break;
        }
    }
    h->a[i] = e;
    return 0;
}

static Ev heap_pop(Heap *h)
{
    Ev top = h->a[0];
    Ev last = h->a[--h->len];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= h->len)
            break;
        if (c + 1 < h->len && ev_less(&h->a[c + 1], &h->a[c]))
            c++;
        if (ev_less(&h->a[c], &last)) {
            h->a[i] = h->a[c];
            i = c;
        } else {
            break;
        }
    }
    h->a[i] = last;
    return top;
}

/* Replay `transitions` cycle transitions.
 *
 * gin:   4 input net ids per gate (unused slots repeat input 0 — the
 *        truth table's output is replicated over the padded bits).
 * ttab:  16-entry truth table per gate, indexed by concatenated input
 *        bits (in0 | in1<<1 | in2<<2 | in3<<3).
 * fo_ptr/fo_dat: CSR fanout (net -> driven gate indices).
 * values/live_seq: persistent simulator state (callee-updated).
 * stim_words: per stimulus net, bit i = the net's value in the window's
 *        cycle i (bit 0 = the already-settled seed cycle).
 * stats: [0] in/out monotone schedule counter, [1] out events
 *        processed, [2] out inertial cancellations.
 * settle_out: settle time (ps) of the final transition.
 *
 * Returns events processed, or -1 on allocation failure.
 */
int64_t sim_replay(
    int32_t n_nets, int32_t n_gates,
    const int32_t *gin, const uint16_t *ttab,
    const int32_t *gout, const double *gdelay,
    const int32_t *fo_ptr, const int32_t *fo_dat,
    uint8_t *values, int64_t *live_seq,
    const int32_t *stim_net, const uint64_t *stim_words, int32_t n_stim,
    int32_t transitions,
    int64_t *toggles, int64_t *stats, double *settle_out)
{
    (void)n_nets;
    (void)n_gates;
    Heap h = { 0, 0, 0 };
    int32_t *changed =
        (int32_t *)malloc(sizeof(int32_t) * (size_t)(n_stim ? n_stim : 1));
    if (!changed)
        return -1;
    int64_t counter = stats[0];
    int64_t events = 0, cancelled = 0;
    double settle = 0.0;
    int fail = 0;

    for (int32_t tr = 1; tr <= transitions && !fail; tr++) {
        /* Stimulus delta: step every stimulus net (canonical order)
         * to its cycle-tr value; count the functional toggles. */
        int32_t nc = 0;
        for (int32_t i = 0; i < n_stim; i++) {
            uint8_t v = (uint8_t)((stim_words[i] >> tr) & 1u);
            int32_t net = stim_net[i];
            if (values[net] != v) {
                values[net] = v;
                toggles[net]++;
                changed[nc++] = net;
            }
        }
        settle = 0.0;

        /* Schedule the fanout of the changed nets at t = 0, then run
         * the event loop to quiescence.  This is the heap engine's
         * algorithm verbatim; see repro/hdl/sim/event.py. */
        for (int32_t j = 0; j < nc && !fail; j++) {
            int32_t net = changed[j];
            for (int32_t k = fo_ptr[net]; k < fo_ptr[net + 1]; k++) {
                int32_t g = fo_dat[k];
                const int32_t *in = gin + 4 * (int64_t)g;
                int idx = values[in[0]] | (values[in[1]] << 1)
                        | (values[in[2]] << 2) | (values[in[3]] << 3);
                int32_t val = (ttab[g] >> idx) & 1;
                counter++;
                int32_t out = gout[g];
                live_seq[out] = counter;
                Ev e = { gdelay[g], counter, out, val };
                if (heap_push(&h, e)) {
                    fail = 1;
                    break;
                }
            }
        }
        while (h.len && !fail) {
            Ev e = heap_pop(&h);
            events++;
            if (e.seq != live_seq[e.net]) {
                cancelled++;    /* cancelled by a newer evaluation */
                continue;
            }
            if (values[e.net] == (uint8_t)e.val)
                continue;
            values[e.net] = (uint8_t)e.val;
            toggles[e.net]++;
            settle = e.t;
            for (int32_t k = fo_ptr[e.net]; k < fo_ptr[e.net + 1]; k++) {
                int32_t g = fo_dat[k];
                const int32_t *in = gin + 4 * (int64_t)g;
                int idx = values[in[0]] | (values[in[1]] << 1)
                        | (values[in[2]] << 2) | (values[in[3]] << 3);
                int32_t val = (ttab[g] >> idx) & 1;
                counter++;
                int32_t out = gout[g];
                live_seq[out] = counter;
                Ev e2 = { e.t + gdelay[g], counter, out, val };
                if (heap_push(&h, e2)) {
                    fail = 1;
                    break;
                }
            }
        }
    }

    free(changed);
    free(h.a);
    if (fail)
        return -1;
    stats[0] = counter;
    stats[1] = events;
    stats[2] = cancelled;
    *settle_out = settle;
    return events;
}
"""

_lib = None
_load_attempted = False
#: Why the Python engines replaced the kernel in this process (``None``
#: while the kernel is in use or not yet loaded).
fallback_reason = None


def _cache_dir():
    """Where the compiled shared library lives.

    ``REPRO_CKERNEL_CACHE`` overrides; the default is the repository's
    ``.cache/ckernel/`` (this file is ``<repo>/src/repro/hdl/sim/``),
    with the system temp directory as a last resort for installed
    trees.
    """
    env = os.environ.get("REPRO_CKERNEL_CACHE")
    candidates = []
    if env:
        candidates.append(Path(env))
    candidates.append(
        Path(__file__).resolve().parents[4] / ".cache" / "ckernel")
    candidates.append(Path(tempfile.gettempdir()) / "repro-ckernel")
    for cand in candidates:
        try:
            cand.mkdir(parents=True, exist_ok=True)
            return cand
        except OSError:
            continue
    raise OSError("no writable cache directory for the compiled kernel")


def _build_and_load():
    cache = _cache_dir()
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    so_path = cache / f"eventkernel-{digest}.so"
    if not so_path.exists():
        cc = (os.environ.get("CC") or shutil.which("cc")
              or shutil.which("gcc"))
        if not cc:
            return None
        c_path = cache / f"eventkernel-{digest}.c"
        c_path.write_text(_SOURCE)
        tmp_path = cache / f"eventkernel-{digest}.{os.getpid()}.tmp.so"
        subprocess.run(
            [cc, "-O2", "-std=c99", "-fPIC", "-shared",
             "-o", str(tmp_path), str(c_path)],
            check=True, capture_output=True)
        os.replace(tmp_path, so_path)   # atomic: races just re-link
    lib = ctypes.CDLL(str(so_path))
    fn = lib.sim_replay
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        ctypes.c_int32, ctypes.c_int32,
        ctypes.POINTER(ctypes.c_int32), ctypes.POINTER(ctypes.c_uint16),
        ctypes.POINTER(ctypes.c_int32), ctypes.POINTER(ctypes.c_double),
        ctypes.POINTER(ctypes.c_int32), ctypes.POINTER(ctypes.c_int32),
        ctypes.POINTER(ctypes.c_uint8), ctypes.POINTER(ctypes.c_int64),
        ctypes.POINTER(ctypes.c_int32), ctypes.POINTER(ctypes.c_uint64),
        ctypes.c_int32,
        ctypes.c_int32,
        ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_int64),
        ctypes.POINTER(ctypes.c_double),
    ]
    return lib


def load_kernel():
    """The loaded kernel library, or ``None`` when unavailable.

    First call compiles (or re-links) the shared library.  When the
    kernel cannot be used the Python engines take over for the process,
    never silently: ``sim.ckernel.fallback`` ticks and
    :data:`fallback_reason` records why — ``disabled``
    (``REPRO_NO_CKERNEL``), ``no_compiler`` or ``build_failed: <exc>``
    (unwritable cache, compile or link error).
    """
    global _lib, _load_attempted, fallback_reason
    if _load_attempted:
        return _lib
    _load_attempted = True
    if os.environ.get("REPRO_NO_CKERNEL", ""):
        reason = "disabled"
    else:
        try:
            _lib = _build_and_load()
        except Exception as exc:
            reason = f"build_failed: {exc}"
        else:
            reason = None if _lib is not None else "no_compiler"
    if reason is not None:
        fallback_reason = reason
        reg = obs.registry()
        reg.inc("sim.ckernel.fallback")
        reg.record("sim.ckernel.fallback", {"reason": reason})
    return _lib


def supports(module):
    """Whether the kernel's truth-table evaluation covers this module."""
    return all(len(g.inputs) <= MAX_INPUTS for g in module.gates)


def truth_table(eval_fn, arity):
    """The 16-entry truth table of ``eval_fn`` over ``arity`` inputs.

    Bit ``i`` of the result is the output for input bits
    ``in0 = i&1, in1 = (i>>1)&1, ...``; bits beyond ``arity`` replicate
    the output, so padded input slots never affect it.
    """
    table = 0
    for idx in range(16):
        bits = [(idx >> j) & 1 for j in range(arity)]
        if eval_fn(1, *bits) & 1:
            table |= 1 << idx
    return table


class CKernel:
    """One module + library flattened into the kernel's array layout.

    Holds the persistent simulator state (net values, live sequence
    numbers, accumulated toggles) in ctypes buffers shared with the C
    side; construction is pure preprocessing and involves no C calls.
    """

    def __init__(self, lib, module, delays, evals, fanout, stim_order):
        if not supports(module):
            raise SimulationError(
                "compiled kernel supports gates with at most "
                f"{MAX_INPUTS} inputs")
        self._lib = lib
        self.n_nets = n_nets = module.n_nets
        gates = module.gates
        n_gates = len(gates)
        self._n_gates = n_gates

        gin = (ctypes.c_int32 * (4 * n_gates))()
        ttab = (ctypes.c_uint16 * max(n_gates, 1))()
        gout = (ctypes.c_int32 * max(n_gates, 1))()
        tables = {}
        for idx, gate in enumerate(gates):
            ins = list(gate.inputs)
            table = tables.get(gate.kind)
            if table is None:
                table = truth_table(evals[idx], len(ins))
                tables[gate.kind] = table
            ttab[idx] = table
            gout[idx] = gate.output
            padded = ins + [ins[0]] * (4 - len(ins))
            gin[4 * idx: 4 * idx + 4] = padded
        self._gin = gin
        self._ttab = ttab
        self._gout = gout
        self._gdelay = (ctypes.c_double * max(n_gates, 1))(*delays)

        fo_ptr = (ctypes.c_int32 * (n_nets + 1))()
        total = 0
        for net in range(n_nets):
            fo_ptr[net] = total
            total += len(fanout[net])
        fo_ptr[n_nets] = total
        fo_dat = (ctypes.c_int32 * max(total, 1))()
        pos = 0
        for net in range(n_nets):
            for g in fanout[net]:
                fo_dat[pos] = g
                pos += 1
        self._fo_ptr = fo_ptr
        self._fo_dat = fo_dat

        self._stim_order = list(stim_order)
        n_stim = len(self._stim_order)
        self._stim_net = (ctypes.c_int32 * max(n_stim, 1))(*self._stim_order)
        self._stim_words = (ctypes.c_uint64 * max(n_stim, 1))()

        self.values = (ctypes.c_uint8 * n_nets)()
        self._live_seq = (ctypes.c_int64 * n_nets)()
        self.toggles = (ctypes.c_int64 * n_nets)()
        self._stats = (ctypes.c_int64 * 3)()
        self._settle = (ctypes.c_double * 1)()

    def zero_toggles(self):
        ctypes.memset(self.toggles, 0, ctypes.sizeof(self.toggles))

    def seed(self, packed_values, shift):
        """Load every net's value from bit ``shift`` of its pattern word."""
        values = self.values
        for net in range(self.n_nets):
            values[net] = (packed_values[net] >> shift) & 1

    def run(self, packed_values, shift, transitions):
        """Replay ``transitions`` transitions from the seeded state.

        Stimulus bit ``i`` (``0 <= i <= transitions``) of each net's
        word is its value in cycle ``shift + i``; toggles accumulate
        into :attr:`toggles`.  Returns ``(events, cancelled, settle)``.
        """
        if not 1 <= transitions <= WINDOW_TRANSITIONS:
            raise SimulationError(
                f"kernel window must be 1..{WINDOW_TRANSITIONS} transitions")
        words = self._stim_words
        for i, net in enumerate(self._stim_order):
            words[i] = (packed_values[net] >> shift) & _U64
        rc = self._lib.sim_replay(
            self.n_nets, self._n_gates,
            self._gin, self._ttab, self._gout, self._gdelay,
            self._fo_ptr, self._fo_dat,
            self.values, self._live_seq,
            self._stim_net, words, len(self._stim_order),
            transitions,
            self.toggles, self._stats, self._settle)
        if rc < 0:
            raise SimulationError("compiled event kernel allocation failure")
        return self._stats[1], self._stats[2], self._settle[0]
