"""The native simulation library (C via the system compiler + ctypes).

CPython's per-operation cost bounds both simulators: a glitch replay of
one cycle transition on the 20k-gate radix-16 multiplier is ~100k
interpreter operations no matter how the loop is written, and a
levelized settle is one big-int statement per gate.  This module moves
both inner loops out of the interpreter: **one** C source — the event
kernel plus the table-driven levelized kernel — is compiled **once**
with the system C compiler (``cc`` / ``gcc``, or ``$CC``), cached as a
shared library under the repository's ``.cache/`` directory keyed by
the source digest, and driven through :mod:`ctypes` — no third-party
packages, no build system, and a counted fallback
(``sim.ckernel.fallback``) to the pure-Python engines when no compiler
is available (or ``REPRO_NO_CKERNEL=1`` is set).  No exported routine
keeps state between calls, and ctypes releases the GIL around each, so
threads (the serve submitter and dispatcher) overlap native work.

**Levelized kernel.**  :class:`LimbBuffer` holds every net's packed
pattern word as ``uint64`` limbs.  ``lv_pack`` transposes stimulus
words onto the input nets, ``lv_settle`` walks the node table of
:mod:`repro.hdl.sim.compile` (an opcode per cell kind whose C case is
generated from the kind's :data:`~repro.hdl.cell.CELL_KINDS` row, the
same expression as the Python kernel's statement; registers a
limb-carrying ``<< 1`` masked by the all-patterns mask), ``lv_unpack``
transposes output buses back to words and ``lv_toggles`` counts
windowed zero-delay toggles — all bit-identical to the generated-Python
kernel and ``bit_transpose``, which stay as the fallback.

**Event kernel.**  Bit-identity with the Python engines is structural,
not incidental:

* events are ordered by the total order ``(maturity time, schedule
  sequence number)`` — sequence numbers are unique, so *any* correct
  priority queue pops the identical event sequence as Python's
  ``heapq`` (the kernel uses a plain binary heap);
* maturity times are IEEE-754 double sums of the same per-gate delays
  Python computes with ``float`` — identical values, identical
  coincidences, identical comparisons;
* gate evaluation uses the 16-entry truth table of the kind's
  :data:`~repro.hdl.cell.CELL_KINDS` row, indexed by the concatenated
  input bits — computed from ``cell_eval`` itself (and swept against
  the independent cell oracle by a unit test);
* the inertial-cancellation rule (only the latest scheduled evaluation
  of a net is live) is carried over verbatim, including the
  counts-a-cancellation and skips-a-no-op bookkeeping.

The event entry point replays a *window* of cycle transitions in one
call: per-stimulus-net value words (bit ``i`` = value in the window's
cycle ``i``), read straight from a levelized run's limb buffer, are
expanded to per-transition deltas inside the kernel, so Python overhead
is O(1) per window rather than per event.
"""

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from array import array
from pathlib import Path

from repro import obs
from repro.errors import SimulationError
from repro.hdl.cell import CELL_KINDS
from repro.hdl.sim.compile import (
    NODE_FIELDS,
    OP_ONE,
    OP_REG,
    OPCODES,
)

#: Transitions per kernel call — one bit of the stimulus words each,
#: plus bit 0 for the seed cycle, bounded by the 64-bit word.
WINDOW_TRANSITIONS = 63

_EVENT_SOURCE = r"""
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

#: The levelized half of the library: bit-parallel settle over the node
#: table of :mod:`repro.hdl.sim.compile`, stimulus pack / bus unpack
#: through 64x64 bit-matrix transposes, windowed zero-delay toggle
#: popcounts, and the event kernel's seed / stimulus-window reads.
#: Every routine works on a **limb buffer**: net ``n``'s pattern word
#: as ``L`` little-endian ``uint64`` limbs at ``v + n * L`` (bit ``t``
#: of the word = bit ``t % 64`` of limb ``t / 64``), bits at or beyond
#: the pattern count always 0.  No routine holds state between calls.
_LEVELIZED_SOURCE = r"""
#include <stdint.h>

/* In-place 64x64 bit-matrix transpose: afterwards bit r of a[c] is
 * what bit c of a[r] was. */
static void transpose64(uint64_t *a)
{
    uint64_t m = 0x00000000FFFFFFFFull;
    for (int s = 32; s; s >>= 1, m ^= m << s) {
        for (int r = 0; r < 64; r = (r + s + 1) & ~s) {
            uint64_t t = ((a[r] >> s) ^ a[r + s]) & m;
            a[r + s] ^= t;
            a[r] ^= t << s;
        }
    }
}

/* Stimulus words -> limb rows.  words: n_words words of B limbs each
 * (LSB limb first, already masked to the bus width); nets: the bus's
 * width nets, LSB first.  Rows of patterns >= n_words are left as they
 * are (zero in a fresh buffer). */
void lv_pack(const uint64_t *words, int64_t n_words, int32_t B,
             const int32_t *nets, int32_t width, uint64_t *v, int32_t L)
{
    uint64_t a[64];
    for (int64_t tb = 0; tb * 64 < n_words; tb++) {
        int64_t rows = n_words - tb * 64;
        if (rows > 64)
            rows = 64;
        for (int32_t cb = 0; cb < B; cb++) {
            for (int j = 0; j < 64; j++)
                a[j] = j < rows ? words[(tb * 64 + j) * B + cb] : 0;
            transpose64(a);
            int32_t hi = width - cb * 64;
            if (hi > 64)
                hi = 64;
            for (int i = 0; i < hi; i++)
                v[(int64_t)nets[cb * 64 + i] * L + tb] = a[i];
        }
    }
}

/* Limb rows of a width-net bus -> n words of B limbs each. */
void lv_unpack(const uint64_t *v, int32_t L, const int32_t *nets,
               int32_t width, int64_t n, uint64_t *words)
{
    uint64_t a[64];
    int32_t B = (width + 63) / 64;
    for (int64_t tb = 0; tb * 64 < n; tb++) {
        int64_t rows = n - tb * 64;
        if (rows > 64)
            rows = 64;
        for (int32_t cb = 0; cb < B; cb++) {
            for (int i = 0; i < 64; i++)
                a[i] = cb * 64 + i < width
                    ? v[(int64_t)nets[cb * 64 + i] * L + tb] : 0;
            transpose64(a);
            for (int j = 0; j < rows; j++)
                words[(tb * 64 + j) * B + cb] = a[j];
        }
    }
}

#define GATE(op, expr) \
    case op: \
        for (int32_t k = 0; k < L; k++) { \
            uint64_t M = k + 1 < L ? ~(uint64_t)0 : last; \
            (void)M; \
            o[k] = (expr); \
        } \
        break;

/* One bit-parallel settle over n_patterns patterns: every node-table
 * row in order.  A register shifts its d row up one pattern, carrying
 * bit 63 of each limb into the next, masked by the all-patterns mask. */
void lv_settle(const int32_t *nodes, int32_t n_nodes, uint64_t *v,
               int64_t n_patterns)
{
    int32_t L = (int32_t)((n_patterns + 63) / 64);
    uint64_t last = n_patterns % 64
        ? ((uint64_t)1 << (n_patterns % 64)) - 1 : ~(uint64_t)0;
    for (int32_t i = 0; i < n_nodes; i++) {
        const int32_t *nd = nodes + @NODE_FIELDS@ * (int64_t)i;
        const uint64_t *a = v + (int64_t)nd[1] * L;
        const uint64_t *b = v + (int64_t)nd[2] * L;
        const uint64_t *c = v + (int64_t)nd[3] * L;
        const uint64_t *d = v + (int64_t)nd[4] * L;
        uint64_t *o = v + (int64_t)nd[5] * L;
        (void)b;
        (void)c;
        (void)d;
        switch (nd[0]) {
@GATE_CASES@
        case @OP_REG@: {
            uint64_t carry = 0;
            for (int32_t k = 0; k < L; k++) {
                uint64_t x = a[k];
                uint64_t M = k + 1 < L ? ~(uint64_t)0 : last;
                o[k] = ((x << 1) | carry) & M;
                carry = x >> 63;
            }
            break;
        }
        case @OP_ONE@:
            for (int32_t k = 0; k < L; k++)
                o[k] = k + 1 < L ? ~(uint64_t)0 : last;
            break;
        }
    }
}

/* Per net, the number of patterns t in [lo, hi) whose bit differs from
 * bit t + 1: the zero-delay toggles of a window of transitions. */
void lv_toggles(const uint64_t *v, int32_t L, int32_t n_nets, int64_t lo,
                int64_t hi, int64_t *out)
{
    int32_t k0 = (int32_t)(lo / 64);
    int32_t k1 = (int32_t)((hi + 63) / 64);
    for (int32_t net = 0; net < n_nets; net++) {
        const uint64_t *w = v + (int64_t)net * L;
        int64_t count = 0;
        for (int32_t k = k0; k < k1; k++) {
            uint64_t x = w[k] ^ ((w[k] >> 1)
                                 | (k + 1 < L ? w[k + 1] << 63 : 0));
            int64_t a = lo - (int64_t)k * 64, b = hi - (int64_t)k * 64;
            if (a > 0)
                x &= ~(uint64_t)0 << a;
            if (b < 64)
                x &= ((uint64_t)1 << b) - 1;
            count += __builtin_popcountll(x);
        }
        out[net] = count;
    }
}

/* Bit `shift` of every net's row: the event kernel's seed state. */
void lv_seed(const uint64_t *v, int32_t L, int32_t n_nets, int64_t shift,
             uint8_t *values)
{
    int64_t k = shift / 64;
    int s = (int)(shift % 64);
    for (int32_t net = 0; net < n_nets; net++)
        values[net] = (uint8_t)((v[(int64_t)net * L + k] >> s) & 1);
}

/* 64-bit windows starting at bit `shift` of the given nets' rows: the
 * event kernel's per-window stimulus words. */
void lv_window(const uint64_t *v, int32_t L, const int32_t *nets,
               int32_t n, int64_t shift, uint64_t *out)
{
    int64_t k = shift / 64;
    int s = (int)(shift % 64);
    for (int32_t i = 0; i < n; i++) {
        const uint64_t *w = v + (int64_t)nets[i] * L;
        uint64_t x = w[k] >> s;
        if (s && k + 1 < L)
            x |= w[k + 1] << (64 - s);
        out[i] = x;
    }
}
"""


def _levelized_source():
    """``_LEVELIZED_SOURCE`` with one ``GATE`` case per cell kind, each
    generated from the ``expr`` of the kind's
    :data:`~repro.hdl.cell.CELL_KINDS` row — the very expression the
    Python kernel evaluates."""
    cases = [f"        GATE({op}, "
             + CELL_KINDS[kind].expr.format("a[k]", "b[k]", "c[k]", "d[k]",
                                            M="M")
             + f") /* {kind} */"
             for kind, op in OPCODES.items()]
    return (_LEVELIZED_SOURCE.replace("@GATE_CASES@", "\n".join(cases))
            .replace("@NODE_FIELDS@", str(NODE_FIELDS))
            .replace("@OP_REG@", str(OP_REG))
            .replace("@OP_ONE@", str(OP_ONE)))


_SOURCE = _EVENT_SOURCE + _levelized_source()

_P = ctypes.c_void_p
_I32 = ctypes.c_int32
_I64 = ctypes.c_int64

#: ``(restype, argtypes)`` of every exported function.  The levelized
#: routines take their buffers as ``void *`` (see :func:`_addr`).
_SIGNATURES = {
    "sim_replay": (_I64, [
        _I32, _I32,
        ctypes.POINTER(_I32), ctypes.POINTER(ctypes.c_uint16),
        ctypes.POINTER(_I32), ctypes.POINTER(ctypes.c_double),
        ctypes.POINTER(_I32), ctypes.POINTER(_I32),
        ctypes.POINTER(ctypes.c_uint8), ctypes.POINTER(_I64),
        ctypes.POINTER(_I32), ctypes.POINTER(ctypes.c_uint64),
        _I32,
        _I32,
        ctypes.POINTER(_I64), ctypes.POINTER(_I64),
        ctypes.POINTER(ctypes.c_double),
    ]),
    "lv_pack": (None, [_P, _I64, _I32, _P, _I32, _P, _I32]),
    "lv_unpack": (None, [_P, _I32, _P, _I32, _I64, _P]),
    "lv_settle": (None, [_P, _I32, _P, _I64]),
    "lv_toggles": (None, [_P, _I32, _I32, _I64, _I64, _P]),
    "lv_seed": (None, [_P, _I32, _I32, _I64, _P]),
    "lv_window": (None, [_P, _I32, _P, _I32, _I64, _P]),
}

_lib = None
_load_attempted = False
_load_lock = threading.Lock()
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
    so_path = cache / f"simkernel-{digest}.so"
    if not so_path.exists():
        cc = (os.environ.get("CC") or shutil.which("cc")
              or shutil.which("gcc"))
        if not cc:
            return None
        # Per-process temp files renamed into place: concurrent cold
        # builds never compile or load a half-written file.
        c_path = cache / f"simkernel-{digest}.c"
        tmp_c = cache / f"simkernel-{digest}.{os.getpid()}.tmp.c"
        tmp_c.write_text(_SOURCE)
        os.replace(tmp_c, c_path)
        tmp_path = cache / f"simkernel-{digest}.{os.getpid()}.tmp.so"
        subprocess.run(
            [cc, "-O2", "-std=c99", "-fPIC", "-shared",
             "-o", str(tmp_path), str(c_path)],
            check=True, capture_output=True)
        os.replace(tmp_path, so_path)
    lib = ctypes.CDLL(str(so_path))
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes
    return lib


def load_kernel():
    """The loaded kernel library, or ``None`` when unavailable.

    First call compiles (or re-links) the shared library; concurrent
    first callers wait for that one build.  When the kernel cannot be
    used the Python engines take over for the process, never silently:
    ``sim.ckernel.fallback`` ticks and :data:`fallback_reason` records
    why — ``disabled`` (``REPRO_NO_CKERNEL``), ``no_compiler`` or
    ``build_failed: <exc>`` (unwritable cache, compile or link error).
    """
    global _lib, _load_attempted, fallback_reason
    if _load_attempted:
        return _lib
    with _load_lock:
        if _load_attempted:
            return _lib
        if os.environ.get("REPRO_NO_CKERNEL", ""):
            reason = "disabled"
        else:
            try:
                _lib = _build_and_load()
            except Exception as exc:
                reason = f"build_failed: {exc}"
            else:
                reason = None if _lib is not None else "no_compiler"
        _load_attempted = True
    if reason is not None:
        fallback_reason = reason
        reg = obs.registry()
        reg.inc("sim.ckernel.fallback")
        reg.record("sim.ckernel.fallback", {"reason": reason})
    return _lib


def _addr(buf):
    """Address of a writable buffer (``bytearray``/``array``) for a
    ``void *`` argument; ``buf`` must outlive the call."""
    return ctypes.addressof(ctypes.c_char.from_buffer(buf))


class LimbBuffer:
    """Every net's packed pattern word as native ``uint64`` limbs.

    The levelized kernel's working state: ``n_limbs`` limbs per net,
    net-major, in a ``bytearray`` the C routines write in place.  It
    stands in for the list of per-net Python ints a Python-kernel run
    produces: ``len()`` is the net count, :meth:`words` materializes
    that list, and :class:`CKernel` reads replay windows straight from
    it.
    """

    __slots__ = ("lib", "n_nets", "n_patterns", "n_limbs", "raw")

    def __init__(self, lib, n_nets, n_patterns):
        self.lib = lib
        self.n_nets = n_nets
        self.n_patterns = n_patterns
        self.n_limbs = (n_patterns + 63) >> 6
        self.raw = bytearray(8 * n_nets * self.n_limbs)

    @classmethod
    def from_words(cls, lib, words):
        """A buffer holding the per-net pattern words ``words``."""
        width = max((w.bit_length() for w in words), default=0)
        buf = cls(lib, len(words), max(width, 1))
        size = 8 * buf.n_limbs
        buf.raw[:] = b"".join(w.to_bytes(size, "little") for w in words)
        return buf

    def __len__(self):
        return self.n_nets

    def pack(self, bus, words):
        """Load stimulus ``words`` (one per pattern, from pattern 0) onto
        the ``bus`` nets; bits at or beyond the bus width are ignored."""
        width = len(bus)
        if not width or not words:
            return
        m = (1 << width) - 1
        n_limbs = (width + 63) >> 6
        if n_limbs == 1:
            data = array("Q", [w & m for w in words])
        else:
            data = bytearray(b"".join((w & m).to_bytes(8 * n_limbs,
                                                       "little")
                                      for w in words))
        nets = array("i", bus)
        self.lib.lv_pack(_addr(data), len(words), n_limbs, _addr(nets),
                         width, _addr(self.raw), self.n_limbs)

    def settle(self, node_table):
        """Run a module's node table over the buffer."""
        self.lib.lv_settle(_addr(node_table),
                           len(node_table) // NODE_FIELDS, _addr(self.raw),
                           self.n_patterns)

    def bus_words(self, bus, n):
        """Patterns ``0 .. n-1``' words on ``bus`` (LSB-first)."""
        width = len(bus)
        if not width:
            return [0] * n
        n_limbs = (width + 63) >> 6
        nets = array("i", bus)
        out = bytearray(8 * n_limbs * n)
        self.lib.lv_unpack(_addr(self.raw), self.n_limbs, _addr(nets),
                           width, n, _addr(out))
        if n_limbs == 1:
            return array("Q", out).tolist()
        size = 8 * n_limbs
        return [int.from_bytes(out[i:i + size], "little")
                for i in range(0, len(out), size)]

    def toggles(self, lo, hi):
        """Per net, the patterns ``t`` in ``[lo, hi)`` whose value
        differs from pattern ``t + 1``'s."""
        out = array("q", bytes(8 * self.n_nets))
        self.lib.lv_toggles(_addr(self.raw), self.n_limbs, self.n_nets,
                            lo, hi, _addr(out))
        return out.tolist()

    def words(self):
        """Every net's pattern word as a Python int."""
        raw = self.raw
        if self.n_limbs == 1:
            return array("Q", raw).tolist()
        size = 8 * self.n_limbs
        return [int.from_bytes(raw[i:i + size], "little")
                for i in range(0, len(raw), size)]


class CKernel:
    """One module + library flattened into the kernel's array layout.

    Holds the persistent simulator state (net values, live sequence
    numbers, accumulated toggles) in ctypes buffers shared with the C
    side; construction is pure preprocessing and involves no C calls.
    """

    def __init__(self, lib, module, delays, fanout, stim_order):
        self._lib = lib
        self.n_nets = n_nets = module.n_nets
        gates = module.gates
        n_gates = len(gates)
        self._n_gates = n_gates

        gin = (ctypes.c_int32 * (4 * n_gates))()
        ttab = (ctypes.c_uint16 * max(n_gates, 1))()
        gout = (ctypes.c_int32 * max(n_gates, 1))()
        for idx, gate in enumerate(gates):
            ins = list(gate.inputs)
            ttab[idx] = CELL_KINDS[gate.kind].truth_table
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

    def limbs(self, packed_values):
        """``packed_values`` — a :class:`LimbBuffer` or a list of per-net
        pattern words — as a :class:`LimbBuffer`."""
        if isinstance(packed_values, LimbBuffer):
            return packed_values
        return LimbBuffer.from_words(self._lib, packed_values[:self.n_nets])

    def seed(self, buf, shift):
        """Load every net's value from bit ``shift`` of its row in the
        :class:`LimbBuffer` ``buf``."""
        self._lib.lv_seed(_addr(buf.raw), buf.n_limbs, self.n_nets, shift,
                          self.values)

    def run(self, buf, shift, transitions):
        """Replay ``transitions`` transitions from the seeded state.

        Stimulus bit ``i`` (``0 <= i <= transitions``) of each net's
        row in the :class:`LimbBuffer` ``buf`` is its value in cycle
        ``shift + i``; toggles accumulate into :attr:`toggles`.
        Returns ``(events, cancelled, settle)``.
        """
        if not 1 <= transitions <= WINDOW_TRANSITIONS:
            raise SimulationError(
                f"kernel window must be 1..{WINDOW_TRANSITIONS} transitions")
        words = self._stim_words
        self._lib.lv_window(_addr(buf.raw), buf.n_limbs, self._stim_net,
                            len(self._stim_order), shift, words)
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
