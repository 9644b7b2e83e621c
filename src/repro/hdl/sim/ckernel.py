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
threads (the serve submitter and dispatcher, a glitch replay's spans)
overlap native work.

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
  ``heapq``.  The kernel's queue is a bucket ring over the settle
  window (:func:`ring_geometry`): one FIFO slot per distinct pending
  time ``t`` in bucket ``floor(t / q) mod R``, sorted by exact ``t``,
  drained by a cursor walking the buckets.  Events enter a slot in
  sequence order, so draining slots by time, each front to back, *is*
  that order;
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
is O(1) per window rather than per event.  A :class:`CKernel` holds
the module's netlist arrays, filled by ``ck_tables`` straight from the
compiled node table and read-only once built; a replay's writes go
to a :class:`KernelState`, so the spans of one replay
(:meth:`repro.hdl.sim.event.EventSimulator.replay`) run on separate
states, and threads, against one kernel.
"""

import ctypes
import hashlib
import math
import os
import shutil
import subprocess
import tempfile
import threading
import time
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

#: Pending maturity times (slots) and pending events the event kernel
#: holds before its first growth.
WHEEL_INITIAL_SLOTS = 256

#: The most buckets an event kernel's ring may have; a library whose
#: delays need more gets wider buckets, several times sharing one.
RING_MAX_BUCKETS = 4096

#: Compiler flags of every build of the library, part of its digest.
CFLAGS = ("-std=c99", "-O2", "-fPIC")

_EVENT_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The bucket ring.  The events maturing at one time t form a FIFO list,
 * that time's slot, kept in bucket floor(t * inv_q) mod R in increasing
 * t.  Pending times lie in [now, now + dmax], fewer than R buckets, so
 * a cursor walking the buckets (skipping empty ones 64 at a time via
 * `occ`) meets them in order.  Events enter a slot in increasing seq,
 * so draining slots by time, each front to back, is the (t, seq) order
 * of Python's heapq reference.  Events live in the index-linked pool
 * `ev`, slots in `slot`; a drained slot and its events go on spare
 * lists, so both arrays hold only what is pending. */
typedef struct {
    int64_t seq;
    int32_t nv;         /* net << 1 | value */
    int32_t next;       /* next event of the slot (or spare), -1 last */
} Ev;

typedef struct {
    double t;
    int32_t head, tail;
    int32_t next;       /* next later slot of the bucket (or spare) */
} Slot;

typedef struct {
    Ev *ev;
    Slot *slot;
    int32_t *ring;      /* front slot per bucket, -1 when empty */
    uint64_t *occ;      /* bit b set while bucket b holds a slot */
    double inv_q;
    uint32_t mask;
    int32_t n_ev, cap_ev, spare_ev;
    int32_t n_slot, cap_slot, spare_slot, live;
    int64_t shared;     /* new times that found their bucket occupied */
} Wheel;

/* The gate-level netlist, as sim_replay's caller lays it out. */
typedef struct {
    const int32_t *gin;
    const uint16_t *ttab;
    const int32_t *gout;
    const double *gdelay;
    const int32_t *fo_ptr, *fo_dat;
} Netlist;

/* `p` reallocated to twice its `cap` elements of `size` bytes (and
 * `cap` doubled), or NULL with `p` and `cap` untouched. */
static void *grow(void *p, int32_t *cap, size_t size)
{
    if (*cap > INT32_MAX / 2)
        return NULL;
    void *np = realloc(p, (size_t)*cap * 2 * size);
    if (np)
        *cap *= 2;
    return np;
}

static int wheel_init(Wheel *w, double inv_q, int32_t n_buckets)
{
    memset(w, 0, sizeof *w);
    w->cap_ev = w->cap_slot = @WHEEL_SLOTS@;
    w->spare_ev = w->spare_slot = -1;
    w->inv_q = inv_q;
    w->mask = (uint32_t)n_buckets - 1;
    w->ev = (Ev *)malloc((size_t)w->cap_ev * sizeof(Ev));
    w->slot = (Slot *)malloc((size_t)w->cap_slot * sizeof(Slot));
    w->ring = (int32_t *)malloc((size_t)n_buckets * sizeof(int32_t));
    w->occ = (uint64_t *)calloc((size_t)(w->mask >> 6) + 1, sizeof(uint64_t));
    if (!w->ev || !w->slot || !w->ring || !w->occ)
        return -1;
    memset(w->ring, 0xff, (size_t)n_buckets * sizeof(int32_t));
    return 0;
}

static void wheel_free(Wheel *w)
{
    free(w->ev);
    free(w->slot);
    free(w->ring);
    free(w->occ);
}

/* The first bucket at or cyclically after b that holds a slot; some
 * bucket must. */
static uint32_t wheel_next(const Wheel *w, uint32_t b)
{
    uint32_t i = b >> 6, words_mask = w->mask >> 6;
    uint64_t x = w->occ[i] & (~(uint64_t)0 << (b & 63));
    while (!x)
        x = w->occ[i = (i + 1) & words_mask];
    return i << 6 | (uint32_t)__builtin_ctzll(x);
}

/* Append an event to the slot of time t, opening the slot in its place
 * in t's bucket if t has none.  The slot being drained stays at the
 * front of its bucket until wheel_release, so an event due at the
 * current time joins its tail; times only grow, so no released time
 * comes back.  t >= 0, so the cast floors. */
static int wheel_add(Wheel *w, double t, int64_t seq, int32_t net,
                     int32_t val)
{
    uint32_t b = (uint32_t)(uint64_t)(t * w->inv_q) & w->mask;
    int32_t prev = -1, s = w->ring[b];
    while (s >= 0 && w->slot[s].t < t) {
        prev = s;
        s = w->slot[s].next;
    }
    int32_t e = w->spare_ev;
    if (e >= 0) {
        w->spare_ev = w->ev[e].next;
    } else {
        if (w->n_ev == w->cap_ev) {
            Ev *ev = (Ev *)grow(w->ev, &w->cap_ev, sizeof(Ev));
            if (!ev)
                return -1;
            w->ev = ev;
        }
        e = w->n_ev++;
    }
    w->ev[e].seq = seq;
    w->ev[e].nv = net << 1 | val;
    w->ev[e].next = -1;
    if (s >= 0 && w->slot[s].t == t) {
        w->ev[w->slot[s].tail].next = e;
        w->slot[s].tail = e;
        return 0;
    }
    if (w->ring[b] >= 0)
        w->shared++;
    int32_t n = w->spare_slot;
    if (n >= 0) {
        w->spare_slot = w->slot[n].next;
    } else {
        if (w->n_slot == w->cap_slot) {
            Slot *slot = (Slot *)grow(w->slot, &w->cap_slot, sizeof(Slot));
            if (!slot)
                return -1;
            w->slot = slot;
        }
        n = w->n_slot++;
    }
    w->slot[n].t = t;
    w->slot[n].head = w->slot[n].tail = e;
    w->slot[n].next = s;
    if (prev >= 0)
        w->slot[prev].next = n;
    else
        w->ring[b] = n;
    w->occ[b >> 6] |= (uint64_t)1 << (b & 63);
    w->live++;
    return 0;
}

/* Retire drained slot s, the front of bucket b: the bucket's next slot
 * becomes its front, and s and its events become spares. */
static void wheel_release(Wheel *w, uint32_t b, int32_t s)
{
    if ((w->ring[b] = w->slot[s].next) < 0)
        w->occ[b >> 6] &= ~((uint64_t)1 << (b & 63));
    w->live--;
    w->ev[w->slot[s].tail].next = w->spare_ev;
    w->spare_ev = w->slot[s].head;
    w->slot[s].next = w->spare_slot;
    w->spare_slot = s;
}

/* Evaluate each gate driven by `net` and schedule its output `t` plus
 * the gate's delay later; the newest evaluation of a net is its live
 * one. */
static int schedule_fanout(Wheel *w, const Netlist *nl, int32_t net,
                           double t, const uint8_t *values,
                           int64_t *live_seq, int64_t *counter)
{
    for (int32_t k = nl->fo_ptr[net]; k < nl->fo_ptr[net + 1]; k++) {
        int32_t g = nl->fo_dat[k];
        const int32_t *in = nl->gin + 4 * (int64_t)g;
        int idx = values[in[0]] | (values[in[1]] << 1)
                | (values[in[2]] << 2) | (values[in[3]] << 3);
        int32_t out = nl->gout[g];
        live_seq[out] = ++*counter;
        if (wheel_add(w, t + nl->gdelay[g], *counter, out,
                      (nl->ttab[g] >> idx) & 1))
            return -1;
    }
    return 0;
}

/* Replay `transitions` cycle transitions.
 *
 * gin:   4 input net ids per gate (unused slots repeat input 0 - the
 *        truth table's output is replicated over the padded bits).
 * ttab:  16-entry truth table per gate, indexed by concatenated input
 *        bits (in0 | in1<<1 | in2<<2 | in3<<3).
 * gdelay: per-gate delay, finite and >= 0, at most dmax.
 * fo_ptr/fo_dat: CSR fanout (net -> driven gate indices).
 * inv_q/n_buckets: the ring, 1 / bucket width (q a power of two) and a
 *        power-of-two bucket count >= dmax / q + 3.
 * values/live_seq: persistent simulator state (callee-updated).
 * stim_words: per stimulus net, bit i = the net's value in the window's
 *        cycle i (bit 0 = the already-settled seed cycle).
 * stats: [0] monotone schedule counter; accumulated over calls:
 *        [1] events processed, [2] inertial cancellations, [3] slots
 *        drained (distinct maturity times), [4] largest slot (max),
 *        [5] new times that found their bucket occupied.
 * settle_out: settle time (ps) of the final transition.
 *
 * Returns 0, or -1 on allocation failure.
 */
int64_t sim_replay(
    const int32_t *gin, const uint16_t *ttab,
    const int32_t *gout, const double *gdelay,
    const int32_t *fo_ptr, const int32_t *fo_dat,
    double inv_q, int32_t n_buckets,
    uint8_t *values, int64_t *live_seq,
    const int32_t *stim_net, const uint64_t *stim_words, int32_t n_stim,
    int32_t transitions,
    int64_t *toggles, int64_t *stats, double *settle_out)
{
    const Netlist nl = { gin, ttab, gout, gdelay, fo_ptr, fo_dat };
    Wheel w;
    int32_t *changed =
        (int32_t *)malloc(sizeof(int32_t) * (size_t)(n_stim ? n_stim : 1));
    int fail = wheel_init(&w, inv_q, n_buckets) || !changed;
    int64_t counter = stats[0];
    int64_t events = stats[1], cancelled = stats[2], slots = stats[3];
    int64_t max_slot = stats[4];
    w.shared = stats[5];
    double settle = 0.0;

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

        /* Schedule the fanout of the changed nets at t = 0, then walk
         * the ring from bucket 0 to quiescence.  This is the heap
         * engine's schedule-per-trigger algorithm; see tests/oracles/
         * event_heap.py. */
        for (int32_t j = 0; j < nc && !fail; j++)
            fail = schedule_fanout(&w, &nl, changed[j], 0.0, values,
                                   live_seq, &counter);
        for (uint32_t b = 0; w.live && !fail;) {
            int32_t s;
            b = wheel_next(&w, b);
            while ((s = w.ring[b]) >= 0 && !fail) {
                double t = w.slot[s].t;
                int64_t n_in = 0;
                slots++;
                /* By index, re-reading `next` after each event: an
                 * event scheduled at t itself joins this slot's
                 * tail. */
                for (int32_t i = w.slot[s].head; i >= 0 && !fail;
                     i = w.ev[i].next) {
                    int32_t net = w.ev[i].nv >> 1;
                    uint8_t val = (uint8_t)(w.ev[i].nv & 1);
                    n_in++;
                    if (w.ev[i].seq != live_seq[net]) {
                        cancelled++;    /* cancelled by a newer evaluation */
                        continue;
                    }
                    if (values[net] == val)
                        continue;
                    values[net] = val;
                    toggles[net]++;
                    settle = t;
                    fail = schedule_fanout(&w, &nl, net, t, values,
                                           live_seq, &counter);
                }
                events += n_in;
                if (n_in > max_slot)
                    max_slot = n_in;
                wheel_release(&w, b, s);
            }
        }
    }

    free(changed);
    wheel_free(&w);
    if (fail)
        return -1;
    stats[0] = counter;
    stats[1] = events;
    stats[2] = cancelled;
    stats[3] = slots;
    stats[4] = max_slot;
    stats[5] = w.shared;
    *settle_out = settle;
    return 0;
}

/* sim_replay's gin/ttab/gout (rows pad unused pins with input 0, as
 * gin does) and its CSR fanout, net -> reading gates, ascending, once
 * per real pin (the first arity[op] pins), from the node table: rows
 * first.. are node order[i - first] (< 0: a register).  With fo_dat
 * NULL only counts the pins.  Returns the pin count, or -1 on
 * allocation failure. */
int64_t ck_tables(
    const int32_t *nodes, int32_t n_rows, const int32_t *order,
    int32_t first, const uint8_t *arity, const uint16_t *tt,
    int32_t n_gates, int32_t n_nets,
    int32_t *gin, uint16_t *ttab, int32_t *gout,
    int32_t *fo_ptr, int32_t *fo_dat)
{
    uint8_t *ar = (uint8_t *)malloc((size_t)(n_gates ? n_gates : 1));
    if (!ar)
        return -1;
    memset(fo_ptr, 0, sizeof(int32_t) * ((size_t)n_nets + 1));
    for (int32_t i = first; i < n_rows; i++) {
        int32_t g = order[i - first];
        if (g < 0)
            continue;
        const int32_t *nd = nodes + @NODE_FIELDS@ * (int64_t)i;
        memcpy(gin + 4 * (int64_t)g, nd + 1, 4 * sizeof(int32_t));
        ttab[g] = tt[nd[0]];
        gout[g] = nd[5];
        ar[g] = arity[nd[0]];
        for (int p = 0; p < ar[g]; p++)
            fo_ptr[nd[1 + p] + 1]++;
    }
    for (int32_t net = 0; net < n_nets; net++)
        fo_ptr[net + 1] += fo_ptr[net];
    int64_t n_pins = fo_ptr[n_nets];
    if (fo_dat) {
        /* fo_ptr[net] is the fill cursor, ending at net + 1's start. */
        for (int32_t g = 0; g < n_gates; g++)
            for (int p = 0; p < ar[g]; p++)
                fo_dat[fo_ptr[gin[4 * (int64_t)g + p]]++] = g;
        memmove(fo_ptr + 1, fo_ptr, sizeof(int32_t) * (size_t)n_nets);
        fo_ptr[0] = 0;
    }
    free(ar);
    return n_pins;
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


#: Per gate opcode, the arity and the truth table ``ck_tables`` reads.
_ARITY = bytearray(CELL_KINDS[kind].arity for kind in OPCODES)
_TRUTH = array("H", [CELL_KINDS[kind].truth_table for kind in OPCODES])

_SOURCE = (_EVENT_SOURCE.replace("@WHEEL_SLOTS@", str(WHEEL_INITIAL_SLOTS))
           .replace("@NODE_FIELDS@", str(NODE_FIELDS))
           + _levelized_source())

_P = ctypes.c_void_p
_I32 = ctypes.c_int32
_I64 = ctypes.c_int64

#: ``(restype, argtypes)`` of every exported function.  The levelized
#: routines take their buffers as ``void *`` (see :func:`_addr`).
_SIGNATURES = {
    "sim_replay": (_I64, [
        ctypes.POINTER(_I32), ctypes.POINTER(ctypes.c_uint16),
        ctypes.POINTER(_I32), ctypes.POINTER(ctypes.c_double),
        ctypes.POINTER(_I32), ctypes.POINTER(_I32),
        ctypes.c_double, _I32,
        ctypes.POINTER(ctypes.c_uint8), ctypes.POINTER(_I64),
        ctypes.POINTER(_I32), ctypes.POINTER(ctypes.c_uint64),
        _I32,
        _I32,
        ctypes.POINTER(_I64), ctypes.POINTER(_I64),
        ctypes.POINTER(ctypes.c_double),
    ]),
    "ck_tables": (_I64, [_P, _I32, _P, _I32, _P, _P, _I32, _I32,
                         _P, _P, _P, _P, _P]),
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


def _library_path(cache):
    """Where in ``cache`` the library built from :data:`_SOURCE` with
    :data:`CFLAGS` lives: either one changing names a new file."""
    ident = "\0".join((_SOURCE,) + CFLAGS)
    digest = hashlib.sha256(ident.encode()).hexdigest()[:16]
    return cache / f"simkernel-{digest}.so"


def _build_and_load():
    cache = _cache_dir()
    so_path = _library_path(cache)
    digest = so_path.stem.removeprefix("simkernel-")
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
            [cc, *CFLAGS, "-shared", "-o", str(tmp_path), str(c_path)],
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
    ``void *`` argument.  Bind ``buf`` to a name for the whole call: the
    address keeps nothing alive, so ``_addr(bytearray(n))`` hands C the
    memory of a buffer already freed."""
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


class KernelState:
    """One replay span's mutable kernel state.

    Net values, live sequence numbers, accumulated per-net toggles, the
    window's stimulus words and the kernel's stats and settle time, in
    ctypes buffers the C side updates in place.  A :class:`CKernel`
    keeps one for good; :meth:`CKernel.new_state` makes the extra ones
    a parallel replay runs its other spans on.
    """

    __slots__ = ("values", "toggles", "_toggles", "_live_seq",
                 "_stim_words", "_stats", "_settle")

    def __init__(self, n_nets, n_stim):
        self.values = (ctypes.c_uint8 * n_nets)()
        self._live_seq = (ctypes.c_int64 * n_nets)()
        #: Per-net toggles the kernel accumulates, read in place.
        self.toggles = array("q", [0]) * n_nets
        self._toggles = (ctypes.c_int64 * n_nets).from_buffer(self.toggles)
        self._stim_words = (ctypes.c_uint64 * max(n_stim, 1))()
        self._stats = (ctypes.c_int64 * 6)()
        self._settle = (ctypes.c_double * 1)()

    def reset(self):
        """Zero the toggles and the accumulated stats (the schedule
        counter runs on, as ``_live_seq`` still holds its values)."""
        ctypes.memset(self._toggles, 0, ctypes.sizeof(self._toggles))
        ctypes.memset(ctypes.byref(self._stats, 8), 0, 8 * 5)


def ring_geometry(delays):
    """``(q, n_buckets)`` of the ring for gate ``delays`` (finite, >= 0):
    ``q`` (ps) the coarsest power of two dividing every delay, widened
    to fit :data:`RING_MAX_BUCKETS`; ``n_buckets`` the next power of two
    >= ``max(delays) / q + 3``, so no two pending times a lap apart
    share a bucket."""
    grids = [(num & -num) / den for num, den in
             map(float.as_integer_ratio, set(delays)) if num]
    # The floor keeps 1 / q finite for sub-normal delays.
    q = max(min(grids, default=1.0), 2.0 ** -32)
    dmax = max(delays, default=0.0)
    while dmax / q + 3 > RING_MAX_BUCKETS:
        q *= 2
    n_buckets = 4
    while n_buckets < dmax / q + 3:
        n_buckets *= 2
    return q, n_buckets


class CKernel:
    """One module + library flattened into the kernel's array layout.

    The netlist arrays (gate pins, truth tables, delays, fanout CSR,
    stimulus nets) and the ring geometry (:func:`ring_geometry`) are
    read-only after construction and shared by every
    :class:`KernelState` a replay runs on, so several states may run
    :meth:`run` at once on separate threads.  ``ck_tables`` fills the
    gate tables and the fanout from the module's compiled node table and
    node order (a counting call sizes the fanout), with no Python work
    per gate or net; a gate delay the ring cannot order (negative,
    infinite or NaN) raises :class:`SimulationError`.
    """

    def __init__(self, lib, module, delays, stim_order):
        self._lib = lib
        self.n_nets = n_nets = module.n_nets
        n_gates = len(module.gates)
        if not all(0.0 <= delay < math.inf for delay in set(delays)):
            g = next(g for g, delay in enumerate(delays)
                     if not 0.0 <= delay < math.inf)
            kind, __, output, __ = module.gates[g]
            raise SimulationError(
                f"gate {g} ({kind} driving net {output}) has delay "
                f"{delays[g]!r} ps; the event kernel needs 0 <= d < inf")
        self._gdelay = (ctypes.c_double * max(n_gates, 1))()
        ctypes.memmove(self._gdelay, array("d", delays).tobytes(), 8 * n_gates)
        self._gin = (ctypes.c_int32 * max(4 * n_gates, 1))()
        self._ttab = (ctypes.c_uint16 * max(n_gates, 1))()
        self._gout = (ctypes.c_int32 * max(n_gates, 1))()
        self._fo_ptr = (ctypes.c_int32 * (n_nets + 1))()
        nodes = module.index.compiled.node_table
        order = array("i", module.index.node_order())
        n_rows = len(nodes) // NODE_FIELDS
        # Count the fanout pins, then fill the tables and the fanout.
        args = [_addr(nodes), n_rows, _addr(order), n_rows - len(order),
                _addr(_ARITY), _addr(_TRUTH), n_gates, n_nets,
                self._gin, self._ttab, self._gout, self._fo_ptr]
        n_pins = lib.ck_tables(*args, None)
        self._fo_dat = (ctypes.c_int32 * max(n_pins, 1))()
        if n_pins < 0 or lib.ck_tables(*args, self._fo_dat) < 0:
            raise SimulationError("compiled event kernel allocation failure")
        #: Bucket width (ps) and bucket count of the ring.
        self.ring_bucket_ps, self._n_buckets = ring_geometry(delays)

        self._n_stim = n_stim = len(stim_order)
        self._stim_net = (ctypes.c_int32 * max(n_stim, 1))(*stim_order)
        #: The kernel's own state: a replay's first span runs on it.
        self.state = KernelState(n_nets, n_stim)

    def new_state(self):
        """A fresh :class:`KernelState` for one more concurrent span."""
        return KernelState(self.n_nets, self._n_stim)

    def limbs(self, packed_values):
        """``packed_values`` — a :class:`LimbBuffer` or a list of per-net
        pattern words — as a :class:`LimbBuffer`."""
        if isinstance(packed_values, LimbBuffer):
            return packed_values
        return LimbBuffer.from_words(self._lib, packed_values[:self.n_nets])

    def replay_span(self, state, buf, first, last):
        """Replay transitions ``first..last`` on ``state``, seeded from
        cycle ``first - 1`` of ``buf`` and run in windows of up to
        :data:`WINDOW_TRANSITIONS`; ``state.toggles`` starts from zero.
        Returns ``(events, cancelled, slots, max_slot, shared, settle,
        seconds)``: events processed and inertially cancelled, slots
        drained (one per distinct maturity time of each transition), the
        most events one slot held, new times that found their ring
        bucket occupied, the final transition's settle time and the
        span's own wall time."""
        t0 = time.perf_counter()
        state.reset()
        self._lib.lv_seed(_addr(buf.raw), buf.n_limbs, self.n_nets,
                          first - 1, state.values)
        for t in range(first, last + 1, WINDOW_TRANSITIONS):
            self.run(state, buf, t - 1, min(WINDOW_TRANSITIONS, last - t + 1))
        return (*state._stats[1:6], state._settle[0],
                time.perf_counter() - t0)

    def run(self, state, buf, shift, transitions):
        """Replay ``transitions`` transitions from ``state``'s values.

        Stimulus bit ``i`` (``0 <= i <= transitions``) of each net's
        row in the :class:`LimbBuffer` ``buf`` is its value in cycle
        ``shift + i``.  Toggles accumulate into ``state.toggles`` and
        the counts :meth:`replay_span` returns into ``state._stats``;
        ``state._settle`` gets the last transition's settle time.
        """
        if not 1 <= transitions <= WINDOW_TRANSITIONS:
            raise SimulationError(
                f"kernel window must be 1..{WINDOW_TRANSITIONS} transitions")
        words = state._stim_words
        self._lib.lv_window(_addr(buf.raw), buf.n_limbs, self._stim_net,
                            self._n_stim, shift, words)
        rc = self._lib.sim_replay(
            self._gin, self._ttab, self._gout, self._gdelay,
            self._fo_ptr, self._fo_dat,
            1.0 / self.ring_bucket_ps, self._n_buckets,
            state.values, state._live_seq,
            self._stim_net, words, self._n_stim,
            transitions,
            state._toggles, state._stats, state._settle)
        if rc < 0:
            raise SimulationError("compiled event kernel allocation failure")
