"""Bit-parallel levelized (zero-delay) simulation.

Every net value is a packed word whose bit ``t`` is the net's logic
value in pattern/cycle ``t`` — bitwise gate evaluation then simulates
**all patterns at once**, which is what makes exhaustive functional
verification of 30k-gate multipliers practical.

Registers become *time shifts*: ``q = d << 1`` moves every pattern one
cycle later, exactly the behaviour of a flip-flop bank in a feed-forward
pipeline (cycle ``t`` sees the previous cycle's ``d``).  Pattern ``t``
of a primary input is therefore the word applied at cycle ``t``, and an
``L``-stage unit's outputs line up with inputs ``L - 1`` cycles earlier.

Two kernels evaluate the gates, bit-identically.  When the native
library of :mod:`repro.hdl.sim.ckernel` loads (:attr:`LevelizedSimulator.kernel`
``"c"``), the words live in its ``uint64`` limb buffer: stimulus is
transposed in, the node table of :mod:`repro.hdl.sim.compile` settles,
and bus words and toggle counts come straight out of the buffer —
per-net Python ints exist only if someone reads a run's ``values``.
Otherwise (``REPRO_NO_CKERNEL``, no compiler) the words are Python big
ints, packed by :func:`bit_transpose` and settled by the module's
generated straight-line Python code.  The historic per-gate
interpreter both must match bit-for-bit lives in
``tests/oracles/levelized.py``.

A simulator may settle a compiled module other than its module's own —
a one-gate fault-campaign mutant (``CompiledModule.with_gate``) — on
either kernel, through the same settle path.
"""

from repro.bits.utils import mask, popcount
from repro.errors import SimulationError
from repro.hdl.sim import ckernel
from repro.hdl.sim.compile import compiled_module

_M64 = (1 << 64) - 1
_Z8 = bytes(8)


def _delta_swap_masks():
    """(delta, mask) ladder for the in-place 64x64 bit-matrix transpose.

    The matrix lives row-major in one 4096-bit int (row ``r`` at bit
    offset ``64*r``).  At scale ``s`` the upper-right s-by-s sub-block of
    every 2s-by-2s block swaps with its lower-left partner; flat bit
    ``p`` pairs with ``p + 63*s``.  Six rounds (s = 32..1) complete the
    transpose.
    """
    ladder = []
    s = 32
    while s:
        col = sum(1 << c for c in range(64) if (c % (2 * s)) >= s)
        full = sum(col << (64 * r) for r in range(64) if (r % (2 * s)) < s)
        ladder.append((63 * s, full))
        s >>= 1
    return tuple(ladder)


_DELTA_MASKS = _delta_swap_masks()


def bit_transpose(rows, width):
    """Transpose a bit matrix held as a list of ints.

    ``rows[r]`` bit ``c`` becomes bit ``r`` of ``result[c]`` for
    ``c < width``; bits at or beyond ``width`` are ignored.  Works in
    64x64 blocks: each block is packed into one 4096-bit int, transposed
    with six masked delta-swaps, and unpacked straight out of its byte
    image — O(cells/64) word operations instead of one Python-level
    shift/or per bit.

    Both matrix sides are multi-limb: a wide row is converted to its
    byte image **once** and each 64x64 block slices an 8-byte limb out
    of it; output columns spanning several row blocks accumulate into
    per-column byte buffers materialized with one ``int.from_bytes`` at
    the end.  Packing therefore stays linear in the total bit count at
    W×64-pattern superword widths, where the historic per-block big-int
    ``>> cbase`` / ``|= << rbase`` arithmetic went quadratic.
    """
    cols = [0] * width
    n_rows = len(rows)
    if not n_rows or not width:
        return cols
    n_cblocks = (width + 63) >> 6
    span_bytes = n_cblocks << 3
    span_mask = (1 << (n_cblocks << 6)) - 1
    single_rblock = n_rows <= 64
    col_bytes = ((n_rows + 63) >> 6) << 3
    acc = None if single_rblock else [None] * width
    for rbase in range(0, n_rows, 64):
        rchunk = rows[rbase:rbase + 64]
        if n_cblocks == 1:
            blk = bytearray(512)
            for j, r in enumerate(rchunk):
                if r:
                    blk[8 * j:8 * j + 8] = (r & _M64).to_bytes(8, "little")
            blocks = (bytes(blk),)
        else:
            images = [(r & span_mask).to_bytes(span_bytes, "little")
                      if r else None for r in rchunk]
            blocks = []
            for cb in range(n_cblocks):
                off = cb << 3
                blk = bytearray(512)
                for j, img in enumerate(images):
                    if img is not None:
                        blk[8 * j:8 * j + 8] = img[off:off + 8]
                blocks.append(bytes(blk))
        for cb, raw in enumerate(blocks):
            m = int.from_bytes(raw, "little")
            if not m:
                continue
            for delta, mk in _DELTA_MASKS:
                t = ((m >> delta) ^ m) & mk
                m ^= t ^ (t << delta)
            image = m.to_bytes(512, "little")
            cbase = cb << 6
            hi = min(64, width - cbase)
            if single_rblock:
                for i in range(hi):
                    chunk = image[8 * i:8 * i + 8]
                    if chunk != _Z8:
                        cols[cbase + i] = int.from_bytes(chunk, "little")
            else:
                rshift = rbase >> 3
                for i in range(hi):
                    chunk = image[8 * i:8 * i + 8]
                    if chunk != _Z8:
                        buf = acc[cbase + i]
                        if buf is None:
                            buf = acc[cbase + i] = bytearray(col_bytes)
                        buf[rshift:rshift + 8] = chunk
    if not single_rblock:
        for c, buf in enumerate(acc):
            if buf is not None:
                cols[c] = int.from_bytes(buf, "little")
    return cols


class SimRun:
    """Result of one levelized run: per-net packed pattern words, native
    or Python.

    A native run keeps the kernel's :class:`~repro.hdl.sim.ckernel.LimbBuffer`
    and answers bus words and toggle counts from it; ``values`` — the
    list of per-net Python ints a Python-kernel run produces directly —
    is materialized on first read, after which the buffer is dropped
    (one representation alive at a time).
    """

    def __init__(self, n_patterns, values=None, limbs=None):
        self.n_patterns = n_patterns
        self._values = values
        self._limbs = limbs

    @property
    def values(self):
        """Per net: the packed pattern word (bit ``t`` = pattern ``t``)."""
        if self._values is None:
            self._values = self._limbs.words()
            self._limbs = None
        return self._values

    @property
    def packed(self):
        """The pattern words in their cheapest form — the limb buffer
        of a native run, else :attr:`values` — as
        :meth:`~repro.hdl.sim.event.EventSimulator.replay` takes them."""
        return self._limbs if self._limbs is not None else self._values

    def net_value(self, net, t):
        return (self.values[net] >> t) & 1

    def bus_word(self, bus, t):
        """Assemble the integer word on ``bus`` (LSB-first) at pattern t."""
        word = 0
        for i, net in enumerate(bus):
            word |= ((self.values[net] >> t) & 1) << i
        return word

    def bus_words(self, bus):
        """All patterns' words on ``bus`` (LSB-first), one per pattern.

        The bulk counterpart of :meth:`bus_word`: a block bit-matrix
        transpose of the packed per-net pattern words (native on a
        native run, :func:`bit_transpose` otherwise) instead of one
        bit-poke per wire per pattern, which is what verification loops
        over whole runs want.  ``bus_words(bus)[t] == bus_word(bus, t)``
        always.
        """
        if self._limbs is not None:
            return self._limbs.bus_words(bus, self.n_patterns)
        return bit_transpose([self._values[net] for net in bus],
                             self.n_patterns)

    def toggles_per_net(self):
        """Zero-delay toggle count of every net across consecutive
        patterns: a popcount of ``v ^ (v >> 1)`` below the last pattern."""
        n = self.n_patterns
        if self._limbs is not None:
            return self._limbs.toggles(0, n - 1)
        m = mask(n - 1)
        return [popcount((v ^ (v >> 1)) & m) for v in self._values]


class LevelizedSimulator:
    """Topologically ordered bit-parallel evaluator for one module.

    ``compiled`` settles in place of the module's own compiled form: a
    :meth:`~repro.hdl.sim.compile.CompiledModule.with_gate` mutant,
    which keeps the module's nets and buses, runs through the same
    kernels and result types as the module itself.
    """

    def __init__(self, module, compiled=None):
        self.module = module
        self._kernel = compiled if compiled is not None \
            else compiled_module(module)
        self._lib = ckernel.load_kernel()

    @property
    def kernel(self):
        """``"c"`` when runs settle in the native library, else
        ``"python"`` (the generated-Python kernel)."""
        return "c" if self._lib is not None else "python"

    def run(self, stimulus, n_patterns):
        """Simulate ``n_patterns`` patterns.

        ``stimulus`` maps input bus names to lists of integer words, one
        per pattern (missing patterns default to 0; missing buses raise).
        On the native kernel the run's words stay in a
        :class:`~repro.hdl.sim.ckernel.LimbBuffer`; on the Python kernel
        they are per-net Python ints.
        """
        if n_patterns < 1:
            raise SimulationError("need at least one pattern")
        module = self.module
        for name in module.inputs:
            if name not in stimulus:
                raise SimulationError(f"no stimulus for input bus {name!r}")
        if self._lib is not None:
            buf = ckernel.LimbBuffer(self._lib, module.n_nets, n_patterns)
            for name, bus in module.inputs.items():
                buf.pack(bus, stimulus[name][:n_patterns])
            buf.settle(self._kernel.node_table)
            return SimRun(n_patterns, limbs=buf)
        m = mask(n_patterns)
        values = [0] * module.n_nets
        for name, bus in module.inputs.items():
            packed = bit_transpose(stimulus[name][:n_patterns], len(bus))
            for i, net in enumerate(bus):
                values[net] = packed[i]
        for net, cval in module.constants.items():
            values[net] = m if cval else 0
        self._kernel.run_levelized(values, m)
        return SimRun(n_patterns, values=values)
