"""Transaction vocabulary of the simulation service.

A *transaction* is one independent operation a client wants from the
multi-format unit: a 64-bit integer multiply, a binary64 multiply, a
dual-binary32 issue, a quad-binary16 issue, or a binary64 -> binary32
reduction probe.  Each transaction occupies exactly **one pattern slot**
of a bit-parallel simulation word (:mod:`repro.hdl.sim.levelized` packs
up to :data:`WORD_PATTERNS` patterns per run), which is what the
batching server coalesces.

Semantics contract (what "bit-identical" means for the service):

* lanes whose FP operands are all **normalized** are computed by the
  gate-level unit, which mirrors ``MFMult(mode="paper")`` bit for bit
  (the silicon envelope — exponents wrap, no special values);
* lanes with a zero / subnormal / infinity / NaN operand are outside
  the silicon envelope and are computed by the IEEE formatter wrapper,
  ``MFMult(mode="full", rounding=INJECTION)`` — exactly the split
  :class:`~repro.core.mfmult.MFMult` itself performs internally;
* reduction transactions follow Algorithm 1 (:func:`reduce_binary64`)
  for *any* input encoding — the Fig. 6 logic is total.

:func:`reference_result` is that contract executed one transaction at a
time through the functional model; the service must (and the property
tests check it does) return the same bits for any batching schedule.
"""

import enum
import functools
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.bits.ieee754 import BINARY16, BINARY32, BINARY64
from repro.bits.utils import mask
from repro.core.formats import MFFormat, OperandBundle, RoundingMode
from repro.core.mfmult import MFMult
from repro.core.reduction import reduce_binary64
from repro.errors import FormatError

#: Pattern capacity of one base simulation word (one 64-bit limb of a
#: packed net value).  Lanes may batch wider **superwords** of
#: ``W * WORD_PATTERNS`` patterns (``W`` limbs per net); every
#: configured width must be a multiple of this base.
WORD_PATTERNS = 64


def validate_word_patterns(n):
    """Validate a superword capacity: a positive multiple of 64.

    Returns ``n`` unchanged.  A width of ``n`` patterns packs
    ``n // WORD_PATTERNS`` 64-bit limbs per net; fractional limbs would
    desynchronize the fp16x4 sub-lane demux, so they are rejected.
    """
    if not isinstance(n, int) or isinstance(n, bool) \
            or n < WORD_PATTERNS or n % WORD_PATTERNS:
        raise FormatError(
            f"word_patterns must be a positive multiple of "
            f"{WORD_PATTERNS}, got {n!r}")
    return n


class TxKind(enum.Enum):
    """The service's lanes: one queue (and netlist path) per kind."""

    INT64 = "int64"
    FP64 = "fp64"
    FP32X2 = "fp32x2"
    FP16X4 = "fp16x4"
    REDUCE64 = "reduce64"


#: Multiply kinds -> the unit's operating format.
MFFORMAT_OF = {
    TxKind.INT64: MFFormat.INT64,
    TxKind.FP64: MFFormat.FP64,
    TxKind.FP32X2: MFFormat.FP32X2,
    TxKind.FP16X4: MFFormat.FP16X4,
}

#: FP multiply kinds -> (IEEE format, lanes per 64-bit word).
LANE_GEOMETRY = {
    TxKind.FP64: (BINARY64, 1),
    TxKind.FP32X2: (BINARY32, 2),
    TxKind.FP16X4: (BINARY16, 4),
}

#: The encoding of 1.0 per IEEE format — the neutral operand substituted
#: into special lanes so the netlist only ever sees normalized values.
ONE_ENCODING = {
    BINARY64: BINARY64.bias << BINARY64.trailing_significand_bits,
    BINARY32: BINARY32.bias << BINARY32.trailing_significand_bits,
    BINARY16: BINARY16.bias << BINARY16.trailing_significand_bits,
}


@dataclass(frozen=True)
class Transaction:
    """One independent operation, packed as the unit's 64-bit words."""

    kind: TxKind
    x: int
    y: int = 0
    #: Optional trace context of the submitting span (``{"trace", "span"}``
    #: from :func:`repro.obs.current_context`) — lets a client on another
    #: thread or process stitch its span to the server's flush span.
    #: Ignored by equality/hashing: the same operation is the same
    #: transaction no matter who asked for it.
    trace_ctx: Optional[dict] = field(default=None, compare=False,
                                      repr=False)

    def __post_init__(self):
        for name, v in (("x", self.x), ("y", self.y)):
            if v < 0 or v > mask(64):
                raise FormatError(
                    f"transaction operand {name}={v:#x} is not a 64-bit word")

    # -- constructors ---------------------------------------------------

    @classmethod
    def int64(cls, x, y):
        return cls(TxKind.INT64, x, y)

    @classmethod
    def fp64(cls, x_encoding, y_encoding):
        return cls(TxKind.FP64, x_encoding, y_encoding)

    @classmethod
    def fp32_pair(cls, x0, y0, x1, y1):
        b = OperandBundle.fp32_pair(x0, y0, x1, y1)
        return cls(TxKind.FP32X2, b.x, b.y)

    @classmethod
    def fp16_quad(cls, xs, ys):
        b = OperandBundle.fp16_quad(list(xs), list(ys))
        return cls(TxKind.FP16X4, b.x, b.y)

    @classmethod
    def reduce64(cls, encoding64):
        return cls(TxKind.REDUCE64, encoding64, 0)

    @property
    def lane(self):
        """The lane (queue) name this transaction is routed to."""
        return self.kind.value


@dataclass(frozen=True)
class TxResult:
    """Demultiplexed result of one transaction.

    ``ph``/``pl`` mirror :class:`~repro.core.formats.ResultBundle`'s
    output ports for multiply kinds.  For ``REDUCE64``, ``ph`` carries
    the binary32 encoding when ``reduced`` (else the original binary64)
    and ``pl`` is 0 — the Fig. 6 module's ``out`` port.
    """

    kind: TxKind
    ph: int
    pl: int = 0
    reduced: Optional[bool] = None

    @property
    def int128(self):
        if self.kind is not TxKind.INT64:
            raise FormatError(f"int128 undefined for {self.kind}")
        return (self.ph << 64) | self.pl

    @property
    def fp64_encoding(self):
        if self.kind is not TxKind.FP64:
            raise FormatError(f"fp64_encoding undefined for {self.kind}")
        return self.ph

    def fp32_encoding(self, lane):
        if self.kind is not TxKind.FP32X2:
            raise FormatError(f"fp32_encoding undefined for {self.kind}")
        return (self.ph >> (32 * lane)) & mask(32)

    def fp16_encoding(self, lane):
        if self.kind is not TxKind.FP16X4:
            raise FormatError(f"fp16_encoding undefined for {self.kind}")
        return (self.ph >> (16 * lane)) & mask(16)


def is_normalized(encoding, fmt):
    """True when ``encoding`` is a normalized value of IEEE ``fmt``."""
    e = (encoding >> fmt.trailing_significand_bits) & fmt.exponent_mask
    return 0 < e < fmt.exponent_mask


def lane_pairs(tx) -> Tuple[Tuple[int, int], ...]:
    """The per-lane operand encoding pairs of an FP multiply transaction."""
    fmt, lanes = LANE_GEOMETRY[tx.kind]
    width = 64 // lanes
    return tuple(((tx.x >> (width * k)) & mask(width),
                  (tx.y >> (width * k)) & mask(width))
                 for k in range(lanes))


def special_lanes(tx):
    """Indices of FP lanes whose operands leave the silicon envelope."""
    if tx.kind not in LANE_GEOMETRY:
        return ()
    fmt, _lanes = LANE_GEOMETRY[tx.kind]
    return tuple(k for k, (xe, ye) in enumerate(lane_pairs(tx))
                 if not (is_normalized(xe, fmt) and is_normalized(ye, fmt)))


@functools.lru_cache(maxsize=1)
def _paper_model():
    return MFMult(mode="paper", rounding=RoundingMode.INJECTION)


@functools.lru_cache(maxsize=1)
def _full_model():
    return MFMult(mode="full", rounding=RoundingMode.INJECTION)


def software_lane_result(kind, xe, ye):
    """One FP lane computed by the IEEE formatter wrapper (full mode).

    Used for lanes with special operands; the other lanes of the bundle
    are padded with 1.0 so the result is read back from lane 0.
    """
    full = _full_model()
    if kind is TxKind.FP64:
        return full.multiply(OperandBundle.fp64(xe, ye), MFFormat.FP64).ph
    if kind is TxKind.FP32X2:
        one = ONE_ENCODING[BINARY32]
        rb = full.multiply(OperandBundle.fp32_pair(xe, ye, one, one),
                           MFFormat.FP32X2)
        return rb.fp32_encoding(0)
    if kind is TxKind.FP16X4:
        one = ONE_ENCODING[BINARY16]
        rb = full.multiply(
            OperandBundle.fp16_quad([xe, one, one, one],
                                    [ye, one, one, one]),
            MFFormat.FP16X4)
        return rb.fp16_encoding(0)
    raise FormatError(f"no software lane path for {kind}")


def _paper_lane_result(kind, xe, ye):
    """One normalized FP lane through the paper-mode functional model."""
    paper = _paper_model()
    if kind is TxKind.FP64:
        return paper.multiply(OperandBundle.fp64(xe, ye), MFFormat.FP64).ph
    if kind is TxKind.FP32X2:
        one = ONE_ENCODING[BINARY32]
        rb = paper.multiply(OperandBundle.fp32_pair(xe, ye, one, one),
                            MFFormat.FP32X2)
        return rb.fp32_encoding(0)
    one = ONE_ENCODING[BINARY16]
    rb = paper.multiply(OperandBundle.fp16_quad([xe, one, one, one],
                                                [ye, one, one, one]),
                        MFFormat.FP16X4)
    return rb.fp16_encoding(0)


def reference_result(tx):
    """The direct, one-transaction-at-a-time result (no batching).

    This is the service's correctness oracle: paper-mode ``MFMult`` for
    normalized lanes, full-mode ``MFMult`` for special lanes,
    :func:`reduce_binary64` for reductions.
    """
    if tx.kind is TxKind.REDUCE64:
        decision = reduce_binary64(tx.x)
        return TxResult(kind=tx.kind,
                        ph=decision.encoding32 if decision.reduced else tx.x,
                        reduced=decision.reduced)
    if tx.kind is TxKind.INT64:
        rb = _paper_model().multiply(OperandBundle.int64(tx.x, tx.y),
                                     MFFormat.INT64)
        return TxResult(kind=tx.kind, ph=rb.ph, pl=rb.pl)

    fmt, lanes = LANE_GEOMETRY[tx.kind]
    width = 64 // lanes
    specials = set(special_lanes(tx))
    if not specials:
        rb = _paper_model().multiply(OperandBundle(tx.x, tx.y),
                                     MFFORMAT_OF[tx.kind])
        return TxResult(kind=tx.kind, ph=rb.ph)
    ph = 0
    for k, (xe, ye) in enumerate(lane_pairs(tx)):
        if k in specials:
            enc = software_lane_result(tx.kind, xe, ye)
        else:
            enc = _paper_lane_result(tx.kind, xe, ye)
        ph |= enc << (width * k)
    return TxResult(kind=tx.kind, ph=ph)
