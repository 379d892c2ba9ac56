"""Float-free requantization arithmetic.

Every rescaling constant in the toolchain (the per-layer requantization
multiplier and the two scaled-integration factors) is frozen once as a
``FixedMult``: a signed 32-bit mantissa plus a right shift. Applying it to an
integer is then pure integer arithmetic, so results are bit-identical across
platforms and independent of the host FPU.

Rounding convention, used here and everywhere downstream: round half away
from zero. ``apply(m, 7)`` with value(m) == 0.5 gives 4, ``apply(m, -7)``
gives -4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

NORM_LOW = 1 << 30   # normalized mantissa magnitude range: [2^30, 2^31)
NORM_HIGH = 1 << 31
MAX_SHIFT = 62

# Largest |x| for which x * mantissa stays safely inside int64 even after the
# rounding-half offset is added: the one-multiply array path.
_VEC_LIMIT = 1 << 31
# Below this |x| the array path stays exact in int64 by splitting |x| into
# 31-bit halves; above it (or when a result leaves int64) it uses Python ints.
_SPLIT_LIMIT = 1 << 62
_LO_BITS = 31
_LO_MASK = (1 << _LO_BITS) - 1
_INT64_MAX = (1 << 63) - 1


class FixedPointError(ValueError):
    """Raised for unrepresentable constants or malformed (mantissa, shift)."""


@dataclass(frozen=True)
class FixedMult:
    """A real multiplier frozen as ``mantissa * 2**-shift``.

    Invariant: mantissa == 0, or 2^30 <= |mantissa| < 2^31 whenever the shift
    headroom allows (tiny constants near 2^-62 may be stored denormalized).
    """

    mantissa: int
    shift: int

    def __post_init__(self) -> None:
        if not isinstance(self.mantissa, int) or not isinstance(self.shift, int):
            raise FixedPointError("mantissa and shift must be Python ints")
        if not 0 <= self.shift <= MAX_SHIFT:
            raise FixedPointError(f"shift {self.shift} outside [0, {MAX_SHIFT}]")
        if abs(self.mantissa) >= NORM_HIGH:
            raise FixedPointError("mantissa does not fit in a signed 32-bit word")

    def value(self) -> Fraction:
        """Exact rational value of the constant."""
        return Fraction(self.mantissa, 1 << self.shift)

    def real(self) -> float:
        return self.mantissa / (1 << self.shift)


def from_real(r: float) -> FixedMult:
    """Freeze a real constant, |r| < 2^31, with relative error < 2^-30.

    The mantissa is maximized (normalized) so the stated accuracy holds for
    any |r| >= 2^-31; smaller magnitudes degrade gracefully down to a flat
    zero below ~2^-63.
    """
    r = float(r)
    if not math.isfinite(r):
        raise FixedPointError(f"constant must be finite, got {r!r}")
    if r == 0.0:
        return FixedMult(0, 0)
    if abs(r) >= float(NORM_HIGH):
        raise FixedPointError(f"constant {r!r} out of range (|r| < 2^31)")
    _, exp = math.frexp(r)          # |r| = m * 2^exp, 0.5 <= m < 1
    shift = 31 - exp
    if shift > MAX_SHIFT:
        shift = MAX_SHIFT           # denormal tail for very small constants
    if shift < 0:
        raise FixedPointError(f"constant {r!r} out of range after normalization")
    mantissa = round(r * (1 << shift))  # r * 2^shift is exact in binary64
    if abs(mantissa) >= NORM_HIGH:
        # Rounding crossed the power-of-two boundary; renormalize.
        if shift == 0:
            raise FixedPointError(f"constant {r!r} rounds out of range")
        mantissa //= 2
        shift -= 1
    return FixedMult(mantissa, shift)


def apply(m: FixedMult, x: int | np.ndarray) -> int | np.ndarray:
    """Exact round-half-away-from-zero of ``x * mantissa / 2**shift``.

    Accepts a Python int (arbitrary width) or an integer ndarray. An array
    with every |x| < 2^31 gives p = x * mantissa exactly in int64 and returns
    ``(p + 2^(shift-1) - (p < 0)) >> shift`` (p itself at shift 0). Larger
    operands stay in int64 up to 2^62 (split multiply); big ints are used only
    beyond that and for results outside int64.
    """
    if isinstance(x, np.ndarray):
        return _apply_array(m, x)
    p = int(x) * m.mantissa
    half = (1 << m.shift) >> 1
    if p >= 0:
        return (p + half) >> m.shift
    return -((-p + half) >> m.shift)


def _apply_array(m: FixedMult, x: np.ndarray) -> np.ndarray:
    xi = np.asarray(x)
    if xi.dtype != np.int64:
        xi = xi.astype(np.int64)
    if xi.size == 0 or max(-int(xi.min()), int(xi.max())) < _VEC_LIMIT:
        p = xi * np.int64(m.mantissa)               # |p| < 2^62, exact
        if m.shift:
            p -= p < 0          # before the offset, so p = -half still reads as negative
            p += np.int64((1 << m.shift) >> 1)
            p >>= np.int64(m.shift)
        return p
    return _apply_wide(m, xi)


def _apply_wide(m: FixedMult, xi: np.ndarray) -> np.ndarray:
    """Exact apply for operands of 2^31 and more.

    |x| < 2^62 is split as hi * 2^31 + lo; with |mantissa| < 2^31 both partial
    products and the carried sum stay below 2^63, so
    (|x| * |mantissa| + half) >> shift is formed exactly in int64. Operands
    of 2^62 and more, and results outside int64, fall back to Python ints;
    the result is an object array only if some value really exceeds int64.
    """
    shift = m.shift
    split = (xi > -_SPLIT_LIMIT) & (xi < _SPLIT_LIMIT)
    mag = np.where(split, np.abs(xi), 0)
    mant = np.int64(abs(m.mantissa))
    hi = (mag >> _LO_BITS) * mant                       # < 2^62
    lo = (mag & _LO_MASK) * mant + np.int64((1 << shift) >> 1)   # < 2^63
    carry = hi + (lo >> _LO_BITS)       # |x|*|m| + half == carry*2^31 + lo_low
    if shift >= _LO_BITS:
        res = carry >> np.int64(shift - _LO_BITS)
    else:
        up = _LO_BITS - shift
        split &= carry < (1 << (63 - up))               # result fits int64
        carry = np.where(split, carry, 0)
        res = (carry << np.int64(up)) + ((lo & _LO_MASK) >> np.int64(shift))
    res *= np.sign(xi) * (1 if m.mantissa >= 0 else -1)
    if split.all():
        return res
    rest = [apply(m, int(v)) for v in xi[~split].tolist()]
    if any(abs(v) > _INT64_MAX for v in rest):
        res = res.astype(object)
    res[~split] = rest
    return res


def saturate_array(x: np.ndarray, width: int) -> tuple[np.ndarray, int]:
    """Clamp x to the signed `width`-bit range: (clamped array, clamp
    events), x itself if every value is in range."""
    lo = -(1 << (width - 1))
    hi = (1 << (width - 1)) - 1
    if x.size == 0 or (lo <= int(x.min()) and int(x.max()) <= hi):
        return x, 0
    out = np.clip(x, lo, hi)
    events = int(np.count_nonzero(x != out))
    return out, events
