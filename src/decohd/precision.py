"""Emulated reduced-precision execution.

A :class:`PrecisionFormat` describes a binary floating-point grid by its
exponent and mantissa widths, with the IEEE and OCP exponent bias, and
names the special values of its layout in ``specials``:

* ``"ieee"``: the top exponent code is inf and NaN (fp16, bf16,
  fp8_e5m2);
* ``"nan"``: only the all-ones code is NaN, and the rest of the top
  exponent holds values (fp8_e4m3fn);
* ``"none"``: every code is finite, as in OCP MX v1.0's FP4 and FP6.

:func:`quantize_array` projects a float32 array onto that grid with
round-to-nearest-even, including the format's subnormal range.  A
magnitude that rounds above ``max_finite``, infinity included, becomes
infinity in an IEEE layout and ``max_finite`` in the other two.
``fp4_e2m1`` has OCP MX v1.0's E2M1 layout, so it tops out at 6.0 and
saturates there.  A NaN input comes back a quiet NaN in every layout,
even fp4_e2m1's, which has no NaN code: the result is float32, and the
NaN stays visible.

Quantization models storage effects only: quantized values are returned
as float32 and later arithmetic stays in float32/float64.  No integer
quantization or calibration is involved.  A format must therefore lie on
float32's grid: at most 23 mantissa bits and normal exponents within
float32's.

Every deployed array and every encoding is float32, so one kernel
rounds on the ``uint32`` view of the stored bits, with no float64 copy;
it refuses any other dtype, as bit flips do.  It works in chunks
of 2**16 elements, rounded straight into their slice of the result, so
its temporaries stay under 1 MB (four chunks) whatever the input size,
and each pass over a chunk runs in cache.

:func:`quantize_model` maps :func:`quantize_array` over a deployed
scorer's ``stored()`` arrays and rebuilds it with ``replace``.  A
prototype table with a mask stores, and so quantizes, only its retained
columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# The special values a layout keeps, as the module docstring describes.
SPECIALS = ("ieee", "nan", "none")


@dataclass(frozen=True)
class PrecisionFormat:
    name: str
    exponent_bits: int
    mantissa_bits: int
    specials: str = "ieee"

    def __post_init__(self):
        if self.specials not in SPECIALS:
            raise ValueError(f"specials must be one of {SPECIALS}, got {self.specials!r}")
        if self.exponent_bits < 1 or self.mantissa_bits < 0:
            raise ValueError("need at least 1 exponent bit and a non-negative mantissa width")
        # Quantized values are float32 values: the grid must lie on float32's
        # (which also keeps the format within 32 bits).
        if self.mantissa_bits > 23 or not -126 <= self.min_normal_exponent <= self.max_exponent <= 127:
            raise ValueError("format must fit float32: at most 23 mantissa bits, "
                             "normal exponents within [-126, 127]")
        if self.specials == "nan" and self.mantissa_bits < 1:
            raise ValueError("a NaN-only format needs a mantissa bit for its largest finite value")

    @property
    def bias(self) -> int:
        return (1 << (self.exponent_bits - 1)) - 1

    @property
    def min_normal_exponent(self) -> int:
        return 1 - self.bias

    @property
    def max_exponent(self) -> int:
        # An IEEE layout spends the top exponent code on inf and NaN.
        reserved = 2 if self.specials == "ieee" else 1
        return ((1 << self.exponent_bits) - reserved) - self.bias

    @property
    def max_finite(self) -> float:
        # A NaN-only layout reserves just the all-ones mantissa at the
        # top exponent, so its largest finite mantissa is one step shorter.
        short = 1 if self.specials == "nan" else 0
        return float(2.0**self.max_exponent * (2.0 - 2.0 ** (short - self.mantissa_bits)))


PRESETS: dict[str, PrecisionFormat] = {
    fmt.name: fmt
    for fmt in (
        PrecisionFormat("fp32", 8, 23),
        PrecisionFormat("fp16", 5, 10),
        PrecisionFormat("bf16", 8, 7),
        PrecisionFormat("fp8_e4m3fn", 4, 3, specials="nan"),
        PrecisionFormat("fp8_e5m2", 5, 2),
        PrecisionFormat("fp4_e2m1", 2, 1, specials="none"),
    )
}


def get_format(name_or_format) -> PrecisionFormat:
    if isinstance(name_or_format, PrecisionFormat):
        return name_or_format
    try:
        return PRESETS[name_or_format]
    except KeyError:
        raise ValueError(f"unknown precision format {name_or_format!r}; presets: {sorted(PRESETS)}")


# Elements per pass, so temporaries stay a fixed size whatever the input.
# A chunk's handful of temporaries, 256 KB each, fit together in a 2 MB
# L2 and stay there between passes.
_CHUNK = 1 << 16

_SIGN = np.uint32(1 << 31)
_INF = np.uint32(0x7F800000)
# A NaN comes back quiet, as from a round trip through float64.
_QUIET = np.uint32(1 << 22)


def quantize_array(a: np.ndarray, fmt: PrecisionFormat | str) -> np.ndarray:
    """Float32 *a* rounded onto *fmt*'s grid (nearest, ties to even); a
    new C-contiguous float32 array of the same shape.  Any other dtype
    raises ``TypeError``.

    Works on the ``uint32`` view of the magnitude, with no float64 copy.
    Above the format's smallest normal, rounding to ``m`` mantissa bits
    is round-to-nearest-even on the stored bits: add half a step minus
    one plus the lowest kept bit, then clear the ``s = 23 - m`` low
    bits; a carry runs into the exponent.  Below it the grid is fixed at
    ``2**(emin - m)``, and adding then subtracting ``c = 2**(emin - m +
    23)`` rounds there in the float unit (the sum stays in ``c``'s
    binade, whose spacing is that step).  Then one rule for every
    layout: a magnitude above ``max_finite``, which after rounding means
    ``2**(emax + 1)`` or beyond or infinity, becomes infinity in an IEEE
    layout and ``max_finite`` in the other two.  The sign bit is put
    back last, so -0.0 stays -0.0, and a NaN passes through, quieted.
    """
    fmt = get_format(fmt)
    a = np.asarray(a)
    if a.dtype != np.float32:
        raise TypeError(f"quantization is defined on float32 storage, got {a.dtype}")
    shift = 23 - fmt.mantissa_bits
    keep = np.uint32(~((1 << shift) - 1) & 0xFFFFFFFF)
    # Ties go to the even neighbour, so the lowest kept bit joins the
    # addend.  With no mantissa bits every normal significand is 1, odd,
    # and ties go up; with nothing to drop nothing is added.
    odd = np.uint32(1 if 0 < fmt.mantissa_bits < 23 else 0)
    add = np.uint32((1 << shift >> 1) - odd)
    min_normal = np.uint32((fmt.min_normal_exponent + 127) << 23)
    c = np.float32(2.0 ** (fmt.min_normal_exponent - fmt.mantissa_bits + 23))
    ceiling = np.array(fmt.max_finite, dtype=np.float32).view(np.uint32)
    beyond = _INF if fmt.specials == "ieee" else ceiling

    src = np.ascontiguousarray(a).reshape(-1).view(np.uint32)
    out = np.empty_like(src)
    with np.errstate(invalid="ignore"):  # signalling NaNs in the float add
        for lo in range(0, src.size, _CHUNK):
            bits = src[lo:lo + _CHUNK]
            mag = bits & ~_SIGN
            r = np.bitwise_and(mag >> np.uint32(shift), odd, out=out[lo:lo + _CHUNK])
            r += mag
            r += add
            r &= keep
            sub = mag.view(np.float32) + c
            sub -= c
            np.copyto(r, sub.view(np.uint32), where=mag < min_normal)
            np.copyto(r, beyond, where=r > ceiling)
            r |= bits & _SIGN
            np.copyto(r, bits | _QUIET, where=mag > _INF)
    return out.view(np.float32).reshape(a.shape)


def quantize_model(scorer, fmt: PrecisionFormat | str):
    """Quantize every stored array of a deployed scorer; returns a new
    scorer of the same type.

    Compute downstream stays in 32/64-bit; only stored values move onto
    the reduced grid.  At fp32 every value keeps its bits except a
    signalling NaN, which comes back quiet (:func:`quantize_array`); the
    result is still a new scorer over copies, which composes its own
    prototypes.
    """
    fmt = get_format(fmt)
    return scorer.replace({key: quantize_array(a, fmt) for key, a in scorer.stored().items()})
