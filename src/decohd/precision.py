"""Emulated reduced-precision execution.

A :class:`PrecisionFormat` describes a binary floating-point grid by its
exponent and mantissa widths; :func:`quantize_array` projects a float32
array onto that grid with round-to-nearest-even, including the format's
subnormal range.  Overflow saturates to the largest finite value for
finite-only formats (the e4m3fn convention, which spends the top
exponent code on values and keeps only NaN) and rounds to infinity for
IEEE-style formats.

Quantization models storage effects only: quantized values are returned
as float32 and later arithmetic stays in float32/float64.  No integer
quantization or calibration is involved.  A format must therefore lie on
float32's grid: at most 23 mantissa bits and normal exponents within
float32's.

Every deployed array and every encoding is float32, so one kernel
rounds on the ``uint32`` view of the stored bits, with no float64 copy;
it refuses any other dtype, as bit flips do.  It works in chunks
of 2**16 elements, so its temporaries are a fixed few hundred kilobytes
whatever the input size, and each pass over a chunk runs in cache.

:func:`quantize_model` maps :func:`quantize_array` over a deployed
scorer's ``stored()`` arrays and rebuilds it with ``replace``.  A
sparsified table stores, and so quantizes, only its retained columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PrecisionFormat:
    name: str
    exponent_bits: int
    mantissa_bits: int
    bias: int
    finite_only: bool = False

    def __post_init__(self):
        if self.exponent_bits < 1 or self.mantissa_bits < 0:
            raise ValueError("need at least 1 exponent bit and a non-negative mantissa width")
        # Quantized values are float32 values: the grid must lie on float32's
        # (which also keeps the format within 32 bits).
        if self.mantissa_bits > 23 or not -126 <= self.min_normal_exponent <= self.max_exponent <= 127:
            raise ValueError("format must fit float32: at most 23 mantissa bits, "
                             "normal exponents within [-126, 127]")
        if self.finite_only and self.mantissa_bits < 1:
            raise ValueError("a finite-only format needs a mantissa bit for its largest finite value")

    @property
    def min_normal_exponent(self) -> int:
        return 1 - self.bias

    @property
    def max_exponent(self) -> int:
        reserved = 1 if self.finite_only else 2
        return ((1 << self.exponent_bits) - reserved) - self.bias

    @property
    def max_finite(self) -> float:
        # Finite-only formats reserve just the all-ones mantissa at the
        # top exponent (NaN), so their largest finite mantissa is one
        # step shorter.
        if self.finite_only:
            frac = 2.0 - 2.0 ** (1 - self.mantissa_bits)
        else:
            frac = 2.0 - 2.0 ** (-self.mantissa_bits)
        return float(2.0**self.max_exponent * frac)


PRESETS: dict[str, PrecisionFormat] = {
    fmt.name: fmt
    for fmt in (
        PrecisionFormat("fp32", 8, 23, 127),
        PrecisionFormat("fp16", 5, 10, 15),
        PrecisionFormat("bf16", 8, 7, 127),
        PrecisionFormat("fp8_e4m3fn", 4, 3, 7, finite_only=True),
        PrecisionFormat("fp8_e5m2", 5, 2, 15),
        PrecisionFormat("fp4_e2m1", 2, 1, 1),
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
    binade, whose spacing is that step).  Then finite-only formats
    saturate at ``max_finite`` (infinities too) and IEEE-style ones turn
    every magnitude that rounded to ``2**(emax + 1)`` or beyond into
    infinity.  The sign bit is put back last, so -0.0 stays -0.0, and a
    NaN passes through, quieted.
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
    if fmt.finite_only:
        ceiling = np.array(fmt.max_finite, dtype=np.float32).view(np.uint32)
    else:
        overflow = np.uint32((fmt.max_exponent + 1 + 127) << 23)

    src = np.ascontiguousarray(a).reshape(-1).view(np.uint32)
    out = np.empty_like(src)
    with np.errstate(invalid="ignore"):  # signalling NaNs in the float add
        for lo in range(0, src.size, _CHUNK):
            bits = src[lo:lo + _CHUNK]
            mag = bits & ~_SIGN
            r = (mag >> np.uint32(shift)) & odd
            r += mag
            r += add
            r &= keep
            small = mag < min_normal
            sub = mag.view(np.float32) + c
            sub -= c
            np.copyto(r, sub.view(np.uint32), where=small)
            if fmt.finite_only:
                np.minimum(r, ceiling, out=r)
            else:
                np.copyto(r, _INF, where=r >= overflow)
            r |= bits & _SIGN
            np.copyto(r, bits | _QUIET, where=mag > _INF)
            out[lo:lo + _CHUNK] = r
    return out.view(np.float32).reshape(a.shape)


def quantize_model(scorer, fmt: PrecisionFormat | str):
    """Quantize every stored array of a deployed scorer; returns a new
    scorer of the same type.

    Compute downstream stays in 32/64-bit; only stored values move onto
    the reduced grid.  The fp32 preset is a bit-exact identity.
    """
    fmt = get_format(fmt)
    return scorer.replace({key: quantize_array(a, fmt) for key, a in scorer.stored().items()})
