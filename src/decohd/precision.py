"""Emulated reduced-precision execution.

A :class:`PrecisionFormat` describes a binary floating-point grid by its
exponent and mantissa widths; :func:`quantize` projects values onto that
grid with round-to-nearest-even, including the format's subnormal range.
Overflow saturates to the largest finite value for finite-only formats
(the e4m3fn convention, which spends the top exponent code on values and
keeps only NaN) and rounds to infinity for IEEE-style formats.

Quantization models storage effects only: quantized values are returned
as ordinary 32-bit-representable reals and later arithmetic stays in
float32/float64.  No integer quantization or calibration is involved.
A format must therefore lie on float32's grid: at most 23 mantissa bits
and normal exponents within float32's.

One kernel does the rounding on the unsigned-integer view of the
stored bits, for float32 (``uint32``) and float64 (``uint64``) arrays
alike: :func:`quantize_array` rounds a float32 array on its own bits,
with no float64 copy, and :func:`quantize` converts any input to
float64 and rounds that directly.  It works in chunks of 2**16
elements, so its temporaries are a fixed few hundred kilobytes
whatever the input size, and each pass over a chunk runs in cache.

:func:`quantize_model` maps :func:`quantize_array` over a deployed
scorer's ``stored()`` arrays and rebuilds it with ``replace``.  A
sparsified table therefore has only its retained columns quantized;
those are the only columns it scores with, so its scores are the same
as quantizing the whole table.
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

    @property
    def smallest_subnormal(self) -> float:
        return float(2.0 ** (self.min_normal_exponent - self.mantissa_bits))


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


# Storage dtype -> (unsigned view, stored mantissa bits, exponent bias,
# bits a NaN gains on the way through).  A float32 NaN comes back quiet,
# as from a round trip through float64, so that quantize_array(a) equals
# quantize(a).astype(np.float32) bit for bit; a float64 NaN is kept as is.
_STORAGE = {
    np.dtype(np.float32): (np.uint32, 23, 127, 1 << 22),
    np.dtype(np.float64): (np.uint64, 52, 1023, 0),
}

# Elements per pass, so temporaries stay a fixed size whatever the input.
# At float32 a chunk's handful of temporaries, 256 KB each, fit together
# in a 2 MB L2 and stay there between passes.
_CHUNK = 1 << 16


def _round_to_format(x: np.ndarray, fmt: PrecisionFormat) -> np.ndarray:
    """*x* (float32 or float64) rounded onto *fmt*'s grid; same dtype
    and shape, C-contiguous.

    Works on the unsigned-integer view of the magnitude.  Above the
    format's smallest normal, rounding to ``m`` mantissa bits is
    round-to-nearest-even on the stored bits: add half a step minus one
    plus the lowest kept bit, then clear the ``s = stored - m`` low bits;
    a carry runs into the exponent.  Below it the grid is fixed at
    ``2**(emin - m)``, and adding then subtracting ``c = 2**(emin - m +
    stored)`` rounds there in the float unit (the sum stays in ``c``'s
    binade, whose spacing is that step).  Then finite-only formats
    saturate at ``max_finite`` (infinities too) and IEEE-style ones turn
    every magnitude that rounded to ``2**(emax + 1)`` or beyond into
    infinity.  The sign bit is put back last, so -0.0 stays -0.0.
    """
    uint, stored, bias, nan_bits = _STORAGE[x.dtype]
    width = 8 * x.dtype.itemsize
    sign = uint(1 << (width - 1))
    inf = uint(((1 << (width - 1 - stored)) - 1) << stored)
    shift = stored - fmt.mantissa_bits
    keep = uint(~((1 << shift) - 1) & ((1 << width) - 1))
    # Ties go to the even neighbour, so the lowest kept bit joins the
    # addend.  With no mantissa bits every normal significand is 1, odd,
    # and ties go up; with nothing to drop nothing is added.
    odd = uint(1 if 0 < fmt.mantissa_bits < stored else 0)
    add = uint((1 << shift >> 1) - odd)
    min_normal = uint((fmt.min_normal_exponent + bias) << stored)
    c = x.dtype.type(2.0 ** (fmt.min_normal_exponent - fmt.mantissa_bits + stored))
    if fmt.finite_only:
        ceiling = np.array(fmt.max_finite, dtype=x.dtype).view(uint)
    else:
        overflow = uint((fmt.max_exponent + 1 + bias) << stored)

    src = np.ascontiguousarray(x).reshape(-1).view(uint)
    out = np.empty_like(src)
    with np.errstate(invalid="ignore"):  # signalling NaNs in the float add
        for lo in range(0, src.size, _CHUNK):
            bits = src[lo:lo + _CHUNK]
            mag = bits & ~sign
            r = (mag >> uint(shift)) & odd
            r += mag
            r += add
            r &= keep
            small = mag < min_normal
            sub = mag.view(x.dtype) + c
            sub -= c
            np.copyto(r, sub.view(uint), where=small)
            if fmt.finite_only:
                np.minimum(r, ceiling, out=r)
            else:
                np.copyto(r, inf, where=r >= overflow)
            r |= bits & sign
            nan = mag > inf
            np.copyto(r, bits | uint(nan_bits), where=nan)
            out[lo:lo + _CHUNK] = r
    return out.view(x.dtype).reshape(x.shape)


def quantize(values, fmt: PrecisionFormat | str):
    """Round onto the format's grid (nearest, ties to even).

    Any real input is converted to float64 and rounded there, directly,
    by the bit-level kernel that :func:`quantize_array` also uses.
    Scalars return a float; arrays return a float64 array whose values
    are all exactly representable in float32.  NaN passes through.
    """
    fmt = get_format(fmt)
    x = np.asarray(values, dtype=np.float64)
    out = _round_to_format(x, fmt)
    return float(out) if out.ndim == 0 else out


def quantize_array(a: np.ndarray, fmt: PrecisionFormat | str) -> np.ndarray:
    """Elementwise quantization preserving the input dtype.

    A float32 array is rounded on its own 32-bit view, without a float64
    copy; other dtypes go through :func:`quantize`.  Either way the
    result is bit for bit the float64 rounding cast back to the input
    dtype.
    """
    fmt = get_format(fmt)
    if a.dtype == np.float32:
        return _round_to_format(a, fmt)
    return quantize(a, fmt).astype(a.dtype, copy=False)


def quantize_model(scorer, fmt: PrecisionFormat | str):
    """Quantize every stored array of a deployed scorer; returns a new
    scorer of the same type.

    Compute downstream stays in 32/64-bit; only stored values move onto
    the reduced grid.  The fp32 preset is a bit-exact identity on
    float32-stored models.
    """
    fmt = get_format(fmt)
    return scorer.replace({key: quantize_array(a, fmt) for key, a in scorer.stored().items()})
