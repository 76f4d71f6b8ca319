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
        if 1 + self.exponent_bits + self.mantissa_bits > 32:
            raise ValueError("format wider than 32 bits")

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


def quantize(values, fmt: PrecisionFormat | str):
    """Round onto the format's grid (nearest, ties to even).

    Scalars return a float; arrays return a float64 array whose values
    are all exactly representable in float32.  NaN passes through.
    """
    fmt = get_format(fmt)
    x = np.asarray(values, dtype=np.float64)
    scalar = x.ndim == 0
    x = np.atleast_1d(x).copy()
    out = x.copy()

    finite = np.isfinite(x)
    xf = x[finite]
    if xf.size:
        with np.errstate(invalid="ignore", over="ignore"):
            _, exp = np.frexp(np.abs(xf))
            e = np.maximum(exp - 1, fmt.min_normal_exponent)
            step_exp = e - fmt.mantissa_bits
            # x / 2^step_exp is exact (power-of-two scaling); np.round
            # implements ties-to-even.
            q = np.ldexp(np.round(np.ldexp(xf, -step_exp)), step_exp)
        if fmt.finite_only:
            q = np.clip(q, -fmt.max_finite, fmt.max_finite)
        else:
            # IEEE overflow rule: values at or beyond the midpoint
            # between max finite and the next power of two round to inf.
            threshold = 2.0**fmt.max_exponent * (2.0 - 2.0 ** (-fmt.mantissa_bits - 1))
            over = np.abs(xf) >= threshold
            q = np.clip(q, -fmt.max_finite, fmt.max_finite)
            q[over] = np.sign(xf[over]) * np.inf
        out[finite] = q

    if fmt.finite_only:
        out[np.isposinf(x)] = fmt.max_finite
        out[np.isneginf(x)] = -fmt.max_finite
    if scalar:
        return float(out[0])
    return out


def quantize_array(a: np.ndarray, fmt: PrecisionFormat | str) -> np.ndarray:
    """Elementwise quantization preserving the input dtype."""
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
