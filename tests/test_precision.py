import tracemalloc

import numpy as np
import pytest

from decohd import precision
from decohd.precision import PRESETS, PrecisionFormat, quantize_array
from tests.conftest import assert_same_bits, quantize_oracle


def float32_patterns(rng, n=200_000):
    """Every finite float32 class: random bit patterns (normals,
    subnormals, values near overflow) plus signed zeros, the extremes,
    and exact ties at the bf16 rounding point."""
    bits = rng.integers(0, 2**32, n, dtype=np.uint64).astype(np.uint32)
    ties = (bits & np.uint32(0xFFFF0000)) | np.uint32(0x8000)
    special = np.array(
        [0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007FFFFF, 0x00800000,
         0x7F7FFFFF, 0xFF7FFFFF, 0x7F7F8000, 0x7F7F7FFF, 0x3F808000, 0x3F818000],
        dtype=np.uint32,
    )
    x = np.concatenate([bits, ties, special]).view(np.float32)
    return x[np.isfinite(x)]


def bf16_oracle(x: np.ndarray) -> np.ndarray:
    """Round-to-nearest-even truncation of float32 to its top 16 bits."""
    bits = x.astype(np.float32).view(np.uint32).astype(np.uint64)
    rounded = (bits + 0x7FFF + ((bits >> 16) & 1)) & 0xFFFF0000
    return rounded.astype(np.uint32).view(np.float32)


class TestOracles:
    def test_fp16_equals_numpy_cast(self, rng):
        x = float32_patterns(rng)
        with np.errstate(over="ignore"):
            expected = x.astype(np.float16)
        got = quantize_array(x, "fp16").astype(np.float16)
        np.testing.assert_array_equal(got.view(np.uint16), expected.view(np.uint16))

    def test_bf16_equals_rne_truncation(self, rng):
        x = float32_patterns(rng)
        got = quantize_array(x, "bf16")
        np.testing.assert_array_equal(got.view(np.uint32), bf16_oracle(x).view(np.uint32))

    def test_patterns_cover_subnormals_and_overflow(self, rng):
        x = float32_patterns(rng)
        assert ((x != 0) & (np.abs(x) < np.finfo(np.float32).tiny)).sum() > 100
        assert np.isposinf(quantize_array(np.float32(3.4e38), "bf16"))
        assert np.isneginf(quantize_array(-np.float32(65520.0), "fp16"))

    @pytest.mark.parametrize("name", ["fp16", "bf16"])
    def test_infinities_pass_through(self, name):
        x = np.array([np.inf, -np.inf], dtype=np.float32)
        np.testing.assert_array_equal(quantize_array(x, name), [np.inf, -np.inf])

    def test_fp32_is_identity_on_float32(self, rng):
        x = float32_patterns(rng, 10_000)
        np.testing.assert_array_equal(quantize_array(x, "fp32").view(np.uint32), x.view(np.uint32))

    def test_finite_only_saturates(self):
        fmt = PRESETS["fp8_e4m3fn"]
        assert fmt.max_finite == 448.0
        x = np.array([1e6, -np.inf], dtype=np.float32)
        np.testing.assert_array_equal(quantize_array(x, fmt), [448.0, -448.0])


# The six presets, plus a format without mantissa bits: its normal
# significands are all odd, so its ties go up, not to the kept bit.
KERNEL_FORMATS = [*PRESETS.values(), PrecisionFormat("e5m0", 5, 0, 15)]


def with_nans_and_infinities(x: np.ndarray) -> np.ndarray:
    """Float32 *x* plus both infinities and quiet and signalling NaNs of
    either sign with several payloads."""
    special = [0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC00000, 0x7F800001, 0xFF800001,
               0x7FA5A5A5, 0x7FFFFFFF, 0xFFBFFFFF, 0x7FC12345]
    return np.concatenate([x, np.array(special, dtype=np.uint32).view(np.float32)])


def ties(rng, fmt: PrecisionFormat, n=20_000) -> np.ndarray:
    """Exact midpoints between neighbours of *fmt*'s grid, in float32:
    random normals whose dropped bits are 100...0, and subnormal-range
    values (k + 1/2) * 2**(emin - m)."""
    drop = 23 - fmt.mantissa_bits
    bits = rng.integers(0, 2**63, n, dtype=np.uint64).astype(np.uint32)
    if drop:
        bits = (bits >> np.uint32(drop) << np.uint32(drop)) | np.uint32(1 << (drop - 1))
    k = rng.integers(-(2 ** (fmt.mantissa_bits + 1)), 2 ** (fmt.mantissa_bits + 1), n)
    grid = ((k + 0.5) * 2.0 ** (fmt.min_normal_exponent - fmt.mantissa_bits)).astype(np.float32)
    return np.concatenate([bits.view(np.float32), grid])


def oracle32(x: np.ndarray, fmt) -> np.ndarray:
    """:func:`quantize_oracle` of float32 *x*, cast back to float32."""
    with np.errstate(invalid="ignore"):  # float64 casts of signalling NaNs
        return quantize_oracle(x, fmt).astype(np.float32)


@pytest.mark.parametrize("fmt", KERNEL_FORMATS, ids=lambda f: f.name)
class TestKernelEqualsFloat64Oracle:
    """The bit-level float32 kernel equals the float64 frexp/ldexp
    rounding cast back to float32, bit for bit, NaN payloads included."""

    def test_float32_arrays(self, rng, fmt):
        x = with_nans_and_infinities(np.concatenate([float32_patterns(rng), ties(rng, fmt)]))
        assert_same_bits(quantize_array(x, fmt), oracle32(x, fmt))

    def test_shapes_and_scalars(self, rng, fmt):
        x = rng.standard_normal((3, 4, 5)).astype(np.float32)[:, ::2]  # not contiguous
        assert_same_bits(quantize_array(x, fmt), oracle32(x, fmt))
        scalar = np.array(0.3, dtype=np.float32)
        assert quantize_array(scalar, fmt).shape == ()
        assert_same_bits(quantize_array(scalar, fmt).reshape(1), oracle32(scalar.reshape(1), fmt))
        assert quantize_array(np.zeros((0, 7), dtype=np.float32), fmt).shape == (0, 7)


@pytest.mark.parametrize("dtype", [np.float64, np.float16, np.int32, np.uint32])
def test_only_float32_is_quantized(dtype):
    # Deployed arrays and encodings are float32; the kernel reads no other.
    with pytest.raises(TypeError, match="float32"):
        quantize_array(np.ones(4, dtype=dtype), "bf16")


@pytest.mark.parametrize("fmt", ["bf16", "fp8_e4m3fn", "fp4_e2m1"])
@pytest.mark.parametrize("size", [precision._CHUNK - 1, precision._CHUNK + 1, 3 * precision._CHUNK + 5])
def test_sizes_around_the_chunk_equal_the_oracle(rng, size, fmt):
    # Short last chunks, and a chunk of one element, round like the rest.
    x = rng.choice(float32_patterns(rng), size)
    assert_same_bits(quantize_array(x, fmt), oracle32(x, fmt))


@pytest.mark.parametrize("kwargs", [
    dict(exponent_bits=5, mantissa_bits=24, bias=15),  # finer than float32
    dict(exponent_bits=9, mantissa_bits=23, bias=255),  # 33 bits wide
    dict(exponent_bits=8, mantissa_bits=7, bias=120),  # max exponent beyond 127
    dict(exponent_bits=8, mantissa_bits=7, bias=130),  # min normal below 2**-126
    dict(exponent_bits=1, mantissa_bits=3, bias=0),  # no normal binade
    dict(exponent_bits=4, mantissa_bits=0, bias=7, finite_only=True),  # max_finite 0
])
def test_formats_off_the_float32_grid_are_rejected(kwargs):
    with pytest.raises(ValueError):
        PrecisionFormat("x", **kwargs)


def quantize_peak_overhead(rows: int) -> int:
    """Traced peak of one quantize_array call on a float32 (rows,
    10000) encoding-shaped array, less the output it returns."""
    h = np.random.default_rng(rows).standard_normal((rows, 10000)).astype(np.float32) / 100.0
    tracemalloc.start()
    try:
        out = quantize_array(h, "fp8_e4m3fn")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - out.nbytes


def test_quantize_temporaries_are_a_fixed_chunk_allowance():
    # A pass holds a handful of chunk-sized temporaries, whatever the
    # input size.
    allowance = 8 * precision._CHUNK * 4
    small, large = quantize_peak_overhead(520), quantize_peak_overhead(1040)
    assert large <= allowance
    assert large <= small + (1 << 16)
