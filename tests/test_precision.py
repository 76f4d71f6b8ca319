import numpy as np
import pytest

from decohd.precision import PRESETS, quantize


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
        got = quantize(x, "fp16").astype(np.float16)
        np.testing.assert_array_equal(got.view(np.uint16), expected.view(np.uint16))

    def test_bf16_equals_rne_truncation(self, rng):
        x = float32_patterns(rng)
        got = quantize(x, "bf16").astype(np.float32)
        np.testing.assert_array_equal(got.view(np.uint32), bf16_oracle(x).view(np.uint32))

    def test_patterns_cover_subnormals_and_overflow(self, rng):
        x = float32_patterns(rng)
        assert ((x != 0) & (np.abs(x) < np.finfo(np.float32).tiny)).sum() > 100
        assert np.isposinf(quantize(np.float32(3.4e38), "bf16"))
        assert np.isneginf(quantize(-np.float32(65520.0), "fp16"))

    @pytest.mark.parametrize("name", ["fp16", "bf16"])
    def test_infinities_pass_through(self, name):
        np.testing.assert_array_equal(quantize(np.array([np.inf, -np.inf]), name), [np.inf, -np.inf])

    def test_fp32_is_identity_on_float32(self, rng):
        x = float32_patterns(rng, 10_000)
        np.testing.assert_array_equal(quantize(x, "fp32").astype(np.float32).view(np.uint32), x.view(np.uint32))

    def test_finite_only_saturates(self):
        fmt = PRESETS["fp8_e4m3fn"]
        assert fmt.max_finite == 448.0
        np.testing.assert_array_equal(quantize(np.array([1e6, -np.inf]), fmt), [448.0, -448.0])
