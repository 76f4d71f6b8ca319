import tracemalloc

import numpy as np
import pytest

from decohd import ops
from decohd.model import ChannelBank, path_basis
from decohd.ops import RandomMatrixSpec, derive_seed, generate_matrix, rng_from_seed
from tests.conftest import GAUSSIAN_DTYPES, assert_same_bits


def bind(*vectors):
    """Binding as the model performs it: the path basis of one
    single-channel layer per vector."""
    return path_basis(ChannelBank([np.asarray(v)[None] for v in vectors]))[0]


def bundle_weighted(vectors, weights):
    """Bundling as the model performs it: the prototype that a one-row
    head composes from a single layer holding *vectors*."""
    return (np.asarray(weights)[None] @ path_basis(ChannelBank([np.stack(vectors)])))[0]


class TestBind:
    def test_all_ones_identity(self):
        x = np.array([1.0, 2.0, -1.0, 0.0])
        np.testing.assert_array_equal(bind(x, np.ones(4)), x)

    def test_zero_annihilates(self):
        x = np.array([1.0, 2.0, -1.0, 0.0])
        np.testing.assert_array_equal(bind(x, np.zeros(4)), np.zeros(4))

    def test_hand_elementwise_product(self):
        out = bind(np.array([1.0, 2.0, -1.0, 0.0]), np.array([1.0, -1.0, 2.0, 1.0]))
        np.testing.assert_array_equal(out, [1.0, -2.0, -2.0, 0.0])

    def test_commutative_associative_on_integers(self, rng):
        for _ in range(20):
            x, y, z = (rng.integers(-5, 6, 16).astype(np.float64) for _ in range(3))
            np.testing.assert_array_equal(bind(x, y), bind(y, x))
            np.testing.assert_array_equal(bind(bind(x, y), z), bind(x, bind(y, z)))


class TestBundleWeighted:
    def test_single_element_identity(self):
        v = np.array([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(bundle_weighted([v], [1.0]), v)

    def test_convex_symmetry(self):
        v = np.array([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(bundle_weighted([v, v], [0.5, 0.5]), v)

    def test_hand_accumulation(self):
        out = bundle_weighted([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [2.0, 3.0])
        np.testing.assert_array_equal(out, [2.0, 3.0])

    def test_linear_in_weights_on_integers(self, rng):
        for _ in range(20):
            vs = [rng.integers(-5, 6, 8).astype(np.float64) for _ in range(3)]
            w = rng.integers(-4, 5, 3).astype(np.float64)
            alpha = float(rng.integers(1, 5))
            np.testing.assert_array_equal(
                bundle_weighted(vs, alpha * w), alpha * bundle_weighted(vs, w)
            )


class TestDot:
    def test_bind_square_identity_on_integers(self, rng):
        # <bind(h, b), h> == <b, h*h>: the identity behind scoring
        # against the path basis.
        for _ in range(20):
            h = rng.integers(-4, 5, 12).astype(np.float64)
            b = rng.integers(-4, 5, 12).astype(np.float64)
            assert np.dot(h * b, h) == np.dot(b, h * h)


class TestGenerateMatrix:
    def test_same_spec_bit_identical(self):
        spec = RandomMatrixSpec(rows=13, cols=17, seed=99)
        a = generate_matrix(spec)
        b = generate_matrix(spec)
        assert a.tobytes() == b.tobytes()

    def test_different_seed_differs(self):
        a = generate_matrix(RandomMatrixSpec(4, 4, seed=1))
        b = generate_matrix(RandomMatrixSpec(4, 4, seed=2))
        assert a.tobytes() != b.tobytes()

    def test_gaussian_moments(self):
        spec = RandomMatrixSpec(rows=100, cols=1000, seed=7)
        m = generate_matrix(spec, dtype=np.float64)
        # The unit-variance bounds, at the scale of entries of variance 1/rows.
        assert abs(m.mean()) < 0.02 / np.sqrt(spec.rows)
        assert abs(m.var() - 1.0 / spec.rows) < 0.05 / spec.rows

    @pytest.mark.parametrize("dtype", GAUSSIAN_DTYPES)
    @pytest.mark.parametrize("rows", [1, 16, 17, 256, 257, 600])
    def test_row_blocks_equal_one_full_draw(self, rows, dtype):
        # Oracle: the whole matrix drawn in one call, scaled, then cast.
        spec = RandomMatrixSpec(rows=rows, cols=9, seed=31)
        full = rng_from_seed(spec.seed).standard_normal((rows, 9)) * (1.0 / np.sqrt(rows))
        assert generate_matrix(spec, dtype=dtype).tobytes() == full.astype(dtype).tobytes()

    @pytest.mark.parametrize("dtype", GAUSSIAN_DTYPES)
    @pytest.mark.parametrize("rows", [1, 7, 16, 33, 65, 200])
    def test_row_blocks_stack_to_the_whole_matrix(self, rows, dtype):
        spec = RandomMatrixSpec(rows=rows, cols=9, seed=31)
        strips = [b.copy() for b in ops.row_blocks(spec)]
        strip_rows = ops.STRIP_ROWS
        assert [len(b) for b in strips] == [min(strip_rows, rows - j) for j in range(0, rows, strip_rows)]
        assert {b.dtype for b in strips} == {np.dtype(np.float64)}
        # Casting each strip equals the matrix drawn whole in that dtype.
        assert_same_bits(np.concatenate([b.astype(dtype) for b in strips]), generate_matrix(spec, dtype=dtype))

    def test_row_blocks_reuse_one_block_array(self):
        spec = RandomMatrixSpec(rows=40, cols=9, seed=31)
        first, *rest = ops.row_blocks(spec)
        assert len(rest) == 2 and all(np.shares_memory(first, b) for b in rest)

    @pytest.mark.parametrize("spec", [pytest.param(RandomMatrixSpec(rows=617, cols=500, seed=3), id="gaussian")])
    def test_holds_one_block_buffer_beyond_its_output(self, spec):
        generate_matrix(RandomMatrixSpec(2, 2, seed=3))  # numpy's lazy imports come first
        buffer = ops.STRIP_ROWS * spec.cols * 8
        tracemalloc.start()
        try:
            out = generate_matrix(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A fresh block per iteration would briefly hold two.
        assert peak - out.nbytes <= buffer + 16384

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            RandomMatrixSpec(rows=0, cols=3, seed=0)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(42, "encoder", 3) == derive_seed(42, "encoder", 3)

    def test_token_sensitivity(self):
        seeds = {
            derive_seed(42),
            derive_seed(42, "encoder"),
            derive_seed(42, "encoder", 0),
            derive_seed(42, "encoder", 1),
            derive_seed(43, "encoder", 0),
        }
        assert len(seeds) == 5

    def test_streams_independent_of_draw_order(self):
        a = rng_from_seed(derive_seed(5, "x")).standard_normal(4)
        rng_from_seed(derive_seed(5, "y")).standard_normal(100)
        b = rng_from_seed(derive_seed(5, "x")).standard_normal(4)
        np.testing.assert_array_equal(a, b)
