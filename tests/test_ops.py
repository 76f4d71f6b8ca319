import tracemalloc

import numpy as np
import pytest

from decohd import ops
from decohd.inference import materialize_prototypes
from decohd.model import ChannelBank, path_basis
from decohd.ops import RandomMatrixSpec, derive_seed, generate_matrix, rng_from_seed


def bind(*vectors):
    """Binding as the model performs it: the path basis of one
    single-channel layer per vector."""
    return path_basis(ChannelBank([np.asarray(v)[None] for v in vectors]))[0]


def bundle_weighted(vectors, weights):
    """Bundling as the model performs it: the prototype that a one-row
    head composes from a single layer holding *vectors*."""
    return materialize_prototypes(ChannelBank([np.stack(vectors)]), np.asarray(weights)[None])[0]


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
        # <bind(h, b), h> == <b, h*h>: the identity behind prototype
        # materialization.
        for _ in range(20):
            h = rng.integers(-4, 5, 12).astype(np.float64)
            b = rng.integers(-4, 5, 12).astype(np.float64)
            assert np.dot(h * b, h) == np.dot(b, h * h)


class TestGenerateMatrix:
    def test_same_spec_bit_identical(self):
        spec = RandomMatrixSpec(rows=13, cols=17, kind="gaussian", seed=99, scale=0.5)
        a = generate_matrix(spec)
        b = generate_matrix(spec)
        assert a.tobytes() == b.tobytes()

    def test_different_seed_differs(self):
        a = generate_matrix(RandomMatrixSpec(4, 4, "gaussian", seed=1))
        b = generate_matrix(RandomMatrixSpec(4, 4, "gaussian", seed=2))
        assert a.tobytes() != b.tobytes()

    def test_gaussian_moments(self):
        spec = RandomMatrixSpec(rows=100, cols=1000, kind="gaussian", seed=7, scale=1.0)
        m = generate_matrix(spec, dtype=np.float64)
        assert abs(m.mean()) < 0.02
        assert abs(m.var() - 1.0) < 0.05

    def test_ternary_support(self):
        spec = RandomMatrixSpec(rows=100, cols=1000, kind="ternary", seed=7, scale=0.25)
        m = generate_matrix(spec, dtype=np.float64)
        assert set(np.unique(m)) <= {-0.25, 0.0, 0.25}
        # equal 1/3 mass per symbol within sampling noise
        frac_zero = (m == 0.0).mean()
        assert abs(frac_zero - 1.0 / 3.0) < 0.01

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["gaussian", "ternary"])
    @pytest.mark.parametrize("rows", [1, 16, 17, 256, 257, 600])
    def test_row_blocks_equal_one_full_draw(self, rows, kind, dtype):
        # Oracle: the whole matrix drawn in one call, scaled, then cast.
        spec = RandomMatrixSpec(rows=rows, cols=9, kind=kind, seed=31, scale=0.3)
        rng = rng_from_seed(spec.seed)
        if kind == "gaussian":
            full = rng.standard_normal((rows, 9))
        else:
            u = rng.random((rows, 9))
            p0 = spec.ternary_zero_prob
            full = np.where(u < p0, 0.0, np.where(u < p0 + (1.0 - p0) / 2.0, -1.0, 1.0))
        expected = (full * spec.scale).astype(dtype)
        assert generate_matrix(spec, dtype=dtype).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["gaussian", "ternary"])
    def test_holds_one_block_buffer_beyond_its_output(self, kind):
        spec = RandomMatrixSpec(rows=617, cols=500, kind=kind, seed=3)
        generate_matrix(RandomMatrixSpec(2, 2, kind, seed=3))  # numpy's lazy imports come first
        buffer = ops._GENERATE_BLOCK_ROWS * spec.cols * 8
        # Ternary also holds two boolean masks of one block.
        masks = 0 if kind == "gaussian" else 2 * ops._GENERATE_BLOCK_ROWS * spec.cols
        tracemalloc.start()
        try:
            out = generate_matrix(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A fresh block per iteration would briefly hold two.
        assert peak - out.nbytes <= buffer + masks + 16384

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            RandomMatrixSpec(rows=0, cols=3, kind="gaussian", seed=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            RandomMatrixSpec(rows=2, cols=2, kind="binary", seed=0)


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
