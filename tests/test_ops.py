import tracemalloc

import numpy as np
import pytest

from decohd import ops
from decohd.model import ChannelBank, path_basis
from decohd.ops import HadamardProjector, RandomMatrixSpec, derive_seed, generate_matrix, rng_from_seed
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


def sylvester(n: int) -> np.ndarray:
    """The n x n Walsh-Hadamard matrix, by Sylvester's doubling."""
    h = np.ones((1, 1))
    while len(h) < n:
        h = np.block([[h, h], [h, -h]])
    return h


# (latent_dim, dim): a padded and an exact power of two, and a latent
# padded from 100 to 128 whose dim is not a whole number of blocks.
PROJECTOR_SHAPES = [(rows, cols) for rows in (17, 64, 100) for cols in (250, 256)]


class TestHadamardProjector:
    @pytest.mark.parametrize("rows, cols", PROJECTOR_SHAPES)
    def test_equals_its_blocks_composed_as_dense_matrices(self, rows, cols):
        # Oracle: each block H G Pi H B built as an n x n matrix from the
        # projector's own diagonals, the blocks stacked and truncated.
        proj = HadamardProjector(RandomMatrixSpec(rows, cols, seed=5))
        n = proj.gauss.shape[1]
        h = sylvester(n)
        blocks = []
        for signs, perm, gauss in zip(proj.signs, proj.perms, proj.gauss):
            b = np.zeros((n, rows))
            b[np.arange(rows), np.arange(rows)] = signs
            blocks.append(h @ np.diag(gauss) @ np.eye(n)[perm] @ h @ b)
        dense = np.vstack(blocks)[:cols].T
        lat = rng_from_seed(1).standard_normal((3, rows))
        np.testing.assert_allclose(proj.apply(lat), lat @ dense, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rows, cols", PROJECTOR_SHAPES)
    def test_apply_is_the_product_with_its_densified_matrix(self, rows, cols):
        proj = HadamardProjector(RandomMatrixSpec(rows, cols, seed=5))
        dense = proj.apply(np.eye(rows))
        assert dense.shape == (rows, cols)
        lat = rng_from_seed(2).standard_normal((4, rows))
        np.testing.assert_allclose(proj.apply(lat), lat @ dense, rtol=0, atol=1e-12)
        g = rng_from_seed(3).standard_normal((4, cols))
        np.testing.assert_allclose(proj.apply_T(g), g @ dense.T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rows, cols", PROJECTOR_SHAPES + [(1, 5), (4096, 10000)])
    def test_apply_t_is_the_adjoint(self, rows, cols):
        # <apply(x), y> == <x, apply_T(y)> in float64.
        proj = HadamardProjector(RandomMatrixSpec(rows, cols, seed=5))
        x = rng_from_seed(4).standard_normal((3, rows))
        y = rng_from_seed(5).standard_normal((3, cols))
        left, right = np.sum(proj.apply(x) * y), np.sum(x * proj.apply_T(y))
        assert abs(left - right) <= 1e-12 * abs(left)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_the_latents_dtype(self, dtype):
        proj = HadamardProjector(RandomMatrixSpec(20, 50, seed=5))
        assert proj.apply(np.ones((2, 20), dtype=dtype)).dtype == dtype
        assert proj.apply_T(np.ones((2, 50), dtype=dtype)).dtype == dtype

    def test_equal_spec_rebuilds_bit_for_bit(self):
        spec = RandomMatrixSpec(rows=100, cols=300, seed=99)
        a, b = HadamardProjector(spec), HadamardProjector(spec)
        for name in ("signs", "perms", "gauss"):
            assert_same_bits(getattr(a, name), getattr(b, name))
        lat = rng_from_seed(6).standard_normal((2, 100)).astype(np.float32)
        assert_same_bits(a.apply(lat), b.apply(lat))

    def test_different_seed_differs(self):
        a = HadamardProjector(RandomMatrixSpec(16, 32, seed=1)).apply(np.eye(16))
        b = HadamardProjector(RandomMatrixSpec(16, 32, seed=2)).apply(np.eye(16))
        assert a.tobytes() != b.tobytes()

    @pytest.mark.parametrize("rows, cols", [(400, 500), (100, 1000), (1000, 3000)])
    def test_entries_have_the_dense_mean_square(self, rows, cols):
        # The dense kind's entries have variance 1/rows (test_gaussian_moments).
        proj = HadamardProjector(RandomMatrixSpec(rows, cols, seed=7))
        dense = proj.apply(np.eye(rows))
        assert abs(np.mean(dense**2) - 1.0 / rows) < 0.01 / rows


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
