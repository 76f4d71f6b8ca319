import tracemalloc

import numpy as np
import pytest

from decohd import encoding
from decohd.encoding import (
    EncoderConfig,
    RandomProjectionEncoder,
    Standardizer,
    fit_standardizer,
)
from decohd.ops import generate_matrix
from tests.conftest import assert_same_bits


class TestFitStandardizer:
    def test_hand_mean_std(self):
        s = fit_standardizer(np.array([[0.0], [2.0]]))
        np.testing.assert_array_equal(s.mean, [1.0])
        np.testing.assert_array_equal(s.std, [1.0])

    def test_constant_column_clamped(self):
        s = fit_standardizer(np.array([[5.0, 1.0], [5.0, 3.0], [5.0, 5.0]]))
        assert s.std[0] == 1.0
        assert s.std[1] > 1.0

    def test_idempotent_on_standardized_data(self, rng):
        x = rng.standard_normal((500, 4))
        s1 = fit_standardizer(x)
        z = s1.apply(x)
        s2 = fit_standardizer(z)
        np.testing.assert_allclose(s2.mean, 0.0, atol=1e-9)
        np.testing.assert_allclose(s2.std, 1.0, atol=1e-9)

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_standardizer(np.array([[1.0, 2.0]]))


class TestEncode:
    def test_mean_input_encodes_to_zero(self, rng):
        x = rng.standard_normal((50, 6))
        s = fit_standardizer(x)
        cfg = EncoderConfig(num_features=6, dim=64, seed=3, normalize_output=False)
        enc = RandomProjectionEncoder(cfg)
        h = enc.encode(s.mean, s)
        np.testing.assert_allclose(h, 0.0, atol=1e-12)

    def test_zero_vector_survives_normalization(self, rng):
        x = rng.standard_normal((50, 6))
        s = fit_standardizer(x)
        enc = RandomProjectionEncoder(EncoderConfig(num_features=6, dim=64, seed=3))
        h = enc.encode(s.mean, s)
        np.testing.assert_allclose(h, 0.0, atol=1e-12)

    def test_unit_norm(self, rng):
        enc = RandomProjectionEncoder(EncoderConfig(num_features=5, dim=300, seed=1))
        h = enc.encode_batch(rng.standard_normal((20, 5)), Standardizer.identity(5))
        np.testing.assert_allclose(np.linalg.norm(h, axis=1), 1.0, atol=1e-6)

    def test_forced_identity_matrix(self):
        # test hook: pin the projection and check the hand oracle
        cfg = EncoderConfig(num_features=2, dim=2, seed=0, normalize_output=False)
        enc = RandomProjectionEncoder(cfg, matrix=np.eye(2))
        h = enc.encode(np.array([3.0, 4.0]), Standardizer.identity(2))
        np.testing.assert_allclose(h, [3.0, 4.0])
        cfg_n = EncoderConfig(num_features=2, dim=2, seed=0, normalize_output=True)
        enc_n = RandomProjectionEncoder(cfg_n, matrix=np.eye(2))
        h_n = enc_n.encode(np.array([3.0, 4.0]), Standardizer.identity(2))
        np.testing.assert_allclose(h_n, [0.6, 0.8], atol=1e-7)

    def test_nan_input_rejected(self):
        enc = RandomProjectionEncoder(EncoderConfig(num_features=2, dim=4, seed=0))
        with pytest.raises(ValueError, match="non-finite"):
            enc.encode(np.array([1.0, np.nan]), Standardizer.identity(2))

    def test_deterministic(self, rng):
        x = rng.standard_normal((4, 7))
        s = Standardizer.identity(7)
        cfg = EncoderConfig(num_features=7, dim=128, seed=21)
        h1 = RandomProjectionEncoder(cfg).encode_batch(x, s)
        h2 = RandomProjectionEncoder(cfg).encode_batch(x, s)
        assert h1.tobytes() == h2.tobytes()

    def test_positive_rescaling_invariant_when_normalized(self, rng):
        x = rng.standard_normal(9)
        enc = RandomProjectionEncoder(EncoderConfig(num_features=9, dim=200, seed=4))
        s = Standardizer.identity(9)
        np.testing.assert_allclose(enc.encode(x, s), enc.encode(3.0 * x, s), atol=1e-6)

    def test_ternary_kind(self):
        cfg = EncoderConfig(num_features=10, dim=50, kind="ternary", seed=5)
        enc = RandomProjectionEncoder(cfg)
        support = set(np.unique(enc.matrix * np.sqrt(10)))
        assert all(round(v) in (-1, 0, 1) for v in support)

    def test_matrix_shape_validated(self):
        cfg = EncoderConfig(num_features=3, dim=4, seed=0)
        with pytest.raises(ValueError, match="shape"):
            RandomProjectionEncoder(cfg, matrix=np.eye(3))


class TestResidentMatrix:
    """The encoder holds its float32-rounded matrix widened to float64;
    encodings equal an inline float64 projection bit for bit."""

    @staticmethod
    def oracle(cfg, standardizer, x):
        """One whole-batch product normalized by ``np.linalg.norm``; a
        zero row stays zero."""
        w = generate_matrix(cfg.matrix_spec(), dtype=np.float32).astype(np.float64)
        block = ((x - standardizer.mean) / standardizer.std) @ w
        if cfg.normalize_output:
            norms = np.linalg.norm(block, axis=1, keepdims=True)
            np.divide(block, norms, out=block, where=norms > 0.0)
        return block.astype(np.float32)

    def test_matrix_held_in_float64(self):
        cfg = EncoderConfig(num_features=11, dim=40, seed=2)
        enc = RandomProjectionEncoder(cfg)
        assert enc.matrix.dtype == np.float64
        np.testing.assert_array_equal(enc.matrix, generate_matrix(cfg.matrix_spec(), dtype=np.float32))

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("rows", [1, 31, 32, 33, 1025, 1500])
    def test_encode_batch_matches_inline_projection(self, rng, rows, normalize):
        # 31 to 33 rows sit on the 32-row strip boundary; 1025 and 1500
        # cross the 1024-row encoding chunk, the first by one row.
        cfg = EncoderConfig(num_features=37, dim=300, seed=9, normalize_output=normalize)
        standardizer = fit_standardizer(rng.standard_normal((50, 37)))
        x = 3.0 * rng.standard_normal((rows, 37)) + 1.0
        enc = RandomProjectionEncoder(cfg)
        expected = self.oracle(cfg, standardizer, x)
        assert enc.encode_batch(x, standardizer).tobytes() == expected.tobytes()
        assert enc.encode(x[-1], standardizer).tobytes() == expected[-1].tobytes()

    @pytest.mark.parametrize("normalize", [True, False])
    def test_zero_row_in_a_batch_matches_inline_projection(self, rng, normalize):
        # The mean row standardizes to zero and projects to a zero row,
        # whose norm is 0: it stays zero and its strip-mates are unharmed.
        cfg = EncoderConfig(num_features=37, dim=300, seed=9, normalize_output=normalize)
        standardizer = fit_standardizer(rng.standard_normal((50, 37)))
        x = 3.0 * rng.standard_normal((70, 37)) + 1.0
        x[33] = standardizer.mean
        out = RandomProjectionEncoder(cfg).encode_batch(x, standardizer)
        assert out.tobytes() == self.oracle(cfg, standardizer, x).tobytes()
        assert_same_bits(out[33], np.zeros(300, dtype=np.float32))
        assert np.isfinite(out).all()

    def test_holds_one_chunk_and_one_strip_beyond_its_output(self, rng):
        # Beyond the output and the standardized input, a call holds the
        # float64 product chunk and the strip of squares; np.linalg.norm
        # on the whole chunk would add a chunk-sized array of squares.
        rows, features, dim = 2100, 8, 512
        enc = RandomProjectionEncoder(EncoderConfig(num_features=features, dim=dim, seed=3))
        standardizer = fit_standardizer(rng.standard_normal((50, features)))
        x = rng.standard_normal((rows, features))
        chunk = encoding._ENCODE_CHUNK_ROWS * dim * 8
        strip = encoding._NORM_STRIP_ROWS * dim * 8
        standardized = rows * features * 8
        tracemalloc.start()
        try:
            out = enc.encode_batch(x, standardizer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= chunk + strip + standardized + (1 << 18)
