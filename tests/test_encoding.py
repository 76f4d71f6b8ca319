import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from decohd import encoding
from decohd.encoding import (
    EncoderConfig,
    RandomProjectionEncoder,
    fit_standardizer,
)
from decohd.ops import generate_matrix
from tests.conftest import assert_same_bits, identity_standardizer


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

    def test_one_dimensional_features_are_refused(self):
        with pytest.raises(ValueError, match=re.escape("expected a 2-d feature matrix, got shape (3,)")):
            fit_standardizer(np.ones(3))


@pytest.mark.parametrize("shape, message", [(dict(num_features=0, dim=4), "num_features must be >= 1"),
                                            (dict(num_features=2, dim=0), "dim must be >= 1")],
                         ids=["no-features", "dim0"])
def test_an_encoder_config_refuses_an_empty_shape(shape, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        EncoderConfig(**shape)


def test_the_config_has_three_fields_and_one_encoder_form():
    # Normalization is no option: a constant on the class, not a field a
    # container records or a caller sets.
    assert [f.name for f in dataclasses.fields(EncoderConfig)] == ["num_features", "dim", "seed"]
    assert EncoderConfig(4, 8).normalize_output is True
    with pytest.raises(TypeError):
        EncoderConfig(4, 8, normalize_output=False)


class TestEncode:
    def test_mean_input_encodes_to_zero(self, rng):
        # The mean row standardizes to zero, so its projection z @ W is zero.
        x = rng.standard_normal((50, 6))
        s = fit_standardizer(x)
        enc = RandomProjectionEncoder(EncoderConfig(num_features=6, dim=64, seed=3))
        z = s.apply(s.mean[None, :])
        np.testing.assert_allclose(z @ enc.matrix, 0.0, atol=1e-12)

    def test_zero_vector_survives_normalization(self, rng):
        x = rng.standard_normal((50, 6))
        s = fit_standardizer(x)
        enc = RandomProjectionEncoder(EncoderConfig(num_features=6, dim=64, seed=3))
        h = enc.encode(s.mean, s)
        np.testing.assert_allclose(h, 0.0, atol=1e-12)

    def test_unit_norm(self, rng):
        enc = RandomProjectionEncoder(EncoderConfig(num_features=5, dim=300, seed=1))
        h = enc.encode_batch(rng.standard_normal((20, 5)), identity_standardizer(5))
        np.testing.assert_allclose(np.linalg.norm(h, axis=1), 1.0, atol=1e-6)

    def test_forced_identity_matrix(self):
        # pin the projection and check the hand oracle: z @ W = (3, 4), of norm 5
        enc = RandomProjectionEncoder(EncoderConfig(num_features=2, dim=2, seed=0))
        enc.matrix = np.eye(2, dtype=np.float32)
        x = np.array([3.0, 4.0])
        np.testing.assert_allclose(x @ enc.matrix, [3.0, 4.0])
        np.testing.assert_allclose(enc.encode(x, identity_standardizer(2)), [0.6, 0.8], atol=1e-7)

    @pytest.mark.parametrize("shape", [(3, 3), (3,)], ids=["narrow", "one-dimensional"])
    def test_rows_of_the_wrong_width_are_rejected(self, shape):
        enc = RandomProjectionEncoder(EncoderConfig(num_features=2, dim=4, seed=0))
        with pytest.raises(ValueError, match=re.escape(f"expected shape (n, 2), got {shape}")):
            enc.encode_batch(np.ones(shape), identity_standardizer(2))

    def test_nan_input_rejected(self):
        enc = RandomProjectionEncoder(EncoderConfig(num_features=2, dim=4, seed=0))
        with pytest.raises(ValueError, match="non-finite"):
            enc.encode(np.array([1.0, np.nan]), identity_standardizer(2))

    def test_deterministic(self, rng):
        x = rng.standard_normal((4, 7))
        s = identity_standardizer(7)
        cfg = EncoderConfig(num_features=7, dim=128, seed=21)
        h1 = RandomProjectionEncoder(cfg).encode_batch(x, s)
        h2 = RandomProjectionEncoder(cfg).encode_batch(x, s)
        assert h1.tobytes() == h2.tobytes()

    def test_positive_rescaling_invariant_when_normalized(self, rng):
        x = rng.standard_normal(9)
        enc = RandomProjectionEncoder(EncoderConfig(num_features=9, dim=200, seed=4))
        s = identity_standardizer(9)
        np.testing.assert_allclose(enc.encode(x, s), enc.encode(3.0 * x, s), atol=1e-6)


class TestLazyMatrix:
    """An encoder draws its matrix on its first encode, before it
    standardizes the rows, then holds it until ``del encoder.matrix``."""

    @pytest.fixture
    def events(self, monkeypatch):
        """Each matrix draw and standardization, in order, as ("draw", matrix) or ("apply", None)."""
        events = []

        def draw(spec, dtype):
            matrix = generate_matrix(spec, dtype=dtype)
            events.append(("draw", matrix))
            return matrix

        def apply(standardizer, features):
            events.append(("apply", None))
            return apply_as_defined(standardizer, features)

        apply_as_defined = encoding.Standardizer.apply
        monkeypatch.setattr(encoding, "generate_matrix", draw)
        monkeypatch.setattr(encoding.Standardizer, "apply", apply)
        return events

    @pytest.mark.parametrize("first", ["encode", "encode_batch"])
    def test_the_first_encode_draws_once_before_it_standardizes(self, rng, events, first):
        cfg = EncoderConfig(num_features=11, dim=40, seed=2)
        enc = RandomProjectionEncoder(cfg)
        assert events == []
        x, standardizer = rng.standard_normal((5, 11)), fit_standardizer(rng.standard_normal((20, 11)))
        enc.encode(x[0], standardizer) if first == "encode" else enc.encode_batch(x, standardizer)
        assert [name for name, _ in events] == ["draw", "apply"]
        assert_same_bits(events[0][1], generate_matrix(cfg.matrix_spec(), dtype=np.float32))
        assert enc.matrix is events[0][1]
        enc.encode_batch(x, standardizer)
        enc.encode(x[1], standardizer)
        assert [name for name, _ in events] == ["draw", "apply", "apply", "apply"]

    def test_a_released_matrix_is_drawn_again_bit_for_bit(self, rng, events):
        enc = RandomProjectionEncoder(EncoderConfig(num_features=6, dim=64, seed=3))
        x, standardizer = rng.standard_normal((9, 6)), identity_standardizer(6)
        before = enc.encode_batch(x, standardizer)
        del enc.matrix
        assert_same_bits(enc.encode_batch(x, standardizer), before)
        assert [name for name, _ in events] == ["draw", "apply", "draw", "apply"]
        assert events[0][1] is not events[2][1]
        assert_same_bits(events[0][1], events[2][1])

    def test_a_refused_call_draws_nothing(self, events):
        enc = RandomProjectionEncoder(EncoderConfig(num_features=2, dim=4, seed=0))
        for bad in (np.ones((2, 3)), np.array([[1.0, np.nan]])):
            with pytest.raises(ValueError):
                enc.encode_batch(bad, identity_standardizer(2))
        assert events == []


class TestResidentMatrix:
    """The encoder holds its float32 matrix as drawn and projects in
    float32; encodings stay within an a priori float32 error bound of a
    float64 projection with the same matrix, and a row's encoding does
    not depend on the other rows of its batch."""

    @staticmethod
    def oracle(cfg, standardizer, x):
        """One whole-batch float64 product normalized by
        ``np.linalg.norm``; a zero row stays zero."""
        w = generate_matrix(cfg.matrix_spec(), dtype=np.float32).astype(np.float64)
        block = ((x - standardizer.mean) / standardizer.std) @ w
        norms = np.linalg.norm(block, axis=1, keepdims=True)
        np.divide(block, norms, out=block, where=norms > 0.0)
        return block.astype(np.float32)

    @staticmethod
    def error_bound(cfg, standardizer, x):
        """Per-entry bound on |encode_batch - oracle|, set before
        measuring from float32 rounding-error analysis (Higham, Accuracy
        and Stability of Numerical Algorithms, ch. 3), with u = 2**-24
        and gamma(n) = n*u / (1 - n*u), K features and D dimensions.

        Product: z rounds to float32 (u), a K-term float32 dot product
        adds gamma(K) and the oracle's cast to float32 u, so
        |h32 - h| <= gamma(K + 2) * a with a = |z| @ |W|; the oracle's
        float64 error is far inside the second u.  Norm: the squares and
        at most D - 1 additions in any order hold the sum of squares to
        gamma(D), and the square root the norm to eta = (1 + gamma(D)/2)
        * (1 + u) - 1.  The division and the oracle's cast round by u
        each.  A zero row's bound is 0: it must come out exactly zero.
        """
        u = 2.0**-24
        k, d = cfg.num_features, cfg.dim

        def gamma(n):
            return n * u / (1.0 - n * u)

        w = generate_matrix(cfg.matrix_spec(), dtype=np.float32).astype(np.float64)
        z = (x - standardizer.mean) / standardizer.std
        a = np.abs(z) @ np.abs(w)
        g = gamma(k + 2)
        abs_h = np.abs(z @ w)
        norm_h = np.linalg.norm(abs_h, axis=1, keepdims=True)
        norm_a = np.linalg.norm(a, axis=1, keepdims=True)
        eta = (1.0 + gamma(d) / 2.0) * (1.0 + u) - 1.0
        norm_error = g * norm_a + eta * (norm_h + g * norm_a)  # |‖h‖ - computed norm|
        norm_low = (norm_h - g * norm_a) * (1.0 - eta)
        assert (norm_low[norm_h > 0.0] > 0.0).all()
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = (g * a + abs_h * norm_error / norm_h + u * (abs_h + g * a)) / norm_low + u * abs_h / norm_h
        return np.where(norm_h > 0.0, bound, 0.0)

    def assert_within_bound(self, out, cfg, standardizer, x):
        assert out.dtype == np.float32
        error = np.abs(out.astype(np.float64) - self.oracle(cfg, standardizer, x))
        bound = self.error_bound(cfg, standardizer, x)
        assert (error <= bound).all(), float((error / np.where(bound > 0, bound, 1.0)).max())

    def test_matrix_held_in_float32(self):
        cfg = EncoderConfig(num_features=11, dim=40, seed=2)
        enc = RandomProjectionEncoder(cfg)
        assert_same_bits(enc.matrix, generate_matrix(cfg.matrix_spec(), dtype=np.float32))

    @pytest.mark.parametrize("rows", [1, 2, 31, 32, 33, 1025, 1500])
    def test_encode_batch_matches_inline_projection(self, rng, rows):
        # One row runs a matrix-vector product, two or more a matrix
        # product; 31 to 33 rows sit on the 32-row strip boundary.
        cfg = EncoderConfig(num_features=37, dim=300, seed=9)
        standardizer = fit_standardizer(rng.standard_normal((50, 37)))
        x = 3.0 * rng.standard_normal((rows, 37)) + 1.0
        enc = RandomProjectionEncoder(cfg)
        self.assert_within_bound(enc.encode_batch(x, standardizer), cfg, standardizer, x)
        self.assert_within_bound(enc.encode(x[-1], standardizer)[None], cfg, standardizer, x[-1:])

    def test_zero_row_in_a_batch_matches_inline_projection(self, rng):
        # The mean row standardizes to zero and projects to a zero row,
        # whose norm is 0: it stays zero and its strip-mates are unharmed.
        cfg = EncoderConfig(num_features=37, dim=300, seed=9)
        standardizer = fit_standardizer(rng.standard_normal((50, 37)))
        x = 3.0 * rng.standard_normal((70, 37)) + 1.0
        x[33] = standardizer.mean
        out = RandomProjectionEncoder(cfg).encode_batch(x, standardizer)
        self.assert_within_bound(out, cfg, standardizer, x)
        assert_same_bits(out[33], np.zeros(300, dtype=np.float32))
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("zero_rows", [[0], [31, 32], list(range(32, 64)), [69]],
                             ids=["first", "strip-edge", "whole-strip", "last"])
    def test_zero_rows_stay_zero(self, rng, zero_rows):
        # A zero norm divides by 1: no 0/0, and the other rows are
        # normalized as they would be without the zero rows.
        cfg = EncoderConfig(num_features=37, dim=300, seed=9)
        standardizer = fit_standardizer(rng.standard_normal((50, 37)))
        x = 3.0 * rng.standard_normal((70, 37)) + 1.0
        x[zero_rows] = standardizer.mean
        enc = RandomProjectionEncoder(cfg)
        out = enc.encode_batch(x, standardizer)
        assert_same_bits(out[zero_rows], np.zeros((len(zero_rows), 300), dtype=np.float32))
        others = np.setdiff1d(np.arange(70), zero_rows)
        assert_same_bits(out[others], enc.encode_batch(x[others], standardizer))

    def test_rows_whose_squares_underflow_stay_as_projected(self, rng):
        # Entries near 1e-26 square below float32's smallest subnormal, so
        # the row's norm is 0 and the row is left unnormalized, nonzero.
        cfg = EncoderConfig(num_features=37, dim=300, seed=9)
        ident = identity_standardizer(37)
        x = rng.standard_normal((70, 37))
        tiny = [5, 31, 32, 69]
        x[tiny] *= 1e-26
        enc = RandomProjectionEncoder(cfg)
        out = enc.encode_batch(x, ident)
        projected = np.matmul(ident.apply(x).astype(np.float32), enc.matrix)[tiny]  # z @ W, as encode_batch runs it
        assert (projected != 0.0).any(axis=1).all() and (projected * projected == 0.0).all()
        assert_same_bits(out[tiny], projected)
        others = np.setdiff1d(np.arange(70), tiny)
        np.testing.assert_allclose(np.linalg.norm(out[others], axis=1), 1.0, atol=1e-6)

    def test_rows_do_not_depend_on_their_batch(self, rng):
        # A matrix product accumulates each entry in one order whatever
        # the row count, and each row is normalized alone, so every
        # batch of at least 2 rows gives a row the same bits; sub-batches
        # start and end off the 32-row strips and span 1024 and 1025 rows.
        cfg = EncoderConfig(num_features=37, dim=300, seed=9)
        standardizer = fit_standardizer(rng.standard_normal((50, 37)))
        x = 3.0 * rng.standard_normal((1500, 37)) + 1.0
        enc = RandomProjectionEncoder(cfg)
        whole = enc.encode_batch(x, standardizer)
        for lo, hi in [(0, 2), (7, 9), (31, 64), (5, 1029), (0, 1024), (1, 1026), (475, 1500)]:
            assert_same_bits(enc.encode_batch(x[lo:hi], standardizer), whole[lo:hi])

    def test_holds_one_strip_beyond_its_output(self, rng):
        # Beyond the output and the standardized input in float64 and
        # float32, a call holds the float32 strip of squares; a float64
        # product, or np.linalg.norm on the whole output, would add an
        # output-sized array.
        rows, features, dim = 2100, 8, 512
        enc = RandomProjectionEncoder(EncoderConfig(num_features=features, dim=dim, seed=3))
        standardizer = fit_standardizer(rng.standard_normal((50, features)))
        x = rng.standard_normal((rows, features))
        strip = encoding._NORM_ROWS * dim * 4
        standardized = rows * features * (8 + 4)
        tracemalloc.start()
        try:
            out = enc.encode_batch(x, standardizer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= strip + standardized + (1 << 18)
