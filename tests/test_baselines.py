import warnings

import numpy as np
import pytest

from decohd.baselines import PrototypeTable, build_prototype_table, onlinehd_refine, sparsify_table
from tests.conftest import add_at_prototype_sums, assert_same_bits


def spread_encodings(rng, rows, dim, dtype):
    """Rows whose magnitudes span many binades, so a class sum taken in
    any other order than row order rounds differently."""
    scale = np.exp2(rng.integers(-20, 20, (rows, 1)))
    return (rng.standard_normal((rows, dim)) * scale).astype(dtype)


class TestBuildPrototypeTable:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_add_at_bit_for_bit(self, rng, dtype):
        h = spread_encodings(rng, 600, 40, dtype)
        labels = rng.integers(0, 5, 600)  # unsorted, classes interleaved
        table = build_prototype_table(h, labels, 5)
        assert_same_bits(table.prototypes, add_at_prototype_sums(h, labels, 5))

    def test_row_order_matters_and_is_kept(self, rng):
        # One class, float64 rows in two orders: the sums differ, so the
        # bit-for-bit check above pins the summation order.  (At float32
        # the final narrowing can hide the difference.)
        h = spread_encodings(rng, 300, 16, np.float64)
        labels = np.zeros(300, dtype=np.int64)
        order = rng.permutation(300)
        forward = build_prototype_table(h, labels, 1).prototypes
        shuffled = build_prototype_table(h[order], labels, 1).prototypes
        assert forward.tobytes() != shuffled.tobytes()
        assert_same_bits(shuffled, add_at_prototype_sums(h[order], labels, 1))

    def test_empty_class_warns_and_stays_zero(self, rng):
        h = rng.standard_normal((6, 8)).astype(np.float32)
        labels = np.array([0, 1, 3, 0, 1, 3])
        with pytest.warns(UserWarning, match="class 2 has no training samples"):
            table = build_prototype_table(h, labels, 4)
        assert_same_bits(table.prototypes[2], np.zeros(8, dtype=np.float32))
        assert_same_bits(table.prototypes, add_at_prototype_sums(h, labels, 4))

    def test_empty_classes_warn_once_per_call(self, rng):
        h = rng.standard_normal((4, 8)).astype(np.float32)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = build_prototype_table(h, np.array([0, 4, 0, 4]), 5)
        assert [str(w.message) for w in caught] == [
            "class 1 has no training samples (3 classes in all); their prototypes are left at zero"]
        assert_same_bits(table.prototypes[1:4], np.zeros((3, 8), dtype=np.float32))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_labels_raise(self, rng, bad):
        h = rng.standard_normal((4, 8)).astype(np.float32)
        with pytest.raises(ValueError, match="out of range"):
            build_prototype_table(h, np.array([0, 1, bad, 2]), 3)

    @pytest.mark.parametrize("count", [30, 61])
    def test_labels_for_other_than_every_row_raise(self, rng, count):
        # 30 labels for 60 rows would build the table from the first 30.
        h = rng.standard_normal((60, 8)).astype(np.float32)
        with pytest.raises(ValueError, match="disagree on sample count"):
            build_prototype_table(h, np.arange(count) % 3, 3)


class TestOnlineHDRefine:
    def test_zero_learning_rate_is_identity(self, rng):
        h = rng.standard_normal((40, 16)).astype(np.float32)
        labels = rng.integers(0, 3, 40)
        table = build_prototype_table(h, labels, 3)
        refined = onlinehd_refine(table, h, labels, epochs=3, learning_rate=0.0, seed=2)
        assert_same_bits(refined.prototypes, table.prototypes)

    def test_per_row_widening_equals_a_float64_copy(self, rng):
        # Random labels leave many samples misclassified, so updates run.
        h = rng.standard_normal((80, 24)).astype(np.float32)
        labels = rng.integers(0, 4, 80)
        table = build_prototype_table(h, labels, 4)
        refined = onlinehd_refine(table, h, labels, epochs=3, seed=5)
        widened = onlinehd_refine(table, h.astype(np.float64), labels, epochs=3, seed=5)
        assert refined.prototypes.tobytes() != table.prototypes.tobytes()
        assert_same_bits(refined.prototypes, widened.prototypes)

    @pytest.mark.parametrize("spoil, message", [
        (lambda y: np.append(y, 0), "disagree on sample count"),
        (lambda y: np.where(y == 0, -1, y), "out of range"),
        (lambda y: np.where(y == 0, 3, y), "out of range"),
    ], ids=["extra-label", "minus-one", "num-classes"])
    def test_labels_that_do_not_fit_the_rows_raise(self, rng, spoil, message):
        h = rng.standard_normal((40, 16)).astype(np.float32)
        labels = np.arange(40) % 3
        table = build_prototype_table(h, labels, 3)
        with pytest.raises(ValueError, match=message):
            onlinehd_refine(table, h, spoil(labels), epochs=1)

    def test_a_zero_prototype_takes_a_full_step(self):
        # Every score ties at 0, so the row is predicted class 0. The zero
        # prototypes have cosine 0 with it, so each moves by lr * h.
        h = np.array([[1.0, 2.0, 0.0, 0.0]], dtype=np.float32)
        refined = onlinehd_refine(PrototypeTable(np.zeros((2, 4), dtype=np.float32)), h, [1], epochs=1,
                                  learning_rate=0.5)
        np.testing.assert_array_equal(refined.prototypes, [[-0.5, -1.0, 0.0, 0.0], [0.5, 1.0, 0.0, 0.0]])

    def test_a_sparsified_table_is_refused(self, rng):
        h = rng.standard_normal((10, 8)).astype(np.float32)
        labels = rng.integers(0, 2, 10)
        sparse = sparsify_table(build_prototype_table(h, labels, 2), 0.5)
        with pytest.raises(ValueError, match=r"^cannot refine a sparsified table: it holds 4 of 8 dimensions"):
            onlinehd_refine(sparse, h, labels, epochs=1)


class TestSparsifyTable:
    @pytest.mark.parametrize("budget, message", [
        (0.0, r"^budget must be in \(0, 1\]$"),
        (1.5, r"^budget must be in \(0, 1\]$"),
        (0.1, "^budget 0.1 retains zero of 5 dimensions$"),
    ], ids=["zero", "above-one", "keeps-none"])
    def test_a_budget_out_of_range_or_keeping_nothing_is_refused(self, budget, message):
        with pytest.raises(ValueError, match=message):
            sparsify_table(PrototypeTable(np.ones((2, 5), dtype=np.float32)), budget)

    def test_ties_break_toward_the_lower_index(self):
        # Column magnitudes 1, 2, 2, 1, 2: three columns tie for the top.
        prototypes = np.array([[1.0, -2.0, 1.0, 0.5, 2.0],
                               [0.0, 0.0, -1.0, -0.5, 0.0]], dtype=np.float32)
        scorer = sparsify_table(PrototypeTable(prototypes), 0.4)
        np.testing.assert_array_equal(scorer.mask, [False, True, True, False, False])
        assert_same_bits(scorer.stored()["table"], prototypes[:, [1, 2]])

    def test_a_sparsified_table_is_refused(self, rng):
        sparse = sparsify_table(PrototypeTable(rng.standard_normal((2, 8)).astype(np.float32)), 0.5)
        with pytest.raises(ValueError, match=r"^cannot sparsify a sparsified table: it holds 4 of 8 dimensions"):
            sparsify_table(sparse, 0.5)
