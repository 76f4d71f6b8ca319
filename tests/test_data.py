import re

import numpy as np
import pytest

from decohd.baselines import build_prototype_table, onlinehd_refine
from decohd.data import (
    Dataset,
    ParseError,
    SyntheticSpec,
    bayes_accuracy,
    load_csv,
    make_synthetic,
    save_csv,
)
from decohd.model import ModelConfig
from decohd.training import TrainConfig, train


@pytest.mark.parametrize("labels, message", [([0], "features and labels disagree on sample count"),
                                             ([0, 3], r"row 1: label 3 out of range \[0, 3\)"),
                                             ([-1, 0], r"row 0: label -1 out of range \[0, 3\)")],
                         ids=["one-label-short", "label-beyond", "negative-label"])
def test_a_dataset_refuses_labels_that_do_not_fit(labels, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Dataset(np.zeros((2, 3)), labels, 3)


LABELLED_INPUTS = {
    "Dataset": lambda h, y, bad: Dataset(h, bad, 3),
    "train": lambda h, y, bad: train(ModelConfig((2,), 8, 16, 3), TrainConfig(epochs=1), h, bad),
    "train-test-split": lambda h, y, bad: train(ModelConfig((2,), 8, 16, 3), TrainConfig(epochs=1), h, y, h, bad),
    "build_prototype_table": lambda h, y, bad: build_prototype_table(h, bad, 3),
    "onlinehd_refine": lambda h, y, bad: onlinehd_refine(build_prototype_table(h, y, 3), h, bad, epochs=1),
}


@pytest.mark.parametrize("bad, message", [([0.0, 1.7, 2.9, 1.0, 0.2, 2.0], "row 1: label 1.7"),
                                          ([0.0, 1.0, 2.0, np.nan, 1.0, 2.0], "row 3: label nan"),
                                          ([0.0, 1.0, 2.0, 1.0, -np.inf, 2.0], "row 4: label -inf")],
                         ids=["fractional", "nan", "infinite"])
@pytest.mark.parametrize("entry", LABELLED_INPUTS)
def test_every_labelled_input_refuses_a_label_that_is_not_an_integer(entry, bad, message):
    # Checked before any cast: a cast would truncate 1.7 to class 1.
    h = np.random.default_rng(0).standard_normal((6, 16)).astype(np.float32)
    with pytest.raises(ValueError, match=f"^{message} is not an integer$"):
        LABELLED_INPUTS[entry](h, np.array([0, 1, 2, 1, 0, 2]), np.array(bad))


def test_integral_float_labels_train_as_their_integers():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((30, 16)).astype(np.float32)
    y = np.arange(30) % 3
    dataset = Dataset(h, y.astype(np.float64), 3)
    assert dataset.labels.dtype == np.int64 and np.array_equal(dataset.labels, y)
    config, train_config = ModelConfig((2,), 8, 16, 3), TrainConfig(epochs=3, batch_size=8, microbatch_size=4)
    by_int = train(config, train_config, h, y, h, y)
    by_float = train(config, train_config, h, y.astype(np.float64), h, y.astype(np.float32))
    assert by_float.params.head.tobytes() == by_int.params.head.tobytes()
    assert [a.tobytes() for a in by_float.params.latents] == [a.tobytes() for a in by_int.params.latents]
    scores = [[(e.mean_loss, e.train_accuracy, e.test_accuracy) for e in r.history] for r in (by_float, by_int)]
    assert scores[0] == scores[1]


class TestMakeSynthetic:
    def test_deterministic_per_seed(self):
        a_train, a_test = make_synthetic(4, 6, 10, 3.0, seed=7)
        b_train, b_test = make_synthetic(4, 6, 10, 3.0, seed=7)
        c_train, _ = make_synthetic(4, 6, 10, 3.0, seed=8)
        for a, b in ((a_train, b_train), (a_test, b_test)):
            assert a.features.tobytes() == b.features.tobytes()
            assert a.labels.tobytes() == b.labels.tobytes()
        assert a_train.features.tobytes() != c_train.features.tobytes()
        assert a_train.features.tobytes() != a_test.features.tobytes()

    def test_shapes_and_label_ranges(self):
        train_ds, test_ds = make_synthetic(5, 3, 12, 2.0, seed=1)
        for ds in (train_ds, test_ds):
            assert ds.num_classes == 5
            assert ds.features.shape == (60, 3) and ds.features.dtype == np.float64
            assert ds.labels.shape == (60,) and ds.labels.dtype == np.int64
            np.testing.assert_array_equal(np.bincount(ds.labels, minlength=5), [12] * 5)

    @pytest.mark.parametrize("args", [(1, 3, 5, 1.0), (3, 0, 5, 1.0), (3, 3, 0, 1.0), (3, 3, 5, -1.0)])
    def test_rejects_invalid_shapes(self, args):
        message = ("^separation must be finite and >= 0, got -1.0$" if args[3] < 0 else
                   "^need num_classes >= 2, num_features >= 1 and samples_per_class >= 1$")  # SyntheticSpec's
        with pytest.raises(ValueError, match=message):
            make_synthetic(*args)

    @pytest.mark.parametrize("separation", [float("nan"), float("inf")])
    def test_rejects_non_finite_separation(self, separation):
        with pytest.raises(ValueError, match="separation must be finite and >= 0"):
            make_synthetic(3, 3, 5, separation)


class TestBayesAccuracy:
    @pytest.mark.parametrize("num_classes, num_features, separation", [(4, 6, 3.0), (26, 28, 3.0), (8, 8, 1.5)])
    def test_matches_the_bayes_rule_on_generated_data(self, num_classes, num_features, separation):
        # For C <= F the Bayes rule of make_synthetic's blobs is argmax_c x_c.
        _, test_ds = make_synthetic(num_classes, num_features, 2000, separation, seed=9)
        hits = np.argmax(test_ds.features[:, :num_classes], axis=1) == test_ds.labels
        p = bayes_accuracy(SyntheticSpec(num_classes, num_features, 2000, separation))
        sigma = np.sqrt(p * (1 - p) / len(hits))
        assert abs(hits.mean() - p) <= 3 * sigma

    @pytest.mark.parametrize("num_classes, ceiling", [(4, 0.956), (8, 0.918), (26, 0.823), (100, 0.678)])
    def test_ceilings_at_separation_3(self, num_classes, ceiling):
        assert round(bayes_accuracy(SyntheticSpec(num_classes, num_classes, 1, 3.0)), 3) == ceiling

    def test_no_separation_is_chance(self):
        for c in (2, 10):
            assert bayes_accuracy(SyntheticSpec(c, c, 1, 0.0)) == pytest.approx(1 / c, abs=1e-12)

    @pytest.mark.parametrize("args", [(1, 3.0), (4, -1.0), (4, float("nan")), (4, float("inf"))])
    def test_rejects_invalid_arguments(self, args):
        # The spec refuses what has no ceiling, before bayes_accuracy reads it.
        num_classes, separation = args
        message = "^need num_classes >= 2" if num_classes < 2 else "^separation must be finite and >= 0"
        with pytest.raises(ValueError, match=message):
            SyntheticSpec(num_classes, 16, 1, separation)

    def test_more_classes_than_features_has_no_closed_form(self):
        assert bayes_accuracy(SyntheticSpec(5, 4, 1, 3.0)) is None


class TestLoadCsv:
    @pytest.fixture
    def write(self, tmp_path):
        def write(text):
            path = tmp_path / "data.csv"
            path.write_text(text, encoding="utf-8")
            return str(path)

        return write

    def test_round_trips_save_csv(self, tmp_path):
        train_ds, _ = make_synthetic(3, 4, 5, 3.0, seed=2)
        path = str(tmp_path / "train.csv")
        save_csv(path, train_ds)
        loaded = load_csv(path)
        np.testing.assert_allclose(loaded.features, train_ds.features, rtol=1e-9)
        np.testing.assert_array_equal(loaded.labels, train_ds.labels)
        assert loaded.num_classes == 3

    def test_header_is_skipped(self, write):
        ds = load_csv(write("f0,f1,label\n1,2,0\n3,4,1\n"))
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ds.labels, [0, 1])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,2,0\n3,4,1\n5,0\n", "line 3: expected 3 columns, got 2"),
            ("f0,f1,label\n1,2,0\n3,4,1\n5,6,7,1\n", "line 4: expected 3 columns, got 4"),
            ("1,2,0\n3,x,1\n", "line 2: non-numeric cell 'x'"),
            ("1,2,0\n3,1_000,1\n", "line 2: non-numeric cell '1_000'"),
            ("1,2,0\n3,\u0661\u0662,1\n", "line 2: non-numeric cell '\u0661\u0662'"),
            ("1,2,0\n3,4,1.5\n", "line 2: label 1.5 is not an integer"),
            ("f0,f1,label\n1,2,0\n3,4,1\n5,6,2.5\n", "line 4: label 2.5 is not an integer"),
            ("1,2,0\n3,4,-1\n", r"line 2: label -1 out of range \[0, 1\)"),
            ("", "line 1: empty file"),
            ("1,2,0\n3,nan,1\n", "line 2: non-finite cell 'nan'"),
            ("f0,f1,label\n1,2,0\n-inf,4,1\n", "line 3: non-finite cell '-inf'"),
            ("1,2,0\n3,4,inf\n", "line 2: non-finite cell 'inf'"),
            ("1,2,0\n\n3,nan,1\n", "line 3: non-finite cell 'nan'"),
            ("1,2,0\n\n3,4,-1\n", r"line 3: label -1 out of range \[0, 1\)"),
            ("1,2,0\n# note\n3,4,1\n5,x,1\n", "line 4: non-numeric cell 'x'"),
            ("f0,f1,label\n", "line 1: a header and no data rows"),
            ("0\n1\n", "need at least one feature column plus a label column"),
        ],
        ids=["ragged", "ragged-after-header", "non-numeric", "underscored-digits", "arabic-indic-digits",
             "non-integer-label",
             "non-integer-label-after-header", "negative-label", "empty",
             "nan-feature", "inf-feature-after-header", "inf-label",
             "nan-feature-after-blank-line", "negative-label-after-blank-line",
             "non-numeric-after-comment", "header-only", "one-column"],
    )
    def test_malformed_rows_name_their_line(self, write, text, message):
        with pytest.raises(ParseError, match=message):
            load_csv(write(text))

    def test_leading_blank_line_and_comments_are_skipped(self, write):
        ds = load_csv(write("\n# two rows\n1,2,0\n3,4,1 # second\n"))
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_label_beyond_given_class_count(self, write):
        with pytest.raises(ParseError, match=r"line 2: label 3 out of range \[0, 3\)"):
            load_csv(write("1,2,0\n3,4,3\n"), num_classes=3)

    def test_a_label_beyond_int64_is_refused_by_its_value_without_a_cast(self, write):
        # A cast to int64 first would warn and wrap 1e20 to a negative label.
        path = write("1,2,0\n3,4,1e20\n")
        message = r"line 2: label 100000000000000000000 out of range \[0, 2\)$"
        with pytest.raises(ParseError, match=f"^{re.escape(path)}: {message}"):
            load_csv(path, num_classes=2)
        with pytest.raises(ParseError, match=r"label 100000000000000000000 out of range \[0, 9223372036854775808\)"):
            load_csv(path)  # no class count given: the bound is int64's

    def test_a_utf8_bom_is_not_part_of_the_first_row(self, tmp_path):
        # Kept, it would make a headerless first row look like a header.
        path = tmp_path / "bom.csv"
        for header in ("", "f0,f1,label\n"):  # a header after the BOM is still one
            path.write_bytes(b"\xef\xbb\xbf" + (header + "1,2,0\n3,4,1\n5,6,0\n7,8,1\n").encode())
            ds = load_csv(str(path))
            np.testing.assert_array_equal(ds.features[:, 0], [1.0, 3.0, 5.0, 7.0])
            np.testing.assert_array_equal(ds.labels, [0, 1, 0, 1])
        path.write_bytes(b"\xef\xbb\xbf1,2,0\n3,4\xe9,1\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: not UTF-8 text$"):
            load_csv(str(path))

    @pytest.mark.parametrize("width", [1, 3])
    def test_a_width_other_than_the_given_one_is_refused(self, write, width):
        path = write("f0,f1,label\n1,2,0\n3,4,1\n")
        assert load_csv(path, num_features=2).num_features == 2
        with pytest.raises(ParseError, match=f"^{re.escape(path)}: 2 feature columns, expected {width}$"):
            load_csv(path, num_classes=2, num_features=width)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="dataset file not found"):
            load_csv(str(tmp_path / "absent.csv"))

    @pytest.mark.parametrize(
        "raw, line",
        [(b"1,2,0\n3,4\xe9,1\n", 2), (b"# caf\xc3\xa9\n1,2,0\n3,4,1\xe9\n", 3), (b"1,2,0\n# caf\xe9\n3,4,1\n", 2),
         (b"f\xe9,g,label\n1,2,0\n", 1)],
        ids=["in-a-row", "after-a-utf8-comment", "in-a-comment", "in-the-header"],
    )
    def test_a_line_that_is_not_utf8_is_named(self, tmp_path, raw, line):
        path = tmp_path / "latin1.csv"
        path.write_bytes(raw)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line {line}: not UTF-8 text$"):
            load_csv(str(path))

    def test_utf8_beyond_ascii_is_read(self, write):
        ds = load_csv(write("# caf\u00e9 \u0661\n1,2,0\n3,4,1\n"))
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_a_path_that_is_no_regular_file_is_refused(self, tmp_path):
        with pytest.raises(ParseError, match=f"^{re.escape(str(tmp_path))}: not a regular file$"):
            load_csv(str(tmp_path))

    def test_a_relative_path_absent_from_the_data_dir_is_reported_as_given(self, tmp_path, monkeypatch):
        (tmp_path / "data").mkdir()
        (tmp_path / "cwd").mkdir()
        monkeypatch.setenv("DECOHD_DATA_DIR", str(tmp_path / "data"))
        monkeypatch.chdir(tmp_path / "cwd")
        with pytest.raises(ParseError, match="^dataset file not found: absent.csv$"):
            load_csv("absent.csv")

    def test_a_refusal_that_no_row_explains_names_the_file(self, write, monkeypatch):
        # Rows that pass the per-line check parse as a whole: only a
        # np.loadtxt that refuses them anyway reaches the last message.
        def refuse(*args, **kwargs):
            raise ValueError("refused")

        path = write("1,2,0\n3,4,1\n")
        monkeypatch.setattr(np, "loadtxt", refuse)
        with pytest.raises(ParseError, match=f"^{re.escape(path)}: malformed CSV$"):
            load_csv(path)

    def test_a_relative_path_is_read_against_the_working_directory_only(self, tmp_path, monkeypatch):
        # No environment variable points a relative path elsewhere: the
        # string a manifest records names the one file it was read from.
        (tmp_path / "data").mkdir()
        (tmp_path / "cwd").mkdir()
        (tmp_path / "data" / "rel.csv").write_text("1,2,0\n3,4,1\n", encoding="utf-8")
        monkeypatch.setenv("DECOHD_DATA_DIR", str(tmp_path / "data"))
        monkeypatch.chdir(tmp_path / "cwd")
        with pytest.raises(ParseError, match="^dataset file not found: rel.csv$"):
            load_csv("rel.csv")
        monkeypatch.chdir(tmp_path / "data")
        assert load_csv("rel.csv").num_samples == 2
