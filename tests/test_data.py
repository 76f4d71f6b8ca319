import numpy as np
import pytest

from decohd.data import DATA_DIR_ENV, ParseError, load_csv, make_synthetic, save_csv


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
        for ds, split in ((train_ds, "train"), (test_ds, "test")):
            assert ds.split == split and ds.num_classes == 5
            assert ds.features.shape == (60, 3) and ds.features.dtype == np.float64
            assert ds.labels.shape == (60,) and ds.labels.dtype == np.int64
            np.testing.assert_array_equal(np.bincount(ds.labels, minlength=5), [12] * 5)

    @pytest.mark.parametrize("args", [(1, 3, 5, 1.0), (3, 0, 5, 1.0), (3, 3, 0, 1.0), (3, 3, 5, -1.0)])
    def test_rejects_invalid_shapes(self, args):
        with pytest.raises(ValueError):
            make_synthetic(*args)


class TestLoadCsv:
    @pytest.fixture
    def write(self, tmp_path, monkeypatch):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)

        def write(text):
            path = tmp_path / "data.csv"
            path.write_text(text, encoding="utf-8")
            return str(path)

        return write

    def test_round_trips_save_csv(self, tmp_path):
        train_ds, _ = make_synthetic(3, 4, 5, 3.0, seed=2)
        path = str(tmp_path / "train.csv")
        save_csv(path, train_ds)
        loaded = load_csv(path, split="train")
        np.testing.assert_allclose(loaded.features, train_ds.features, rtol=1e-9)
        np.testing.assert_array_equal(loaded.labels, train_ds.labels)
        assert loaded.num_classes == 3 and loaded.name == "train"

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
            ("1,2,0\n3,4,1.5\n", "line 2: label 1.5 is not an integer"),
            ("f0,f1,label\n1,2,0\n3,4,1\n5,6,2.5\n", "line 4: label 2.5 is not an integer"),
            ("1,2,0\n3,4,-1\n", "line 2: negative label -1"),
            ("", "line 1: empty file"),
            ("1,2,0\n3,nan,1\n", "line 2: non-finite cell 'nan'"),
            ("f0,f1,label\n1,2,0\n-inf,4,1\n", "line 3: non-finite cell '-inf'"),
            ("1,2,0\n3,4,inf\n", "line 2: non-finite cell 'inf'"),
            ("1,2,0\n\n3,nan,1\n", "line 3: non-finite cell 'nan'"),
            ("1,2,0\n\n3,4,-1\n", "line 3: negative label -1"),
            ("1,2,0\n# note\n3,4,1\n5,x,1\n", "line 4: non-numeric cell 'x'"),
            ("f0,f1,label\n", "line 1: a header and no data rows"),
        ],
        ids=["ragged", "ragged-after-header", "non-numeric", "non-integer-label",
             "non-integer-label-after-header", "negative-label", "empty",
             "nan-feature", "inf-feature-after-header", "inf-label",
             "nan-feature-after-blank-line", "negative-label-after-blank-line",
             "non-numeric-after-comment", "header-only"],
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

    def test_missing_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        with pytest.raises(ParseError, match="dataset file not found"):
            load_csv(str(tmp_path / "absent.csv"))

    def test_relative_path_resolves_against_data_dir(self, tmp_path, monkeypatch):
        (tmp_path / "rel.csv").write_text("1,2,0\n3,4,1\n", encoding="utf-8")
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        assert load_csv("rel.csv").num_samples == 2
