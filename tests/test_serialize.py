import numpy as np
import pytest

from decohd.serialize import ContainerError, load_arrays, load_classifier, save_arrays, save_classifier
from tests.conftest import small_classifier

KINDS = ("decohd", "prototype", "onlinehd", "sparsehd")


def stored_arrays(clf) -> dict[str, np.ndarray]:
    """Every array a classifier of *clf*'s kind stores, by name."""
    out = {"mean": clf.standardizer.mean, "std": clf.standardizer.std}
    if clf.kind == "decohd":
        out.update({f"latents_{i}": a for i, a in enumerate(clf.params.latents)}, head=clf.params.head)
    elif clf.kind == "sparsehd":
        out.update(table=clf.scorer.table, mask=clf.scorer.mask)
    else:
        out["table"] = clf.scorer.prototypes
    return out


@pytest.mark.parametrize("kind", KINDS)
class TestRoundTrip:
    def test_arrays_bit_exact(self, tmp_path, rng, kind):
        clf, _ = small_classifier(kind, rng)
        save_classifier(tmp_path / "m.npz", clf)
        loaded = load_classifier(tmp_path / "m.npz")
        assert loaded.kind == kind
        assert loaded.encoder.config == clf.encoder.config
        before, after = stored_arrays(clf), stored_arrays(loaded)
        assert sorted(before) == sorted(after)
        for name, a in before.items():
            assert after[name].dtype == a.dtype, name
            assert after[name].shape == a.shape, name
            assert after[name].tobytes() == a.tobytes(), name
        if kind == "sparsehd":
            assert loaded.scorer.budget == clf.scorer.budget

    def test_rewrite_is_byte_identical(self, tmp_path, rng, kind):
        clf, _ = small_classifier(kind, rng)
        save_classifier(tmp_path / "a.npz", clf)
        save_classifier(tmp_path / "b.npz", load_classifier(tmp_path / "a.npz"))
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_loaded_model_predicts_the_same(self, tmp_path, rng, kind):
        clf, features = small_classifier(kind, rng)
        save_classifier(tmp_path / "m.npz", clf)
        loaded = load_classifier(tmp_path / "m.npz")
        np.testing.assert_array_equal(loaded.predict_batch(features), clf.predict_batch(features))


def test_meta_is_stored_zero_dimensional(tmp_path, rng):
    clf, _ = small_classifier("prototype", rng)
    save_classifier(tmp_path / "m.npz", clf)
    with np.load(tmp_path / "m.npz") as data:
        assert data["__meta__"].shape == ()
    meta, _ = load_arrays(tmp_path / "m.npz")
    assert meta["kind"] == "prototype"


def narrow_standardizer(meta, arrays):
    arrays["standardizer_mean"] = arrays["standardizer_mean"][:-1]


def wider_model(meta, arrays):
    meta["model"]["dim"] += 1


def narrow_table(meta, arrays):
    arrays["table"] = arrays["table"][:, :-1]


def float64_table(meta, arrays):
    arrays["table"] = arrays["table"].astype(np.float64)


def narrow_mask(meta, arrays):
    arrays["mask"] = arrays["mask"][:-1]


def integer_mask(meta, arrays):
    arrays["mask"] = arrays["mask"].astype(np.int64)


def zero_std(meta, arrays):
    arrays["standardizer_std"] = np.zeros_like(arrays["standardizer_std"])


def nan_std(meta, arrays):
    arrays["standardizer_std"][2] = np.nan


def inf_mean(meta, arrays):
    arrays["standardizer_mean"][0] = np.inf


@pytest.mark.parametrize("kind, spoil, message", [
    ("decohd", narrow_standardizer, "standardizer shapes"),
    ("decohd", wider_model, "model dim 65 does not match encoder dim 64"),
    ("prototype", narrow_table, r"table is float32 of shape \(3, 63\)"),
    ("sparsehd", float64_table, r"table is float64 of shape \(3, 64\)"),
    ("sparsehd", narrow_mask, r"mask is bool of shape \(63,\)"),
    ("sparsehd", integer_mask, r"mask is int64 of shape \(64,\)"),
    ("decohd", zero_std, "standardizer std is not finite and positive"),
    ("prototype", nan_std, "standardizer std is not finite and positive"),
    ("sparsehd", inf_mean, "standardizer mean is not finite"),
], ids=["standardizer", "dim", "table", "float64_table", "narrow_mask", "integer_mask",
        "zero_std", "nan_std", "inf_mean"])
def test_shapes_that_disagree_with_the_configs_are_container_errors(tmp_path, rng, kind, spoil, message):
    # Each would otherwise load and fail later, at encoding, scoring,
    # quantization or bit flips.
    clf, _ = small_classifier(kind, rng)
    save_classifier(tmp_path / "m.npz", clf)
    meta, arrays = load_arrays(tmp_path / "m.npz")
    spoil(meta, arrays)
    save_arrays(tmp_path / "m.npz", meta, arrays)
    with pytest.raises(ContainerError, match=message):
        load_classifier(tmp_path / "m.npz")


def test_full_width_sparse_container_loads_its_retained_columns(tmp_path, rng):
    # Containers keep a full-width table.  Older writers kept the dense
    # values in the masked-out columns; a loaded scorer drops them and
    # holds only the retained columns.
    clf, features = small_classifier("sparsehd", rng)
    save_classifier(tmp_path / "m.npz", clf)
    meta, arrays = load_arrays(tmp_path / "m.npz")
    mask = arrays["mask"]
    np.testing.assert_array_equal(arrays["table"][:, ~mask], 0.0)
    full = rng.standard_normal(arrays["table"].shape).astype(np.float32)
    full[:, mask] = clf.scorer.table
    arrays["table"] = full
    save_arrays(tmp_path / "m.npz", meta, arrays)
    loaded = load_classifier(tmp_path / "m.npz")
    held = [v for v in vars(loaded.scorer).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in held) == loaded.scorer.table.nbytes + loaded.scorer.mask.nbytes
    assert loaded.scorer.table.shape == (3, mask.sum())
    assert loaded.scorer.table.tobytes() == clf.scorer.table.tobytes()
    np.testing.assert_array_equal(loaded.predict_batch(features), clf.predict_batch(features))
