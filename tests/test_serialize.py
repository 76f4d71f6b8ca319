import dataclasses

import numpy as np
import pytest

from decohd import encoding
from decohd.data import make_synthetic
from decohd.inference import DecomposedScorer
from decohd.model import ChannelBank, Classifier, DecoHDClassifier, ModelConfig
from decohd.ops import generate_matrix
from decohd.serialize import ContainerError, load_arrays, load_classifier, save_arrays, save_classifier
from decohd.training import TrainConfig, train
from tests.conftest import assert_same_bits, small_classifier

KINDS = ("decohd", "prototype", "onlinehd", "sparsehd")


def stored_arrays(clf) -> dict[str, np.ndarray]:
    """Every array a classifier of *clf*'s kind stores, by name: what
    its scorer scores with, plus a sparse table's mask."""
    out = {"mean": clf.standardizer.mean, "std": clf.standardizer.std, **clf.scorer.stored()}
    if clf.kind == "sparsehd":
        out["mask"] = clf.scorer.mask
    return out


@pytest.mark.parametrize("kind", KINDS)
class TestRoundTrip:
    def test_arrays_bit_exact(self, tmp_path, rng, kind):
        clf, _ = small_classifier(kind, rng)
        save_classifier(tmp_path / "m.npz", clf)
        loaded = load_classifier(tmp_path / "m.npz")
        assert isinstance(loaded, Classifier) and loaded.kind == kind
        assert loaded.encoder.config == clf.encoder.config
        before, after = stored_arrays(clf), stored_arrays(loaded)
        assert sorted(before) == sorted(after)
        for name, a in before.items():
            assert after[name].dtype == a.dtype, name
            assert after[name].shape == a.shape, name
            assert after[name].tobytes() == a.tobytes(), name

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


@pytest.mark.parametrize("source", ["built", "loaded"])
@pytest.mark.parametrize("kind", KINDS)
def test_predict_is_a_batch_of_one_row(tmp_path, rng, kind, source):
    clf, features = small_classifier(kind, rng)
    if source == "loaded":
        save_classifier(tmp_path / "m.npz", clf)
        clf = load_classifier(tmp_path / "m.npz")
    for x in features[:5]:
        prediction = clf.predict(x)
        assert type(prediction) is int and prediction == clf.predict_batch(x[None])[0]


def test_a_model_built_from_latents_is_a_classifier(rng):
    clf, _ = small_classifier("decohd", rng)
    assert isinstance(clf, DecoHDClassifier) and isinstance(clf, Classifier) and clf.kind == "decohd"
    assert [f.name for f in dataclasses.fields(clf)] == ["encoder", "standardizer", "scorer", "kind"]


@pytest.mark.parametrize("squared", [False, True], ids=["linear", "fenced"])
def test_a_container_keeps_the_score_form(tmp_path, rng, squared):
    built, features = small_classifier("decohd", rng)
    bank = ChannelBank(built.scorer.bank.channels, squared=squared)
    clf = Classifier(built.encoder, built.standardizer, DecomposedScorer(bank, built.scorer.head), "decohd")
    save_classifier(tmp_path / "m.npz", clf)
    loaded = load_classifier(tmp_path / "m.npz")
    assert loaded.scorer.bank.squared is squared
    h = clf.encoder.encode_batch(features, clf.standardizer)
    assert_same_bits(loaded.scorer.score_batch(h), clf.scorer.score_batch(h))


def test_a_container_without_a_score_form_is_refused(tmp_path, rng):
    clf, _ = small_classifier("decohd", rng)
    save_classifier(tmp_path / "m.npz", clf)
    meta, arrays = load_arrays(tmp_path / "m.npz")
    del meta["squared"]
    save_arrays(tmp_path / "m.npz", meta, arrays)
    with pytest.raises(ContainerError, match="decohd container has no entry 'squared'"):
        load_classifier(tmp_path / "m.npz")


def test_meta_is_stored_zero_dimensional(tmp_path, rng):
    clf, _ = small_classifier("prototype", rng)
    save_classifier(tmp_path / "m.npz", clf)
    with np.load(tmp_path / "m.npz") as data:
        assert data["__meta__"].shape == ()
    meta, _ = load_arrays(tmp_path / "m.npz")
    assert meta["kind"] == "prototype"


def test_encoder_meta_is_pinned(tmp_path, rng):
    # A field added to EncoderConfig changes what containers hold, so it
    # must come with a new FORMAT_VERSION and a change here.
    clf, _ = small_classifier("prototype", rng)
    save_classifier(tmp_path / "m.npz", clf)
    meta, _ = load_arrays(tmp_path / "m.npz")
    assert meta["format_version"] == 5
    assert meta["encoder"] == {"num_features": 6, "dim": 64, "seed": 4}


@pytest.mark.parametrize("kind", KINDS)
def test_container_meta_keys_are_pinned(tmp_path, rng, kind):
    clf, _ = small_classifier(kind, rng)
    save_classifier(tmp_path / "m.npz", clf)
    meta, _ = load_arrays(tmp_path / "m.npz")
    # A decomposed model names its score form (ChannelBank.squared).
    assert meta.keys() == {"format_version", "kind", "encoder"} | ({"squared"} if kind == "decohd" else set())


def test_sparse_container_arrays_are_pinned(tmp_path, rng):
    clf, _ = small_classifier("sparsehd", rng)
    save_classifier(tmp_path / "m.npz", clf)
    _, arrays = load_arrays(tmp_path / "m.npz")
    assert arrays.keys() == {"standardizer_mean", "standardizer_std", "table", "mask"}


def test_a_sparse_container_with_a_budget_key_scores_alike(tmp_path, rng):
    # Format-3 sparse containers once held the sparsified fraction under
    # "budget"; nothing reads it, so it loads and is ignored.
    clf, features = small_classifier("sparsehd", rng)
    save_classifier(tmp_path / "m.npz", clf)
    meta, arrays = load_arrays(tmp_path / "m.npz")
    save_arrays(tmp_path / "budget.npz", {**meta, "budget": 0.5}, arrays)
    plain, budgeted = load_classifier(tmp_path / "m.npz"), load_classifier(tmp_path / "budget.npz")
    h = plain.encoder.encode_batch(features, plain.standardizer)
    assert_same_bits(budgeted.scorer.score_batch(h), plain.scorer.score_batch(h))


def test_a_model_trained_on_float64_encodings_is_refused_before_a_file_exists(tmp_path, rng):
    # Its float64 channels would make a container load_classifier refuses.
    clf, _ = small_classifier("prototype", rng)
    train_ds, _ = make_synthetic(3, 6, 20, 3.0, seed=11)
    h = clf.encoder.encode_batch(train_ds.features, clf.standardizer).astype(np.float64)
    config = ModelConfig(channels_per_layer=(2, 3), latent_dim=8, dim=64, num_classes=3, seed=5)
    result = train(config, TrainConfig(epochs=1, batch_size=16, microbatch_size=8), h, train_ds.labels)
    trained = Classifier(clf.encoder, clf.standardizer, result.scorer, "decohd")
    with pytest.raises(ValueError, match="^channels:0 is float64, expected float32"):
        save_classifier(tmp_path / "m.npz", trained)
    assert not (tmp_path / "m.npz").exists()


def narrow_standardizer(meta, arrays):
    arrays["standardizer_mean"] = arrays["standardizer_mean"][:-1]


def narrow_channels(meta, arrays):
    arrays["channels:1"] = arrays["channels:1"][:, :-1]


def narrow_head(meta, arrays):
    arrays["head"] = arrays["head"][:, :-1]


def narrow_table(meta, arrays):
    arrays["table"] = arrays["table"][:, :-1]


def float64_table(meta, arrays):
    arrays["table"] = arrays["table"].astype(np.float64)


def full_width_table(meta, arrays):
    arrays["table"] = np.zeros((3, 64), dtype=np.float32)


def narrow_mask(meta, arrays):
    arrays["mask"] = arrays["mask"][:-1]


def integer_mask(meta, arrays):
    arrays["mask"] = arrays["mask"].astype(np.int64)


def empty_layer(meta, arrays):
    # A (0, D) channel and a (C, 0) head agree in shape, and make a model
    # that predicts class 0 for every row.
    arrays["channels:0"] = arrays["channels:0"][:0]
    arrays["head"] = arrays["head"][:, :0]


def no_classes(meta, arrays):
    arrays["table"] = arrays["table"][:0]


def empty_mask(meta, arrays):
    arrays["mask"] = np.zeros_like(arrays["mask"])
    arrays["table"] = arrays["table"][:, :0]


def zero_std(meta, arrays):
    arrays["standardizer_std"] = np.zeros_like(arrays["standardizer_std"])


def nan_std(meta, arrays):
    arrays["standardizer_std"][2] = np.nan


def inf_mean(meta, arrays):
    arrays["standardizer_mean"][0] = np.inf


def numeric_form(meta, arrays):
    meta["squared"] = 1


def encoder_record(key, value):
    def spoil(meta, arrays):
        meta["encoder"][key] = value
    return spoil


def encoder_without_seed(meta, arrays):
    del meta["encoder"]["seed"]


@pytest.mark.parametrize("kind, spoil, message", [
    ("decohd", narrow_standardizer, "standardizer shapes"),
    ("decohd", narrow_channels, r"channels:1 is float32 of shape \(3, 63\), expected float32 of shape \(rows, 64\)"),
    ("decohd", narrow_head, r"head is float32 of shape \(3, 5\), expected float32 of shape \(rows, 6\)"),
    ("prototype", narrow_table, r"table is float32 of shape \(3, 63\)"),
    ("sparsehd", float64_table, r"table is float64 of shape \(3, 32\)"),
    ("sparsehd", full_width_table, r"table is float32 of shape \(3, 64\), expected float32 of shape \(rows, 32\)"),
    ("sparsehd", narrow_mask, r"mask is bool of shape \(63,\)"),
    ("sparsehd", integer_mask, r"mask is int64 of shape \(64,\)"),
    ("decohd", empty_layer, r"channels:0 is float32 of shape \(0, 64\), expected .* rows >= 1"),
    ("prototype", no_classes, r"table is float32 of shape \(0, 64\), expected .* rows >= 1"),
    ("sparsehd", empty_mask, r"mask is bool of shape \(64,\) with 0 set"),
    ("decohd", zero_std, "standardizer std is not finite and positive"),
    ("prototype", nan_std, "standardizer std is not finite and positive"),
    ("sparsehd", inf_mean, "standardizer mean is not finite"),
    ("decohd", numeric_form, "squared is 1, expected true or false"),
    ("decohd", encoder_record("seed", 7.9), "encoder seed is 7.9, expected an integer"),
    ("prototype", encoder_record("seed", "7"), "encoder seed is '7', expected an integer"),
    ("sparsehd", encoder_record("seed", True), "encoder seed is True, expected an integer"),
    ("decohd", encoder_record("dim", 64.0), r"encoder dim is 64\.0, expected an integer"),
    ("prototype", encoder_record("num_features", True), "encoder num_features is True, expected an integer"),
    ("decohd", encoder_record("normalize_output", True), "unexpected keyword argument 'normalize_output'"),
    ("decohd", encoder_without_seed, "decohd container has no entry 'seed'"),
], ids=["standardizer", "dim", "head", "table", "float64_table", "full_width_table", "narrow_mask",
        "integer_mask", "empty_layer", "no_classes", "empty_mask", "zero_std", "nan_std", "inf_mean", "numeric_form", "float_seed", "string_seed",
        "bool_seed", "float_dim", "bool_num_features", "normalize_key",
        "no_seed"])
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


def test_sparse_container_stores_only_its_retained_columns(tmp_path, rng):
    # The table is stored as the scorer holds it, C x retained; a loaded
    # scorer holds that table and the mask, nothing full-width.
    clf, features = small_classifier("sparsehd", rng)
    save_classifier(tmp_path / "m.npz", clf)
    _, arrays = load_arrays(tmp_path / "m.npz")
    assert arrays["table"].shape == (3, arrays["mask"].sum()) == (3, 32)
    loaded = load_classifier(tmp_path / "m.npz")
    held = [v for v in vars(loaded.scorer).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in held) == loaded.scorer.prototypes.nbytes + loaded.scorer.mask.nbytes
    np.testing.assert_array_equal(loaded.predict_batch(features), clf.predict_batch(features))


@pytest.mark.parametrize("kind", KINDS)
def test_loading_draws_nothing_until_the_model_encodes(tmp_path, rng, monkeypatch, kind):
    # A container holds no encoder matrix and loading draws none; the
    # loaded model's first prediction draws it once, bit-equal to its spec's draw.
    clf, features = small_classifier(kind, rng)
    save_classifier(tmp_path / "m.npz", clf)
    drawn = []

    def draw(spec, dtype):
        drawn.append(generate_matrix(spec, dtype=dtype))
        return drawn[-1]

    monkeypatch.setattr(encoding, "generate_matrix", draw)
    loaded = load_classifier(tmp_path / "m.npz")
    assert drawn == []
    loaded.predict_batch(features)
    loaded.predict(features[0])
    assert len(drawn) == 1
    assert_same_bits(drawn[0], generate_matrix(clf.encoder.config.matrix_spec(), dtype=np.float32))
