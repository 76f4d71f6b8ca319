"""The deployed-scorer protocol shared by the decomposed, prototype and
sparse forms, and the package's public surface."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import decohd
from decohd import inference
from decohd.baselines import SparseScorer
from decohd.faults import NoiseSpec, flip_float32_bits, inject_bitflips
from decohd.ops import derive_seed
from decohd.precision import quantize_array, quantize_model
from tests.conftest import deployed_forms

KINDS = ("decohd", "prototype", "sparsehd")
STORED_KEYS = {
    "decohd": ["channels:0", "channels:1", "head"],
    "prototype": ["table"],
    "sparsehd": ["table"],
}
REWRITES = {
    "fp32": lambda s: quantize_model(s, "fp32"),
    "bf16": lambda s: quantize_model(s, "bf16"),
    "fp4": lambda s: quantize_model(s, "fp4_e2m1"),
    "flip_p0": lambda s: inject_bitflips(s, NoiseSpec(0.0, seed=5)),
    "flip_p1e-3": lambda s: inject_bitflips(s, NoiseSpec(1e-3, seed=5)),
    "flip_p1": lambda s: inject_bitflips(s, NoiseSpec(1.0, seed=5)),
}


def bits(a):
    return np.ascontiguousarray(a).view(np.uint32)


@pytest.mark.parametrize("kind", KINDS)
class TestProtocol:
    def test_replace_of_stored_scores_bitwise_equal(self, rng, kind):
        scorer = deployed_forms(rng)[kind]
        h = rng.standard_normal((9, scorer.dim)).astype(np.float32)
        again = scorer.replace(scorer.stored())
        assert type(again) is type(scorer)
        np.testing.assert_array_equal(bits(again.score_batch(h)), bits(scorer.score_batch(h)))

    def test_stored_keys_are_the_stream_tokens(self, rng, kind):
        assert sorted(deployed_forms(rng)[kind].stored()) == STORED_KEYS[kind]

    def test_shape_members(self, rng, kind):
        scorer = deployed_forms(rng, dim=40, num_classes=3)[kind]
        assert (scorer.num_classes, scorer.dim) == (3, 40)
        assert scorer.score_batch(np.ones((2, 40), dtype=np.float32)).shape == (2, 3)

    @pytest.mark.parametrize("rewrite", list(REWRITES))
    def test_rewrite_keeps_type_and_keys(self, rng, kind, rewrite):
        scorer = deployed_forms(rng)[kind]
        out = REWRITES[rewrite](scorer)
        assert type(out) is type(scorer)
        assert sorted(out.stored()) == sorted(scorer.stored())
        for key, a in out.stored().items():
            assert a.dtype == np.float32 and a.shape == scorer.stored()[key].shape, key


def test_flip_streams_keep_their_seed_tokens(rng):
    # derive_seed joins tokens with ":", so the key "channels:1" draws the
    # stream that ("channels", 1) always named; corrupted models stay
    # reproducible across the change to stored() keys.
    forms = deployed_forms(rng)
    spec = NoiseSpec(1e-2, seed=9)
    out = inject_bitflips(forms["decohd"], spec)
    for i, c in enumerate(forms["decohd"].bank.channels):
        expected = flip_float32_bits(c, 1e-2, derive_seed(9, "bits", "channels", i))
        np.testing.assert_array_equal(bits(out.bank.channels[i]), bits(expected))
    np.testing.assert_array_equal(
        bits(out.head), bits(flip_float32_bits(forms["decohd"].head, 1e-2, derive_seed(9, "bits", "head")))
    )
    table = inject_bitflips(forms["prototype"], spec).prototypes
    expected = flip_float32_bits(forms["prototype"].prototypes, 1e-2, derive_seed(9, "bits", "table"))
    np.testing.assert_array_equal(bits(table), bits(expected))


class TestSparseStored:
    def test_excludes_masked_out_columns(self, rng):
        forms = deployed_forms(rng, dim=48)
        scorer = forms["sparsehd"]
        table = scorer.stored()["table"]
        assert table is scorer.table
        assert table.shape == (scorer.num_classes, scorer.mask.sum()) == (4, 24)
        np.testing.assert_array_equal(table, forms["prototype"].prototypes[:, scorer.mask])

    def test_unit_flip_leaves_masked_out_columns(self, rng):
        # Only retained words are held, so a unit flip inverts them all
        # and leaves the mask, the choice of columns, as it was.
        scorer = deployed_forms(rng)["sparsehd"]
        out = inject_bitflips(scorer, NoiseSpec(1.0, seed=2))
        assert out.mask is scorer.mask
        np.testing.assert_array_equal(bits(out.table), ~bits(scorer.table))

    def test_sparse_scorer_holds_one_table(self, rng):
        forms = deployed_forms(rng)
        scorer = forms["sparsehd"]
        held = [v for v in vars(scorer).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in held) == scorer.table.nbytes + scorer.mask.nbytes
        assert scorer.table.shape == (scorer.num_classes, scorer.mask.sum())
        h = rng.standard_normal((9, scorer.dim)).astype(np.float32)
        scores = scorer.score_batch(h)
        np.testing.assert_array_equal(bits(scores), bits(h[:, scorer.mask] @ scorer.table.T))
        # The masked full-table product sums dim float32 terms, so each
        # of the two products is within dim * 2**-24 * sum |h_j P_cj| of
        # the exact score.
        masked = forms["prototype"].prototypes * scorer.mask
        bound = 2 * scorer.dim * 2.0**-24 * (np.abs(h).astype(np.float64) @ np.abs(masked).T)
        assert np.all(np.abs(scores - (h @ masked.T).astype(np.float64)) <= bound)

    @pytest.mark.parametrize("fmt", ["bf16", "fp8_e4m3fn", "fp4_e2m1"])
    def test_quantizing_retained_columns_scores_like_the_whole_table(self, rng, fmt):
        forms = deployed_forms(rng)
        scorer = forms["sparsehd"]
        h = rng.standard_normal((9, scorer.dim)).astype(np.float32)
        whole = quantize_array(forms["prototype"].prototypes, fmt)
        out = quantize_model(scorer, fmt)
        np.testing.assert_array_equal(bits(out.table), bits(whole[:, scorer.mask]))
        expected = SparseScorer(np.ascontiguousarray(whole[:, scorer.mask]), scorer.mask)
        np.testing.assert_array_equal(bits(out.score_batch(h)), bits(expected.score_batch(h)))


PUBLIC_SURFACE = [
    "BudgetQuery", "BudgetReport", "Classifier", "Dataset", "DecomposedScorer",
    "EncoderConfig", "ModelConfig", "ModelParams", "NoiseSpec",
    "PRESETS", "PrecisionFormat", "PrototypeTable", "RandomProjectionEncoder",
    "SparseScorer", "Standardizer", "TrainConfig", "budget_of", "build_prototype_table",
    "enumerate_configs", "fit_standardizer", "footprint", "inject_bitflips",
    "load_classifier", "load_csv", "make_synthetic", "onlinehd_refine",
    "pick_class", "quantize_model", "robustness_sweep",
    "save_classifier", "sparsify_table", "train", "trainable_param_savings",
]


def test_public_surface_is_pinned():
    assert sorted(decohd.__all__) == sorted(PUBLIC_SURFACE)
    for name in decohd.__all__:
        assert getattr(decohd, name) is not None, name


def test_package_version_matches_pyproject():
    # A manifest's package_version tells apart runs whose equal configs
    # train different channels, so the two version strings must agree.
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    match = re.search(r'^version = "([^"]+)"$', pyproject.read_text(encoding="utf-8"), re.MULTILINE)
    assert match is not None and match.group(1) == decohd.__version__


def test_benchmark_finds_every_layer_it_traces():
    # perfbench wraps package functions by name; a refactor that deleted
    # or renamed one would otherwise show only as an absent layer in a
    # benchmark report.
    from perfbench.tracer import Tracer

    original = inference.score_batch
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    assert inference.score_batch is original


def test_no_module_imports_a_sibling_private_name():
    # A name with one leading underscore belongs to its own module; a
    # module that needs one from a sibling shows a decision leaking across
    # them.  Dunders such as __version__ are public.
    leaks = []
    for path in sorted(Path(decohd.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("decohd")):
                leaks += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert leaks == []
