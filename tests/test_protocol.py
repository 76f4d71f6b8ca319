"""The deployed-scorer protocol shared by the decomposed scorer and the
prototype table, dense or sparsified, and the package's bare top level."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import decohd
from decohd import inference
from decohd.baselines import PrototypeTable
from decohd.faults import flip_float32_bits, inject_bitflips
from decohd.inference import DecomposedScorer
from decohd.model import ChannelBank
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
    "flip_p0": lambda s: inject_bitflips(s, 0.0, 5),
    "flip_p1e-3": lambda s: inject_bitflips(s, 1e-3, 5),
    "flip_p1": lambda s: inject_bitflips(s, 1.0, 5),
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

    def test_benchmark_counts_the_stored_words(self, rng, kind):
        # The benchmark's faults.inject_bitflips.bits counter is 32 times
        # this count, read from the scorer's fields rather than stored().
        from perfbench.tracer import _stored_elements

        scorer = deployed_forms(rng)[kind]
        assert _stored_elements(scorer) == sum(a.size for a in scorer.stored().values())


@pytest.mark.parametrize("rewrite", [lambda s: s.replace(s.stored()), *REWRITES.values()],
                         ids=["replace", *REWRITES])
@pytest.mark.parametrize("squared", [False, True], ids=["linear", "fenced"])
def test_a_rewrite_keeps_the_score_form(rng, rewrite, squared):
    # A quantized or bit-flipped copy of the fenced bank still scores h*h.
    scorer = deployed_forms(rng)["decohd"]
    scorer = DecomposedScorer(ChannelBank(scorer.bank.channels, squared=squared), scorer.head)
    assert rewrite(scorer).bank.squared is squared


def test_flip_streams_keep_their_seed_tokens(rng):
    # derive_seed joins tokens with ":", so the key "channels:1" draws the
    # stream that ("channels", 1) always named; corrupted models stay
    # reproducible across the change to stored() keys.
    forms = deployed_forms(rng)
    out = inject_bitflips(forms["decohd"], 1e-2, 9)
    for i, c in enumerate(forms["decohd"].bank.channels):
        expected = flip_float32_bits(c, 1e-2, derive_seed(9, "bits", "channels", i))
        np.testing.assert_array_equal(bits(out.bank.channels[i]), bits(expected))
    np.testing.assert_array_equal(
        bits(out.head), bits(flip_float32_bits(forms["decohd"].head, 1e-2, derive_seed(9, "bits", "head")))
    )
    table = inject_bitflips(forms["prototype"], 1e-2, 9).prototypes
    expected = flip_float32_bits(forms["prototype"].prototypes, 1e-2, derive_seed(9, "bits", "table"))
    np.testing.assert_array_equal(bits(table), bits(expected))


class TestSparseStored:
    def test_excludes_masked_out_columns(self, rng):
        forms = deployed_forms(rng, dim=48)
        scorer = forms["sparsehd"]
        table = scorer.stored()["table"]
        assert table is scorer.prototypes
        assert table.shape == (scorer.num_classes, scorer.mask.sum()) == (4, 24)
        np.testing.assert_array_equal(table, forms["prototype"].prototypes[:, scorer.mask])

    def test_unit_flip_leaves_masked_out_columns(self, rng):
        # Only retained words are held, so a unit flip inverts them all
        # and leaves the mask, the choice of columns, as it was.
        scorer = deployed_forms(rng)["sparsehd"]
        out = inject_bitflips(scorer, 1.0, 2)
        assert out.mask is scorer.mask
        np.testing.assert_array_equal(bits(out.prototypes), ~bits(scorer.prototypes))

    def test_sparse_scorer_holds_one_table(self, rng):
        forms = deployed_forms(rng)
        scorer = forms["sparsehd"]
        held = [v for v in vars(scorer).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in held) == scorer.prototypes.nbytes + scorer.mask.nbytes
        assert scorer.prototypes.shape == (scorer.num_classes, scorer.mask.sum())
        h = rng.standard_normal((9, scorer.dim)).astype(np.float32)
        scores = scorer.score_batch(h)
        np.testing.assert_array_equal(bits(scores), bits(h[:, scorer.mask] @ scorer.prototypes.T))
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
        np.testing.assert_array_equal(bits(out.prototypes), bits(whole[:, scorer.mask]))
        expected = PrototypeTable(np.ascontiguousarray(whole[:, scorer.mask]), scorer.mask)
        np.testing.assert_array_equal(bits(out.score_batch(h)), bits(expected.score_batch(h)))


def test_the_top_level_loads_no_submodule_and_exposes_no_name():
    # Every public name has one import path, its defining module, so a
    # fresh interpreter's ``import decohd`` loads the package alone.
    code = ("import sys, decohd; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'decohd')); "
            "print(sorted(n for n in vars(decohd) if not n.startswith('_')))")
    src = str(Path(decohd.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["['decohd']", "[]"]


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
