"""The deployed-scorer protocol shared by the decomposed scorer and the
prototype table, dense or sparsified, and the package's bare top level."""

import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import decohd
from decohd import inference, model
from decohd.baselines import PrototypeTable
from decohd.faults import flip_float32_bits, inject_bitflips
from decohd.inference import DecomposedScorer
from decohd.model import ChannelBank
from decohd.ops import derive_seed
from decohd.precision import quantize_array, quantize_model
from tests.conftest import assert_same_bits, deployed_forms

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


def stack_variants(rng, case, dim):
    """Variants of one scorer as a stack takes them, by *case*: a dense or
    masked table and rewritten copies; a linear decohd with finite P; one
    with an inf channel entry beside it; one whose P is finite but whose
    scores overflow; a fenced bank; and every linear decohd form at once."""
    forms = deployed_forms(rng, channels=(2, 3), dim=dim)
    if case in ("dense", "masked"):
        table = forms["prototype" if case == "dense" else "sparsehd"]
        return [table, table.replace({"table": table.prototypes * 0.5}), inject_bitflips(table, 1e-3, 1)]
    scorer = forms["decohd"]
    linear = [scorer, scorer.replace({k: -a for k, a in scorer.stored().items()})]
    channels = [c.copy() for c in scorer.bank.channels]
    channels[0][1, 5] = np.inf
    inf_channel = DecomposedScorer(ChannelBank(channels), scorer.head)
    big = [np.full_like(c, 1e19) for c in scorer.bank.channels]  # basis 1e38, P 3e38: finite
    overflow = DecomposedScorer(ChannelBank(big), np.full_like(scorer.head, 0.5))
    fenced = [DecomposedScorer(ChannelBank(s.bank.channels, squared=True), s.head) for s in linear + [overflow]]
    return {"linear": linear, "inf_channel": linear + [inf_channel, inf_channel.replace(inf_channel.stored())],
            "overflow": [overflow, *linear, overflow.replace(overflow.stored())], "fenced": fenced,
            "every_form": [inf_channel, *linear, overflow, inf_channel.replace(inf_channel.stored())]}[case]


class TestScoreStack:
    """``type(scorer).score_stack(variants, h)`` scores several variants
    of one scorer in one product, equal to each variant's own
    ``score_batch``; ``score_batch`` is its one-scorer case.

    That equality rests on which kernels BLAS picks by product size
    (``decohd.model.stack_rows``), a rule measured on ``MEASURED_BLAS``
    only.  ``BLAS`` is the one numpy was built with, from its
    ``show_config``; a failure names both, so that a difference on
    another BLAS reads as a platform difference."""

    MEASURED_BLAS = "scipy-openblas 0.3.31"
    BLAS = "{name} {version}".format_map(
        {"name": "unknown", "version": "", **np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})})

    def assert_stacked_bits(self, stacked, expected):
        try:
            assert_same_bits(stacked, expected)
        except AssertionError as e:
            raise AssertionError(f"stacked scores differ from score_batch on {self.BLAS}; "
                                 f"stack_rows's kernel rule was measured on {self.MEASURED_BLAS} only") from e

    @pytest.mark.parametrize("n", [1, 7, 300], ids=["one_row", "small", "stacked"])
    @pytest.mark.parametrize("case", ["dense", "masked", "linear", "inf_channel", "overflow", "fenced", "every_form"])
    def test_equals_each_score_batch(self, rng, case, n):
        # At n=300 and D=2048 every product exceeds BLAS's small-matrix
        # size, so the variants stack; a one-row or small input scores
        # each alone (decohd.model.stack_rows).
        variants = stack_variants(rng, case, dim=2048)
        h = rng.standard_normal((n, 2048)).astype(np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            if case == "overflow":
                assert np.isfinite(variants[0]._prototypes).all()
                assert not np.isfinite(h @ variants[0]._prototypes.T).all()
        stacked = list(type(variants[0]).score_stack(iter(variants), h))
        assert len(stacked) == len(variants)
        kept = [hasattr(v, "bank") and "basis" in vars(v.bank) for v in variants]
        for v, scores in zip(variants, stacked):
            self.assert_stacked_bits(scores, v.score_batch(h))
        if n == 300 and case in ("dense", "masked", "linear"):
            assert all(s.base is not None and s.base is stacked[0].base for s in stacked)  # columns of one product
        if case == "fenced":  # a stacked bank's basis is built into the stack, not kept
            assert kept == [n != 300] * len(variants)

    def test_stacks_hold_at_most_the_cap_and_are_taken_lazily(self):
        pulled, groups = [], []

        def variants():
            for r in (3, 3, math.inf, 2, 639, 1, 700, 5):
                pulled.append(r)
                yield r

        def score(group):
            groups.append((list(group), len(pulled)))
            return group

        assert list(model.in_stacks(variants(), lambda r: r, score)) == [3, 3, math.inf, 2, 639, 1, 700, 5]
        assert model.STACK_ROWS == 640
        # Each group is scored once the variant after it is pulled.
        assert groups == [([3, 3], 3), ([math.inf], 4), ([2], 5), ([639, 1], 7), ([700], 8), ([5], 8)]

    @pytest.mark.parametrize("n, rows, width, stacked", [
        (1, 26, 10**6, False), (2, 1, 10**6, False), (40, 5, 5000, False), (40, 5, 5001, True), (1040, 26, 10000, True),
    ])
    def test_only_blocked_products_stack(self, n, rows, width, stacked):
        # One row or column, or at most 10**6 multiply-accumulates, takes
        # another BLAS kernel than a stacked product.
        assert model.stack_rows(n, rows, width) == (rows if stacked else math.inf)


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
