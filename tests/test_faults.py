import numpy as np
import pytest

from decohd import faults
from decohd.faults import NoiseSpec, flip_float32_bits, inject_bitflips
from decohd.ops import rng_from_seed
from tests.conftest import assert_same_bits, deployed_forms

KINDS = ("decohd", "prototype", "sparsehd")


def words(scorer) -> dict[str, np.ndarray]:
    """The raw bits of every array a deployed scorer holds."""
    if hasattr(scorer, "bank"):
        out = {f"channels{i}": c for i, c in enumerate(scorer.bank.channels)}
        out["head"] = scorer.head
    else:
        out = {"prototypes": scorer.prototypes}
    return {k: np.ascontiguousarray(a).view(np.uint32) for k, a in out.items()}


def assert_same_words(a, b):
    wa, wb = words(a), words(b)
    assert sorted(wa) == sorted(wb)
    for k in wa:
        np.testing.assert_array_equal(wa[k], wb[k], err_msg=k)


@pytest.mark.parametrize("kind", KINDS)
class TestBitflipLimits:
    def test_zero_rate_is_identity(self, rng, kind):
        scorer = deployed_forms(rng)[kind]
        out = inject_bitflips(scorer, NoiseSpec(0.0, seed=7))
        assert type(out) is type(scorer)
        assert_same_words(out, scorer)

    def test_unit_rate_is_an_involution(self, rng, kind):
        scorer = deployed_forms(rng)[kind]
        once = inject_bitflips(scorer, NoiseSpec(1.0, seed=7))
        for k, w in words(once).items():
            assert not np.array_equal(w, words(scorer)[k]), k
        assert_same_words(inject_bitflips(once, NoiseSpec(1.0, seed=7)), scorer)

    def test_seeded(self, rng, kind):
        scorer = deployed_forms(rng)[kind]
        a = inject_bitflips(scorer, NoiseSpec(1e-2, seed=3))
        assert_same_words(a, inject_bitflips(scorer, NoiseSpec(1e-2, seed=3)))


def test_unit_rate_inverts_every_decomposed_word(rng):
    scorer = deployed_forms(rng)["decohd"]
    flipped = words(inject_bitflips(scorer, NoiseSpec(1.0, seed=1)))
    for k, w in words(scorer).items():
        np.testing.assert_array_equal(flipped[k], ~w, err_msg=k)


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(1.5)
    with pytest.raises(TypeError):  # the only target is the stored parameters
        NoiseSpec(0.1, target="encodings")


def test_zero_rate_copies_without_drawing(monkeypatch):
    seeds = []

    def counting(seed):
        seeds.append(seed)
        return rng_from_seed(seed)

    monkeypatch.setattr(faults, "rng_from_seed", counting)
    a = np.array([[1.5, -0.0, 3e-45], [np.inf, np.nan, -2.0]], dtype=np.float32)
    a.view(np.uint32)[1, 1] = 0x7FA00001  # a signalling NaN keeps its payload
    out = flip_float32_bits(a, 0.0, 11)
    assert_same_bits(out, a)
    assert not np.shares_memory(out, a)
    assert seeds == []
    flip_float32_bits(a, 1e-3, 11)
    assert seeds == [11]
