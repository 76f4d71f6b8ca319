import pytest

from decohd import budget_of
from decohd.budget import BudgetQuery, enumerate_configs, footprint
from tests.conftest import deployed_forms


class TestFootprint:
    def test_isolet_shape_by_hand(self):
        # C=26, D=10000, channels (4,4,4): M=64 paths, 12 channels.
        # (26*64 + 12*10000) / (26*10000) = 121664 / 260000
        assert footprint(26, 10000, (4, 4, 4)) == 121664 / 260000

    def test_small_shape_by_hand(self):
        # C=10, D=100, channels (2,3): M=6, 5 channels; (60 + 500) / 1000
        assert footprint(10, 100, (2, 3)) == 0.56

    def test_degenerate_shape_reported_as_is(self):
        # C=2, D=4, one layer of 3: (6 + 12) / 8
        assert footprint(2, 4, (3,)) == 2.25

    def test_invalid(self):
        with pytest.raises(ValueError):
            footprint(2, 4, (0,))

    def test_enumerate_respects_target(self):
        reports = enumerate_configs(BudgetQuery(m_target=0.1, num_classes=26, dim=10000, latent_dims=(64,)))
        assert reports and all(r.footprint <= 0.1 for r in reports)


class TestBudgetOf:
    def test_decomposed_equals_footprint(self, rng):
        scorer = deployed_forms(rng, channels=(2, 3), dim=48, num_classes=4)["decohd"]
        assert budget_of(scorer) == footprint(4, 48, (2, 3))

    def test_sparse_is_retained_fraction(self, rng):
        scorer = deployed_forms(rng, dim=48)["sparsehd"]
        assert budget_of(scorer) == scorer.table.shape[1] / 48 == 0.5

    def test_prototype_is_one(self, rng):
        assert budget_of(deployed_forms(rng)["prototype"]) == 1.0
