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


class TestBudgetQuery:
    @pytest.mark.parametrize("grid", [
        {"latent_dims": (0,)}, {"latent_dims": (-5,)}, {"latent_dims": ()},
        {"layer_counts": (0,)}, {"layer_counts": (-1,)}, {"layer_counts": (1, 0)}, {"layer_counts": ()},
    ], ids=["d0", "d-5", "d-empty", "layers0", "layers-1", "layers1-0", "layers-empty"])
    def test_refuses_grid_entries_below_one(self, grid):
        with pytest.raises(ValueError, match="must be >= 1|invalid grid bounds"):
            BudgetQuery(m_target=0.5, num_classes=3, dim=64, **grid)

    @pytest.mark.parametrize("shape", [{"num_classes": 0}, {"dim": 0}], ids=["classes0", "dim0"])
    def test_refuses_a_class_count_or_dim_below_one(self, shape):
        with pytest.raises(ValueError, match="^num_classes and dim must be >= 1$"):
            BudgetQuery(**{"m_target": 0.5, "num_classes": 3, "dim": 64, **shape})

    @pytest.mark.parametrize("grid", [{"layer_counts": (1, 1)}, {"latent_dims": (64, 64)}],
                             ids=["layers-repeated", "d-repeated"])
    def test_refuses_a_repeated_grid_value(self, grid):
        # A repeated value would list each of its configurations again.
        with pytest.raises(ValueError, match="a grid repeats a value"):
            BudgetQuery(m_target=0.5, num_classes=3, dim=64, **grid)

    def test_smallest_grid_is_accepted(self):
        reports = enumerate_configs(BudgetQuery(m_target=10.0, num_classes=3, dim=64, layer_counts=(1,),
                                                max_channels=1, latent_dims=(1,)))
        assert [(r.channels_per_layer, r.latent_dim) for r in reports] == [((1,), 1)]


class TestBudgetOf:
    def test_decomposed_equals_footprint(self, rng):
        scorer = deployed_forms(rng, channels=(2, 3), dim=48, num_classes=4)["decohd"]
        assert budget_of(scorer) == footprint(4, 48, (2, 3))

    def test_sparse_is_retained_fraction(self, rng):
        scorer = deployed_forms(rng, dim=48)["sparsehd"]
        assert budget_of(scorer) == scorer.prototypes.shape[1] / 48 == 0.5

    def test_prototype_is_one(self, rng):
        assert budget_of(deployed_forms(rng)["prototype"]) == 1.0
