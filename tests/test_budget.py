from itertools import product

import numpy as np
import pytest

from decohd import budget
from decohd.budget import BudgetQuery, budget_of, enumerate_configs
from decohd.model import ModelConfig
from decohd.training import TrainConfig, train
from tests.conftest import deployed_forms


class TestFootprint:
    # ModelConfig(channels_per_layer, latent_dim, dim, num_classes)
    def test_isolet_shape_by_hand(self):
        # C=26, D=10000, channels (4,4,4): M=64 paths, 12 channels.
        # (26*64 + 12*10000) / (26*10000) = 121664 / 260000
        assert ModelConfig((4, 4, 4), 4096, 10000, 26).footprint == 121664 / 260000

    def test_small_shape_by_hand(self):
        # C=10, D=100, channels (2,3): M=6, 5 channels; (60 + 500) / 1000
        assert ModelConfig((2, 3), 8, 100, 10).footprint == 0.56

    def test_degenerate_shape_reported_as_is(self):
        # C=2, D=4, one layer of 3: (6 + 12) / 8
        assert ModelConfig((3,), 1, 4, 2).footprint == 2.25

    def test_invalid(self):
        with pytest.raises(ValueError):
            ModelConfig((0,), 1, 4, 2)

    def test_trainable_params_by_hand(self):
        # C=10, channels (2,3), latent_dim 8: 5 latents of 8, and a 10 x 6 head; 40 + 60
        assert ModelConfig((2, 3), 8, 100, 10).trainable_params == 100

    def test_enumerate_respects_target(self):
        reports = enumerate_configs(BudgetQuery(m_target=0.1, num_classes=26, dim=10000, latent_dims=(64,)))
        assert reports and all(r.footprint <= 0.1 for r in reports)


class TestEnumerateConfigs:
    @pytest.mark.parametrize("query", [
        BudgetQuery(0.5, 3, 64, (1, 2, 3), 5, (8, 16)),
        BudgetQuery(10.0, 3, 64, (1, 2, 3, 4), 4, (1,)),
        BudgetQuery(0.05, 26, 10000, (3, 1, 2), 5, (4096,)),
        BudgetQuery(1.0, 10, 617, (2, 4, 1), 6, (64, 32)),
        BudgetQuery(0.01, 26, 10000, (1, 2), 3, (4096,)),
    ], ids=["small", "everything-fits", "isolet", "unsorted-grids", "nothing-fits"])
    def test_equals_a_filter_over_every_tuple(self, query):
        grid = [ModelConfig(t, d, query.dim, query.num_classes) for n in query.layer_counts
                for t in product(range(1, query.max_channels + 1), repeat=n) for d in query.latent_dims]
        fitting = [c for c in grid if c.footprint <= query.m_target]
        fitting.sort(key=lambda c: (-c.num_paths, c.footprint, c.channels_per_layer, c.latent_dim))
        assert enumerate_configs(query) == fitting

    def test_builds_configs_only_along_fitting_prefixes(self, monkeypatch):
        # The grid has 271,452 tuples at up to five layers of twelve
        # channels; 119 of them fit.
        built = []

        class Counting(ModelConfig):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(budget, "ModelConfig", Counting)
        configs = enumerate_configs(BudgetQuery(0.3, 26, 10000, (1, 2, 3, 4, 5), 12, (4096,)))
        assert len(configs) == 119 and len(built) < 5000


class TestBudgetQuery:
    @pytest.mark.parametrize("grid", [
        {"latent_dims": (0,)}, {"latent_dims": (-5,)}, {"latent_dims": ()},
        {"layer_counts": (0,)}, {"layer_counts": (-1,)}, {"layer_counts": (1, 0)}, {"layer_counts": ()},
    ], ids=["d0", "d-5", "d-empty", "layers0", "layers-1", "layers1-0", "layers-empty"])
    def test_refuses_grid_entries_below_one(self, grid):
        with pytest.raises(ValueError, match="must be >= 1|invalid grid bounds"):
            BudgetQuery(m_target=0.5, num_classes=3, dim=64, **grid)

    @pytest.mark.parametrize("shape, message", [
        ({"num_classes": 0}, "num_classes must be >= 2"), ({"num_classes": 1}, "num_classes must be >= 2"),
        ({"dim": 0}, "latent_dim and dim must be >= 1"),
    ], ids=["classes0", "classes1", "dim0"])
    def test_refuses_a_class_count_or_dim_below_one(self, shape, message):
        # ModelConfig's rule: no model has one class.
        with pytest.raises(ValueError, match=f"^{message}$"):
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

    def test_a_planned_config_trains_as_it_is(self, rng):
        query = BudgetQuery(m_target=1.5, num_classes=3, dim=64, layer_counts=(1, 2), max_channels=2,
                            latent_dims=(8,))
        config = enumerate_configs(query)[0]
        assert config == ModelConfig((2, 2), 8, 64, 3)  # the most paths: (12 + 4*64) / 192 <= 1.5
        h = rng.standard_normal((12, 64))
        result = train(config, TrainConfig(epochs=2, batch_size=4), h, np.arange(12) % 3)
        assert [a.shape for a in result.params.arrays()] == [(2, 8), (2, 8), (3, 4)]
        assert budget_of(result.scorer) == config.footprint


class TestBudgetOf:
    def test_decomposed_equals_footprint(self, rng):
        scorer = deployed_forms(rng, channels=(2, 3), dim=48, num_classes=4)["decohd"]
        assert budget_of(scorer) == ModelConfig((2, 3), 1, 48, 4).footprint

    def test_sparse_is_retained_fraction(self, rng):
        scorer = deployed_forms(rng, dim=48)["sparsehd"]
        assert budget_of(scorer) == scorer.prototypes.shape[1] / 48 == 0.5

    def test_prototype_is_one(self, rng):
        assert budget_of(deployed_forms(rng)["prototype"]) == 1.0
