"""Memory-budget planning for the decomposed architecture.

A candidate is a :class:`~decohd.model.ModelConfig`, which states both
sizes a budget weighs.  :attr:`~decohd.model.ModelConfig.footprint` is
the normalized footprint relative to a dense ``num_classes x dim``
prototype table,

    m = (C * M + L_tot * D) / (C * D)

with ``M = prod(L_i)`` paths and ``L_tot = sum(L_i)`` channels counted at
full dimension D.  :attr:`~decohd.model.ModelConfig.trainable_params` is
a separate accounting: ``sum(L_i) * latent_dim + C * M`` (latents live at
latent_dim, not D).  Both are reported because they answer different
questions: deployment storage versus optimization size.

:func:`budget_of` measures the same ratio on any deployed scorer by
counting the elements it stores, so a decomposed scorer gives its
footprint and a prototype table its retained fraction: 1 without a
mask.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModelConfig


def budget_of(scorer) -> float:
    """Stored elements of a deployed scorer relative to a dense C x dim
    table."""
    stored = sum(a.size for a in scorer.stored().values())
    return stored / (scorer.num_classes * scorer.dim)


@dataclass(frozen=True)
class BudgetQuery:
    m_target: float
    num_classes: int
    dim: int
    layer_counts: tuple[int, ...] = (1, 2, 3)
    max_channels: int = 5
    latent_dims: tuple[int, ...] = (4096,)

    def __post_init__(self):
        if not 0.0 < self.m_target:
            raise ValueError("m_target must be positive")
        ModelConfig((1,), 1, self.dim, self.num_classes)  # a class count and dim some model can have
        if self.max_channels < 1 or not self.layer_counts or not self.latent_dims:
            raise ValueError("invalid grid bounds")
        if min(self.layer_counts) < 1 or min(self.latent_dims) < 1:
            raise ValueError("layer counts and latent dims must be >= 1")
        if any(len(set(grid)) < len(grid) for grid in (self.layer_counts, self.latent_dims)):
            raise ValueError(f"a grid repeats a value: layers {self.layer_counts}, latent dims {self.latent_dims}")


def enumerate_configs(query: BudgetQuery) -> list[ModelConfig]:
    """All grid configurations within the budget, each a seed-0
    :class:`~decohd.model.ModelConfig` that :func:`~decohd.training.train`
    takes as it is.

    The grid spans ordered tuples (so (2,3) and (3,2) are distinct
    configs) of per-layer channel counts in 1..max_channels for every
    layer count, crossed with the latent-dim options.  Results are
    sorted by descending path count (representational capacity), then
    ascending footprint; an empty list is a valid result.
    """
    configs = []
    for n in query.layer_counts:
        kept = [()]  # prefixes that fit with one channel in each layer left, at any latent_dim
        for left in reversed(range(n)):
            kept = [s + (c,) for s in kept for c in range(1, query.max_channels + 1)
                    if ModelConfig(s + (c,) + (1,) * left, 1, query.dim, query.num_classes).footprint <= query.m_target]
        configs += [ModelConfig(t, d, query.dim, query.num_classes) for t in kept for d in query.latent_dims]
    configs.sort(key=lambda c: (-c.num_paths, c.footprint, c.channels_per_layer, c.latent_dim))
    return configs
