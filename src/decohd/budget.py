"""Memory-budget planning for the decomposed architecture.

The normalized footprint of a configuration relative to a dense
``num_classes x dim`` prototype table is

    m = (C * M + L_tot * D) / (C * D)

with ``M = prod(L_i)`` paths and ``L_tot = sum(L_i)`` channels counted at
full dimension D.  The trainable-parameter count is a separate
accounting: ``sum(L_i) * latent_dim + C * M`` (latents live at latent_dim,
not D).  Both are reported because they answer different questions:
deployment storage versus optimization size.

:func:`budget_of` measures the same ratio on any deployed scorer by
counting the elements it stores, so a decomposed scorer gives its
footprint and a prototype table its retained fraction: 1 without a
mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product


def footprint(num_classes: int, dim: int, channels_per_layer) -> float:
    """Normalized deployment footprint; can exceed 1 for degenerate
    shapes and is reported as-is."""
    channels = tuple(int(l) for l in channels_per_layer)
    if num_classes < 1 or dim < 1 or len(channels) < 1 or any(l < 1 for l in channels):
        raise ValueError("invalid configuration")
    num_paths = math.prod(channels)
    total_channels = sum(channels)
    return (num_classes * num_paths + total_channels * dim) / (num_classes * dim)


def budget_of(scorer) -> float:
    """Stored elements of a deployed scorer relative to a dense C x dim
    table."""
    stored = sum(a.size for a in scorer.stored().values())
    return stored / (scorer.num_classes * scorer.dim)


def trainable_params(channels_per_layer, latent_dim: int, num_classes: int) -> int:
    channels = tuple(int(l) for l in channels_per_layer)
    return sum(channels) * latent_dim + num_classes * math.prod(channels)


def trainable_param_savings(channels_per_layer, latent_dim: int, num_classes: int, dim: int) -> float:
    """Fraction of trainable parameters saved versus learning a dense
    table directly; negative values are reported as-is."""
    return 1.0 - trainable_params(channels_per_layer, latent_dim, num_classes) / (num_classes * dim)


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
        if self.num_classes < 1 or self.dim < 1:
            raise ValueError("num_classes and dim must be >= 1")
        if self.max_channels < 1 or not self.layer_counts or not self.latent_dims:
            raise ValueError("invalid grid bounds")
        if min(self.layer_counts) < 1 or min(self.latent_dims) < 1:
            raise ValueError("layer counts and latent dims must be >= 1")
        if any(len(set(grid)) < len(grid) for grid in (self.layer_counts, self.latent_dims)):
            raise ValueError(f"a grid repeats a value: layers {self.layer_counts}, latent dims {self.latent_dims}")


@dataclass(frozen=True)
class BudgetReport:
    channels_per_layer: tuple[int, ...]
    latent_dim: int
    footprint: float
    num_paths: int
    trainable_params: int

    @property
    def num_layers(self) -> int:
        return len(self.channels_per_layer)


def enumerate_configs(query: BudgetQuery) -> list[BudgetReport]:
    """All grid configurations within the budget.

    The grid spans ordered tuples (so (2,3) and (3,2) are distinct
    configs) of per-layer channel counts in 1..max_channels for every
    layer count, crossed with the latent-dim options.  Results are
    sorted by descending path count (representational capacity), then
    ascending footprint; an empty list is a valid result.
    """
    reports = []
    for n in query.layer_counts:
        for channels in product(range(1, query.max_channels + 1), repeat=n):
            m = footprint(query.num_classes, query.dim, channels)
            if m > query.m_target:
                continue
            for d in query.latent_dims:
                reports.append(
                    BudgetReport(
                        channels_per_layer=channels,
                        latent_dim=d,
                        footprint=m,
                        num_paths=math.prod(channels),
                        trainable_params=trainable_params(channels, d, query.num_classes),
                    )
                )
    reports.sort(key=lambda r: (-r.num_paths, r.footprint, r.channels_per_layer, r.latent_dim))
    return reports
