"""Decomposed hyperdimensional classification under tight memory budgets.

Class prototypes are composed on the fly from a small shared bank of
channel hypervectors via stacked binding and a learned bundling head,
instead of being stored densely.  The package covers the full loop:
random-projection encoding, end-to-end training of the decomposition,
batched and streamed scoring, budget planning, prototype-table baselines,
and robustness/precision evaluation harnesses.
"""

__version__ = "0.2.0"

from .baselines import (
    PrototypeTable,
    SparseScorer,
    build_prototype_table,
    onlinehd_refine,
    sparsify_table,
)
from .budget import (
    BudgetQuery,
    BudgetReport,
    budget_of,
    enumerate_configs,
    footprint,
    trainable_param_savings,
)
from .data import Dataset, load_csv, make_synthetic
from .encoding import EncoderConfig, RandomProjectionEncoder, Standardizer, fit_standardizer
from .faults import NoiseSpec, inject_bitflips, robustness_sweep
from .inference import DecomposedScorer
from .model import Classifier, ModelConfig, ModelParams, pick_class
from .precision import PRESETS, PrecisionFormat, quantize_model
from .serialize import load_classifier, save_classifier
from .training import TrainConfig, train

__all__ = [
    "BudgetQuery",
    "BudgetReport",
    "Classifier",
    "Dataset",
    "DecomposedScorer",
    "EncoderConfig",
    "ModelConfig",
    "ModelParams",
    "NoiseSpec",
    "PRESETS",
    "PrecisionFormat",
    "PrototypeTable",
    "RandomProjectionEncoder",
    "SparseScorer",
    "Standardizer",
    "TrainConfig",
    "budget_of",
    "build_prototype_table",
    "enumerate_configs",
    "fit_standardizer",
    "footprint",
    "inject_bitflips",
    "load_classifier",
    "load_csv",
    "make_synthetic",
    "onlinehd_refine",
    "pick_class",
    "quantize_model",
    "robustness_sweep",
    "save_classifier",
    "sparsify_table",
    "train",
    "trainable_param_savings",
]
