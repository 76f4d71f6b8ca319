"""Decomposed hyperdimensional classification under tight memory budgets.

Class prototypes are composed on the fly from a small shared bank of
channel hypervectors via stacked binding and a learned bundling head,
instead of being stored densely.  The package covers the full loop:
random-projection encoding, end-to-end training of the decomposition,
one batched scoring forward, budget planning, prototype-table baselines,
and robustness/precision evaluation harnesses.

Import each name from its defining module, such as
``decohd.training.train``; ``import decohd`` loads no submodule.
"""

__version__ = "0.3.0"
