"""Predictor families: linear / L1 linear, pruned tree, random forest,
GBDT, and the hybrid tree-encoded linear model."""

from __future__ import annotations

import numpy as np

from .data import DesignMatrix
from .forest import ForestModel, fit_forest
from .gbdt import GbdtModel, encode_leaves, fit_gbdt
from .hybrid import HybridModel, fit_hybrid
from .linear import (
    ConvergenceError,
    LinearModel,
    fit_linear,
    fit_linear_cv,
    sigmoid,
)
from .serialize import model_from_dict, model_to_dict
from .tree import Tree, fit_tree, prune_tree

MODEL_KINDS = ("linear", "l1linear", "tree", "forest", "gbdt", "hybrid")


def predict(model, X) -> np.ndarray:
    """Uniform inference: probabilities for classification links/losses,
    unclamped reals for regression."""
    if isinstance(model, (Tree, ForestModel, GbdtModel, LinearModel, HybridModel)):
        return model.predict(np.asarray(X, dtype=np.float64))
    raise TypeError(f"cannot predict with model of type {type(model).__name__}")


__all__ = [
    "ConvergenceError",
    "DesignMatrix",
    "ForestModel",
    "GbdtModel",
    "HybridModel",
    "LinearModel",
    "MODEL_KINDS",
    "Tree",
    "encode_leaves",
    "fit_forest",
    "fit_gbdt",
    "fit_hybrid",
    "fit_linear",
    "fit_linear_cv",
    "fit_tree",
    "model_from_dict",
    "model_to_dict",
    "predict",
    "prune_tree",
    "sigmoid",
]
