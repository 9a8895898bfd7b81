"""Gradient boosted regression trees and leaf one-hot encoding."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import DesignMatrix, check_width
from .linear import sigmoid
from .tree import Tree, _Columns, _grow_trees, route


@dataclass
class GbdtModel:
    trees: list[Tree]
    learning_rate: float
    base_score: float
    loss: str  # "squared" or "logistic"
    n_features: int
    seed: int = 0
    train_losses: list[float] = field(default_factory=list)

    @property
    def leaf_counts(self) -> list[int]:
        return [t.n_leaves for t in self.trees]

    @property
    def encoded_width(self) -> int:
        return sum(self.leaf_counts)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = check_width(X, self.n_features)
        # base + lr * v_1 + lr * v_2 + ..., summed in tree order
        steps = self.learning_rate * route(self.trees, X, "value")
        return np.cumsum(np.hstack([np.full((len(X), 1), self.base_score), steps]), axis=1)[:, -1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        score = self.decision_function(X)
        if self.loss == "logistic":
            return sigmoid(score)
        return score


def _mean_loss(y: np.ndarray, score: np.ndarray, loss: str) -> float:
    if loss == "squared":
        return float(np.mean((y - score) ** 2)) / 2.0
    return float(np.mean(np.logaddexp(0.0, score) - y * score))


def fit_gbdt(
    data: DesignMatrix,
    n_trees: int = 30,
    max_depth: int = 3,
    learning_rate: float = 0.1,
    loss: str = "squared",
    min_leaf: int = 10,
    seed: int = 0,
) -> GbdtModel:
    """Stagewise regression trees fit to negative loss gradients.

    Squared loss boosts residuals; logistic boosts y - p on the logit
    scale.  The recorded training loss is non-increasing per round for
    any learning rate <= 1.
    """
    if loss not in ("squared", "logistic"):
        raise ValueError(f"loss must be 'squared' or 'logistic', got {loss!r}")
    if n_trees < 0:
        raise ValueError("n_trees must be >= 0")
    if learning_rate < 0:
        raise ValueError("learning_rate must be >= 0")
    y = data.y
    if loss == "logistic":
        if not np.all(np.isin(np.unique(y), (0.0, 1.0))):
            raise ValueError("logistic loss requires binary 0/1 targets")
        p0 = min(max(float(y.mean()), 1e-12), 1 - 1e-12)
        base = math.log(p0 / (1.0 - p0))
    else:
        base = float(y.mean())
    score = np.full(data.n_rows, base)
    model = GbdtModel([], learning_rate, base, loss, data.n_cols, seed)
    model.train_losses.append(_mean_loss(y, score, loss))
    # X is the same at every stage, so one presort serves them all
    cols = _Columns(data.X, data.categorical)
    rows = np.arange(data.n_rows)
    presort = cols.sort(rows, cols.numeric)
    for _ in range(n_trees):
        grad = y - (sigmoid(score) if loss == "logistic" else score)
        [(tree, leaf)] = _grow_trees(cols, grad, [rows], max_depth, min_leaf, "reg", [presort])
        # each row's leaf value, read off the grower instead of routing X
        score += learning_rate * tree.value[leaf]
        model.trees.append(tree)
        model.train_losses.append(_mean_loss(y, score, loss))
    return model


def encode_leaves(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    """Concatenated one-hot of the leaf each tree routes a row to."""
    X = check_width(X, model.n_features)
    out = np.zeros((X.shape[0], model.encoded_width))
    out[np.arange(X.shape[0])[:, None], route(model.trees, X, "leaf")] = 1.0
    return out
