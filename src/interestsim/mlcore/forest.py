"""Random forests: bagged trees with per-split feature subsampling.

Trees grow through the one grower in tree.py.  With a feature pool (the
default, about sqrt(p) features per node) each node sorts only its sampled
columns, gathered for its own rows: a presort would partition all p columns
of every bootstrap sample at every split, and that made forests slower.
Without a pool each tree presorts its bootstrap sample as fit_tree does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DesignMatrix
from .tree import Tree, _Columns, _grow_tree


@dataclass
class ForestModel:
    trees: list[Tree]
    task: str
    n_features: int
    seed: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean tree output (mean class probability for classification)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} feature columns, got shape {X.shape}")
        total = np.zeros(X.shape[0])
        for tree in self.trees:
            total += tree.predict(X)
        return total / len(self.trees)


def _pool_size(spec, p: int) -> int:
    if spec is None:
        return p
    if spec == "sqrt":
        return max(1, int(round(math.sqrt(p))))
    k = max(1, int(round(float(spec) * p)))
    return min(k, p)


def fit_forest(
    data: DesignMatrix,
    n_trees: int = 30,
    max_depth: int = 10,
    min_leaf: int = 5,
    feature_subsample="sqrt",
    bootstrap: bool = True,
    seed: int = 0,
    task: str = "reg",
) -> ForestModel:
    """Seeded bagging; one tree with no bootstrap and no subsampling
    reproduces fit_tree exactly."""
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    if data.n_rows == 0:
        raise ValueError("cannot fit a forest on empty data")
    p = data.n_cols
    k = _pool_size(feature_subsample, p)
    children = np.random.SeedSequence(seed).spawn(n_trees)
    trees: list[Tree] = []
    cols = _Columns(data.X, data.categorical)
    for child in children:
        rng = np.random.default_rng(child)
        if bootstrap:
            idx = rng.integers(0, data.n_rows, size=data.n_rows)
        else:
            idx = np.arange(data.n_rows)
        if k < p:
            def pool(r, _k=k, _p=p):
                return np.sort(r.choice(_p, size=_k, replace=False))
        else:
            pool = None
        trees.append(_grow_tree(cols, data.y, idx, max_depth, min_leaf, task, feature_pool=pool, rng=rng))
    return ForestModel(trees, task, p, seed)
