"""Random forests: bagged trees with per-split feature subsampling.

Trees grow through the one grower in tree.py.  Each node draws a pool of
about sqrt(p) features and sorts only those columns, gathered for its own
rows: a presort would partition all p columns of every bootstrap sample at
every split, and that made forests slower.  A one-feature design has
nothing to draw, so each of its trees presorts its bootstrap sample as
fit_tree does.

A tree depends only on its own ``SeedSequence`` child, which draws its
bootstrap rows and then its node feature pools, so the trees are grown
with ``_util.fork_map``: shares of them in forked workers, which send the
grown trees back, and the first share in the caller.  They come back in
seed order, the same trees as a serial loop for any number of CPUs.  The
arguments are checked once, before the fan-out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._util import fork_map
from .data import DesignMatrix, check_width
from .tree import Tree, _check_growth, _Columns, _grow_tree, route


@dataclass
class ForestModel:
    trees: list[Tree]
    task: str
    n_features: int
    seed: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean tree output (mean class probability for classification)."""
        X = check_width(X, self.n_features)
        # running sum from 0 in tree order, as adding tree by tree does
        values = route(self.trees, X, "value")
        total = np.cumsum(np.hstack([np.zeros((len(X), 1)), values]), axis=1)[:, -1]
        return total / len(self.trees)


def fit_forest(
    data: DesignMatrix,
    n_trees: int = 30,
    max_depth: int = 10,
    min_leaf: int = 5,
    seed: int = 0,
    task: str = "reg",
) -> ForestModel:
    """Seeded bagging; a one-tree forest of a one-feature design is
    fit_tree on its bootstrap sample."""
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    if data.n_rows == 0:
        raise ValueError("cannot fit a forest on empty data")
    _check_growth(task, min_leaf)
    p = data.n_cols
    k = max(1, round(math.sqrt(p)))

    def pool(r):
        return np.sort(r.choice(p, size=k, replace=False))

    cols = _Columns(data.X, data.categorical)

    def grow(child: np.random.SeedSequence) -> Tree:
        rng = np.random.default_rng(child)
        idx = rng.integers(0, data.n_rows, size=data.n_rows)
        return _grow_tree(
            cols, data.y, idx, max_depth, min_leaf, task, feature_pool=pool if k < p else None, rng=rng
        )[0]

    return ForestModel(fork_map(grow, np.random.SeedSequence(seed).spawn(n_trees)), task, p, seed)
