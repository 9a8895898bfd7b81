"""Random forests: bagged trees with per-split feature subsampling.

Trees grow through the one grower in tree.py, depth by depth, all of a
forest's trees in one call, which batches them by rows.  Each tree's
stream is its own ``SeedSequence`` child: it draws the tree's bootstrap
rows, then, at each depth, the pools of the depth's open nodes, in
left-to-right order, from one uniform (nodes x features) matrix: a node's
pool is the columns of the about sqrt(p) smallest entries of its row.  A
one-feature design has nothing to draw, so each of its trees presorts its
bootstrap sample as fit_tree does.

With a pool, each depth sorts only the sampled columns of its open nodes.
Partitioning a presort of all columns per depth instead gave the same
trees and took longer: 116 against 99 ms for the 24 trees of one
benchmark forest (1,400 rows, 15 columns) and 558 against 514 ms for 4
trees on 49,000 rows, on one CPU of a 2-vCPU VM (medians of 10 and 5
alternating runs).

A tree depends only on its stream, not on the trees grown beside it, and
the trees are returned in seed order.  The arguments are checked before
any tree is grown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DesignMatrix, check_width
from .tree import Tree, _check_growth, _Columns, _grow_trees, route


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

    cols = _Columns(data.X, data.categorical)
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(n_trees)]
    samples = [rng.integers(0, data.n_rows, size=data.n_rows) for rng in rngs]
    grown = _grow_trees(cols, data.y, samples, max_depth, min_leaf, task, pool=k if k < p else None, rngs=rngs)
    return ForestModel([tree for tree, _ in grown], task, p, seed)
