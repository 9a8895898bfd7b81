"""Hybrid model: the leaf one-hots of a fitted GBDT (the encoder, which
the caller fits and passes in) concatenated with the original features,
fed to an L1-regularized linear model (lambda picked by CV).

Many leaf columns repeat an earlier one: trees that split on the same
feature first send the same rows to a leaf.  The lasso is fitted on the
distinct leaf columns only (``kept``, the first of each set of equal
columns) and the original features, and the model is that fit: prediction
encodes every leaf column and reads the kept ones.  It is also an optimum
of the lasso on every leaf column, with weight 0 on the repeats, because
|a| + |b| >= |a + b|: merging equal columns into one with weight a + b
keeps the fit and never raises the penalty, so a minimizer on the distinct
columns, with each group's weight on its first column, is a minimizer on
all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DesignMatrix
from .gbdt import GbdtModel, encode_leaves
# fit_linear is not called here; perfbench's boundary hooks rebind it here and test that
from .linear import LinearModel, fit_linear, fit_linear_cv  # noqa: F401


@dataclass
class HybridModel:
    encoder: GbdtModel
    kept: np.ndarray  # the leaf columns the lasso reads, ascending
    linear: LinearModel  # on [leaf columns kept, original features]
    cv_table: dict[float, float]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.linear.predict(np.hstack([encode_leaves(self.encoder, X)[:, self.kept], X]))


def _distinct_leaf_columns(leaves: np.ndarray) -> np.ndarray:
    """The first of each set of equal columns, ascending.  Columns compare
    as bits, eight rows a byte."""
    _, first = np.unique(np.packbits(leaves != 0, axis=0), axis=1, return_index=True)
    return np.sort(first)


def fit_hybrid(data: DesignMatrix, encoder: GbdtModel, folds: int = 10, max_iter: int = 2000) -> HybridModel:
    """CV-selected lasso / L1-logistic on [distinct leaf one-hots of
    ``encoder``, original features]; its ``certificate`` is its own.  The
    link follows the encoder's loss (logistic or identity) and the CV folds
    are drawn with the encoder's seed; an encoder of another width than
    ``data`` raises ``ValueError`` before any linear fit."""
    leaves = encode_leaves(encoder, data.X)
    kept = _distinct_leaf_columns(leaves)
    names = tuple(f"leaf{j}" for j in kept) + (data.names or tuple(f"x{j}" for j in range(data.n_cols)))
    design = DesignMatrix(
        np.hstack([leaves[:, kept], data.X]), data.y, tuple(j + len(kept) for j in data.categorical), names
    )
    link = "logistic" if encoder.loss == "logistic" else "identity"
    linear, cv_table = fit_linear_cv(design, link, folds=folds, seed=encoder.seed, max_iter=max_iter)
    return HybridModel(encoder, kept, linear, cv_table)
