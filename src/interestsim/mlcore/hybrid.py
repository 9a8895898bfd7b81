"""Hybrid model: the leaf one-hots of a fitted GBDT (the encoder, which
the caller fits and passes in) concatenated with the original features,
fed to an L1-regularized linear model (lambda picked by CV).

Many leaf columns repeat an earlier one: trees that split on the same
feature first send the same rows to a leaf.  The lasso is fitted once, on
the distinct leaf columns (the first of each set of equal columns) and the
original features, and then mapped back to every leaf column: the repeats
get weight 0 and the mu and sigma of their kept equal.  The optimum is the
same, because |a| + |b| >= |a + b|: merging equal columns into one with
weight a + b keeps the fit and never raises the penalty, so a minimizer on
the distinct columns, with each group's weight on its first column, is a
minimizer on all of them.  Prediction still encodes every leaf column.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import DesignMatrix, check_width
from .gbdt import GbdtModel, encode_leaves
# fit_linear is not called here; perfbench's boundary hooks rebind it here and test that
from .linear import CategoricalEncoder, ConvergenceError, LinearModel, fit_linear, fit_linear_cv  # noqa: F401


@dataclass
class HybridModel:
    encoder: GbdtModel
    linear: LinearModel
    n_raw_features: int
    chosen_lambda: float
    cv_table: dict[float, float]

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = check_width(X, self.n_raw_features)
        return self.linear.predict(np.hstack([encode_leaves(self.encoder, X), X]))


def _distinct_leaf_design(leaves: np.ndarray, data: DesignMatrix):
    """[distinct leaf columns, X], plus the leaf columns kept (the first of
    each set of equal columns) and, for every leaf column, the position of
    its kept equal among them.  Columns compare as bits, eight rows a byte."""
    bits = np.packbits(leaves != 0, axis=0)
    _, first, inverse = np.unique(bits, axis=1, return_index=True, return_inverse=True)
    kept = np.sort(first)
    rep = np.searchsorted(kept, first[inverse.ravel()])
    X = np.hstack([leaves[:, kept], data.X])
    categorical = tuple(j + len(kept) for j in data.categorical)
    return DesignMatrix(X, data.y, categorical), kept, rep


def _full_width(model: LinearModel, kept: np.ndarray, rep: np.ndarray, data: DesignMatrix) -> LinearModel:
    """The model fitted on the distinct leaf columns, as a model of
    [all leaf columns, X]: every leaf column takes the mu and sigma of its
    kept equal, and only the kept columns carry weight."""
    width, distinct = len(rep), len(kept)
    cols = np.concatenate([rep, np.arange(distinct, len(model.weights))])
    weights = model.weights[cols]
    weights[np.setdiff1d(np.arange(width), kept)] = 0.0
    encoder = CategoricalEncoder(
        tuple(j + width - distinct for j in model.encoder.columns), model.encoder.levels
    )
    names = tuple(f"leaf{j}" for j in range(width)) + tuple(
        data.names if data.names else (f"x{j}" for j in range(data.n_cols))
    )
    return replace(
        model,
        weights=weights,
        mu=model.mu[cols],
        sigma=model.sigma[cols],
        encoder=encoder,
        feature_names=encoder.names(names),
        n_raw_features=width + data.n_cols,
    )


def fit_hybrid(data: DesignMatrix, encoder: GbdtModel, folds: int = 10, max_iter: int = 2000) -> HybridModel:
    """CV-selected lasso / L1-logistic on [leaf one-hots of ``encoder``,
    original features], fitted on the distinct leaf columns and mapped back
    to all of them: the linear ``certificate`` is S / S(0, 0) of the fit on
    the distinct leaf columns.  The link follows the encoder's loss (logistic
    or identity) and the CV folds are drawn with the encoder's seed; an
    encoder of another width than ``data`` raises ``ValueError`` before any
    linear fit."""
    design, kept, rep = _distinct_leaf_design(encode_leaves(encoder, data.X), data)
    link = "logistic" if encoder.loss == "logistic" else "identity"
    try:
        linear, cv_table = fit_linear_cv(design, link, folds=folds, seed=encoder.seed, max_iter=max_iter)
    except ConvergenceError as err:
        err.model = _full_width(err.model, kept, rep, data)
        raise
    linear = _full_width(linear, kept, rep, data)
    return HybridModel(encoder, linear, data.n_cols, linear.l1_lambda, cv_table)
