"""Hybrid model: GBDT leaf one-hots concatenated with the original
features, fed to an L1-regularized linear model (lambda picked by CV)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DesignMatrix
from .gbdt import GbdtModel, encode_leaves, fit_gbdt
from .linear import LinearModel, fit_linear, fit_linear_cv


@dataclass
class HybridModel:
    encoder: GbdtModel
    linear: LinearModel
    n_raw_features: int
    chosen_lambda: float
    cv_table: dict[float, float]

    @property
    def encoded_width(self) -> int:
        return self.encoder.encoded_width

    def _augment(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_raw_features:
            raise ValueError(
                f"expected {self.n_raw_features} feature columns, got shape {X.shape}"
            )
        if not self.encoder.trees:
            return X
        return np.hstack([encode_leaves(self.encoder, X), X])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.linear.predict(self._augment(X))

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return self.linear.decision_function(self._augment(X))


def _augmented_design(encoder: GbdtModel, data: DesignMatrix) -> DesignMatrix:
    if not encoder.trees:
        return data
    leaves = encode_leaves(encoder, data.X)
    X = np.hstack([leaves, data.X])
    width = leaves.shape[1]
    names = tuple(f"leaf{j}" for j in range(width)) + tuple(
        data.names if data.names else (f"x{j}" for j in range(data.n_cols))
    )
    categorical = tuple(j + width for j in data.categorical)
    return DesignMatrix(X, data.y, categorical, names)


def fit_hybrid(
    data: DesignMatrix,
    task: str = "clf",
    gbdt_params: dict | None = None,
    l1_grid=None,
    folds: int = 10,
    max_iter: int = 2000,
    tol: float = 1e-6,
) -> HybridModel:
    """Encoder first, then CV-selected lasso / L1-logistic on
    [leaf one-hots, original features]."""
    if task not in ("clf", "reg"):
        raise ValueError(f"task must be 'clf' or 'reg', got {task!r}")
    params = gbdt_params or {}
    loss = "logistic" if task == "clf" else "squared"
    encoder = fit_gbdt(data, loss=loss, **params)
    augmented = _augmented_design(encoder, data)
    link = "logistic" if task == "clf" else "identity"
    grid = None if l1_grid is None else list(l1_grid)  # l1_grid may be a generator
    if grid is not None and len(grid) == 1:
        lam = float(grid[0])
        linear = fit_linear(augmented, link, lam, max_iter, tol)
        cv_table = {lam: float("nan")}
    else:
        linear, cv_table = fit_linear_cv(
            augmented, link, grid, folds=folds, seed=params.get("seed", 0),
            max_iter=max_iter, tol=tol,
        )
    return HybridModel(
        encoder=encoder,
        linear=linear,
        n_raw_features=data.n_cols,
        chosen_lambda=linear.l1_lambda,
        cv_table=cv_table,
    )
