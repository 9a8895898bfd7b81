"""Design matrix container shared by every model family."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class DesignMatrix:
    """Numeric feature rows plus target vector.

    Categorical columns keep their raw ids; ``categorical`` lists their
    indices.  Tree models split them by equality sets, linear models
    one-hot encode them internally.
    """

    X: np.ndarray
    y: np.ndarray
    categorical: tuple[int, ...] = ()
    names: tuple[str, ...] = ()

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError(f"row count {self.X.shape[0]} != target count {self.y.shape[0]}")
        if not np.isfinite(self.X).all() or not np.isfinite(self.y).all():
            raise ValueError("design matrix contains NaN or infinity")
        for j in self.categorical:
            if not 0 <= j < self.X.shape[1]:
                raise ValueError(f"categorical index {j} out of range")
        if self.names and len(self.names) != self.X.shape[1]:
            raise ValueError("names length does not match column count")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_cols(self) -> int:
        return self.X.shape[1]

    def take(self, indices) -> "DesignMatrix":
        idx = np.asarray(indices)
        return DesignMatrix(self.X[idx], self.y[idx], self.categorical, self.names)


def check_width(X, n_features: int) -> np.ndarray:
    """X as a float64 matrix of ``n_features`` columns; every model's
    prediction input goes through here."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(f"expected {n_features} feature columns, got shape {X.shape}")
    return X
