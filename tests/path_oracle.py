"""The lambda search that ``mlcore.linear.fit_linear_cv`` replaced, kept as
the reference its path fits are tested against.

Every (fold, lambda) is its own ``fit_linear`` call: the fold's rows are
encoded and standardized again for each lambda, and the previous lambda's
model is handed over as ``warm_start``, from which the call takes the
encoder, mu, sigma, weights and intercept.  A fold's chain starts from
``cv_start``'s zero model, which carries the encoder, mu and sigma of all
rows, so every call fits the fold's rows of the all-rows standardization;
``shift`` subtracts their column means (``fold_means``) from them, so its
intercept is on those centred rows, and the validation rows are scored
centred by the same means.  A fit that runs out of its budget raises, and
the CV loop scores the model the error carries.  Each link has one solver
and one stopping rule.  The identity link runs a lone
``_lasso_path`` from lambda_max to the call's lambda, on its own Gram
matrix, so its steps count from lambda_max.  The logistic link stops on
the optimality certificate: its bound is
eps * S(0, 0), read on the cold-start design at the chain's first lambda
(at its own lambda for a lone call, such as the refit), and every call
checks it at the start of each IRLS step and hands it to the sweeps, which
stop on it alone.  ``certify=False`` gives the coefficient test that every
logistic fit outside the CV folds used before, kept as a contrast and run
on ``cd_oracle``'s sweeps.
"""

import numpy as np

from cd_oracle import _cd_sweeps as oracle_sweeps
from interestsim.mlcore.linear import (
    ConvergenceError,
    LinearModel,
    _cd_sweeps,
    _gram_block,
    _kfold_indices,
    _lasso_path,
    _subgradient_norm,
    cv_loss,
    fit_encoder,
    sigmoid,
)


def _design(data, warm_start, shift=None):
    """(encoder, mu, sigma, Z): the fit's standardized design, less ``shift``
    if given, in C order."""
    encoder = (
        warm_start.encoder
        if warm_start is not None
        else fit_encoder(data.X, data.categorical)
    )
    Z_raw = encoder.transform(data.X)
    if warm_start is not None:
        mu, sigma = warm_start.mu, warm_start.sigma
    else:
        mu = Z_raw.mean(axis=0)
        sigma = Z_raw.std(axis=0)
        sigma = np.where(sigma > 0, sigma, 1.0)
    Z = (Z_raw - mu) / sigma
    return encoder, mu, sigma, Z if shift is None else Z - shift


def cv_start(data, link):
    """A zero model that carries the encoder, mu and sigma of all of ``data``'s rows."""
    encoder, mu, sigma, Z = _design(data, None)
    return LinearModel(link, 0.0, np.zeros(Z.shape[1]), 0.0, mu, sigma, encoder, (), data.n_cols)


def fold_means(train, start):
    """The column means of a fold's rows of ``start``'s standardization."""
    return _design(train, start)[3].mean(axis=0)


def cold_start_subgradient(data, lam, link, start=None, shift=None):
    """S(0, 0): the minimum-norm subgradient of the link's mean loss at
    w = 0, b = 0 on the cold-start design (or on ``start``'s, less
    ``shift``), where the fitted mean is 1/2 under the logistic link and 0
    under the identity link."""
    Z = np.asfortranarray(_design(data, start, shift)[3])
    y = data.y
    p = np.full(len(y), 0.5 if link == "logistic" else 0.0)
    return _subgradient_norm(Z.T @ (p - y) / len(y), float(np.mean(p - y)), np.zeros(Z.shape[1]), lam)


def certificate_eps(y):
    """LIBLINEAR's -s 6 default eps = 0.01 * max(min(n+, n-), 1) / n."""
    n_pos = int(np.sum(y == 1.0))
    return 0.01 * max(min(n_pos, len(y) - n_pos), 1) / len(y)


def fit_linear(data, link="identity", l1_lambda=0.0, max_iter=1000, tol=1e-8, warm_start=None, s0=None,
               certify=True, shift=None):
    if link not in ("identity", "logistic"):
        raise ValueError(f"link must be 'identity' or 'logistic', got {link!r}")
    if l1_lambda < 0:
        raise ValueError("l1_lambda must be >= 0")
    if link == "logistic":
        labels = np.unique(data.y)
        if not np.all(np.isin(labels, (0.0, 1.0))):
            raise ValueError("logistic link requires binary 0/1 targets")
    if s0 is None:
        s0 = cold_start_subgradient(data, l1_lambda, link)
    encoder, mu, sigma, Z = _design(data, warm_start, shift)
    Z = np.asfortranarray(Z)
    y = data.y
    n = len(y)
    w = warm_start.weights.copy() if warm_start is not None else np.zeros(Z.shape[1])
    b = warm_start.intercept if warm_start is not None else 0.0

    def subgradient():
        z = Z @ w + b
        p = sigmoid(z) if link == "logistic" else z
        return _subgradient_norm(Z.T @ (p - y) / n, float(np.mean(p - y)), w, l1_lambda), z, p

    names = encoder.names(data.names if data.names else tuple(f"x{j}" for j in range(data.n_cols)))
    used = 0
    bound = certificate_eps(y) * s0
    if link == "identity":
        G = _gram_block(Z, None, np.arange(Z.shape[1]), np.einsum("ij,ij->j", Z, Z) / n)
        [(w, used, reached)] = _lasso_path(G, Z.T @ (y - y.mean()) / n, [l1_lambda], max_iter)
        b = float(np.mean(y - Z @ w))
        converged = reached <= l1_lambda
    elif certify:
        converged = False
        while True:
            s, z, p = subgradient()
            if s <= bound:
                converged = True
                break
            if used >= max_iter:
                break
            omega = np.maximum(p * (1.0 - p), 1e-6)
            y_work = z + (y - p) / omega
            b, sweeps, _ = _cd_sweeps(Z, y_work, w, b, l1_lambda, omega, min(max_iter - used, 100), bound)
            used += sweeps
    else:
        converged = False
        for _ in range(max_iter):
            z = Z @ w + b
            p = sigmoid(z)
            omega = np.maximum(p * (1.0 - p), 1e-6)
            y_work = z + (y - p) / omega
            w_before = w.copy()
            b_before = b
            b, sweeps, _ = oracle_sweeps(Z, y_work, w, b, l1_lambda, omega, min(max_iter - used, 100), tol)
            used += sweeps
            delta = max(float(np.max(np.abs(w - w_before))) if len(w) else 0.0, abs(b - b_before))
            if delta < tol:
                converged = True
                break
            if used >= max_iter:
                break
    s = subgradient()[0]
    model = LinearModel(
        link=link,
        l1_lambda=l1_lambda,
        weights=w,
        intercept=float(b),
        mu=mu,
        sigma=sigma,
        encoder=encoder,
        feature_names=names,
        n_raw_features=data.n_cols,
        converged=bool(converged),
        n_sweeps=used,
        certificate=s / s0 if s0 > 0 else 0.0,
    )
    if not converged:
        if link == "identity":
            raise ConvergenceError(
                f"the lasso homotopy did not reach lambda={l1_lambda:g} within {max_iter} steps "
                f"(identity link, stopped at lambda={reached:.6g})",
                model,
            )
        if certify:
            why = f"optimality certificate S/S(0, 0) {s / s0:.3g} above eps {certificate_eps(y):.3g}"
        else:
            why = f"last IRLS step's largest coefficient change {delta:.3g}, tol {tol:g}"
        raise ConvergenceError(
            f"coordinate descent did not converge within {max_iter} sweeps "
            f"({link} link, lambda={l1_lambda:g}, {used} sweeps used, {why})",
            model,
        )
    return model


def coefficient_test_chain(data, lambdas, max_iter, tol, link="logistic", start=None, shift=None):
    """The models of one warm-started chain under the coefficient test,
    unconverged ones included, from ``start`` (default: a cold start)."""
    models, warm = [], start
    for lam in lambdas:
        try:
            warm = fit_linear(data, link, lam, max_iter, tol, warm_start=warm, certify=False, shift=shift)
        except ConvergenceError as err:
            warm = err.model
        models.append(warm)
    return models


def lambda_max(data):
    encoder = fit_encoder(data.X, data.categorical)
    Z = encoder.transform(data.X)
    mu = Z.mean(axis=0)
    sigma = Z.std(axis=0)
    sigma = np.where(sigma > 0, sigma, 1.0)
    Z = (Z - mu) / sigma
    y = data.y
    resid = y - y.mean()
    return float(np.max(np.abs(Z.T @ resid)) / len(y))


def default_lambda_grid(data):
    lmax = lambda_max(data)
    if lmax <= 0:
        return [0.0]
    return list(lmax * np.logspace(-0.5, -3.0, 5))


def cv_fold_models(data, link, folds=10, seed=0, max_iter=2000):
    """Every (fold, lambda) model of the warm-started search in fit order,
    and each lambda's summed validation loss.  The models' intercepts are
    on their fold's centred rows."""
    grid = sorted(set(float(l) for l in default_lambda_grid(data)), reverse=True)
    folds = max(2, min(folds, data.n_rows))
    totals = {lam: 0.0 for lam in grid}
    fitted = []
    start = cv_start(data, link)
    for train_idx, val_idx in _kfold_indices(data.n_rows, folds, seed):
        train = data.take(train_idx)
        m = fold_means(train, start)
        Zv = _design(data.take(val_idx), start, m)[3]
        yv = data.y[val_idx]
        warm = start
        s0 = cold_start_subgradient(train, grid[0], link, start, m)
        for lam in grid:
            try:
                model = fit_linear(train, link, lam, max_iter, warm_start=warm, s0=s0, shift=m)
            except ConvergenceError as err:
                model = err.model
            warm = model
            fitted.append(model)
            z = np.multiply(Zv, model.weights, order="C").sum(axis=1) + model.intercept
            totals[lam] += cv_loss(sigmoid(z) if link == "logistic" else z, yv, link) * len(val_idx)
    return fitted, totals


def fit_linear_cv(data, link, folds=10, seed=0, max_iter=2000):
    """(model, cv_table) of the warm-started search; the refit on all rows
    is a cold ``fit_linear`` at the chosen lambda."""
    _, totals = cv_fold_models(data, link, folds, seed, max_iter)
    grid = list(totals)
    best = grid[0]
    for lam in grid:
        if totals[lam] < totals[best] - 1e-12:
            best = lam
    model = fit_linear(data, link, best, max_iter)
    return model, {lam: totals[lam] / data.n_rows for lam in grid}
