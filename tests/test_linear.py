import numpy as np
import pytest

import path_oracle
from cd_oracle import _cd_sweeps as oracle_sweeps
from interestsim.mlcore import (
    ConvergenceError,
    DesignMatrix,
    encode_leaves,
    fit_gbdt,
    fit_linear,
    fit_linear_cv,
    linear,
    sigmoid,
)


def dm(X, y, categorical=()):
    return DesignMatrix(np.asarray(X, dtype=float), np.asarray(y, dtype=float), categorical)


def random_regression(seed, n=120, p=6, noise=0.1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    beta = rng.normal(size=p)
    y = X @ beta + noise * rng.normal(size=n)
    return X, y


def test_huge_lambda_shrinks_everything():
    X, y = random_regression(0)
    model = fit_linear(dm(X, y), "identity", l1_lambda=1e6)
    assert np.all(model.weights == 0.0)
    assert model.intercept == pytest.approx(y.mean())
    yb = (y > np.median(y)).astype(float)
    model = fit_linear(dm(X, yb), "logistic", l1_lambda=1e6)
    assert np.all(model.weights == 0.0)
    assert sigmoid(np.array([model.intercept]))[0] == pytest.approx(yb.mean(), abs=1e-6)


def test_lambda_zero_matches_normal_equations():
    X, y = random_regression(1)
    model = fit_linear(dm(X, y), "identity", l1_lambda=0.0, tol=1e-12, max_iter=5000)
    Xa = np.hstack([X, np.ones((len(y), 1))])
    beta, *_ = np.linalg.lstsq(Xa, y, rcond=None)
    pred_direct = Xa @ beta
    assert np.max(np.abs(model.predict(X) - pred_direct)) < 1e-6


def test_one_dimensional_soft_threshold_closed_form():
    rng = np.random.default_rng(2)
    x = rng.normal(size=200)
    x = (x - x.mean()) / x.std()  # orthonormalized: mean 0, (1/n)sum x^2 = 1
    y = 0.8 * x + 0.05 * rng.normal(size=200)
    y = y - y.mean()
    beta_ols = float(x @ y) / len(y)
    for lam in [0.0, 0.1, 0.3, abs(beta_ols) + 0.2]:
        model = fit_linear(dm(x[:, None], y), "identity", l1_lambda=lam, tol=1e-12, max_iter=5000)
        expected = np.sign(beta_ols) * max(abs(beta_ols) - lam, 0.0)
        assert model.weights[0] == pytest.approx(expected, abs=1e-9)


def test_monotone_sparsity_along_lambda_grid():
    X, y = random_regression(4, n=200, p=12, noise=0.3)
    grid = np.logspace(-3, 0.3, 8)
    counts = []
    for lam in grid:
        model = fit_linear(dm(X, y), "identity", l1_lambda=float(lam), tol=1e-10, max_iter=5000)
        counts.append(np.count_nonzero(model.weights))
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_convergence_error_carries_last_iterate():
    X, y = random_regression(5)
    with pytest.raises(ConvergenceError) as exc:
        fit_linear(dm(X, y), "identity", l1_lambda=0.0, max_iter=1, tol=1e-15)
    model = exc.value.model
    assert model.weights.shape == (6,)
    assert model.converged is False


def test_logistic_predictions_in_unit_interval():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(150, 5))
    y = (X[:, 0] + 0.3 * rng.normal(size=150) > 0).astype(float)
    model = fit_linear(dm(X, y), "logistic", l1_lambda=0.01)
    p = model.predict(X)
    assert np.all((p > 0) & (p < 1))
    # the informative feature carries the largest weight
    assert np.argmax(np.abs(model.weights)) == 0


def test_categorical_one_hot_expansion():
    rng = np.random.default_rng(7)
    cat = rng.integers(0, 3, size=300).astype(float)
    offsets = np.array([0.0, 1.0, -1.0])
    y = offsets[cat.astype(int)] + 0.01 * rng.normal(size=300)
    X = np.column_stack([cat, rng.normal(size=300)])
    model = fit_linear(dm(X, y, categorical=(0,)), "identity", l1_lambda=0.0, tol=1e-12, max_iter=5000)
    assert len(model.weights) == 3 + 1  # one-hot block + numeric column
    pred = model.predict(X)
    assert np.max(np.abs(pred - y)) < 0.1
    assert model.feature_names[-3:] == ("x0=0", "x0=1", "x0=2")


def test_rare_levels_capped_by_max_levels():
    # levels 0..19 occur 5 times each, levels 20..29 once: only the 20 most
    # frequent get an indicator column, and the rare ones encode as all-zero
    assert linear.MAX_LEVELS == 20
    rng = np.random.default_rng(8)
    cat = np.concatenate([np.repeat(np.arange(20), 5), np.arange(20, 30)]).astype(float)
    y = rng.normal(size=len(cat))
    X = cat[:, None]
    model = fit_linear(dm(X, y, categorical=(0,)), "identity", l1_lambda=0.1)
    assert len(model.weights) == 20
    assert model.encoder.levels[0] == tuple(float(v) for v in range(20))
    assert not model.encoder.transform(np.array([[25.0]])).any()


def test_cv_selects_reasonable_lambda():
    X, y = random_regression(9, n=240, p=10, noise=0.5)
    model, table = fit_linear_cv(dm(X, y), "identity", folds=5, seed=0)
    assert model.l1_lambda in table
    assert min(table.values()) == table[model.l1_lambda] or (
        table[model.l1_lambda] <= min(table.values()) + 1e-12
    )


def test_cv_single_lambda_grid():
    # a constant target has lambda_max 0, so the default grid is [0.0]
    X, _ = random_regression(10)
    model, table = fit_linear_cv(dm(X, np.full(len(X), 1.5)), "identity", folds=3, seed=0)
    assert model.l1_lambda == 0.0
    assert list(table) == [0.0]
    assert np.allclose(model.weights, 0.0, atol=1e-12) and model.intercept == pytest.approx(1.5)


def test_cv_grid_is_five_python_floats_largest_first():
    X, y = random_regression(11)
    data = dm(X, y)
    _, table = fit_linear_cv(data, "identity", folds=3)
    grid = linear.default_lambda_grid(data)
    assert list(table) == grid == sorted(grid, reverse=True)
    assert len(grid) == 5 and all(type(lam) is float for lam in grid)
    # lmax forces every weight to zero, and a little below it one enters
    assert np.all(fit_linear(data, "identity", grid[0] * np.sqrt(10) * (1 + 1e-9)).weights == 0.0)
    assert np.any(fit_linear(data, "identity", grid[0] * np.sqrt(10) * 0.99).weights != 0.0)


def test_convergence_error_message_explains_the_failure():
    X, y = random_regression(12)
    with pytest.raises(ConvergenceError) as exc:
        fit_linear(dm(X, y), "identity", l1_lambda=0.0, max_iter=1, tol=1e-15)
    model = exc.value.model
    # one full sweep from zero: its largest change is the largest coefficient
    last = max(np.max(np.abs(model.weights)), abs(model.intercept))
    assert str(exc.value) == (
        "coordinate descent did not converge within 1 sweeps (identity link, "
        f"lambda=0, 1 sweeps used, last sweep's largest coefficient change {last:.3g}, "
        "tol 1e-15)"
    )
    yb = (y > np.median(y)).astype(float)
    with pytest.raises(ConvergenceError, match=r"\(logistic link, lambda=0.001, 3 sweeps used"):
        fit_linear(dm(X, yb), "logistic", l1_lambda=1e-3, max_iter=3, tol=1e-15)


# -- the Gram-space sweep against the residual-space oracle ---------------------


def _standardized(X, categorical=()):
    """The design ``fit_linear`` hands to the sweep."""
    Z = linear.fit_encoder(X, categorical).transform(X)
    sigma = Z.std(axis=0)
    return np.asfortranarray((Z - Z.mean(axis=0)) / np.where(sigma > 0, sigma, 1.0))


def _oracle_design(name, n=200):
    rng = np.random.default_rng(13)
    X = rng.normal(size=(n, 6))
    X[:, 1] = X[:, 0] + 0.3 * X[:, 1]  # correlated columns
    signal = X[:, 0] - 0.5 * X[:, 2] + np.sin(2 * X[:, 3])
    if name == "constant-column":
        Z = _standardized(np.column_stack([X, np.full(n, 3.0)]))
    elif name == "categorical":
        cat = rng.integers(0, 4, size=n).astype(float)
        signal = signal + np.array([0.0, 1.0, -1.0, 0.5])[cat.astype(int)]
        Z = _standardized(np.column_stack([cat, X]), categorical=(0,))
    else:  # leaf one-hots of a GBDT, one block per tree summing to 1: collinear
        target = signal + 0.3 * rng.normal(size=n)
        gbdt = fit_gbdt(dm(X, target), n_trees=4, max_depth=3)
        Z = _standardized(np.hstack([encode_leaves(gbdt, X), X]))
    y = signal + 0.3 * rng.normal(size=n)
    return Z, y, (y > np.median(y)).astype(float)


def _sweep_problem(design, link):
    """(Z, working response, omega) as one IRLS step of ``fit_linear`` sees it."""
    Z, y, yb = _oracle_design(design)
    if link == "identity":
        return Z, y, None
    z = 0.4 * Z[:, 0] - 0.2 * Z[:, -1]
    p = sigmoid(z)
    omega = np.maximum(p * (1.0 - p), 1e-6)
    return Z, z + (yb - p) / omega, omega


def _lambda_max(Z, y, omega):
    omega = np.ones(len(y)) if omega is None else omega
    centred = y - (omega @ y) / omega.sum()
    return float(np.max(np.abs(Z.T @ (omega * centred))) / len(y))


def _assert_sweeps_match(Z, y, lam, omega, max_sweeps, tol, w0=None, b0=0.0):
    w_new = np.zeros(Z.shape[1]) if w0 is None else w0.copy()
    w_old = w_new.copy()
    b_new, sweeps_new, conv_new, _ = linear._cd_sweeps(Z, y, w_new, b0, lam, omega, max_sweeps, tol)
    b_old, sweeps_old, conv_old = oracle_sweeps(Z, y, w_old, b0, lam, omega, max_sweeps, tol)
    assert (sweeps_new, conv_new) == (sweeps_old, conv_old)
    assert np.max(np.abs(w_new - w_old), initial=0.0) < 1e-10
    assert abs(b_new - b_old) < 1e-10
    return w_new


@pytest.mark.parametrize("lam_frac", [0.0, 0.1, 0.95], ids=["lam0", "mid", "near-max"])
@pytest.mark.parametrize("link", ["identity", "logistic"])
@pytest.mark.parametrize("design", ["constant-column", "categorical", "leaf-one-hot"])
def test_sweeps_match_residual_oracle(design, link, lam_frac):
    Z, y, omega = _sweep_problem(design, link)
    lam = lam_frac * _lambda_max(Z, y, omega)
    _assert_sweeps_match(Z, y, lam, omega, max_sweeps=2000, tol=1e-8)
    # a budget too small to converge: stops after one full or one active sweep
    for max_sweeps in (1, 2):
        _assert_sweeps_match(Z, y, lam, omega, max_sweeps=max_sweeps, tol=1e-8)


@pytest.mark.parametrize("link", ["identity", "logistic"])
def test_sweeps_match_residual_oracle_through_sign_changes(link):
    # warm-started from the unpenalized fit, coefficients cross zero or
    # drop out inside active sweeps, where the triangular solve stops and
    # takes the scalar soft-threshold step
    Z, y, omega = _sweep_problem("leaf-one-hot", link)
    w0 = _assert_sweeps_match(Z, y, 0.0, omega, max_sweeps=3000, tol=1e-10)
    lam = 0.3 * _lambda_max(Z, y, omega)
    _assert_sweeps_match(Z, y, lam, omega, max_sweeps=2000, tol=1e-8, w0=w0, b0=0.1)


@pytest.mark.parametrize("link", ["identity", "logistic"])
def test_sweeps_match_residual_oracle_on_duplicated_columns(link):
    # every third column repeated makes the design rank-deficient; from a
    # dense warm start, active sweeps zero coefficients, so the active set
    # shrinks between full sweeps and the sweep slices its block down
    Z, y, omega = _sweep_problem("leaf-one-hot", link)
    Z = np.asfortranarray(np.hstack([Z, Z[:, ::3]]))
    lam = 0.05 * _lambda_max(Z, y, omega)
    w0 = 0.5 * np.random.default_rng(1).normal(size=Z.shape[1])
    _assert_sweeps_match(Z, y, lam, omega, max_sweeps=2000, tol=1e-8, w0=w0, b0=0.1)
    # budgets that stop inside the active sweeps, just after a shrink
    for max_sweeps in range(1, 30):
        _assert_sweeps_match(Z, y, lam, omega, max_sweeps=max_sweeps, tol=1e-8, w0=w0, b0=0.1)


# -- the lambda path against the warm-started search it replaced ----------------


def _path_data(design, link, n=240):
    rng = np.random.default_rng(21)
    X = rng.normal(size=(n, 5))
    X[:, 1] = X[:, 0] + 0.3 * X[:, 1]  # correlated columns
    signal = X[:, 0] - 0.5 * X[:, 2] + np.sin(2 * X[:, 3])
    categorical = ()
    if design == "categorical":
        cat = rng.integers(0, 4, size=n).astype(float)
        signal = signal + np.array([0.0, 1.0, -1.0, 0.5])[cat.astype(int)]
        X, categorical = np.column_stack([X, cat]), (5,)
    else:  # a hybrid's design: leaf one-hots, some leaf columns repeated, then X
        gbdt = fit_gbdt(dm(X, signal + 0.3 * rng.normal(size=n)), n_trees=4, max_depth=3)
        leaves = encode_leaves(gbdt, X)
        X = np.hstack([leaves, leaves[:, ::3], X])
    y = signal + 0.3 * rng.normal(size=n)
    if link == "logistic":
        y = (y > np.median(y)).astype(float)
    return dm(X, y, categorical)


def _assert_same_model(new, old):
    assert (new.link, new.l1_lambda, new.intercept, new.converged, new.n_sweeps) == (
        old.link, old.l1_lambda, old.intercept, old.converged, old.n_sweeps
    )
    for a, b in ((new.weights, old.weights), (new.mu, old.mu), (new.sigma, old.sigma)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert (new.encoder, new.feature_names, new.n_raw_features) == (
        old.encoder, old.feature_names, old.n_raw_features
    )


# at 400 sweeps some fold fits run out while the refits converge; at 6 all
# fold fits and every refit run out
@pytest.mark.parametrize("max_iter", [2000, 400, 6], ids=["budget-2000", "budget-400", "budget-6"])
@pytest.mark.parametrize("link", ["identity", "logistic"])
@pytest.mark.parametrize("design", ["categorical", "duplicated-leaves"])
def test_cv_path_matches_warm_started_oracle(design, link, max_iter):
    data = _path_data(design, link)
    grid = linear.default_lambda_grid(data)
    assert grid == path_oracle.default_lambda_grid(data)
    # every fold's path, fit for fit, against the chain of warm-started calls
    old_fits, _ = path_oracle.cv_fold_models(data, link, folds=3, seed=4, max_iter=max_iter)
    new_fits = [
        model
        for train_idx, _ in linear._kfold_indices(data.n_rows, 3, 4)
        for model, _ in linear._fit_path(data.take(train_idx), link, grid, max_iter, 1e-5)
    ]
    assert len(new_fits) == len(old_fits) == 3 * len(grid)
    for new, old in zip(new_fits, old_fits):
        _assert_same_model(new, old)
    if max_iter == 6:
        assert not all(m.converged for m in old_fits)
    # and the selection and refit on all rows
    try:
        old_model, old_table = path_oracle.fit_linear_cv(data, link, folds=3, seed=4, max_iter=max_iter)
    except ConvergenceError as err:
        with pytest.raises(ConvergenceError) as exc:
            fit_linear_cv(data, link, folds=3, seed=4, max_iter=max_iter)
        assert str(exc.value) == str(err)
        _assert_same_model(exc.value.model, err.model)
        return
    model, table = fit_linear_cv(data, link, folds=3, seed=4, max_iter=max_iter)
    assert list(table.items()) == list(old_table.items())
    _assert_same_model(model, old_model)


@pytest.mark.parametrize("folds", [1, 0, -3])
def test_cv_rejects_fewer_than_two_folds(folds):
    X, y = random_regression(14)
    with pytest.raises(ValueError, match="folds must be >= 2"):
        fit_linear_cv(dm(X, y), "identity", folds=folds)


def _no_fan_out(*args):
    raise AssertionError("reached the fold fan-out")


@pytest.mark.parametrize("link", ["identity", "logistic"])
def test_cv_rejects_one_row_before_fan_out(link, monkeypatch):
    monkeypatch.setattr(linear, "fork_map", _no_fan_out)
    with pytest.raises(ValueError, match="at least 2 rows, got 1"):
        fit_linear_cv(dm([[0.5, 2.0]], [1.0]), link, folds=3)


def test_cv_rejects_bad_link_and_targets_before_fan_out(monkeypatch):
    monkeypatch.setattr(linear, "fork_map", _no_fan_out)
    X, y = random_regression(15)
    with pytest.raises(ValueError, match="link must be 'identity' or 'logistic', got 'probit'"):
        fit_linear_cv(dm(X, y), "probit", folds=3)
    with pytest.raises(ValueError, match="logistic link requires binary 0/1 targets"):
        fit_linear_cv(dm(X, y), "logistic", folds=3)
