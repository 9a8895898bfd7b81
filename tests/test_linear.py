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
    model = fit_linear(dm(X, y), "identity", l1_lambda=0.0)
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
        model = fit_linear(dm(x[:, None], y), "identity", l1_lambda=lam)
        expected = np.sign(beta_ols) * max(abs(beta_ols) - lam, 0.0)
        assert model.weights[0] == pytest.approx(expected, abs=1e-9)


def test_monotone_sparsity_along_lambda_grid():
    X, y = random_regression(4, n=200, p=12, noise=0.3)
    grid = np.logspace(-3, 0.3, 8)
    counts = []
    for lam in grid:
        model = fit_linear(dm(X, y), "identity", l1_lambda=float(lam))
        counts.append(np.count_nonzero(model.weights))
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_convergence_error_carries_last_iterate():
    X, y = random_regression(5)
    with pytest.raises(ConvergenceError) as exc:
        fit_linear(dm(X, y), "identity", l1_lambda=0.0, max_iter=1)
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
    model = fit_linear(dm(X, y, categorical=(0,)), "identity", l1_lambda=0.0)
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
    grid = linear.default_lambda_grid(linear._standardize(data)[3], data.y)
    assert list(table) == grid == sorted(grid, reverse=True)
    assert len(grid) == 5 and all(type(lam) is float for lam in grid)
    # lmax forces every weight to zero, and a little below it one enters
    assert np.all(fit_linear(data, "identity", grid[0] * np.sqrt(10) * (1 + 1e-9)).weights == 0.0)
    assert np.any(fit_linear(data, "identity", grid[0] * np.sqrt(10) * 0.99).weights != 0.0)


def test_convergence_error_message_explains_the_failure():
    X, y = random_regression(12)
    with pytest.raises(ConvergenceError) as exc:
        fit_linear(dm(X, y), "identity", l1_lambda=0.0, max_iter=3)
    model = exc.value.model
    # the identity link names the lambda its three homotopy steps reached,
    # where the fourth would be; the model is the exact fit there
    reached = float(str(exc.value).rpartition("stopped at lambda=")[2].rstrip(")"))
    assert str(exc.value) == (
        "the lasso homotopy did not reach lambda=0 within 3 steps "
        f"(identity link, stopped at lambda={reached:.6g})"
    )
    assert (model.converged, model.n_sweeps, np.count_nonzero(model.weights)) == (False, 3, 3)
    exact = fit_linear(dm(X, y), "identity", l1_lambda=reached)
    np.testing.assert_allclose(model.weights, exact.weights, rtol=0, atol=1e-5 * reached)
    # the logistic link names its certificate and eps (60 of 120 positive:
    # eps = 0.01 * 60 / 120)
    yb = (y > np.median(y)).astype(float)
    with pytest.raises(ConvergenceError) as exc:
        fit_linear(dm(X, yb), "logistic", l1_lambda=1e-3, max_iter=3)
    certificate = exc.value.model.certificate
    assert certificate > 0.005
    assert str(exc.value) == (
        "coordinate descent did not converge within 3 sweeps (logistic link, lambda=0.001, "
        f"3 sweeps used, optimality certificate S/S(0, 0) {certificate:.3g} above eps 0.005)"
    )


def test_homotopy_takes_no_event_that_rounding_alone_puts_above_the_lambda():
    # y is exactly a combination of three columns: once they are active the
    # others' correlations with the residual are rounding, so their events
    # lie within TIE_TOL * lambda_max above lambda = 0 and count as reaching
    # it; the path takes one step per column of y and the others stay 0
    X = np.random.default_rng(31).normal(size=(100, 6))
    model = fit_linear(dm(X, X[:, :3] @ np.array([1.0, -2.0, 0.5])), "identity", 0.0)
    assert model.n_sweeps == 3 and np.all(model.weights[3:] == 0.0)
    assert model.certificate <= 1e-12


def test_a_column_that_leaves_can_rejoin_with_the_other_sign():
    # two pairs of correlated columns: on this draw a coefficient reaches 0
    # and its column's next event is to rejoin with the other sign, so only
    # the side it left from is barred at that event
    rng = np.random.default_rng(27)
    X = rng.normal(size=(40, 6))
    X[:, 1] = X[:, 0] + 0.2 * rng.normal(size=40)
    X[:, 3] = X[:, 2] + 0.2 * rng.normal(size=40)
    y = X @ rng.normal(size=6) + rng.normal(size=40)
    _assert_homotopy_solves(_standardized(X), y, [0.0])


# -- each link's solver against the residual-space oracle ---------------------


def _standardized(X, categorical=()):
    """The design ``fit_linear`` hands to its solver."""
    Z = linear.fit_encoder(X, categorical).transform(X)
    sigma = Z.std(axis=0)
    return np.asfortranarray((Z - Z.mean(axis=0)) / np.where(sigma > 0, sigma, 1.0))


def _oracle_design(name, n=200):
    """Small rank-deficient designs: a constant column (0 once centred), a
    categorical with every level kept, one column the sum of two others, and
    a GBDT's leaf one-hots, one block per tree summing to 1."""
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
    elif name == "sum-column":
        Z = _standardized(np.column_stack([X, X[:, 2] + X[:, 4]]))
    else:
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


def _assert_sweeps_match(Z, y, lam, omega, max_sweeps, w0=None, b0=0.0, bound_frac=1e-8):
    """The logistic sub-problem's sweeps, stopping at S <= bound_frac * S(0, 0),
    against the oracle's, sweep for sweep."""
    n = len(y)
    bound = bound_frac * linear._subgradient_norm(
        -(Z.T @ (omega * y)) / n, -float(omega @ y) / n, np.zeros(Z.shape[1]), lam
    )
    w_new = np.zeros(Z.shape[1]) if w0 is None else w0.copy()
    w_old = w_new.copy()
    b_new, sweeps_new, conv_new = linear._cd_sweeps(Z, y, w_new, b0, lam, omega, max_sweeps, bound)
    b_old, sweeps_old, conv_old = oracle_sweeps(Z, y, w_old, b0, lam, omega, max_sweeps, None, bound)
    assert (sweeps_new, conv_new) == (sweeps_old, conv_old)
    assert np.max(np.abs(w_new - w_old), initial=0.0) < 1e-10
    assert abs(b_new - b_old) < 1e-10
    return w_new, sweeps_new


KKT_TOL = 1e-12  # the homotopy's largest KKT violation, as a share of lambda_max
OBJ_RTOL = 1e-12  # how far its objective may exceed long CD's, relative


def _lasso_objective(Z, y, w, b, lam):
    return 0.5 * float(np.mean((y - Z @ w - b) ** 2)) + lam * float(np.abs(w).sum())


def _assert_homotopy_solves(Z, y, lambdas):
    """The identity link's solver, ``_lasso_path`` on G = Z'Z / n with the
    mean residual as intercept, at each of ``lambdas``: every coordinate
    meets its KKT condition, read from Z, the active columns are linearly
    independent, and the objective is no higher than after the oracle's
    long coordinate descent.  Returns the path."""
    n = len(y)
    lmax = _lambda_max(Z, y, None)
    path = linear._lasso_path(Z.T @ Z / n, Z.T @ (y - y.mean()) / n, lambdas, 10_000)
    for lam, (w, _, reached) in zip(lambdas, path):
        assert reached == lam
        b = float(np.mean(y - Z @ w))
        g = Z.T @ (y - Z @ w - b) / n
        active = w != 0
        kkt = np.where(active, np.abs(g - lam * np.sign(w)), np.maximum(np.abs(g) - lam, 0.0))
        assert np.max(kkt) <= KKT_TOL * lmax
        assert np.linalg.matrix_rank(Z[:, active]) == np.count_nonzero(active)
        w_cd = np.zeros(Z.shape[1])
        b_cd = oracle_sweeps(Z, y, w_cd, 0.0, lam, None, 5000, 1e-13)[0]
        f_cd = _lasso_objective(Z, y, w_cd, b_cd, lam)
        assert _lasso_objective(Z, y, w, b, lam) - f_cd <= OBJ_RTOL * f_cd
    return path


@pytest.mark.parametrize("lam_frac", [0.0, 0.1, 0.95], ids=["lam0", "mid", "near-max"])
@pytest.mark.parametrize("link", ["identity", "logistic"])
@pytest.mark.parametrize("design", ["constant-column", "categorical", "sum-column", "leaf-one-hot"])
def test_sweeps_match_residual_oracle(design, link, lam_frac):
    Z, y, omega = _sweep_problem(design, link)
    lam = lam_frac * _lambda_max(Z, y, omega)
    if link == "identity":  # the homotopy, against the oracle's long run
        _assert_homotopy_solves(Z, y, [lam])
        return
    _assert_sweeps_match(Z, y, lam, omega, max_sweeps=2000)
    # a budget too small to converge: stops after one full or one active sweep
    for max_sweeps in (1, 2):
        _assert_sweeps_match(Z, y, lam, omega, max_sweeps=max_sweeps)


@pytest.mark.parametrize("link", ["identity", "logistic"])
def test_sweeps_match_residual_oracle_through_sign_changes(link):
    Z, y, omega = _sweep_problem("leaf-one-hot", link)
    lmax = _lambda_max(Z, y, omega)
    if link == "identity":
        # along a grid down to 0 some coefficients leave the active set, and
        # the path is exact at every lambda of it
        lambdas = [*(lmax * np.logspace(0, -4, 20)), 0.0]
        W = np.array([w for w, _, _ in _assert_homotopy_solves(Z, y, lambdas)])
        assert np.any((W[:-1] != 0) & (np.sign(W[1:]) != np.sign(W[:-1])))
        return
    # warm-started from the unpenalized fit, coefficients cross zero or
    # drop out inside active sweeps, where the triangular solve stops and
    # takes the scalar soft-threshold step
    w0, _ = _assert_sweeps_match(Z, y, 0.0, omega, max_sweeps=3000)
    _assert_sweeps_match(Z, y, 0.3 * lmax, omega, max_sweeps=2000, w0=w0, b0=0.1)


@pytest.mark.parametrize("link", ["identity", "logistic"])
def test_sweeps_match_residual_oracle_on_duplicated_columns(link):
    # every third column repeated makes the design rank-deficient
    Z, y, omega = _sweep_problem("leaf-one-hot", link)
    Z = np.asfortranarray(np.hstack([Z, Z[:, ::3]]))
    lam = 0.05 * _lambda_max(Z, y, omega)
    if link == "identity":  # at most one of each pair is active
        _assert_homotopy_solves(Z, y, [lam, 0.0])
        return
    # from a dense warm start, active sweeps zero coefficients, so the
    # active set shrinks between full sweeps and the sweep slices its block
    # down
    w0 = 0.5 * np.random.default_rng(1).normal(size=Z.shape[1])
    _assert_sweeps_match(Z, y, lam, omega, max_sweeps=2000, w0=w0, b0=0.1)
    # budgets that stop inside the active sweeps, just after a shrink
    for max_sweeps in range(1, 30):
        _assert_sweeps_match(Z, y, lam, omega, max_sweeps=max_sweeps, w0=w0, b0=0.1)


@pytest.mark.parametrize("design", ["constant-column", "categorical", "leaf-one-hot"])
def test_sweeps_match_residual_oracle_with_a_certificate_bound(design):
    # the sweep stops once its own minimum-norm subgradient, read after a
    # full sweep or every 10th active sweep in a row, is within the bound:
    # the looser the bound, the sooner (12 sweeps is a full one, 10 active
    # ones and the full one that verifies)
    Z, y, omega = _sweep_problem(design, "logistic")
    lam = 0.01 * _lambda_max(Z, y, omega)
    used = [
        _assert_sweeps_match(Z, y, lam, omega, max_sweeps=2000, bound_frac=frac)[1]
        for frac in (1e-1, 1e-2, 1e-3, 1e-4, 1e-10)
    ]
    assert used == sorted(used) and used[0] < used[-1]


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
    assert (new.link, new.l1_lambda, new.intercept, new.converged, new.n_sweeps, new.certificate) == (
        old.link, old.l1_lambda, old.intercept, old.converged, old.n_sweeps, old.certificate
    )
    for a, b in ((new.weights, old.weights), (new.mu, old.mu), (new.sigma, old.sigma)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert (new.encoder, new.feature_names, new.n_raw_features) == (
        old.encoder, old.feature_names, old.n_raw_features
    )


# every fit converges within 400 sweeps or homotopy steps; at 6 all fold
# fits and every refit run out
def _record_fold_paths(monkeypatch):
    """Run ``fit_linear_cv``'s folds in the caller and record every
    ``_fit_path`` call it makes as (Z, y, lambdas, path): the folds' in fold
    order, then the refit's."""
    calls = []
    fit_path = linear._fit_path

    def recording(Z, y, link, lambdas, max_iter):
        calls.append((Z, y, lambdas, fit_path(Z, y, link, lambdas, max_iter)))
        return calls[-1][3]

    monkeypatch.setattr(linear, "_fit_path", recording)
    monkeypatch.setattr(linear, "fork_map", lambda fn, items: [fn(x) for x in items])
    return calls


def _fold_rows(Z_cv, train_idx):
    """A fold's training rows of the CV design and their column means."""
    Zt = Z_cv[train_idx]
    return Zt, Zt.mean(axis=0)


@pytest.mark.parametrize("max_iter", [2000, 400, 6], ids=["budget-2000", "budget-400", "budget-6"])
@pytest.mark.parametrize("link", ["identity", "logistic"])
@pytest.mark.parametrize("design", ["categorical", "duplicated-leaves"])
def test_cv_path_matches_warm_started_oracle(design, link, max_iter, monkeypatch):
    data = _path_data(design, link)
    grid = linear.default_lambda_grid(linear._standardize(data)[3], data.y)
    assert grid == path_oracle.default_lambda_grid(data)
    # every fold's path, fit for fit, against the chain of warm-started
    # calls on the fold's centred rows of the all-rows standardization,
    # both stopping on the certificate under the logistic link and each
    # identity call a homotopy of its own from lambda_max, and the refits too
    old_fits, _ = path_oracle.cv_fold_models(data, link, folds=3, seed=4, max_iter=max_iter)
    calls = _record_fold_paths(monkeypatch)
    try:
        fit_linear_cv(data, link, folds=3, seed=4, max_iter=max_iter)
    except ConvergenceError:
        pass
    new_fits = [fit for _, _, _, path in calls[:3] for fit in path]
    assert len(calls) == 4 and len(new_fits) == len(old_fits) == 3 * len(grid)
    for (w, b, steps, converged, certificate, _), old in zip(new_fits, old_fits):
        assert (b, steps, converged, certificate) == (old.intercept, old.n_sweeps, old.converged, old.certificate)
        assert w.tobytes() == old.weights.tobytes()
    if max_iter == 6:
        assert not all(m.converged for m in old_fits)
    # and the selection and refit on all rows
    monkeypatch.undo()
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


@pytest.mark.parametrize("folds", [3, 10])
def test_cv_standardizes_once_and_once_more_for_the_refit(folds, monkeypatch):
    # the grid and every fold are read off one standardized design; the
    # refit, a plain fit_linear, standardizes its own
    calls = []
    standardize = linear._standardize
    monkeypatch.setattr(linear, "_standardize", lambda data: calls.append(data.n_rows) or standardize(data))
    monkeypatch.setattr(linear, "fork_map", lambda fn, items: [fn(x) for x in items])
    X, y = random_regression(16)
    for link, target in (("identity", y), ("logistic", (y > np.median(y)).astype(float))):
        calls.clear()
        fit_linear_cv(dm(X, target), link, folds=folds)
        assert calls == [len(y), len(y)]


@pytest.mark.parametrize("link", ["identity", "logistic"])
@pytest.mark.parametrize("design", ["categorical", "duplicated-leaves"])
def test_cv_folds_solve_their_rows_of_the_one_design(design, link, monkeypatch):
    data = _path_data(design, link)
    calls = _record_fold_paths(monkeypatch)
    _, table = fit_linear_cv(data, link, folds=3, seed=4)
    Z_cv = linear._standardize(data)[3]
    grid = linear.default_lambda_grid(Z_cv, data.y)
    # the refit solves all rows as standardized, not centred again
    assert np.array_equal(calls[3][0], Z_cv) and calls[3][2] == [min(table, key=table.get)]
    totals = dict.fromkeys(grid, 0.0)
    for (Z, y, lambdas, path), (train_idx, val_idx) in zip(calls, linear._kfold_indices(data.n_rows, 3, 4)):
        (Zt, means), n = _fold_rows(Z_cv, train_idx), len(train_idx)
        Zc = Zt - means
        assert lambdas == grid and np.array_equal(y, data.y[train_idx]) and np.array_equal(Z, Zc)
        if link == "identity":
            # the homotopy on a Gram matrix centred here (the fit and the
            # penalty; the weights too where no leaf column repeats, since
            # how a repeated column's weight is shared is not unique), and the
            # lasso KKT conditions on the fold's uncentred rows of the CV
            # design, where the intercept is b - means @ w
            c = Zc.T @ (y - y.mean()) / n
            ref = linear._lasso_path(Zc.T @ Zc / n, c, grid, 2000)
            for lam, (w, b, _, converged, _, _), (w_ref, _, _) in zip(grid, path, ref):
                assert converged
                np.testing.assert_allclose(Zc @ w, Zc @ w_ref, rtol=0, atol=1e-10)
                assert abs(np.abs(w).sum() - np.abs(w_ref).sum()) <= 1e-10
                if design == "categorical":
                    np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-10)
                g = Zt.T @ (y - Zt @ w - (b - means @ w)) / n
                kkt = np.where(w != 0, np.abs(g - lam * np.sign(w)), np.maximum(np.abs(g) - lam, 0.0))
                assert np.max(kkt) <= KKT_TOL * np.max(np.abs(c))
        else:
            # the certificate, recomputed on the centred rows, is within the
            # path's bound, eps * S(0, 0) at the first lambda
            p0 = np.full(n, 0.5)
            s0 = linear._subgradient_norm(Zc.T @ (p0 - y) / n, float(np.mean(p0 - y)), np.zeros(Zc.shape[1]), grid[0])
            for lam, (w, b, _, converged, certificate, _) in zip(grid, path):
                p = sigmoid(Zc @ w + b)
                s = linear._subgradient_norm(Zc.T @ (p - y) / n, float(np.mean(p - y)), w, lam)
                assert converged and s <= path_oracle.certificate_eps(y) * s0
                assert certificate == pytest.approx(s / s0, rel=1e-9)
        # each fold scores its validation rows as the fold's rows of the CV design
        for lam, (w, b, *_) in zip(grid, path):
            pred = Z_cv[val_idx] @ w + (b - means @ w)
            pred = sigmoid(pred) if link == "logistic" else pred
            totals[lam] += linear.cv_loss(pred, data.y[val_idx], link) * len(val_idx)
    for lam in grid:
        assert table[lam] == pytest.approx(totals[lam] / data.n_rows, rel=1e-12)


# -- the optimality certificate of the logistic fold fits ----------------------


def _brute_force_subgradient_norm(g, g_b, w, lam, steps=20_001):
    """Each coordinate's smallest |g_j + t| over t in its subdifferential of
    lam * |w_j| ({lam * sign(w_j)}, or [-lam, lam] sampled at ``steps``
    points where w_j = 0), summed, plus the free intercept's |g_b|."""
    total = abs(g_b)
    for gj, wj in zip(g, w):
        ts = np.array([lam * np.sign(wj)]) if wj != 0 else np.linspace(-lam, lam, steps)
        total += float(np.min(np.abs(gj + ts)))
    return total


@pytest.mark.parametrize("lam", [0.0, 0.05, 0.5])
def test_subgradient_norm_matches_brute_force_minimum(lam):
    # w_j > 0, w_j < 0, and w_j = 0 with |g_j| above and below lam, each
    # with both signs of g_j
    g = np.array([0.3, -0.8, 0.9, -0.02, 0.7, -0.6, 0.04, -0.03, 0.0])
    w = np.array([1.5, 0.2, -0.4, -2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    for g_b in (0.0, 0.25, -0.125):
        got = linear._subgradient_norm(g, g_b, w, lam)
        # the sampled interval misses the exact minimizer by at most its step
        want = _brute_force_subgradient_norm(g, g_b, w, lam)
        assert got == pytest.approx(want, abs=len(g) * lam / 20_000 + 1e-12)
    # by hand at lam = 0.5: |0.8| + |-0.3| + |0.4| + |-0.52| + 0.2 + 0.1 + 0 + 0 + 0, and |g_b|
    assert linear._subgradient_norm(g, -0.125, w, 0.5) == pytest.approx(2.445)
    # at lam = 0 it is ||g||_1 + |g_b| whatever w is
    assert linear._subgradient_norm(g, 0.25, w, 0.0) == pytest.approx(np.abs(g).sum() + 0.25)


def _logistic_objective(Z, y, w, b, lam):
    z = Z @ w + b
    return float(np.mean(np.logaddexp(0.0, z) - y * z)) + lam * float(np.abs(w).sum())


def test_certified_fold_fits_end_within_budget_near_the_optimum():
    # each fold's path on its centred rows of the CV design, as fit_linear_cv solves it
    data = _path_data("duplicated-leaves", "logistic")
    Z_cv = linear._standardize(data)[3]
    grid = linear.default_lambda_grid(Z_cv, data.y)
    start = path_oracle.cv_start(data, "logistic")
    ran_out = 0
    for train_idx, _ in linear._kfold_indices(data.n_rows, 3, 4):
        train = data.take(train_idx)
        y, n = train.y, train.n_rows
        Zt, means = _fold_rows(Z_cv, train_idx)
        Z = np.asfortranarray(Zt - means)
        # the coefficient test alone runs out of its 400 sweeps on some fits
        plain = path_oracle.coefficient_test_chain(train, grid, 400, 1e-5, start=start, shift=means)
        ran_out += not all(m.converged for m in plain)
        w0 = np.zeros(Z.shape[1])
        p0 = sigmoid(Z @ w0)
        s0 = linear._subgradient_norm(Z.T @ (p0 - y) / n, float(np.mean(p0 - y)), w0, grid[0])
        n_pos = int(y.sum())
        bound = 0.01 * max(min(n_pos, n - n_pos), 1) / n * s0
        for lam, (w, b, steps, converged, certificate, _) in zip(grid, linear._fit_path(Z, y, "logistic", grid, 400)):
            assert converged and steps < 400
            p = sigmoid(Z @ w + b)
            s = linear._subgradient_norm(Z.T @ (p - y) / n, float(np.mean(p - y)), w, lam)
            assert s <= bound and certificate == s / s0
            # against a long run under the coefficient test, the objective is
            # within 1% of the reference's
            [ref] = path_oracle.coefficient_test_chain(train, [lam], 20_000, 1e-8, start=start, shift=means)
            f_ref = _logistic_objective(Z, y, ref.weights, ref.intercept, lam)
            gap = _logistic_objective(Z, y, w, b, lam) - f_ref
            assert gap <= 0.01 * f_ref
    assert ran_out > 0


def test_logistic_fit_linear_certifies_where_the_coefficient_test_runs_out():
    # on the duplicated leaf columns, at the grid's middle lambda, the
    # coefficient test still moves a coefficient by more than tol after
    # 1000 sweeps; the certificate stops the same fit well within them
    data = _path_data("duplicated-leaves", "logistic")
    lam = linear.default_lambda_grid(linear._standardize(data)[3], data.y)[2]
    with pytest.raises(ConvergenceError):
        path_oracle.fit_linear(data, "logistic", lam, max_iter=1000, tol=1e-6, certify=False)
    model = fit_linear(data, "logistic", lam, max_iter=1000)
    assert model.converged and model.n_sweeps < 1000
    assert model.certificate <= path_oracle.certificate_eps(data.y)
    _assert_same_model(model, path_oracle.fit_linear(data, "logistic", lam, max_iter=1000))


@pytest.mark.parametrize("design", ["categorical", "duplicated-leaves"])
def test_lambda_zero_logistic_fit_certifies(design):
    # the model table's unpenalized linear model: lambda 0, 3000 sweeps
    data = _path_data(design, "logistic")
    model = fit_linear(data, "logistic", 0.0, max_iter=3000)
    assert model.converged and model.certificate <= path_oracle.certificate_eps(data.y)
    _assert_same_model(model, path_oracle.fit_linear(data, "logistic", 0.0, max_iter=3000))
    # at lambda 0, S is the 1-norm of the gradient, intercept included
    Z = np.asfortranarray(linear._standardize(data)[3])
    y = data.y
    p = sigmoid(Z @ model.weights + model.intercept)
    s = np.abs(Z.T @ (p - y) / len(y)).sum() + abs(np.mean(p - y))
    assert s / path_oracle.cold_start_subgradient(data, 0.0, "logistic") == pytest.approx(model.certificate)


@pytest.mark.parametrize("link", ["identity", "logistic"])
@pytest.mark.parametrize("design", ["categorical", "duplicated-leaves"])
def test_cv_model_is_fit_linear_at_the_chosen_lambda(design, link):
    # the model returned is the one fit_linear gives at the chosen lambda
    # with the same budget
    data = _path_data(design, link)
    model, table = fit_linear_cv(data, link, folds=3, seed=9, max_iter=2000)
    assert model.l1_lambda in table
    _assert_same_model(model, fit_linear(data, link, model.l1_lambda, max_iter=2000))


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
