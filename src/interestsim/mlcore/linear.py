"""L1-regularized linear and logistic models (lasso homotopy, coordinate descent).

Features are standardized internally (parameters stored with the model)
and categorical columns are one-hot encoded over their most frequent
levels.  The penalized objective is (1/n)-scaled loss + lambda * ||w||_1
with an unpenalized intercept.  Every fit is part of a lambda path
(``_fit_path``), which encodes and standardizes its design once and fits
each lambda in turn: ``fit_linear`` is a path of one lambda and
``fit_linear_cv`` runs one path per fold.  The folds are independent, so
``fit_linear_cv`` fans them out over the CPUs with ``_util.fork_map``; each
worker returns its folds' validation losses, the caller sums them in fold
order and refits on all rows itself, so the CV table, the chosen lambda
and the model are those of a serial loop, bit for bit, for any number of
CPUs.  The folds run with one BLAS thread (see ``_util``), so on large
designs their losses no longer depend on the BLAS thread count; the
refit still does.  ``fit_linear``, which the benchmark harness hooks,
never runs in a worker.

Each link has one solver and one stopping rule: the identity link the
exact LARS-lasso homotopy (``_lasso_path``), the logistic link cyclic
coordinate descent (``_cd_sweeps``) in iteratively reweighted least squares,
stopping on newGLMNET's optimality certificate (see ``_fit_path``).

The sweeps alternate between full sweeps, a Python loop over every column
that keeps the residual current at O(n) per coordinate step, and sweeps
over the active (nonzero) set, which run in Gram space: on a fixed active
set a cyclic sweep is one triangular solve with the active block of
Z' Omega Z / n, at O(|active|) per coordinate step.  It and the homotopy's
G are built from matrix-vector products only: OpenBLAS rounds matrix-matrix
products differently under different thread counts.  On large designs the
matrix-vector products differ too (see ``_cd_sweeps``), so a fit there can
depend on the thread count in its last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsv

from .._util import fork_map
from .data import DesignMatrix, check_width


class ConvergenceError(Exception):
    """Raised when a fit exhausts its budget of sweeps or homotopy steps;
    carries the model it stopped at in ``.model``."""

    def __init__(self, message: str, model: "LinearModel"):
        super().__init__(message)
        self.model = model


@dataclass(frozen=True)
class CategoricalEncoder:
    columns: tuple[int, ...]
    levels: tuple[tuple[float, ...], ...]  # per column, values kept as indicators

    def width(self, n_raw: int) -> int:
        return n_raw - len(self.columns) + sum(len(lv) for lv in self.levels)

    def transform(self, X: np.ndarray) -> np.ndarray:
        if not self.columns:
            return np.asarray(X, dtype=np.float64)
        X = np.asarray(X, dtype=np.float64)
        blocks = []
        cat = set(self.columns)
        numeric = [j for j in range(X.shape[1]) if j not in cat]
        if numeric:
            blocks.append(X[:, numeric])
        for j, lv in zip(self.columns, self.levels):
            col = X[:, j]
            blocks.append((col[:, None] == np.asarray(lv)[None, :]).astype(np.float64))
        return np.hstack(blocks)

    def names(self, raw_names: tuple[str, ...]) -> tuple[str, ...]:
        if not self.columns:
            return tuple(raw_names)
        cat = set(self.columns)
        out = [raw_names[j] for j in range(len(raw_names)) if j not in cat]
        for j, lv in zip(self.columns, self.levels):
            out.extend(f"{raw_names[j]}={v:g}" for v in lv)
        return tuple(out)


MAX_LEVELS = 20  # indicator columns per categorical column


def fit_encoder(X: np.ndarray, categorical: tuple[int, ...]) -> CategoricalEncoder:
    """Keep the ``MAX_LEVELS`` most frequent values per categorical column
    (ties to the smaller value); unseen or rare values encode as all-zero."""
    levels = []
    for j in categorical:
        vals, counts = np.unique(X[:, j], return_counts=True)
        order = np.lexsort((vals, -counts))
        kept = np.sort(vals[order[:MAX_LEVELS]])
        levels.append(tuple(float(v) for v in kept))
    return CategoricalEncoder(tuple(categorical), tuple(levels))


@dataclass
class LinearModel:
    link: str  # "identity" or "logistic"
    l1_lambda: float
    weights: np.ndarray  # on the standardized scale
    intercept: float
    mu: np.ndarray
    sigma: np.ndarray
    encoder: CategoricalEncoder
    feature_names: tuple[str, ...]
    n_raw_features: int
    converged: bool = True
    n_sweeps: int = 0
    certificate: float | None = None  # S(w, b) / S(0, 0) at exit (see _fit_path), a hybrid's on its distinct leaves

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = check_width(X, self.n_raw_features)
        Z = (self.encoder.transform(X) - self.mu) / self.sigma
        # row by row, so a value does not depend on its batch, as Z @ w's does
        return np.multiply(Z, self.weights, order="C").sum(axis=1) + self.intercept

    def predict(self, X: np.ndarray) -> np.ndarray:
        z = self.decision_function(X)
        if self.link == "logistic":
            return sigmoid(z)
        return z


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _subgradient_norm(g, g_b, w, lam):
    """S(w, b): the 1-norm of the minimum-norm subgradient of a smooth loss
    plus lam * ||w||_1 and a free intercept, given the loss's gradient g in
    w and g_b in the intercept.  Coordinate j contributes |g_j + lam| where
    w_j > 0, |g_j - lam| where w_j < 0 and max(|g_j| - lam, 0) where w_j = 0;
    the intercept contributes |g_b|.  S is 0 exactly at a minimizer."""
    at_zero = np.maximum(np.abs(g) - lam, 0.0)
    return float(np.where(w != 0, np.abs(g + lam * np.sign(w)), at_zero).sum()) + abs(g_b)


def _soft(x: float, t: float) -> float:
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def _gram_block(Z, omega, cols, col_ss):
    """G = Z_A' Omega Z_A / n for the columns A = ``cols``, in Fortran order.

    The part of column k on and below the diagonal is one matrix-vector
    product, Z_wA' z_k over the rows of A from k on (see ``_cd_sweeps``), and
    is mirrored into the upper triangle, so G is exactly symmetric.  Its
    diagonal is ``col_ss[cols]``, the divisor of the full sweeps' scalar
    steps."""
    Zw = Z if omega is None else Z[:, cols] * omega[:, None]  # None: Omega = I, A all columns, Z not copied
    G = np.empty((len(cols), len(cols)), order="F")
    for i, k in enumerate(cols):
        G[i:, i] = Zw[:, i:].T @ Z[:, k]
        G[i, i + 1 :] = G[i + 1 :, i]
    G /= len(Z)
    G.flat[:: len(cols) + 1] = col_ss[cols]
    return G


def _active_step(G, u, w, lam):
    """The step d of one cyclic sweep over the active block.

    ``G`` is the block's Gram matrix (only its lower triangle is read),
    ``u = Z_A' Omega r / n`` the gradient at the sweep's start and ``w`` the
    block's coefficients, all nonzero.  While every coefficient keeps its
    sign s, coordinate j moves by d_j = (u_j - sum_{k<j} G_jk d_k - lam*s_j)
    / G_jj: the sweep is the forward substitution
    (diag + lower)(G) d = u - lam*s.  The first coordinate whose new value
    would change sign or reach zero takes the scalar soft-threshold step
    instead, and the solve resumes after it.  At lam = 0 every sign is valid.
    """
    s = np.sign(w)
    rhs = u - lam * s
    d = dtrsv(G, rhs, lower=1)
    if lam == 0.0:
        return d
    m = 0
    while True:
        flips = np.flatnonzero((w[m:] + d[m:]) * s[m:] <= 0)
        if not len(flips):
            return d
        m += int(flips[0])
        rho = u[m] - float(G[m, :m] @ d[:m]) + G[m, m] * w[m]
        d[m] = _soft(rho, lam) / G[m, m] - w[m]
        m += 1
        if m == len(w):
            return d
        d[m:] = dtrsv(G[m:, m:], rhs[m:] - G[m:, :m] @ d[:m], lower=1)


def _cd_sweeps(Z, y, w, b, lam, omega, max_sweeps, bound):
    """Cyclic coordinate descent on (1/2n) sum omega*(y - Zw - b)^2 + lam*||w||_1,
    a logistic fit's IRLS sub-problem.

    Alternates full sweeps with sweeps over the active set A (the nonzero
    coefficients).  It converges when, after a full sweep, the problem's own
    minimum-norm subgradient S (``_subgradient_norm``, one Z' Omega r
    product) is at most ``bound``, newGLMNET's inner test (Yuan, Ho & Lin
    2012).  Every 10th active sweep in a row checks S over A alone, from the
    tracked gradient, and if it passes, the next sweep is a full one that
    checks all of S.

    A full sweep loops over all columns and updates the residual r after
    each coordinate step, at O(n) per step.  An active sweep works in Gram
    space (Friedman, Hastie & Tibshirani 2010, covariance updates): the
    gradient u = Z_A' Omega r / n is set from r once after a full sweep and
    then updated through G = Z_A' Omega Z_A / n, so one sweep is one
    triangular solve (``_active_step``) at O(|A|) per coordinate step, and
    r is recomputed before the next full sweep.  The intercept is updated
    after every sweep from the tracked sum of Omega r.

    A is taken from w after each full sweep.  Between full sweeps the
    block's coefficients wA and column sums of Omega Z_A are local arrays,
    written back to w before the next full sweep, and A can only shrink: a
    coefficient that an active sweep sets to zero leaves it.  One test that
    all of wA is still nonzero decides this; only when it fails are the
    leaving coefficients zeroed in w and A, u, wA, the column sums and G
    sliced down.

    G is built only when a full sweep brings in a column it lacks, one
    matrix-vector product per column (``_gram_block``); otherwise its block
    is sliced out.  A matrix-matrix product such as Zw' Z would be quicker
    to build, but OpenBLAS rounds it differently under different thread
    counts.  The matrix-vector and dot products are not thread-invariant on
    large designs either: under OpenBLAS 0.3.31 (Haswell kernels, 2 cores),
    Z' r, Z w and ``_gram_block``'s products on Fortran float64 designs
    differed in their last bits between 1 and 2 threads from 2100 x 226
    up, and at 63000 x 250 so did the per-column zj' r; no design of
    459,900 entries or fewer differed.  Fits on larger designs can
    therefore depend on the thread count.

    Mutates w; returns (intercept, sweeps, converged).
    """
    n = len(y)
    col_ss = np.einsum("i,ij,ij->j", omega, Z, Z) / n
    wsum = float(omega.sum())
    col_wsum = Z.T @ omega
    r = y - Z @ w - b
    p = Z.shape[1]
    full = True
    sweeps = active_run = 0
    A = G = u = None  # the active block; u is None while r is current
    while sweeps < max_sweeps:
        sweeps += 1
        certified = False
        if full:
            if u is not None:
                w[A] = wA
                r = y - Z @ w - b
                u = None
            for j in range(p):
                if col_ss[j] <= 0:
                    continue
                zj = Z[:, j]
                wj = w[j]
                new = _soft(float(zj @ (omega * r)) / n + col_ss[j] * wj, lam) / col_ss[j]
                if new != wj:
                    r -= (new - wj) * zj
                    w[j] = new
            db = float((omega * r).sum()) / wsum
            if db != 0.0:
                b += db
                r -= db
            active_run = 0
            wr = omega * r
            certified = _subgradient_norm(-(Z.T @ wr) / n, -float(wr.sum()) / n, w, lam) <= bound
        else:
            if u is None:
                keep = np.flatnonzero((w != 0) & (col_ss > 0))
                wr = omega * r
                u = (Z.T @ wr)[keep] / n
                wr_sum = float(wr.sum())
                if G is None or not np.array_equal(keep, A):
                    if G is not None and np.isin(keep, A).all():
                        pos = np.searchsorted(A, keep)
                        G = np.asfortranarray(G[np.ix_(pos, pos)])
                    else:
                        G = _gram_block(Z, omega, keep, col_ss)
                A, wA, cA = keep, w[keep], col_wsum[keep]
            else:
                still = wA != 0
                if not still.all():
                    w[A[~still]] = 0.0
                    A, u, wA, cA = A[still], u[still], wA[still], cA[still]
                    G = np.asfortranarray(G[np.ix_(still, still)])
            if len(A):
                d = _active_step(G, u, wA, lam)
                wA += d
                u -= G @ d
                wr_sum -= float(cA @ d)
            db = wr_sum / wsum
            if db != 0.0:
                b += db
                u -= cA * (db / n)
                wr_sum -= db * wsum
            active_run += 1
            if active_run % 10 == 0:
                certified = _subgradient_norm(-u, -wr_sum / n, wA, lam) <= bound
        if certified:
            if full:
                return b, sweeps, True
            full = True  # verify on a full sweep
        else:
            full = False
    if u is not None:
        w[A] = wA
    return b, sweeps, False


RANK_TOL = 1e-8  # least squared residual off the active columns, per G_jj, for a column to join
TIE_TOL = 1e-12  # events this share of lambda_max above the next lambda count as reaching it


def _chol_row(L, G, A, j):
    """(l, r): L l = G[A, j] for L the Cholesky factor of G[A, A], and
    r = G_jj - l'l, the squared residual of column j off the columns A."""
    l = dtrsv(L[: len(A), : len(A)], G[A, j], lower=1) if A else np.zeros(0)
    return l, G[j, j] - float(l @ l)


def _lasso_path(G, c, lambdas, max_steps):
    """The minimizers w of w'Gw / 2 - c'w + lam * ||w||_1 at each of the
    non-increasing ``lambdas``, as (w, steps, lambda reached), by the
    LARS-lasso homotopy (Efron, Hastie, Johnstone & Tibshirani 2004).

    From lambda_max = max |c| down, w is piecewise linear in lambda: with
    active set A and signs s, w_A = G_AA^-1 (c_A - lambda s_A) until an
    inactive correlation c_j - G_j w reaches +-lambda (j joins) or an
    active w_j reaches 0 (it leaves, and cannot rejoin with the same sign
    at the next event).  Each event is a step.  w_A is solved afresh on
    each segment from G_AA's Cholesky factor, kept by triangular solves.
    Two rules keep the path exact on a singular G, such as a hybrid's leaf
    blocks or a categorical's kept levels give: a column joins only if its
    squared residual off A exceeds ``RANK_TOL`` * G_jj, so the active
    columns stay linearly independent (Tibshirani 2013), and one that fails
    waits until a column leaves; and an event within ``TIE_TOL`` *
    lambda_max above the next lambda counts as reaching it.  A path out of
    ``max_steps`` stops, exact, at the lambda of its next event."""
    p = len(c)
    lam = float(np.max(np.abs(c), initial=0.0))
    tie = TIE_TOL * lam
    w, s = np.zeros(p), np.zeros(p)
    A, L = [], np.zeros((p, p), order="F")
    waiting = np.zeros(p, dtype=bool)  # failed the rank test since a column last left
    left, steps, path = None, 0, []
    for target in lambdas:
        while lam > target:
            LA = L[: len(A), : len(A)]
            u, d = (dtrsv(LA, dtrsv(LA, v, lower=1), lower=1, trans=1) if A else v for v in (c[A], s[A]))
            e, a = c - G[:, A] @ u, G[:, A] @ d  # correlations e + lam' * a on the segment
            with np.errstate(divide="ignore", invalid="ignore"):
                up = np.where(a < 1, np.minimum(e / (1.0 - a), lam), -np.inf)
                down = np.where(a > -1, np.minimum(-e / (1.0 + a), lam), -np.inf)
                leave = np.where(s[A] * d < 0, np.minimum(u / d, lam), -np.inf)
            if left is not None:  # it left with correlation s_j * lambda; the other side stays open
                (up if s[left] > 0 else down)[left] = -np.inf
            join = np.where(waiting, -np.inf, np.maximum(up, down))
            join[A] = -np.inf
            j = int(np.argmax(join))
            event = max(join[j], np.max(leave, initial=-np.inf))
            lam = target if event <= target + tie else event
            w[A] = u - lam * d
            if lam == target or steps == max_steps:
                break
            if join[j] >= event:
                l, r = _chol_row(L, G, A, j)
                if r <= RANK_TOL * G[j, j]:
                    waiting[j] = True
                    continue
                s[j] = 1.0 if up[j] >= down[j] else -1.0
                L[len(A), : len(A)], L[len(A), len(A)] = l, np.sqrt(r)
                A.append(j)
                left = None
            else:
                m = int(np.argmax(leave))
                left = A.pop(m)
                w[left] = 0.0
                for i in range(m, len(A)):
                    l, r = _chol_row(L, G, A[:i], A[i])
                    L[i, :i], L[i, i] = l, np.sqrt(r)
                waiting[:] = False
            steps += 1
        path.append((w.copy(), steps, lam))
    return path


def _standardize(data: DesignMatrix):
    """(encoder, mu, sigma, Z): the encoded design, each column scaled to
    mean 0 and standard deviation 1 (constant ones only centred), in C order."""
    encoder = fit_encoder(data.X, data.categorical)
    Z = encoder.transform(data.X)
    mu = Z.mean(axis=0)
    sigma = Z.std(axis=0)
    sigma = np.where(sigma > 0, sigma, 1.0)
    return encoder, mu, sigma, (Z - mu) / sigma


def _check_link(link: str, data: DesignMatrix) -> None:
    if link not in ("identity", "logistic"):
        raise ValueError(f"link must be 'identity' or 'logistic', got {link!r}")
    if link == "logistic" and not np.all(np.isin(np.unique(data.y), (0.0, 1.0))):
        raise ValueError("logistic link requires binary 0/1 targets")


CERT_EPS = 0.01  # LIBLINEAR's default stopping tolerance for L1 logistic regression (-s 6)


def _subgradient_at(Z, y, w, b, lam, link):
    """(S(w, b), z = Zw + b, p = sigmoid(z) or z) of the link's mean loss."""
    z = Z @ w + b
    p = sigmoid(z) if link == "logistic" else z
    return _subgradient_norm(Z.T @ (p - y) / len(y), float(np.mean(p - y)), w, lam), z, p


def _certificate_eps(y):
    """LIBLINEAR's -s 6 default eps = CERT_EPS * max(min(n+, n-), 1) / n."""
    n_pos = int(np.count_nonzero(y))
    return CERT_EPS * max(min(n_pos, len(y) - n_pos), 1) / len(y)


def _fit_path(data: DesignMatrix, link: str, lambdas, max_iter: int):
    """Fit each lambda in the order given on one standardized design Z.
    Returns one (model, the lambda the identity link's homotopy reached,
    else None) per lambda; a model whose budget ran out has ``converged``
    False.

    Identity-link lambdas must not increase: ``_lasso_path`` solves them in
    at most ``max_iter`` steps on G = Z'Z / n and c = Z'(y - mean(y)) / n,
    the mean residual is the intercept and ``n_sweeps`` counts the steps.
    A logistic fit starts from the previous lambda's w and b (the first
    from zero); it and its IRLS sub-problems (``_cd_sweeps``) stop on
    newGLMNET's optimality certificate (Yuan, Ho & Lin 2012; LIBLINEAR's
    -s 6 rule), S(w, b) <= ``_certificate_eps`` * S(0, 0), S being the mean
    logistic loss's ``_subgradient_norm`` and S(0, 0) read at the path's
    cold start and first lambda (a lone fit's own, as in LIBLINEAR).  Each
    model records S / S(0, 0) as ``certificate``."""
    _check_link(link, data)
    if any(lam < 0 for lam in lambdas):
        raise ValueError("l1_lambda must be >= 0")
    y, n = data.y, data.n_rows
    encoder, mu, sigma, Z = _standardize(data)
    Z = np.asfortranarray(Z)
    names = encoder.names(data.names if data.names else tuple(f"x{j}" for j in range(data.n_cols)))
    w = np.zeros(Z.shape[1])
    b = 0.0
    s0 = _subgradient_at(Z, y, w, b, lambdas[0], link)[0]
    bound = _certificate_eps(y) * s0
    if link == "identity":
        G = _gram_block(Z, None, np.arange(Z.shape[1]), np.einsum("ij,ij->j", Z, Z) / n)
        solved = _lasso_path(G, Z.T @ (y - y.mean()) / n, lambdas, max_iter)
    path = []
    for i, lam in enumerate(lambdas):
        if link == "identity":
            w, used, reached = solved[i]
            b = float(np.mean(y - Z @ w))
            s = _subgradient_at(Z, y, w, b, lam, link)[0]
            converged = reached <= lam
        else:
            used, reached = 0, None
            s, z, p = _subgradient_at(Z, y, w, b, lam, link)
            while s > bound and used < max_iter:
                omega = np.maximum(p * (1.0 - p), 1e-6)
                b, sweeps, _ = _cd_sweeps(Z, z + (y - p) / omega, w, b, lam, omega, min(max_iter - used, 100), bound)
                used += sweeps
                s, z, p = _subgradient_at(Z, y, w, b, lam, link)
            converged = s <= bound
        model = LinearModel(
            link=link, l1_lambda=lam, weights=w.copy(), intercept=float(b), mu=mu, sigma=sigma,
            encoder=encoder, feature_names=names, n_raw_features=data.n_cols,
            converged=bool(converged), n_sweeps=used, certificate=s / s0 if s0 > 0 else 0.0,
        )
        path.append((model, reached))
    return path


def fit_linear(
    data: DesignMatrix,
    link: str = "identity",
    l1_lambda: float = 0.0,
    max_iter: int = 1000,
) -> LinearModel:
    """One lambda's fit (see ``_fit_path``); raises ConvergenceError if its
    budget of ``max_iter`` sweeps or homotopy steps runs out."""
    [(model, reached)] = _fit_path(data, link, [l1_lambda], max_iter)
    if not model.converged:
        raise ConvergenceError(
            f"coordinate descent did not converge within {max_iter} sweeps (logistic link, "
            f"lambda={l1_lambda:g}, {model.n_sweeps} sweeps used, optimality certificate S/S(0, 0) "
            f"{model.certificate:.3g} above eps {_certificate_eps(data.y):.3g})"
            if link == "logistic"
            else f"the lasso homotopy did not reach lambda={l1_lambda:g} within {max_iter} steps "
            f"(identity link, stopped at lambda={reached:.6g})",
            model,
        )
    return model


def default_lambda_grid(data: DesignMatrix) -> list[float]:
    """Five lambdas from lmax / sqrt(10) down to lmax / 1000, largest first,
    as Python floats (the CV table's keys).  lmax is the smallest lambda
    that forces every weight to zero: at w = 0 the fitted mean is mean(y)
    for both links, so it is max |Z' (y - mean(y))| / n."""
    _, _, _, Z = _standardize(data)
    y = data.y
    lmax = float(np.max(np.abs(Z.T @ (y - y.mean()))) / len(y))
    if lmax <= 0:
        return [0.0]
    return (lmax * np.logspace(-0.5, -3.0, 5)).tolist()


def _kfold_indices(n: int, folds: int, seed: int):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    bounds = np.linspace(0, n, folds + 1).astype(int)
    for f in range(folds):
        val = perm[bounds[f] : bounds[f + 1]]
        train = np.concatenate([perm[: bounds[f]], perm[bounds[f + 1] :]])
        yield train, val


def cv_loss(pred: np.ndarray, y: np.ndarray, link: str) -> float:
    if link == "logistic":
        p = np.clip(pred, 1e-12, 1 - 1e-12)
        return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))
    return float(np.mean((pred - y) ** 2))


def fit_linear_cv(
    data: DesignMatrix,
    link: str,
    folds: int = 10,
    seed: int = 0,
    max_iter: int = 2000,
):
    """Pick lambda by k-fold CV, then refit on all rows.  Returns (model,
    {lambda: mean CV loss}).

    Each fold fits the grid, largest lambda first, as one path, so its rows
    are encoded and standardized once, not once per lambda: on a 63k x 250
    hybrid fold that prologue alone takes about 0.4 s on a 2-core host.  A
    fold fit that runs out of budget is scored where it stopped.

    The fold fits and the refit, a plain ``fit_linear``, stop on their
    link's one rule (see ``_fit_path``); a logistic refit reads S(0, 0) at
    its own lambda, so its bound is at least as loose as a fold fit's
    there.

    The arguments are checked here, once, before the folds fan out.  Each
    fold (its split, path, predictions and summed validation loss) is one
    ``fork_map`` item, run in a forked worker or in the caller; the losses
    come back in fold order and are added up in that order, as a serial
    loop adds them.  Only ``_fit_path`` and ``LinearModel.predict`` run in
    a worker, never ``fit_linear``: the final refit stays in the caller."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if data.n_rows < 2:
        raise ValueError(f"cross-validation needs at least 2 rows, got {data.n_rows}")
    _check_link(link, data)
    grid = default_lambda_grid(data)

    def fold_losses(fold):
        train_idx, val_idx = fold
        Xv = data.X[val_idx]
        yv = data.y[val_idx]
        return [
            cv_loss(model.predict(Xv), yv, link) * len(val_idx)
            for model, _ in _fit_path(data.take(train_idx), link, grid, max_iter)
        ]

    totals = {lam: 0.0 for lam in grid}
    for losses in fork_map(fold_losses, _kfold_indices(data.n_rows, min(folds, data.n_rows), seed)):
        for lam, loss in zip(grid, losses):
            totals[lam] += loss
    # minimize CV loss; ties prefer the larger lambda (sparser model)
    best = grid[0]
    for lam in grid:
        if totals[lam] < totals[best] - 1e-12:
            best = lam
    model = fit_linear(data, link, best, max_iter)
    cv_table = {lam: totals[lam] / data.n_rows for lam in grid}
    return model, cv_table
